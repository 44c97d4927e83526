"""The subsampling primitive and its exact small-instance oracles.

``subsample_answer`` draws a uniform without-replacement w-subset of dataset
positions and evaluates the query on it; ``exact_response_pmf`` computes the
same answer law in closed form by enumerating all C(n, w) subsets, and
``population_response_pmf`` the law on w fresh iid draws from a population.
Both walk ``core.position_blocks`` and read q's exact law on each block of
rows (``Query.output_laws``), as the sampler's answer draw does, so
the sampler and the enumerators agree by construction (subsamples are
canonicalized to dataset-position order), which the test suite checks by
frequency comparison. ``uniformize``'s floor holds by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from .core import (
    Dataset,
    GroundTruth,
    MASS_TOL,
    Query,
    check_enumeration,
    check_mass_rows,
    population_blocks,
    position_blocks,
)


class RandomSource:
    """A splittable deterministic stream identified by (seed, split path).

    Streams are counter-based (Philox) and derived via numpy's SeedSequence
    spawn keys, so the same (seed, path) always yields the identical stream
    and distinct paths yield independent-quality streams. ``child`` extends
    the path without touching this source's state.

    Vectorized consumers draw blocks from one stream; within a block, the
    i-th draw sits at a fixed counter offset, so any single draw is
    reproducible in isolation by replaying its block.
    """

    __slots__ = ("seed", "path", "_generator")

    def __init__(self, seed: int, path: tuple[int, ...] = ()):
        self.seed = int(seed)
        self.path = tuple(int(p) for p in path)
        self._generator: Optional[np.random.Generator] = None

    def child(self, *labels: int) -> "RandomSource":
        return RandomSource(self.seed, self.path + tuple(labels))

    @property
    def generator(self) -> np.random.Generator:
        if self._generator is None:
            ss = np.random.SeedSequence(self.seed, spawn_key=self.path)
            self._generator = np.random.Generator(np.random.Philox(ss))
        return self._generator

    def __repr__(self) -> str:
        return f"RandomSource(seed={self.seed}, path={self.path})"


@dataclass(frozen=True)
class ResponsePMF:
    """A probability mass function over an ordered finite range."""

    outputs: tuple
    masses: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "outputs", tuple(self.outputs))
        masses = np.array(self.masses, dtype=float)  # a copy: the caller keeps its array
        masses.setflags(write=False)
        object.__setattr__(self, "masses", masses)
        if masses.shape != (len(self.outputs),):
            raise ValueError("masses must align index-for-index with outputs")
        check_mass_rows(masses)

    def support(self) -> tuple:
        return tuple(y for y, m in zip(self.outputs, self.masses) if m > 0.0)

    @cached_property
    def _values(self) -> np.ndarray:
        """The outputs as floats, built on the first tail sum."""
        return np.asarray(self.outputs, dtype=float)

    def prob_le(self, y) -> float:
        return float(self.masses[self._values <= float(y)].sum())

    def prob_ge(self, y) -> float:
        return float(self.masses[self._values >= float(y)].sum())


def draw_positions(gen: np.random.Generator, n: int | np.ndarray, w: int,
                   m: int = 1) -> np.ndarray:
    """m independent uniform without-replacement w-subsets, as an (m, w)
    int64 array with each row in ascending order; row i is drawn from
    [0, n_i), where ``n`` is one int for every row or one per row.

    Floyd's algorithm (Bentley & Floyd 1987), vectorized over rows: step s
    takes t uniform on [0, j] with j = n_i - w + s and keeps t unless the
    row already holds it, in which case it keeps j. Every w-subset then has
    probability exactly 1/C(n_i, w). All m*w integers come from one
    ``gen.integers`` call in row-major order, so with w = 1 the draw is the
    stream of ``gen.integers(0, n, size=m)``. Rows are sorted, so a query
    sees the drawn multiset in dataset order regardless of draw order.

    The Floyd steps run on contiguous per-step columns, and the rows are
    sorted by a compare-exchange network for w <= 4 and by a row-wise sort
    above that; either way the rows hold distinct ints, so the result is
    the same.
    """
    if m < 0:
        raise ValueError(f"cannot draw {m} subsets: need m >= 0")
    n = np.asarray(n, dtype=np.int64)
    if n.ndim > 1 or n.size not in (1, m):
        raise ValueError(f"need one population size or one per row, got shape {n.shape}")
    if w < 1 or (n.size and n.min() < w):
        raise ValueError(f"cannot draw {w} distinct positions from [0, {n})")
    high = n.reshape(-1, 1) + np.arange(1 - w, 1)
    if high.shape[0] != m:  # one size for every row
        high = np.broadcast_to(high, (m, w))
    pos = gen.integers(0, high)
    if w == 1:
        return pos
    cols = pos.T.copy()  # row s is step s of every draw
    for s in range(1, w):
        col = cols[s]
        taken = cols[0] == col
        for r in range(1, s):
            taken |= cols[r] == col
        np.copyto(col, n + (s - w), where=taken)  # j = n - w + s
    if w > len(_SORT_NETWORKS):
        pos = cols.T.copy()
        pos.sort(axis=1)
        return pos
    for a, b in _SORT_NETWORKS[w - 1]:
        low = np.minimum(cols[a], cols[b])
        np.maximum(cols[a], cols[b], out=cols[b])
        cols[a] = low
    return cols.T.copy()


# compare-exchange networks that sort 1 to 4 values, as (a, b) index pairs
_SORT_NETWORKS = ((), ((0, 1),), ((1, 2), (0, 2), (0, 1)),
                  ((0, 1), (2, 3), (0, 2), (1, 3), (1, 2)))


def subsample_answer(q: Query, S: Dataset, rng: RandomSource | np.random.Generator,
                     size: Optional[int] = None):
    """Draw y ~ q's answer law on S: the element of ``q.outputs`` that q
    gives on a uniform without-replacement w-subset of S's positions.

    With ``size`` given, returns an array of that many independent answers:
    all positions in one draw, then q's answers on the drawn rows in one
    ``Query.answer_indices`` call. Without it, the one answer is that draw
    of one row. The marginal law of each answer equals
    ``exact_response_pmf(q, S)``.
    """
    n = len(S)
    if q.arity > n:
        raise ValueError(f"query arity {q.arity} exceeds sample size {n}")
    gen = rng.generator if isinstance(rng, RandomSource) else rng
    pos = draw_positions(gen, n, q.arity, 1 if size is None else size)
    index = q.answer_indices(S, pos, gen)
    if size is None:
        return q.outputs[index[0]]
    return np.asarray(q.outputs)[index]


def exact_response_pmf(q: Query, S: Dataset) -> ResponsePMF:
    """The exact answer law of q on S: the average over all C(n, w) position
    subsets of q's output distribution on that subset. A deterministic q's
    laws are one-hot, so summing them counts outputs exactly."""
    n, w = len(S), q.arity
    if w > n:
        raise ValueError(f"query arity {w} exceeds sample size {n}")
    check_enumeration(math.comb(n, w) * len(q.outputs), f"C({n},{w})*|Y|")
    masses = sum(q.output_laws(S, pos).sum(axis=0) for pos in position_blocks(n, w))
    return ResponsePMF(q.outputs, masses / math.comb(n, w))


def leave_one_out_pmfs(q: Query, S: Dataset) -> tuple[ResponsePMF, np.ndarray]:
    """q's exact answer law on S, and a read-only (n, |Y|) array whose row i
    is the law on S minus position i: ``leave_one_out_block_laws`` of one
    instance."""
    full, loo = leave_one_out_block_laws(lambda pos: q.output_laws(S, pos)[None], 1,
                                         len(S), q.arity, len(q.outputs))
    return ResponsePMF(q.outputs, full[0]), loo


def leave_one_out_block_laws(block_laws: Callable[[np.ndarray], np.ndarray],
                             count: int, n: int, w: int,
                             ysize: int) -> tuple[np.ndarray, np.ndarray]:
    """For I = ``count`` instances of sample size n, arity w and range size
    |Y|, whose (I, m, |Y|) output laws on an (m, w) block of position rows
    ``block_laws`` gives: an (I, |Y|) array whose row k is instance k's
    exact answer law on its sample S_k, and a read-only (I n, |Y|) array
    whose row k n + i is the law on S_k minus position i.

    One walk of ``position_blocks(n, w)`` serves every instance. The
    w-subsets of S minus i are exactly the w-subsets of S that miss position
    i, so the law on S minus i sums them as the sum over all subsets less
    the sum over the subsets that hold i, which each block adds up per
    position column (``np.bincount``); the memory is
    O(I (SUBSET_BLOCK (w + |Y|) + n |Y|)), and I C(n, w) |Y| is checked
    against ``ENUM_CAP`` before any of it is built.

    A deterministic instance's laws are one-hot, so both sums are integer
    counts and the difference is exact. A randomized one's law on S minus i
    is zero exactly where no subset that misses i gives that output positive
    mass, which the same difference of counts of positive-mass rows decides,
    so a zero mass is exactly zero."""
    if w > n - 1:
        raise ValueError(f"query arity {w} exceeds leave-one-out sample size {n - 1}")
    check_enumeration(count * math.comb(n, w) * ysize, f"{count}*C({n},{w})*|Y|")
    full = np.zeros((count, 2 * ysize))
    held = np.zeros(count * n * 2 * ysize)
    # the bin of (instance k, position p, cell c) is (k n + p) 2|Y| + c
    cells = np.arange(count)[:, None, None] * (n * 2 * ysize) + np.arange(2 * ysize)
    for pos in position_blocks(n, w):
        laws = block_laws(pos)
        both = np.concatenate([laws, laws > 0.0], axis=2)
        full += both.sum(axis=1)
        for column in pos.T:
            held += np.bincount((column[:, None] * (2 * ysize) + cells).ravel(),
                                weights=both.ravel(), minlength=held.size)
    rest = full[:, None, :] - held.reshape(count, n, 2 * ysize)
    masses, positive = rest[..., :ysize], rest[..., ysize:] > 0.0
    loo = (np.where(positive, np.maximum(masses, 0.0), 0.0)
           / math.comb(n - 1, w)).reshape(count * n, ysize)
    check_mass_rows(loo)
    loo.setflags(write=False)
    return full[:, :ysize] / math.comb(n, w), loo


def population_response_pmf(q: Query, D: GroundTruth) -> ResponsePMF:
    """The answer law of q on w iid draws from D: q's output law on each
    ordered w-tuple of D's support of nonzero mass, weighted by its mass."""
    w = q.arity
    check_enumeration(len(D.support) ** w * len(q.outputs), f"|support|^{w}*|Y|")
    points = Dataset(D.support)
    masses = sum(weights @ q.output_laws(points, pos)
                 for weights, pos in population_blocks(D, w))
    return ResponsePMF(q.outputs, masses)


def uniformize(q: Query, p: float) -> Query:
    """Mix q with uniform output noise so every output value has probability
    at least p on every input: with probability p*|Y| the answer is a uniform
    draw from Y, otherwise q's own answer."""
    ysize = len(q.outputs)
    if not math.isfinite(p) or p < 0 or p * ysize > 1 + MASS_TOL:
        raise ValueError(f"need 0 <= p*|Y| <= 1, got p={p}, |Y|={ysize}")
    mix = p * ysize
    name = f"uniformize({q.name or 'query'},{p:g})"

    def dist_fn(*sub):
        return (1.0 - mix) * q.output_pmf(sub) + p

    return Query.randomized(q.arity, q.outputs, dist_fn, name=name)
