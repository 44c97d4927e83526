"""Divergences, closed-form stability bounds, and brute-force verifiers.

The central facts checked numerically here:

* the answer law of a w-ary query with range Y on a sample of size n is,
  on average over leave-one-out samples, chi-squared-close to the law on
  n-1 points, with the closed form w(|Y|-1)/((n-1)(n-w));
* the variance-contraction inequality behind it, tight for linear
  functions of the drawn subset;
* KL-vs-chi-squared comparison inequalities (with a pointwise mass-ratio
  floor, and against a uniform-smoothed mixture);
* a without-replacement sum exceeds its mean minus one with probability
  at least (2*sqrt(3)-3)/13 > 0.0357.

Divergences use the natural logarithm throughout. The reversed
chi-squared divergence puts the first argument in the denominator:
chi2(D || E) = sum_y (D(y)-E(y))^2 / D(y), finite iff supp(E) is
contained in supp(D). Infinite divergences are returned as math.inf.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .core import Dataset, Query, check_enumeration, position_blocks
from .engine import (RandomSource, ResponsePMF, leave_one_out_block_laws,
                     leave_one_out_pmfs)

INEQ_TOL = 1e-10
CHI2_EXCESS = "leave-one-out chi2 {} exceeds closed form {}"  # measured, bound


def _check_same_range(dp: ResponsePMF, ep: ResponsePMF) -> None:
    if dp.outputs != ep.outputs:
        raise ValueError("distributions must share the same ordered range")


def kl_divergence_rows(d, e) -> np.ndarray:
    """Row-wise KL(D || E) over the last axis of (..., |Y|) mass arrays: the
    sum over D(y) > 0 of D(y) ln(D(y)/E(y)); +inf where some y has D(y) > 0
    but E(y) = 0."""
    d, e = np.asarray(d, dtype=float), np.asarray(e, dtype=float)
    finite = (d > 0.0) & (e > 0.0)
    ratio = np.divide(d, e, out=np.ones(finite.shape), where=finite)
    total = (d * np.log(ratio)).sum(axis=-1)
    return np.where(((d > 0.0) & ~finite).any(axis=-1), math.inf, total)


def chi2_divergence_rows(d, e) -> np.ndarray:
    """Row-wise reversed Neyman chi-squared over the last axis of (..., |Y|)
    mass arrays: the sum over supp(D) of (D(y)-E(y))^2/D(y); +inf where
    supp(E) is not contained in supp(D)."""
    d, e = np.asarray(d, dtype=float), np.asarray(e, dtype=float)
    sq = (d - e) ** 2
    total = np.divide(sq, d, out=np.zeros(sq.shape), where=d > 0.0).sum(axis=-1)
    return np.where(((d <= 0.0) & (e > 0.0)).any(axis=-1), math.inf, total)


def kl_divergence(dp: ResponsePMF, ep: ResponsePMF) -> float:
    """KL(D || E) of two laws on the same range (see kl_divergence_rows)."""
    _check_same_range(dp, ep)
    return float(kl_divergence_rows(dp.masses, ep.masses))


def chi2_divergence(dp: ResponsePMF, ep: ResponsePMF) -> float:
    """Reversed chi2(D || E) of two laws on the same range (see
    chi2_divergence_rows)."""
    _check_same_range(dp, ep)
    return float(chi2_divergence_rows(dp.masses, ep.masses))


def chi2_stability_bound(n: int, w: int, ysize: int) -> float:
    """Closed-form average leave-one-out chi-squared stability of a w-ary
    query with range size |Y| on n points: w(|Y|-1)/((n-1)(n-w))."""
    if not 1 <= w <= n - 1:
        raise ValueError(f"need 1 <= w <= n-1, got w={w}, n={n}")
    if not ysize >= 1:  # NaN too
        raise ValueError("range size must be at least 1")
    return w * (ysize - 1) / ((n - 1) * (n - w))


@dataclass(frozen=True)
class StabilityReport:
    """Measured average leave-one-out divergence against its closed form,
    with the answer law on the full sample that it was measured from."""

    measured: float
    bound: float
    per_index: tuple[float, ...]
    law: ResponsePMF


def measure_leave_one_out_chi2(q: Query, S: Dataset) -> StabilityReport:
    """Average over i of chi2(law on S || law on S minus point i), by exact
    enumeration; a value above the closed-form bound (beyond ``INEQ_TOL``)
    raises RuntimeError, worded by ``CHI2_EXCESS``."""
    law, loo = leave_one_out_pmfs(q, S)
    measured, bound, per, _ = _chi2_rows(law.masses[None], loo, len(S), q.arity,
                                         np.array([len(q.outputs)]))
    measured, bound = float(measured[0]), float(bound[0])
    if measured > bound + INEQ_TOL:
        raise RuntimeError(CHI2_EXCESS.format(measured, bound))
    return StabilityReport(measured=measured, bound=bound,
                           per_index=tuple(per[0].tolist()), law=law)


def table_chi2_rows(rows: QueryBlock, group
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``_chi2_rows`` of the instances ``group`` (indices into the block) of
    a query block, which share n and w, read from the block's arrays with no
    Query built; no instance at all is a ValueError. The group is walked at
    its largest |Y|: row k's laws are zero-padded past its own |Y|, and a
    padded cell, 0 in both laws, adds exactly 0.0 to its divergences. On
    each block of position rows ``pos``, instance k's answers are one gather
    from the flat table cells, cells[t0_k + sum_j D_k[pos[:, j]]
    a_k^(w-1-j)] for its dataset D_k, alphabet size a_k and table offset
    t0_k, which is table[tuple(x)] of its (a_k,) * w table; their one-hot
    rows are its output laws there."""
    group = np.asarray(group, dtype=np.intp)
    if group.size == 0:
        raise ValueError("need at least one instance")
    shapes = np.stack([rows.n[group], rows.w[group]])
    if (shapes != shapes[:, :1]).any():
        raise ValueError("instances must share n and w")
    n, w = shapes[:, 0].tolist()
    ysizes = rows.ysize[group]
    ysize = int(ysizes.max())
    data = rows.data[rows.data_starts[group, None] + np.arange(n)]
    place = rows.a[group, None, None] ** np.arange(w - 1, -1, -1)
    starts = rows.cell_starts[group, None]
    one_hot = np.eye(ysize)

    def block_laws(pos: np.ndarray) -> np.ndarray:
        keys = (data[:, pos] * place).sum(axis=2)
        return one_hot[rows.cells[starts + keys]]

    full, loo = leave_one_out_block_laws(block_laws, group.size, n, w, ysize)
    return _chi2_rows(full, loo, n, w, ysizes)


def _chi2_rows(full: np.ndarray, loo: np.ndarray, n: int, w: int, ysizes: np.ndarray
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """From I instances' (I, |Y|) laws on S_k and (I n, |Y|) leave-one-out
    laws, each row zero-padded past its range size ``ysizes[k]``: the (I,)
    averages over i of chi2(law on S_k || law on S_k minus point i), their
    (I,) closed-form bounds (one ``chi2_stability_bound`` call per distinct
    range size), the (I, n) per-index divergences and the laws. The caller
    judges the averages against the bounds."""
    count, ysize = full.shape
    per = chi2_divergence_rows(full[:, None, :], loo.reshape(count, -1, ysize))
    by_size = np.zeros(ysizes.max() + 1)
    for s in set(ysizes.tolist()):
        by_size[s] = chi2_stability_bound(n, w, s)
    return per.mean(axis=1), by_size[ysizes], per, full


def measure_leave_one_out_kl(q: Query, S: Dataset, mix: float) -> float:
    """Average over i of KL(law on S || smoothed leave-one-out law), where
    the comparison law mixes the n-1-point law with Unif(Y) at weight
    ``mix``. Finite whenever mix > 0; at mix equal to the chi-squared
    stability bound the value is within the general ALKL closed form."""
    if not 0.0 <= mix <= 1.0:
        raise ValueError("mix weight must lie in [0, 1]")
    ysize = len(q.outputs)
    full, loo = leave_one_out_pmfs(q, S)
    mixed = (1.0 - mix) * loo + mix / ysize
    return float(np.mean(kl_divergence_rows(full.masses, mixed)))


def alkl_bound_general(eps: float, ysize: int) -> float:
    """Average leave-one-out KL stability implied by eps chi-squared
    stability with uniform smoothing: eps * (3 + 2 ln(|Y|/eps))."""
    if not 0 < eps < math.inf:  # NaN too
        raise ValueError(f"eps must be finite and positive, got {eps}")
    if not ysize >= 1:  # NaN too
        raise ValueError(f"need |Y| >= 1, got {ysize}")
    return eps * (3.0 + 2.0 * math.log(ysize / eps))


def alkl_bound_uniform(eps: float, w: int, n: int, p: float) -> float:
    """ALKL stability for a p-uniform query via the mass-ratio route:
    eps * (1 + ln(1 + w/(n p)))."""
    if not (0 < eps < math.inf and 0 < p < math.inf):  # NaN too
        raise ValueError(f"need finite eps, p > 0, got eps={eps}, p={p}")
    if not (n >= 1 and w >= 1):  # NaN too
        raise ValueError(f"need n >= 1 and w >= 1, got n={n}, w={w}")
    return eps * (1.0 + math.log(1.0 + w / (n * p)))


def verify_variance_contraction(f, n: int, w: int) -> tuple[float, float]:
    """Evaluate both sides of the variance-contraction inequality for a
    function f of the drawn w-subset of [n]:

        Var_i[ E[f(T) | i not in T] ]  <=  w/((n-1)(n-w)) * Var_T[f(T)]

    f may be a mapping keyed by ascending index tuples or a callable on
    them. Returns (lhs, rhs); equality holds for linear f. The one-row call
    of ``variance_contraction_rows``, refused before f is evaluated.
    """
    _check_contraction(1, n, w)
    f = f.__getitem__ if isinstance(f, Mapping) else f
    vals = [float(f(tuple(c))) for pos in position_blocks(n, w) for c in pos.tolist()]
    lhs, rhs = variance_contraction_rows([vals], n, w)
    return float(lhs[0]), float(rhs[0])


def variance_contraction_rows(vals, n: int, w: int) -> tuple[np.ndarray, np.ndarray]:
    """Both sides of the variance-contraction inequality (see
    ``verify_variance_contraction``) for I functions of the drawn w-subset
    of [n], one per row of an (I, C(n, w)) value array in
    ``itertools.combinations`` order: the (I,) lhs and rhs arrays.
    I n C(n, w) is checked against ``ENUM_CAP`` before anything is built; a
    value that is not finite is refused, since NaN sides pass no check."""
    _check_contraction(len(vals), n, w)
    vals = np.asarray(vals, dtype=float)
    subsets = math.comb(n, w)
    if vals.shape != (len(vals), subsets):
        raise ValueError(f"need one row of C({n},{w}) = {subsets} values per function")
    if not np.isfinite(vals).all():
        raise ValueError("subset function values must be finite")
    pos = np.concatenate(list(position_blocks(n, w)))
    held = np.zeros((n, subsets), dtype=bool)
    held[pos.T, np.arange(subsets)] = True
    # row i: the subsets that miss i. vals[:, miss] comes out in another
    # memory order, and its means would sum in another order than the 1-D
    # mean of each row's values: copied C-contiguous, they sum alike
    miss = np.nonzero(~held)[1].reshape(n, -1)
    cond_means = np.ascontiguousarray(vals[:, miss]).mean(axis=2)
    lhs = cond_means.var(axis=1)
    rhs = w / ((n - 1) * (n - w)) * vals.var(axis=1)
    return lhs, rhs


def _check_contraction(count: int, n: int, w: int) -> None:
    if not 1 <= w <= n - 1:
        raise ValueError(f"need 1 <= w <= n-1, got w={w}, n={n}")
    check_enumeration(count * n * math.comb(n, w), f"{count}*n*C({n},{w})")


@dataclass(frozen=True)
class InequalityCheck:
    """Both sides of an inequality and whether it held; arrays, one entry
    per row, from a row-wise check."""

    passed: bool | np.ndarray
    lhs: float | np.ndarray
    rhs: float | np.ndarray


def kl_chi2_rows(d, e, tau) -> InequalityCheck:
    """Row-wise check of KL(D || E) <= (1 + ln(1/tau)) chi2(D || E) over
    (..., |Y|) mass arrays, tau one per row. The pointwise floor
    E(y) >= tau * D(y) is the caller's precondition."""
    lhs = kl_divergence_rows(d, e)
    rhs = (1.0 + np.log(1.0 / np.asarray(tau, dtype=float))) * chi2_divergence_rows(d, e)
    return InequalityCheck(passed=lhs <= rhs + INEQ_TOL, lhs=lhs, rhs=rhs)


def kl_mixture_rows(d, e, tau, ysize) -> InequalityCheck:
    """Row-wise check of KL(D || E') <= (1 + ln(|Y|/tau)) (chi2(D || E) + tau)
    + tau for E' = (1-tau) E + tau Unif(Y), tau and the range size |Y| one
    per row. Zero-padded columns past a row's |Y| have D(y) = 0, so they
    add nothing to either side."""
    tau = np.asarray(tau, dtype=float)
    mixed = (1.0 - tau[..., None]) * e + (tau / ysize)[..., None]
    lhs = kl_divergence_rows(d, mixed)
    rhs = (1.0 + np.log(ysize / tau)) * (chi2_divergence_rows(d, e) + tau) + tau
    return InequalityCheck(passed=lhs <= rhs + INEQ_TOL, lhs=lhs, rhs=rhs)


def _one_row(check: InequalityCheck) -> InequalityCheck:
    return InequalityCheck(bool(check.passed), float(check.lhs), float(check.rhs))


def verify_kl_chi2_inequality(dp: ResponsePMF, ep: ResponsePMF,
                              tau: float) -> InequalityCheck:
    """kl_chi2_rows on one pair of laws. A violated floor E(y) >= tau * D(y)
    raises (it is a precondition, not a failed check)."""
    _check_same_range(dp, ep)
    if not 0.0 < tau <= 1.0:
        raise ValueError("tau must lie in (0, 1]")
    if np.any(ep.masses < tau * dp.masses - 1e-12):
        raise ValueError("precondition E(y) >= tau*D(y) violated")
    return _one_row(kl_chi2_rows(dp.masses, ep.masses, tau))


def verify_kl_mixture_inequality(dp: ResponsePMF, ep: ResponsePMF,
                                 tau: float) -> InequalityCheck:
    """kl_mixture_rows on one pair of laws."""
    _check_same_range(dp, ep)
    if not 0.0 < tau <= 1.0:
        raise ValueError("tau must lie in (0, 1]")
    return _one_row(kl_mixture_rows(dp.masses, ep.masses, tau, len(dp.outputs)))


def sample_exceeds_mean_probe(S: Sequence[float], n: int, trials: int,
                              rng: RandomSource | np.random.Generator,
                              *, chunk: int = 4096) -> float:
    """Monte Carlo estimate of Pr[sum of n without-replacement draws from S
    exceeds its mean minus 1]. Values must lie in [0, 1].

    A trial draws how many copies of each distinct value the n-subset holds,
    from their multivariate hypergeometric law, which is exactly the law of
    the sum of a uniform n-subset of S. ``trials`` and ``chunk`` below 1
    are refused before any draw."""
    vals = _probe_values(S, n)
    for name, count in (("trials", trials), ("chunk", chunk)):
        if count < 1:
            raise ValueError(f"{name} must be at least 1, got {count}")
    gen = rng.generator if isinstance(rng, RandomSource) else rng
    target = n * vals.mean() - 1.0
    levels, colors = np.unique(vals, return_counts=True)
    hits = 0
    done = 0
    while done < trials:
        m = min(chunk, trials - done)
        counts = gen.multivariate_hypergeometric(colors, n, size=m, method="count")
        hits += int(np.count_nonzero(counts @ levels > target))
        done += m
    return hits / trials


def sample_exceeds_mean_exact(S: Sequence[float], n: int) -> float:
    """Exact Pr[sum of n without-replacement draws from S > its mean - 1],
    from the law that ``sample_exceeds_mean_probe`` samples: the
    multivariate hypergeometric law of how many copies k_j of each distinct
    value level_j the n-subset holds.

    The walk visits every count vector k with 0 <= k_j <= c_j (c_j copies of
    level_j in S) and sum k_j = n, and sums prod_j C(c_j, k_j) over those with
    sum k_j * level_j > n * mean(S) - 1, exactly, as an integer; the result
    is that integer over C(|S|, n). Vectors are built in rounds, one nonzero
    entry per round in ascending level order, each sum accumulated level by
    level in floating point. A round builds only partial vectors that can
    still be completed, so each one stands for at least one count vector:
    the running total is checked against ``ENUM_CAP`` before each round is
    built, and it ends at the number of count vectors. There are at most
    C(|S|, n) of those, exactly that many when all values differ, and n + 1
    for two values that each occur at least n times.
    """
    vals = _probe_values(S, n)
    levels, colors = np.unique(vals, return_counts=True)
    target = n * vals.mean() - 1.0
    total = math.comb(vals.size, n)
    # weights and their sums are at most C(|S|, n), the sum of all weights
    dtype = np.int64 if total < 2 ** 63 else object
    room = np.append(np.cumsum(colors[::-1])[::-1], 0)  # copies at levels j onward
    what = f"C({vals.size},{n}) count vectors, at least"
    hits = done = 0
    # partial vectors: last level set (-1 before any), copies taken, sum, weight
    last, taken = np.array([-1]), np.array([0])
    sums, weight = np.zeros(1), np.ones(1, dtype=dtype)
    while last.size:
        need = n - taken
        # the next nonzero level j has room[j] >= need, and room falls with j
        top = np.searchsorted(-room, -need, side="right")
        row, nxt = _ragged(last + 1, top - last - 1, done, what)
        need = need[row]
        low = np.maximum(1, need - room[nxt + 1])
        pick, k = _ragged(low, np.minimum(colors[nxt], need) - low + 1, done, what)
        row, nxt = row[pick], nxt[pick]
        taken = taken[row] + k
        sums = sums[row] + k * levels[nxt]
        keys, which = np.unique(colors[nxt] * (n + 1) + k, return_inverse=True)
        weight = weight[row] * _binomials(keys // (n + 1), keys % (n + 1), dtype)[which]
        complete = taken == n
        hits += weight[complete & (sums > target)].sum()
        done += int(np.count_nonzero(complete))
        last, taken = nxt[~complete], taken[~complete]
        sums, weight = sums[~complete], weight[~complete]
    return int(hits) / total


def _ragged(starts: np.ndarray, lengths: np.ndarray, done: int,
            what: str) -> tuple[np.ndarray, np.ndarray]:
    """For each i, the run starts[i], starts[i] + 1, ... of lengths[i]
    integers, concatenated: each entry's i and its value. Each entry stands
    for at least one count vector beside the ``done`` ones already counted,
    so their total is checked against ``ENUM_CAP`` before any is built."""
    check_enumeration(done + int(lengths.sum()), what)
    owner = np.repeat(np.arange(lengths.size), lengths)
    offset = np.arange(owner.size) - np.repeat(np.cumsum(lengths) - lengths, lengths)
    return owner, starts[owner] + offset


def _binomials(cs: np.ndarray, ks: np.ndarray, dtype) -> np.ndarray:
    """C(cs[i], ks[i]) for pairs in ascending order: math.comb for the first
    pair of each c, then C(c, k) = C(c, k-1) (c-k+1) / k along a run of k."""
    out, prev = [], (-1, -1)
    for c, k in zip(cs.tolist(), ks.tolist()):
        if prev == (c, k - 1):
            out.append(out[-1] * (c - k + 1) // k)
        else:
            out.append(math.comb(c, k))
        prev = (c, k)
    return np.array(out, dtype=dtype)


def _probe_values(S: Sequence[float], n: int) -> np.ndarray:
    vals = np.asarray(S, dtype=float)
    if vals.ndim != 1 or not 1 <= n < vals.size:
        raise ValueError("need a flat value list and 1 <= n < |S|")
    if not np.isfinite(vals).all() or vals.min() < 0.0 or vals.max() > 1.0:
        raise ValueError("probe values must lie in [0, 1]")
    return vals


# ---------------------------------------------------------------------------
# Random instance generators for the verification suites. Instances are
# drawn from seeded streams so every suite run is reproducible from its
# seed.

PMF_SIZE_RANGE = (2, 6)  # range sizes of a pair-of-laws instance, inclusive
PMF_BLOCK = 1 << 12  # pair-of-laws instances drawn from one stream
SUITE_BLOCK = 1000  # query and subset-function instances drawn from one stream
QUERY_N_RANGE = (3, 8)  # sample sizes of a random instance, inclusive
QUERY_W_RANGE = (1, 3)  # its arities, inclusive and at most n - 1
QUERY_Y_RANGE = (2, 4)  # range sizes of a random query instance, inclusive
QUERY_ALPHABET_RANGE = (2, 5)  # its alphabet sizes, inclusive


def random_pmf_rows(seed: int,
                    block: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Instances b*PMF_BLOCK onward of a pair-of-laws suite (b = ``block``),
    from RandomSource(seed).child(b): one draw of sizes from PMF_SIZE_RANGE,
    one of Exp(1) entries for the D and E rows. A row zeroed past its size
    and divided by its sum is Dirichlet(1, ..., 1) of that size, as
    Generator.dirichlet draws it. Returns the sizes and the rows, zero-padded
    to width PMF_SIZE_RANGE[1]."""
    gen, (lo, width) = RandomSource(seed).child(block).generator, PMF_SIZE_RANGE
    sizes = gen.integers(lo, width + 1, size=PMF_BLOCK)
    rows = gen.standard_exponential((2, PMF_BLOCK, width))
    rows *= np.arange(width) < sizes[:, None]
    rows *= 1.0 / rows.sum(axis=-1, keepdims=True)
    return sizes, rows[0], rows[1]


def random_query_instance(gen: np.random.Generator, *,
                          n_range: tuple[int, int] = QUERY_N_RANGE,
                          w_range: tuple[int, int] = QUERY_W_RANGE,
                          ) -> tuple[Query, Dataset]:
    """A random deterministic query (a uniform random map from ordered
    w-tuples of a small alphabet to 0..|Y|-1) plus a random dataset over
    that alphabet, with |Y| from ``QUERY_Y_RANGE`` and the alphabet size
    from ``QUERY_ALPHABET_RANGE``. Datasets may contain duplicates. Ranges
    that hold no instance are refused before anything is drawn.

    The map is one ``integers(0, |Y|, size=(a,) * w)`` draw, which reads the
    stream as one scalar draw per key in ``itertools.product`` order does,
    and the query answers a block of rows by looking them up in it
    (``Query.batch``)."""
    _check_ranges(n_range, w_range)
    n = int(gen.integers(n_range[0], n_range[1] + 1))
    w = int(gen.integers(w_range[0], min(w_range[1], n - 1) + 1))
    ysize = int(gen.integers(QUERY_Y_RANGE[0], QUERY_Y_RANGE[1] + 1))
    a = int(gen.integers(QUERY_ALPHABET_RANGE[0], QUERY_ALPHABET_RANGE[1] + 1))
    table = gen.integers(0, ysize, size=(a,) * w)
    return _table_query(table, ysize), Dataset(gen.integers(0, a, size=n))


@dataclass(frozen=True)
class QueryBlock:
    """SUITE_BLOCK random lookup-table query instances as arrays. Instance k
    has sample size n[k], arity w[k], range size ysize[k] and alphabet size
    a[k]; its (a,) * w table is the a**w flat cells from cell_starts[k] in C
    order, and its dataset the n entries of data from data_starts[k]."""

    n: np.ndarray
    w: np.ndarray
    ysize: np.ndarray
    a: np.ndarray
    cells: np.ndarray
    cell_starts: np.ndarray
    data: np.ndarray
    data_starts: np.ndarray

    def instance(self, k: int) -> tuple[Query, Dataset]:
        """Instance k as a (query, dataset) pair (``random_query_instance``'s
        form)."""
        n, w, a = int(self.n[k]), int(self.w[k]), int(self.a[k])
        cell, entry = int(self.cell_starts[k]), int(self.data_starts[k])
        table = self.cells[cell:cell + a ** w].reshape((a,) * w)
        return (_table_query(table, int(self.ysize[k])),
                Dataset(self.data[entry:entry + n]))


def random_query_block(seed: int, block: int) -> QueryBlock:
    """Instances b*SUITE_BLOCK onward of the chi2 suite (b = ``block``), with
    ``random_query_instance``'s law, drawn from RandomSource(seed).child(b)
    for the whole block at once: one draw each of the SUITE_BLOCK sizes n,
    arities w, range sizes |Y| and alphabet sizes a, then one ``integers``
    draw of every instance's a**w table cells in turn and one of every
    dataset's n entries. An instance's table and dataset are its exact-size
    slices of those two draws."""
    gen = RandomSource(seed).child(block).generator
    n, w = _draw_shapes(gen)
    ysize, a = (gen.integers(lo, hi + 1, size=SUITE_BLOCK)
                for lo, hi in (QUERY_Y_RANGE, QUERY_ALPHABET_RANGE))
    sizes = a ** w
    cells = gen.integers(0, np.repeat(ysize, sizes))
    data = gen.integers(0, np.repeat(a, n))
    return QueryBlock(n, w, ysize, a, cells, np.cumsum(sizes) - sizes,
                      data, np.cumsum(n) - n)


def random_subset_rows(seed: int, block: int, linear: bool = False
                       ) -> tuple[np.ndarray, np.ndarray, list[np.ndarray]]:
    """Instances b*SUITE_BLOCK onward of a variance suite (b = ``block``),
    from RandomSource(seed).child(b): the sizes n and arities w, drawn as
    ``random_query_block`` draws them, and each instance's random real
    function on the w-subsets of [n], as its C(n, w) values in
    ``itertools.combinations`` order. The values are exact-size slices of
    one uniform [-1, 1) draw, one value per subset; or, if linear, f(T) is
    the sum of per-index weights over T, added up index by index in T's
    order, with each instance's n weights a slice of one uniform [-1, 1)
    draw."""
    gen = RandomSource(seed).child(block).generator
    n, w = _draw_shapes(gen)
    if not linear:
        sizes = np.array([math.comb(nk, wk) for nk, wk in zip(n.tolist(), w.tolist())])
        flat, ends = gen.uniform(-1.0, 1.0, size=sizes.sum()), np.cumsum(sizes).tolist()
        return n, w, [flat[lo:hi] for lo, hi in zip([0] + ends, ends)]
    alpha, starts = gen.uniform(-1.0, 1.0, size=n.sum()), np.cumsum(n) - n
    vals: list = [None] * SUITE_BLOCK
    for group in key_groups(n, w):
        nk, wk = int(n[group[0]]), int(w[group[0]])
        weights = alpha[starts[group, None] + np.arange(nk)]
        pos = np.concatenate(list(position_blocks(nk, wk)))
        total = weights[:, pos[:, 0]]
        for column in pos.T[1:]:
            total += weights[:, column]
        for k, row in zip(group.tolist(), total):
            vals[k] = row
    return n, w, vals


def key_groups(*keys: np.ndarray) -> list[np.ndarray]:
    """The ascending indices of each distinct key across the equal-length
    arrays ``keys``, one group per distinct key, in key order."""
    order = np.lexsort(keys[::-1])  # stable: ascending indices within a key
    ranked = np.stack(keys)[:, order]
    starts = np.flatnonzero((ranked[:, 1:] != ranked[:, :-1]).any(axis=0)) + 1
    return np.split(order, starts)


def _check_ranges(n_range: tuple[int, int], w_range: tuple[int, int]) -> None:
    """Refuse (n, w) ranges that hold no instance: n_range must not be
    empty, and w_range must hold some 1 <= w <= n - 1 at its smallest n."""
    if n_range[0] > n_range[1]:
        raise ValueError(f"n_range {tuple(n_range)} is empty")
    if not 1 <= w_range[0] <= min(w_range[1], n_range[0] - 1):
        raise ValueError(f"w_range {tuple(w_range)} needs 1 <= {w_range[0]} <= "
                         f"min({w_range[1]}, n - 1) at n = {n_range[0]}")


def _draw_shapes(gen: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """SUITE_BLOCK sizes n uniform on QUERY_N_RANGE, then an arity w per n,
    uniform on QUERY_W_RANGE cut to at most n - 1."""
    (n_lo, n_hi), (w_lo, w_hi) = QUERY_N_RANGE, QUERY_W_RANGE
    n = gen.integers(n_lo, n_hi + 1, size=SUITE_BLOCK)
    return n, gen.integers(w_lo, np.minimum(w_hi, n - 1) + 1)


def _table_query(table: np.ndarray, ysize: int) -> Query:
    """The deterministic query that maps an ordered w-tuple x over the
    alphabet 0..a-1 of an (a,) * w table to table[x] in 0..|Y|-1, answering
    a block of rows by looking them up (``Query.batch``)."""
    w, a = table.ndim, table.shape[0]
    return Query(w, tuple(range(ysize)), name=f"randmap(w={w},|Y|={ysize},a={a})",
                 batch=lambda elements: table[tuple(elements.T)])
