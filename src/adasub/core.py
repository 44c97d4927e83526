"""Data model for subsampling-based analysis: datasets, populations, queries.

A dataset is an ordered multiset of elements of any type (ints for categorical
alphabets, floats for median-style queries, fixed-length ±1 tuples for the
attack harness). A query evaluates on a size-w subsample drawn uniformly
without replacement; its answer distribution on a dataset S, and on fresh
iid draws from a population D, are the two laws everything else compares.

Subsamples are presented to evaluators in dataset-position order, so queries
are effectively functions of the drawn multiset.
Every exact law and expectation, on S and on D, walks ``position_blocks``
through one per-row primitive; D's w-tuples index ``Dataset(D.support)``,
so D's points reach an evaluator exactly as S's points do.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterator, Optional

import numpy as np

ENUM_CAP = 2_000_000  # rows an exact enumeration may walk

SUBSET_BLOCK = 1 << 15  # position rows an enumeration builds at once

MASS_TOL = 1e-12


class EnumerationCapExceeded(RuntimeError):
    """An exact enumeration would walk more than ``ENUM_CAP`` rows; raised
    only by ``check_enumeration``, before any row past the cap is built."""


def check_enumeration(count: int, what: str) -> None:
    """Refuse an exact enumeration of ``count`` rows (described by ``what``,
    such as ``C(n,w)``) when it exceeds ``ENUM_CAP``."""
    if count > ENUM_CAP:
        raise EnumerationCapExceeded(
            f"{what} = {count} rows exceed ENUM_CAP = {ENUM_CAP}")


def check_mass_rows(masses: np.ndarray) -> None:
    """Raise ValueError unless every row of a (..., |Y|) mass array is a law:
    finite, nonnegative up to MASS_TOL, and summing to 1 within MASS_TOL."""
    totals = np.atleast_1d(masses.sum(axis=-1))
    if not np.isfinite(totals).all():  # a NaN or inf mass
        raise ValueError("masses must be finite")
    if np.any(masses < -MASS_TOL):
        raise ValueError("masses must be nonnegative")
    off = np.abs(totals - 1.0) > MASS_TOL
    if off.any():
        raise ValueError(f"masses sum to {totals[off][0]!r}, not 1")


def _as_element(row) -> object:
    if isinstance(row, np.ndarray):
        return tuple(row.tolist())
    if isinstance(row, np.generic):
        return row.item()
    return row


class Dataset:
    """Immutable ordered sequence of domain elements (a sample S of size n).

    Duplicates are allowed; enumeration treats positions, not values, as
    distinct. Backed by a numpy array so vectorized consumers can use
    ``.array`` directly (shape (n,) for scalar elements, (n, d) for
    fixed-length vector elements).
    """

    __slots__ = ("_array",)

    def __init__(self, elements):
        if isinstance(elements, Dataset):
            elements = elements.array
        self._own(np.array(elements))  # a copy: the caller keeps its array

    @classmethod
    def adopt(cls, arr: np.ndarray) -> "Dataset":
        """A dataset over a freshly made array, without the copy that the
        constructor makes; the caller hands over the array and must keep no
        reference to it."""
        ds = cls.__new__(cls)
        ds._own(arr)
        return ds

    def _own(self, arr: np.ndarray) -> None:
        if arr.ndim not in (1, 2) or arr.shape[0] < 1:
            raise ValueError("dataset needs a nonempty 1-D or 2-D element array")
        arr.setflags(write=False)
        self._array = arr

    @property
    def array(self) -> np.ndarray:
        return self._array

    def __len__(self) -> int:
        return self.array.shape[0]

    def __getitem__(self, i: int):
        return _as_element(self.array[i])

    def __iter__(self):
        return (self[i] for i in range(len(self)))

    def leave_one_out(self, i: int) -> "Dataset":
        """The sample with position i removed (size n-1)."""
        if not 0 <= i < len(self):
            raise IndexError(i)
        return Dataset.adopt(np.delete(self.array, i, axis=0))

    def subsamples(self, positions: np.ndarray) -> list[tuple]:
        """One element tuple per row of an (m, w) position array, each
        element exactly as ``self[i]`` gives it (a Python scalar, or a tuple
        for vector elements)."""
        rows = self.array[positions].tolist()
        if self.array.ndim == 1:
            return [tuple(row) for row in rows]
        return [tuple(map(tuple, row)) for row in rows]

    def batch_values(self, test: "TestQuery") -> np.ndarray:
        """An arity-1 test's batch on every element: the batch on ``array``."""
        return test.batch(self.array)

    def tally(self, test: "TestQuery") -> "int | np.ndarray":
        """An arity-1 test's count of ones when its values are bools, else its
        float values (``values_on``)."""
        vals = test.values_on(self)
        return int(np.count_nonzero(vals)) if vals.dtype == bool else vals

    def __repr__(self) -> str:
        return f"Dataset(n={len(self)})"


@dataclass(frozen=True)
class GroundTruth:
    """A finite population distribution with explicit support and masses."""

    support: tuple
    masses: np.ndarray

    def __post_init__(self):
        masses = np.array(self.masses, dtype=float)  # a copy: the caller keeps its array
        masses.setflags(write=False)
        object.__setattr__(self, "masses", masses)
        object.__setattr__(self, "support", tuple(self.support))
        if len(self.support) != masses.shape[0]:
            raise ValueError("support and masses lengths differ")
        check_mass_rows(masses)
        if np.any(masses < 0):  # no tolerance: a draw takes the masses as p
            raise ValueError("masses must be nonnegative")
        if len(set(self.support)) != len(self.support):
            raise ValueError("support entries must be distinct")


@dataclass(frozen=True)
class Query:
    """A query on w-tuples with a declared finite ordered range Y.

    Exactly one evaluation form is set, and each has an exact output law:

    * ``evaluator`` -- deterministic, maps a w-tuple to a value in Y;
    * ``dist_evaluator`` -- randomized, maps a w-tuple to a length-|Y|
      probability vector aligned with ``outputs``.

    ``tag`` is a structured label used by harness populations to
    recognize queries with closed-form answer laws.

    ``batch`` maps an (m, w) element array (``Dataset.array`` indexed by an
    (m, w) position array) to the m indices into ``outputs`` of the answers.
    Given alone, it is the deterministic form, and ``evaluator`` is the batch
    on one row, index-checked as in ``output_indices``; given beside
    ``evaluator``, it must agree with it row by row.
    """

    arity: int
    outputs: tuple
    evaluator: Optional[Callable] = None
    dist_evaluator: Optional[Callable] = None
    name: str = ""
    tag: Optional[tuple] = None
    batch: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def __post_init__(self):
        object.__setattr__(self, "outputs", tuple(self.outputs))
        if self.arity < 1:
            raise ValueError("arity must be positive")
        if not self.outputs:
            raise ValueError("output range must be nonempty")
        if self.evaluator is None and self.batch is not None:
            batch, outputs = self.batch, self.outputs
            object.__setattr__(self, "evaluator", lambda *xs: outputs[
                _batch_indices(batch, np.array([xs]), len(outputs))[0]])
        if (self.evaluator is None) == (self.dist_evaluator is None):
            raise ValueError("exactly one of evaluator (or batch) and "
                             "dist_evaluator required")

    @classmethod
    def deterministic(cls, arity, outputs, fn, name="") -> "Query":
        return cls(arity=arity, outputs=outputs, evaluator=fn, name=name)

    @classmethod
    def randomized(cls, arity, outputs, dist_fn, name="") -> "Query":
        return cls(arity=arity, outputs=outputs, dist_evaluator=dist_fn, name=name)

    def output_pmf(self, subsample: tuple) -> np.ndarray:
        """Exact output law on one subsample, as a vector aligned with Y."""
        if self.evaluator is not None:
            pmf = np.zeros(len(self.outputs))
            pmf[self._output_index(self.evaluator(*subsample))] = 1.0
            return pmf
        pmf = self._dist_row(subsample)
        check_mass_rows(pmf)
        return np.clip(pmf, 0.0, None)

    def output_laws(self, S: Dataset, positions: np.ndarray) -> np.ndarray:
        """The (m, |Y|) output law of q on each row of an (m, w) position
        array of S: one-hot rows through ``output_indices`` for a
        deterministic q, else the ``output_pmf`` row of each distinct
        subsample, its rows stacked and then checked and clipped at once."""
        if self.evaluator is not None:
            laws = np.zeros((len(positions), len(self.outputs)))
            laws[np.arange(len(positions)), self.output_indices(S, positions)] = 1.0
            return laws
        distinct, which = _distinct_rows(positions)
        laws = np.array([self._dist_row(sub) for sub in S.subsamples(distinct)],
                        dtype=float).reshape(len(distinct), len(self.outputs))
        check_mass_rows(laws)
        return np.clip(laws, 0.0, None, out=laws)[which]

    def _dist_row(self, subsample: tuple) -> np.ndarray:
        """A randomized q's output distribution on one subsample, as given,
        checked only for its shape."""
        pmf = np.asarray(self.dist_evaluator(*subsample), dtype=float)
        if pmf.shape != (len(self.outputs),):
            raise ValueError(f"output distribution has shape {pmf.shape}")
        return pmf

    def answer_indices(self, S: Dataset, positions: np.ndarray,
                       gen: np.random.Generator) -> np.ndarray:
        """One answer index into ``outputs`` per row of an (m, w) position
        array of S. A deterministic q's answers are its ``output_indices``
        and draw no random number; a randomized q draws one uniform per row
        and inverts it through the row's output CDF."""
        if self.evaluator is not None:
            return self.output_indices(S, positions)
        cdf = np.cumsum(self.output_laws(S, positions), axis=1)
        u = gen.random(len(cdf))
        return np.minimum((u[:, None] > cdf).sum(axis=1), len(self.outputs) - 1)

    def output_indices(self, S: Dataset, positions: np.ndarray) -> np.ndarray:
        """The index into ``outputs`` of a deterministic query's answer on
        each row of an (m, w) position array of S: one ``batch`` call on
        every row when it is set, else ``evaluator`` on each distinct row's
        element tuple."""
        if self.evaluator is None:
            raise ValueError("output indices need a deterministic evaluator")
        if self.batch is None:
            distinct, which = _distinct_rows(positions)
            return np.array([self._output_index(self.evaluator(*sub))
                             for sub in S.subsamples(distinct)], dtype=np.intp)[which]
        return _batch_indices(self.batch, S.array[positions], len(self.outputs))

    def _output_index(self, y) -> int:
        try:
            return self.outputs.index(y)
        except ValueError:
            raise ValueError(f"evaluator output {y!r} is outside the declared range") from None


def _distinct_rows(pos: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of a 2-D integer array in lexicographic order, and
    each row's index among them, as ``np.unique(pos, axis=0,
    return_inverse=True)`` gives them, by one several times faster lexsort."""
    order = np.lexsort(pos.T[::-1])
    ranked = pos[order]
    first = np.ones(len(pos), dtype=bool)
    first[1:] = (ranked[1:] != ranked[:-1]).any(axis=1)
    which = np.empty(len(pos), dtype=np.intp)
    which[order] = np.cumsum(first) - 1
    return ranked[first], which


def _batch_indices(batch: Callable, elements: np.ndarray, ysize: int) -> np.ndarray:
    """``batch`` on an (m, w) element array, checked to give one index in
    [0, ysize) per row."""
    index = np.asarray(batch(elements))
    if index.shape != (len(elements),) or index.dtype.kind not in "iu":
        raise ValueError("batch evaluator must return one integer index per row")
    if index.size and (index.min() < 0 or index.max() >= ysize):
        raise ValueError("batch evaluator gave an index outside the declared range")
    return index


@dataclass(frozen=True)
class TestQuery:
    """A real-valued test on w-tuples with outputs in [0, 1].

    The evaluator must already respect the [0, 1] range; outputs outside it
    are a contract violation, never silently clamped. ``batch`` (arity 1
    only) maps a dataset's element array to the per-element values. Given
    alone, it is the test, and ``evaluator`` is the batch on one element;
    given beside ``evaluator``, it must agree with it pointwise. ``tag`` is
    a label by which populations recognize closed-form truths.
    """

    __test__ = False  # pytest: not a test class despite the name

    arity: int
    evaluator: Optional[Callable[..., float]] = None
    name: str = ""
    batch: Optional[Callable[[np.ndarray], np.ndarray]] = None
    tag: Optional[tuple] = None

    def __post_init__(self):
        if self.arity < 1:
            raise ValueError("arity must be positive")
        if self.batch is not None and self.arity != 1:
            raise ValueError("batch evaluation is defined for arity-1 tests only")
        if self.evaluator is None:
            if self.batch is None:
                raise ValueError("a test query needs an evaluator or a batch")
            batch = self.batch
            object.__setattr__(self, "evaluator",
                               lambda x: float(batch(np.array([x]))[0]))

    def values_on(self, dataset: Dataset) -> np.ndarray:
        """Per-element values on a dataset (arity 1 only): floats, range-checked,
        or a {0,1}-valued batch's bools, which lie in [0, 1] by type."""
        if self.arity != 1:
            raise ValueError("per-element values require arity 1")
        if self.batch is not None:
            vals = np.asarray(dataset.batch_values(self))
        else:
            vals = np.array([float(self.evaluator(x)) for x in dataset], dtype=float)
        if vals.shape != (len(dataset),):
            raise ValueError("batch evaluator returned a wrong-shaped array")
        if vals.dtype != bool:
            vals = vals.astype(float, copy=False)
            _check_unit_range(vals, self.name)
        return vals


def _check_unit_range(vals: np.ndarray, name: str) -> None:
    if vals.size and (vals.min() < -MASS_TOL or vals.max() > 1 + MASS_TOL):
        raise ValueError(f"test query {name!r} produced values outside [0, 1]")


def position_blocks(n: int, w: int, iid: bool = False) -> Iterator[np.ndarray]:
    """All C(n, w) ascending w-subsets of [0, n) in ``itertools.combinations``
    order or, with ``iid``, all n**w ordered w-tuples of [0, n) in
    ``itertools.product`` order, as (m, w) int64 arrays of at most
    ``SUBSET_BLOCK`` rows each."""
    rows = (itertools.product(range(n), repeat=w) if iid
            else itertools.combinations(range(n), w))
    while True:
        flat = np.fromiter(itertools.chain.from_iterable(
            itertools.islice(rows, SUBSET_BLOCK)), dtype=np.int64)
        if flat.size:
            yield flat.reshape(-1, w)
        if flat.size < SUBSET_BLOCK * w:
            return


def population_blocks(D: GroundTruth, w: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """(weights, positions) per block of D's ordered w-tuples, positions into
    ``Dataset(D.support)``: a row weighs the product of its masses, and rows
    of zero weight are dropped before any evaluator sees them."""
    for pos in position_blocks(len(D.support), w, iid=True):
        weights = D.masses[pos].prod(axis=1)
        keep = weights != 0.0
        if keep.any():
            yield weights[keep], pos[keep]


def _row_means(q, S: Dataset, pos: np.ndarray) -> np.ndarray:
    """q's mean answer on each row of an (m, w) position array of S: a
    Query's ``output_laws`` times its outputs, an arity-1 test's
    ``values_on``, else a test's evaluator on each row, range-checked."""
    if isinstance(q, Query):
        return q.output_laws(S, pos) @ np.asarray(q.outputs, dtype=float)
    if q.arity == 1:
        return q.values_on(Dataset.adopt(S.array[pos[:, 0]])).astype(float, copy=False)
    vals = np.array([q.evaluator(*sub) for sub in S.subsamples(pos)], dtype=float)
    _check_unit_range(vals, q.name)
    return vals


def query_expectation_on_sample(q, S: Dataset) -> float:
    """phi(S): the mean answer of q over a uniform without-replacement
    w-subset of S (and over q's internal randomness).

    An arity-1 test query is the plain average of its per-element values;
    every other query is averaged exactly over all C(n, w) position subsets.
    """
    n = len(S)
    w = q.arity
    if w > n:
        raise ValueError(f"query arity {w} exceeds sample size {n}")
    if w == 1 and isinstance(q, TestQuery):
        ones = S.tally(q)
        return ones / n if isinstance(ones, int) else float(ones.mean())
    check_enumeration(math.comb(n, w), f"C({n},{w})")
    total = 0.0
    for pos in position_blocks(n, w):
        for v in _row_means(q, S, pos).tolist():
            total += v
    return total / math.comb(n, w)


def query_expectation_on_population(q, D: GroundTruth) -> float:
    """phi(D): the mean answer of q on w iid draws from D."""
    return _population_mean_var(q, D)[0]


def variance_on_population(psi, D: GroundTruth) -> float:
    """Var of psi over w iid draws from D (nonnegative, clamped at 0)."""
    return _population_mean_var(psi, D)[1]


def _population_mean_var(q, D: GroundTruth) -> tuple[float, float]:
    """The mean and the variance (clamped at 0) of q's mean answer over w
    iid draws from D, from both moments summed draw by draw in one walk."""
    w = q.arity
    check_enumeration(len(D.support) ** w, f"|support|^{w}")
    points = Dataset(D.support)
    e1 = e2 = 0.0
    for weights, pos in population_blocks(D, w):
        for weight, v in zip(weights.tolist(), _row_means(q, points, pos).tolist()):
            e1 += weight * v
            e2 += weight * (v * v)
    return e1, max(0.0, e2 - e1 * e1)


def error_value(delta: float, var: float, w: int) -> float:
    """(1/w) * min(|Delta|, Delta^2 / Var); the ratio term counts as
    +infinity when Var = 0, so the result degrades to |Delta| / w."""
    if w < 1:
        raise ValueError(f"need arity w >= 1, got {w}")
    delta = abs(delta)
    if var <= 0.0:
        return delta / w
    return min(delta, delta * delta / var) / w


def error_metric(psi: TestQuery, S: Dataset, D: GroundTruth) -> float:
    """Error of a test: (1/w) min(Delta, Delta^2 / Var_D(psi)) with
    Delta = |psi(S) - psi(D)| and Var_D(psi) the variance of psi on w iid
    draws from D.

    The Var = 0 case takes the Delta / w branch (consistent with the
    Var -> 0 limit for Delta > 0, and 0 when Delta = 0). The result always
    lies in [0, 1/w].
    """
    on_sample = query_expectation_on_sample(psi, S)
    mean, var = _population_mean_var(psi, D)
    return error_value(on_sample - mean, var, psi.arity)
