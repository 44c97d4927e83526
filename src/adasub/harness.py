"""Adaptive analysts, the mechanisms they face, and the experiment runner.

An analyst sees only the mechanism's responses, never the sample: its
interface receives the round number and the response prefix. The runner
draws a fresh sample per trial, plays the analyst against one mechanism
class (naive empirical means, subsampling-SQ or approximate median) in one
trial loop, and records per-query bias against exactly computed population
truths.

Populations with product structure (the ±1 cube) are represented
implicitly; only queries with closed-form truths (coordinate indicators,
sign-of-sum tests) are admitted against them, so the recorded truth stays
exact where the overfitting attack lives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .core import (
    Dataset,
    GroundTruth,
    Query,
    TestQuery,
    error_value,
    query_expectation_on_population,
    query_expectation_on_sample,
)
from .engine import RandomSource, ResponsePMF, population_response_pmf
from .mechanisms import (
    BudgetExhausted,
    BudgetLedger,
    MedianSession,
    SQ_MAX_VOTES,
    SqSession,
    approximate_median_check,
    median_params,
    mi_upper_bound,
    sq_accuracy_threshold,
    sq_params,
)

ROW_COLUMNS = ("trial", "t", "query_id", "mechanism", "answer", "sample_value",
               "truth", "bias", "threshold", "within_bound", "cost")

WITHIN_TOL = 1e-12

MEDIAN_CHECK_THRESHOLD = 0.4

CUBE_MAX_ENTRIES = 1 << 28  # n x d ceiling on a cube sample, one bit an entry
RUN_MAX_ROUNDS = 1 << 20  # trials x analyst rounds ceiling on a run, one row each
SAMPLE_MAX = 1 << 24  # n ceiling: a finite sample holds n values of 8 bytes
GRID_MAX_POINTS = 1 << 16  # discretized_gaussian points ceiling
GRID_MAX_CELLS = 1 << 20  # shifting-means r_cells ceiling: output grid values
GRID_MAX_SUMS = 1 << 22  # ceiling on the grid sums a median query's law convolves


class ConfigError(ValueError):
    """A config that cannot run: a bad key or value, or parts that do not fit."""


# ---------------------------------------------------------------------------
# The config schema: a table of Key rows per spec family, read by read_keys.

REQUIRED = "required"  # the default of a key that must be given


class Key(NamedTuple):
    """A table row: ``read`` takes a value to its type or raises a TypeError
    naming the type, ``within`` tests the range ``text`` states, ``default``
    stands in for a key not given (null leaves a key whose default is None
    unset), and a key that sizes memory has a ``ceiling``."""
    read: Callable
    within: Callable = lambda value: True
    text: str = ""
    default: object = REQUIRED
    ceiling: Optional[int] = None


class Kind(NamedTuple):
    """A named spec: what it builds, and the table of its keys."""
    build: Callable
    keys: dict


def integer(value) -> int:
    """An int, or a whole float such as 3.0."""
    if isinstance(value, bool) or not (isinstance(value, (int, np.integer)) or (
            isinstance(value, float) and value.is_integer())):
        raise TypeError("an integer")
    return int(value)


def number(value) -> float:
    """An int or a float, infinity included, NaN not."""
    if isinstance(value, bool) or not isinstance(
            value, (int, float, np.integer, np.floating)) or value != value:
        raise TypeError("a number")
    try:
        return float(value)
    except OverflowError:  # a YAML int of hundreds of digits
        raise TypeError("a number within the float range") from None


def typed(test: Callable, text: str) -> Callable:
    """The reader of the values that pass ``test``, of the type ``text`` names."""
    def read(value):
        if not test(value):
            raise TypeError(text)
        return value
    return read


def one_of(*choices: str) -> Callable:
    return typed(lambda v: isinstance(v, str) and v in choices,
                 "one of " + ", ".join(map(repr, choices)))


def count(least: int, default=REQUIRED, ceiling: Optional[int] = None) -> Key:
    return Key(integer, lambda v: v >= least,
               "non-negative" if least == 0 else f"at least {least}", default, ceiling)


def read_keys(table: dict, spec: dict, where: str) -> dict:
    """Every key of ``table`` read from ``spec``, a key not given taking its
    default. A key outside the table, a required key not given, and a value
    of another type, out of range or past the ceiling are each a ConfigError
    that names the key."""
    for key in spec:
        if key not in table:
            raise ConfigError(f"unknown key {key!r} in the {where}")
    return {key: _read(key, row, spec, where) for key, row in table.items()}


def _read(key: str, row: Key, spec: dict, where: str):
    if key not in spec:
        if row.default == REQUIRED:
            raise ConfigError(f"{key} must be given in the {where}")
        return row.default
    value = spec[key]
    if value is None and row.default is None:
        return None
    try:
        got = row.read(value)
    except TypeError as exc:
        raise ConfigError(f"{key} must be {exc}, got {_shown(value)}") from None
    if not row.within(got):
        raise ConfigError(f"{key} must be {row.text}, got {_shown(value)}")
    if row.ceiling is not None and got > row.ceiling:
        raise ConfigError(f"{key} must be at most {row.ceiling}, got {_shown(value)}")
    return got


def _shown(value) -> str:
    # an int of thousands of digits has no repr
    if isinstance(value, int) and value.bit_length() > 128:
        return f"an int of {value.bit_length()} bits"
    return repr(value)


def read_spec(family: dict, spec, where: str, label: str = "name") -> dict:
    """A spec read as a whole: its ``label`` key must name one of
    ``family``'s kinds, and its other keys are read against that kind's."""
    if not isinstance(spec, dict):
        raise TypeError("a mapping")
    name = _read(label, Key(one_of(*family)), spec, f"{where} spec")
    rest = {key: value for key, value in spec.items() if key != label}
    return {label: name, **read_keys(family[name].keys, rest, f"{name} spec")}


def _build(family: dict, spec: dict, where: str, label: str = "name"):
    params = read_spec(family, spec, where, label)
    return family[params.pop(label)].build(**params)


# ---------------------------------------------------------------------------
# Queries with structured tags.

def identity_test() -> TestQuery:
    """phi(x) = x for populations over values in [0, 1]."""
    return TestQuery(1, name="identity", batch=lambda arr: arr.astype(float),
                     tag=("identity",))


def constant_test(value: float) -> TestQuery:
    c = float(value)
    if not 0.0 <= c <= 1.0:
        raise ValueError(f"constant value must lie in [0, 1], got {c!r}")
    return TestQuery(1, name=f"const:{c:g}",
                     batch=lambda arr, _c=c: np.full(arr.shape[0], _c),
                     tag=("constant", c))


def coordinate_indicator(j: int) -> TestQuery:
    """phi(x) = 1[x_j = 1] on ±1 vector elements."""
    return TestQuery(1, name=f"coord:{j}", batch=lambda arr, _j=j: arr[:, _j] == 1,
                     tag=("coord", j))


def sign_sum_test(signs: Sequence[int]) -> TestQuery:
    """psi(x) = 1[sum_j s_j x_j > 0] on ±1 vector elements."""
    signs = tuple(int(s) for s in signs)
    if any(s not in (-1, 1) for s in signs):
        raise ValueError("signs must be ±1")
    # every partial sum lies in [-d, d], so it is exact in int16 below 2**15
    s_arr = np.asarray(signs, dtype=np.int16 if len(signs) < 2 ** 15 else np.int32)

    def batch(arr, _s=s_arr):
        # one reduction; einsum casts through small buffers, never the whole
        # sample. same_kind admits the evaluator's one-row int64 array, whose
        # ±1 entries fit any integer type.
        return np.einsum("ij,j->i", arr, _s, dtype=_s.dtype, casting="same_kind") > 0

    return TestQuery(1, name="test:sign-sum", batch=batch, tag=("sign_sum", signs))


def _grid_cells(totals: np.ndarray, w: int, shift: float,
                centers: Sequence[float]) -> np.ndarray:
    """The cell of each mean totals/w + shift on a uniform grid of centres:
    its offset from the first centre in steps, clamped to [0, cells - 1]
    and then rounded half to even, so a quotient that overflows to +-inf
    takes an end cell (callers silence numpy's overflow warning)."""
    quotients = (totals / w + shift - centers[0]) / (centers[1] - centers[0])
    return np.rint(np.clip(quotients, 0, len(centers) - 1)).astype(np.intp)


def grid_mean_query(w: int, shift: float, centers: Sequence[float]) -> Query:
    """Query rounding the mean of w real elements (plus a shift) onto an
    ordered uniform grid of output values. The rows' sums are exact: equal
    to ``math.fsum`` of each row."""
    centers = tuple(map(float, centers))

    def batch(arr, _w=w, _s=shift):
        # math.fsum of each row: when no partial sum of the left-to-right
        # sum rounds (TwoSum's error term is 0), the sum is exact and so
        # equal to fsum, up to the sign of a zero sum, which no cell depends
        # on; any other row (an overflow included) is summed again by fsum
        x = np.asarray(arr, dtype=float)
        total = x[:, 0].copy()
        redo = np.zeros(len(x), dtype=bool)
        with np.errstate(over="ignore", invalid="ignore"):
            for j in range(1, _w):
                t = total + x[:, j]
                back = t - total
                redo |= (total - (t - back)) + (x[:, j] - back) != 0.0
                total = t
            for i in np.flatnonzero(redo).tolist():
                total[i] = math.fsum(x[i].tolist())
            return _grid_cells(total, _w, _s, centers)

    return Query(arity=w, outputs=centers, batch=batch,
                 name=f"grid-mean:w={w},shift={shift:g}",
                 tag=("grid_mean", w, float(shift)))


# ---------------------------------------------------------------------------
# Populations.

class Population:
    """A population the runner can sample from and compute exact truths on."""

    name = "population"

    def draw(self, n: int, rng: RandomSource) -> Dataset:
        raise NotImplementedError

    def truth(self, q: TestQuery) -> float:
        raise NotImplementedError

    def response_dist(self, q: Query) -> ResponsePMF:
        raise NotImplementedError


class FinitePopulation(Population):
    """A population backed by an explicit finite distribution. Each
    grid-mean answer law is built once, keyed by the query's tag and
    outputs, which fix it (a run asks for few distinct ones)."""

    def __init__(self, ground_truth: GroundTruth, name: str = "finite"):
        self.ground_truth = ground_truth
        self.name = name
        self._support = np.asarray(ground_truth.support)
        self._masses = np.asarray(ground_truth.masses)
        self._grid_laws: dict[tuple, ResponsePMF] = {}

    def draw(self, n: int, rng: RandomSource) -> Dataset:
        idx = rng.generator.choice(self._support.shape[0], size=n, p=self._masses)
        return Dataset.adopt(self._support[idx])

    def truth(self, q: TestQuery) -> float:
        return query_expectation_on_population(q, self.ground_truth)

    def response_dist(self, q: Query) -> ResponsePMF:
        if not (q.tag and q.tag[0] == "grid_mean"):
            return population_response_pmf(q, self.ground_truth)
        key = (q.tag, q.outputs)
        if key not in self._grid_laws:
            self._grid_laws[key] = (
                self._grid_mean_dist(q, q.tag[1], q.tag[2]) if self._is_uniform_grid()
                else population_response_pmf(q, self.ground_truth))
        return self._grid_laws[key]

    def _is_uniform_grid(self) -> bool:
        if self._support.dtype.kind not in "fiu" or self._support.size < 2:
            return False
        steps = np.diff(self._support.astype(float))
        return bool(np.all(np.abs(steps - steps[0]) < 1e-9 * max(1.0, abs(steps[0]))))

    def _support_sums(self, w: int) -> np.ndarray:
        """Every sum of w points of a uniform-grid support, in increasing
        order: the first point times w plus j steps, j = 0..w(|support|-1)."""
        xs = self._support.astype(float)
        return xs[0] * w + (xs[1] - xs[0]) * np.arange(w * (len(xs) - 1) + 1)

    def _grid_mean_dist(self, q: Query, w: int, shift: float) -> ResponsePMF:
        """Exact law of a grid-mean query on w iid draws, by convolving the
        support masses w times (support sums stay on the same uniform grid)."""
        conv = self._masses.astype(float)
        for _ in range(w - 1):
            conv = np.convolve(conv, self._masses)
        # the batch's cell rule on every support sum at once; bincount adds
        # the masses into their cells in the order of the sums
        with np.errstate(over="ignore"):
            cells = _grid_cells(self._support_sums(w), w, shift, q.outputs)
        out = np.bincount(cells, weights=conv, minlength=len(q.outputs))
        return ResponsePMF(q.outputs, out / out.sum())


@lru_cache(maxsize=None)
def _prob_sign_sum_positive(d: int) -> float:
    """Exact P[sum of d iid uniform ±1 coordinates > 0], rounded correctly:
    by symmetry, half the mass off a zero sum, which only an even d reaches.
    For even d that is (1 - p)/2 with p = C(d, d/2)/2^d, the product over
    k = 1..d/2 of (2k-1)/(2k). Taken at 128 fractional bits and floored at
    every step, it lands x with p in [x, x + d/2] 2^-128, so both ends of
    (1 - p)/2 are rounded; where they round apart, the exact binomial
    decides (math.comb, which takes seconds at d = 2^20)."""
    if d % 2:
        return 0.5
    half, one = d // 2, 1 << 128
    x = one
    for k in range(1, half + 1):
        x = x * (2 * k - 1) // (2 * k)
    lo, hi = (one - x - half) / (2 * one), (one - x) / (2 * one)
    if lo == hi:
        return hi
    return (2 ** d - math.comb(d, half)) / 2 ** (d + 1)


class CubeSample(Dataset):
    """A ±1 cube sample kept as the raw 64-bit words it was drawn from: entry
    (i, j) is bit (j*n + i) mod 64 of word (j*n + i) // 64, low bit first, a
    set bit reading +1. Its three query kinds read the words; ``array``, the
    (n, d) int8 ±1 array, is built only when asked for."""

    __slots__ = ("_words", "_n", "_d")

    def __init__(self, words: np.ndarray, n: int, d: int):
        words.setflags(write=False)
        self._words, self._n, self._d, self._array = words, n, d, None

    @property
    def array(self) -> np.ndarray:
        if self._array is None:
            bits = np.unpackbits(self._words.view(np.uint8), count=self._n * self._d,
                                 bitorder="little").view(np.int8)
            self._own((2 * bits - 1).reshape(self._d, self._n).T)
        return self._array

    def __len__(self) -> int:
        return self._n

    def batch_values(self, test: TestQuery) -> np.ndarray:
        kind = test.tag[0] if test.tag else None
        if kind == "constant":
            return np.full(self._n, test.tag[1])
        if kind != "sign_sum" or len(test.tag[1]) != self._d:
            return super().batch_values(test)
        # per element, the coordinates where bit ^ [s_j < 0] is set, that is
        # where its entry has the sign s_j: summed exactly in uint8 over
        # blocks of 16 columns, each unpacked on its own
        n, bits = self._n, self._words.view(np.uint8)
        flips = (np.asarray(test.tag[1]) < 0).view(np.uint8)[:, None]
        agree = np.zeros(n, dtype=np.int32)
        for j in range(0, self._d, 16):
            lo, hi = j * n, min(j + 16, self._d) * n
            block = np.unpackbits(bits[lo >> 3:(hi + 7) >> 3], bitorder="little")
            block = block[lo & 7:(lo & 7) + hi - lo].reshape(-1, n)
            block ^= flips[j:j + 16]
            agree += block.sum(axis=0, dtype=np.uint8)
        return 2 * agree > self._d

    def tally(self, test: TestQuery) -> "int | np.ndarray":
        j = test.tag[1] if test.tag and test.tag[0] == "coord" else -1
        if not 0 <= j < self._d:
            return super().tally(test)
        # a popcount of the words that hold bits j*n .. j*n + n - 1, less the
        # bits of the two end words outside them
        lo, hi = j * self._n, (j + 1) * self._n
        span = self._words[lo >> 6:(hi + 63) >> 6]
        ones = int(np.bitwise_count(span).sum())
        ones -= (int(span[0]) & ((1 << (lo & 63)) - 1)).bit_count()
        return ones - (int(span[-1]) >> (hi & 63 or 64)).bit_count()


class CubePopulation(Population):
    """Uniform ±1 vectors of dimension d, represented in product form.

    The explicit support has 2^d points, so only queries with closed-form
    truths are admitted: coordinate indicators, sign-of-sum tests, and
    constants. A drawn sample is a ``CubeSample`` of ceil(n*d/64) raw words
    of the stream, about n*d/8 bytes, in which each coordinate is a run of n
    bits: a coordinate's count is a popcount over its run, and a sign-of-sum
    test sums the runs 16 at a time.
    """

    def __init__(self, d: int):
        if d < 1:
            raise ValueError("cube dimension must be positive")
        self.d = int(d)
        self.name = f"uniform_pm1_cube(d={d})"

    def draw(self, n: int, rng: RandomSource) -> CubeSample:
        words = rng.generator.bit_generator.random_raw(-(-n * self.d // 64))
        return CubeSample(words.astype("<u8", copy=False), n, self.d)

    def truth(self, q: TestQuery) -> float:
        kind = q.tag[0] if q.tag else None
        if kind == "coord":
            if not 0 <= q.tag[1] < self.d:
                raise ValueError(f"coordinate j={q.tag[1]} is outside the cube's "
                                 f"{self.d} dimensions")
            return 0.5
        if kind == "sign_sum":
            if len(q.tag[1]) != self.d:
                raise ValueError("sign test dimension does not match the cube")
            return _prob_sign_sum_positive(self.d)
        if kind == "constant":
            return float(q.tag[1])
        raise ValueError(
            f"no closed-form truth for {q.name!r} on a product-form cube population")


def _bernoulli(p: float) -> FinitePopulation:
    gt = GroundTruth((0, 1), np.array([1.0 - p, p]))
    return FinitePopulation(gt, name=f"bernoulli({p:g})")


def _discretized_gaussian(lo: float, hi: float, points: int, mu: float,
                          sigma: float) -> FinitePopulation:
    if not lo < hi:
        raise ConfigError(f"hi must be greater than lo, got lo={lo!r}, hi={hi!r}")
    if not math.isfinite(hi - lo):
        raise ConfigError(f"hi - lo must be finite, got {hi - lo!r}")
    xs = np.linspace(lo, hi, points)
    with np.errstate(over="ignore"):  # a mass that far out underflows to 0
        masses = np.exp(-0.5 * ((xs - mu) / sigma) ** 2)
    if not masses.sum() > 0.0:
        raise ConfigError(
            f"mu must be within reach of the grid [{lo!r}, {hi!r}] at "
            f"sigma={sigma!r}, got {mu!r}: every mass underflows to 0")
    masses /= masses.sum()
    gt = GroundTruth(tuple(float(x) for x in xs), masses)
    return FinitePopulation(gt, name=f"discretized_gaussian({points}pt)")


_FINITE = (math.isfinite, "finite")
_POSITIVE = (lambda v: 0.0 < v < math.inf, "positive and finite")
_UNIT = (lambda v: 0.0 <= v <= 1.0, "in [0, 1]")
_OPEN_UNIT = (lambda v: 0.0 < v < 1.0, "in (0, 1)")

POPULATIONS = {
    "bernoulli": Kind(_bernoulli, {"p": Key(number, *_UNIT)}),
    "uniform_pm1_cube": Kind(CubePopulation,
                             {"d": count(1, ceiling=RUN_MAX_ROUNDS)}),
    "discretized_gaussian": Kind(_discretized_gaussian, {
        "lo": Key(number, *_FINITE, -4.0), "hi": Key(number, *_FINITE, 4.0),
        "points": count(2, 257, GRID_MAX_POINTS),
        "mu": Key(number, *_FINITE, 0.0), "sigma": Key(number, *_POSITIVE, 1.0)}),
}


def population_generators(name: str, params: dict) -> Population:
    """Named populations resolvable from experiment configs."""
    return _build(POPULATIONS, {**params, "name": name}, "population")


# ---------------------------------------------------------------------------
# Analysts.

class Analyst:
    """A deterministic query strategy. Receives only (round, response prefix);
    the sample itself is never exposed to it. The prefix is the runner's own
    list, lent read-only (a copy per round costs O(T^2)): never mutate it."""

    rounds: int = 0

    def next_query(self, t: int, responses: Sequence[float]):
        raise NotImplementedError

    def final_tests(self, responses: Sequence[float]) -> list[TestQuery]:
        return []


class FixedAnalyst(Analyst):
    """Replays a fixed query list, ignoring responses."""

    def __init__(self, queries: Sequence[TestQuery]):
        if not queries:
            raise ValueError("fixed analyst needs at least one query")
        self.queries = list(queries)
        self.rounds = len(self.queries)

    def next_query(self, t, responses):
        return self.queries[t - 1]

    def final_tests(self, responses):
        return list(self.queries)


class RandomCorrelationAnalyst(Analyst):
    """The classic overfitting adversary on a ±1 cube population.

    Round t asks the coordinate indicator 1[x_t = 1]; after T rounds the
    final test is 1[sum_t s_t x_t > 0] with s_t the sign of (answer_t - 1/2),
    ties counting as +1. Against exact empirical answers the test overfits
    the sample; subsampling noise breaks the per-coordinate sign recovery.
    """

    def __init__(self, T: int):
        if T < 1:
            raise ValueError("need T >= 1")
        self.rounds = int(T)

    def next_query(self, t, responses):
        return coordinate_indicator(t - 1)

    def final_tests(self, responses):
        signs = [1 if y >= 0.5 else -1 for y in responses]
        return [sign_sum_test(signs)]


class ShiftingMeanAnalyst(Analyst):
    """Adaptive approximate-median queries over a real-valued population.

    Query t reports the mean of w_t subsampled values (w cycling 1..w_max),
    recentered by a shift that reacts to the previous answer, rounded onto
    a fixed 64-point output grid.
    """

    def __init__(self, T: int, w_max: int = 4, r_cells: int = 64,
                 r_step: float = 1.6, max_shift: int = 3):
        for key, value, least in (("T", T, 1), ("w_max", w_max, 1),
                                  ("r_cells", r_cells, 2), ("max_shift", max_shift, 0)):
            if value < least:
                raise ValueError(f"{key} must be at least {least}, got {value}")
        if not 0.0 < r_step < math.inf:
            raise ValueError(f"r_step must be positive and finite, got {r_step!r}")
        self.rounds = int(T)
        self.w_max = int(w_max)
        self.max_shift = int(max_shift)
        self.r_step = float(r_step)
        self.centers = tuple((i - (r_cells - 1) / 2) * self.r_step
                             for i in range(r_cells))
        if not (all(map(math.isfinite, self.centers))
                and all(b > a for a, b in zip(self.centers, self.centers[1:]))):
            raise ConfigError(f"r_step must be a step that keeps the {r_cells} grid "
                              f"centres finite and strictly increasing, got {r_step!r}")
        self.w_list = [((t % self.w_max) + 1) for t in range(self.rounds)]
        self.r_sizes = [r_cells] * self.rounds

    def _shift_cells(self, t: int, responses: Sequence[float]) -> int:
        if not responses:
            return 0
        prev_cell = int(round(responses[-1] / self.r_step))
        bounce = 1 if t % 2 == 0 else -1
        return max(-self.max_shift, min(self.max_shift, -prev_cell + bounce))

    def next_query(self, t, responses):
        w = self.w_list[t - 1]
        shift = self._shift_cells(t, responses) * self.r_step
        return grid_mean_query(w, shift, self.centers)


QUERY_KINDS = {
    "identity": Kind(identity_test, {}),
    "constant": Kind(constant_test, {"value": Key(number, *_UNIT)}),
    "coord": Kind(coordinate_indicator, {"j": count(0)}),
}


def _queries(value) -> list[dict]:
    """A fixed analyst's queries: kind names and {kind: ...} mappings."""
    if not (isinstance(value, list) and value
            and all(isinstance(q, (str, dict)) for q in value)):
        raise TypeError("a non-empty list of query kinds and mappings")
    return [read_spec(QUERY_KINDS, {"kind": q} if isinstance(q, str) else q,
                      "query", "kind") for q in value]


_TAU = Key(number, *_OPEN_UNIT, None)

ANALYSTS = {
    "fixed": Kind(lambda queries: FixedAnalyst(
        [_build(QUERY_KINDS, q, "query", "kind") for q in queries]),
        {"queries": Key(_queries)}),
    # tau is accepted for older configs; the attack ignores it
    "random-correlation": Kind(lambda T, tau: RandomCorrelationAnalyst(T), {
        "T": count(1, ceiling=RUN_MAX_ROUNDS), "tau": _TAU}),
    "shifting-means": Kind(ShiftingMeanAnalyst, {
        "T": count(1, ceiling=RUN_MAX_ROUNDS),
        "w_max": count(1, 4, RUN_MAX_ROUNDS), "r_cells": count(2, 64, GRID_MAX_CELLS),
        "r_step": Key(number, *_POSITIVE, 1.6), "max_shift": count(0, 3)}),
}


def make_analyst(name: str, params: dict) -> Analyst:
    return _build(ANALYSTS, {**params, "name": name}, "analyst")


# ---------------------------------------------------------------------------
# Mechanisms and experiment runner.

def naive_answer(S: Dataset, phi: TestQuery) -> float:
    """The no-mechanism baseline: the exact sample mean phi(S)."""
    return query_expectation_on_sample(phi, S)


@dataclass
class ExperimentConfig:
    seed: int
    trials: int
    n: int
    population: dict
    mechanism: dict
    analyst: dict
    out: Optional[str] = None

    def __post_init__(self):
        """Read every field, specs included, against CONFIG_KEYS."""
        fields = read_keys(CONFIG_KEYS, vars(self), "config")
        vars(self).update({key: fields[key] for key in vars(self)})


@dataclass
class ExperimentReport:
    rows: list[dict]
    summary: dict

    def recompute_summary(self) -> dict:
        """Rebuild the summary from rows alone (test-error recomputation
        assumes the shipped analysts' {0,1}-valued arity-1 tests)."""
        return _summarize(self.rows, n=int(self.summary["n"]),
                          trials=int(self.summary["trials"]),
                          mechanism=str(self.summary["mechanism"]))

    def verify_consistency(self) -> None:
        recomputed = self.recompute_summary()
        for key, val in recomputed.items():
            ref = self.summary[key]
            if isinstance(val, float) and isinstance(ref, float):
                scale = max(1.0, abs(ref))
                ok = (math.isnan(val) and math.isnan(ref)) or \
                    abs(val - ref) <= 1e-9 * scale
            else:
                ok = val == ref
            if not ok:
                raise RuntimeError(
                    f"summary field {key!r} not recomputable from rows: "
                    f"{ref!r} vs {val!r}")


_BUDGET_KEYS = {
    "budget_mode": Key(one_of(*BudgetLedger.MODES), default="expectation"),
    "budget_limit": Key(number, lambda v: v >= 0.0, "non-negative", math.inf)}
_DELTA = Key(number, *_OPEN_UNIT)


class NaiveMechanism:
    """The no-mechanism baseline (exact sample means at no cost), and the
    shape of every mechanism: built from its config params, n and the
    analyst; ``open`` starts a trial's session, whose ``answer(q)`` returns
    y, charges its cost to the session's ledger (the baseline charges
    nothing) and, when it computed the sample mean phi(S) on the way, leaves
    it in ``session.sample_value``;
    ``row`` scores an answer, a NaN one being a refusal. A comparator is
    one more subclass."""

    name = "naive-empirical"
    keys = {"tau": _TAU, **_BUDGET_KEYS}

    def __init__(self, params: dict, n: int, analyst: Analyst):
        params = read_keys(self.keys, params, f"{self.name} spec")
        self.budget = (params["budget_mode"], params["budget_limit"])
        self.summary_extras: dict = {}
        self._parse(params, n, analyst)

    def _parse(self, params: dict, n: int, analyst: Analyst) -> None:
        self.tau = params["tau"]

    def open(self, S: Dataset, rng: RandomSource, ledger: BudgetLedger):
        return _NaiveSession(S)

    def row(self, population: Population, S: Dataset, q, answer=None,
            sample_value=None) -> dict:
        """Bias against the exact truth, within max(tau std, tau^2) (NaN
        without tau). ``answer=None`` scores the sample value itself;
        ``sample_value=None`` computes phi(S)."""
        if sample_value is None:
            sample_value = naive_answer(S, q)
        answer = sample_value if answer is None else answer
        truth = population.truth(q)
        bias = abs(answer - truth)
        threshold = (sq_accuracy_threshold(truth, self.tau)
                     if self.tau is not None else math.nan)
        within = not math.isnan(bias) and (
            math.isnan(threshold) or bias <= threshold + WITHIN_TOL)
        return {"answer": answer, "sample_value": sample_value, "truth": truth,
                "bias": bias, "threshold": threshold, "within_bound": int(within)}


class _NaiveSession:
    def __init__(self, S: Dataset):
        self.dataset = S

    def answer(self, phi: TestQuery) -> float:
        self.sample_value = naive_answer(self.dataset, phi)
        return self.sample_value


class SqMechanism(NaiveMechanism):
    """The statistical-query mechanism, scored like the baseline; ``tau``
    sets epsilon and k by the schedule unless both are given."""

    name = "subsampling-sq"
    keys = {"delta": _DELTA, "tau": _TAU,
            "epsilon": Key(number, lambda v: 0.0 <= v < 0.5, "in [0, 1/2)", None),
            "k": Key(integer, lambda v: v >= 1, "a vote count k >= 1", None,
                     SQ_MAX_VOTES), **_BUDGET_KEYS}

    def _parse(self, params, n, analyst):
        self.delta, self.tau = params["delta"], params["tau"]
        epsilon, k = params["epsilon"], params["k"]
        if epsilon is None or k is None:
            if self.tau is None:
                raise ConfigError("subsampling-sq needs tau or explicit epsilon and k")
            sp = sq_params(n, analyst.rounds, self.tau, self.delta)
            epsilon = sp.epsilon if epsilon is None else epsilon
            k = sp.k if k is None else k
        self.epsilon, self.k = epsilon, k
        self.summary_extras = {"epsilon": self.epsilon, "k": self.k,
                               "delta": self.delta}

    def open(self, S, rng, ledger):
        return SqSession(S, self.epsilon, self.k, rng, self.delta, ledger=ledger)


class MedianMechanism(NaiveMechanism):
    """The approximate-median mechanism, scored against the population median
    of q's answer law; ``sample_value`` is NaN (not enumerable at run sizes)."""

    name = "median"
    keys = {"delta": _DELTA, "c_m": Key(number, *_POSITIVE, 8.0),
            "noise": Key(typed(lambda v: isinstance(v, bool), "true or false"),
                         default=True), **_BUDGET_KEYS}

    def _parse(self, params, n, analyst):
        delta, c_m, self.noise = params["delta"], params["c_m"], params["noise"]
        mp = median_params(analyst.rounds, analyst.w_list, analyst.r_sizes,
                           delta, c_m=c_m)
        if mp.k > n:  # k may be hundreds of digits long, so print it as a float
            # both set the count; c_m comes first only above its default
            keys = ("c_m must be small enough, or delta large enough"
                    if c_m > self.keys["c_m"].default
                    else "delta must be large enough, or c_m small enough")
            raise ConfigError(f"{keys}, for at most n={n} groups, got delta={delta!r}, "
                              f"c_m={c_m!r} ({float(mp.k):g} groups)")
        self.k_groups = mp.k
        if n // mp.k <= max(analyst.w_list):
            raise ValueError(
                f"median splits n={n} into {mp.k} groups of as few as {n // mp.k} "
                f"elements, not more than the largest query arity {max(analyst.w_list)}")
        self.summary_extras = {"k_groups": mp.k,
                               "advisory_min_n": mp.advisory_min_n, "delta": delta}

    def open(self, S, rng, ledger):
        return MedianSession(S, self.k_groups, rng, ledger=ledger, noise=self.noise)

    def row(self, population, S, q, answer=None, sample_value=None):
        dist = population.response_dist(q)
        truth = _dist_median(dist)
        within = approximate_median_check(dist, answer, MEDIAN_CHECK_THRESHOLD)
        return {"answer": answer, "sample_value": math.nan, "truth": truth,
                "bias": abs(answer - truth), "threshold": MEDIAN_CHECK_THRESHOLD,
                "within_bound": int(within)}


MECHANISMS = {m.name: m for m in (NaiveMechanism, SqMechanism, MedianMechanism)}

# trials x rounds is capped by RUN_MAX_ROUNDS in check_config
CONFIG_KEYS = {
    "seed": count(0), "trials": count(1), "n": count(1, ceiling=SAMPLE_MAX),
    "population": Key(partial(read_spec, POPULATIONS, where="population")),
    "mechanism": Key(partial(read_spec, MECHANISMS, where="mechanism")),
    "analyst": Key(partial(read_spec, ANALYSTS, where="analyst")),
    "out": Key(typed(lambda v: isinstance(v, str), "a path"), default=None),
    # legacy: read and then ignored, since trials run serially
    "threads": count(1, 1),
}


def check_config(
        cfg: ExperimentConfig) -> tuple[Population, Analyst, NaiveMechanism]:
    """Build the config's population, analyst and mechanism and check that
    they fit together, without running a trial; a fault is a ConfigError.
    An analyst keeps no state between trials, so one serves them all."""
    try:
        population = _build(POPULATIONS, cfg.population, "population")
        if (isinstance(population, CubePopulation)
                and cfg.n * population.d > CUBE_MAX_ENTRIES):
            raise ValueError(
                f"n x d must be at most {CUBE_MAX_ENTRIES} cube sample entries, "
                f"got n={cfg.n}, d={population.d}")
        analyst_params, mech_params = dict(cfg.analyst), dict(cfg.mechanism)
        analyst = make_analyst(analyst_params.pop("name"), analyst_params)
        if cfg.trials * analyst.rounds > RUN_MAX_ROUNDS:
            raise ValueError(
                f"trials x analyst rounds must be at most {RUN_MAX_ROUNDS} (rounds "
                f"per trial: {analyst.rounds}), so trials at most "
                f"{RUN_MAX_ROUNDS // analyst.rounds}")
        mech_cls = MECHANISMS[mech_params.pop("name")]
        _check_compatibility(population, analyst, mech_cls)
        return population, analyst, mech_cls(mech_params, cfg.n, analyst)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def run_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    """Run the configured analyst against the configured mechanism for
    ``trials`` independent samples, each on its own split random stream;
    deterministic given the seed. A config fault raises ConfigError from
    ``check_config`` before any trial runs.
    """
    population, analyst, mechanism = check_config(cfg)
    root = RandomSource(cfg.seed)
    rows = [row for trial in range(cfg.trials) for row in
            _run_trial(trial, cfg.n, population, analyst, mechanism, root)]
    summary = _summarize(rows, n=cfg.n, trials=cfg.trials, mechanism=mechanism.name)
    summary.update(mechanism.summary_extras)
    return ExperimentReport(rows=rows, summary=summary)


def _check_compatibility(population, analyst, mechanism: type) -> None:
    if isinstance(analyst, RandomCorrelationAnalyst):
        if not isinstance(population, CubePopulation):
            raise ValueError("random-correlation analyst needs a ±1 cube population")
        if population.d != analyst.rounds:
            raise ValueError(
                f"cube dimension {population.d} must equal analyst rounds "
                f"{analyst.rounds}")
    if isinstance(analyst, FixedAnalyst):
        for q in analyst.queries:
            try:
                population.truth(q)
            except (IndexError, TypeError, ValueError) as exc:
                raise ValueError(f"fixed analyst query {q.name!r} does not fit "
                                 f"population {population.name}: {exc}") from None
    median_queries = isinstance(analyst, ShiftingMeanAnalyst)
    if median_queries != (mechanism is MedianMechanism):
        raise ValueError("the median mechanism answers only the shifting-means "
                         "analyst's median queries")
    if not median_queries:
        return
    if not isinstance(population, FinitePopulation):
        raise ValueError("shifting-means queries need a finite population")
    if not population._is_uniform_grid():
        return
    w = max(analyst.w_list)  # the largest arity asked
    if w * (len(population._support) - 1) + 1 > GRID_MAX_SUMS:
        raise ValueError(
            f"w_max and points must be small enough for at most {GRID_MAX_SUMS} "
            f"sums of {w} grid points, got w_max={analyst.w_max}, "
            f"points={len(population._support)}")
    with np.errstate(over="ignore", invalid="ignore"):  # inf - inf is NaN
        sums = population._support_sums(w)  # as the oracle forms them
    if not np.isfinite(sums).all():
        lo, hi = float(population._support.min()), float(population._support.max())
        raise ValueError(
            f"lo and hi must be small enough for sums of w = {w} "
            f"points to stay finite, got lo={lo!r}, hi={hi!r}")


def _run_trial(trial: int, n: int, population: Population, analyst: Analyst,
               mechanism: NaiveMechanism, root: RandomSource) -> list[dict]:
    """One trial: child(0) draws the sample, child(1) drives the session.
    Labels 2 and 3 stay free for a randomized analyst: adding one moves no stream."""
    rng = root.child(trial)
    S = population.draw(n, rng.child(0))
    ledger = BudgetLedger(*mechanism.budget)
    session = mechanism.open(S, rng.child(1), ledger)
    rows: list[dict] = []

    def record(t: int, query_id: str, scored: dict, cost: float) -> None:
        rows.append({"trial": trial, "t": t, "query_id": query_id,
                     "mechanism": mechanism.name, **scored, "cost": cost})

    responses: list[float] = []
    for t in range(1, analyst.rounds + 1):
        q = analyst.next_query(t, responses)
        try:
            answer = session.answer(q)
        except BudgetExhausted:
            # refusals are recorded, not fatal; the session cannot continue
            record(t, q.name, mechanism.row(population, S, q, math.nan), 0.0)
            break
        responses.append(answer)
        scored = mechanism.row(population, S, q, answer,
                               getattr(session, "sample_value", None))
        record(t, q.name, scored, ledger.last)  # this answer's charge; the baseline's is 0.0
    else:
        tests = analyst.final_tests(responses)
        for j, psi in enumerate(tests):
            record(analyst.rounds + 1 + j, f"test:{psi.name.removeprefix('test:')}",
                   mechanism.row(population, S, psi), 0.0)
    total = sum(r["cost"] for r in rows)
    if abs(total - ledger.total) > 1e-9 * max(1.0, ledger.total):
        raise RuntimeError("per-row costs do not sum to the ledger total")
    return rows


def _dist_median(dist: ResponsePMF) -> float:
    acc = 0.0
    for y, m in zip(dist.outputs, dist.masses):
        acc += m
        if acc >= 0.5:
            return float(y)
    return float(dist.outputs[-1])


def _summarize(rows: list[dict], *, n: int, trials: int, mechanism: str) -> dict:
    query_rows = [r for r in rows if not str(r["query_id"]).startswith("test:")]
    test_rows = [r for r in rows if str(r["query_id"]).startswith("test:")]
    by_trial_within: dict[int, bool] = {}
    by_trial_cost: dict[int, float] = {}
    for r in query_rows:
        by_trial_within.setdefault(r["trial"], True)
        by_trial_cost.setdefault(r["trial"], 0.0)
        if not r["within_bound"]:
            by_trial_within[r["trial"]] = False
        by_trial_cost[r["trial"]] += r["cost"]
    per_trial_cost = [by_trial_cost.get(i, 0.0) for i in sorted(by_trial_cost)]
    mean_cost = float(np.mean(per_trial_cost)) if per_trial_cost else 0.0
    # error = min(Delta, Delta^2/Var) for a {0,1}-valued arity-1 test
    test_errors = [error_value(r["bias"], r["truth"] * (1.0 - r["truth"]), 1)
                   for r in test_rows]
    biases = [r["bias"] for r in query_rows if not math.isnan(r["bias"])]
    summary = {
        "mechanism": mechanism,
        "trials": trials,
        "n": n,
        "rows": len(rows),
        "max_bias": max(biases, default=math.nan),
        "fraction_trials_all_within":
            float(np.mean([1.0 if ok else 0.0 for ok in by_trial_within.values()]))
            if by_trial_within else math.nan,
        "test_bias_mean": float(np.mean([r["bias"] for r in test_rows]))
            if test_rows else math.nan,
        "test_error_mean": float(np.mean(test_errors)) if test_errors else math.nan,
        "test_error_max": max(test_errors) if test_errors else math.nan,
        "total_cost_per_trial_mean": mean_cost,
        "mi_upper_bound": mi_upper_bound(n, mean_cost),
    }
    return summary
