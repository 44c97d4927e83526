"""Adaptive analysts, the mechanisms they face, and the experiment runner.

An analyst sees only the mechanism's responses, never the sample: its
interface receives the round number, the response prefix, and a split
randomness source. The runner draws a fresh sample per trial, plays the
analyst against one mechanism class (naive empirical means, subsampling-SQ
or approximate median) in one trial loop, and records per-query bias
against exactly computed population truths.

Populations with product structure (the ±1 cube) are represented
implicitly; only queries with closed-form truths (coordinate indicators,
sign-of-sum tests) are admitted against them, so the recorded truth stays
exact where the overfitting attack lives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Optional, Sequence

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
    sq_accuracy_threshold,
    sq_params,
)

ROW_COLUMNS = ("trial", "t", "query_id", "mechanism", "answer", "sample_value",
               "truth", "bias", "threshold", "within_bound", "cost")

WITHIN_TOL = 1e-12

MEDIAN_CHECK_THRESHOLD = 0.4

CUBE_ROW_BLOCK = 256  # rows of a cube sample drawn at once; a multiple of 4
CUBE_MAX_ENTRIES = 1 << 31  # n x d ceiling on a cube sample, one byte an entry
RUN_MAX_ROUNDS = 1 << 20  # trials x analyst rounds ceiling on a run, one row each


class ConfigError(ValueError):
    """A config that cannot run: a bad key or value, or parts that do not fit."""


def config_integer(value, key: str) -> int:
    """A config count: a whole float such as 3.0 becomes an int; a fraction,
    a bool or a string is a ConfigError naming the key."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ConfigError(f"{key} must be an integer, got {value!r}")
    return int(value)


def config_number(value, key: str) -> float:
    """A real config value: an int or a float (infinity included) becomes a
    float; a bool, a string, NaN or an int past the float range is a
    ConfigError naming the key."""
    if isinstance(value, bool) or not isinstance(
            value, (int, float, np.integer, np.floating)) or value != value:  # NaN
        raise ConfigError(f"{key} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:  # a YAML int of hundreds of digits
        raise ConfigError(f"{key} must be a number within the float range, "
                          f"got an int of {value.bit_length()} bits") from None


def _config_tau(value):
    """An optional accuracy level tau: a number in (0, 1), as sq_params
    requires."""
    if value is not None and not 0.0 < config_number(value, "tau") < 1.0:
        raise ConfigError(f"tau must be a number in (0, 1), got {value!r}")
    return value


# ---------------------------------------------------------------------------
# Queries with structured tags.

def identity_test() -> TestQuery:
    """phi(x) = x for populations over values in [0, 1]."""
    return TestQuery(1, name="identity", batch=lambda arr: arr.astype(float),
                     tag=("identity",))


def constant_test(c: float) -> TestQuery:
    c = float(c)
    if not 0.0 <= c <= 1.0:
        raise ValueError(f"constant value must lie in [0, 1], got {c!r}")
    return TestQuery(1, name=f"const:{c:g}",
                     batch=lambda arr, _c=c: np.full(arr.shape[0], _c),
                     tag=("constant", c))


def coordinate_indicator(j: int) -> TestQuery:
    """phi(x) = 1[x_j = 1] on ±1 vector elements."""
    return TestQuery(1, name=f"coord:{j}",
                     batch=lambda arr, _j=j: (arr[:, _j] == 1).astype(float),
                     tag=("coord", j))


def sign_sum_test(signs: Sequence[int]) -> TestQuery:
    """psi(x) = 1[sum_j s_j x_j > 0] on ±1 vector elements."""
    signs = tuple(int(s) for s in signs)
    if any(s not in (-1, 1) for s in signs):
        raise ValueError("signs must be ±1")
    s_arr = np.asarray(signs, dtype=np.int64)

    def batch(arr, _s=s_arr):
        # exact int64 sums, one column at a time: a cube sample is stored
        # column-major, and casting it whole would hold 8nd bytes
        acc = np.zeros(arr.shape[0], dtype=np.int64)
        for j, s in enumerate(_s):
            (np.add if s > 0 else np.subtract)(acc, arr[:, j], out=acc)
        return (acc > 0).astype(float)

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
    centers = tuple(float(c) for c in centers)

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
    """Exact P[sum of d iid uniform ±1 coordinates > 0]."""
    acc = sum(math.comb(d, j) for j in range(d // 2 + 1, d + 1))
    return float(Fraction(acc, 2 ** d))


class CubePopulation(Population):
    """Uniform ±1 vectors of dimension d, represented in product form.

    The explicit support has 2^d points, so only queries with closed-form
    truths are admitted: coordinate indicators, sign-of-sum tests, and
    constants.

    A drawn sample is stored column-major (an F-contiguous (n, d) int8
    array), since the queries against it scan one coordinate at a time. Its
    values are still those of ``integers(0, 2, size=(n, d), dtype=int8)``
    mapped to ±1, from the same stream.
    """

    def __init__(self, d: int):
        if d < 1:
            raise ValueError("cube dimension must be positive")
        self.d = int(d)
        self.name = f"uniform_pm1_cube(d={d})"

    def draw(self, n: int, rng: RandomSource) -> Dataset:
        # integers(0, 2, int8) takes each entry as the top bit of one byte
        # of successive 32-bit words, low byte first. Drawing the words
        # CUBE_ROW_BLOCK rows at a time reads the same stream, because each
        # block ends on a word boundary, and holds a block or two of words,
        # not n x d of them.
        d = self.d
        cols = np.empty((d, n), dtype=np.int8)
        for i in range(0, n, CUBE_ROW_BLOCK):
            rows = min(CUBE_ROW_BLOCK, n - i)
            words = rng.generator.integers(0, 2 ** 32, size=-(-rows * d // 4),
                                           dtype=np.uint32)
            block = words.astype("<u4", copy=False).view(np.int8)[:rows * d]
            block >>= 7  # the top bit: 1 reads -1, 0 reads 0
            np.invert(block, out=block)
            block |= 1  # 1 becomes +1, 0 becomes -1
            cols[:, i:i + rows] = block.reshape(rows, d).T
        return Dataset.adopt(cols.T)

    def truth(self, q: TestQuery) -> float:
        kind = q.tag[0] if q.tag else None
        if kind == "coord":
            if not 0 <= q.tag[1] < self.d:
                raise ValueError(f"coordinate {q.tag[1]} is outside the cube's "
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


def population_generators(name: str, params: dict) -> Population:
    """Named finite populations resolvable from experiment configs."""
    params = dict(params)
    if name == "bernoulli":
        p = config_number(params.pop("p"), "p")
        _reject_extras(name, params)
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"p must lie in [0, 1], got {p!r}")
        gt = GroundTruth((0, 1), np.array([1.0 - p, p]))
        return FinitePopulation(gt, name=f"bernoulli({p:g})")
    if name == "uniform_pm1_cube":
        d = config_integer(params.pop("d"), "d")
        _reject_extras(name, params)
        return CubePopulation(d)
    if name == "discretized_gaussian":
        lo, hi, mu, sigma = (
            config_number(params.pop(key, default), key) for key, default
            in (("lo", -4.0), ("hi", 4.0), ("mu", 0.0), ("sigma", 1.0)))
        points = config_integer(params.pop("points", 257), "points")
        _reject_extras(name, params)
        for key, value in (("lo", lo), ("hi", hi), ("mu", mu), ("sigma", sigma),
                           ("hi - lo", hi - lo)):
            if not math.isfinite(value):
                raise ValueError(f"{key} must be finite, got {value!r}")
        if not (lo < hi and points >= 2 and sigma > 0):
            raise ValueError("discretized_gaussian needs lo < hi, points >= 2, sigma > 0")
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
    raise ValueError(f"unknown population {name!r}")


def _reject_extras(name: str, leftovers: dict) -> None:
    if leftovers:
        key = sorted(leftovers)[0]
        raise ValueError(f"unknown {name} parameter {key!r}")


# ---------------------------------------------------------------------------
# Analysts.

class Analyst:
    """A query strategy. Receives only (round, response prefix, randomness);
    the sample itself is never exposed to it."""

    rounds: int = 0

    def next_query(self, t: int, responses: tuple, rng: RandomSource):
        raise NotImplementedError

    def final_tests(self, responses: tuple, rng: RandomSource) -> list[TestQuery]:
        return []


class FixedAnalyst(Analyst):
    """Replays a fixed query list, ignoring responses."""

    def __init__(self, queries: Sequence[TestQuery],
                 tests: Optional[Sequence[TestQuery]] = None):
        if not queries:
            raise ValueError("fixed analyst needs at least one query")
        self.queries = list(queries)
        self.rounds = len(self.queries)
        self.tests = list(tests) if tests is not None else list(queries)

    def next_query(self, t, responses, rng):
        return self.queries[t - 1]

    def final_tests(self, responses, rng):
        return list(self.tests)


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

    def next_query(self, t, responses, rng):
        return coordinate_indicator(t - 1)

    def final_tests(self, responses, rng):
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

    def _shift_cells(self, t: int, responses: tuple) -> int:
        if not responses:
            return 0
        prev_cell = int(round(responses[-1] / self.r_step))
        bounce = 1 if t % 2 == 0 else -1
        return max(-self.max_shift, min(self.max_shift, -prev_cell + bounce))

    def next_query(self, t, responses, rng):
        w = self.w_list[t - 1]
        shift = self._shift_cells(t, responses) * self.r_step
        return grid_mean_query(w, shift, self.centers)


def make_analyst(name: str, params: dict) -> Analyst:
    params = dict(params)
    if name == "fixed":
        specs = params.pop("queries")
        _reject_extras(name, params)
        if not isinstance(specs, list):
            raise ValueError(f"queries must be a list, got {specs!r}")
        return FixedAnalyst([_query_from_spec(s) for s in specs])
    if name == "random-correlation":
        T = config_integer(params.pop("T"), "T")
        params.pop("tau", None)  # accepted for older configs; the attack ignores it
        _reject_extras(name, params)
        return RandomCorrelationAnalyst(T)
    if name == "shifting-means":
        kwargs = {k: config_integer(params.pop(k), k)
                  for k in ("T", "w_max", "r_cells", "max_shift") if k in params}
        if "r_step" in params:
            kwargs["r_step"] = config_number(params.pop("r_step"), "r_step")
        _reject_extras(name, params)
        return ShiftingMeanAnalyst(**kwargs)
    raise ValueError(f"unknown analyst {name!r}")


def _query_from_spec(spec) -> TestQuery:
    if isinstance(spec, str):
        spec = {"kind": spec}
    if not isinstance(spec, dict):
        raise ValueError(f"queries must be kind names or mappings, got {spec!r}")
    kind = spec.get("kind")
    if kind == "identity":
        return identity_test()
    if kind == "constant":
        return constant_test(config_number(spec["value"], "value"))
    if kind == "coord":
        return coordinate_indicator(config_integer(spec["j"], "j"))
    raise ValueError(f"unknown query kind {kind!r}")


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
        for key in ("seed", "trials", "n"):
            value = getattr(self, key)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ConfigError(f"{key} must be an integer, got {value!r}")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")
        if self.trials < 1:
            raise ConfigError("trials must be at least 1")
        if self.n < 1:
            raise ConfigError("n must be at least 1")
        if self.out is not None and not isinstance(self.out, str):
            raise ConfigError("out must be a path")
        for spec_name in ("population", "mechanism", "analyst"):
            spec = getattr(self, spec_name)
            if not isinstance(spec, dict):
                raise ConfigError(f"{spec_name} must be a mapping, got {spec!r}")
            if "name" not in spec:
                raise ConfigError(f"{spec_name} spec needs a 'name' key")


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

    def __init__(self, params: dict, n: int, analyst: Analyst):
        limit = config_number(params.pop("budget_limit", math.inf), "budget_limit")
        if limit < 0:
            raise ConfigError(f"budget_limit must be non-negative, got {limit!r}")
        mode = params.pop("budget_mode", "expectation")
        if mode not in BudgetLedger.MODES:
            raise ConfigError(
                f"budget_mode must be one of {BudgetLedger.MODES}, got {mode!r}")
        self.budget = (mode, limit)
        self.summary_extras: dict = {}
        self._parse(params, n, analyst)
        _reject_extras(self.name, params)

    def _parse(self, params: dict, n: int, analyst: Analyst) -> None:
        self.tau = _config_tau(params.pop("tau", None))

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

    def _parse(self, params, n, analyst):
        self.delta = config_number(params.pop("delta"), "delta")
        if not 0.0 < self.delta < 1.0:
            raise ConfigError(f"delta must be in (0, 1), got {self.delta!r}")
        self.tau = _config_tau(params.pop("tau", None))
        epsilon = params.pop("epsilon", None)
        k = params.pop("k", None)
        if self.tau is not None and (epsilon is None or k is None):
            sp = sq_params(n, analyst.rounds, self.tau, self.delta)
            epsilon = sp.epsilon if epsilon is None else epsilon
            k = sp.k if k is None else k
        if epsilon is None or k is None:
            raise ValueError("subsampling-sq needs tau or explicit epsilon and k")
        self.epsilon, self.k = config_number(epsilon, "epsilon"), config_integer(k, "k")
        if not 0.0 <= self.epsilon < 0.5:
            raise ConfigError(f"epsilon must be in [0, 1/2), got {self.epsilon!r}")
        if self.k < 1:
            raise ConfigError(f"k must be a vote count k >= 1, got {self.k!r}")
        if self.k > SQ_MAX_VOTES:
            raise ConfigError(f"k must be at most 2**63 - 1, got {self.k!r}")
        self.summary_extras = {"epsilon": self.epsilon, "k": self.k,
                               "delta": self.delta}

    def open(self, S, rng, ledger):
        return SqSession(S, self.epsilon, self.k, rng, self.delta, ledger=ledger)


class MedianMechanism(NaiveMechanism):
    """The approximate-median mechanism, scored against the population median
    of q's answer law; ``sample_value`` is NaN (not enumerable at run sizes)."""

    name = "median"

    def _parse(self, params, n, analyst):
        delta = config_number(params.pop("delta"), "delta")
        self.noise = params.pop("noise", True)
        if not isinstance(self.noise, bool):
            raise ConfigError(f"noise must be true or false, got {self.noise!r}")
        c_m = config_number(params.pop("c_m", 8.0), "c_m")
        mp = median_params(analyst.rounds, analyst.w_list, analyst.r_sizes,
                           delta, c_m=c_m)
        if mp.k > n:  # k may be hundreds of digits long, so print it as a float
            raise ConfigError(f"c_m must be small enough for at most n={n} groups, "
                              f"got {c_m!r} ({float(mp.k):g} groups)")
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


def check_config(
        cfg: ExperimentConfig) -> tuple[Population, Analyst, NaiveMechanism]:
    """Build the config's population, analyst and mechanism and check that
    they fit together, without running a trial; a fault is a ConfigError.
    An analyst keeps no state between trials, so one serves them all."""
    try:
        population = population_generators(cfg.population["name"],
                                           _params_of(cfg.population))
        if (isinstance(population, CubePopulation)
                and cfg.n * population.d > CUBE_MAX_ENTRIES):
            raise ValueError(
                f"n x d must be at most {CUBE_MAX_ENTRIES} cube sample entries, "
                f"got n={cfg.n}, d={population.d}")
        mech_cls = MECHANISMS.get(cfg.mechanism["name"])
        if mech_cls is None:
            raise ValueError(f"unknown mechanism {cfg.mechanism['name']!r}")
        analyst = make_analyst(cfg.analyst["name"], _params_of(cfg.analyst))
        if cfg.trials * analyst.rounds > RUN_MAX_ROUNDS:
            raise ValueError(
                f"trials x analyst rounds must be at most {RUN_MAX_ROUNDS} (rounds "
                f"per trial: {analyst.rounds}), so trials at most "
                f"{RUN_MAX_ROUNDS // analyst.rounds}")
        _check_compatibility(population, analyst, mech_cls)
        return (population, analyst,
                mech_cls(_params_of(cfg.mechanism), cfg.n, analyst))
    except KeyError as exc:
        raise ConfigError(f"missing parameter {exc}") from None
    except (TypeError, ValueError) as exc:
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


def _params_of(spec: dict) -> dict:
    params = dict(spec)
    params.pop("name", None)
    return params


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
    with np.errstate(over="ignore", invalid="ignore"):  # inf - inf is NaN
        sums = population._support_sums(analyst.w_max)  # as the oracle forms them
    if not np.isfinite(sums).all():
        lo, hi = float(population._support.min()), float(population._support.max())
        raise ValueError(
            f"lo and hi must be small enough for sums of w_max = {analyst.w_max} "
            f"points to stay finite, got lo={lo!r}, hi={hi!r}")


def _run_trial(trial: int, n: int, population: Population, analyst: Analyst,
               mechanism: NaiveMechanism, root: RandomSource) -> list[dict]:
    """One trial: child(0) draws the sample, child(1) drives the session,
    child(2, t) the analyst's round t and child(3) its final tests."""
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
        q = analyst.next_query(t, tuple(responses), rng.child(2, t))
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
        tests = analyst.final_tests(tuple(responses), rng.child(3))
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
        "mi_upper_bound": n * mean_cost,
    }
    return summary
