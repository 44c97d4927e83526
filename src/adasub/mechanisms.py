"""The two subsampling mechanisms, their parameter schedules, and costs.

The statistical-query mechanism answers phi: X -> [0,1] by squashing it
into [eps, 1-eps], taking k votes, and returning the vote mean. Each vote
draws one element x_i uniformly from the sample and flips
Bernoulli(phi_eps(x_i)), so the votes are iid Bernoulli(phi_eps(S)) with
phi_eps(S) the sample mean of the squashed values, and the answer is
exactly Binomial(k, phi_eps(S)) / k. The session draws it that way: one
pass over the query's values (a count of the ones for a {0,1}-valued test's
bools, as then phi_eps(S) = eps + (1 - 2 eps) phi(S)) and one binomial
draw. Each vote is still a single arity-1 subsampling query with a binary
range and uniformity floor eps, and the ledger is charged k of them.

The approximate-median mechanism splits the sample into k groups and binary
searches the query's ordered range; each probe takes one subsample vote per
group, flips it with probability w/|group| (making the vote
(w/|group|)-uniform), and follows the majority. Given the sample, every
vote is independent of the others and of the search path, so the session
draws all of an answer's probes before its search starts, in one step.

Charged costs follow the per-query schedules:

    cost_basic    w|Y| ln(n) / (n-w)
    cost_uniform  (w|Y|/(n-w)) min(ln n, 1 + ln(1 + w/(n p)))
    cost_hp       (|Y|/n)     min(ln n, 1 + ln(1 + ln(1/delta)/(n p)))

(the high-probability schedule fixes w = 1). One SQ answer charges
k cost_hp(n, 2, eps, delta) (``sq_answer_cost``), and n times the total
charged cost (``mi_upper_bound``) upper-bounds the mutual information
between the sample and the transcript of responses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import Dataset, Query, TestQuery
from .engine import RandomSource, draw_positions


class BudgetExhausted(RuntimeError):
    """An almost-surely budgeted ledger refused a charge."""


class BudgetLedger:
    """Running account of per-query charges: the one record of what a
    session charged. ``total`` is the sum of the charges and ``last`` the
    most recent one (0.0 before any).

    In ``almost_sure`` mode a charge that would push the total past the
    limit raises BudgetExhausted and leaves the ledger unchanged; in
    ``expectation`` mode charges are only recorded.
    """

    MODES = ("expectation", "almost_sure")

    def __init__(self, mode: str = "expectation", limit: float = math.inf):
        if mode not in self.MODES:
            raise ValueError(f"mode must be one of {self.MODES}")
        self.mode = mode
        self.limit = float(limit)
        if not self.limit >= 0:  # NaN too: no charge would ever be refused
            raise ValueError(f"limit must be nonnegative, got {limit!r}")
        self._total = 0.0
        self.last = 0.0

    def charge(self, amount: float) -> None:
        if not amount >= 0:  # NaN too: it would disable every later refusal
            raise ValueError(f"charges must be nonnegative, got {amount!r}")
        if self.mode == "almost_sure" and self._total + amount > self.limit + 1e-12:
            raise BudgetExhausted(
                f"charge {amount} would exceed limit {self.limit} "
                f"(total {self._total})")
        self._total += amount
        self.last = amount

    @property
    def total(self) -> float:
        return self._total


def cost_basic(n: int, w: int, ysize: int) -> float:
    """Per-query charge w|Y| ln(n) / (n-w)."""
    _check_cost_args(n, w, ysize)
    return w * ysize * math.log(n) / (n - w)


def cost_uniform(n: int, w: int, ysize: int, p: float) -> float:
    """Per-query charge for a p-uniform query; p = 0 falls back to the
    ln(n) branch."""
    _check_cost_args(n, w, ysize)
    return w * ysize / (n - w) * _uniform_branch(n, w, p)


def cost_hp(n: int, ysize: int, p: float, delta: float) -> float:
    """High-probability per-query charge (arity fixed to 1)."""
    if not (n >= 1 and ysize >= 1):  # NaN too
        raise ValueError("need n >= 1 and |Y| >= 1")
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    return ysize / n * _uniform_branch(n, math.log(1.0 / delta), p)


def _uniform_branch(n: int, a: float, p: float) -> float:
    """min(ln n, 1 + ln(1 + a/(n p))) for a p-uniform query; ln n at p = 0."""
    if not p >= 0:  # NaN too: min(ln n, nan) would return ln n
        raise ValueError("uniformity floor must be nonnegative")
    log_n = math.log(n)
    return log_n if p == 0.0 else min(log_n, 1.0 + math.log(1.0 + a / (n * p)))


def _check_cost_args(n: int, w: int, ysize: int) -> None:
    if not 1 <= w < n:
        raise ValueError(f"need 1 <= w < n, got w={w}, n={n}")
    if not ysize >= 1:  # NaN too
        raise ValueError("range size must be at least 1")


def mi_upper_bound(n: int, total_cost: float) -> float:
    """n times a total charged cost: an upper bound on the mutual
    information between the sample and the responses charged for it (pass
    the per-trial mean total for the expectation form)."""
    if not n >= 1:
        raise ValueError(f"need n >= 1, got n={n!r}")
    return n * total_cost


def sq_answer_cost(n: int, k: int, epsilon: float, delta: float) -> float:
    """What one SQ answer charges: k votes, each a binary arity-1 query
    that is epsilon-uniform, at the high-probability cost."""
    return k * cost_hp(n, 2, epsilon, delta)


def squash(phi: TestQuery, epsilon: float) -> TestQuery:
    """Clamp an arity-1 statistical query into [eps, 1-eps].

    Idempotent and monotone; with eps = 0 the query is unchanged.
    """
    if not 0.0 <= epsilon < 0.5:
        raise ValueError("squash level must satisfy 0 <= eps < 1/2")
    if phi.arity != 1:
        raise ValueError("squash is defined for arity-1 statistical queries")
    lo, hi = epsilon, 1.0 - epsilon
    name = f"squash({phi.name or 'phi'},{epsilon:g})"
    if phi.batch is not None:
        return TestQuery(1, name=name, tag=phi.tag, batch=lambda arr, _b=phi.batch:
                         np.clip(np.asarray(_b(arr), dtype=float), lo, hi))
    return TestQuery(1, lambda x, _f=phi.evaluator: min(max(float(_f(x)), lo), hi),
                     name=name, tag=phi.tag)


def std_binary(truth: float) -> float:
    """sqrt(p (1-p)) for a statistical query with population mean p."""
    return math.sqrt(max(0.0, truth * (1.0 - truth)))


def sq_accuracy_threshold(truth: float, tau: float) -> float:
    """Accuracy target max(tau * std, tau^2) for a query with population
    mean ``truth``."""
    return max(tau * std_binary(truth), tau * tau)


@dataclass(frozen=True)
class SqParams:
    epsilon: float
    k: int
    advisory_min_n: int


SQ_C_EPS = 1.0  # the constant of the squash level in sq_params
SQ_C_K = 8.0  # the constant of the vote count in sq_params
SQ_MAX_VOTES = int(np.iinfo(np.int64).max)  # the most votes gen.binomial takes


def sq_params(n: int, T: int, tau: float, delta: float) -> SqParams:
    """Parameter schedule for the statistical-query mechanism.

    eps = min(c_eps ln(2/delta)/n, 0.49) and k = ceil(c_k ln(4T/delta)/tau^2),
    with c_eps = ``SQ_C_EPS`` and c_k = ``SQ_C_K``. ``advisory_min_n`` is
    the sample-size gate sqrt(T ln(T/delta) ln(1/delta))/tau^2 with leading
    constant 1; runs below it carry no accuracy claim. The constants are
    validated by the acceptance suite.
    """
    if not (n >= 1 and T >= 1):  # NaN too
        raise ValueError("need n >= 1 and T >= 1")
    if not 0.0 < tau < 1.0:
        raise ValueError("tau must lie in (0, 1)")
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    epsilon = min(SQ_C_EPS * math.log(2.0 / delta) / n, 0.49)
    votes = SQ_C_K * math.log(4.0 * T / delta)
    gate = math.sqrt(T * math.log(T / delta) * math.log(1.0 / delta))
    if math.isinf(votes + gate):  # 1/delta overflowed
        raise ValueError(f"delta must be large enough for a finite vote count "
                         f"and sample gate, got {delta!r}")
    scale = tau ** 2
    if scale == 0.0 or math.isinf(max(votes, gate) / scale):
        raise ValueError(f"tau must be large enough for a finite vote count "
                         f"and sample gate, got {tau!r}")
    k = math.ceil(votes / scale)
    if k > SQ_MAX_VOTES:
        raise ValueError(f"tau must be large enough for at most 2**63 - 1 votes, "
                         f"got {tau!r} ({k:g} votes)")
    return SqParams(epsilon=epsilon, k=k, advisory_min_n=math.ceil(gate / scale))


def sq_vote_budget(n: int, T: int) -> int:
    """Per-query vote count that keeps the mechanism's total draws within
    the n*sqrt(T) sample budget: floor(n/sqrt(T)), at least 1."""
    if not (n >= 1 and T >= 1):
        raise ValueError(f"need n >= 1 and T >= 1, got n={n!r}, T={T!r}")
    return max(1, int(n / math.sqrt(T)))


class SqSession:
    """One analyst session against the statistical-query mechanism.

    Single-writer: one in-flight query at a time. ``delta`` parameterizes
    the per-vote high-probability cost charged to the ledger.
    ``sample_value`` is the exact sample mean phi(S) of the last query
    answered, a Python float (NaN before the first). One answer's charge,
    ``sq_answer_cost``, is fixed by the session's n, k, epsilon and delta.
    """

    def __init__(self, dataset: Dataset, epsilon: float, k: int,
                 rng: RandomSource, delta: float,
                 ledger: Optional[BudgetLedger] = None):
        if not 0.0 <= epsilon < 0.5:
            raise ValueError("epsilon must satisfy 0 <= eps < 1/2")
        if not 1 <= k <= SQ_MAX_VOTES:  # gen.binomial takes no more
            raise ValueError(f"votes per query must lie in 1..{SQ_MAX_VOTES} "
                             f"(SQ_MAX_VOTES), got {k}")
        if not 0.0 < delta < 1.0:
            raise ValueError("delta must lie in (0, 1)")
        self.dataset = dataset
        self.epsilon = float(epsilon)
        self.k = int(k)
        self.delta = float(delta)
        self.ledger = ledger if ledger is not None else BudgetLedger()
        self.sample_value = math.nan
        self._gen = rng.generator
        self._cost = sq_answer_cost(len(dataset), self.k, self.epsilon, self.delta)

    def answer(self, phi: TestQuery) -> float:
        """Answer one statistical query: the mean of k Bernoulli votes, each
        on one element drawn uniformly from the sample with the squashed
        query value as its parameter. Those votes are iid
        Bernoulli(phi_eps(S)), so the answer is drawn exactly as
        Binomial(k, phi_eps(S)) / k from one pass over the query's values.
        The ledger is still charged k per-vote costs, up front; a refusal
        consumes no draws. ``sample_value`` keeps the unsquashed sample mean
        phi(S) of the same values."""
        if phi.arity != 1:
            raise ValueError("the SQ mechanism answers arity-1 queries")
        self.ledger.charge(self._cost)
        values = self.dataset.tally(phi)
        if isinstance(values, int):  # a count of ones: count/n is the float mean, exactly
            self.sample_value = values / len(self.dataset)
            p = self.epsilon + (1.0 - 2.0 * self.epsilon) * self.sample_value
        else:
            self.sample_value = float(values.mean())
            p = float(np.clip(values, self.epsilon, 1.0 - self.epsilon).mean())
        return float(self._gen.binomial(self.k, p)) / self.k


def approximate_median_check(dist, y: float, threshold: float = 0.4) -> bool:
    """Atom-tolerant approximate-median test: both closed tails of ``dist``
    at y carry mass at least ``threshold``.

    The closed-tail (<=, >=) reading makes a point mass its own approximate
    median. The constant 0.4 stands for any fixed value below 1/2.
    """
    return min(dist.prob_le(y), dist.prob_ge(y)) >= threshold


def search_rounds(r: int) -> int:
    """Probes of a binary search over an ordered range of r values:
    ceil(log2 r) for r > 1, and 0 for a single value."""
    if not r >= 1:
        raise ValueError(f"need range size r >= 1, got r={r!r}")
    return math.ceil(math.log2(r)) if r > 1 else 0


@dataclass(frozen=True)
class MedianParams:
    k: int
    advisory_min_n: int


def median_params(T: int, w_list, r_sizes, delta: float, *,
                  c_m: float = 8.0) -> MedianParams:
    """Group count for the approximate-median mechanism:

        k = max(2, ceil(c_m ln(2 T ceil(log2 Rmax) / delta)))

    ``advisory_min_n`` is k sqrt(w_max sum_t w_t) rounded up (the sample
    gate with leading constant 1 and k standing in for its log factor).
    The theory constant behind the failure exponent (exp(-k/300)) would
    demand far larger k; c_m = 8 is the desk-scale default validated by
    the acceptance suite.
    """
    if not T >= 1 or len(w_list) != T or len(r_sizes) != T:
        raise ValueError("need T >= 1 and per-query arity/range-size lists of length T")
    for key, sizes in (("w_list", w_list), ("r_sizes", r_sizes)):
        if not all(v >= 1 for v in sizes):  # before int(), which fails on NaN
            raise ValueError(f"every entry of {key} must be at least 1, got {sizes!r}")
    w_list = [int(w) for w in w_list]
    r_sizes = [int(r) for r in r_sizes]
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    if not 0.0 < c_m < math.inf:
        raise ValueError(f"c_m must be positive and finite, got {c_m!r}")
    log_rounds = search_rounds(max(r_sizes))
    w_max = max(w_list)
    if log_rounds == 0:
        k = 2  # single-value ranges take zero search rounds
    else:
        log_term = math.log(2.0 * T * log_rounds / delta)
        if math.isinf(c_m * log_term * math.sqrt(w_max * sum(w_list))):
            key, size, value = (("delta", "large", delta) if math.isinf(log_term)
                                else ("c_m", "small", c_m))
            raise ValueError(f"{key} must be {size} enough for a finite group count, "
                             f"got {value!r}")
        k = max(2, math.ceil(c_m * log_term))
    advisory = math.ceil(k * math.sqrt(w_max * sum(w_list)))
    return MedianParams(k=k, advisory_min_n=advisory)


class MedianSession:
    """One analyst session against the approximate-median mechanism.

    The sample is split into ``num_groups`` contiguous groups whose sizes
    differ by at most one; ``groups`` holds each group's range of positions
    in the one sample array. ``noise=False`` disables the per-vote flip; that
    mode is exposed for comparison runs and carries no accuracy claim.

    Each answer charges and draws ``search_rounds(|Y|)`` = ceil(log2 |Y|)
    probes up front, even when the search isolates a value in fewer: with
    |Y| = 5 it draws and charges 3 probes and reads 2 or 3. The charge does
    not depend on the data, so the over-charge keeps the mutual-information
    bound sound, and an unread probe is independent of the read ones.
    """

    def __init__(self, dataset: Dataset, num_groups: int, rng: RandomSource,
                 ledger: Optional[BudgetLedger] = None, noise: bool = True):
        n = len(dataset)
        if not 1 <= num_groups <= n:
            raise ValueError(f"need 1 <= groups <= n, got {num_groups}, n={n}")
        self.dataset = dataset
        self.ledger = ledger if ledger is not None else BudgetLedger()
        self.noise = noise
        self._gen = rng.generator
        self.k = num_groups
        base, extra = divmod(n, num_groups)
        self._sizes = np.full(num_groups, base, dtype=np.int64)
        self._sizes[:extra] += 1
        self._starts = np.cumsum(self._sizes) - self._sizes
        self.groups = [range(start, start + size) for start, size
                       in zip(self._starts.tolist(), self._sizes.tolist())]
        self._tiles: dict[int, tuple[np.ndarray, np.ndarray]] = {}  # m -> sizes, starts
        self._ranges: set[tuple] = set()  # the ranges that passed the check
        self._probe_charges: dict[int, float] = {}  # arity -> cost of one probe

    def answer(self, q: Query) -> float:
        """Binary search q's ordered range; each probe takes one noisy
        subsample vote per group and follows the majority. Returns the
        single range value the search isolates."""
        self._check_range(q.outputs)
        min_group = len(self.groups[-1])  # group sizes never increase
        if q.arity >= min_group:
            raise ValueError(
                f"query arity {q.arity} is not below the smallest group size {min_group}")
        rounds = search_rounds(len(q.outputs))
        self.ledger.charge(rounds * self._probe_charge(q.arity))
        idx, flips = self._draw_probes(q, rounds)
        lo, hi, p = 0, len(q.outputs) - 1, 0
        while lo < hi:
            probe = (lo + hi + 1) // 2
            # Y strictly increases: answer >= outputs[probe] iff index >= probe
            if 2 * np.count_nonzero((idx[p] >= probe) ^ flips[p]) >= self.k:
                lo = probe
            else:
                hi = probe - 1
            p += 1
        return float(q.outputs[lo])

    def _check_range(self, outputs: tuple) -> None:
        """Raise ValueError unless q's range is a 1-D strictly increasing
        real range (a NaN fails too). A range that passes is kept, so each
        distinct range is checked once; one that fails is refused on every
        call, and an unhashable one is checked on every call."""
        try:
            known = outputs in self._ranges
        except TypeError:
            known = None
        if known:
            return
        values = np.asarray(outputs, dtype=float)
        if values.ndim != 1 or not (np.diff(values) > 0).all():
            raise ValueError("median queries need a strictly increasing real range")
        if known is False:
            self._ranges.add(outputs)

    def _draw_probes(self, q: Query, rounds: int) -> tuple[np.ndarray, np.ndarray]:
        """All ``rounds`` probes of one answer, drawn before the search reads
        any: (rounds, k) arrays of each group's answer index into q.outputs
        and of its vote flip (all False without noise). The probes come in
        blocks of at most n positions; each block is one ``draw_positions``
        call, one ``Query.answer_indices`` call and one draw of its flips."""
        idx = np.empty((rounds, self.k), dtype=np.intp)
        flips = np.zeros((rounds, self.k), dtype=bool)
        step = len(self.dataset) // (self.k * q.arity)  # k w < n, so step >= 1
        for first in range(0, rounds, step):
            m = min(step, rounds - first)
            sizes, starts = self._tile(m)
            pos = draw_positions(self._gen, sizes, q.arity, m * self.k)
            pos += starts
            idx[first:first + m] = q.answer_indices(
                self.dataset, pos, self._gen).reshape(m, self.k)
            if self.noise:
                flips[first:first + m] = self._gen.random((m, self.k)) < q.arity / self._sizes
        return idx, flips

    def _tile(self, m: int) -> tuple[np.ndarray, np.ndarray]:
        """The group sizes m times over, and the group starts m times over
        as a column, for a block of m probes; built once per m."""
        tile = self._tiles.get(m)
        if tile is None:
            sizes, starts = np.tile(self._sizes, m), np.tile(self._starts, m)[:, None]
            sizes.setflags(write=False)
            starts.setflags(write=False)
            tile = self._tiles[m] = sizes, starts
        return tile

    def _probe_charge(self, w: int) -> float:
        """The cost of one probe at arity w: one vote per group, summed over
        the groups in order, computed once per arity from the vote cost of
        each distinct group size."""
        charge = self._probe_charges.get(w)
        if charge is None:
            sizes = self._sizes.tolist()
            costs = {size: self._vote_cost(w, size) for size in set(sizes)}
            charge = self._probe_charges[w] = sum(costs[size] for size in sizes)
        return charge

    def _vote_cost(self, w: int, group_size: int) -> float:
        p = w / group_size if self.noise else 0.0
        return cost_uniform(group_size, w, 2, p)
