import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from adasub.core import Dataset, Query, TestQuery
from adasub.divergence import alkl_bound_general, alkl_bound_uniform, chi2_stability_bound
from adasub.engine import RandomSource, ResponsePMF, exact_response_pmf
from adasub.harness import ShiftingMeanAnalyst, population_generators
from adasub.mechanisms import (
    SQ_MAX_VOTES,
    BudgetExhausted,
    BudgetLedger,
    MedianSession,
    SqSession,
    approximate_median_check,
    cost_basic,
    cost_hp,
    cost_uniform,
    median_params,
    mi_upper_bound,
    search_rounds,
    sq_accuracy_threshold,
    sq_answer_cost,
    sq_params,
    sq_vote_budget,
    squash,
)
from grid_reference import scalar_grid_mean

IDENT = TestQuery(1, lambda x: float(x), name="id",
                  batch=lambda a: a.astype(float))


def record_charges(ledger: BudgetLedger) -> list[float]:
    """Spy on ``ledger.charge``: the returned list gets every amount the
    ledger accepts, in order."""
    amounts, charge = [], ledger.charge

    def spy(amount):
        charge(amount)
        amounts.append(amount)

    ledger.charge = spy
    return amounts


def record_draws(monkeypatch) -> list[tuple[int, int]]:
    """Spy on the median session's ``draw_positions``: the returned list
    gets the (rows, w) shape of every position array it draws, in order."""
    import adasub.mechanisms as mech
    shapes, draw = [], mech.draw_positions

    def spy(gen, n, w, m=1):
        pos = draw(gen, n, w, m)
        shapes.append(pos.shape)
        return pos

    monkeypatch.setattr(mech, "draw_positions", spy)
    return shapes


def median_answer_law(s: MedianSession, q: Query) -> np.ndarray:
    """The exact law of ``s.answer(q)`` over q.outputs, by walking the
    search tree. At a probe of threshold index t, group g votes 1 with
    probability (1 - f_g) P_g + f_g (1 - P_g), where P_g is the mass of q's
    answer law on the group at or above outputs[t] and f_g = w/|g| is the
    flip probability (0 without noise); the k votes are independent, so the
    count is Poisson-binomial, and the search moves up when 2 count >= k."""
    group_laws = [exact_response_pmf(q, Dataset([s.dataset[i] for i in g])).masses
                  for g in s.groups]
    flips = [q.arity / len(g) if s.noise else 0.0 for g in s.groups]
    law = np.zeros(len(q.outputs))

    def walk(lo, hi, mass):
        if lo == hi:
            law[lo] += mass
            return
        probe = (lo + hi + 1) // 2
        count = np.array([1.0])
        for masses, f in zip(group_laws, flips):
            above = masses[probe:].sum()
            vote = (1.0 - f) * above + f * (1.0 - above)
            count = np.convolve(count, [1.0 - vote, vote])
        up = count[(s.k + 1) // 2:].sum()
        walk(probe, hi, mass * up)
        walk(lo, probe - 1, mass * (1.0 - up))

    walk(0, len(q.outputs) - 1, 1.0)
    return law


def assert_frequencies_match(samples, values, law):
    """Each value's frequency among ``samples`` lies within 4 standard
    errors of its mass in ``law``; a value of mass 0 never occurs."""
    samples, reps = np.asarray(samples), len(samples)
    counts = np.array([np.count_nonzero(samples == v) for v in values])
    assert counts.sum() == reps
    for c, m in zip(counts, law):
        se = math.sqrt(max(m * (1.0 - m), 1e-9) / reps)
        assert abs(c / reps - m) <= 4 * se


# 13 values: the median session's 3 groups hold 5, 4 and 4 of them
MIXED_SAMPLE = Dataset([0.0, 2.0, 1.0, 3.0, 4.0, 2.0, 0.0, 3.0, 4.0, 1.0, 0.0, 2.0, 3.0])


def max_query(w: int, ysize: int) -> Query:
    """The largest of w elements, capped at the top of the range
    0, 1, ..., |Y| - 1; batched."""
    return Query(w, tuple(float(v) for v in range(ysize)), name="max",
                 batch=lambda a: np.minimum(a.max(axis=1), ysize - 1).astype(np.intp))


def spread_query(w: int, ysize: int) -> Query:
    """A randomized query whose law on 0, 1, ..., |Y| - 1 falls off as
    exp(-(y - mean)^2) around the subsample mean."""
    grid = np.arange(ysize, dtype=float)

    def dist(*xs):
        weights = np.exp(-(grid - sum(xs) / len(xs)) ** 2)
        return weights / weights.sum()

    return Query.randomized(w, tuple(grid.tolist()), dist, name="spread")


def const(c):
    return TestQuery(1, lambda x, _c=c: _c, name=f"c{c}",
                     batch=lambda a, _c=c: np.full(a.shape[0], float(_c)))


class TestCosts:
    def test_cost_basic_values(self):
        assert cost_basic(100, 1, 2) == pytest.approx(2 * math.log(100) / 99,
                                                      abs=1e-15)
        assert cost_basic(4, 2, 2) == pytest.approx(2 * math.log(4), abs=1e-15)

    def test_cost_basic_linear_in_ysize(self):
        assert cost_basic(50, 2, 6) == pytest.approx(2 * cost_basic(50, 2, 3),
                                                     abs=1e-15)

    def test_cost_basic_domain(self):
        with pytest.raises(ValueError):
            cost_basic(4, 4, 2)

    def test_cost_uniform_p_zero_matches_log_branch(self):
        assert cost_uniform(100, 1, 2, 0.0) \
            == pytest.approx(2 * math.log(100) / 99, abs=1e-15)

    def test_cost_uniform_value(self):
        assert cost_uniform(100, 1, 2, 0.1) \
            == pytest.approx((2 / 99) * (1 + math.log(1.1)), abs=1e-15)

    def test_cost_uniform_large_p_limit(self):
        # w/(np) -> 0 sends the log term to 0
        got = cost_uniform(10 ** 7, 1, 2, 0.5)
        assert got == pytest.approx(2 / (10 ** 7 - 1), rel=1e-5)

    def test_cost_uniform_never_exceeds_log_branch(self):
        gen = np.random.default_rng(0)
        for _ in range(100):
            n = int(gen.integers(3, 1000))
            w = int(gen.integers(1, n))
            ysize = int(gen.integers(1, 6))
            p = float(gen.random() / ysize)
            assert cost_uniform(n, w, ysize, p) \
                <= w * ysize * math.log(n) / (n - w) + 1e-12

    def test_cost_hp_value(self):
        got = cost_hp(100, 2, 0.1, 0.1)
        want = (2 / 100) * (1 + math.log(1 + math.log(10) / 10))
        assert got == pytest.approx(want, abs=1e-15)
        assert got == pytest.approx(0.024145, abs=1e-6)

    def test_cost_hp_delta_limit(self):
        assert cost_hp(100, 2, 0.1, 1 - 1e-12) == pytest.approx(0.02, rel=1e-9)

    def test_cost_hp_p_zero(self):
        assert cost_hp(100, 2, 0.0, 0.1) == pytest.approx(0.02 * math.log(100),
                                                          abs=1e-15)

    @pytest.mark.parametrize("p", [math.nan, -0.1])
    def test_nan_or_negative_floor_rejected(self, p):
        # min(ln n, nan) is ln n, so a NaN floor would charge the log branch
        with pytest.raises(ValueError, match="uniformity floor"):
            cost_uniform(10, 1, 2, p)
        with pytest.raises(ValueError, match="uniformity floor"):
            cost_hp(10, 2, p, 0.1)


@pytest.mark.parametrize("fn, args, words", [
    (chi2_stability_bound, (5, 1, math.nan), "range size must be at least 1"),
    (alkl_bound_general, (0.1, math.nan), r"need \|Y\| >= 1"),
    (alkl_bound_uniform, (0.1, 1, math.nan, 0.1), "need n >= 1 and w >= 1"),
    (alkl_bound_uniform, (0.1, math.nan, 10, 0.1), "need n >= 1 and w >= 1"),
    (cost_basic, (5, 1, math.nan), "range size must be at least 1"),
    (cost_uniform, (5, 1, math.nan, 0.1), "range size must be at least 1"),
    (cost_hp, (math.nan, 2, 0.1, 0.1), r"need n >= 1 and \|Y\| >= 1"),
    (cost_hp, (10, math.nan, 0.1, 0.1), r"need n >= 1 and \|Y\| >= 1"),
    (sq_params, (math.nan, 10, 0.1, 0.1), "need n >= 1 and T >= 1"),
    (sq_params, (100, math.nan, 0.1, 0.1), "need n >= 1 and T >= 1"),
    (search_rounds, (math.nan,), "need range size r >= 1"),
    (mi_upper_bound, (math.nan, 1.0), "need n >= 1"),
    (sq_vote_budget, (math.nan, 10), "need n >= 1 and T >= 1"),
    (sq_vote_budget, (100, math.nan), "need n >= 1 and T >= 1"),
    (median_params, (math.nan, [1, 1], [4, 4], 0.1), "need T >= 1"),
    (median_params, (2, [1, math.nan], [4, 4], 0.1), "every entry of w_list"),
    (median_params, (2, [1, 1], [math.nan, 4], 0.1), "every entry of r_sizes"),
], ids=["chi2-ysize", "alkl-general-ysize", "alkl-uniform-n", "alkl-uniform-w",
        "basic-ysize", "uniform-ysize", "hp-n", "hp-ysize", "sq-params-n", "sq-params-T",
        "search-rounds-r", "mi-n", "vote-budget-n", "vote-budget-T", "median-T",
        "median-w", "median-r"])
def test_closed_forms_refuse_a_nan_size(fn, args, words):
    # x < 1 is False for NaN, which would carry on to a NaN bound or cost
    with pytest.raises(ValueError, match=words):
        fn(*args)


class TestMiUpperBound:
    def test_empty(self):
        assert mi_upper_bound(50, BudgetLedger().total) == 0.0

    def test_single_charge(self):
        ledger = BudgetLedger()
        ledger.charge(0.0221)
        assert mi_upper_bound(100, ledger.total) == pytest.approx(2.21, abs=1e-12)

    def test_additivity(self):
        ledger = BudgetLedger()
        for _ in range(7):
            ledger.charge(0.125)
        assert mi_upper_bound(16, ledger.total) == pytest.approx(16 * 7 * 0.125,
                                                                 abs=1e-12)


class TestBudgetLedger:
    def test_expectation_mode_never_refuses(self):
        ledger = BudgetLedger("expectation", limit=1.0)
        ledger.charge(5.0)
        assert ledger.total == 5.0

    def test_almost_sure_refusal_leaves_state_unchanged(self):
        ledger = BudgetLedger("almost_sure", limit=1.0)
        ledger.charge(0.5)
        with pytest.raises(BudgetExhausted):
            ledger.charge(0.6)
        assert ledger.total == 0.5 and ledger.last == 0.5
        ledger.charge(0.5)  # exactly hits the limit
        assert ledger.total == 1.0

    def test_bad_mode(self):
        with pytest.raises(ValueError):
            BudgetLedger("sometimes")

    @pytest.mark.parametrize("amount", [math.nan, -0.5])
    def test_bad_charge_refused_and_refusals_still_work(self, amount):
        # a NaN total once made every later almost-sure check false
        ledger = BudgetLedger("almost_sure", 1.0)
        with pytest.raises(ValueError, match="charges must be nonnegative"):
            ledger.charge(amount)
        assert ledger.total == 0.0 and ledger.last == 0.0
        with pytest.raises(BudgetExhausted):
            ledger.charge(100.0)

    @pytest.mark.parametrize("limit", [math.nan, -1.0, -math.inf])
    def test_nan_or_negative_limit_rejected(self, limit):
        for mode in BudgetLedger.MODES:
            with pytest.raises(ValueError, match="limit must be nonnegative"):
                BudgetLedger(mode, limit)


class TestSquash:
    def test_clamp_cases(self):
        sq = squash(const(0.0), 0.1)
        assert sq.evaluator(0) == pytest.approx(0.1)
        sq = squash(const(1.0), 0.1)
        assert sq.evaluator(0) == pytest.approx(0.9)
        sq = squash(const(0.5), 0.3)
        assert sq.evaluator(0) == pytest.approx(0.5)

    def test_idempotent(self):
        gen = np.random.default_rng(3)
        vals = gen.random(50)
        q = TestQuery(1, lambda x: float(x), name="v",
                      batch=lambda a: a.astype(float))
        once = squash(q, 0.2)
        twice = squash(once, 0.2)
        arr = np.asarray(vals)
        assert np.allclose(once.batch(arr), twice.batch(arr), atol=1e-15)
        for v in vals[:10]:
            assert once.evaluator(v) == twice.evaluator(v)

    def test_monotone(self):
        lo = TestQuery(1, lambda x: 0.3 * float(x), name="lo")
        hi = TestQuery(1, lambda x: 0.3 * float(x) + 0.4, name="hi")
        slo, shi = squash(lo, 0.25), squash(hi, 0.25)
        for v in np.linspace(0, 1, 21):
            assert slo.evaluator(v) <= shi.evaluator(v) + 1e-15

    def test_domain(self):
        with pytest.raises(ValueError):
            squash(const(0.5), 0.5)


class TestSqParams:
    def test_desk_scale_values(self):
        p = sq_params(15000, 1000, 0.1, 0.1)
        assert p.epsilon == pytest.approx(math.log(20) / 15000, abs=1e-12)
        assert p.k == math.ceil(8 * math.log(40000) / 0.01)
        assert p.k == 8478
        assert p.advisory_min_n == math.ceil(
            math.sqrt(1000 * math.log(10000) * math.log(10)) / 0.01)

    def test_limit_case(self):
        p = sq_params(100, 1, 1 - 1e-12, 1 - 1e-12)
        assert p.k == 12  # ceil(8 ln 4)
        assert p.epsilon == pytest.approx(math.log(2) / 100, rel=1e-9)

    def test_epsilon_capped(self):
        assert sq_params(1, 1, 0.5, 0.1).epsilon == 0.49

    def test_domain(self):
        with pytest.raises(ValueError):
            sq_params(100, 10, 1.0, 0.1)
        with pytest.raises(ValueError):
            sq_params(100, 10, 0.5, 0.0)

    def test_vote_budget(self):
        assert sq_vote_budget(100, 400) == 5
        assert sq_vote_budget(3, 400) == 1


class TestSqSession:
    def test_votes_past_the_binomial_ceiling_are_refused(self):
        SqSession(Dataset([0, 1, 1, 0]), 0.1, SQ_MAX_VOTES, RandomSource(1), 0.2)
        with pytest.raises(ValueError, match=rf"1\.\.{SQ_MAX_VOTES} \(SQ_MAX_VOTES\), "
                                             rf"got {SQ_MAX_VOTES + 1}$"):
            SqSession(Dataset([0, 1, 1, 0]), 0.1, SQ_MAX_VOTES + 1, RandomSource(1), 0.2)

    def test_constant_zero_answers_zero(self):
        s = SqSession(Dataset([0, 1, 1]), 0.0, 25, RandomSource(1), 0.1)
        assert s.answer(const(0.0)) == 0.0
        assert s.answer(const(1.0)) == 1.0

    def test_large_k_concentrates(self):
        s = SqSession(Dataset([0, 1]), 0.0, 1_000_000, RandomSource(2), 0.1)
        assert abs(s.answer(const(0.5)) - 0.5) <= 0.002

    def test_squash_floor_shows_up(self):
        s = SqSession(Dataset([0, 1]), 0.1, 1_000_000, RandomSource(3), 0.1)
        assert abs(s.answer(const(0.0)) - 0.1) <= 0.002

    def test_answers_are_vote_fractions(self):
        s = SqSession(Dataset([0, 1, 1, 0]), 0.05, 37, RandomSource(4), 0.1)
        for _ in range(20):
            y = s.answer(IDENT)
            assert 0.0 <= y <= 1.0
            assert abs(round(y * 37) - y * 37) <= 1e-9

    def test_unbiased_against_squashed_sample_mean(self):
        S = Dataset([1, 1, 0, 0, 0])
        eps = 0.1
        target = float(np.mean(np.clip([1, 1, 0, 0, 0], eps, 1 - eps)))
        s = SqSession(S, eps, 10, RandomSource(5), 0.1)
        reps = 10_000
        answers = np.array([s.answer(IDENT) for _ in range(reps)])
        se = answers.std(ddof=1) / math.sqrt(reps)
        assert abs(answers.mean() - target) <= 4 * se

    def test_ledger_charges_per_vote_cost(self):
        S = Dataset([0, 1, 1, 0])
        s = SqSession(S, 0.02, 9, RandomSource(6), 0.2)
        charged = record_charges(s.ledger)
        s.answer(IDENT)
        s.answer(IDENT)
        want = 9 * cost_hp(4, 2, 0.02, 0.2)
        assert sq_answer_cost(4, 9, 0.02, 0.2) == want
        assert charged == [want] * 2
        assert s.ledger.total == pytest.approx(2 * want, rel=1e-12)

    def test_refusal_consumes_no_randomness(self):
        S = Dataset([0, 1, 1, 0])
        limit = 9 * cost_hp(4, 2, 0.0, 0.1) * 1.5  # room for one answer only
        a = SqSession(S, 0.0, 9, RandomSource(7), 0.1,
                      ledger=BudgetLedger("almost_sure", limit))
        first = a.answer(IDENT)
        with pytest.raises(BudgetExhausted):
            a.answer(IDENT)
        assert a.ledger.total == a.ledger.last == 9 * cost_hp(4, 2, 0.0, 0.1)
        # a fresh session on the same stream reproduces both answers,
        # so the refused call consumed nothing
        b = SqSession(S, 0.0, 9, RandomSource(7), 0.1)
        assert b.answer(IDENT) == first
        third = b.answer(IDENT)
        a.ledger.limit = math.inf
        assert a.answer(IDENT) == third

    @pytest.mark.parametrize("n,k,eps,delta", [
        (15000, 8478, 1.5e-4, 0.1), (4, 9, 0.02, 0.2), (7, 1, 0.0, 0.5),
        (1, 3, 0.49, 1e-9)])
    def test_each_answer_charges_sq_answer_cost_and_keeps_a_float_mean(
            self, n, k, eps, delta):
        # a bool-valued test (one count) and a float-valued one
        S = population_generators("uniform_pm1_cube", {"d": 3}).draw(n, RandomSource(n))
        coord = TestQuery(1, name="coord", batch=lambda arr: arr[:, 1] == 1)
        half = TestQuery(1, name="half", batch=lambda arr: (arr[:, 0] + 1) / 4.0)
        s = SqSession(S, eps, k, RandomSource(3), delta)
        charged = record_charges(s.ledger)
        for q in (coord, half, coord):
            s.answer(q)
            assert s.ledger.last == sq_answer_cost(n, k, eps, delta)
            assert type(s.sample_value) is float
            assert s.sample_value == float(q.values_on(S).mean())
        assert charged == [sq_answer_cost(n, k, eps, delta)] * 3


def binomial_pmf(k, p):
    return [math.comb(k, j) * p ** j * (1.0 - p) ** (k - j) for j in range(k + 1)]


def vote_sum_law(values, eps, k):
    """Law of the vote sum by enumerating every (index, coin) sequence of
    k votes: each vote picks index i with probability 1/n and comes up 1
    with the squashed value phi_eps(x_i)."""
    n = len(values)
    phi = squash(IDENT, eps).evaluator
    law = [0.0] * (k + 1)
    for seq in itertools.product(range(n), (0, 1), repeat=k):
        prob = 1.0
        for i, coin in zip(seq[::2], seq[1::2]):
            v = phi(values[i])
            prob *= (v if coin else 1.0 - v) / n
        law[sum(seq[1::2])] += prob
    return law


class TestSqExactLaw:
    """The k per-element votes are iid Bernoulli(phi_eps(S)), so the
    answer is Binomial(k, phi_eps(S)) / k, which the session draws."""

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(values=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4),
           k=st.integers(1, 3),
           eps=st.sampled_from([0.0, 0.001, 0.01, 0.1, 0.3, 0.45, 0.49]))
    @example(values=[0.0], k=3, eps=0.0)
    @example(values=[1.0, 0.0], k=2, eps=0.49)
    @example(values=[0.0, 0.2, 1.0], k=3, eps=0.1)
    @example(values=[0.05, 0.5, 0.95, 1.0], k=3, eps=0.3)
    @example(values=[1.0, 1.0, 1.0, 1.0], k=1, eps=0.01)
    def test_vote_sum_law_is_binomial(self, values, k, eps):
        phi = squash(IDENT, eps).evaluator
        p = float(np.mean([phi(v) for v in values]))
        law = vote_sum_law(values, eps, k)
        assert law == pytest.approx(binomial_pmf(k, p), abs=1e-12)
        # one vote is the arity-1 subsampling query x -> Bernoulli(phi_eps(x))
        vote = Query.randomized(1, (0, 1), lambda x: [1.0 - phi(x), phi(x)])
        one = exact_response_pmf(vote, Dataset(values)).masses
        assert list(one) == pytest.approx(binomial_pmf(1, p), abs=1e-12)

    @pytest.mark.parametrize("eps,seed", [(0.0, 8), (0.1, 9), (0.3, 10)])
    def test_answer_frequencies_match_binomial(self, eps, seed):
        values, k, reps = [0.0, 0.3, 1.0, 1.0], 3, 20_000
        s = SqSession(Dataset(values), eps, k, RandomSource(seed), 0.1)
        counts = np.bincount([round(s.answer(IDENT) * k) for _ in range(reps)],
                             minlength=k + 1)
        assert counts.size == k + 1
        p = float(np.mean(np.clip(values, eps, 1.0 - eps)))
        for c, m in zip(counts, binomial_pmf(k, p)):
            se = math.sqrt(max(m * (1.0 - m), 1e-9) / reps)
            assert abs(c / reps - m) <= 4 * se

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(values=st.lists(st.booleans(), min_size=1, max_size=300),
           eps=st.one_of(st.sampled_from([0.0, 0.01, 0.1, 0.49]),
                         st.floats(0.0, 0.5, exclude_max=True)))
    @example(values=[True] * 7, eps=0.49)
    @example(values=[False, True, True], eps=0.1)
    def test_bool_values_answer_from_their_count(self, values, eps):
        # a {0,1} test's answer law is fixed by its count of ones
        s = SqSession(Dataset([int(v) for v in values]), eps, 4, RandomSource(1), 0.1)
        drawn = []

        class Votes:  # records the binomial's parameter in place of a draw
            def binomial(self, k, p):
                drawn.append(p)
                return 0

        s._gen = Votes()
        s.answer(TestQuery(1, name="bool", batch=lambda a: a == 1))
        floats = np.array(values, dtype=float)
        assert s.sample_value == floats.mean()
        exact = Fraction(eps) + (1 - 2 * Fraction(eps)) * Fraction(sum(values), len(values))
        assert abs(Fraction(drawn[0]) - exact) <= 2 * Fraction(np.spacing(float(exact)))
        # numpy's mean of the clipped values rounds too: up to 7 ulp off the
        # exact value at these sizes
        want = np.clip(floats, eps, 1.0 - eps).mean()
        assert abs(drawn[0] - want) <= 8 * np.spacing(want)

    @pytest.mark.parametrize("eps,seed", [(0.0, 12), (0.1, 13), (0.3, 14)])
    def test_bool_answer_frequencies_match_binomial(self, eps, seed):
        values, k, reps = [0, 1, 1, 0, 1], 4, 20_000
        S = Dataset(values)
        s = SqSession(S, eps, k, RandomSource(seed), 0.1)
        q = TestQuery(1, name="bool", batch=lambda a: a == 1)
        counts = np.bincount([round(s.answer(q) * k) for _ in range(reps)],
                             minlength=k + 1)
        assert counts.size == k + 1
        # one vote's law, phi_eps(S), from exact enumeration of its subsets
        phi = squash(IDENT, eps).evaluator
        vote = Query.randomized(1, (0, 1), lambda x: [1.0 - phi(x), phi(x)])
        p = exact_response_pmf(vote, S).masses[1]
        for c, m in zip(counts, binomial_pmf(k, p)):
            se = math.sqrt(max(m * (1.0 - m), 1e-9) / reps)
            assert abs(c / reps - m) <= 4 * se

    def test_sample_value_is_the_unsquashed_mean(self):
        S = Dataset([0.0, 0.3, 1.0, 0.7, 0.01])
        s = SqSession(S, 0.2, 5, RandomSource(11), 0.1)
        assert math.isnan(s.sample_value)
        s.answer(IDENT)
        assert s.sample_value == float(IDENT.values_on(S).mean())


class TestApproximateMedianCheck:
    def test_point_mass(self):
        dist = ResponsePMF((5.0,), [1.0])
        assert approximate_median_check(dist, 5.0)

    def test_uniform_grid(self):
        dist = ResponsePMF(tuple(range(1, 11)), np.full(10, 0.1))
        assert approximate_median_check(dist, 5)      # 0.5 / 0.6
        assert not approximate_median_check(dist, 1)  # 0.1 below
        assert not approximate_median_check(dist, 10)

    def test_threshold_parameter(self):
        dist = ResponsePMF(tuple(range(1, 11)), np.full(10, 0.1))
        assert approximate_median_check(dist, 4, threshold=0.3)
        assert not approximate_median_check(dist, 4, threshold=0.45)


class TestSearchRounds:
    def test_values(self):
        assert search_rounds(1) == 0
        assert search_rounds(2) == 1
        assert search_rounds(5) == 3
        assert search_rounds(1024) == 10

    @pytest.mark.parametrize("r", [0, -3])
    def test_an_empty_or_negative_range_is_refused(self, r):
        # ceil(log2 r) is only asked for r > 1, so these used to read 0 rounds
        with pytest.raises(ValueError, match="need range size r >= 1"):
            search_rounds(r)

    def test_median_charges_all_rounds_when_search_stops_early(self, monkeypatch):
        # on a 5-value range a low answer reads 2 probes; 3 are drawn and charged
        shapes = record_draws(monkeypatch)
        q = max_query(1, 5)
        s = MedianSession(Dataset(np.zeros(12)), 4, RandomSource(3), noise=False)
        assert s.answer(q) == 0.0
        assert shapes == [(search_rounds(5) * s.k, 1)] == [(3 * 4, 1)]
        assert s.ledger.total == pytest.approx(
            3 * sum(s._vote_cost(1, len(g)) for g in s.groups), rel=1e-12)


class TestMedianParams:
    def test_small_case(self):
        p = median_params(1, [1], [2], 0.5)
        assert p.k == 12  # max(2, ceil(8 ln 4))

    def test_single_value_range_floors_at_two(self):
        assert median_params(1, [1], [1], 1 - 1e-12).k == 2

    def test_documented_case(self):
        p = median_params(100, [1] * 100, [1024] * 100, 0.05)
        assert p.k == 85

    def test_advisory_uses_arity_profile(self):
        p = median_params(2, [4, 1], [64, 64], 0.1)
        assert p.advisory_min_n == math.ceil(p.k * math.sqrt(4 * 5))

    def test_domain(self):
        with pytest.raises(ValueError):
            median_params(2, [1], [2, 2], 0.1)
        with pytest.raises(ValueError):
            median_params(1, [1], [2], 1.5)


class TestMedianSession:
    def test_singleton_range_returns_it_without_rounds(self):
        q = Query.deterministic(1, (5.0,), lambda x: 5.0, name="c")
        s = MedianSession(Dataset(np.zeros(10)), 3, RandomSource(1))
        assert s.answer(q) == 5.0
        assert s.ledger.total == 0.0

    def test_constant_no_noise_isolates_floor_cell(self):
        grid = tuple(float(v) for v in range(1, 11))
        for c in (1.0, 5.0, 10.0):
            q = Query.deterministic(2, grid, lambda *xs, _c=c: _c, name="c")
            s = MedianSession(Dataset(np.zeros(40)), 8, RandomSource(2),
                              noise=False)
            assert s.answer(q) == c

    def test_round_count_is_log2_of_range(self, monkeypatch):
        # one draw per answer holds every charged probe: ceil(log2 10) = 4
        shapes = record_draws(monkeypatch)
        q = max_query(1, 10)
        s = MedianSession(Dataset(np.full(60, 4.4)), 6, RandomSource(3),
                          noise=False)
        charged = record_charges(s.ledger)
        assert s.answer(q) == 4.0
        assert shapes == [(search_rounds(10) * s.k, 1)] == [(4 * 6, 1)]
        assert charged == [4 * s._probe_charge(1)]

    def test_with_noise_constant_query_mostly_correct(self):
        # k = 12 groups of 20, flip probability 1/20 = 0.05
        grid = tuple(float(v) for v in range(1, 11))
        q = Query.deterministic(1, grid, lambda x: 4.0, name="c4")
        hits = 0
        runs = 200
        for i in range(runs):
            s = MedianSession(Dataset(np.zeros(240)), 12, RandomSource(100 + i))
            hits += s.answer(q) == 4.0
        assert hits >= 190

    def test_group_partition(self):
        s = MedianSession(Dataset(np.arange(11)), 3, RandomSource(4))
        sizes = [len(g) for g in s.groups]
        assert sorted(sizes) == [3, 4, 4]
        assert sum(sizes) == 11
        joined = [s.dataset[i] for g in s.groups for i in g]
        assert joined == list(range(11))

    @pytest.mark.parametrize("noise,randomized", [(True, False), (False, True)])
    def test_probe_vote_count_law_is_poisson_binomial(self, noise, randomized):
        # groups of 5, 4 and 4: the one draw mixes two group sizes; each
        # probe row of an answer's draw has the Poisson-binomial count law,
        # and the two rows are independent
        S = Dataset([0.0, 2.0, 1.0, 3.0, 1.0, 2.0, 0.0, 3.0, 3.0, 1.0, 0.0, 2.0, 2.0])
        grid = (0.0, 1.0, 2.0, 3.0)
        if randomized:
            q = Query.randomized(2, grid, lambda a, b: [0.02, 0.03, 0.05, 0.9]
                                 if a + b >= 3 else [0.6, 0.3, 0.05, 0.05], name="r")
        else:
            q = Query.deterministic(2, grid, lambda a, b: max(a, b), name="max")
        r, reps = 2, 10_000  # the threshold outputs[2] = 2.0
        s = MedianSession(S, 3, RandomSource(31), noise=noise)
        law = np.array([1.0])
        for g in s.groups:
            above = exact_response_pmf(q, Dataset([S[i] for i in g])).prob_ge(grid[r])
            flip = q.arity / len(g) if noise else 0.0
            p = above * (1.0 - flip) + (1.0 - above) * flip
            law = np.convolve(law, [1.0 - p, p])
        counts = []
        for _ in range(reps):
            idx, flips = s._draw_probes(q, search_rounds(len(grid)))
            assert idx.shape == flips.shape == (2, s.k)
            assert noise or not flips.any()
            counts.append(np.count_nonzero((idx >= r) ^ flips, axis=1))
        counts = np.array(counts)
        for row in counts.T:
            assert_frequencies_match(row, range(s.k + 1), law)
        assert_frequencies_match(counts[:, 0] * (s.k + 1) + counts[:, 1],
                                 range((s.k + 1) ** 2), np.outer(law, law).ravel())

    @pytest.mark.parametrize("kind,noise,ysize,w,draws", [
        ("max", True, 5, 2, [(6, 2), (3, 2)]),  # n = 13 holds 2 probes of 6
        ("max", False, 4, 2, [(6, 2)]),
        ("spread", True, 4, 1, [(6, 1)]),
    ])
    def test_answer_law_is_the_search_tree_law(self, monkeypatch, kind, noise,
                                               ysize, w, draws):
        q = (max_query if kind == "max" else spread_query)(w, ysize)
        s = MedianSession(MIXED_SAMPLE, 3, RandomSource(41), noise=noise)
        assert sorted(len(g) for g in s.groups) == [4, 4, 5]
        law = median_answer_law(s, q)
        assert law.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.count_nonzero(law > 0.01) >= 2  # the check sees a spread law
        shapes = record_draws(monkeypatch)
        reps = 20_000
        assert_frequencies_match([s.answer(q) for _ in range(reps)], q.outputs, law)
        assert shapes == draws * reps
        assert s.ledger.total == pytest.approx(
            reps * search_rounds(ysize) * s._probe_charge(w), rel=1e-9)

    def test_no_draw_holds_more_than_n_positions(self, monkeypatch):
        # 8 groups of 5 and w = 4: one probe holds 32 of the n = 40
        # positions, so the 3 probes of |Y| = 8 come in 3 draws
        S = Dataset(np.resize([0.0, 3.0, 5.0, 1.0, 7.0, 2.0, 6.0], 40))
        q = max_query(4, 8)
        s = MedianSession(S, 8, RandomSource(43))
        rounds = search_rounds(8)
        assert rounds * s.k * q.arity > len(S)
        law = median_answer_law(s, q)
        assert np.count_nonzero(law > 0.01) >= 2
        shapes = record_draws(monkeypatch)
        reps = 5_000
        answers = [s.answer(q) for _ in range(reps)]
        assert shapes == [(s.k, q.arity)] * (rounds * reps)
        assert max(rows * w for rows, w in shapes) <= len(S)
        assert_frequencies_match(answers, q.outputs, law)

    @pytest.mark.parametrize("noise", [True, False])
    def test_batch_keeps_transcript_and_stream(self, noise):
        # a non-dyadic grid, where many subsample sums round
        pop = population_generators("discretized_gaussian", {
            "lo": -3.0, "hi": 3.0, "points": 101, "mu": 0.3, "sigma": 0.9})
        S = pop.draw(400, RandomSource(9))
        analyst = ShiftingMeanAnalyst(T=16, w_max=4, r_cells=40, r_step=0.7)
        runs = []
        for batched in (True, False):
            s = MedianSession(S, 9, RandomSource(10), noise=noise)
            charged = record_charges(s.ledger)
            responses = []
            for t in range(1, analyst.rounds + 1):
                q = analyst.next_query(t, tuple(responses))
                assert q.batch is not None
                if not batched:
                    q = scalar_grid_mean(q)  # fsum and the scalar cell rule
                responses.append(s.answer(q))
            runs.append((responses, charged, s._gen.bit_generator.state))
        (*batched, state), (*scalar, scalar_state) = runs
        assert batched == scalar  # the same responses and ledger charges
        np.testing.assert_equal(state, scalar_state)  # no draw added or removed

    def test_costs_charged_per_round_and_group(self):
        grid = tuple(float(v) for v in range(4))
        q = Query.deterministic(2, grid, lambda *xs: 1.0, name="c")
        s = MedianSession(Dataset(np.zeros(20)), 4, RandomSource(5))
        s.answer(q)
        per_group = cost_uniform(5, 2, 2, 2 / 5)
        assert s.ledger.total == pytest.approx(2 * 4 * per_group, rel=1e-12)

    def test_arity_larger_than_group_rejected(self):
        q = Query.deterministic(6, (0.0, 1.0), lambda *xs: 0.0, name="big")
        s = MedianSession(Dataset(np.zeros(10)), 3, RandomSource(6))
        with pytest.raises(ValueError):
            s.answer(q)

    def test_arity_equal_to_smallest_group_rejected(self):
        # groups of 4, 3 and 3: a vote's cost needs w below its group size
        q = Query.deterministic(3, (0.0, 1.0), lambda *xs: 0.0, name="big")
        s = MedianSession(Dataset(np.zeros(10)), 3, RandomSource(6))
        with pytest.raises(ValueError, match="smallest group size 3"):
            s.answer(q)
        assert s.ledger.total == 0.0 and s.ledger.last == 0.0

    def test_probe_charge_computed_once_per_arity(self, monkeypatch):
        import adasub.mechanisms as mech
        calls = []

        def counting(*args):
            calls.append(args)
            return cost_uniform(*args)

        monkeypatch.setattr(mech, "cost_uniform", counting)
        grid = tuple(float(v) for v in range(8))
        s = MedianSession(Dataset(np.arange(23.0)), 5, RandomSource(8))
        charged = record_charges(s.ledger)
        for w in (1, 2, 1, 2, 2):
            s.answer(Query.deterministic(w, grid, lambda *xs: 3.0, name=f"w{w}"))
        # one call per distinct group size (5 and 4) per arity
        assert len(calls) == 2 * len({len(g) for g in s.groups}) == 4
        assert len(charged) == 5
        for w, amount in zip((1, 2, 1, 2, 2), charged):
            # bit-identical to summing the groups' vote costs afresh
            assert amount == 3 * sum(cost_uniform(len(g), w, 2, w / len(g))
                                     for g in s.groups)

    def test_refusal_before_any_round(self):
        grid = tuple(float(v) for v in range(8))
        q = Query.deterministic(1, grid, lambda x: 3.0, name="c")
        s = MedianSession(Dataset(np.zeros(12)), 3, RandomSource(7),
                          ledger=BudgetLedger("almost_sure", 1e-9))
        with pytest.raises(BudgetExhausted):
            s.answer(q)
        assert s.ledger.total == 0.0 and s.ledger.last == 0.0
        # stream untouched: same answers as a fresh session
        fresh = MedianSession(Dataset(np.zeros(12)), 3, RandomSource(7))
        s.ledger.limit = math.inf
        assert s.answer(q) == fresh.answer(q)

    @pytest.mark.parametrize("outputs", [
        (math.nan, 1.0, 2.0), (0.0, math.nan, 2.0), (0.0, 1.0, math.nan)])
    def test_nan_in_range_rejected_before_the_charge(self, outputs):
        q = Query.deterministic(1, outputs, lambda x: 0.0, name="nan")
        s = MedianSession(Dataset(np.zeros(12)), 3, RandomSource(9))
        state = s._gen.bit_generator.state
        with pytest.raises(ValueError, match="strictly increasing"):
            s.answer(q)
        assert s.ledger.total == 0.0 and s.ledger.last == 0.0
        np.testing.assert_equal(s._gen.bit_generator.state, state)

    def test_vector_range_rejected_before_the_charge(self):
        # a range of pairs increases in each coordinate but is not real
        q = Query.deterministic(1, ((0.0, 1.0), (1.0, 2.0)), lambda x: (0.0, 1.0),
                                name="pairs")
        s = MedianSession(Dataset(np.zeros(12)), 3, RandomSource(9))
        with pytest.raises(ValueError, match="strictly increasing real range"):
            s.answer(q)
        assert s.ledger.total == 0.0

    def test_unsorted_range_rejected(self):
        q = Query.deterministic(1, (2.0, 1.0), lambda x: 1.0, name="c")
        s = MedianSession(Dataset(np.zeros(4)), 2, RandomSource(8))
        with pytest.raises(ValueError):
            s.answer(q)

    def test_refused_range_is_refused_on_every_call(self):
        # a range that fails its check is never kept as checked
        q = Query.deterministic(1, (0.0, math.nan, 2.0), lambda x: 0.0, name="nan")
        s = MedianSession(Dataset(np.zeros(12)), 3, RandomSource(9))
        state = s._gen.bit_generator.state
        for _ in range(2):
            with pytest.raises(ValueError, match="strictly increasing real range"):
                s.answer(q)
            assert s.ledger.total == 0.0 and s.ledger.last == 0.0
            np.testing.assert_equal(s._gen.bit_generator.state, state)

    def test_range_of_arrays_is_a_value_error(self):
        # an unhashable range is checked on every call, not looked up
        pairs = (np.array([0.0, 1.0]), np.array([1.0, 2.0]))
        q = Query.deterministic(1, pairs, lambda x: pairs[0], name="arrays")
        s = MedianSession(Dataset(np.zeros(12)), 3, RandomSource(9))
        for _ in range(2):
            with pytest.raises(ValueError, match="strictly increasing real range"):
                s.answer(q)
        assert s.ledger.total == 0.0

    def test_new_range_after_a_checked_one_is_checked_anew(self):
        s = MedianSession(Dataset(np.zeros(12)), 3, RandomSource(9), noise=False)
        good = Query.deterministic(1, (0.0, 1.0, 2.0), lambda x: 0.0, name="good")
        assert s.answer(good) == 0.0
        charged = s.ledger.total
        for outputs in ((2.0, 1.0, 0.0), (0.0, 1.0, math.nan), (0.0, 1.0, 1.0)):
            q = Query.deterministic(1, outputs, lambda x: 0.0, name="bad")
            with pytest.raises(ValueError, match="strictly increasing real range"):
                s.answer(q)
        assert s.ledger.total == charged
        assert s.answer(good) == 0.0  # the checked range still answers

    @pytest.mark.parametrize("noise", [True, False])
    def test_probe_charge_is_the_per_group_sum(self, noise):
        # groups of 11, 11, 11, 10 and 10: two distinct sizes
        s = MedianSession(Dataset(np.zeros(53)), 5, RandomSource(9), noise=noise)
        assert s.k == len(s.groups) == 5
        assert {len(g) for g in s.groups} == {10, 11}
        for w in range(1, 5):
            assert s._probe_charge(w) == sum(s._vote_cost(w, len(g)) for g in s.groups)


class TestThreshold:
    def test_sq_accuracy_threshold(self):
        assert sq_accuracy_threshold(0.5, 0.1) == pytest.approx(0.05)
        assert sq_accuracy_threshold(0.0, 0.1) == pytest.approx(0.01)
        assert sq_accuracy_threshold(0.9, 0.2) \
            == pytest.approx(max(0.2 * math.sqrt(0.09), 0.04))
