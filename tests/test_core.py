
import dataclasses
import itertools
import math

import numpy as np
import pytest

import adasub.core as core
from adasub.core import (
    Dataset,
    EnumerationCapExceeded,
    GroundTruth,
    Query,
    TestQuery,
    error_metric,
    error_value,
    population_blocks,
    position_blocks,
    query_expectation_on_population,
    query_expectation_on_sample,
    variance_on_population,
)
from adasub.divergence import sample_exceeds_mean_exact
from adasub.engine import exact_response_pmf, population_response_pmf

IDENTITY = TestQuery(1, lambda x: float(x), name="identity")
PAIR_SUM = TestQuery(2, lambda a, b: float(a + b) / 2, name="halfpairsum")


def bernoulli(p):
    return GroundTruth((0, 1), np.array([1.0 - p, p]))


def walk(S, w, iid=False):
    """The element tuples of every row that ``position_blocks`` yields."""
    return [sub for pos in position_blocks(len(S), w, iid) for sub in S.subsamples(pos)]


def iid_rows(D, w):
    """(weight, support indices) of every row that ``population_blocks`` yields."""
    return [(m, tuple(row)) for weights, pos in population_blocks(D, w)
            for m, row in zip(weights.tolist(), pos.tolist())]


class TestDataset:
    def test_indexing_and_length(self):
        S = Dataset([3, 1, 4, 1, 5])
        assert len(S) == 5
        assert S[0] == 3 and S[3] == 1
        assert list(S) == [3, 1, 4, 1, 5]

    def test_leave_one_out(self):
        S = Dataset([1, 0, 0])
        assert list(S.leave_one_out(0)) == [0, 0]
        assert list(S.leave_one_out(2)) == [1, 0]
        with pytest.raises(IndexError):
            S.leave_one_out(3)

    def test_vector_elements_come_back_as_tuples(self):
        S = Dataset([(1, -1), (-1, 1)])
        assert S[0] == (1, -1)
        assert S.array.shape == (2, 2)

    def test_array_is_immutable(self):
        S = Dataset([1, 2, 3])
        with pytest.raises(ValueError):
            S.array[0] = 9

    def test_callers_array_is_copied(self):
        arr = np.array([1, 2, 3])
        S = Dataset(arr)
        arr[0] = 9
        assert S[0] == 1 and arr.flags.writeable
        assert Dataset(S).array is not S.array

    def test_adopt_keeps_the_array_read_only(self):
        arr = np.array([[1, -1], [-1, 1]], dtype=np.int8)
        S = Dataset.adopt(arr)
        assert S.array is arr and not arr.flags.writeable
        assert S[1] == (-1, 1)
        with pytest.raises(ValueError):
            Dataset.adopt(np.zeros((0,)))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Dataset([])


class TestEnumerators:
    def test_position_subsets_are_ascending_position_tuples(self):
        S = Dataset([5, 6, 7, 8])
        assert walk(S, 2) == [
            (5, 6), (5, 7), (5, 8), (6, 7), (6, 8), (7, 8)]
        for n in range(1, 7):
            S = Dataset(list(range(10, 10 + n)))
            for w in range(1, n + 1):
                subs = walk(S, w)
                assert len(subs) == math.comb(n, w)
                assert all(list(sub) == sorted(sub) for sub in subs)
                assert len(set(subs)) == len(subs)

    @pytest.mark.parametrize("block", [1, 3, 7, 1 << 15])
    @pytest.mark.parametrize("elements", [
        [4, 1, 1, 9, 0, 7, 2],
        [[1, -1], [-1, -1], [1, 1], [-1, 1], [1, -1], [0, 0], [1, 0]],
        [0.5, 0.25, 0.5, 1.0, 0.0, 0.75, 0.125],
    ])
    def test_position_subsets_keep_order_across_blocks(self, monkeypatch,
                                                       block, elements):
        monkeypatch.setattr(core, "SUBSET_BLOCK", block)
        S = Dataset(elements)
        for w in range(1, len(S) + 1):
            want = [tuple(S[p] for p in combo)
                    for combo in itertools.combinations(range(len(S)), w)]
            got = walk(S, w)
            assert got == want
            assert [type(x) for sub in got for x in sub] \
                == [type(x) for sub in want for x in sub]
            blocks = list(position_blocks(len(S), w))
            assert all(0 < len(b) <= block for b in blocks)
            assert sum(len(b) for b in blocks) == math.comb(len(S), w)
        for w in range(1, 4):  # the ordered w-tuples, as iid draws walk them
            assert walk(S, w, iid=True) == [
                tuple(S[p] for p in idx)
                for idx in itertools.product(range(len(S)), repeat=w)]
            blocks = list(position_blocks(len(S), w, iid=True))
            assert all(0 < len(b) <= block for b in blocks)
            assert sum(len(b) for b in blocks) == len(S) ** w

    def test_iid_draws_masses_sum_to_one_without_zero_mass(self):
        D = GroundTruth((0, 1, 2), np.array([0.25, 0.75, 0.0]))
        draws = iid_rows(D, 2)
        assert [d for _, d in draws] == [(0, 0), (0, 1), (1, 0), (1, 1)]
        assert [m for m, _ in draws] == [0.0625, 0.1875, 0.1875, 0.5625]
        assert sum(m for m, _ in iid_rows(D, 3)) == pytest.approx(1.0, abs=1e-15)
        assert all(2 not in d for _, d in iid_rows(D, 3))
        # each weight is the product of the row's masses, left to right
        D = GroundTruth(tuple(range(6)), np.append(
            np.random.default_rng(3).dirichlet(np.ones(5)), 0.0))
        for w in range(1, 5):
            want = [(math.prod(D.masses[i] for i in idx), idx)
                    for idx in itertools.product(range(6), repeat=w)]
            assert iid_rows(D, w) == [(m, idx) for m, idx in want if m != 0.0]


class TestGroundTruth:
    def test_valid(self):
        gt = bernoulli(0.3)
        assert gt.support == (0, 1)
        assert gt.masses[1] == pytest.approx(0.3)
        assert 7 not in gt.support

    @pytest.mark.parametrize("masses", [[0.5, 0.6], [0.5, 0.4], [-0.1, 1.1]])
    def test_bad_masses(self, masses):
        with pytest.raises(ValueError):
            GroundTruth((0, 1), np.array(masses))

    def test_duplicate_support(self):
        with pytest.raises(ValueError):
            GroundTruth((0, 0), np.array([0.5, 0.5]))

    def test_callers_masses_stay_writable(self):
        masses = np.array([0.5, 0.5])
        gt = GroundTruth((0, 1), masses)
        masses[0] = 0.25  # once raised: the read-only flag was set on this array
        assert gt.masses.tolist() == [0.5, 0.5] and not gt.masses.flags.writeable

    @pytest.mark.parametrize("masses", [[math.nan, math.nan], [math.nan, 1.0],
                                        [math.inf, 0.0]])
    def test_non_finite_masses(self, masses):
        with pytest.raises(ValueError, match="finite"):
            GroundTruth((0, 1), np.array(masses))


class TestSampleExpectation:
    def test_identity_mean(self):
        # arithmetic mean for w = 1
        assert query_expectation_on_sample(IDENTITY, Dataset([1, 0, 0])) \
            == pytest.approx(1 / 3, abs=1e-15)

    def test_pair_query_enumerates_all_pairs(self):
        # sums over the 6 position pairs of [1,1,0,0] are 2,1,1,1,1,0
        q = TestQuery(2, lambda a, b: float(a + b) / 2, name="pairsum")
        got = query_expectation_on_sample(q, Dataset([1, 1, 0, 0]))
        assert got == pytest.approx(0.5, abs=1e-15)  # mean sum 1.0, halved

    def test_real_valued_query_pair_sum(self):
        q = Query.deterministic(2, (0, 1, 2), lambda a, b: a + b, name="sum")
        got = query_expectation_on_sample(q, Dataset([1, 1, 0, 0]))
        assert got == pytest.approx(1.0, abs=1e-15)

    def test_constant(self):
        q = TestQuery(1, lambda x: 0.7, name="c")
        assert query_expectation_on_sample(q, Dataset([5, 6])) == 0.7

    def test_w1_matches_direct_loop(self):
        gen = np.random.default_rng(7)
        for _ in range(25):
            vals = gen.random(int(gen.integers(1, 12)))
            S = Dataset(vals)
            got = query_expectation_on_sample(IDENTITY, S)
            direct = sum(float(x) for x in S) / len(S)
            assert abs(got - direct) <= 1e-12

    def test_arity_exceeds_sample(self):
        with pytest.raises(ValueError):
            query_expectation_on_sample(PAIR_SUM, Dataset([1]))

    def test_cap_exceeded_raises(self, monkeypatch):
        S = Dataset(np.arange(40) % 2)
        q = TestQuery(4, lambda *xs: float(sum(xs)) / 4, name="mean4")
        monkeypatch.setattr(core, "ENUM_CAP", 100)
        with pytest.raises(EnumerationCapExceeded):
            query_expectation_on_sample(q, S)

    def test_range_violation_raises(self):
        bad = TestQuery(1, lambda x: 1.5, name="bad")
        with pytest.raises(ValueError):
            query_expectation_on_sample(bad, Dataset([0, 1]))


class TestPopulationExpectation:
    def test_identity_bernoulli(self):
        assert query_expectation_on_population(IDENTITY, bernoulli(0.3)) \
            == pytest.approx(0.3, abs=1e-15)

    def test_match_indicator_uniform(self):
        # 4 ordered pairs, two of them equal
        q = TestQuery(2, lambda a, b: 1.0 if a == b else 0.0, name="match")
        got = query_expectation_on_population(q, bernoulli(0.5))
        assert got == pytest.approx(0.5, abs=1e-15)

    def test_constant_zero(self):
        q = TestQuery(1, lambda x: 0.0, name="z")
        assert query_expectation_on_population(q, bernoulli(0.2)) == 0.0

    def test_zero_mass_points_reach_no_evaluator(self):
        D = GroundTruth((0.0, 0.5, 1.0), np.array([0.25, 0.0, 0.75]))
        seen = []

        def batch(arr):
            seen.extend(arr.tolist())
            return arr.astype(float)

        def pair_mean(a, b):
            seen.extend((a, b))
            return (a + b) / 2

        for psi in (TestQuery(1, batch=batch), TestQuery(2, pair_mean)):
            seen.clear()
            assert query_expectation_on_population(psi, D) == 0.75
            assert seen and 0.5 not in seen


class TestErrorMetric:
    def test_zero_when_sample_matches_population(self):
        S = Dataset([1, 1, 0, 0, 0, 0, 0, 0, 0, 0])  # mean 0.2
        assert error_metric(IDENTITY, S, bernoulli(0.2)) == pytest.approx(0.0, abs=1e-15)

    def test_formula_cases(self):
        assert error_value(0.1, 0.25, 1) == pytest.approx(0.04, abs=1e-15)
        assert error_value(0.3, 0.01, 2) == pytest.approx(0.15, abs=1e-15)

    def test_end_to_end_matches_formula_case(self):
        # identity on Bernoulli(1/2): Var = 1/4; sample mean 0.6 gives
        # Delta = 0.1 and error min(0.1, 0.04) = 0.04
        S = Dataset([1, 1, 1, 0, 0])
        got = error_metric(IDENTITY, S, bernoulli(0.5))
        assert got == pytest.approx(0.04, abs=1e-12)

    def test_zero_variance_uses_delta_branch(self):
        q = TestQuery(1, lambda x: 0.7, name="c")
        S = Dataset([0, 1])
        assert error_metric(q, S, bernoulli(0.3)) == pytest.approx(0.0, abs=1e-15)
        assert error_value(0.25, 0.0, 1) == 0.25

    @pytest.mark.parametrize("var", [0.0, 0.5])
    @pytest.mark.parametrize("w", [0, -1])
    def test_arity_below_one_refused(self, var, w):
        with pytest.raises(ValueError, match="need arity w >= 1"):
            error_value(0.1, var, w)

    def test_depends_on_delta_only_through_absolute_value(self):
        assert error_value(0.1, 0.2, 1) == error_value(-0.1, 0.2, 1)

    def test_dominated_by_both_branches(self):
        gen = np.random.default_rng(5)
        for _ in range(200):
            delta = float(gen.random())
            var = float(gen.random()) + 1e-6
            w = int(gen.integers(1, 4))
            e = error_value(delta, var, w)
            assert e <= delta / w + 1e-15
            assert e <= delta * delta / (w * var) + 1e-15
            assert 0.0 <= e <= 1.0 / w + 1e-15

    def test_variance_on_population(self):
        assert variance_on_population(IDENTITY, bernoulli(0.5)) \
            == pytest.approx(0.25, abs=1e-15)

    def test_variance_walks_the_draws_once(self):
        calls = []

        def ev(a, b):
            calls.append((a, b))
            return (a + 2 * b) / 6

        psi = TestQuery(2, ev, name="weighted")
        gt = GroundTruth((0, 1, 2), np.array([0.1, 0.3, 0.6]))
        var = variance_on_population(psi, gt)
        assert len(calls) == 3 ** 2
        # the two-pass value: E[psi] over the draws, then E[psi^2] over them again
        draws = [(math.prod(gt.masses[i] for i in idx), tuple(gt.support[i] for i in idx))
                 for idx in itertools.product(range(3), repeat=2)]
        e1 = 0.0
        for m, d in draws:
            e1 += m * ev(*d)
        e2 = 0.0
        for m, d in draws:
            v = ev(*d)
            e2 += m * (v * v)
        assert var == max(0.0, e2 - e1 * e1) and var > 0


class TestEnumerationCap:
    """Each exact enumeration counts its own rows against core.ENUM_CAP:
    it runs at a cap equal to that count and refuses one below it."""

    @pytest.mark.parametrize("count,walk", [
        (math.comb(6, 2),  # C(n, w) subsets of S
         lambda: query_expectation_on_sample(PAIR_SUM, Dataset([1, 0, 0, 1, 1, 0]))),
        (3 ** 2,  # |support|^w iid draws
         lambda: variance_on_population(
             PAIR_SUM, GroundTruth((0, 0.5, 1), np.full(3, 1 / 3)))),
        (math.comb(5, 2) * 3,  # C(n, w) subsets times |Y| outputs
         lambda: exact_response_pmf(
             Query.deterministic(2, (0, 1, 2), lambda a, b: a + b),
             Dataset([1, 0, 0, 1, 0]))),
        (3 ** 2 * 5,  # |support|^w draws times |Y| outputs
         lambda: population_response_pmf(
             Query.deterministic(2, (0, 1, 2, 3, 4), lambda a, b: a + b),
             GroundTruth((0, 1, 2), np.full(3, 1 / 3)))),
        (math.comb(8, 3),  # C(|S|, n) count vectors when all values differ
         lambda: sample_exceeds_mean_exact([i / 7 for i in range(8)], 3)),
        (4,  # count vectors (k0, k1) with k0 + k1 = 3, of four 0s and four 1s
         lambda: sample_exceeds_mean_exact([0, 1] * 4, 3)),
    ])
    def test_cap_counts_rows(self, monkeypatch, count, walk):
        monkeypatch.setattr(core, "ENUM_CAP", count)
        walk()
        monkeypatch.setattr(core, "ENUM_CAP", count - 1)
        with pytest.raises(EnumerationCapExceeded, match=f"= {count} rows"):
            walk()


class TestQueryType:
    def test_exactly_one_evaluation_form(self):
        with pytest.raises(ValueError):
            Query(1, (0, 1))
        with pytest.raises(ValueError):
            Query(1, (0, 1), evaluator=lambda x: x, dist_evaluator=lambda x: [0.5, 0.5])

    def test_output_outside_range_rejected(self):
        q = Query.deterministic(1, (0, 1), lambda x: 2)
        with pytest.raises(ValueError):
            q.output_pmf((5,))

    def test_randomized_pmf_validated(self):
        q = Query.randomized(1, (0, 1), lambda x: [0.7, 0.7])
        with pytest.raises(ValueError):
            q.output_pmf((0,))

    @pytest.mark.parametrize("law", [[math.nan, 1.0], [math.inf, 1.0],
                                     [1.5, -0.5]])
    def test_randomized_pmf_must_be_a_law(self, law):
        # a NaN mass once passed: NaN compares false with both bounds
        q = Query.randomized(1, (0, 1), lambda x: law)
        with pytest.raises(ValueError, match="masses must be"):
            q.output_pmf((0,))

    def test_mean_output(self):
        q = Query.randomized(1, (0, 1, 2), lambda x: [0.2, 0.3, 0.5])
        assert query_expectation_on_sample(q, Dataset([None])) \
            == pytest.approx(1.3, abs=1e-15)
        assert query_expectation_on_population(q, GroundTruth((None,), [1.0])) \
            == pytest.approx(1.3, abs=1e-15)

    def test_batch_only_query_derives_its_evaluator(self):
        # the index of (a + b) mod 3 into three labels
        q = Query(2, ("r0", "r1", "r2"), batch=lambda arr: arr.sum(axis=1) % 3)
        for a, b in itertools.product(range(4), repeat=2):
            assert q.evaluator(a, b) == q.outputs[q.batch(np.array([[a, b]]))[0]]
            assert q.evaluator(a, b) == f"r{(a + b) % 3}"
        assert q.output_pmf((1, 1)).tolist() == [0.0, 0.0, 1.0]
        S = Dataset([0, 1, 2, 5])
        # the batch path and the derived evaluator's loop give one law
        looped = dataclasses.replace(q, batch=None)
        assert looped.batch is None and looped.evaluator is q.evaluator
        assert np.array_equal(exact_response_pmf(q, S).masses,
                              exact_response_pmf(looped, S).masses)
        assert exact_response_pmf(q, S).masses.tolist() == [2 / 6, 2 / 6, 2 / 6]

    def test_batch_only_test_derives_its_evaluator(self):
        psi = TestQuery(1, batch=lambda arr: arr.astype(float) / 4, name="quarter")
        for x in range(5):
            assert psi.evaluator(x) == psi.batch(np.array([x]))[0] == x / 4
            assert type(psi.evaluator(x)) is float
        D = GroundTruth((0, 4), np.array([0.5, 0.5]))
        assert query_expectation_on_population(psi, D) == 0.5
        coord = TestQuery(1, batch=lambda arr: (arr[:, 1] == 1).astype(float))
        assert [coord.evaluator(x) for x in ((1, -1), (-1, 1))] == [0.0, 1.0]

    def test_bool_batch_values_stay_bool_and_float_values_are_checked(self):
        S = Dataset([0, 1, 1])
        coord = TestQuery(1, batch=lambda arr: arr == 1)
        assert coord.values_on(S).dtype == bool
        assert coord.values_on(S).tolist() == [False, True, True]
        assert [coord.evaluator(x) for x in (0, 1)] == [0.0, 1.0]
        assert query_expectation_on_sample(coord, S) == 2 / 3
        D = GroundTruth((0, 1), np.array([0.25, 0.75]))
        assert variance_on_population(coord, D) == 0.75 - 0.75 ** 2
        with pytest.raises(ValueError, match="wrong-shaped"):
            TestQuery(1, batch=lambda arr: np.ones(len(arr) + 1, dtype=bool)).values_on(S)
        with pytest.raises(ValueError, match="outside"):
            TestQuery(1, batch=lambda arr: arr * 2, name="twice").values_on(S)

    @pytest.mark.parametrize("index", [
        lambda m: np.full(m, -1),  # would wrap to the last output unchecked
        lambda m: np.full(m, 2),
        lambda m: np.zeros(m),  # not integers
        lambda m: np.zeros(m + 1, dtype=int),  # not one per row
    ])
    def test_batch_only_evaluator_checks_its_index(self, index):
        q = Query(1, ("a", "b"), batch=lambda arr: index(len(arr)))
        with pytest.raises(ValueError, match="batch evaluator"):
            q.evaluator(0)
        with pytest.raises(ValueError, match="batch evaluator"):
            q.output_pmf((0,))
        with pytest.raises(ValueError, match="batch evaluator"):
            q.output_indices(Dataset([0, 1]), np.array([[0], [1]]))

    def test_batch_needs_the_deterministic_form_alone(self):
        batch = lambda arr: np.zeros(len(arr), dtype=int)  # noqa: E731
        with pytest.raises(ValueError):
            Query(1, (0, 1), batch=batch, dist_evaluator=lambda x: [0.5, 0.5])
        with pytest.raises(ValueError):
            TestQuery(1)
        with pytest.raises(ValueError):
            TestQuery(2, batch=lambda arr: np.zeros(len(arr)))


def _value(x):
    """A scalar element itself, or the sum of a vector element."""
    return sum(x) if isinstance(x, tuple) else x


_LAW_QUERIES = {
    "deterministic": Query.deterministic(
        2, (0, 1, 2), lambda a, b: (_value(a) + _value(b)) % 3),
    "batch-only": Query(
        2, (0, 1, 2), batch=lambda arr: arr.sum(axis=tuple(range(1, arr.ndim))) % 3),
    "randomized": Query.randomized(
        2, (0, 1, 2), lambda a, b: [0.5, 0.5, 0.0] if (_value(a) + _value(b)) % 2
        else [0.2, 0.3, 0.5]),
}
_LAW_SAMPLES = {
    "scalar": Dataset([0, 1, 2, 1, 3]),
    "vector": Dataset(np.array([(1, -1), (-1, 1), (1, 1), (-1, -1), (1, 1)],
                               dtype=np.int8)),
}


class TestOutputLaws:
    """``Query.output_laws`` and ``Query.answer_indices``: the per-row law
    and the answer draw that every batch path goes through."""

    @pytest.mark.parametrize("sample", sorted(_LAW_SAMPLES))
    @pytest.mark.parametrize("kind", sorted(_LAW_QUERIES))
    def test_laws_are_the_stacked_output_pmf_rows(self, kind, sample):
        q, S = _LAW_QUERIES[kind], _LAW_SAMPLES[sample]
        pos = np.array(list(itertools.combinations(range(len(S)), 2)) + [(0, 1)] * 3)
        laws = q.output_laws(S, pos)
        assert laws.shape == (len(pos), 3)
        assert np.array_equal(laws, np.vstack([q.output_pmf(sub)
                                               for sub in S.subsamples(pos)]))
        assert q.output_laws(S, pos[:0]).shape == (0, 3)

    @pytest.mark.parametrize("kind", ["deterministic", "batch-only"])
    def test_deterministic_answers_draw_no_random_number(self, kind):
        q, S = _LAW_QUERIES[kind], _LAW_SAMPLES["vector"]
        pos = np.array(list(itertools.combinations(range(len(S)), 2)))
        which = np.array([3, 0, 0, 9, 3])
        gen = np.random.default_rng(5)
        state = gen.bit_generator.state
        assert np.array_equal(q.answer_indices(S, pos[which], gen),
                              q.output_indices(S, pos)[which])
        assert np.array_equal(q.answer_indices(S, pos, gen), q.output_indices(S, pos))
        assert gen.bit_generator.state == state

    def test_randomized_answers_draw_one_uniform_each(self):
        # rows 0 and 1 of a point-mass law, row 2 of a law over two outputs
        q = Query.randomized(1, ("a", "b", "c"), lambda x: [[0, 0, 1], [1, 0, 0],
                                                            [0, 0.5, 0.5]][x])
        S, pos = Dataset([0, 1, 2]), np.array([[0], [1], [2]])
        which = np.array([0, 1, 1, 0, 2] * 40)
        gen, replay = np.random.default_rng(6), np.random.default_rng(6)
        got = q.answer_indices(S, pos[which], gen)
        replay.random(len(which))
        assert gen.bit_generator.state == replay.bit_generator.state
        assert np.array_equal(got[which < 2], np.where(which[which < 2] == 0, 2, 0))
        assert set(got[which == 2].tolist()) == {1, 2}

    def test_randomized_laws_are_checked_once_a_call(self, monkeypatch):
        # many distinct rows, one of them a law with a mass just below 0
        # that clipping lifts to 0 in both paths
        q = Query.randomized(2, (0, 1, 2), lambda a, b: [-5e-13, 0.5, 0.5 + 5e-13]
                             if a + b == 3 else [(a + b) / 8, 1 - (a + b) / 8, 0.0])
        S = Dataset([0, 1, 2, 3, 1, 2])
        pos = np.array(list(itertools.combinations(range(len(S)), 2)) * 2)
        want = np.vstack([q.output_pmf(sub) for sub in S.subsamples(pos)])
        calls = []
        check = core.check_mass_rows
        monkeypatch.setattr(core, "check_mass_rows",
                            lambda masses: calls.append(masses.shape) or check(masses))
        laws = q.output_laws(S, pos)
        assert calls == [(15, 3)]  # the 15 distinct rows of 30, stacked
        assert np.array_equal(laws, want)
        assert laws[S.array[pos].sum(axis=1) == 3].tolist() == [[0.0, 0.5, 0.5 + 5e-13]] * 10
        q.output_laws(S, pos[:0])
        assert calls == [(15, 3), (0, 3)]

    @pytest.mark.parametrize("bad,message", [
        ([0.3, 0.3, 0.3], "sum to"), ([math.nan, 0.5, 0.5], "finite"),
        ([0.5, 0.5], r"output distribution has shape \(2,\)")])
    def test_each_randomized_row_is_still_checked(self, bad, message):
        # one bad row among good ones, found whichever row it is
        for bad_x in (0, 2, 4):
            q = Query.randomized(1, (0, 1, 2), lambda x, _b=bad_x: bad if x == _b
                                 else [0.2, 0.3, 0.5])
            S = Dataset([0, 1, 2, 3, 4])
            with pytest.raises(ValueError, match=message):
                q.output_laws(S, np.array([[0], [1], [2], [3], [4], [1]]))
