import itertools
import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import adasub.core as core
import adasub.engine as engine
from adasub.core import (
    MASS_TOL,
    Dataset,
    EnumerationCapExceeded,
    GroundTruth,
    Query,
    TestQuery,
    _distinct_rows,
    query_expectation_on_sample,
)
from adasub.divergence import random_query_instance
from adasub.engine import (
    RandomSource,
    ResponsePMF,
    draw_positions,
    exact_response_pmf,
    leave_one_out_pmfs,
    population_response_pmf,
    subsample_answer,
    uniformize,
)
from adasub.mechanisms import MedianSession

IDENT = Query.deterministic(1, (0, 1), lambda x: x, name="id")


class TestRandomSource:
    def test_same_seed_and_path_same_stream(self):
        a = RandomSource(42, (1, 2)).generator.random(8)
        b = RandomSource(42, (1, 2)).generator.random(8)
        assert np.array_equal(a, b)

    def test_distinct_paths_differ(self):
        root = RandomSource(42)
        a = root.child(1).generator.random(8)
        b = root.child(2).generator.random(8)
        assert not np.array_equal(a, b)

    def test_child_extends_path(self):
        rs = RandomSource(7).child(3).child(4, 5)
        assert rs.path == (3, 4, 5)
        assert rs.seed == 7

    @pytest.mark.parametrize("seed,path,labels", [
        (7, (), (3,)), (7, (1, 2), (0,)), (2 ** 40, (5,), (2, 9)),
        (11, (np.int64(4),), (np.int64(1), 2)), (0, (), (np.int64(2 ** 33), np.intp(6)))])
    def test_child_is_the_source_at_the_longer_path(self, seed, path, labels):
        parent = RandomSource(seed, path)
        parent.generator.random(3)  # a used parent: its state is not the child's
        child, want = parent.child(*labels), RandomSource(seed, path + labels)
        assert (child.seed, child.path) == (want.seed, want.path)
        assert all(type(p) is int for p in child.path)
        assert np.array_equal(child.generator.bit_generator.random_raw(8),
                              want.generator.bit_generator.random_raw(8))
        assert np.array_equal(child.generator.random(16), want.generator.random(16))
        assert parent.path == tuple(int(p) for p in path)


class TestResponsePMF:
    def test_validation(self):
        with pytest.raises(ValueError):
            ResponsePMF((0, 1), [0.5, 0.6])
        with pytest.raises(ValueError):
            ResponsePMF((0, 1), [1.1, -0.1])
        with pytest.raises(ValueError):
            ResponsePMF((0, 1), [1.0])

    @pytest.mark.parametrize("masses", [[math.nan, math.nan], [math.nan, 1.0],
                                        [math.inf, 0.0]])
    def test_non_finite_masses(self, masses):
        with pytest.raises(ValueError, match="finite"):
            ResponsePMF((0, 1), masses)

    def test_callers_masses_stay_writable(self):
        masses = np.array([0.5, 0.5])
        pmf = ResponsePMF((0, 1), masses)
        masses[0] = 0.25  # once raised: the read-only flag was set on this array
        assert pmf.masses.tolist() == [0.5, 0.5] and not pmf.masses.flags.writeable

    def test_tails(self):
        pmf = ResponsePMF((1, 2, 3, 4), [0.1, 0.2, 0.3, 0.4])
        assert pmf.prob_le(2) == pytest.approx(0.3)
        assert pmf.prob_ge(2) == pytest.approx(0.9)
        assert np.dot(pmf.masses, pmf.outputs) == pytest.approx(3.0)
        assert pmf.support() == (1, 2, 3, 4)


class TestExactResponsePMF:
    def test_identity_counts(self):
        pmf = exact_response_pmf(IDENT, Dataset([1, 0, 0]))
        assert pmf.outputs == (0, 1)
        assert pmf.masses[1] == pytest.approx(1 / 3, abs=1e-15)
        assert pmf.masses[0] == pytest.approx(2 / 3, abs=1e-15)

    def test_pair_sum(self):
        q = Query.deterministic(2, (0, 1, 2), lambda a, b: a + b, name="sum")
        pmf = exact_response_pmf(q, Dataset([1, 1, 0, 0]))
        assert np.allclose(pmf.masses, [1 / 6, 4 / 6, 1 / 6], atol=1e-15)

    def test_constant_point_mass(self):
        q = Query.deterministic(1, ("a", "b"), lambda x: "b", name="c")
        pmf = exact_response_pmf(q, Dataset([5, 6, 7]))
        assert pmf.masses.tolist() == [0.0, 1.0]

    def test_mean_consistency_with_expectation(self):
        gen = np.random.default_rng(2)
        for _ in range(30):
            q, S = random_query_instance(gen)
            pmf = exact_response_pmf(q, S)
            expect = query_expectation_on_sample(q, S)
            assert abs(np.dot(pmf.masses, pmf.outputs) - expect) <= 1e-12

    def test_w1_direct_loop(self):
        gen = np.random.default_rng(3)
        for _ in range(20):
            q, S = random_query_instance(gen, w_range=(1, 1))
            pmf = exact_response_pmf(q, S)
            for yi, y in enumerate(q.outputs):
                direct = sum(1 for x in S if q.evaluator(x) == y) / len(S)
                assert abs(pmf.masses[yi] - direct) <= 1e-12

    def test_leave_one_out_averaging_identity(self):
        # the n-point law is the average over i of the (n-1)-point laws
        gen = np.random.default_rng(4)
        for _ in range(25):
            q, S = random_query_instance(gen)
            full = exact_response_pmf(q, S).masses
            loo = np.mean([exact_response_pmf(q, S.leave_one_out(i)).masses
                           for i in range(len(S))], axis=0)
            assert np.max(np.abs(full - loo)) <= 1e-12


def _reference_pmf_masses(q, S):
    """The answer law by the plain loop: q's output law summed over every
    position subset in combination order, then averaged."""
    masses = np.zeros(len(q.outputs))
    for combo in itertools.combinations(range(len(S)), q.arity):
        masses += q.output_pmf(tuple(S[p] for p in combo))
    return masses / math.comb(len(S), q.arity)


@st.composite
def _query_instances(draw, randomized):
    """A small dataset over an alphabet and a query given by a table over
    ordered w-tuples of it: an output index, or (randomized) an output law
    whose masses are often exactly zero."""
    n = draw(st.integers(2, 8))
    w = draw(st.integers(1, min(3, n - 1)))
    alphabet = draw(st.integers(1, 4))
    ysize = draw(st.integers(1, 4))
    keys = list(itertools.product(range(alphabet), repeat=w))
    if randomized:
        weights = st.lists(st.sampled_from([0, 0, 1, 2, 3, 7]), min_size=ysize,
                           max_size=ysize).filter(any)
        table = {key: np.array(draw(weights), dtype=float) for key in keys}
        table = {key: v / v.sum() for key, v in table.items()}
        q = Query.randomized(w, tuple(range(ysize)), lambda *sub: table[sub])
    else:
        table = {key: draw(st.integers(0, ysize - 1)) for key in keys}
        q = Query.deterministic(w, tuple(range(ysize)), lambda *sub: table[sub])
    S = Dataset(draw(st.lists(st.integers(0, alphabet - 1), min_size=n, max_size=n)))
    return q, S


class TestLeaveOneOutPmfs:
    """The laws on S and on every S minus i from one enumeration, against
    exact_response_pmf on each leave-one-out dataset."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(inst=_query_instances(randomized=False), block=st.sampled_from([1, 2, 5, 1 << 15]))
    def test_deterministic_laws_are_bit_identical(self, inst, block):
        q, S = inst
        with mock.patch.object(core, "SUBSET_BLOCK", block):
            full, loo = leave_one_out_pmfs(q, S)
            assert np.array_equal(exact_response_pmf(q, S).masses, full.masses)
        assert np.array_equal(full.masses, _reference_pmf_masses(q, S))
        assert loo.shape == (len(S), len(q.outputs))
        for i, law in enumerate(loo):
            want = exact_response_pmf(q, S.leave_one_out(i)).masses
            assert np.array_equal(law, want)
            assert np.array_equal(want, _reference_pmf_masses(q, S.leave_one_out(i)))

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(inst=_query_instances(randomized=True), block=st.sampled_from([1, 2, 5, 1 << 15]))
    def test_randomized_laws_match_and_keep_zero_masses(self, inst, block):
        q, S = inst
        with mock.patch.object(core, "SUBSET_BLOCK", block):
            full, loo = leave_one_out_pmfs(q, S)
        want = _reference_pmf_masses(q, S)
        assert np.max(np.abs(full.masses - want)) <= 1e-12
        assert np.array_equal(full.masses == 0.0, want == 0.0)
        for i, law in enumerate(loo):
            want = exact_response_pmf(q, S.leave_one_out(i)).masses
            assert np.max(np.abs(law - want)) <= 1e-12
            assert np.array_equal(law == 0.0, want == 0.0)

    def test_memory_and_time_do_not_grow_with_n_times_subsets(self):
        # a per-position mask over every subset block would take
        # n * C(n, w) = 4e8 steps here; the subtraction takes one pass
        import time
        import tracemalloc
        n, ysize = 20_000, 2
        S = Dataset(np.arange(n) % 3)
        q = Query(1, (0, 1), name="odd", batch=lambda e: e[:, 0] % 2)
        floats = core.SUBSET_BLOCK * (1 + ysize) + n * ysize
        start = time.perf_counter()
        tracemalloc.start()
        try:
            full, loo = leave_one_out_pmfs(q, S)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert time.perf_counter() - start < 1.0
        assert peak <= 6 * 8 * floats
        odd = np.count_nonzero(S.array % 2)
        assert full.masses.tolist() == [(n - odd) / n, odd / n]
        assert loo[S.array % 2 == 1, 1].tolist() == [(odd - 1) / (n - 1)] * odd
        assert loo[S.array % 2 == 0, 1].tolist() == [odd / (n - 1)] * (n - odd)

    def test_needs_a_leave_one_out_sample_of_arity_size(self):
        q = Query.deterministic(3, (0, 1), lambda *xs: 0, name="c")
        with pytest.raises(ValueError):
            leave_one_out_pmfs(q, Dataset([1, 2, 3]))
        assert leave_one_out_pmfs(q, Dataset([1, 2, 3, 4]))[1][0, 0] == 1.0

    def test_laws_are_checked_once_and_read_only(self):
        q = Query.deterministic(1, (0, 1), lambda x: x % 2, name="odd")
        with mock.patch.object(engine, "check_mass_rows",
                               wraps=engine.check_mass_rows) as check:
            full, loo = leave_one_out_pmfs(q, Dataset([0, 1, 1]))
        assert [c.args[0].shape for c in check.call_args_list] == [(3, 2), (2,)]
        assert check.call_args_list[0].args[0] is loo
        assert loo.tolist() == [[0.0, 1.0], [0.5, 0.5], [0.5, 0.5]]
        assert not loo.flags.writeable

    @pytest.mark.parametrize("bad,message", [
        ([0.7, 0.7], "sum to"), ([math.nan, 1.0], "finite"),
        ([1.5, -0.5], "nonnegative")])
    def test_every_row_is_a_law(self, bad, message):
        with pytest.raises(ValueError, match=message):
            engine.check_mass_rows(np.array([[0.5, 0.5], bad]))
        with pytest.raises(ValueError, match=message):
            ResponsePMF((0, 1), bad)
        engine.check_mass_rows(np.array([[0.5, 0.5], [1.0, -1e-13]]))

    def test_cap_is_checked_on_the_full_enumeration(self, monkeypatch):
        q = Query.deterministic(2, (0, 1), lambda *xs: 0, name="c")
        monkeypatch.setattr(core, "ENUM_CAP", 89)
        with pytest.raises(EnumerationCapExceeded):
            leave_one_out_pmfs(q, Dataset(np.arange(10)))
        monkeypatch.setattr(core, "ENUM_CAP", 90)
        assert len(leave_one_out_pmfs(q, Dataset(np.arange(10)))[1]) == 10


class TestLeaveOneOutLaws:
    """leave_one_out_pmfs on each instance against exact_response_pmf on each
    leave-one-out dataset."""

    def test_a_uniformized_group_keeps_exact_zero_masses(self):
        # six instances of shape (n, w, |Y|) = (6, 2, 3); a floor of 0 keeps
        # the map's one-hot laws, so laws on S minus i have exact zeros
        instances = []
        for i in itertools.count():
            q, S = random_query_instance(RandomSource(31).child(i).generator)
            if (len(S), q.arity, len(q.outputs)) == (6, 2, 3):
                instances.append((uniformize(q, (0.0, 0.05)[len(instances) % 2]), S))
            if len(instances) == 6:
                break
        with mock.patch.object(core, "SUBSET_BLOCK", 4):  # 4 blocks of C(6,2)
            loos = [leave_one_out_pmfs(q, S)[1] for q, S in instances]
        for (q, S), loo in zip(instances, loos):
            assert loo.shape == (6, 3) and not loo.flags.writeable
            for i in range(6):
                want = exact_response_pmf(q, S.leave_one_out(i)).masses
                assert np.max(np.abs(loo[i] - want)) <= 1e-12
                assert np.array_equal(loo[i] == 0.0, want == 0.0)
        zeros = np.array([(loo == 0.0).any() for loo in loos])
        assert zeros[0::2].any() and not zeros[1::2].any()


class TestPopulationResponsePMF:
    def test_point_mass(self):
        D = GroundTruth((3,), np.array([1.0]))
        q = Query.deterministic(2, (0, 6), lambda a, b: a + b, name="sum")
        pmf = population_response_pmf(q, D)
        assert pmf.masses.tolist() == [0.0, 1.0]

    def test_xor_uniform(self):
        D = GroundTruth((0, 1), np.array([0.5, 0.5]))
        q = Query.deterministic(2, (0, 1), lambda a, b: a ^ b, name="xor")
        pmf = population_response_pmf(q, D)
        assert np.allclose(pmf.masses, [0.5, 0.5], atol=1e-15)

    def test_constant(self):
        D = GroundTruth((0, 1), np.array([0.25, 0.75]))
        q = Query.deterministic(1, (0, 1), lambda x: 0, name="zero")
        assert population_response_pmf(q, D).masses.tolist() == [1.0, 0.0]

    def test_batch_and_evaluator_twins_agree_and_skip_zero_mass(self):
        # point 2 has zero mass, so no draw holding it reaches either form
        D = GroundTruth((0, 1, 2, 3), np.array([0.2, 0.5, 0.0, 0.3]))
        labels = ("r0", "r1", "r2")
        seen = []

        def batch(arr):
            seen.extend(arr.ravel().tolist())
            return arr.sum(axis=1) % 3

        def ev(a, b):
            seen.extend((a, b))
            return labels[(a + b) % 3]

        laws = []
        for q in (Query(2, labels, batch=batch), Query.deterministic(2, labels, ev)):
            seen.clear()
            laws.append(population_response_pmf(q, D).masses)
            assert sorted(set(seen)) == [0, 1, 3]
        assert np.array_equal(laws[0], laws[1])
        want = np.zeros(3)
        for a, b in itertools.product(range(4), repeat=2):
            want[(a + b) % 3] += D.masses[a] * D.masses[b]
        assert np.allclose(laws[0], want, rtol=0, atol=1e-15)


class ReplayGenerator:
    """Stands in for a numpy Generator: ``integers`` checks the bounds it is
    asked for and returns a fixed (m, w) table of draws."""

    def __init__(self, draws, want_high):
        self.draws, self.want_high = np.asarray(draws), np.asarray(want_high)

    def integers(self, low, high):
        assert low == 0
        assert np.array_equal(np.asarray(high), self.want_high)
        return self.draws.astype(np.int64)


def floyd_loop(gen, n, w, m):
    """The row-wise Floyd draw, step by step: the reference that
    ``draw_positions`` must equal draw for draw."""
    n = np.asarray(n, dtype=np.int64)
    high = np.broadcast_to(n.reshape(-1, 1) + np.arange(1 - w, 1), (m, w))
    pos = gen.integers(0, high)
    for s in range(1, w):
        taken = (pos[:, :s] == pos[:, s, None]).any(axis=1)
        pos[:, s] = np.where(taken, high[:, s] - 1, pos[:, s])
    pos.sort(axis=1)
    return pos


class TestDrawPositions:
    @pytest.mark.parametrize("sizes,w", [
        ((1,), 1), ((4,), 1), ((4,), 2), ((5,), 3), ((5,), 5), ((6,), 4),
        ((3, 5), 2), ((4, 6, 5), 3), ((2, 3, 4), 2),
    ])
    def test_floyd_replay_gives_each_subset_mass_one_over_binomial(self, sizes, w):
        # every integer sequence Floyd can draw, for every row size at once
        rows, highs, size_of = [], [], []
        for n in sizes:
            bounds = [n - w + s + 1 for s in range(w)]  # t_s uniform on [0, j_s]
            for seq in itertools.product(*(range(b) for b in bounds)):
                rows.append(seq)
                highs.append(bounds)
                size_of.append(n)
        m = len(rows)
        n_arg = sizes[0] if len(sizes) == 1 else np.asarray(size_of)
        got = draw_positions(ReplayGenerator(rows, highs), n_arg, w, m)
        assert got.shape == (m, w) and got.dtype == np.int64
        for n in sizes:
            mass: dict[tuple, Fraction] = {}
            seq_mass = Fraction(math.factorial(n - w), math.factorial(n))
            for row, rn in zip(got.tolist(), size_of):
                if rn == n:
                    mass[tuple(row)] = mass.get(tuple(row), 0) + seq_mass
            assert set(mass) == set(itertools.combinations(range(n), w))
            assert set(mass.values()) == {Fraction(1, math.comb(n, w))}

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(w=st.integers(1, 6), extra=st.lists(st.integers(0, 9), min_size=1,
                                                max_size=12),
           seed=st.integers(0, 2 ** 32 - 1), per_row=st.booleans())
    def test_rows_sorted_distinct_and_in_range(self, w, extra, seed, per_row):
        gen = np.random.default_rng(seed)
        sizes = np.asarray(extra) + w
        m = len(sizes)
        n = sizes if per_row else int(sizes[0])
        pos = draw_positions(gen, n, w, m)
        assert pos.shape == (m, w)
        assert np.all(np.diff(pos, axis=1) > 0)  # sorted and distinct
        assert np.all(pos >= 0)
        assert np.all(pos < np.broadcast_to(n, (m,))[:, None])

    def test_arity_one_is_one_integers_call(self):
        a = draw_positions(np.random.default_rng(4), 37, 1, 1000)
        b = np.random.default_rng(4).integers(0, 37, size=1000)
        assert np.array_equal(a[:, 0], b)

    def test_rejects_bad_sizes(self):
        gen = np.random.default_rng(0)
        with pytest.raises(ValueError):
            draw_positions(gen, 2, 3)
        with pytest.raises(ValueError):
            draw_positions(gen, [5, 2], 3, 2)
        with pytest.raises(ValueError):
            draw_positions(gen, [5, 6, 7], 2, 2)

    @pytest.mark.parametrize("n", [5, [5]])
    def test_negative_count_is_refused_before_any_draw(self, n):
        gen = np.random.default_rng(3)
        with pytest.raises(ValueError, match="cannot draw -1 subsets"):
            draw_positions(gen, n, 2, -1)
        q = Query(2, (0, 1), batch=lambda e: e.sum(axis=1) % 2)
        with pytest.raises(ValueError, match="cannot draw -1 subsets"):
            subsample_answer(q, Dataset(np.arange(5)), gen, size=-1)
        assert gen.integers(0, 2 ** 62) == np.random.default_rng(3).integers(0, 2 ** 62)
        assert draw_positions(gen, n, 2, 0).shape == (0, 2)

    @pytest.mark.parametrize("w", range(1, 7))
    @pytest.mark.parametrize("m", [0, 1, 420, 5000])
    @pytest.mark.parametrize("per_row", [False, True])
    def test_equals_the_row_wise_floyd_loop(self, w, m, per_row):
        seed = 1000 * w + m + per_row
        n = (np.random.default_rng(seed).integers(w, w + 12, size=m) if per_row
             else w + 5)
        got = draw_positions(np.random.default_rng(seed), n, w, m)
        want = floyd_loop(np.random.default_rng(seed), n, w, m)
        assert np.array_equal(got, want)
        assert got.shape == (m, w) and got.dtype == np.int64
        assert got.flags.c_contiguous

    @pytest.mark.parametrize("n,w,m", [(9, 2, 400), (9, 3, 400),
                                       (2 ** 16, 4, 400), (9, 2, 0)])
    def test_distinct_rows_match_numpy_unique(self, n, w, m):
        gen = np.random.default_rng(n + w)
        pos = draw_positions(gen, n, w, m)
        pos = np.vstack([pos, pos[::3]])
        distinct, which = _distinct_rows(pos)
        want, want_which = np.unique(pos, axis=0, return_inverse=True)
        assert np.array_equal(distinct, want)
        assert np.array_equal(which, want_which.reshape(-1))
        assert np.array_equal(distinct[which], pos)


class TestSubsampleAnswer:
    def test_constant_always(self):
        q = Query.deterministic(1, (7,), lambda x: 7, name="c")
        rng = RandomSource(1)
        assert all(subsample_answer(q, Dataset([1, 2, 3]), rng) == 7
                   for _ in range(20))

    def test_full_sample_subset(self):
        q = Query.deterministic(3, (0, 1, 2, 3), lambda *xs: sum(xs), name="sum")
        got = subsample_answer(q, Dataset([1, 0, 1]), RandomSource(2))
        assert got == 2

    @pytest.mark.parametrize("q", [
        IDENT,
        Query.deterministic(2, (0.0, 1.0, 2.0), lambda a, b: np.float64(a + b),
                            name="sum2"),
        Query(3, ("even", "odd"), batch=lambda arr: arr.sum(axis=1) % 2),
    ])
    def test_one_answer_is_the_one_row_batch(self, q):
        S = Dataset([0, 1, 1, 0, 1])
        for seed in range(20):
            one = subsample_answer(q, S, RandomSource(seed))
            assert one == subsample_answer(q, S, RandomSource(seed), size=1)[0]
            assert any(one is y for y in q.outputs)  # the declared element
            # the stream of one answer: one m = 1 position draw, nothing more
            gen = RandomSource(seed).generator
            (sub,) = S.subsamples(draw_positions(gen, len(S), q.arity))
            rng = RandomSource(seed)
            assert subsample_answer(q, S, rng) == q.evaluator(*sub)
            np.testing.assert_equal(rng.generator.bit_generator.state,
                                    gen.bit_generator.state)

    @pytest.mark.parametrize("n,w", [(9, 2), (9, 3), (2 ** 16, 4)])
    def test_batch_evaluates_every_drawn_subset(self, n, w):
        # answers must be q on each drawn row, whether rows repeat (small n)
        # or nearly never do (large n)
        q = Query.deterministic(w, tuple(range(97)), lambda *xs: sum(xs) % 97,
                                name="sum97")
        S = Dataset(np.arange(n))
        got = subsample_answer(q, S, np.random.default_rng(n + w), size=400)
        pos = draw_positions(np.random.default_rng(n + w), n, w, 400)
        assert got.tolist() == [sum(sub) % 97 for sub in S.subsamples(pos)]

    def test_batch_answers_every_drawn_row_in_one_call(self):
        calls = []

        def batch(elements):
            calls.append(len(elements))
            return elements.sum(axis=1) % 2

        q = Query(2, ("even", "odd"), batch=batch)
        subsample_answer(q, Dataset([0, 1, 1, 0]), RandomSource(4), size=500)
        assert calls == [500]

    @pytest.mark.parametrize("randomized", [False, True])
    def test_per_row_forms_are_called_once_per_distinct_row(self, randomized):
        seen = []

        def spy(x, y):
            seen.append((x, y))
            return [0.5, 0.5] if randomized else (x + y) % 2

        q = (Query.randomized(2, (0, 1), spy) if randomized
             else Query.deterministic(2, (0, 1), spy))
        S = Dataset(np.arange(5))
        subsample_answer(q, S, RandomSource(4), size=500)
        pos = draw_positions(RandomSource(4).generator, len(S), 2, 500)
        drawn = set(S.subsamples(pos))
        assert len(seen) == len(drawn) < 500
        assert set(seen) == drawn

    @pytest.mark.parametrize("form,many", [
        ("batch", "babacbabcbcacbbbbbbbbbcc"),
        ("evaluator", "babacbabcbcacbbbbbbbbbcc"),
        ("uniformized", "bcbbbabbcbcacbbbccbbbbcb"),
    ])
    def test_answers_are_pinned_at_fixed_seeds(self, form, many):
        # recorded before the sampler stopped deduplicating batch rows
        table = np.array([[0, 2, 1, 1], [2, 0, 0, 1], [1, 1, 2, 0], [0, 2, 2, 1]])
        evaluator = Query.deterministic(2, ("a", "b", "c"),
                                        lambda x, y: "abc"[table[x, y]])
        q = {"batch": Query(2, ("a", "b", "c"),
                            batch=lambda el: table[el[:, 0], el[:, 1]]),
             "evaluator": evaluator,
             "uniformized": uniformize(evaluator, 0.5 / 3)}[form]
        S = Dataset([3, 0, 2, 2, 1, 0, 3, 1, 2])
        assert "".join(subsample_answer(q, S, RandomSource(11), size=24)) == many
        assert subsample_answer(q, S, RandomSource(12)) == "a"

    @pytest.mark.parametrize("q", [
        Query.deterministic(1, (0, 1), lambda x: x, name="id"),
        Query.deterministic(2, (0, 1, 2), lambda x, y: x + y, name="sum2"),
        Query.randomized(2, (0, 1), lambda x, y: [0.5, 0.5], name="coin2"),
    ])
    def test_size_zero_is_empty(self, q):
        got = subsample_answer(q, Dataset([0, 1, 1]), RandomSource(3), size=0)
        assert got.shape == (0,)

    def test_w1_frequency_matches_pmf(self):
        # binomial standard error oracle: p = 1/3 over one million draws
        draws = 1_000_000
        vals = subsample_answer(IDENT, Dataset([1, 0, 0]), RandomSource(5),
                                size=draws)
        phat = float(np.mean(vals == 1))
        se = math.sqrt((1 / 3) * (2 / 3) / draws)
        assert abs(phat - 1 / 3) <= 3 * se

    def test_randomized_w1_batch_matches_pmf(self):
        q = Query.randomized(1, (0, 1, 2),
                             lambda x: [0.5, 0.25, 0.25] if x else [0.1, 0.2, 0.7],
                             name="r")
        S = Dataset([0, 1, 1, 0, 0])
        pmf = exact_response_pmf(q, S)
        draws = 200_000
        vals = subsample_answer(q, S, RandomSource(6), size=draws)
        for yi, y in enumerate(q.outputs):
            phat = float(np.mean(vals == y))
            se = math.sqrt(max(pmf.masses[yi] * (1 - pmf.masses[yi]), 1e-9) / draws)
            assert abs(phat - pmf.masses[yi]) <= 4 * se

    def test_small_instance_frequencies(self):
        gen = np.random.default_rng(9)
        q, S = random_query_instance(gen, w_range=(2, 3))
        pmf = exact_response_pmf(q, S)
        draws = 50_000
        vals = subsample_answer(q, S, RandomSource(10), size=draws)
        for yi, y in enumerate(q.outputs):
            phat = float(np.mean(vals == y))
            se = math.sqrt(max(pmf.masses[yi] * (1 - pmf.masses[yi]), 1e-9) / draws)
            assert abs(phat - pmf.masses[yi]) <= 4 * se

    @pytest.mark.slow
    def test_million_draw_frequencies_arity_two(self):
        gen = np.random.default_rng(12)
        q, S = random_query_instance(gen, w_range=(2, 2))
        pmf = exact_response_pmf(q, S)
        draws = 1_000_000
        vals = subsample_answer(q, S, RandomSource(13), size=draws)
        for yi, y in enumerate(q.outputs):
            phat = float(np.mean(vals == y))
            se = math.sqrt(max(pmf.masses[yi] * (1 - pmf.masses[yi]), 1e-9) / draws)
            assert abs(phat - pmf.masses[yi]) <= 4 * se

    def test_randomized_and_opaque_batches_match_pmf(self):
        # the opaque case went with the opaque query form; the name is kept
        S = Dataset([0, 1, 1, 2, 0, 2])
        q = Query.randomized(2, (0, 1, 2),
                             lambda a, b: [0.6, 0.3, 0.1] if a == b
                             else [0.1, 0.2, 0.7], name="r2")
        draws = 60_000
        pmf = exact_response_pmf(q, S)
        vals = subsample_answer(q, S, RandomSource(21), size=draws)
        for yi, y in enumerate(q.outputs):
            phat = float(np.mean(vals == y))
            se = math.sqrt(max(pmf.masses[yi] * (1 - pmf.masses[yi]), 1e-9) / draws)
            assert abs(phat - pmf.masses[yi]) <= 4 * se

    def test_vector_elements_reach_queries_as_tuples(self):
        # what Dataset.__getitem__ gives: a tuple of Python ints per element
        S = Dataset(np.array([(1, -1), (-1, 1), (1, 1), (-1, -1)] * 2, dtype=np.int8))
        seen = []

        def ev(*xs):
            seen.extend(xs)
            return float(sum(sum(x) for x in xs) > 0)

        for w in (1, 2):
            seen.clear()
            q = Query.deterministic(w, (0.0, 1.0), ev, name="pos")
            subsample_answer(q, S, RandomSource(1))
            subsample_answer(q, S, RandomSource(2), size=50)
            MedianSession(S, 2, RandomSource(4)).answer(q)
            test = TestQuery(w, ev, name="pos")
            query_expectation_on_sample(test, S)
            assert seen and all(type(x) is tuple for x in seen)
            assert all(type(c) is int for x in seen for c in x)
            assert set(seen) <= {S[i] for i in range(len(S))}

    def test_arity_exceeds_sample(self):
        q = Query.deterministic(4, (0,), lambda *xs: 0, name="q")
        with pytest.raises(ValueError):
            subsample_answer(q, Dataset([1, 2, 3]), RandomSource(1))


class TestUniformize:
    def test_p_zero_is_identity_in_law(self):
        u = uniformize(IDENT, 0.0)
        S = Dataset([1, 0, 0])
        assert np.allclose(exact_response_pmf(u, S).masses,
                           exact_response_pmf(IDENT, S).masses, atol=1e-15)

    def test_mixture_masses(self):
        u = uniformize(IDENT, 0.1)
        # on an input with value 1: {1: 0.9, 0: 0.1}
        pmf = u.output_pmf((1,))
        assert pmf[u.outputs.index(1)] == pytest.approx(0.9, abs=1e-15)
        assert pmf[u.outputs.index(0)] == pytest.approx(0.1, abs=1e-15)

    def test_total_mixing_is_uniform(self):
        u = uniformize(IDENT, 0.5)
        for x in (0, 1):
            assert np.allclose(u.output_pmf((x,)), [0.5, 0.5], atol=1e-15)

    def test_p_too_large(self):
        with pytest.raises(ValueError):
            uniformize(IDENT, 0.6)

    @pytest.mark.parametrize("p", [math.nan, math.inf, -math.inf])
    def test_p_that_is_not_finite_is_refused(self, p):
        # a NaN p fails both range comparisons and would give NaN laws
        with pytest.raises(ValueError, match=f"p={p}"):
            uniformize(IDENT, p)

    def test_uniformized_query_passes(self):
        # the floor holds on every subset, by construction
        pair_sum = Query.deterministic(2, (0, 1, 2, 3, 4), lambda a, b: a + b)
        for q, p, S in ((IDENT, 0.1, Dataset([0, 1, 1])),
                        (pair_sum, 0.05, Dataset([0, 1, 1, 2, 0, 2])),
                        (pair_sum, 0.2, Dataset([0, 1, 1, 2, 0, 2]))):
            u = uniformize(q, p)
            for pos in core.position_blocks(len(S), q.arity):
                assert u.output_laws(S, pos).min() >= p - MASS_TOL
