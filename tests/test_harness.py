import math
import re
from collections.abc import Sequence
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

from adasub import harness
from adasub.cli import main
from adasub.core import Dataset, TestQuery
from adasub.engine import RandomSource, population_response_pmf
from adasub.harness import (
    Analyst,
    CubePopulation,
    ExperimentConfig,
    FinitePopulation,
    FixedAnalyst,
    RandomCorrelationAnalyst,
    ShiftingMeanAnalyst,
    _prob_sign_sum_positive,
    coordinate_indicator,
    constant_test,
    grid_mean_query,
    identity_test,
    naive_answer,
    population_generators,
    run_experiment,
    sign_sum_test,
)
from adasub.mechanisms import (
    BudgetLedger, SqSession, cost_hp, mi_upper_bound, sq_answer_cost, sq_params)
from grid_reference import grid_cell, scalar_grid_mean


def sq_config(**over):
    cfg = dict(
        seed=11, trials=2, n=60,
        population={"name": "bernoulli", "p": 0.3},
        mechanism={"name": "subsampling-sq", "tau": 0.3, "delta": 0.2},
        analyst={"name": "fixed", "queries": ["identity", {"kind": "constant", "value": 0.0}]},
    )
    cfg.update(over)
    return ExperimentConfig(**cfg)


def _cube_decode(n, d):
    """RandomSource(5).child(0)'s cube sample, decoded bit by bit from its
    raw words in pure Python: n rows of d ±1 entries."""
    words = RandomSource(5).child(0).generator.bit_generator.random_raw(
        -(-n * d // 64)).tolist()
    return [[1 if words[b // 64] >> (b % 64) & 1 else -1
             for b in range(i, n * d, n)] for i in range(n)]


class TestPopulations:
    def test_bernoulli_masses(self):
        pop = population_generators("bernoulli", {"p": 0.3})
        assert np.allclose(pop.ground_truth.masses, [0.7, 0.3], atol=1e-15)
        assert pop.truth(identity_test()) == pytest.approx(0.3, abs=1e-15)

    def test_cube_coordinate_marginals(self):
        pop = population_generators("uniform_pm1_cube", {"d": 3})
        S = pop.draw(4000, RandomSource(1))
        assert S.array.shape == (4000, 3)
        means = (S.array == 1).mean(axis=0)
        assert np.all(np.abs(means - 0.5) <= 4 * 0.5 / math.sqrt(4000))
        assert pop.truth(coordinate_indicator(1)) == 0.5

    @pytest.mark.parametrize("n,d", [(3, 5), (7, 3), (13, 7), (5, 1), (8, 2), (1, 1),
                                     (50, 3), (32, 4), (15001, 3), (9, 600),
                                     (3, 2 ** 15 + 1)])
    def test_cube_draw_reads_columns_from_the_stream_words(self, n, d):
        # entry (i, j) is bit (j*n + i) mod 64 of raw word (j*n + i) // 64,
        # low bit first, set reading +1: n x d not a multiple of 64 cuts the
        # last word short, and columns start and end mid-byte and mid-word
        source = RandomSource(5).child(0)
        S = CubePopulation(d).draw(n, source)
        rows = _cube_decode(n, d)
        # the draw took exactly ceil(n x d / 64) words of the stream
        fresh = RandomSource(5).child(0).generator.bit_generator
        assert source.generator.bit_generator.random_raw(1).tolist() \
            == fresh.random_raw(-(-n * d // 64) + 1)[-1:].tolist()
        # the packed reads: d = 600 spans several sign-sum blocks, the last
        # one short, and row 0's own signs agree on all d = 2**15 + 1
        # coordinates, past int16
        assert [S.tally(coordinate_indicator(j)) for j in range(d)] \
            == [sum(row[j] == 1 for row in rows) for j in range(d)]
        gen = RandomSource(d).generator
        for signs in ([1] * d, [-1] * d, gen.choice([-1, 1], size=d).tolist(), rows[0]):
            want = [sum(s * x for s, x in zip(signs, row)) > 0 for row in rows]
            assert S.batch_values(sign_sum_test(signs)).tolist() == want
            assert S.tally(sign_sum_test(signs)) == sum(want)
        assert S.tally(constant_test(0.25)).tolist() == [0.25] * n
        assert S._array is None  # no packed read built the int8 array
        assert S.array.tolist() == rows

    def test_cube_coordinates_and_pairs_are_uniform(self):
        # within 4 standard errors: each coordinate's +1 frequency, and the
        # four sign cells of each pair of coordinates and of each pair of
        # rows adjacent in a column (adjacent bytes of the stream)
        n, d = 4000, 8
        x = CubePopulation(d).draw(n, RandomSource(21)).array == 1
        assert np.all(np.abs(x.mean(axis=0) - 0.5) <= 4 * 0.5 / math.sqrt(n))
        pairs = [(x[:, a], x[:, b]) for a in range(d) for b in range(a + 1, d)]
        pairs += [(x[:-1:2, j], x[1::2, j]) for j in range(d)]
        for u, v in pairs:
            cells = np.bincount(2 * u + v, minlength=4) / len(u)
            assert np.all(np.abs(cells - 0.25)
                          <= 4 * math.sqrt(0.25 * 0.75 / len(u))), cells

    def test_cube_bytes_and_word_boundaries_are_uniform(self):
        # entries that share a byte or a word, or sit on either side of a
        # word boundary, are independent: within 4 standard errors over one
        # draw, each of the 256 patterns of 8 consecutive entries in a
        # column, on a byte and astride two, and the four sign cells of the
        # pairs across each word boundary
        n, d = 1 << 18, 8
        x = CubePopulation(d).draw(n, RandomSource(22)).array == 1
        place = 1 << np.arange(8)
        for offset in (0, 4):
            octets = x[offset:n - 8 + offset].T.reshape(-1, 8)
            freq = np.bincount(octets @ place, minlength=256) / len(octets)
            assert np.all(np.abs(freq - 1 / 256)
                          <= 4 * math.sqrt((1 / 256) * (255 / 256) / len(octets))), offset
        flat = x.T.ravel()  # the stream's order
        ends = np.arange(64, n * d, 64) - 1
        cells = np.bincount(2 * flat[ends] + flat[ends + 1], minlength=4) / len(ends)
        assert np.all(np.abs(cells - 0.25)
                      <= 4 * math.sqrt(0.25 * 0.75 / len(ends))), cells

    def test_cube_sample_is_column_major_and_read_only(self):
        arr = CubePopulation(6).draw(9, RandomSource(2)).array
        assert arr.shape == (9, 6) and arr.dtype == np.int8
        assert arr.flags.f_contiguous and not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0, 0] = 1

    def test_cube_draw_holds_the_sample_and_two_blocks(self):
        # the sample's own words, 8 bytes each, and a few objects; twice the
        # sample adds nothing
        import tracemalloc
        d = 1000
        CubePopulation(3).draw(5, RandomSource(0))  # one-time set-up, untraced
        excess = []
        for n in (4000, 8000):
            words = 8 * -(-n * d // 64)
            tracemalloc.start()
            try:
                CubePopulation(d).draw(n, RandomSource(1))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= words + 8192
            excess.append(peak - words)
        assert excess[1] <= excess[0], excess

    def test_cube_sample_is_a_dataset_like_its_decode(self):
        # each Dataset method, on a fresh sample whose int8 array is not yet
        # built, gives what it gives on the bit-by-bit decode
        n, d = 7, 4
        ref = Dataset(np.array(_cube_decode(n, d), dtype=np.int8))
        pos = np.array([[0, 3], [6, 1], [2, 2]])

        def fresh():
            return CubePopulation(d).draw(n, RandomSource(5).child(0))

        assert len(fresh()) == len(ref) == n
        assert fresh()[2] == ref[2]
        assert list(fresh()) == list(ref)
        assert fresh().leave_one_out(4).array.tolist() == ref.leave_one_out(4).array.tolist()
        assert fresh().subsamples(pos) == ref.subsamples(pos)
        copy = Dataset(fresh())
        assert type(copy) is Dataset and copy.array.tolist() == ref.array.tolist()

    def test_cube_runs_never_build_the_int8_array(self, tmp_path, monkeypatch):
        # the README's naive and SQ cube attacks, and a fixed analyst's
        # coordinate and constant queries, write the same CSV and sidecar
        # when the int8 array refuses to be built
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        configs = [block for block in re.findall(r"```yaml\n(.*?)```", readme, re.S)
                   if "d: 400" in block]
        assert len(configs) == 2
        configs.append(yaml.safe_dump(dict(
            seed=3, trials=3, n=37, population={"name": "uniform_pm1_cube", "d": 5},
            mechanism={"name": "subsampling-sq", "tau": 0.3, "delta": 0.2},
            analyst={"name": "fixed", "queries": [
                {"kind": "coord", "j": 0}, {"kind": "coord", "j": 4},
                {"kind": "constant", "value": 0.3}]})))

        def refuse(sample):
            raise AssertionError("a run built the int8 cube array")

        for i, text in enumerate(configs):
            cfg = tmp_path / f"cfg{i}.yaml"
            cfg.write_text(text)
            outs = []
            for refused in (False, True):
                if refused:
                    monkeypatch.setattr(harness.CubeSample, "array", property(refuse))
                out = tmp_path / f"run{i}-{refused}.csv"
                assert main(["run", str(cfg), "--out", str(out)]) == 0
                outs.append((out.read_bytes(),
                             Path(f"{out}.summary.json").read_bytes()))
            monkeypatch.undo()
            assert outs[0] == outs[1], i

    def test_sign_sum_batch_ignores_memory_order(self):
        gen = RandomSource(4).generator
        arr = gen.choice(np.array([-1, 1], dtype=np.int8), size=(50, 9))
        psi = sign_sum_test(gen.choice([-1, 1], size=9))
        assert np.array_equal(psi.batch(np.ascontiguousarray(arr)),
                              psi.batch(np.asfortranarray(arr)))

    @pytest.mark.parametrize("d", [300, 1000])
    def test_sign_sum_batch_exact_past_int8_and_int16(self, d):
        gen = RandomSource(d).generator
        rows = [np.ones(d), -np.ones(d), np.r_[np.ones(d // 2 + 1),
                                                -np.ones(d - d // 2 - 1)]]
        arr = np.vstack(rows + [gen.choice([-1, 1], size=(7, d))]).astype(np.int8)
        for signs in (np.ones(d, dtype=int), gen.choice([-1, 1], size=d)):
            psi = sign_sum_test(signs)
            want = [1.0 if sum(int(v) * s for v, s in zip(x, signs)) > 0 else 0.0
                    for x in arr]
            assert psi.batch(arr).tolist() == want
            assert [psi.evaluator(tuple(x.tolist())) for x in arr] == want
        assert sign_sum_test(np.ones(d, dtype=int)).batch(arr)[:3].tolist() \
            == [1.0, 0.0, 1.0]

    def test_sign_sum_batch_exact_past_int16_in_both_orders(self):
        # d = 2**15 + 1: sums of ±d would wrap in int16, and ±1 sits by 0
        d = 2 ** 15 + 1
        plus = np.r_[np.ones(d // 2 + 1), -np.ones(d // 2)]  # sums to +1
        rows = np.vstack([np.ones(d), -np.ones(d), plus, -plus]).astype(np.int8)
        signs = RandomSource(d).generator.choice([-1, 1], size=d)
        for s, want in ((np.ones(d, dtype=int), [True, False, True, False]),
                        (-np.ones(d, dtype=int), [False, True, False, True])):
            psi = sign_sum_test(s)
            for arr in (np.ascontiguousarray(rows), np.asfortranarray(rows)):
                assert psi.batch(arr).tolist() == want
            assert [psi.evaluator(tuple(x.tolist())) for x in rows] == want
        # the same rows under mixed signs: x * s has the sums above
        psi = sign_sum_test(signs)
        mixed = np.asfortranarray(rows * signs.astype(np.int8))
        assert psi.batch(mixed).tolist() == [True, False, True, False]
        assert [psi.evaluator(tuple(x.tolist())) for x in mixed] \
            == [True, False, True, False]

    def test_sign_sum_batch_never_copies_the_sample(self):
        import tracemalloc
        n, d = 4000, 1000
        arr = CubePopulation(d).draw(n, RandomSource(1)).array
        psi = sign_sum_test(RandomSource(2).generator.choice([-1, 1], size=d))
        psi.batch(arr[:5])  # one-time set-up, untraced
        tracemalloc.start()
        try:
            got = psi.batch(arr)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * n + 64 * 1024  # the sums, the bools and einsum's buffers
        sums = (arr.astype(np.int64) * psi.tag[1]).sum(axis=1)
        assert np.array_equal(got, sums > 0)

    def test_cube_sign_sum_truth_exact(self):
        assert _prob_sign_sum_positive(2) == pytest.approx(0.25, abs=1e-15)
        assert _prob_sign_sum_positive(3) == pytest.approx(0.5, abs=1e-15)
        pop = CubePopulation(2)
        assert pop.truth(sign_sum_test([1, -1])) == pytest.approx(0.25, abs=1e-15)

    @pytest.mark.parametrize("ds", [range(1, 200), range(999, 1002), (4096, 4098)])
    def test_sign_sum_truth_is_the_tail_sum(self, ds):
        # the reference sums the binomial tail, O(d^2) bignum work
        for d in ds:
            tail = sum(math.comb(d, j) for j in range(d // 2 + 1, d + 1))
            assert _prob_sign_sum_positive(d) == float(Fraction(tail, 2 ** d))

    @pytest.mark.parametrize("ds", [range(0, 4097, 2), (2 ** 16, 2 ** 18)])
    def test_sign_sum_fixed_point_is_the_exact_form(self, ds):
        # C(d, d/2) / 2^d at 128 bits against the exact binomial, every even
        # d up to 4096 and two large ones (math.comb alone takes 1 s at 2^18)
        for d in ds:
            want = (2 ** d - math.comb(d, d // 2)) / 2 ** (d + 1)
            assert _prob_sign_sum_positive.__wrapped__(d) == want

    def test_sign_sum_truth_at_the_cube_ceiling_is_fast(self):
        import time
        start = time.perf_counter()
        p = _prob_sign_sum_positive.__wrapped__(2 ** 20)
        assert time.perf_counter() - start < 2.0  # math.comb takes 12 s
        # P(sum = 0) = C(d, d/2)/2^d is about sqrt(2/(pi d))
        assert p == pytest.approx(0.5 - math.sqrt(2 / (math.pi * 2 ** 20)) / 2,
                                  rel=1e-9)

    def test_cube_rejects_unknown_queries(self):
        pop = CubePopulation(2)
        with pytest.raises(ValueError):
            pop.truth(TestQuery(1, lambda x: 0.5, name="opaque"))

    def test_discretized_gaussian_masses_normalized(self):
        pop = population_generators(
            "discretized_gaussian",
            {"lo": -4, "hi": 4, "points": 101, "mu": 0, "sigma": 1})
        assert abs(pop.ground_truth.masses.sum() - 1.0) <= 1e-12

    def test_unknown_population(self):
        with pytest.raises(ValueError):
            population_generators("cauchy", {})
        with pytest.raises(ValueError):
            population_generators("bernoulli", {"p": 0.3, "qq": 1})

    def test_grid_mean_dist_matches_enumeration(self):
        # dual route: exact convolution vs direct product enumeration
        xs = tuple(np.linspace(-1.0, 1.0, 5))
        masses = np.array([0.1, 0.2, 0.4, 0.2, 0.1])
        from adasub.core import GroundTruth
        pop = FinitePopulation(GroundTruth(xs, masses), "small-grid")
        centers = tuple(np.linspace(-2.0, 2.0, 9))
        for w, shift in ((1, 0.0), (2, 0.5), (3, -0.25)):
            q = grid_mean_query(w, shift, centers)
            conv = pop.response_dist(q)
            enum = population_response_pmf(scalar_grid_mean(q), pop.ground_truth)
            assert np.max(np.abs(conv.masses - enum.masses)) <= 1e-12

    def test_grid_mean_dist_equals_the_cell_loop_bit_for_bit(self):
        # the per-sum loop the vectorized oracle replaced, kept as reference
        def loop_dist(pop, q, w, shift):
            xs = pop._support.astype(float)
            step = xs[1] - xs[0]
            conv = pop._masses.astype(float)
            for _ in range(w - 1):
                conv = np.convolve(conv, pop._masses)
            centers = tuple(float(c) for c in q.outputs)
            out = np.zeros(len(centers))
            cstep = centers[1] - centers[0]
            for j, mass in enumerate(conv):
                if mass == 0.0:
                    continue
                total = xs[0] * w + step * j
                out[grid_cell(total, w, shift, centers[0], cstep, len(centers))] += mass
            return out / out.sum()

        pop = population_generators("discretized_gaussian", {})
        analyst = ShiftingMeanAnalyst(T=50)
        laws = 0
        for w in range(1, analyst.w_max + 1):
            for cells in range(-analyst.max_shift, analyst.max_shift + 1):
                shift = cells * analyst.r_step
                q = grid_mean_query(w, shift, analyst.centers)
                got = pop.response_dist(q).masses
                assert np.array_equal(got, loop_dist(pop, q, w, shift))
                laws += 1
        assert laws == 28


    def test_overflowing_quotient_takes_an_end_cell(self):
        step = 1e-320
        centers = tuple((i - 31.5) * step for i in range(64))
        assert grid_cell(1.0, 1, 0.0, centers[0], step, 64) == 63
        assert grid_cell(-1.0, 1, 0.0, centers[0], step, 64) == 0
        assert grid_mean_query(1, 0.0, centers).batch(
            np.array([[1.0], [-1.0]])).tolist() == [63, 0]
        pop = population_generators("discretized_gaussian", {"points": 33})
        for w in (1, 2):
            q = grid_mean_query(w, 0.0, centers)
            conv = pop.response_dist(q).masses
            enum = population_response_pmf(
                scalar_grid_mean(q), pop.ground_truth).masses
            assert np.max(np.abs(conv - enum)) <= 1e-12
            assert conv[0] == pytest.approx(conv[-1]) and conv[0] > 0.45


    def test_grid_law_cached_per_tag_and_outputs(self):
        params = {"lo": -3.0, "hi": 3.0, "points": 101, "mu": 0.3, "sigma": 0.9}
        pop = population_generators("discretized_gaussian", params)
        centers = ShiftingMeanAnalyst(T=1, r_cells=40, r_step=0.7).centers
        law = pop.response_dist(grid_mean_query(3, 0.7, centers))
        again = pop.response_dist(grid_mean_query(3, 0.7, centers))
        assert again is law
        fresh = population_generators("discretized_gaussian", params)
        assert np.array_equal(
            law.masses, fresh.response_dist(grid_mean_query(3, 0.7, centers)).masses)
        # the same tag over other outputs is another law
        wider = ShiftingMeanAnalyst(T=1, r_cells=40, r_step=1.4).centers
        other = pop.response_dist(grid_mean_query(3, 0.7, wider))
        assert other is not law and other.outputs == wider
        assert np.array_equal(
            other.masses, fresh.response_dist(grid_mean_query(3, 0.7, wider)).masses)
        assert not np.array_equal(other.masses, law.masses)


_GRID_ELEMENTS = st.one_of(
    st.sampled_from([0.1, 0.2, 0.3, 0.7, 1.6, 2.5, -0.0, 0.0, 1.0, 1e-17, 1e16]),
    st.integers(0, 100).map(lambda j: -3.0 + 0.06 * j),  # a non-dyadic grid
    st.floats(-50.0, 50.0))


@st.composite
def _grid_batch_cases(draw):
    """(w, shift, centres, rows): centres as the shifting-means analyst
    builds them, with steps that are not powers of two and one so small
    that most quotients overflow."""
    w = draw(st.integers(1, 4))
    cells = draw(st.integers(2, 40))
    step = draw(st.sampled_from([1.0, 0.4, 0.3, 0.7, 1.6, 1e-320]))
    centers = tuple((i - (cells - 1) / 2) * step for i in range(cells))
    shift = draw(st.one_of(st.integers(-3, 3).map(lambda c: c * step),
                           st.floats(-5.0, 5.0)))
    rows = draw(st.lists(st.lists(_GRID_ELEMENTS, min_size=w, max_size=w),
                         min_size=1, max_size=12))
    return w, shift, centers, rows


class TestGridMeanBatch:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(case=_grid_batch_cases())
    # a left-to-right sum gives 0.6000000000000001 and cell 1; fsum gives
    # 0.6, a quotient just below the half-way point, and cell 0
    @example(case=(3, 0.0, tuple(0.4 * i for i in range(8)), [[0.1, 0.2, 0.3]]))
    # exact half-way quotients round to even
    @example(case=(2, 0.0, tuple(float(i) for i in range(10)),
                   [[2.0, 3.0], [3.0, 4.0], [-1.0, 0.0]]))
    @example(case=(2, 0.0, (-1.0, 0.0, 1.0), [[-0.0, -0.0], [0.1, -0.1]]))
    @example(case=(2, 0.5, (0.0, 1.0, 2.0, 3.0), [[1, 0], [1, 1], [0, 0]]))
    @example(case=(1, 0.0, tuple((i - 31.5) * 1e-320 for i in range(64)),
                   [[1.0], [-1.0], [0.0]]))
    def test_batch_equals_evaluator_row_by_row(self, case):
        # the reference is math.fsum of each row and the scalar cell rule;
        # the evaluator, derived from the batch, must give the same values
        w, shift, centers, rows = case
        q = grid_mean_query(w, shift, centers)
        step = centers[1] - centers[0]
        want = [grid_cell(math.fsum(row), w, shift, centers[0], step, len(centers))
                for row in rows]
        got = q.batch(np.array(rows))
        assert got.dtype.kind == "i"
        assert got.tolist() == want
        assert [q.evaluator(*row) for row in rows] == [centers[i] for i in want]

    def test_overflowing_sum_raises_like_the_evaluator(self):
        q = grid_mean_query(2, 0.0, (0.0, 1.0))
        with pytest.raises(OverflowError):
            scalar_grid_mean(q).evaluator(1e308, 1e308)
        with pytest.raises(OverflowError):
            q.evaluator(1e308, 1e308)
        with pytest.raises(OverflowError):
            q.batch(np.array([[1.0, 2.0], [1e308, 1e308]]))


class TestAnalysts:
    def test_fixed_replays_queries(self):
        qs = [constant_test(0.2), identity_test()]
        a = FixedAnalyst(qs)
        assert a.rounds == 2
        assert a.next_query(1, ()) is qs[0]
        assert a.final_tests((0.5, 0.5)) == qs

    def test_fixed_requires_queries(self):
        with pytest.raises(ValueError):
            FixedAnalyst([])

    def test_random_correlation_round_one_truth(self):
        a = RandomCorrelationAnalyst(1)
        pop = CubePopulation(1)
        [test] = a.final_tests((0.7,))
        assert pop.truth(test) == pytest.approx(0.5, abs=1e-15)

    def test_random_correlation_signs(self):
        a = RandomCorrelationAnalyst(3)
        [test] = a.final_tests((0.9, 0.1, 0.5))
        assert test.tag == ("sign_sum", (1, -1, 1))  # ties count as +1

    def test_shifting_means_declares_profiles(self):
        a = ShiftingMeanAnalyst(T=6, w_max=4)
        assert a.w_list == [1, 2, 3, 4, 1, 2]
        assert a.r_sizes == [64] * 6
        q = a.next_query(1, ())
        assert q.arity == 1 and len(q.outputs) == 64

    def test_shifting_means_shift_bounded(self):
        a = ShiftingMeanAnalyst(T=10, w_max=2, max_shift=3)
        responses = ()
        for t in range(1, 11):
            q = a.next_query(t, responses)
            shift_cells = q.tag[2] / a.r_step
            assert abs(shift_cells) <= 3 + 1e-9
            responses = responses + (float(q.outputs[40]),)


class TestNaive:
    def test_constant_and_identity(self):
        S = Dataset([1, 0, 0])
        assert naive_answer(S, constant_test(0.7)) == pytest.approx(0.7, abs=1e-12)
        assert naive_answer(S, identity_test()) == pytest.approx(1 / 3, abs=1e-15)

    def test_sq_with_huge_k_agrees(self):
        S = Dataset([1, 1, 0, 0, 0, 0])
        sq = SqSession(S, 0.0, 1_000_000, RandomSource(2), 0.1)
        assert abs(sq.answer(identity_test()) - naive_answer(S, identity_test())) \
            <= 0.002

    def test_naive_answers_independent_of_query_order(self):
        queries = ["identity", {"kind": "constant", "value": 0.3}]
        a = run_experiment(sq_config(
            mechanism={"name": "naive-empirical"},
            analyst={"name": "fixed", "queries": queries}))
        b = run_experiment(sq_config(
            mechanism={"name": "naive-empirical"},
            analyst={"name": "fixed", "queries": list(reversed(queries))}))
        for report in (a, b):
            report.by_query = {
                (r["trial"], r["query_id"]): r["answer"]
                for r in report.rows if not r["query_id"].startswith("test:")}
        assert a.by_query == b.by_query


class TestRunExperiment:
    def test_constant_zero_query_is_exact(self):
        cfg = sq_config(analyst={"name": "fixed",
                                 "queries": [{"kind": "constant", "value": 0.0}]},
                        mechanism={"name": "subsampling-sq", "tau": 0.3,
                                   "delta": 0.2, "epsilon": 0.0})
        report = run_experiment(cfg)
        query_rows = [r for r in report.rows
                      if not r["query_id"].startswith("test:")]
        assert all(r["bias"] == 0.0 for r in query_rows)

    def test_same_seed_reproduces_rows(self):
        r1 = run_experiment(sq_config())
        r2 = run_experiment(sq_config())
        assert r1.rows == r2.rows
        assert r1.summary == r2.summary

    def test_sq_rows_reuse_the_sessions_sample_mean(self, monkeypatch):
        import adasub.harness as hz
        calls = []
        monkeypatch.setattr(hz, "naive_answer",
                            lambda S, q, _f=hz.naive_answer: calls.append(q.name)
                            or _f(S, q))
        cfg = sq_config(n=50, population={"name": "uniform_pm1_cube", "d": 6},
                        mechanism={"name": "subsampling-sq", "tau": 0.3,
                                   "delta": 0.2},
                        analyst={"name": "random-correlation", "T": 6})
        report = run_experiment(cfg)
        assert calls == ["test:sign-sum"] * 2  # only the final tests
        pop = CubePopulation(6)
        for r in report.rows[:6] + report.rows[7:13]:
            S = pop.draw(50, RandomSource(11).child(r["trial"], 0))
            q = coordinate_indicator(r["t"] - 1)
            assert r["sample_value"] == float(q.values_on(S).mean())

    def test_long_session_row_costs_sum_to_ledger(self, monkeypatch):
        import adasub.harness as hz
        T, n = 4000, 8
        analyst = RandomCorrelationAnalyst(T)
        ledgers, charged = [], []  # every accepted charge, in order
        charge = BudgetLedger.charge

        def spy_charge(ledger, amount):
            charge(ledger, amount)
            charged.append(amount)

        monkeypatch.setattr(BudgetLedger, "charge", spy_charge)

        def trial(mech):
            open_session = mech.open

            def spy(S, rng, ledger):
                ledgers.append(ledger)
                return open_session(S, rng, ledger)

            monkeypatch.setattr(mech, "open", spy)
            rows = hz._run_trial(0, n, CubePopulation(T), analyst, mech,
                                 RandomSource(4))
            assert len(rows) == T + 1
            return rows

        rows = trial(hz.SqMechanism({"delta": 0.1, "epsilon": 0.1, "k": 3}, n, analyst))
        assert len(charged) == T
        assert math.fsum(r["cost"] for r in rows) \
            == pytest.approx(ledgers[0].total, rel=1e-9)
        # each answered row costs exactly what its session charged, in order
        assert [r["cost"] for r in rows[:T]] == charged
        # the baseline charges nothing, so every row reads 0.0
        rows = trial(hz.NaiveMechanism({}, n, analyst))
        assert all(r["cost"] == 0.0 for r in rows)
        assert len(charged) == T and ledgers[1].total == 0.0

    def test_different_seed_changes_answers(self):
        r1 = run_experiment(sq_config(seed=1))
        r2 = run_experiment(sq_config(seed=2))
        assert r1.rows != r2.rows

    def test_ledger_and_row_costs_agree(self):
        cfg = sq_config(trials=3)
        report = run_experiment(cfg)
        k = report.summary["k"]
        eps = report.summary["epsilon"]
        per_query = k * cost_hp(60, 2, eps, 0.2)
        for trial in range(3):
            costs = [r["cost"] for r in report.rows if r["trial"] == trial
                     and not r["query_id"].startswith("test:")]
            assert sum(costs) == pytest.approx(2 * per_query, rel=1e-12)
        assert report.summary["mi_upper_bound"] \
            == pytest.approx(60 * 2 * per_query, rel=1e-9)

    def test_answered_sq_rows_cost_one_sq_answer(self):
        report = run_experiment(sq_config(trials=3))
        s = report.summary
        want = sq_answer_cost(60, s["k"], s["epsilon"], 0.2)
        answered = [r for r in report.rows if not r["query_id"].startswith("test:")]
        assert len(answered) == 3 * 2
        assert all(r["cost"] == want for r in answered)

    def test_sidecar_mi_bound_is_mi_upper_bound(self):
        s = run_experiment(sq_config(trials=3)).summary
        assert s["total_cost_per_trial_mean"] > 0
        assert s["mi_upper_bound"] == mi_upper_bound(s["n"],
                                                     s["total_cost_per_trial_mean"])

    def test_naive_mechanism_answers_sample_means(self):
        cfg = sq_config(mechanism={"name": "naive-empirical", "tau": 0.3})
        report = run_experiment(cfg)
        for r in report.rows:
            assert r["answer"] == pytest.approx(r["sample_value"], abs=1e-15)

    def test_summary_recomputable(self):
        report = run_experiment(sq_config(trials=3))
        report.verify_consistency()

    def test_row_count_includes_test_rows(self):
        report = run_experiment(sq_config(trials=2))
        # 2 queries + 2 fixed-analyst tests per trial
        assert len(report.rows) == 2 * 4
        assert report.summary["rows"] == 8

    def test_unknown_mechanism_rejected(self):
        with pytest.raises(ValueError):
            run_experiment(sq_config(mechanism={"name": "magic"}))

    def test_mechanism_param_typo_rejected(self):
        with pytest.raises(ValueError):
            run_experiment(sq_config(
                mechanism={"name": "subsampling-sq", "tau": 0.3, "delta": 0.2,
                           "kk": 3}))

    def test_analyst_population_mismatch(self):
        cfg = sq_config(analyst={"name": "random-correlation", "T": 2})
        with pytest.raises(ValueError):
            run_experiment(cfg)
        cfg = sq_config(population={"name": "uniform_pm1_cube", "d": 5},
                        analyst={"name": "random-correlation", "T": 2})
        with pytest.raises(ValueError):
            run_experiment(cfg)

    def test_protocol_hides_sample_from_analyst(self):
        seen = []

        class Spy(Analyst):
            rounds = 2

            def next_query(self, t, responses):
                seen.append((t, responses))
                return constant_test(0.5)

        import adasub.harness as hz
        orig = hz.make_analyst
        hz.make_analyst = lambda name, params: Spy()
        try:
            run_experiment(sq_config(trials=1))
        finally:
            hz.make_analyst = orig
        assert len(seen) == 2
        for t, responses in seen:
            assert isinstance(responses, Sequence)
            assert all(isinstance(v, float) for v in responses)

    def test_analyst_is_lent_one_response_list(self, monkeypatch):
        # a copy of the prefix per round would cost O(T^2) over a trial
        seen = []

        class Spy(Analyst):
            rounds = 3

            def next_query(self, t, responses):
                seen.append((responses, len(responses)))
                return constant_test(0.5)

            def final_tests(self, responses):
                seen.append((responses, len(responses)))
                return []

        import adasub.harness as hz
        monkeypatch.setattr(hz, "make_analyst", lambda name, params: Spy())
        run_experiment(sq_config(trials=1))
        assert [size for _, size in seen] == [0, 1, 2, 3]
        assert all(responses is seen[0][0] for responses, _ in seen)

    @pytest.mark.parametrize("cfg", [
        sq_config(n=50, population={"name": "uniform_pm1_cube", "d": 3},
                  analyst={"name": "random-correlation", "T": 3}),
        ExperimentConfig(seed=5, trials=2, n=400,
                         population={"name": "discretized_gaussian", "points": 129},
                         mechanism={"name": "median", "delta": 0.2},
                         analyst={"name": "shifting-means", "T": 3, "w_max": 2,
                                  "r_cells": 16, "r_step": 1.6}),
    ], ids=["sq", "median"])
    def test_trial_derives_only_the_streams_it_uses(self, cfg, monkeypatch):
        # the sample's and the session's; analysts take no stream
        paths = []
        child = RandomSource.child

        def spy(self, *labels):
            source = child(self, *labels)
            paths.append(source.path)
            return source

        monkeypatch.setattr(RandomSource, "child", spy)
        run_experiment(cfg)
        assert sorted(paths) == [p for t in range(2) for p in ((t,), (t, 0), (t, 1))]

    def test_fixed_naive_bias_within_sampling_theory(self):
        # |phi(S) - phi(D)| beyond 3 sigma in at most 1% of trials
        cfg = sq_config(trials=300, n=400,
                        mechanism={"name": "naive-empirical"},
                        analyst={"name": "fixed", "queries": ["identity"]})
        report = run_experiment(cfg)
        sigma = math.sqrt(0.3 * 0.7 / 400)
        rows = [r for r in report.rows if not r["query_id"].startswith("test:")]
        exceed = sum(1 for r in rows if r["bias"] > 3 * sigma)
        assert exceed <= 3

    def test_budget_refusal_recorded_not_fatal(self):
        # room for exactly one answered query per trial in almost-sure mode
        params = sq_params(60, 2, 0.3, 0.2)
        per_query = params.k * cost_hp(60, 2, params.epsilon, 0.2)
        cfg = sq_config(mechanism={
            "name": "subsampling-sq", "tau": 0.3, "delta": 0.2,
            "budget_mode": "almost_sure", "budget_limit": 1.5 * per_query})
        report = run_experiment(cfg)
        for trial in (0, 1):
            rows = [r for r in report.rows if r["trial"] == trial]
            assert len(rows) == 2  # one answer, one recorded refusal, no tests
            assert not math.isnan(rows[0]["bias"])
            assert math.isnan(rows[1]["answer"]) and rows[1]["cost"] == 0.0
            assert rows[1]["sample_value"] == 0.0  # the refused query's own
            assert rows[1]["within_bound"] == 0
        assert not math.isnan(report.summary["max_bias"])
        report.verify_consistency()

    def test_median_run_smoke(self):
        cfg = ExperimentConfig(
            seed=5, trials=2, n=400,
            population={"name": "discretized_gaussian", "points": 129},
            mechanism={"name": "median", "delta": 0.2},
            analyst={"name": "shifting-means", "T": 3, "w_max": 2,
                     "r_cells": 16, "r_step": 1.6},
        )
        report = run_experiment(cfg)
        s = report.summary
        assert s["mi_upper_bound"] == mi_upper_bound(s["n"],
                                                     s["total_cost_per_trial_mean"])
        rows = report.rows
        assert len(rows) == 2 * 3
        for r in rows:
            assert r["mechanism"] == "median"
            assert r["threshold"] == 0.4
            assert r["cost"] > 0
        # mechanism answers live on the query grid
        centers = ShiftingMeanAnalyst(T=3, w_max=2, r_cells=16, r_step=1.6).centers
        assert all(r["answer"] in centers for r in rows)
        report.verify_consistency()

    def test_median_refusal_recorded_not_fatal(self):
        cfg = ExperimentConfig(
            seed=9, trials=3, n=400,
            population={"name": "discretized_gaussian", "points": 129},
            mechanism={"name": "median", "delta": 0.2,
                       "budget_mode": "almost_sure", "budget_limit": 400.0},
            analyst={"name": "shifting-means", "T": 6, "w_max": 2,
                     "r_cells": 16, "r_step": 1.6})
        report = run_experiment(cfg)
        for trial in range(3):
            rows = [r for r in report.rows if r["trial"] == trial]
            *answered, refused = rows  # the trial ends at its refusal
            assert len(rows) < 6
            assert all(not math.isnan(r["answer"]) and r["cost"] > 0
                       for r in answered)
            assert math.isnan(refused["answer"])
            assert math.isnan(refused["sample_value"])
            assert math.isnan(refused["bias"])
            assert refused["threshold"] == 0.4
            assert refused["within_bound"] == 0
            assert refused["cost"] == 0.0
        report.verify_consistency()

    @pytest.mark.parametrize("over,needle", [
        ({"analyst": {"name": "fixed", "queries": [{"kind": "coord", "j": 3}]}},
         "coord:3"),
        ({"population": {"name": "uniform_pm1_cube", "d": 3},
          "analyst": {"name": "fixed", "queries": [{"kind": "coord", "j": 3}]}},
         "outside the cube"),
        ({"population": {"name": "uniform_pm1_cube", "d": 3}}, "identity"),
        ({"mechanism": {"name": "subsampling-sq", "delta": 0.2,
                        "epsilon": 0.1, "k": 0}}, "k >= 1"),
        ({"mechanism": {"name": "subsampling-sq", "tau": 0.3, "delta": 0.2,
                        "budget_mode": "sometimes"}}, "mode"),
        ({"population": {"name": "uniform_pm1_cube", "d": 3},
          "mechanism": {"name": "median", "delta": 0.2},
          "analyst": {"name": "shifting-means", "T": 3}}, "finite population"),
        ({"n": 10, "mechanism": {"name": "median", "delta": 0.4},
          "analyst": {"name": "shifting-means", "T": 6, "w_max": 2,
                      "r_cells": 16}}, "39 groups"),
        ({"n": 8, "population": {"name": "discretized_gaussian", "points": 9},
          "mechanism": {"name": "median", "delta": 0.5, "c_m": 0.5},
          "analyst": {"name": "shifting-means", "T": 4, "w_max": 4,
                      "r_cells": 8}}, "groups of as few as 4 elements"),
        ({"analyst": {"name": "fixed"}}, "queries must be given in the fixed spec"),
    ])
    def test_misfit_config_rejected_before_any_trial(self, over, needle,
                                                     monkeypatch):
        import adasub.harness as hz
        monkeypatch.setattr(hz, "_run_trial", None)  # a trial would crash
        with pytest.raises(hz.ConfigError, match=needle):
            hz.check_config(sq_config(**over))
        with pytest.raises(hz.ConfigError, match=needle):
            run_experiment(sq_config(**over))

    @pytest.mark.parametrize("key,value", [
        ("trials", 2.5), ("n", 40.9), ("seed", 1.5), ("trials", True),
        ("n", "40"),
    ])
    def test_config_rejects_non_integer_counts(self, key, value):
        import adasub.harness as hz
        with pytest.raises(hz.ConfigError, match=f"{key} must be an integer"):
            sq_config(**{key: value})

    @pytest.mark.parametrize("value", [True, "0.3", math.nan, None, [1]])
    def test_config_number_rejects_non_numbers(self, value):
        # a required real key, as the mechanisms' delta is
        import adasub.harness as hz
        with pytest.raises(hz.ConfigError, match="^delta must be a number"):
            hz.read_keys({"delta": hz.Key(hz.number)}, {"delta": value}, "spec")

    def test_config_number_accepts_ints_floats_and_infinity(self):
        import adasub.harness as hz
        values = (3, 0.25, -math.inf, np.float32(0.5), np.int64(2))
        got = [hz.read_keys({"x": hz.Key(hz.number)}, {"x": v}, "spec")["x"]
               for v in values]
        assert got == [3.0, 0.25, -math.inf, 0.5, 2.0]
        assert all(type(x) is float for x in got)

    def test_config_accepts_numpy_integers(self):
        cfg = sq_config(trials=np.int64(2), n=np.int32(60))
        assert run_experiment(cfg).summary["trials"] == 2

    def test_config_validation(self):
        with pytest.raises(ValueError):
            sq_config(trials=0)
        with pytest.raises(ValueError):
            sq_config(population={"p": 0.3})
