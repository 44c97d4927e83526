import itertools
import math
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import adasub.core as core
import adasub.divergence as dv
import adasub.engine as engine
from adasub.cli import run_suite
from adasub.core import Dataset, EnumerationCapExceeded, Query
from adasub.divergence import (
    PMF_BLOCK,
    SUITE_BLOCK,
    alkl_bound_general,
    alkl_bound_uniform,
    chi2_divergence,
    chi2_divergence_rows,
    chi2_stability_bound,
    kl_divergence,
    kl_divergence_rows,
    measure_leave_one_out_chi2,
    measure_leave_one_out_kl,
    random_pmf_rows,
    random_query_instance,
    random_subset_rows,
    sample_exceeds_mean_exact,
    sample_exceeds_mean_probe,
    verify_kl_chi2_inequality,
    verify_kl_mixture_inequality,
    verify_variance_contraction,
)
from adasub.engine import RandomSource, ResponsePMF, exact_response_pmf, uniformize

IDENT = Query.deterministic(1, (0, 1), lambda x: x, name="id")


def pmf(*masses):
    return ResponsePMF(tuple(range(len(masses))), np.array(masses))


def subset_functions(seed, linear=False):
    """Block 0 of random_subset_rows as (n, w, f), f keyed by the ascending
    index tuples in ``itertools.combinations`` order."""
    ns, ws, vals = random_subset_rows(seed, 0, linear)
    for n, w, row in zip(ns.tolist(), ws.tolist(), vals):
        yield n, w, dict(zip(itertools.combinations(range(n), w), row.tolist()))


def assert_rows_are_one_row_calls(block, group, out):
    """Row k of a ``table_chi2_rows`` result ``out`` equals
    ``measure_leave_one_out_chi2`` on instance group[k] of ``block`` bit for
    bit, with its law exactly 0.0 past its own |Y|."""
    measured, bound, per, laws = out
    for k, j in enumerate(group):
        report = measure_leave_one_out_chi2(*block.instance(j))
        ysize = len(report.law.masses)
        assert float(measured[k]) == report.measured
        assert float(bound[k]) == report.bound
        assert tuple(per[k].tolist()) == report.per_index
        assert np.array_equal(laws[k, :ysize], report.law.masses)
        assert (laws[k, ysize:] == 0.0).all()


def within_4se(hits, count, p):
    assert abs(hits / count - p) <= 4 * math.sqrt(p * (1 - p) / count)


def pmf_pairs(seed, count):
    """The (D, E) laws of random_pmf_rows' instances 0..count-1, count at
    most PMF_BLOCK."""
    sizes, d, e = random_pmf_rows(seed, 0)
    for k, dr, er in zip(sizes[:count], d, e):
        yield pmf(*dr[:k]), pmf(*er[:k])


class TestKL:
    def test_zero_on_equal(self):
        assert kl_divergence(pmf(0.3, 0.7), pmf(0.3, 0.7)) == 0.0

    def test_point_vs_uniform(self):
        assert kl_divergence(pmf(1.0, 0.0), pmf(0.5, 0.5)) \
            == pytest.approx(math.log(2), abs=1e-15)

    def test_direct_evaluation(self):
        want = 0.5 * math.log(2) + 0.5 * math.log(2 / 3)
        assert kl_divergence(pmf(0.5, 0.5), pmf(0.25, 0.75)) \
            == pytest.approx(want, abs=1e-15)
        assert want == pytest.approx(0.143841, abs=1e-6)

    def test_infinite_when_support_escapes(self):
        assert kl_divergence(pmf(0.5, 0.5), pmf(1.0, 0.0)) == math.inf

    def test_range_mismatch(self):
        with pytest.raises(ValueError):
            kl_divergence(pmf(1.0), pmf(0.5, 0.5))


class TestChi2:
    def test_zero_on_equal(self):
        assert chi2_divergence(pmf(0.4, 0.6), pmf(0.4, 0.6)) == 0.0

    def test_direct_evaluation(self):
        assert chi2_divergence(pmf(0.5, 0.5), pmf(0.25, 0.75)) \
            == pytest.approx(0.25, abs=1e-15)

    def test_nested_support_finite(self):
        assert chi2_divergence(pmf(0.5, 0.5), pmf(0.0, 1.0)) \
            == pytest.approx(1.0, abs=1e-15)

    def test_infinite_when_support_not_nested(self):
        assert chi2_divergence(pmf(1.0, 0.0), pmf(0.5, 0.5)) == math.inf

    def test_zero_iff_equal(self):
        for dp, ep in pmf_pairs(1, 50):
            if chi2_divergence(dp, ep) == 0.0:
                assert np.allclose(dp.masses, ep.masses, atol=1e-12)
            if kl_divergence(dp, ep) == 0.0:
                assert np.allclose(dp.masses, ep.masses, atol=1e-12)


def _kl_loop(d, e):
    total = 0.0
    for a, b in zip(d, e):
        if a <= 0.0:
            continue
        if b <= 0.0:
            return math.inf
        total += a * math.log(a / b)
    return total


def _chi2_loop(d, e):
    total = 0.0
    for a, b in zip(d, e):
        if a <= 0.0:
            if b > 0.0:
                return math.inf
            continue
        total += (a - b) ** 2 / a
    return total


@st.composite
def _mass_row_pairs(draw):
    """Two (m, k) arrays of normalized rows (an all-zero row stays zero),
    with exact zero masses on either side."""
    m, k = draw(st.integers(1, 4)), draw(st.integers(1, 7))
    cell = st.one_of(st.just(0.0), st.floats(1e-9, 1.0))

    def rows():
        raw = np.array(draw(st.lists(cell, min_size=m * k, max_size=m * k)))
        raw = raw.reshape(m, k)
        sums = raw.sum(axis=1, keepdims=True)
        return np.divide(raw, sums, out=raw.copy(), where=sums > 0.0)
    return rows(), rows()


class TestRowWiseDivergences:
    """The row-wise primitives against the per-element loops they replaced."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(pair=_mass_row_pairs())
    def test_rows_match_the_per_element_loops(self, pair):
        d, e = pair
        for rows, loop in ((kl_divergence_rows, _kl_loop),
                           (chi2_divergence_rows, _chi2_loop)):
            got = rows(d, e)
            assert got.shape == (len(d),)
            for g, want in zip(got.tolist(), (loop(a, b) for a, b in zip(d, e))):
                assert (g == math.inf) == (want == math.inf)
                if want != math.inf:
                    assert g == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_zero_masses_on_either_side(self):
        d = np.array([[0.5, 0.5, 0.0], [0.5, 0.5, 0.0], [0.0, 1.0, 0.0]])
        e = np.array([[0.5, 0.0, 0.5], [0.25, 0.75, 0.0], [0.5, 0.5, 0.0]])
        assert kl_divergence_rows(d, e).tolist() == [
            math.inf, _kl_loop(d[1], e[1]), math.log(2)]
        assert chi2_divergence_rows(d, e).tolist() == [
            math.inf, _chi2_loop(d[1], e[1]), math.inf]

    def test_broadcasts_over_leading_axes(self):
        sizes, d, e = random_pmf_rows(3, 0)
        d, e = d[:12].reshape(3, 4, -1), e[:12].reshape(3, 4, -1)
        for rows in (kl_divergence_rows, chi2_divergence_rows):
            assert rows(d, e).shape == (3, 4)
            assert np.array_equal(rows(d, e)[1], rows(d[1], e[1]))
            assert rows(d[0, 0], e).shape == (3, 4)
            assert rows(d[0, 0], e[0, 0]).shape == ()

    def test_draws_replay_from_each_instance_stream(self):
        # instance i is row i % PMF_BLOCK of block i // PMF_BLOCK
        for i in (0, 1, PMF_BLOCK - 1, PMF_BLOCK, PMF_BLOCK + 7, 3 * PMF_BLOCK + 2):
            block, j = divmod(i, PMF_BLOCK)
            sizes, d, e = random_pmf_rows(9, block)
            assert sizes.shape == (PMF_BLOCK,)
            assert d.shape == e.shape == (PMF_BLOCK, 6)
            gen = RandomSource(9).child(block).generator
            k = int(gen.integers(2, 7, size=PMF_BLOCK)[j])
            assert sizes[j] == k
            for rows, x in zip((d, e), gen.standard_exponential((2, PMF_BLOCK, 6))):
                masses = x[j, :k].tolist()
                assert rows[j, :k].tolist() == [v * (1.0 / sum(masses)) for v in masses]
                assert not rows[j, k:].any()


class TestPmfRows:
    """The pair-of-laws stream: instance i is row i % PMF_BLOCK of block
    i // PMF_BLOCK, drawn from RandomSource(seed).child(i // PMF_BLOCK)."""

    @pytest.mark.parametrize("suite", ["kl-chi2", "kl-mixture"])
    def test_instances_do_not_depend_on_the_trial_count(self, monkeypatch, suite):
        # a tolerance of -5 fails 30-70% of the rows, so both verdicts occur
        monkeypatch.setattr(dv, "INEQ_TOL", -5.0)
        full = run_suite(suite, trials=PMF_BLOCK + 1, seed=11).failures
        for t in (1, 5, PMF_BLOCK):
            want = [f for f in full if int(f.split(":")[0].split()[1]) < t]
            assert run_suite(suite, trials=t, seed=11).failures == want
        assert 0.3 * PMF_BLOCK < len(full) < 0.7 * PMF_BLOCK

    def test_sizes_and_masses_follow_their_laws(self):
        blocks = [random_pmf_rows(2026, b) for b in range(16)]
        sizes = np.concatenate([b[0] for b in blocks])
        d1, e1 = (np.concatenate([b[r][:, 0] for b in blocks]) for r in (1, 2))
        m = sizes.size
        # uniform sizes on 2..6
        for k in range(2, 7):
            within_4se(np.count_nonzero(sizes == k), m, 1 / 5)
        # given size k, a first mass is Beta(1, k-1): Pr[X <= x] = 1 - (1-x)^(k-1)
        for k in range(2, 7):
            of_k = sizes == k
            for first in (d1[of_k], e1[of_k]):
                for x in (0.05, 0.2, 0.4, 0.6, 0.9):
                    within_4se(np.count_nonzero(first <= x), first.size,
                               1 - (1 - x) ** (k - 1))
        # D and E independent given the size: their first masses, mapped
        # through that CDF, fall in each cell of a 4 x 4 grid w.p. 1/16
        u_d, u_e = (1 - (1 - x) ** (sizes - 1) for x in (d1, e1))
        quarter_d, quarter_e = (np.minimum((4 * u).astype(int), 3) for u in (u_d, u_e))
        cells = 4 * quarter_d + quarter_e
        for cell in range(16):
            within_4se(np.count_nonzero(cells == cell), m, 1 / 16)


class TestStabilityBound:
    def test_values(self):
        assert chi2_stability_bound(3, 1, 2) == pytest.approx(0.25, abs=1e-15)
        assert chi2_stability_bound(10, 2, 1) == 0.0
        assert chi2_stability_bound(100, 1, 2) == pytest.approx(1 / 9801, abs=1e-18)

    def test_domain(self):
        with pytest.raises(ValueError):
            chi2_stability_bound(3, 3, 2)
        with pytest.raises(ValueError):
            chi2_stability_bound(3, 0, 2)


class TestLeaveOneOutChi2:
    def test_hand_enumeration(self):
        report = measure_leave_one_out_chi2(IDENT, Dataset([1, 0, 0]))
        assert sorted(report.per_index) == pytest.approx([1 / 8, 1 / 8, 1 / 2],
                                                         abs=1e-15)
        assert report.measured == pytest.approx(0.25, abs=1e-15)
        assert report.bound == pytest.approx(0.25, abs=1e-15)
        assert report.bound - report.measured == pytest.approx(0.0, abs=1e-12)

    def test_constant_query(self):
        q = Query.deterministic(1, (0, 1), lambda x: 0, name="c")
        report = measure_leave_one_out_chi2(q, Dataset([1, 2, 3, 4]))
        assert report.measured == 0.0

    def test_random_instances_within_bound(self):
        for i in range(100):
            gen = RandomSource(123).child(i).generator
            q, S = random_query_instance(gen)
            report = measure_leave_one_out_chi2(q, S)  # raises on violation
            assert report.measured <= report.bound + 1e-10
            assert np.mean(report.per_index) == pytest.approx(report.measured,
                                                              abs=1e-12)


    def test_measures_equal_the_per_dataset_loop(self):
        # the old route: one enumeration per leave-one-out dataset
        for i in range(60):
            gen = RandomSource(124).child(i).generator
            q, S = random_query_instance(gen)
            if i % 3 == 0:
                q = uniformize(q, 0.05)
            full = exact_response_pmf(q, S)
            loo = [exact_response_pmf(q, S.leave_one_out(j)) for j in range(len(S))]
            report = measure_leave_one_out_chi2(q, S)
            assert np.array_equal(report.law.masses, full.masses)
            want = [chi2_divergence(full, law) for law in loo]
            mix = 0.1
            kl = float(np.mean([kl_divergence(full, ResponsePMF(
                q.outputs, (1 - mix) * law.masses + mix / len(q.outputs)))
                for law in loo]))
            if q.dist_evaluator is None:
                assert report.per_index == tuple(want)
                assert measure_leave_one_out_kl(q, S, mix) == kl
            else:
                assert report.per_index == pytest.approx(want, abs=1e-12)
                assert measure_leave_one_out_kl(q, S, mix) == pytest.approx(kl, abs=1e-12)


class TestLeaveOneOutKL:
    def test_singleton_range_is_zero(self):
        q = Query.deterministic(1, (0,), lambda x: 0, name="c")
        assert measure_leave_one_out_kl(q, Dataset([1, 2, 3]), 0.5) \
            == pytest.approx(0.0, abs=1e-15)

    def test_constant_query_closed_form(self):
        # point mass vs its mixture with Unif(Y): ln(1/(1 - mix + mix/|Y|))
        q = Query.deterministic(1, (0, 1), lambda x: 0, name="c")
        mix = 0.3
        got = measure_leave_one_out_kl(q, Dataset([1, 2, 3]), mix)
        assert got == pytest.approx(math.log(1 / (1 - mix + mix / 2)), abs=1e-12)

    def test_unsmoothed_can_be_infinite(self):
        # removing the single 1 leaves support {0} only
        assert measure_leave_one_out_kl(IDENT, Dataset([1, 0, 0]), 0.0) == math.inf

    def test_smoothed_hand_value(self):
        got = measure_leave_one_out_kl(IDENT, Dataset([1, 0, 0]), 0.25)
        kl1 = (1 / 3) * math.log((1 / 3) / 0.125) + (2 / 3) * math.log((2 / 3) / 0.875)
        kl23 = (1 / 3) * math.log(2 / 3) + (2 / 3) * math.log(4 / 3)
        assert got == pytest.approx((kl1 + 2 * kl23) / 3, abs=1e-12)
        assert got <= alkl_bound_general(0.25, 2)

    def test_bounded_at_mix_equal_to_stability(self):
        # smoothing at the chi-squared bound stays within the general
        # ALKL closed form
        for i in range(40):
            gen = RandomSource(77).child(i).generator
            q, S = random_query_instance(gen)
            eps = chi2_stability_bound(len(S), q.arity, len(q.outputs))
            if eps == 0.0:
                continue
            got = measure_leave_one_out_kl(q, S, min(eps, 1.0))
            assert got <= alkl_bound_general(eps, len(q.outputs)) + 1e-10


class TestAlklBounds:
    def test_general_values(self):
        assert alkl_bound_general(0.25, 2) \
            == pytest.approx(0.25 * (3 + 2 * math.log(8)), abs=1e-15)
        assert alkl_bound_general(0.25, 2) == pytest.approx(1.78972, abs=1e-5)
        assert alkl_bound_general(2.0, 2) == pytest.approx(6.0, abs=1e-12)
        assert alkl_bound_general(1e-4, 2) == pytest.approx(2.2807e-3, rel=1e-4)
        with pytest.raises(ValueError):
            alkl_bound_general(0.0, 2)

    def test_uniform_values(self):
        assert alkl_bound_uniform(0.25, 1, 3, 1 / 3) \
            == pytest.approx(0.25 * (1 + math.log(2)), abs=1e-15)
        assert alkl_bound_uniform(1.0, 1, 100, 0.1) \
            == pytest.approx(1 + math.log(1.1), abs=1e-15)
        # w/(np) -> 0 recovers eps
        assert alkl_bound_uniform(0.5, 1, 10 ** 9, 0.5) == pytest.approx(0.5, rel=1e-6)
        with pytest.raises(ValueError):
            alkl_bound_uniform(0.5, 1, 10, 0.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0, -1.0])
    def test_eps_and_p_must_be_finite_and_positive(self, bad):
        with pytest.raises(ValueError, match="eps must be finite and positive"):
            alkl_bound_general(bad, 2)
        for eps, p in ((bad, 0.1), (0.1, bad)):
            with pytest.raises(ValueError, match="need finite eps, p > 0"):
                alkl_bound_uniform(eps, 1, 10, p)

    @pytest.mark.parametrize("ysize", [0, -2])
    def test_general_refuses_empty_range(self, ysize):
        with pytest.raises(ValueError, match=r"need \|Y\| >= 1"):
            alkl_bound_general(0.1, ysize)

    @pytest.mark.parametrize("w, n", [(1, 0), (-5, 10), (0, 10)])
    def test_uniform_refuses_bad_sizes(self, w, n):
        with pytest.raises(ValueError, match="need n >= 1 and w >= 1"):
            alkl_bound_uniform(0.1, w, n, 0.1)


class TestVarianceContraction:
    def test_constant_function(self):
        f = {c: 3.0 for c in [(0,), (1,), (2,)]}
        lhs, rhs = verify_variance_contraction(f, 3, 1)
        assert lhs == pytest.approx(0.0, abs=1e-15)
        assert rhs == pytest.approx(0.0, abs=1e-15)

    def test_hand_linear_case(self):
        f = {(0,): 1.0, (1,): 0.0, (2,): 0.0}
        lhs, rhs = verify_variance_contraction(f, 3, 1)
        assert lhs == pytest.approx(1 / 18, abs=1e-15)
        assert rhs == pytest.approx(1 / 18, abs=1e-15)

    def test_random_functions_contract(self):
        for n, w, f in itertools.islice(subset_functions(55), 200):
            lhs, rhs = verify_variance_contraction(f, n, w)
            assert lhs <= rhs + 1e-10

    def test_linear_equality(self):
        for n, w, f in itertools.islice(subset_functions(56, linear=True), 100):
            lhs, rhs = verify_variance_contraction(f, n, w)
            assert abs(lhs - rhs) <= 1e-10

    def test_domain(self):
        with pytest.raises(ValueError):
            verify_variance_contraction({}, 3, 3)

    def test_matches_the_mask_loop(self):
        # the combination-by-combination mask loop as the reference, on
        # mapping and callable f
        instances = zip(subset_functions(59), subset_functions(59, linear=True))
        for i, pair in enumerate(itertools.islice(instances, 60)):
            n, w, f = pair[i % 2]
            combos = list(itertools.combinations(range(n), w))
            vals = np.array([f[c] for c in combos])
            mask = np.zeros((n, len(combos)), dtype=bool)
            for j, combo in enumerate(combos):
                mask[list(combo), j] = True
            lhs = float(np.array([vals[~mask[k]].mean() for k in range(n)]).var())
            rhs = w / ((n - 1) * (n - w)) * float(vals.var())
            assert verify_variance_contraction(f, n, w) == (lhs, rhs)
            assert verify_variance_contraction(f.__getitem__, n, w) == (lhs, rhs)

    def test_values_that_are_not_finite_are_refused(self):
        # a NaN side would pass the suite's dev > 1e-10 check
        for bad in (math.nan, math.inf, -math.inf):
            vals = np.ones((3, 6))
            vals[1, 4] = bad
            with pytest.raises(ValueError, match="must be finite"):
                dv.variance_contraction_rows(vals, 4, 2)
            with pytest.raises(ValueError, match="must be finite"):
                verify_variance_contraction(
                    lambda c, bad=bad: bad if c == (1, 3) else 0.5, 4, 2)

    def test_cap_counts_one_pass_per_point(self):
        # n x C(n, w) = 9,000,000 mask entries: refused before any is built
        tracemalloc.start()
        try:
            with pytest.raises(EnumerationCapExceeded, match=r"n\*C\(3000,1\)"):
                verify_variance_contraction(lambda c: float(c[0]), 3000, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024
        # 1,000,000 entries are within the cap; a linear f gives equality
        lhs, rhs = verify_variance_contraction(lambda c: float(c[0]), 1000, 1)
        assert lhs == pytest.approx(rhs, rel=1e-12)


class TestShapeBlocks:
    """The chi2 and variance suites check each block's instances of one shape
    (n, w) in one rows call; every row must equal the one-row call on its
    instance, bit for bit."""

    @pytest.mark.parametrize("seed", [1, 20260801])
    def test_suite_rows_equal_the_one_row_calls(self, monkeypatch, seed):
        calls = {"chi2": [], "var": []}
        chi2_rows, var_rows = dv.table_chi2_rows, dv.variance_contraction_rows

        def spy_chi2(rows, group):
            out = chi2_rows(rows, group)
            calls["chi2"].append((group, out))
            return out

        def spy_var(vals, n, w):
            out = var_rows(vals, n, w)
            calls["var"].append((vals, n, w, out))
            return out

        with monkeypatch.context() as m:
            m.setattr(dv, "table_chi2_rows", spy_chi2)
            m.setattr(dv, "variance_contraction_rows", spy_var)
            for suite in ("chi2-stability", "var-contraction",
                          "var-contraction-linear-equality"):
                assert run_suite(suite, seed=seed).passed
        # every default instance once, each against its own query's walk
        assert sorted(j for group, _ in calls["chi2"] for j in group) == list(range(1000))
        assert max(len(group) for group, _ in calls["chi2"]) > 1
        block = dv.random_query_block(seed, 0)
        for group, out in calls["chi2"]:
            assert_rows_are_one_row_calls(block, group, out)
        # each instance's values, keyed by their bytes, to its one-row sides
        want = {}
        for linear, trials in ((False, 1000), (True, 200)):
            for n, w, f in itertools.islice(subset_functions(seed, linear), trials):
                want[np.array(list(f.values())).tobytes()] = \
                    verify_variance_contraction(f, n, w)
        got = {}
        for vals, n, w, (lhs, rhs) in calls["var"]:
            for row, pair in zip(vals, zip(lhs.tolist(), rhs.tolist())):
                got[row.tobytes()] = pair
        assert max(len(vals) for vals, _, _, _ in calls["var"]) > 1
        assert got == want

    def test_chi2_suite_builds_no_query_laws(self, monkeypatch):
        calls = []
        output_laws = Query.output_laws

        def spy(q, S, pos):
            calls.append(q.name)
            return output_laws(q, S, pos)

        monkeypatch.setattr(Query, "output_laws", spy)
        assert run_suite("chi2-stability").passed
        assert calls == []

    def test_table_rows_equal_the_query_rows_across_position_blocks(self, monkeypatch):
        # blocks of 4 position rows split every walk of C(n, w) > 4 subsets
        rows = dv.random_query_block(5, 0)
        monkeypatch.setattr(core, "SUBSET_BLOCK", 4)
        shapes = list(zip(rows.n.tolist(), rows.w.tolist()))
        for shape in ((8, 3), (5, 2), (3, 1), (4, 3)):
            group = [j for j, s in enumerate(shapes) if s == shape][:7]
            assert len(group) > 1
            assert_rows_are_one_row_calls(rows, group, dv.table_chi2_rows(rows, group))

    def test_rows_of_mixed_range_sizes_equal_the_one_row_calls(self):
        # every (n, w) group of a block, each mixing all three |Y| of 2..4:
        # the group is walked at |Y| = 4, and a row of |Y| = 2 or 3 keeps its
        # own law, divergences and bound
        rows = dv.random_query_block(5, 0)
        for group in dv.key_groups(rows.n, rows.w):
            assert set(rows.ysize[group].tolist()) == {2, 3, 4}
            out = dv.table_chi2_rows(rows, group)
            assert out[3].shape == (len(group), 4)
            assert_rows_are_one_row_calls(rows, group, out)

    def test_chi2_suite_walks_each_n_and_w_once(self, monkeypatch):
        # a default block holds 17 distinct (n, w): n on 3..8, w on
        # 1..min(3, n - 1); each is one rows call and one enumeration walk,
        # whatever its |Y|
        calls, walks = [], []
        table_rows, block_laws = dv.table_chi2_rows, dv.leave_one_out_block_laws

        def spy_rows(rows, group):
            calls.append((int(rows.n[group[0]]), int(rows.w[group[0]])))
            return table_rows(rows, group)

        def spy_walk(*args):
            walks.append(args[2:4])
            return block_laws(*args)

        monkeypatch.setattr(dv, "table_chi2_rows", spy_rows)
        monkeypatch.setattr(dv, "leave_one_out_block_laws", spy_walk)
        assert run_suite("chi2-stability", seed=1).passed
        block = dv.random_query_block(1, 0)
        shapes = set(zip(block.n.tolist(), block.w.tolist()))
        assert len(shapes) == 17
        assert sorted(calls) == sorted(walks) == sorted(shapes)

    def test_table_rows_need_one_shape_and_an_instance(self):
        rows = dv.random_query_block(5, 0)
        other = int(np.flatnonzero(rows.n != rows.n[0])[0])
        with pytest.raises(ValueError, match="share n and w"):
            dv.table_chi2_rows(rows, [0, other])
        with pytest.raises(ValueError, match="need at least one instance"):
            dv.table_chi2_rows(rows, [])

    def test_chi2_rows_return_rows_past_the_bound(self, monkeypatch):
        rows = dv.random_query_block(5, 0)
        shapes = list(zip(rows.n.tolist(), rows.w.tolist(), rows.ysize.tolist()))
        group = [j for j, s in enumerate(shapes) if s == shapes[0]]
        measured, bound, _, _ = dv.table_chi2_rows(rows, group)
        assert len(group) > 1 and len(set(measured.tolist())) > 1
        # a bound just under the second-largest average puts at least two rows
        # over it: the rows call returns them for its caller to judge, and
        # the one-instance call raises on each
        low = sorted(measured.tolist())[-2]
        monkeypatch.setattr(dv, "chi2_stability_bound",
                            lambda n, w, y: low - 2 * dv.INEQ_TOL)
        again, bound, _, _ = dv.table_chi2_rows(rows, group)
        assert np.array_equal(again, measured)
        assert bound.tolist() == [low - 2 * dv.INEQ_TOL] * len(group)
        over = np.flatnonzero(again > bound + dv.INEQ_TOL)
        assert 1 < len(over) < len(group)
        for k in over:
            named = dv.CHI2_EXCESS.format(float(measured[k]), float(bound[k]))
            with pytest.raises(RuntimeError, match=f"^{re.escape(named)}$"):
                measure_leave_one_out_chi2(*rows.instance(group[k]))

    def test_rows_forms_check_the_cap_on_every_row(self, monkeypatch):
        # 2 instances: 2 * C(n,w) * |Y| chi2 rows, and 2 * 10 * C(10,2) = 900
        # variance entries, each refused before anything is built
        rows = dv.random_query_block(5, 0)
        n, w, ysize = int(rows.n[0]), int(rows.w[0]), int(rows.ysize[0])
        group = np.flatnonzero((rows.n == n) & (rows.w == w) & (rows.ysize == ysize))[:2]
        cap = 2 * math.comb(n, w) * ysize
        vals = np.ones((2, 45))

        def no_blocks(*args):
            raise AssertionError("enumerated past the cap")

        with monkeypatch.context() as m:
            m.setattr(dv, "position_blocks", no_blocks)
            m.setattr(engine, "position_blocks", no_blocks)
            m.setattr(core, "ENUM_CAP", cap - 1)
            with pytest.raises(EnumerationCapExceeded, match=rf"2\*C\({n},{w}\)\*\|Y\|"):
                dv.table_chi2_rows(rows, group)
            m.setattr(core, "ENUM_CAP", 899)
            with pytest.raises(EnumerationCapExceeded, match=r"2\*n\*C\(10,2\)"):
                dv.variance_contraction_rows(vals, 10, 2)
        monkeypatch.setattr(core, "ENUM_CAP", cap)
        assert dv.table_chi2_rows(rows, group)[2].shape == (2, n)
        monkeypatch.setattr(core, "ENUM_CAP", 900)
        assert dv.variance_contraction_rows(vals, 10, 2)[0].tolist() == [0.0, 0.0]

    def test_rows_need_one_shape(self):
        with pytest.raises(ValueError, match="C\\(4,2\\) = 6 values"):
            dv.variance_contraction_rows(np.ones((3, 5)), 4, 2)


class TestKlChi2Inequality:
    def test_equal_distributions(self):
        check = verify_kl_chi2_inequality(pmf(0.5, 0.5), pmf(0.5, 0.5), 1.0)
        assert check.passed and check.lhs == 0.0

    def test_numeric_case(self):
        check = verify_kl_chi2_inequality(pmf(0.5, 0.5), pmf(0.25, 0.75), 0.5)
        assert check.passed
        assert check.lhs == pytest.approx(0.143841, abs=1e-6)
        assert check.rhs == pytest.approx((1 + math.log(2)) * 0.25, abs=1e-12)

    @pytest.mark.parametrize("tau", [0.0, -0.5, 1.5, math.nan])
    def test_tau_outside_unit_interval_is_an_error(self, tau):
        for check in (verify_kl_chi2_inequality, verify_kl_mixture_inequality):
            with pytest.raises(ValueError, match="tau"):
                check(pmf(0.5, 0.5), pmf(0.5, 0.5), tau)

    def test_precondition_violation_is_an_error(self):
        with pytest.raises(ValueError):
            verify_kl_chi2_inequality(pmf(0.5, 0.5), pmf(0.1, 0.9), 0.5)

    def test_random_pairs(self):
        for dp, ep in pmf_pairs(57, 500):
            tau = min(1.0, float(np.min(ep.masses / dp.masses)))
            assert verify_kl_chi2_inequality(dp, ep, tau).passed


class TestKlMixtureInequality:
    def test_equal_small_tau(self):
        for tau in (0.5, 0.1, 0.01):
            check = verify_kl_mixture_inequality(pmf(0.4, 0.6), pmf(0.4, 0.6), tau)
            assert check.passed

    def test_disjoint_case(self):
        # supports are not nested, so the chi-squared side is infinite and
        # the bound holds vacuously; the KL side is still ln 4
        check = verify_kl_mixture_inequality(pmf(1.0, 0.0), pmf(0.0, 1.0), 0.5)
        assert check.passed
        assert check.lhs == pytest.approx(math.log(4), abs=1e-12)
        assert check.rhs == math.inf

    def test_nested_support_case(self):
        check = verify_kl_mixture_inequality(pmf(0.5, 0.5), pmf(0.0, 1.0), 0.5)
        assert check.passed
        want_lhs = 0.5 * math.log(2) + 0.5 * math.log(2 / 3)
        assert check.lhs == pytest.approx(want_lhs, abs=1e-12)
        assert check.rhs == pytest.approx((1 + math.log(4)) * 1.5 + 0.5, abs=1e-12)

    def test_random_pairs(self):
        taus = (0.5, 0.1, 0.01)
        for i, (dp, ep) in enumerate(pmf_pairs(58, 500)):
            assert verify_kl_mixture_inequality(dp, ep, taus[i % 3]).passed


class TestExceedsMeanProbe:
    def test_constant_values_probability_one(self):
        got = sample_exceeds_mean_probe([0.5] * 10, 4, 500, RandomSource(1))
        assert got == 1.0

    def test_two_value_monte_carlo(self):
        S = [0.0] * 200 + [1.0] * 200
        trials = 100_000
        est = sample_exceeds_mean_probe(S, 100, trials, RandomSource(2))
        # symmetric instance: the value is 1/2 + P(X = 50)/2 for X the
        # hypergeometric count of ones, 0.54594...
        exact = 0.5 + math.comb(200, 50) ** 2 / (2 * math.comb(400, 100))
        se = math.sqrt(exact * (1 - exact) / trials)
        assert exact >= 0.0357
        assert abs(est - exact) <= 4 * se

    @pytest.mark.parametrize("values,n", [
        ([0.0] * 6 + [1.0] * 6, 6),                         # two levels
        ([0, 0, 0, 0, 0.5, 0.5, 1, 1, 1, 1], 5),            # three, duplicated
        ([0, 0, 0, 0, 0, 0.25, 0.25, 0.5, 1, 1, 1], 5),     # four, uneven counts
        ([0.0, 0.1, 0.2, 0.35, 0.5, 0.65, 0.8, 0.9, 1.0, 0.05], 5),  # distinct
        ([0.0, 0.9, 0.15, 1.0, 0.4, 0.05, 0.95, 0.6, 0.1], 4),       # distinct
    ])
    def test_probe_frequency_matches_exact_enumeration(self, values, n):
        trials = 20_000
        exact = sample_exceeds_mean_exact(values, n)
        assert 0.0 < exact < 1.0
        est = sample_exceeds_mean_probe(values, n, trials, RandomSource(9),
                                        chunk=3000)
        assert abs(est - exact) <= 4 * math.sqrt(exact * (1 - exact) / trials)

    @pytest.mark.parametrize("block", [1, 4, 1 << 15])
    def test_exact_matches_the_per_subset_loop(self, monkeypatch, block):
        import adasub.core as core
        monkeypatch.setattr(core, "SUBSET_BLOCK", block)
        for values, n in [([i % 2 for i in range(10)], 5),
                          ([0.3, 0.9, 0.3, 0.1, 0.75, 0.5, 0.2], 3),
                          ([0.25, 1.0, 0.0, 0.5, 0.5], 1)]:
            vals = np.asarray(values, dtype=float)
            target = n * vals.mean() - 1.0
            hits = sum(1 for combo in itertools.combinations(range(vals.size), n)
                       if vals[list(combo)].sum() > target)
            assert sample_exceeds_mean_exact(values, n) \
                == hits / math.comb(vals.size, n)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_count_vectors_match_the_per_subset_loop(self, data):
        # dyadic values sum exactly in any order, so no tie with the target
        # depends on the rounding of a sum
        size = data.draw(st.integers(2, 11))
        if data.draw(st.booleans()):  # all distinct
            values = data.draw(st.permutations(range(17)))[:size]
        else:
            values = data.draw(st.lists(st.integers(0, 4), min_size=size,
                                        max_size=size))
        values = [v / 16 for v in values]
        n = data.draw(st.integers(1, size - 1))
        vals = np.asarray(values)
        target = n * vals.mean() - 1.0
        hits = sum(1 for combo in itertools.combinations(range(size), n)
                   if vals[list(combo)].sum() > target)
        assert sample_exceeds_mean_exact(values, n) == hits / math.comb(size, n)

    @pytest.mark.parametrize("m,n", [(200, 100), (6, 2), (31, 10), (1000, 400)])
    def test_two_value_tail_is_the_closed_form(self, m, n):
        # m zeros and m ones, n = 2r: the count of ones X is hypergeometric
        # and symmetric about r, and the sum clears r - 1 iff X >= r, so the
        # tail is 1/2 + P(X = r)/2
        r = n // 2
        want = Fraction(1, 2) + Fraction(math.comb(m, r) ** 2, 2 * math.comb(2 * m, n))
        assert sample_exceeds_mean_exact([0.0] * m + [1.0] * m, n) == float(want)

    def test_alternating_exact(self):
        got = sample_exceeds_mean_exact([i % 2 for i in range(10)], 5)
        assert got == pytest.approx(226 / 252, abs=1e-15)
        assert got >= 0.0357

    def test_domain(self):
        with pytest.raises(ValueError):
            sample_exceeds_mean_probe([0.5, 1.5], 1, 10, RandomSource(3))
        with pytest.raises(ValueError):
            sample_exceeds_mean_exact([0.5, 0.5], 2)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_values_that_are_not_finite_are_refused(self, bad):
        # a NaN passes both range comparisons; it would read as a tail of 0
        values = [0.0, bad, 1.0, 0.5]
        with pytest.raises(ValueError, match=re.escape("[0, 1]")):
            sample_exceeds_mean_exact(values, 1)
        with pytest.raises(ValueError, match=re.escape("[0, 1]")):
            sample_exceeds_mean_probe(values, 1, 10, _NoDraws())

    @pytest.mark.parametrize("trials,chunk,bad", [
        (0, 4096, "trials"), (-3, 4096, "trials"), (10, 0, "chunk"), (10, -1, "chunk")])
    def test_counts_below_one_are_refused_before_any_draw(self, trials, chunk, bad):
        # a draw fails the test: with chunk 0 the loop would draw size-0
        # batches forever, so it must be refused before the loop
        with pytest.raises(ValueError, match=f"{bad} must be at least 1, got "):
            sample_exceeds_mean_probe([0.0, 1.0, 0.5], 1, trials, _NoDraws(),
                                      chunk=chunk)


class _NoDraws(np.random.Generator):
    """A generator whose every draw fails the calling test."""

    def __init__(self):
        super().__init__(np.random.PCG64(0))

    def multivariate_hypergeometric(self, *args, **kwargs):
        raise AssertionError("drew before refusing the call")


def _per_key_query_instance(gen):
    """random_query_instance as one scalar draw per key of its map."""
    n = int(gen.integers(3, 9))
    w = int(gen.integers(1, min(3, n - 1) + 1))
    ysize = int(gen.integers(2, 5))
    a = int(gen.integers(2, 6))
    table = {key: int(gen.integers(0, ysize))
             for key in itertools.product(range(a), repeat=w)}
    return n, w, ysize, a, table, gen.integers(0, a, size=n)


def _instance_generators():
    for i in range(200):
        yield lambda i=i: RandomSource(31).child(i).generator
        yield lambda i=i: np.random.default_rng(i)


class TestInstanceStreams:
    """The instance generators read their streams as the per-key scalar
    draws they replaced: the same instance from the same generator."""

    def test_query_instance_reads_the_per_key_draws(self):
        for make in _instance_generators():
            gen, ref = make(), make()
            q, S = random_query_instance(gen)
            n, w, ysize, a, table, data = _per_key_query_instance(ref)
            assert gen.integers(0, 2 ** 62) == ref.integers(0, 2 ** 62)
            assert (len(S), q.arity, q.outputs) == (n, w, tuple(range(ysize)))
            assert q.name == f"randmap(w={w},|Y|={ysize},a={a})"
            assert S.array.tolist() == data.tolist()
            keys = np.array(list(table), dtype=np.int64).reshape(-1, w)
            assert q.batch(keys).tolist() == list(table.values())
            assert [q.evaluator(*key) for key in table] == list(table.values())

    def test_query_rows_read_the_per_key_draws(self):
        # block 1 of random_query_block: n, w, |Y| and a one scalar draw per
        # instance each, every table's cells one scalar draw per key in
        # itertools.product order, then every dataset's entries
        rows = dv.random_query_block(31, 1)
        drawn = [rows.instance(k) for k in range(SUITE_BLOCK)]
        ref = RandomSource(31).child(1).generator
        n = [int(ref.integers(3, 9)) for _ in range(SUITE_BLOCK)]
        w = [int(ref.integers(1, min(3, k - 1) + 1)) for k in n]
        ysize = [int(ref.integers(2, 5)) for _ in n]
        a = [int(ref.integers(2, 6)) for _ in n]
        tables = [{key: int(ref.integers(0, y))
                   for key in itertools.product(range(ak), repeat=wk)}
                  for wk, y, ak in zip(w, ysize, a)]
        data = [[int(ref.integers(0, ak)) for _ in range(nk)] for nk, ak in zip(n, a)]
        assert len(rows.n) == SUITE_BLOCK
        for (q, S), nk, wk, y, ak, table, row in zip(drawn, n, w, ysize, a,
                                                      tables, data):
            assert (len(S), q.arity, q.outputs) == (nk, wk, tuple(range(y)))
            assert q.name == f"randmap(w={wk},|Y|={y},a={ak})"
            assert S.array.tolist() == row
            keys = np.array(list(table), dtype=np.int64).reshape(-1, wk)
            assert q.batch(keys).tolist() == list(table.values())
            assert [q.evaluator(*key) for key in table] == list(table.values())

    @pytest.mark.parametrize("linear", [False, True])
    def test_subset_function_reads_the_per_subset_draws(self, linear):
        # block 1 of random_subset_rows: n and w one scalar draw per instance
        # each, then per instance one uniform per subset in
        # itertools.combinations order or, if linear, n weights summed over
        # each subset in its order
        ns, ws, vals = random_subset_rows(31, 1, linear)
        ref = RandomSource(31).child(1).generator
        n = [int(ref.integers(3, 9)) for _ in range(SUITE_BLOCK)]
        w = [int(ref.integers(1, min(3, k - 1) + 1)) for k in n]
        assert (ns.tolist(), ws.tolist()) == (n, w)
        assert len(vals) == SUITE_BLOCK
        for nk, wk, row in zip(n, w, vals):
            combos = itertools.combinations(range(nk), wk)
            if linear:
                alpha = [ref.uniform(-1.0, 1.0) for _ in range(nk)]
                want = [float(sum(alpha[j] for j in c)) for c in combos]
            else:
                want = [float(ref.uniform(-1.0, 1.0)) for c in combos]
            assert row.tolist() == want

    @pytest.mark.parametrize("n_range,w_range,bad", [
        ((2, 2), (2, 2), "w_range"),
        ((8, 3), (1, 3), "n_range"),
        ((3, 8), (0, 2), "w_range"),
        ((3, 8), (2, 1), "w_range"),
        ((1, 4), (1, 3), "w_range"),
    ])
    def test_infeasible_ranges_are_refused_before_any_draw(self, n_range, w_range,
                                                           bad):
        named = re.escape(f"{bad} {dict(n_range=n_range, w_range=w_range)[bad]}")
        gen = RandomSource(3).generator
        with pytest.raises(ValueError, match=named):
            random_query_instance(gen, n_range=n_range, w_range=w_range)
        assert gen.integers(0, 2 ** 62) == RandomSource(3).generator.integers(0, 2 ** 62)

    def test_tight_ranges_draw(self):
        q, S = random_query_instance(RandomSource(3).generator, n_range=(2, 2),
                                     w_range=(1, 1))
        assert (len(S), q.arity) == (2, 1)


def _table(q: Query) -> list[int]:
    """A random_query_block instance's table, in itertools.product key order."""
    a = int(q.name.split("a=")[1].rstrip(")"))
    return q.batch(np.array(list(itertools.product(range(a), repeat=q.arity)))).tolist()


class TestSuiteRows:
    """The chi2 and variance streams: instance i is row i % SUITE_BLOCK of
    block i // SUITE_BLOCK, drawn from RandomSource(seed).child(i // SUITE_BLOCK)."""

    @pytest.mark.parametrize("suite", ["chi2-stability", "var-contraction",
                                       "var-contraction-linear-equality"])
    def test_instances_do_not_depend_on_the_trial_count(self, monkeypatch, suite):
        # every instance fails and writes itself out whole: the chi2 fake's
        # average is 100 plus the sum of the query's table cells, and the
        # variance fake's lhs is 100 plus the sum of the values it is handed
        chi2_rows = dv.table_chi2_rows

        def table_sums(rows, group):
            _, bound, per, laws = chi2_rows(rows, group)
            measured = [100.0 + sum(_table(rows.instance(j)[0])) for j in group]
            return np.array(measured), bound, per, laws

        monkeypatch.setattr(dv, "table_chi2_rows", table_sums)
        monkeypatch.setattr(dv, "variance_contraction_rows", lambda vals, n, w: (
            100.0 + vals.sum(axis=1), np.zeros(len(vals))))
        full = run_suite(suite, trials=SUITE_BLOCK + 1, seed=13).failures
        assert [int(f.split(":")[0].split()[1]) for f in full] == \
            list(range(SUITE_BLOCK + 1))
        for t in (20, SUITE_BLOCK):
            assert run_suite(suite, trials=t, seed=13).failures == full[:t]
        for i in (0, 19, SUITE_BLOCK - 1, SUITE_BLOCK):
            block, j = divmod(i, SUITE_BLOCK)
            if suite == "chi2-stability":
                q, S = dv.random_query_block(13, block).instance(j)
                bound = chi2_stability_bound(len(S), q.arity, len(q.outputs))
                assert full[i] == (f"instance {i}: leave-one-out chi2 "
                                   f"{100.0 + sum(_table(q))} exceeds closed form "
                                   f"{bound}; query={q.name} tag=None dataset={list(S)!r}")
                continue
            ns, ws, vals = random_subset_rows(13, block, suite.endswith("equality"))
            n, w = int(ns[j]), int(ws[j])
            f = dict(zip(itertools.combinations(range(n), w), vals[j].tolist()))
            lhs = float(100.0 + vals[j].sum())
            assert full[i] == f"instance {i}: n={n} w={w} lhs={lhs!r} rhs=0.0 f={f!r}"

    def test_rows_follow_the_instance_law(self):
        # random_query_instance's law: n uniform on 3..8, w uniform on
        # 1..min(3, n-1), |Y| uniform on 2..4 and a on 2..5, independent of
        # each other, and iid uniform table cells on 0..|Y|-1 and dataset
        # entries on 0..a-1; random_subset_rows draws the same n and w
        drawn = []
        for b in range(8):
            rows = dv.random_query_block(2027, b)
            drawn += [rows.instance(k) for k in range(SUITE_BLOCK)]
            ns, ws, vals = random_subset_rows(2027, b)
            assert [(len(S), q.arity) for q, S in drawn[-SUITE_BLOCK:]] == \
                list(zip(ns.tolist(), ws.tolist()))
        m = len(drawn)
        n, w, ysize = (np.array(col) for col in zip(*[
            (len(S), q.arity, len(q.outputs)) for q, S in drawn]))
        a = np.array([int(q.name.split("a=")[1].rstrip(")")) for q, _ in drawn])
        for nk in range(3, 9):
            for wk in range(1, min(3, nk - 1) + 1):
                within_4se(np.count_nonzero((n == nk) & (w == wk)), m,
                           1 / 6 / min(3, nk - 1))
        for y in range(2, 5):
            for ak in range(2, 6):
                within_4se(np.count_nonzero((ysize == y) & (a == ak)), m, 1 / 12)
            for wk in range(1, 4):
                p_w = sum(1 / 6 / min(3, nk - 1) for nk in range(max(3, wk + 1), 9))
                within_4se(np.count_nonzero((ysize == y) & (w == wk)), m, p_w / 3)
        cells = {y: np.concatenate([_table(q) for q, _ in drawn if len(q.outputs) == y])
                 for y in range(2, 5)}
        entries = {ak: np.concatenate([S.array for (_, S), k in zip(drawn, a) if k == ak])
                   for ak in range(2, 6)}
        for size, flat in (*cells.items(), *entries.items()):
            for v in range(size):
                within_4se(np.count_nonzero(flat == v), flat.size, 1 / size)
        # the subset values are uniform on [-1, 1): a quarter in each quarter
        flat = np.concatenate(vals)
        for lo in (-1.0, -0.5, 0.0, 0.5):
            within_4se(np.count_nonzero((lo <= flat) & (flat < lo + 0.5)),
                       flat.size, 1 / 4)
        assert flat.min() >= -1.0 and flat.max() < 1.0
