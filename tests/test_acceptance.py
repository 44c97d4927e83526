"""Acceptance suite: one test per release criterion, each printing a
pass/fail line and enforcing its runtime budget.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.
"""

import json
import math
import time
from contextlib import contextmanager
from pathlib import Path

import pytest
import yaml

from adasub.cli import main, run_suite
from adasub.divergence import sample_exceeds_mean_exact, sample_exceeds_mean_probe
from adasub.engine import RandomSource
from adasub.harness import ExperimentConfig, run_experiment
from adasub.mechanisms import cost_hp, median_params, sq_params, sq_vote_budget

FIXTURES = Path(__file__).parent / "fixtures"


@contextmanager
def criterion(number, name, budget_seconds):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE #{number} ({name}): FAIL")
        raise
    elapsed = time.perf_counter() - start
    assert elapsed < budget_seconds, (
        f"criterion {number} took {elapsed:.1f}s, budget {budget_seconds}s")
    print(f"ACCEPTANCE #{number} ({name}): PASS [{elapsed:.1f}s]")


# ---------------------------------------------------------------------------
# Shared run for criteria 4 and 9.

SQ_DESK = dict(n=15000, T=1000, tau=0.1, delta=0.1, trials=20, seed=20260804)


@pytest.fixture(scope="module")
def desk_scale_sq_report():
    cfg = ExperimentConfig(
        seed=SQ_DESK["seed"], trials=SQ_DESK["trials"], n=SQ_DESK["n"],
        population={"name": "uniform_pm1_cube", "d": SQ_DESK["T"]},
        mechanism={"name": "subsampling-sq", "tau": SQ_DESK["tau"],
                   "delta": SQ_DESK["delta"]},
        analyst={"name": "random-correlation", "T": SQ_DESK["T"],
                 "tau": SQ_DESK["tau"]},
    )
    start = time.perf_counter()
    report = run_experiment(cfg)
    report.elapsed = time.perf_counter() - start
    return report


def test_criterion_1_chi2_stability_bound():
    with criterion(1, "chi2 stability bound + w=1 equality", 10):
        res = run_suite("chi2-stability", trials=1000, seed=20260801)
        assert res.passed, res.failures[:3]
        assert res.stats["max_excess"] <= 1e-10
        assert res.stats["max_equality_dev"] <= 1e-10


def test_criterion_2_variance_contraction():
    with criterion(2, "variance contraction + linear equality", 5):
        res = run_suite("var-contraction", trials=1000, seed=20260802)
        assert res.passed, res.failures[:3]
        lin = run_suite("var-contraction-linear-equality", trials=200,
                        seed=20260802)
        assert lin.passed, lin.failures[:3]
        assert lin.stats["max_dev"] <= 1e-10


def test_criterion_3_kl_chi2_inequalities():
    with criterion(3, "KL/chi2 comparison inequalities", 5):
        for suite in ("kl-chi2", "kl-mixture"):
            res = run_suite(suite, trials=10_000, seed=20260803)
            assert res.passed, (suite, res.failures[:3])


def test_criterion_4_sq_accuracy_at_desk_scale(desk_scale_sq_report):
    with criterion(4, "SQ mechanism accuracy at desk scale", 120):
        report = desk_scale_sq_report
        print(f"  (mechanism run: {report.elapsed:.1f}s over 20 trials)")
        assert report.elapsed < 120
        per_trial_ok = {}
        for row in report.rows:
            if row["query_id"].startswith("test:"):
                continue
            per_trial_ok.setdefault(row["trial"], True)
            if not row["within_bound"]:
                per_trial_ok[row["trial"]] = False
        assert len(per_trial_ok) == SQ_DESK["trials"]
        good = sum(per_trial_ok.values())
        assert good >= 18, f"only {good}/20 trials met the accuracy bound"


def test_criterion_5_adversarial_separation():
    with criterion(5, "adversarial separation naive vs SQ", 60):
        pinned = json.loads((FIXTURES / "attack_pilot.json").read_text())
        base = dict(
            seed=pinned["seed"], trials=pinned["trials"], n=pinned["n"],
            population={"name": "uniform_pm1_cube", "d": pinned["T"]},
            analyst={"name": "random-correlation", "T": pinned["T"], "tau": 0.2},
        )
        naive = run_experiment(ExperimentConfig(
            mechanism={"name": "naive-empirical", "tau": 0.2}, **base))
        naive_bias = naive.summary["test_bias_mean"]
        assert naive_bias >= 0.15
        assert naive_bias == pytest.approx(pinned["naive_mean_test_bias"],
                                           rel=1e-9)
        # SQ mechanism with the total-vote budget n*sqrt(T) respected:
        # k = floor(n/sqrt(T)) votes per query, squash level from the
        # schedule at the pinned delta
        k = sq_vote_budget(pinned["n"], pinned["T"])
        assert k == pinned["sq_vote_budget_k"]
        sq = run_experiment(ExperimentConfig(
            mechanism={"name": "subsampling-sq", "delta": pinned["sq_delta"],
                       "epsilon": pinned["sq_epsilon"], "k": k}, **base))
        sq_bias = sq.summary["test_bias_mean"]
        assert sq_bias <= naive_bias / 2, (sq_bias, naive_bias)
        assert sq_bias == pytest.approx(pinned["sq_mean_test_bias"], rel=1e-9)


def test_criterion_6_median_mechanism_at_desk_scale():
    with criterion(6, "median mechanism accuracy at desk scale", 120):
        T, w_max, r_cells, delta = 50, 4, 64, 0.1
        w_list = [((t % w_max) + 1) for t in range(T)]
        params = median_params(T, w_list, [r_cells] * T, delta)
        n = 2 * params.advisory_min_n
        cfg = ExperimentConfig(
            seed=20260806, trials=20, n=n,
            population={"name": "discretized_gaussian", "lo": -4, "hi": 4,
                        "points": 257, "mu": 0.0, "sigma": 1.0},
            mechanism={"name": "median", "delta": delta},
            analyst={"name": "shifting-means", "T": T, "w_max": w_max,
                     "r_cells": r_cells, "r_step": 1.6, "max_shift": 3},
        )
        report = run_experiment(cfg)
        per_trial_ok = {}
        for row in report.rows:
            per_trial_ok.setdefault(row["trial"], True)
            if not row["within_bound"]:
                per_trial_ok[row["trial"]] = False
        good = sum(per_trial_ok.values())
        assert good >= 18, f"only {good}/20 trials produced all approximate medians"


def test_criterion_7_sample_exceeds_mean_probes():
    with criterion(7, "exceeds-mean probability floor", 30):
        floor = 0.0357
        # constant values: the sum always clears mean - 1
        est = sample_exceeds_mean_probe([0.5] * 12, 3, 2000,
                                        RandomSource(20260807).child(0))
        assert est == 1.0
        # two-value Monte Carlo instance
        trials = 100_000
        est2 = sample_exceeds_mean_probe([0.0] * 200 + [1.0] * 200, 100, trials,
                                         RandomSource(20260807).child(1))
        se = math.sqrt(est2 * (1 - est2) / trials)
        assert est2 >= floor - 4 * se
        # exact enumeration instance clears the floor outright
        exact = sample_exceeds_mean_exact([i % 2 for i in range(10)], 5)
        assert exact >= floor


def test_criterion_8_byte_identical_reruns(tmp_path):
    with criterion(8, "deterministic CSV across reruns", 60):
        cfg = {
            "seed": 20260808, "trials": 3, "n": 80,
            "population": {"name": "bernoulli", "p": 0.3},
            "mechanism": {"name": "subsampling-sq", "tau": 0.25, "delta": 0.1},
            "analyst": {"name": "fixed",
                        "queries": ["identity", {"kind": "constant", "value": 0.4}]},
        }
        path = tmp_path / "cfg.yaml"
        path.write_text(yaml.safe_dump(cfg))
        out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["run", str(path), "--out", str(out_a)]) == 0
        assert main(["run", str(path), "--out", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()


def test_criterion_9_ledger_and_mi_bookkeeping(desk_scale_sq_report):
    with criterion(9, "ledger total and MI upper bound", 60):
        report = desk_scale_sq_report
        params = sq_params(SQ_DESK["n"], SQ_DESK["T"], SQ_DESK["tau"],
                           SQ_DESK["delta"])
        want_total = SQ_DESK["T"] * params.k * cost_hp(
            SQ_DESK["n"], 2, params.epsilon, SQ_DESK["delta"])
        for trial in range(SQ_DESK["trials"]):
            total = sum(r["cost"] for r in report.rows
                        if r["trial"] == trial
                        and not r["query_id"].startswith("test:"))
            assert abs(total - want_total) <= 1e-9 * want_total
        got_total = report.summary["total_cost_per_trial_mean"]
        assert abs(got_total - want_total) <= 1e-9 * want_total
        mi = report.summary["mi_upper_bound"]
        assert abs(mi - SQ_DESK["n"] * got_total) <= 1e-9 * abs(mi)
