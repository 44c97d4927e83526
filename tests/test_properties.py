"""Property tests over whole runs and over the batched sampler's law.

A derandomized strategy draws small configs across every population with
an analyst and a mechanism that fit it, including edge cases that must be
a ConfigError: |Y| = 1 and a median arity equal to the smallest group.
Every config either raises ConfigError or runs with its accounting, its
summary and its CSV intact.
"""

import csv
import math
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

import adasub.harness as hz
from adasub.cli import format_number, load_config, write_csv
from adasub.divergence import random_query_instance
from adasub.engine import RandomSource, exact_response_pmf, subsample_answer, uniformize
from adasub.harness import ROW_COLUMNS, ConfigError, run_experiment
from adasub.mechanisms import BudgetLedger, median_params

NUMERIC_COLUMNS = ("answer", "sample_value", "truth", "bias", "threshold",
                   "within_bound", "cost")


def _sq_or_naive(draw) -> dict:
    kind = draw(st.sampled_from(["naive", "sq-tau", "sq-explicit"]))
    if kind == "naive":
        return {"name": "naive-empirical",
                **draw(st.sampled_from([{}, {"tau": 0.3}]))}
    mech = {"name": "subsampling-sq", "delta": draw(st.sampled_from([0.05, 0.3]))}
    if kind == "sq-tau":
        mech["tau"] = draw(st.sampled_from([0.2, 0.5, 0.9]))
    else:
        mech["epsilon"] = draw(st.sampled_from([0.0, 0.1, 0.49]))
        mech["k"] = draw(st.integers(1, 40))
    return mech


@st.composite
def run_configs(draw, family, tight):
    """(config mapping, round at which an almost_sure budget refuses when
    ``tight``, else None) for one family of analysts."""
    T = draw(st.integers(1, 8))
    n = draw(st.integers(2, 60))
    if family == "median":
        population = draw(st.sampled_from([
            {"name": "bernoulli", "p": 0.5},
            {"name": "discretized_gaussian", "points": 17},
            {"name": "discretized_gaussian", "lo": -2, "hi": 3, "points": 9,
             "mu": 0.5, "sigma": 1.5}]))
        w_max = draw(st.integers(1, 4))
        # r_cells = 1 is a one-value range, a ConfigError
        r_cells = draw(st.sampled_from([2, 3, 5, 8, 1]))
        delta = draw(st.sampled_from([0.1, 0.5]))
        c_m = draw(st.sampled_from([0.25, 0.5]))
        analyst = {"name": "shifting-means", "T": T, "w_max": w_max,
                   "r_cells": r_cells, "r_step": draw(st.sampled_from([0.5, 1.6])),
                   "max_shift": draw(st.integers(0, 3))}
        mechanism = {"name": "median", "delta": delta, "c_m": c_m,
                     "noise": draw(st.booleans())}
        k = median_params(T, [1] * T, [r_cells] * T, delta, c_m=c_m).k
        top = min(T, w_max)  # the largest arity the analyst asks
        # smallest group one above the largest arity, or equal to it (a misfit)
        n = k * (top + draw(st.sampled_from([1, 2, 1, 0]))) + draw(st.integers(0, k - 1))
    elif family == "attack":
        population = {"name": "uniform_pm1_cube", "d": T}
        analyst = {"name": "random-correlation", "T": T}
        mechanism = _sq_or_naive(draw)
    else:
        population = draw(st.sampled_from([
            {"name": "bernoulli", "p": 0.3}, {"name": "bernoulli", "p": 0.0},
            {"name": "bernoulli", "p": 1.0}, {"name": "uniform_pm1_cube", "d": 3},
            {"name": "discretized_gaussian", "lo": 0, "hi": 1, "points": 5}]))
        pool = ([{"kind": "coord", "j": j} for j in range(3)]
                if population["name"] == "uniform_pm1_cube" else ["identity"])
        pool.append({"kind": "constant", "value": draw(st.sampled_from([0.0, 0.4, 1.0]))})
        queries = draw(st.lists(st.sampled_from(pool), min_size=T, max_size=T))
        analyst = {"name": "fixed", "queries": queries}
        mechanism = _sq_or_naive(draw)
    config = {"seed": draw(st.integers(0, 2 ** 32 - 1)),
              "trials": draw(st.integers(1, 3)), "n": n, "population": population,
              "mechanism": mechanism, "analyst": analyst}
    return config, draw(st.integers(1, T)) if tight else None


def _load(config: dict, folder: Path):
    path = folder / "config.yaml"
    path.write_text(yaml.safe_dump(config))
    return load_config(path)


def _run_recording_ledgers(cfg):
    """The report, and the ledger of each trial in order."""
    ledgers = []

    class RecordingLedger(BudgetLedger):
        def __init__(self, *args):
            super().__init__(*args)
            ledgers.append(self)

    with mock.patch.object(hz, "BudgetLedger", RecordingLedger):
        report = run_experiment(cfg)
    return report, ledgers[-cfg.trials:]


def _tight_budget(config: dict, refuse_at: int, folder: Path) -> dict:
    """The config with an almost_sure limit half a charge past the charges
    of rounds before ``refuse_at``. Charges do not depend on the sample, so
    every trial that charges anything refuses that round."""
    report = run_experiment(_load({**config, "trials": 1}, folder))
    costs = [r["cost"] for r in report.rows if not r["query_id"].startswith("test:")]
    limit = sum(costs[:refuse_at - 1]) + costs[refuse_at - 1] / 2
    return {**config, "mechanism": {**config["mechanism"], "budget_mode": "almost_sure",
                                    "budget_limit": limit}}


@pytest.mark.parametrize("tight", [False, True])
@pytest.mark.parametrize("family", ["fixed", "attack", "median"])
@settings(max_examples=15, deadline=None, derandomize=True)
@given(data=st.data())
def test_every_config_is_refused_or_runs_with_its_invariants(family, tight, data):
    config, refuse_at = data.draw(run_configs(family, tight))
    with tempfile.TemporaryDirectory() as tmp:
        folder = Path(tmp)
        try:
            if refuse_at is not None:
                config = _tight_budget(config, refuse_at, folder)
            cfg = _load(config, folder)
            report, ledgers = _run_recording_ledgers(cfg)
        except ConfigError:
            return
        again = run_experiment(cfg)
        write_csv(report, folder / "a.csv")
        write_csv(again, folder / "b.csv")
        assert (folder / "a.csv").read_bytes() == (folder / "b.csv").read_bytes()
        with (folder / "a.csv").open(newline="") as fh:
            parsed = list(csv.DictReader(fh))

    report.verify_consistency()
    for trial, ledger in enumerate(ledgers):
        costs = [r["cost"] for r in report.rows if r["trial"] == trial]
        assert math.isclose(sum(costs), ledger.total, rel_tol=1e-12, abs_tol=1e-15)
        if refuse_at is not None and ledger.total > 0:
            refused = [r for r in report.rows if r["trial"] == trial
                       and math.isnan(r["answer"])]
            assert [r["t"] for r in refused] == [refuse_at]
    mean_total = float(np.mean([ledger.total for ledger in ledgers]))
    assert math.isclose(report.summary["mi_upper_bound"], cfg.n * mean_total,
                        rel_tol=1e-12, abs_tol=1e-15)

    assert len(parsed) == len(report.rows) and list(parsed[0]) == list(ROW_COLUMNS)
    for row, back in zip(report.rows, parsed):
        assert (int(back["trial"]), int(back["t"]), back["query_id"], back["mechanism"]) \
            == (row["trial"], row["t"], row["query_id"], row["mechanism"])
        for column in NUMERIC_COLUMNS:
            got, want = float(back[column]), float(format_number(row[column]))
            assert got == want or (math.isnan(got) and math.isnan(want))
            assert math.isclose(got, row[column], rel_tol=1e-11) or math.isnan(got)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32 - 1), w_max=st.integers(1, 3), smooth=st.booleans())
def test_batched_answers_follow_the_exact_law(seed, w_max, smooth):
    q, S = random_query_instance(np.random.default_rng(seed), w_range=(1, w_max))
    if smooth:
        q = uniformize(q, 0.5 / len(q.outputs))  # the randomized-query path
    pmf = exact_response_pmf(q, S)
    draws = 20_000
    answers = subsample_answer(q, S, RandomSource(seed), size=draws)
    for y, mass in zip(q.outputs, pmf.masses):
        se = math.sqrt(max(mass * (1 - mass), 1e-9) / draws)
        assert abs(float(np.mean(answers == y)) - mass) <= 4 * se
