"""Correctness checks on the outputs of every rep. They run between reps and
are never timed. Each failed check is recorded under its name; any failure
makes the run incorrect, and the benchmark then exits nonzero.

Run workloads (one attempt per trial):
  csv-header        the CSV header equals ROW_COLUMNS
  rows-per-trial    T+1 rows per trial (SQ: T queries and the final test),
                    T rows per trial (median)
  trial-cost-sum    a trial's costs sum to its schedule charge at rel 1e-9:
                    T*k*cost_hp(n,2,eps,delta) for SQ, and for the median
                    mechanism ceil(log2 R) * sum over groups of
                    cost_uniform(g, w_t, 2, w_t/g) for each round t
  schedule          the sidecar's k and epsilon (SQ) or k_groups (median)
                    equal sq_params / median_params
  mi-bound          mi_upper_bound equals n * total_cost_per_trial_mean
  accuracy          at least 0.9 of the run's distinct trials have every
                    answer within bound (the 18-of-20 rule)
  determinism       two reps with the same seed write identical CSV bytes
Oracle (one attempt per suite instance and per sampler output):
  suite-<name>      the suite reports no failing instance
  sampler-frequency each output's frequency lies within 4 standard errors
                    of exact_response_pmf
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field

from adasub.harness import ROW_COLUMNS
from adasub.mechanisms import cost_hp, cost_uniform, sq_params

from workloads import median_groups, median_w_list

COST_REL = 1e-9
ACCURACY_FLOOR = 0.9
SAMPLER_SE = 4.0


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    # (trials, seed) of a rep -> (trials with every answer within bound,
    # trials) and -> CSV digest
    accuracy: dict = field(default_factory=dict)
    digests: dict = field(default_factory=dict)

    def problem(self, check: str, detail: str) -> None:
        self.problems.append(f"{check}: {detail}")

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems


def _close(a: float, b: float, rel: float = COST_REL) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


def trial_expectations(workload: str, cfg: dict) -> tuple[int, float]:
    """(rows per trial, charged cost per trial) from the mechanism schedule."""
    n, analyst, mech = cfg["n"], cfg["analyst"], cfg["mechanism"]
    T = analyst["T"]
    if workload == "sq-desk":
        sp = sq_params(n, T, mech["tau"], mech["delta"])
        return T + 1, T * sp.k * cost_hp(n, 2, sp.epsilon, mech["delta"])
    k = median_groups(cfg)
    base, extra = divmod(n, k)
    groups = [base + 1] * extra + [base] * (k - extra)
    rounds = math.ceil(math.log2(analyst["r_cells"]))
    total = math.fsum(rounds * math.fsum(cost_uniform(g, w, 2, w / g) for g in groups)
                      for w in median_w_list(cfg))
    return T, total


def check_run_rep(workload: str, cfg: dict, rep, tally: Tally) -> None:
    """Check one `adasub run` rep of a run workload."""
    trials = cfg["trials"]
    tally.attempted += trials
    if rep.error or rep.exit_code != 0:
        tally.failed += trials
        tally.problem("exit", f"rep {rep.index} (seed {rep.seed}): "
                      f"exit {rep.exit_code} {rep.error}".rstrip())
        return
    with rep.csv_path.open(newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        rows = [dict(zip(header, r)) for r in reader]
    summary = json.loads(rep.summary_path.read_text())
    where = f"rep {rep.index} (seed {rep.seed})"
    if tuple(header) != ROW_COLUMNS:
        tally.problem("csv-header", f"{where}: {header}")
    rows_per_trial, trial_cost = trial_expectations(workload, cfg)
    by_trial: dict[int, list] = {}
    for r in rows:
        by_trial.setdefault(int(r.get("trial", -1)), []).append(r)
    for trial in range(trials):
        got = by_trial.get(trial, [])
        bad = []
        if len(got) != rows_per_trial:
            bad.append(f"rows-per-trial: {where} trial {trial} has {len(got)} "
                       f"rows, want {rows_per_trial}")
        cost = math.fsum(float(r["cost"]) for r in got)
        if not _close(cost, trial_cost):
            bad.append(f"trial-cost-sum: {where} trial {trial} costs {cost!r}, "
                       f"want {trial_cost!r}")
        if bad:
            tally.failed += 1
            tally.problems.extend(bad)
    _check_summary(workload, cfg, summary, where, tally)
    within = summary["fraction_trials_all_within"] * trials
    tally.accuracy[trials, rep.seed] = (round(within), trials)
    digest = rep.digest()
    first = tally.digests.setdefault((trials, rep.seed), digest)
    if digest != first:
        tally.problem("determinism", f"{where}: CSV bytes differ from the "
                      f"earlier rep with the same seed")


def _check_summary(workload: str, cfg: dict, summary: dict, where: str,
                   tally: Tally) -> None:
    n, analyst, mech = cfg["n"], cfg["analyst"], cfg["mechanism"]
    T = analyst["T"]
    if workload == "sq-desk":
        sp = sq_params(n, T, mech["tau"], mech["delta"])
        if summary.get("k") != sp.k or not _close(summary.get("epsilon", -1.0),
                                                  sp.epsilon, 1e-12):
            tally.problem("schedule", f"{where}: k={summary.get('k')} "
                          f"epsilon={summary.get('epsilon')}, want {sp.k} "
                          f"and {sp.epsilon}")
    else:
        k = median_groups(cfg)
        if summary.get("k_groups") != k:
            tally.problem("schedule", f"{where}: k_groups="
                          f"{summary.get('k_groups')}, want {k}")
    mi = n * summary["total_cost_per_trial_mean"]
    if not _close(summary["mi_upper_bound"], mi):
        tally.problem("mi-bound", f"{where}: mi_upper_bound "
                      f"{summary['mi_upper_bound']!r} != n * mean cost {mi!r}")


def check_accuracy(tally: Tally) -> None:
    """The 18-of-20 rule over the run's distinct trials."""
    within = sum(w for w, _ in tally.accuracy.values())
    trials = sum(t for _, t in tally.accuracy.values())
    if trials and within < ACCURACY_FLOOR * trials:
        tally.problem("accuracy", f"{within}/{trials} trials had every answer "
                      f"within bound, need {ACCURACY_FLOOR:.0%}")


def check_pass(p, tally: Tally) -> None:
    """Suite results of one oracle pass."""
    if p.error:
        tally.attempted += 1
        tally.failed += 1
        tally.problem("exit", f"pass {p.index} (seed {p.seed}): {p.error}")
    for res in p.suites:
        tally.attempted += res.instances
        if res.failures:
            tally.failed += len(res.failures)
            tally.problem(f"suite-{res.name}", f"pass {p.index} (seed {p.seed}): "
                          f"{len(res.failures)} failures, first {res.failures[0]}")


def check_sampler(label: str, masses, counts, tally: Tally) -> None:
    """Each output's frequency within SAMPLER_SE standard errors of its
    exact mass (the standard error floored as in the engine tests)."""
    draws = sum(counts)
    for y, (p, c) in enumerate(zip(masses, counts)):
        tally.attempted += 1
        se = math.sqrt(max(p * (1.0 - p), 1e-9) / draws)
        if abs(c / draws - p) > SAMPLER_SE * se:
            tally.failed += 1
            tally.problem("sampler-frequency",
                          f"{label} output {y}: {c}/{draws} drawn, exact mass "
                          f"{p:.6f}, {abs(c / draws - p) / se:.1f} standard errors")
