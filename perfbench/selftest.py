"""Show that the benchmark's correctness checks bite.

    python3 perfbench/selftest.py

Run from the root of the checkout. Part one runs small real experiments,
checks that their untouched outputs pass, then breaks the outputs one way
per check and requires that check to fail by name. Part two runs the
benchmark command itself with adasub patched in this process, once so that
each written CSV loses one cost row and once so that the sampler draws from
the wrong law, and requires exit status 1. It also requires BENCHMARK.json
to name exactly the metrics the command prints. Exits 0 when all hold.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np

import workloads as wl

sys.path.insert(0, str(wl.SRC))

import adasub.cli  # noqa: E402
import adasub.engine  # noqa: E402

import checks  # noqa: E402
import run  # noqa: E402

SMALL = {
    "sq-desk": dict(wl.RUN_CONFIGS["sq-desk"], trials=2, n=2000,
                    population={"name": "uniform_pm1_cube", "d": 40},
                    mechanism={"name": "subsampling-sq", "tau": 0.2, "delta": 0.1},
                    analyst={"name": "random-correlation", "T": 40, "tau": 0.2}),
    "median-desk": dict(wl.RUN_CONFIGS["median-desk"], trials=2, n=600,
                        analyst={"name": "shifting-means", "T": 8, "w_max": 2,
                                 "r_cells": 16, "r_step": 1.6, "max_shift": 3}),
}


def small_rep(workdir: Path, workload: str, index: int, seed: int = 7) -> wl.RunRep:
    cfg = SMALL[workload]
    path = workdir / f"{workload}.yaml"
    path.write_text(json.dumps(cfg))
    s = wl.Setup(workload, seed, workdir, adasub, config=cfg, config_path=path)
    return wl.run_rep(s, index, seed)


def drop_cost_row(csv_path: Path) -> None:
    lines = csv_path.read_text().splitlines(keepends=True)
    csv_path.write_text("".join(lines[:2] + lines[3:]))


def edit_summary(rep, key, fn) -> None:
    summary = json.loads(rep.summary_path.read_text())
    summary[key] = fn(summary[key])
    rep.summary_path.write_text(json.dumps(summary))


def scale_first_row(csv_path: Path, column: str) -> None:
    with csv_path.open(newline="") as fh:
        rows = list(csv.reader(fh))
    i = rows[0].index(column)
    rows[1][i] = repr(float(rows[1][i]) * 1.01)
    with csv_path.open("w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def expect(label: str, tally: checks.Tally, check: str | None) -> bool:
    """check None: the tally must be clean; else `check` must have failed."""
    names = {p.split(":", 1)[0] for p in tally.problems}
    ok = tally.correct if check is None else (not tally.correct and check in names)
    want = "pass" if check is None else f"fail {check}"
    print(f"{'ok ' if ok else 'BAD'} {label}: want {want}, got "
          f"{sorted(names) or 'pass'}")
    return ok


def part_one(workdir: Path) -> bool:
    ok = True
    for workload in SMALL:
        cfg = SMALL[workload]

        def checked(mutate=None, seed=7):
            rep = small_rep(workdir, workload, 0, seed)
            if mutate:
                mutate(rep)
            tally = checks.Tally()
            checks.check_run_rep(workload, cfg, rep, tally)
            return tally

        ok &= expect(f"{workload} untouched", checked(), None)
        ok &= expect(f"{workload} one cost row dropped",
                     checked(lambda r: drop_cost_row(r.csv_path)), "rows-per-trial")
        ok &= expect(f"{workload} one cost changed",
                     checked(lambda r: scale_first_row(r.csv_path, "cost")), "trial-cost-sum")
        ok &= expect(f"{workload} header renamed", checked(
            lambda r: r.csv_path.write_text("run" + r.csv_path.read_text()[5:])),
            "csv-header")
        key = "k" if workload == "sq-desk" else "k_groups"
        ok &= expect(f"{workload} sidecar {key} off by one",
                     checked(lambda r: edit_summary(r, key, lambda v: v + 1)),
                     "schedule")
        ok &= expect(f"{workload} sidecar MI bound off",
                     checked(lambda r: edit_summary(r, "mi_upper_bound",
                                                    lambda v: v * 1.01)), "mi-bound")
        tally = checks.Tally()
        for index in range(2):
            rep = small_rep(workdir, workload, index)
            if index:
                scale_first_row(rep.csv_path, "answer")
            checks.check_run_rep(workload, cfg, rep, tally)
        ok &= expect(f"{workload} same seed, different bytes", tally, "determinism")

    tally = checks.Tally(accuracy={1: (17, 20)})
    checks.check_accuracy(tally)
    ok &= expect("17 of 20 trials within bound", tally, "accuracy")

    failing = adasub.cli.SuiteResult("kl-chi2", 3, failures=["instance 1: made up"])
    tally = checks.Tally()
    checks.check_pass(wl.OraclePass(0, 1, suites=[failing]), tally)
    ok &= expect("suite reporting a failure", tally, "suite-kl-chi2")

    s = wl.setup("oracle", wl.ORACLE_SEED, workdir)
    q, S = s.instances[2]
    masses = adasub.engine.exact_response_pmf(q, S).masses
    gen = np.random.default_rng(3)
    for label, law, check in (("right", masses, None),
                              ("wrong", np.roll(masses, 1), "sampler-frequency")):
        tally = checks.Tally()
        checks.check_sampler("arity 2", masses, gen.multinomial(50_000, law), tally)
        ok &= expect(f"sampler drawn from the {label} law", tally, check)
    return ok


@contextlib.contextmanager
def patched(owner, attr, value):
    original = getattr(owner, attr)
    setattr(owner, attr, value)
    try:
        yield
    finally:
        setattr(owner, attr, original)


def part_two() -> bool:
    write_csv = adasub.cli.write_csv

    def write_csv_dropping_a_row(report, path):
        write_csv(report, path)
        drop_cost_row(Path(path))

    def sample_wrong_law(q, S, rng, size=None):
        masses = np.roll(adasub.engine.exact_response_pmf(q, S).masses, 1)
        gen = rng.generator
        return np.asarray(q.outputs)[gen.choice(len(masses), size=size, p=masses)]

    ok = True
    for workload, owner, attr, fake in (
            ("sq-desk", adasub.cli, "write_csv", write_csv_dropping_a_row),
            ("oracle", adasub.engine, "subsample_answer", sample_wrong_law)):
        with patched(owner, attr, fake), contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()) as err:
            code = run.main(["--workload", workload, "--seconds", "0"])
        named = [line for line in err.getvalue().splitlines()
                 if line.startswith("check failed:")]
        good = code == 1 and bool(named)
        print(f"{'ok ' if good else 'BAD'} run.py --workload {workload} with "
              f"{attr} broken: exit {code}, {named[0] if named else 'no check named'}")
        ok &= good
    return ok


def spec_matches() -> bool:
    """BENCHMARK.json lists exactly the metrics and units the command prints."""
    import tracing

    spec = json.loads((wl.ROOT / "BENCHMARK.json").read_text())
    ok = ({m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
          and {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
          == tracing.layer_metric_units()
          and [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS))
    print(f"{'ok ' if ok else 'BAD'} BENCHMARK.json names every printed metric")
    return ok


def main() -> int:
    wl.OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="selftest-", dir=wl.OUT_DIR))
    try:
        ok = spec_matches() & part_one(workdir) & part_two()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("every check bit" if ok else "SOME CHECK DID NOT BITE")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
