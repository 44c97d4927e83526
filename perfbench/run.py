"""The adasub benchmark: one workload per invocation, in this fresh process.

    python3 perfbench/run.py --workload {sq-desk,median-desk,oracle}
                             [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout that holds ``src/adasub``. The process sets
up the workload, repeats its rep (see workloads.py) for ``--seconds``
seconds, checks every rep's outputs (checks.py, never timed), prints one
line per metric and, as its last line, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics:
  setup_s              median over fresh processes of the time to import
                       adasub and adasub.cli and build the workload's config
  wall_s               median wall time of one rep
  trials_per_s         median per rep of trials / rep time; for the oracle,
                       suite instances (what `adasub verify --trials` counts)
                       / time inside run_suite
  sampler_draws_per_s  median per rep of answers asked of the subsampling
                       primitive / time spent answering: SQ votes per time
                       inside SqSession.answer, median group votes per time
                       inside MedianSession.answer, oracle sampler answers
                       per time inside subsample_answer
  peak_rss_mb          ru_maxrss of this process, in MiB
``--trace 1`` reports the per-layer metrics of tracing.py from one traced
rep, after untraced reps that give the tracing overhead and, for the run
workloads, the speed-up of ``--threads 2`` (capped at the CPU count).

Exit status: 0 when every check passed, 1 when one failed (each failure is
named on stderr), 2 when the run cannot start.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import uuid
from pathlib import Path

import workloads as wl

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60
THREADS_TRIALS = 4

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "trials_per_s": "1/s",
                    "sampler_draws_per_s": "1/s", "peak_rss_mb": "MiB"}


def probe_setup(workload: str, seed: int, workdir: Path) -> float:
    """Set-up time measured in a fresh process, at reference speed."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "probe_setup.py"), workload, str(seed),
         str(workdir)],
        capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True)
    elapsed, ref = (float(x) for x in proc.stdout.split()[-2:])
    return elapsed * wl.REF_SECONDS / ref


def measure(workload: str, seed: int, seconds: float, workdir: Path):
    """The end-to-end run: returns (metrics, tally)."""
    setup_times = [probe_setup(workload, seed, workdir) for _ in range(SETUP_PROBES)]
    start = time.perf_counter()
    s = wl.setup(workload, seed, workdir)
    setup_times.append(time.perf_counter() - start)
    # imported after the timed set-up, since they import adasub
    import checks

    tally = checks.Tally()
    refs: list[float] = []
    if workload == "oracle":
        passes = []
        for i in _reps(seconds):
            passes.append(wl.run_pass(s, i, reference=refs))
            checks.check_pass(passes[-1], tally)
        _check_sampler(s, passes, tally)
        raw = wl.oracle_metrics(passes)
    else:
        walls, vote_rates = [], []
        clock = wl.AnswerClock(s.adasub)
        with clock.installed():
            for i in _reps(seconds):
                refs.append(wl.reference_loop())
                clock.votes, clock.seconds = 0, 0.0
                rep = wl.run_rep(s, i, wl.rep_seed(seed, i // 2))
                checks.check_run_rep(workload, s.config, rep, tally)
                walls.append(rep.wall)
                if clock.seconds > 0:
                    vote_rates.append(clock.votes / clock.seconds)
        checks.check_accuracy(tally)
        wall = statistics.median(walls)
        raw = {"wall_s": wall,
               "trials_per_s": s.config["trials"] / wall,
               "sampler_draws_per_s": statistics.median(vote_rates or [0.0])}
    ref = statistics.median(refs)
    speed = ref / wl.REF_SECONDS
    print(f"reference_loop median {ref:.6f} s over {len(refs)} calls; measured "
          f"wall_s {raw['wall_s']:.6g} s, own set-up {setup_times[-1]:.6g} s")
    setup_times[-1] /= speed
    metrics = {"setup_s": statistics.median(setup_times),
               "wall_s": raw["wall_s"] / speed,
               "trials_per_s": raw["trials_per_s"] * speed,
               "sampler_draws_per_s": raw["sampler_draws_per_s"] * speed,
               "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    return {k: (metrics[k], unit) for k, unit in END_TO_END_UNITS.items()}, tally


def _reps(seconds: float):
    """Rep indices: at least two, then more while one as long as the last
    still ends within ``seconds``."""
    start = time.perf_counter()
    last, i = 0.0, 0
    while i < 2 or time.perf_counter() - start + last <= seconds:
        begun = time.perf_counter()
        yield i
        last = time.perf_counter() - begun
        i += 1


def trace(workload: str, seed: int, seconds: float, workdir: Path):
    """The traced run: returns (metrics, tally)."""
    s = wl.setup(workload, seed, workdir)
    import checks
    import tracing

    tally = checks.Tally()
    tracer = tracing.Tracer(f"{workload}-{seed}-{uuid.uuid4().hex[:12]}")
    # untraced reps use up to this share of the time, the traced rep the rest
    untraced_share = 0.4
    start = time.perf_counter()
    extra: dict = {}
    if workload == "oracle":
        passes = []
        while not passes or time.perf_counter() - start < untraced_share * seconds:
            passes.append(wl.run_pass(s, len(passes)))
            checks.check_pass(passes[-1], tally)
        with tracer.installed():
            traced = wl.run_pass(s, len(passes), span=tracer.span)
        checks.check_pass(traced, tally)
        _check_sampler(s, passes + [traced], tally)
        untraced = statistics.median(p.wall for p in passes)
        trials, groups = 0, 0
        extra["harness.threads2_speedup"] = 0.0
    else:
        walls = []
        while not walls or time.perf_counter() - start < untraced_share * seconds / 2:
            rep = wl.run_rep(s, len(walls), wl.rep_seed(seed, 0))
            checks.check_run_rep(workload, s.config, rep, tally)
            walls.append(rep.wall)
        with tracer.installed():
            rep = wl.run_rep(s, len(walls), wl.rep_seed(seed, 0), span=tracer.span)
        checks.check_run_rep(workload, s.config, rep, tally)
        untraced = statistics.median(walls)
        extra["harness.threads2_speedup"] = _threads2_speedup(
            s, seed, start + untraced_share * seconds, tally)
        checks.check_accuracy(tally)
        trials = s.config["trials"]
        groups = wl.median_groups(s.config) if workload == "median-desk" else 0
    metrics = tracer.layer_metrics(trials=trials, groups=groups)
    metrics.update(extra)
    metrics["trace.overhead_ratio"] = metrics["trace.wall_s"] / untraced
    tracer.write(wl.OUT_DIR / f"spans-{workload}.npz")
    units = tracing.layer_metric_units()
    return {k: (metrics[k], units[k][0]) for k in units}, tally


def _threads2_speedup(s, seed: int, until: float, tally) -> float:
    """Median rep time at threads 1 over that at min(2, nproc) threads, on
    THREADS_TRIALS-trial reps, since one trial leaves a pool nothing to share."""
    import checks

    cfg = dict(s.config, trials=THREADS_TRIALS)
    path = s.workdir / f"{s.workload}-threads.yaml"
    path.write_text(json.dumps(cfg))
    s = dataclasses.replace(s, config=cfg, config_path=path)
    threads2 = min(2, os.cpu_count() or 1)
    walls: dict = {1: [], threads2: []}
    index = 1000  # CSV names apart from those of the one-trial reps
    while not walls[1] or time.perf_counter() < until:
        pair_seed = wl.rep_seed(seed, len(walls[1]))
        for threads in walls:
            rep = wl.run_rep(s, index, pair_seed, threads=threads)
            checks.check_run_rep(s.workload, cfg, rep, tally)
            walls[threads].append(rep.wall)
            index += 1
    return statistics.median(walls[1]) / statistics.median(walls[threads2])


def _check_sampler(s, passes: list, tally) -> None:
    """Answer counts pooled over the run's passes against the exact law."""
    import checks
    from adasub.engine import exact_response_pmf

    for arity, (q, S) in s.instances.items():
        counts = [sum(c) for c in zip(*(p.counts[arity] for p in passes
                                         if arity in p.counts))]
        if counts:
            checks.check_sampler(f"arity {arity} (n={len(S)})",
                                 exact_response_pmf(q, S).masses, counts, tally)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (wl.SRC / "adasub" / "__init__.py").is_file():
        print(f"error: no adasub sources under {wl.SRC}; run from the root of "
              f"an adasub checkout", file=sys.stderr)
        return 2
    seed = wl.DEFAULT_SEEDS[args.workload] if args.seed is None else args.seed
    wl.OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=wl.OUT_DIR))
    try:
        run = trace if args.trace else measure
        metrics, tally = run(args.workload, seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for problem in tally.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{name:48s} {value:>16.6g} {unit}")
    result = {"correct": tally.correct, "attempted": tally.attempted,
              "failed": tally.failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    print(json.dumps(result))
    return 0 if tally.correct else 1


if __name__ == "__main__":
    sys.exit(main())
