"""The benchmark's workloads: what is set up once per process and what one
rep runs.

A rep is the unit of work whose wall time is reported. For the run
workloads it is one ``adasub run`` of the workload config, made through
``adasub.cli.main`` exactly as a user makes it. For ``oracle`` it is one
pass: every verification suite through ``adasub.cli.run_suite`` at its
default instance count, then the sampler-frequency phase through
``adasub.engine.subsample_answer``.

This module imports only the standard library at the top, so that the
set-up it times includes the import of ``adasub``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

# Reps of one run use seed + pair * SEED_STRIDE; the two reps of a pair share
# a seed, so their CSVs must be byte-identical.
SEED_STRIDE = 1_000_003

# One trial per rep (the README configs run 20): many short reps give a
# median that a few slow seconds on a shared machine do not move.
TRIALS_PER_REP = 1

RUN_CONFIGS = {
    "sq-desk": {
        "seed": 20260804, "trials": TRIALS_PER_REP, "n": 15000,
        "population": {"name": "uniform_pm1_cube", "d": 1000},
        "mechanism": {"name": "subsampling-sq", "tau": 0.1, "delta": 0.1},
        "analyst": {"name": "random-correlation", "T": 1000, "tau": 0.1},
        "threads": 1,
    },
    "median-desk": {
        "seed": 20260806, "trials": TRIALS_PER_REP, "n": 3106,
        "population": {"name": "discretized_gaussian", "lo": -4, "hi": 4,
                       "points": 257, "mu": 0, "sigma": 1},
        "mechanism": {"name": "median", "delta": 0.1},
        "analyst": {"name": "shifting-means", "T": 50, "w_max": 4,
                    "r_cells": 64, "r_step": 1.6, "max_shift": 3},
        "threads": 1,
    },
}

ORACLE_SEED = 20260801
SUITES = ("chi2-stability", "var-contraction", "var-contraction-linear-equality",
          "kl-chi2", "kl-mixture", "exceeds-mean")
# Answers drawn per pass from one random_query_instance of each arity, in
# subsample_answer calls of SAMPLER_CHUNK answers each.
SAMPLER_DRAWS = {2: 50_000, 3: 25_000}
SAMPLER_CHUNK = 5_000
# Stream label of the sampler draws, apart from the suites' child(i) streams.
SAMPLER_LABEL = 1_000_000

# The machine's speed drifts by more than half over minutes on a shared
# host, and every timing drifts with it. Timings are therefore reported at
# reference speed: multiplied by REF_SECONDS / (median time of
# reference_loop() measured between the timed calls of the same run).
# REF_SECONDS is that median on the machine of baseline.json.
REF_SECONDS = 0.035

WORKLOADS = ("sq-desk", "median-desk", "oracle")
DEFAULT_SEEDS = {"sq-desk": 20260804, "median-desk": 20260806,
                 "oracle": ORACLE_SEED}


def reference_loop() -> float:
    """Seconds a fixed mix of interpreter work (dict and tuple traffic) and
    small numpy calls (Philox subset draws, strided int8 column scans) takes.
    It uses nothing from adasub, so a change to adasub cannot move it."""
    import numpy as np

    start = time.perf_counter()
    counts: dict = {}
    for i in range(40_000):
        key = (i % 7, i % 11)
        counts[key] = counts.get(key, 0) + 1
    gen = np.random.Generator(np.random.Philox(1))
    for _ in range(1_500):
        gen.choice(44, size=2, replace=False)
    cube = np.arange(15_000, dtype=np.int8).reshape(1_500, 10)
    for j in range(200):
        (cube[:, j % 10] == 1).mean()
    return time.perf_counter() - start


def rep_seed(seed: int, pair: int) -> int:
    return seed + pair * SEED_STRIDE


@dataclass
class Setup:
    """What a workload builds once per process."""

    workload: str
    seed: int
    workdir: Path
    adasub: object
    config: Optional[dict] = None
    config_path: Optional[Path] = None
    # oracle: arity -> (query, dataset) of the sampler-frequency phase
    instances: dict = field(default_factory=dict)


def setup(workload: str, seed: int, workdir: Path) -> Setup:
    """Import adasub and adasub.cli and build the workload's config: the
    config file of a run workload, or the sampler instances of ``oracle``.
    This is the work that ``setup_s`` times."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import adasub
    import adasub.cli

    s = Setup(workload, seed, Path(workdir), adasub)
    if workload in RUN_CONFIGS:
        s.config = dict(RUN_CONFIGS[workload], seed=seed)
        s.config_path = s.workdir / f"{workload}.yaml"
        # JSON is a subset of YAML, which is what `adasub run` reads.
        s.config_path.write_text(json.dumps(s.config, indent=1) + "\n")
        adasub.cli.load_config(s.config_path)
    elif workload == "oracle":
        from adasub.divergence import random_query_instance
        root = adasub.RandomSource(seed)
        for arity in SAMPLER_DRAWS:
            gen = root.child(SAMPLER_LABEL, arity).generator
            s.instances[arity] = random_query_instance(
                gen, n_range=(arity + 1, 8), w_range=(arity, arity))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return s


class AnswerClock:
    """While installed, times every ``SqSession.answer`` and
    ``MedianSession.answer`` call and counts the votes it asks of the
    subsampling primitive: the session's k for an SQ answer, and one per
    group per probe of a median answer's binary search, which makes
    ceil(log2 |range|) probes. ``votes`` and ``seconds`` accumulate until
    the caller resets them."""

    def __init__(self, adasub):
        self.mechanisms = adasub.mechanisms
        self.votes = 0
        self.seconds = 0.0

    @contextlib.contextmanager
    def installed(self):
        m = self.mechanisms
        votes = {
            m.SqSession: lambda session, q: session.k,
            m.MedianSession: lambda session, q: len(session.groups) * (
                math.ceil(math.log2(len(q.outputs))) if len(q.outputs) > 1 else 0),
        }
        originals = {cls: cls.__dict__["answer"] for cls in votes}
        try:
            for cls, count in votes.items():
                cls.answer = self._timed(originals[cls], count)
            yield self
        finally:
            for cls, fn in originals.items():
                cls.answer = fn

    def _timed(self, answer, count):
        clock = time.perf_counter

        def timed(session, q):
            start = clock()
            try:
                return answer(session, q)
            finally:
                self.seconds += clock() - start
                self.votes += count(session, q)

        return timed


def median_w_list(cfg: dict) -> list[int]:
    """Per-round arities of the shifting-means analyst."""
    a = cfg["analyst"]
    return [(t % a["w_max"]) + 1 for t in range(a["T"])]


def median_groups(cfg: dict) -> int:
    """The median mechanism's group count k for a median-desk config."""
    from adasub.mechanisms import median_params

    a = cfg["analyst"]
    return median_params(a["T"], median_w_list(cfg), [a["r_cells"]] * a["T"],
                         cfg["mechanism"]["delta"]).k


@dataclass
class RunRep:
    index: int
    seed: int
    wall: float
    exit_code: Optional[int]
    csv_path: Path
    error: str = ""

    @property
    def summary_path(self) -> Path:
        return self.csv_path.with_suffix(".csv.summary.json")

    def digest(self) -> str:
        return hashlib.sha256(self.csv_path.read_bytes()).hexdigest()


def run_rep(s: Setup, index: int, seed: int, threads: int = 1,
            span=contextlib.nullcontext) -> RunRep:
    """One `adasub run` of the workload config with the given seed."""
    out = s.workdir / f"rep{index}.csv"
    argv = ["run", str(s.config_path), "--seed", str(seed), "--out", str(out)]
    if threads != 1:
        argv += ["--threads", str(threads)]
    code, error = None, ""
    main = s.adasub.cli.main
    with contextlib.redirect_stdout(io.StringIO()), span():
        start = time.perf_counter()
        try:
            code = main(argv)
        except Exception:  # a failed rep is counted, not fatal
            error = traceback.format_exc()
        wall = time.perf_counter() - start
    return RunRep(index, seed, wall, code, out, error)


@dataclass
class OraclePass:
    index: int
    seed: int
    suites: list = field(default_factory=list)
    # suite name -> seconds inside run_suite
    suite_seconds: dict = field(default_factory=dict)
    # arity -> seconds inside each subsample_answer call of SAMPLER_CHUNK draws
    chunk_seconds: dict = field(default_factory=dict)
    # arity -> per-output answer counts
    counts: dict = field(default_factory=dict)
    error: str = ""

    @property
    def wall(self) -> float:
        return (sum(self.suite_seconds.values())
                + sum(sum(c) for c in self.chunk_seconds.values()))


def run_pass(s: Setup, index: int, span=contextlib.nullcontext,
             reference: Optional[list] = None) -> OraclePass:
    """Every suite at its default instance count, then SAMPLER_DRAWS answers
    from each sampler instance in calls of SAMPLER_CHUNK. Only the adasub
    calls are timed. With a ``reference`` list, a reference_loop() time is
    appended to it before each timed call."""
    import numpy as np

    seed = rep_seed(s.seed, index)
    cli, engine = s.adasub.cli, s.adasub.engine
    p = OraclePass(index, seed)
    answers: dict = {}

    def before_timed_call():
        if reference is not None:
            reference.append(reference_loop())

    with span():
        try:
            for name in SUITES:
                before_timed_call()
                start = time.perf_counter()
                res = cli.run_suite(name, seed=seed)
                p.suite_seconds[name] = time.perf_counter() - start
                p.suites.append(res)
            for arity, (q, S) in s.instances.items():
                times = p.chunk_seconds.setdefault(arity, [])
                for chunk in range(SAMPLER_DRAWS[arity] // SAMPLER_CHUNK):
                    rng = engine.RandomSource(seed).child(SAMPLER_LABEL, arity, chunk)
                    before_timed_call()
                    start = time.perf_counter()
                    vals = engine.subsample_answer(q, S, rng, size=SAMPLER_CHUNK)
                    times.append(time.perf_counter() - start)
                    answers.setdefault(arity, []).append(vals)
        except Exception:  # a failed pass is counted, not fatal
            p.error = traceback.format_exc()
    for arity, chunks in answers.items():
        vals = np.concatenate(chunks)
        q = s.instances[arity][0]
        p.counts[arity] = [int(np.count_nonzero(vals == y)) for y in q.outputs]
    return p


def oracle_metrics(passes: list) -> dict:
    """wall_s, trials_per_s and sampler_draws_per_s of the oracle, from the
    median over passes of each suite's time and the median per-answer time
    of each arity's sampler calls, so that a slow moment moves one sample
    of one component rather than a whole pass."""
    import statistics

    suite_s = sum(statistics.median(p.suite_seconds[name] for p in passes
                                    if name in p.suite_seconds)
                  for name in SUITES)
    sampler_s = sum(draws * statistics.median(
        t / SAMPLER_CHUNK for p in passes for t in p.chunk_seconds.get(arity, ()))
        for arity, draws in SAMPLER_DRAWS.items())
    instances = sum(r.instances for r in passes[0].suites)
    return {"wall_s": suite_s + sampler_s,
            "trials_per_s": instances / suite_s,
            "sampler_draws_per_s": sum(SAMPLER_DRAWS.values()) / sampler_s}
