"""Command-line front end: experiment runs, verification suites, parameters.

Subcommands:

    run <config.yaml> [--seed N] [--out PATH]
        Execute an experiment config, write the report CSV plus a
        machine-readable summary JSON sidecar, print a human summary.

    verify <suite> [--trials N] [--seed N]
        Run a named numerical verification suite; failures print the full
        serialized counterexample instance.

    params (--n N --T T --tau TAU --delta D | --median --T T --rmax R
            --delta D [--wmax W] [--n N])
        Print the mechanism parameter schedule and budget for a planned run.

Exit codes: 0 success, 2 config/usage error, 3 suite, consistency or internal failure.
The CSV schema is fixed: header ``trial,t,query_id,mechanism,answer,
sample_value,truth,bias,threshold,within_bound,cost``; numeric fields are
written with 12 significant digits, so identical config and seed produce
byte-identical files. ADASUB_OUT_DIR sets the default output directory.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import itertools
import json
import math
import os
import re
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import yaml

from . import divergence as dv
from .core import Dataset
from .engine import RandomSource
from .harness import (
    CONFIG_KEYS,
    ROW_COLUMNS,
    ConfigError,
    ExperimentConfig,
    ExperimentReport,
    RUN_MAX_ROUNDS,
    SAMPLE_MAX,
    read_keys,
    run_experiment,
)
from .mechanisms import (
    median_params, mi_upper_bound, search_rounds, sq_answer_cost, sq_params)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_FAILURE = 3

OUT_DIR_ENV = "ADASUB_OUT_DIR"


# ---------------------------------------------------------------------------
# Config ingestion.

class _UnreadInt:
    """A YAML int that Python does not convert, such as one of more digits
    than sys.get_int_max_str_digits(). The config loader yields it where
    yaml.safe_load would raise, so the typed check that reads the value
    rejects it by key, as it rejects any value of a wrong type."""

    def __init__(self, text: str):
        self.text = text

    def __repr__(self) -> str:
        return (f"an int that Python does not read ({len(self.text)} characters;"
                f" it reads at most {sys.get_int_max_str_digits()} digits)")


def _config_loader(base: type) -> type:
    """A safe loader on ``base`` that yields ``_UnreadInt`` for an int
    Python does not read and reads floats as YAML 1.2 does."""

    class Loader(base):
        def construct_yaml_int(self, node):
            try:
                return super().construct_yaml_int(node)
            except ValueError:
                return _UnreadInt(node.value)

    Loader.add_constructor("tag:yaml.org,2002:int", Loader.construct_yaml_int)
    # YAML 1.1 reads a float whose exponent has no sign or whose mantissa has
    # no dot, such as 1e-1 or 1.0e5, as a string; YAML 1.2 and Python read a float
    Loader.add_implicit_resolver(
        "tag:yaml.org,2002:float",
        re.compile(r"^[-+]?(?:[0-9][0-9_]*(?:\.[0-9_]*)?|\.[0-9_]+)[eE][-+]?[0-9]+$"),
        list("-+.0123456789"))
    return Loader


# configs parse with libyaml where PyYAML has it; the pure-Python parser
# words the errors, as libyaml words them its own way
_ConfigLoader = _config_loader(getattr(yaml, "CSafeLoader", yaml.SafeLoader))
_PyConfigLoader = _config_loader(yaml.SafeLoader)


def load_config(path: str | Path) -> ExperimentConfig:
    """Parse a YAML experiment config and read it against the config schema
    (``harness.CONFIG_KEYS``); a bad key or value is a ConfigError naming it."""
    try:
        text = Path(path).read_text()
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    try:
        try:
            raw = yaml.load(text, Loader=_ConfigLoader)
        except yaml.YAMLError:  # parse again for the pure-Python error
            raw = yaml.load(text, Loader=_PyConfigLoader)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)  # counts from 0
        if mark is None or exc.problem is None:
            raise ConfigError(f"config does not parse as YAML: {exc}") from None
        raise ConfigError(
            f"{path}:{mark.line + 1}:{mark.column + 1}: {exc.problem}") from None
    if not isinstance(raw, dict):
        raise ConfigError("config must be a mapping")
    fields = read_keys(CONFIG_KEYS, raw, "config")
    del fields["threads"]  # legacy: read and then ignored
    return ExperimentConfig(**fields)


def format_number(v) -> str:
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return format(float(v), ".12g")


def _cell(v) -> str:
    """One CSV cell: a str (or a str subclass) as itself, any other value as
    ``format_number`` gives it; an exact str or float is dispatched first."""
    kind = type(v)
    if kind is str:
        return v
    if kind is float:
        return format(v, ".12g")
    return v if isinstance(v, str) else format_number(v)


def write_csv(report: ExperimentReport, path: str | Path) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(ROW_COLUMNS)
        writer.writerows([_cell(row[c]) for c in ROW_COLUMNS] for row in report.rows)


def write_summary_json(report: ExperimentReport, path: str | Path) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(report.summary, indent=2, sort_keys=True,
                               default=float) + "\n")


def _default_out(seed: int) -> Path:
    base = Path(os.environ.get(OUT_DIR_ENV, "."))
    return base / f"run-{seed}.csv"


def _check_writable(path: Path) -> None:
    """Fail as writing ``path`` would, before any trial runs, and leave no
    new file: make its directories, open it for appending, and remove it
    again if it was not there."""
    path.parent.mkdir(parents=True, exist_ok=True)
    new = not os.path.lexists(path)
    path.open("a").close()
    if new:
        path.unlink()


def _output(path: Path, write) -> None:
    """``write(path)``, an OSError refused as the ConfigError naming path."""
    try:
        write(path)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror or exc}") from None


def cmd_run(args) -> int:
    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg = dataclasses.replace(cfg, seed=args.seed)
        out = Path(args.out) if args.out else (
            Path(cfg.out) if cfg.out else _default_out(cfg.seed))
        sidecar = out.with_suffix(out.suffix + ".summary.json")
        outputs = ((out, write_csv), (sidecar, write_summary_json))
        for path, _ in outputs:
            _output(path, _check_writable)
        report = run_experiment(cfg)
        report.verify_consistency()
        for path, write in outputs:
            _output(path, lambda p: write(report, p))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:  # the config was valid, so the fault is internal
        print(f"run failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    print(f"wrote {len(report.rows)} rows to {out}")
    for key in sorted(report.summary):
        print(f"  {key}: {report.summary[key]}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Verification suites.

@dataclass
class SuiteResult:
    name: str
    instances: int
    failures: list[str] = field(default_factory=list)
    stats: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return not self.failures


def _suite_chi2_stability(trials: int, seed: int) -> SuiteResult:
    """Average leave-one-out chi-squared never exceeds its closed form; for
    arity-1 deterministic queries it attains it exactly (with the range
    measured on the realized answer support). Block b is
    dv.random_query_block(seed, b), the last one cut to --trials, so
    instance i's index replays it at any --trials; the instances of one
    block that share (n, w, |Y|) are measured in one ``dv.table_chi2_rows``
    call. Every row counts in the stats, and each failing instance is named
    once: a row over the bound by ``dv.CHI2_EXCESS``, else an arity-1 row off
    its equality. Only an instance that fails is built as a query and a
    dataset, to be written out."""
    res = SuiteResult("chi2-stability", trials)
    max_excess = -math.inf
    max_eq_dev = 0.0
    for block, lo in enumerate(range(0, trials, dv.SUITE_BLOCK)):
        rows = dv.random_query_block(seed, block)
        count = min(trials - lo, dv.SUITE_BLOCK)
        failed: list[tuple[int, str]] = []  # (row, what failed)
        for group in dv.key_groups(rows.n[:count], rows.w[:count], rows.ysize[:count]):
            measured, bound, _, laws = dv.table_chi2_rows(rows, group)
            max_excess = max(max_excess, float((measured - bound).max()))
            over = measured > bound + dv.INEQ_TOL
            failed += [(j, dv.CHI2_EXCESS.format(m, bound))
                       for j, m in zip(group[over].tolist(), measured[over].tolist())]
            n, w = int(rows.n[group[0]]), int(rows.w[group[0]])
            if w != 1:
                continue
            # the closed form at each realized support size 1..|Y|
            eq_bounds = np.array([dv.chi2_stability_bound(n, 1, s)
                                  for s in range(1, laws.shape[1] + 1)])
            dev = np.abs(measured - eq_bounds[np.count_nonzero(laws > 0.0, axis=1) - 1])
            max_eq_dev = max(max_eq_dev, float(dev.max()))
            failed += [(j, f"w=1 equality off by {d:.3e}")
                       for j, d in zip(group[~over].tolist(), dev[~over].tolist())
                       if d > 1e-10]
        for j, what in sorted(failed):
            res.failures.append(f"instance {lo + j}: {what}; "
                                f"{_describe_instance(*rows.instance(j))}")
    res.stats = {"max_excess": max_excess, "max_equality_dev": max_eq_dev}
    return res


def _describe_instance(q, S: Dataset) -> str:
    return f"query={q.name} tag={q.tag!r} dataset={list(S)!r}"


def _suite_var_contraction(trials: int, seed: int, linear: bool) -> SuiteResult:
    """The variance-contraction inequality, or with ``linear`` its equality,
    on random subset functions. Block b is dv.random_subset_rows(seed, b,
    linear), the last one cut to --trials; the instances of one block that
    share (n, w) are checked in one ``dv.variance_contraction_rows`` call,
    and a failure writes f out from its block row."""
    name = "var-contraction-linear-equality" if linear else "var-contraction"
    res = SuiteResult(name, trials)
    max_dev = 0.0
    for block, lo in enumerate(range(0, trials, dv.SUITE_BLOCK)):
        ns, ws, vals = dv.random_subset_rows(seed, block, linear)
        count = min(trials - lo, dv.SUITE_BLOCK)
        lhs, rhs = np.empty(count), np.empty(count)
        for group in dv.key_groups(ns[:count], ws[:count]):
            lhs[group], rhs[group] = dv.variance_contraction_rows(
                np.stack([vals[j] for j in group]), int(ns[group[0]]), int(ws[group[0]]))
        dev = np.abs(lhs - rhs) if linear else lhs - rhs
        max_dev = max(max_dev, float(dev.max()))
        for j in np.flatnonzero(dev > 1e-10).tolist():
            n, w = int(ns[j]), int(ws[j])
            f = dict(zip(itertools.combinations(range(n), w), vals[j].tolist()))
            res.failures.append(f"instance {lo + j}: n={n} w={w} "
                                f"lhs={float(lhs[j])!r} rhs={float(rhs[j])!r} f={f!r}")
    res.stats = {"max_dev": max_dev}
    return res


def _suite_kl(name: str, trials: int, seed: int, check) -> SuiteResult:
    """A KL suite over the blocks of dv.random_pmf_rows, the last one cut to
    --trials, so instance i's index replays it at any --trials. ``check(first,
    sizes, D, E)`` gives each row's tau and the block's row-wise
    InequalityCheck; only a failing row is written out."""
    res = SuiteResult(name, trials)
    for block, lo in enumerate(range(0, trials, dv.PMF_BLOCK)):
        sizes, d, e = (a[:trials - lo] for a in dv.random_pmf_rows(seed, block))
        tau, c = check(lo, sizes, d, e)
        for j in np.flatnonzero(~c.passed):
            k = sizes[j]
            res.failures.append(
                f"instance {lo + j}: D={d[j, :k].tolist()} E={e[j, :k].tolist()} "
                f"tau={float(tau[j])!r} kl={float(c.lhs[j])!r} "
                f"bound={float(c.rhs[j])!r}")
    return res


def _kl_chi2_block(lo, sizes, d, e):
    """tau is each pair's largest floor, min_y E(y)/D(y), capped at 1."""
    tau = np.divide(e, d, out=np.full(d.shape, np.inf), where=d > 0.0).min(axis=1)
    return tau, dv.kl_chi2_rows(d, e, np.minimum(tau, 1.0))


def _kl_mixture_block(lo, sizes, d, e):
    """tau cycles through 0.5, 0.1 and 0.01 by instance index."""
    tau = np.array((0.5, 0.1, 0.01))[np.arange(lo, lo + len(sizes)) % 3]
    return tau, dv.kl_mixture_rows(d, e, tau, sizes)


def _suite_exceeds_mean(trials: int, seed: int) -> SuiteResult:
    """Three probes of the exceeds-mean-minus-one lower bound 0.0357: a
    constant list by Monte Carlo at min(trials, 2000) draws, and two exact
    tails (``dv.sample_exceeds_mean_exact``): a large two-value instance,
    200 zeros and 200 ones with n = 100, whose tail is
    1/2 + C(200,50)^2 / (2 C(400,100)), and a small one."""
    res = SuiteResult("exceeds-mean", 3)
    floor = 0.0357
    rng = RandomSource(seed).child(0)
    est = dv.sample_exceeds_mean_probe([0.5] * 12, 3, min(trials, 2000), rng)
    if est < 1.0:
        res.failures.append(f"constant probe: estimate {est!r} < 1")
    two_val = dv.sample_exceeds_mean_exact([0.0] * 200 + [1.0] * 200, 100)
    if two_val < floor:
        res.failures.append(f"two-value probe: {two_val!r} < {floor}")
    exact = dv.sample_exceeds_mean_exact([i % 2 for i in range(10)], 5)
    if exact < floor:
        res.failures.append(f"exact probe: {exact!r} < {floor}")
    res.stats = {"constant": est, "two_value": two_val, "exact": exact}
    return res


SUITES = {
    "chi2-stability": (1000, _suite_chi2_stability),
    "var-contraction": (1000, lambda t, s: _suite_var_contraction(t, s, False)),
    "var-contraction-linear-equality":
        (200, lambda t, s: _suite_var_contraction(t, s, True)),
    "kl-chi2": (10_000, lambda t, s: _suite_kl("kl-chi2", t, s, _kl_chi2_block)),
    "kl-mixture":
        (10_000, lambda t, s: _suite_kl("kl-mixture", t, s, _kl_mixture_block)),
    "exceeds-mean": (2000, _suite_exceeds_mean),
}


def run_suite(name: str, trials: int | None = None, seed: int = 1) -> SuiteResult:
    if name not in SUITES:
        raise ConfigError(f"unknown suite {name!r} (known: {', '.join(sorted(SUITES))})")
    default_trials, fn = SUITES[name]
    trials = default_trials if trials is None else trials
    if trials < 1:
        raise ConfigError(f"--trials must be at least 1, got {trials}")
    if seed < 0:
        raise ConfigError(f"--seed must be non-negative, got {seed}")
    return fn(trials, seed)


def cmd_verify(args) -> int:
    names = sorted(SUITES) if args.suite == "all" else [args.suite]
    try:
        results = [run_suite(n, args.trials, args.seed) for n in names]
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:  # the arguments were valid, so the fault is internal
        print(f"verify failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    code = EXIT_OK
    for res in results:
        status = "pass" if res.passed else "FAIL"
        stats = " ".join(f"{k}={format_number(v)}" for k, v in sorted(res.stats.items()))
        print(f"{res.name}: {status} ({res.instances} instances) {stats}".rstrip())
        for failure in res.failures:
            print(f"  counterexample: {failure}")
        if not res.passed:
            code = EXIT_FAILURE
    return code


# ---------------------------------------------------------------------------
# Parameter tables.

def cmd_params(args) -> int:
    try:
        for flag, ceiling in (("n", SAMPLE_MAX), ("T", RUN_MAX_ROUNDS),
                              ("wmax", RUN_MAX_ROUNDS)):  # before any arithmetic
            value = getattr(args, flag)
            if value is not None and value > ceiling:
                raise ConfigError(f"--{flag} must be at most {ceiling}, got {value}")
        if args.median:
            if args.T is None or args.rmax is None or args.delta is None:
                raise ConfigError("median params need --T, --rmax and --delta")
            wmax = 1 if args.wmax is None else args.wmax
            for flag, value in (("rmax", args.rmax), ("wmax", wmax), ("n", args.n)):
                if value is not None and value < 1:
                    raise ConfigError(f"--{flag} must be at least 1, got {value}")
            mp = median_params(args.T, [wmax] * args.T, [args.rmax] * args.T,
                               args.delta)
            print(f"groups k            : {mp.k}")
            print(f"advisory minimal n  : {mp.advisory_min_n}")
            print(f"search rounds/query : {search_rounds(args.rmax)}")
            if args.n is not None:
                print(f"requested n         : {args.n} "
                      f"({'above' if args.n >= mp.advisory_min_n else 'BELOW'} advisory)")
            return EXIT_OK
        for flag in ("n", "T", "tau", "delta"):
            if getattr(args, flag) is None:
                raise ConfigError(f"statistical-query params need --{flag}")
        sp = sq_params(args.n, args.T, args.tau, args.delta)
        per_query = sq_answer_cost(args.n, sp.k, sp.epsilon, args.delta)
        total = args.T * per_query
        print(f"epsilon (squash)    : {format_number(sp.epsilon)}")
        print(f"votes per query k   : {sp.k}")
        print(f"advisory minimal n  : {sp.advisory_min_n}")
        print(f"per-query cost      : {format_number(per_query)}")
        print(f"total budget (T={args.T}): {format_number(total)}")
        print(f"MI upper bound      : {format_number(mi_upper_bound(args.n, total))}")
        return EXIT_OK
    except (ConfigError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="adasub",
        description="Subsampling mechanisms for adaptive data analysis")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment config")
    p_run.add_argument("config")
    p_run.add_argument("--seed", type=int, default=None)
    # legacy: accepted and ignored, since trials run serially
    p_run.add_argument("--threads", type=int, help=argparse.SUPPRESS)
    p_run.add_argument("--out", default=None)
    p_run.set_defaults(fn=cmd_run)

    p_verify = sub.add_parser("verify", help="run a named verification suite")
    p_verify.add_argument("suite")
    p_verify.add_argument("--trials", type=int, default=None)
    p_verify.add_argument("--seed", type=int, default=1)
    p_verify.set_defaults(fn=cmd_verify)

    p_params = sub.add_parser("params", help="print mechanism parameter tables")
    p_params.add_argument("--median", action="store_true")
    p_params.add_argument("--n", type=int, default=None)
    p_params.add_argument("--T", type=int, default=None)
    p_params.add_argument("--tau", type=float, default=None)
    p_params.add_argument("--delta", type=float, default=None)
    p_params.add_argument("--rmax", type=int, default=None)
    p_params.add_argument("--wmax", type=int, default=None)
    p_params.set_defaults(fn=cmd_params)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
