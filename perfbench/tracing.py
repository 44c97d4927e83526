"""Span tracing of adasub's layers, applied from outside the package.

While installed, a Tracer replaces the public functions and methods listed
below with wrappers that record one span per call: name, start, end, parent
span, and for some a count (draws, subsets, votes, charged amount, bytes).
A function is replaced under every name that refers to it in any adasub
module, because the modules import each other's names directly (for
example ``mechanisms`` imports ``draw_positions`` and ``divergence`` and
``cli`` import ``exact_response_pmf``). Everything is restored on exit.

Spans are kept in flat in-memory arrays and written out once, at the end of
the run. A span's self time is its duration minus the durations of its
direct children. The tracer keeps one span stack, so it traces
single-threaded runs only.
"""

from __future__ import annotations

import functools
import math
import os
import sys
import time
from array import array
from contextlib import contextmanager

import numpy as np

from adasub import cli, core, divergence, engine, harness, mechanisms

ROOT_SPAN = "perfbench.rep"

FUNCTIONS = {
    "core.query_expectation_on_sample": core.query_expectation_on_sample,
    "engine.draw_positions": engine.draw_positions,
    "engine.subsample_answer": engine.subsample_answer,
    "engine.exact_response_pmf": engine.exact_response_pmf,
    "harness.naive_answer": harness.naive_answer,
    "harness.run_experiment": harness.run_experiment,
    "cli.run_suite": cli.run_suite,
    "cli.load_config": cli.load_config,
    "cli.write_csv": cli.write_csv,
    "cli.write_summary_json": cli.write_summary_json,
    **{f"divergence.{fn}": getattr(divergence, fn) for fn in (
        "measure_leave_one_out_chi2", "verify_variance_contraction",
        "kl_divergence", "chi2_divergence", "verify_kl_chi2_inequality",
        "verify_kl_mixture_inequality", "sample_exceeds_mean_probe",
        "sample_exceeds_mean_exact", "random_query_instance")},
}

# span name -> (class, method); for a base class every subclass that
# overrides the method is wrapped too, under the base class's name.
METHODS = {
    "core.TestQuery.values_on": (core.TestQuery, "values_on"),
    "core.Dataset.getitem": (core.Dataset, "__getitem__"),
    "core.Query.sample_output": (core.Query, "sample_output"),
    "mechanisms.SqSession.answer": (mechanisms.SqSession, "answer"),
    "mechanisms.MedianSession.answer": (mechanisms.MedianSession, "answer"),
    "mechanisms.BudgetLedger.charge": (mechanisms.BudgetLedger, "charge"),
    "harness.Population.draw": (harness.Population, "draw"),
    "harness.Population.truth": (harness.Population, "truth"),
    "harness.Population.response_dist": (harness.Population, "response_dist"),
    "harness.Analyst.next_query": (harness.Analyst, "next_query"),
    "harness.Analyst.final_tests": (harness.Analyst, "final_tests"),
    "harness.ExperimentReport.verify_consistency":
        (harness.ExperimentReport, "verify_consistency"),
}


def _arg(args, kwargs, i, name, default=None):
    return args[i] if len(args) > i else kwargs.get(name, default)


def _probe_cost(args, kwargs) -> float:
    """What one probe of a median answer costs: one vote per group, each at
    the mechanism's own per-vote cost for the query's arity."""
    session, q = args[0], _arg(args, kwargs, 1, "q")
    return sum(session._vote_cost(q.arity, len(g)) for g in session.groups)


def _sample_draws(args, kwargs) -> int:
    size = _arg(args, kwargs, 3, "size")
    return 1 if size is None else int(size)


# span name -> the count one call records, from (args, kwargs): answers
# drawn, subsets enumerated, votes, cost of one probe, cost charged, bytes
COUNTS = {
    "engine.subsample_answer": _sample_draws,
    "engine.exact_response_pmf":
        lambda a, k: math.comb(len(_arg(a, k, 1, "S")), _arg(a, k, 0, "q").arity),
    "mechanisms.SqSession.answer": lambda a, k: a[0].k,
    "mechanisms.MedianSession.answer": _probe_cost,
    "mechanisms.BudgetLedger.charge": lambda a, k: _arg(a, k, 1, "amount"),
    "cli.write_csv": lambda a, k: os.path.getsize(_arg(a, k, 1, "path")),
}

SPAN_NAMES = (*FUNCTIONS, *METHODS)


def layer_metric_units() -> dict[str, tuple[str, str]]:
    """Every per-layer metric the traced run reports: name -> (unit, better).

    The draws, votes, probe and ledger counts are invariants of the
    workload; a performance change must not move them. Their ``better``
    points away from a breach of the privacy accounting (work skipped or
    cost under-charged), so such a breach never reads as a gain."""
    units = {}
    for name in SPAN_NAMES:
        units[f"{name}.calls"] = ("count", "lower")
        units[f"{name}.self_s"] = ("s", "lower")
    units.update({
        "engine.subsample_answer.draws": ("count", "higher"),
        "engine.exact_response_pmf.subsets": ("count", "lower"),
        "mechanisms.SqSession.answer.votes": ("count", "higher"),
        "cli.write_csv.bytes": ("bytes", "lower"),
        "engine.philox_blocks": ("blocks", "lower"),
        "engine.generators": ("count", "lower"),
        "mechanisms.MedianSession.probes_made": ("count", "higher"),
        "mechanisms.MedianSession.probes_charged": ("count", "higher"),
        "mechanisms.MedianSession.probe_ratio": ("ratio", "lower"),
        "mechanisms.ledger_total_per_trial": ("cost", "higher"),
        "harness.threads2_speedup": ("ratio", "higher"),
        "trace.wall_s": ("s", "lower"),
        "trace.overhead_ratio": ("ratio", "lower"),
        "trace.uncovered_share": ("ratio", "lower"),
    })
    return units


def _philox_blocks(gen) -> int:
    """Philox blocks a generator has produced: its 256-bit counter, which
    starts at 0 and advances by one per block of four 64-bit outputs."""
    counter = gen.bit_generator.state["state"]["counter"]
    return sum(int(c) << (64 * i) for i, c in enumerate(counter))


class Tracer:
    """Records spans of one workload run; every span shares ``trace_id``."""

    def __init__(self, trace_id: str):
        self.trace_id = trace_id
        self.names = [ROOT_SPAN, *SPAN_NAMES]
        self._name_id = {name: i for i, name in enumerate(self.names)}
        self.parent = array("q")
        self.name = array("q")
        self.start = array("d")
        self.end = array("d")
        self.count = array("d")
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []
        self._generators: list = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, name: str, fn):
        nid = self._name_id[name]
        parent, names, start, end, count = (self.parent, self.name, self.start,
                                            self.end, self.count)
        stack = self._stack
        clock = time.perf_counter
        counter = COUNTS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(start)
            parent.append(stack[-1])
            names.append(nid)
            end.append(0.0)
            count.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if counter is not None:
                count[i] = counter(args, kwargs)
            return result

        return traced

    @contextmanager
    def span(self, name: str = ROOT_SPAN):
        """A span recorded around the benchmark's own calls into adasub."""
        i = len(self.start)
        self.parent.append(self._stack[-1])
        self.name.append(self._name_id[name])
        self.end.append(0.0)
        self.count.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        try:
            yield
        finally:
            self.end[i] = time.perf_counter()
            self._stack.pop()

    # -- installing --------------------------------------------------------

    def _replace(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    @contextmanager
    def installed(self):
        """Wrap every listed function and method; restore them on exit."""
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "adasub" or name.startswith("adasub."))]
        try:
            for name, fn in FUNCTIONS.items():
                wrapper = self._wrap(name, fn)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is fn:
                            self._replace(mod, attr, wrapper)
            for name, (base, attr) in METHODS.items():
                for cls in (base, *_subclasses(base)):
                    if attr in cls.__dict__:
                        self._replace(cls, attr, self._wrap(name, cls.__dict__[attr]))
            self._install_generator_probe()
            yield self
        finally:
            for owner, attr, original in reversed(self._patches):
                setattr(owner, attr, original)
            self._patches.clear()

    def _install_generator_probe(self) -> None:
        prop = engine.RandomSource.__dict__["generator"]
        tracer = self

        def generator(source):
            fresh = source._generator is None
            gen = prop.fget(source)
            if fresh:
                tracer._generators.append(gen)
            return gen

        self._replace(engine.RandomSource, "generator", property(generator))

    # -- results -----------------------------------------------------------

    def _arrays(self):
        return (np.frombuffer(self.parent, dtype=np.int64),
                np.frombuffer(self.name, dtype=np.int64),
                np.frombuffer(self.start), np.frombuffer(self.end),
                np.frombuffer(self.count))

    def layer_metrics(self, trials: int, groups: int) -> dict[str, float]:
        """Per-layer metrics summed over every traced rep.

        ``trials`` is the number of experiment trials the traced reps ran (0
        for the oracle) and ``groups`` the median mechanism's group count
        (0 when it does not run).
        """
        parent, name, start, end, count = self._arrays()
        dur = end - start
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        self_time = dur - child
        n = len(self.names)
        calls = np.bincount(name, minlength=n)
        self_by_name = np.bincount(name, weights=self_time, minlength=n)
        count_by_name = np.bincount(name, weights=count, minlength=n)
        parent_name = np.where(nested, name[np.maximum(parent, 0)], -1)
        nid = self._name_id

        out: dict[str, float] = {}
        for span_name in SPAN_NAMES:
            i = nid[span_name]
            out[f"{span_name}.calls"] = int(calls[i])
            out[f"{span_name}.self_s"] = float(self_by_name[i])
        sa = nid["engine.subsample_answer"]
        outer = (name == sa) & (parent_name != sa)
        out["engine.subsample_answer.draws"] = int(count[outer].sum())
        out["engine.exact_response_pmf.subsets"] = int(
            count_by_name[nid["engine.exact_response_pmf"]])
        out["mechanisms.SqSession.answer.votes"] = int(
            count_by_name[nid["mechanisms.SqSession.answer"]])
        out["cli.write_csv.bytes"] = int(count_by_name[nid["cli.write_csv"]])
        out["engine.philox_blocks"] = sum(_philox_blocks(g) for g in self._generators)
        out["engine.generators"] = len(self._generators)
        ma = nid["mechanisms.MedianSession.answer"]
        draws_in_answers = int(np.count_nonzero(
            (name == nid["engine.draw_positions"]) & (parent_name == ma)))
        made = draws_in_answers / groups if groups else 0.0
        # probes charged: the ledger charge under each answer span over the
        # cost of one probe of that answer
        charges = (name == nid["mechanisms.BudgetLedger.charge"]) & (parent_name == ma)
        charged_in = np.bincount(parent[charges], weights=count[charges],
                                 minlength=len(count))
        answers = (name == ma) & (count > 0)
        charged = float((charged_in[answers] / count[answers]).sum())
        out["mechanisms.MedianSession.probes_made"] = made
        out["mechanisms.MedianSession.probes_charged"] = charged
        out["mechanisms.MedianSession.probe_ratio"] = made / charged if charged else 0.0
        ledger = float(count_by_name[nid["mechanisms.BudgetLedger.charge"]])
        out["mechanisms.ledger_total_per_trial"] = ledger / trials if trials else 0.0
        root = name == nid[ROOT_SPAN]
        wall = float(dur[root].sum())
        out["trace.wall_s"] = wall
        out["trace.uncovered_share"] = float(self_time[root].sum()) / wall if wall else 0.0
        return out

    def write(self, path) -> None:
        """Write every span of the run to one compressed .npz file."""
        parent, name, start, end, count = self._arrays()
        np.savez_compressed(path, trace_id=np.array(self.trace_id),
                            names=np.array(self.names), parent=parent,
                            name=name, start=start, end=end, count=count)


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)
