"""Layering guard: adasub's modules import each other only downward,
core <- engine <- {divergence, mechanisms} <- harness <- cli, and no import
statement sits inside a function, where an import cycle could hide. Also
guards the names that the benchmark harness in ``perfbench/`` looks up and
the session attributes it reads, that every function has a caller outside
the tests, that ``core.position_blocks`` is the one enumerator, and that
only the cube sample reads raw words and bits."""

import ast
import contextlib
import importlib
import re
import sys
from pathlib import Path

import numpy as np

import adasub
from adasub.core import Dataset, Query, TestQuery
from adasub.engine import RandomSource
from adasub.mechanisms import BudgetLedger, MedianSession, SqSession

SRC = Path(__file__).resolve().parent.parent / "src" / "adasub"
PERFBENCH = SRC.parents[1] / "perfbench"

# a module may import only modules of a lower layer
LAYER = {"core": 0, "engine": 1, "divergence": 2, "mechanisms": 2,
         "harness": 3, "cli": 4}


def _sibling_imports(tree: ast.Module):
    """(line, module) for every import of another adasub module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                node.level == 1 or (node.module or "").split(".")[0] == "adasub"):
            path = node.module.split(".") if node.module else []
            if node.level == 0:
                path = path[1:]
            names = path[:1] or [alias.name for alias in node.names]
            yield from ((node.lineno, name) for name in names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                path = alias.name.split(".")
                if path[0] == "adasub" and len(path) > 1:
                    yield node.lineno, path[1]


def test_every_module_has_a_layer():
    modules = {p.stem for p in SRC.glob("*.py")} - {"__init__"}
    assert modules == set(LAYER)


def test_modules_import_only_lower_layers():
    upward = []
    for name, layer in LAYER.items():
        tree = ast.parse((SRC / f"{name}.py").read_text())
        upward += [f"{name}.py:{line} imports {target}"
                   for line, target in _sibling_imports(tree)
                   if LAYER[target] >= layer]
    assert not upward, f"imports that do not go down a layer: {upward}"


def test_no_import_inside_a_function():
    nested = []
    for path in sorted(SRC.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text())):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                nested += [f"{path.name}:{node.lineno}" for node in ast.walk(fn)
                           if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert not nested, f"imports inside functions: {nested}"


@contextlib.contextmanager
def _perfbench(monkeypatch):
    """perfbench's tracing and workloads modules, imported for one test."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    names = ("tracing", "workloads", "checks")
    try:
        tracing, workloads, _ = (importlib.import_module(name) for name in names)
        yield tracing, workloads
    finally:
        for name in names:
            sys.modules.pop(name, None)


def test_perfbench_traces_live_callables(monkeypatch):
    """perfbench's tracer looks adasub's functions up by name when it is
    imported, so deleting one of them fails here and not only in a
    benchmark run."""
    with _perfbench(monkeypatch) as (tracing, _):
        stale = [span for span, fn in tracing.FUNCTIONS.items()
                 if getattr(importlib.import_module("adasub." + span.split(".")[0]),
                            span.split(".")[1], None) is not fn]
        assert not stale, f"traced functions adasub no longer has: {stale}"


def test_perfbench_traces_live_methods(monkeypatch):
    """perfbench's tracer wraps a traced method only in the classes whose
    ``__dict__`` holds it, so a deleted method would read 0 calls without
    an error; here it fails instead. ``core.Query.sample_output`` is gone
    already and waits for the benchmark's next change to drop its entry."""
    with _perfbench(monkeypatch) as (tracing, _):
        stale = [span for span, (base, attr) in tracing.METHODS.items()
                 if not any(attr in cls.__dict__
                            for cls in (base, *tracing._subclasses(base)))]
        assert set(stale) <= {"core.Query.sample_output"}, (
            f"traced methods adasub no longer has: {stale}")


def test_perfbench_reads_live_session_attributes(monkeypatch):
    """perfbench's answer clock and probe-cost count read a live session's
    ``k``, ``groups`` and ``_vote_cost``, and its ledger count reads the
    amount of a ``BudgetLedger.charge`` call, passed by position or by name,
    so deleting or renaming one of them fails here and not only in a
    benchmark run."""
    calls = []  # (args, kwargs) of every charge the sessions make
    charge = BudgetLedger.charge

    def spy(*args, **kwargs):
        calls.append((args, kwargs))
        return charge(*args, **kwargs)

    monkeypatch.setattr(BudgetLedger, "charge", spy)
    with _perfbench(monkeypatch) as (tracing, workloads):
        clock = workloads.AnswerClock(adasub)
        sq = SqSession(Dataset([0, 1, 1, 0]), 0.1, 5, RandomSource(1), 0.2)
        median = MedianSession(Dataset(np.arange(12.0)), 3, RandomSource(2))
        q = Query.deterministic(1, (0.0, 1.0, 2.0, 3.0, 4.0), lambda x: min(x, 4.0),
                                name="clip")
        with clock.installed():
            sq.answer(TestQuery(1, float, name="id"))
            assert clock.votes == sq.k == 5
            median.answer(q)
            assert clock.votes == 5 + len(median.groups) * 3  # 3 probes over 5 values
        # one probe's cost, as charged: 3 probes for a range of 5 values
        assert 3 * tracing._probe_cost((median, q), {}) == median.ledger.last
        count = tracing.COUNTS["mechanisms.BudgetLedger.charge"]
        assert [count(*call) for call in calls] == [sq.ledger.last, median.ledger.last]
        ledger = BudgetLedger()
        for args, kwargs in (((ledger, 0.25), {}), ((ledger,), {"amount": 0.5})):
            charge(*args, **kwargs)
            assert count(args, kwargs) == ledger.last
        assert ledger.total == 0.75


def _named(tree: ast.Module):
    """(name, enclosing module-level def or None) for every Name, Attribute
    and dotted-identifier string constant in a module, split at its dots."""
    owner = {id(node): fn.name for fn in tree.body
             if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
             for node in ast.walk(fn)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and re.fullmatch(r"[\w.]+", node.value)):
            names = node.value.split(".")
        else:
            continue
        yield from ((name, owner.get(id(node))) for name in names)


def test_every_function_has_a_library_caller():
    """Every module-level function in adasub is exported by the package or
    named outside its own body in adasub or in ``perfbench/``, which looks
    functions up by string, so code that only tests call fails here."""
    exported = {alias.name for node in ast.parse((SRC / "__init__.py").read_text()).body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    uses = set()  # (name, file, enclosing def) of every mention
    for path in (*SRC.glob("*.py"), *PERFBENCH.glob("*.py")):
        uses |= {(name, path, fn) for name, fn in _named(ast.parse(path.read_text()))}
    unused = []
    for path in sorted(SRC.glob("*.py")):
        for fn in ast.parse(path.read_text()).body:
            if (isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and fn.name not in exported
                    and not any(name == fn.name and (where, owner) != (path, fn.name)
                                for name, where, owner in uses)):
                unused.append(f"{path.stem}.{fn.name}")
    assert not unused, f"functions only tests call: {unused}"


def test_position_blocks_is_the_one_enumerator():
    """In core, engine and divergence, every exact walk goes through
    ``core.position_blocks``: nothing else names ``itertools.combinations``
    or ``itertools.product``."""
    walkers = {"combinations", "product"}
    found, stray = 0, []
    for name in ("core", "engine", "divergence"):
        tree = ast.parse((SRC / f"{name}.py").read_text())
        inside = {id(node) for fn in ast.walk(tree)
                  if isinstance(fn, ast.FunctionDef) and fn.name == "position_blocks"
                  for node in ast.walk(fn)}
        for node in ast.walk(tree):
            named = (isinstance(node, ast.Attribute) and node.attr in walkers
                     and isinstance(node.value, ast.Name) and node.value.id == "itertools"
                     or isinstance(node, ast.ImportFrom) and node.module == "itertools"
                     and any(alias.name in walkers for alias in node.names))
            if named and name == "core" and id(node) in inside:
                found += 1
            elif named:
                stray.append(f"{name}.py:{node.lineno}")
    assert not stray, f"enumerations outside core.position_blocks: {stray}"
    assert found == 2


def _cube_bit_owners(tree: ast.Module):
    """The ``CubeSample`` class and the ``CubePopulation.draw`` method."""
    for cls in tree.body:
        if isinstance(cls, ast.ClassDef) and cls.name == "CubeSample":
            yield cls
        elif isinstance(cls, ast.ClassDef) and cls.name == "CubePopulation":
            yield from (fn for fn in cls.body
                        if isinstance(fn, ast.FunctionDef) and fn.name == "draw")


def test_only_the_cube_sample_reads_raw_bits():
    """Only ``harness.CubePopulation.draw`` and ``harness.CubeSample`` name
    ``random_raw``, ``unpackbits`` or ``bitwise_count``, so the cube's bit
    layout is known in one place."""
    readers = {"random_raw", "unpackbits", "bitwise_count"}
    found, stray = set(), []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        inside = ({id(node) for owner in _cube_bit_owners(tree) for node in ast.walk(owner)}
                  if path.stem == "harness" else set())
        for node in ast.walk(tree):
            name = node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)
            if name in readers and id(node) in inside:
                found.add(name)
            elif name in readers:
                stray.append(f"{path.name}:{node.lineno} {name}")
    assert not stray, f"raw bits read outside the cube sample: {stray}"
    assert found == readers
