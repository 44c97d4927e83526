"""The config schema's tables, walked with hostile values.

Four small base configs between them use every row of every table: the top
level, each population, analyst and mechanism, and each query kind of a
fixed analyst. Each row's key, at whatever depth it sits, is set to each
hostile value in turn (and to one past its ceiling, for a key that sizes
memory). Every such run exits 0, or exits 2 with one ``config error:`` line
that names the key; no numpy warning escapes, and no run allocates more
than about 100 MB.
"""

import argparse
import contextlib
import copy
import io
import math
import re
import tempfile
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

import adasub.cli as cli
from adasub.harness import (
    ANALYSTS,
    CONFIG_KEYS,
    MECHANISMS,
    POPULATIONS,
    QUERY_KINDS,
)

README = Path(__file__).parents[1] / "README.md"

BASES = {
    "sq-cube": {
        "seed": 3, "trials": 1, "n": 40,
        "population": {"name": "uniform_pm1_cube", "d": 3},
        "mechanism": {"name": "subsampling-sq", "tau": 0.4, "delta": 0.2,
                      "budget_mode": "almost_sure", "budget_limit": 1.0e6},
        "analyst": {"name": "random-correlation", "T": 3, "tau": 0.2}},
    "sq-explicit": {
        "seed": 4, "trials": 1, "n": 40,
        "population": {"name": "uniform_pm1_cube", "d": 3},
        "mechanism": {"name": "subsampling-sq", "delta": 0.2, "epsilon": 0.1,
                      "k": 5},
        "analyst": {"name": "fixed", "queries": [
            {"kind": "coord", "j": 1}, {"kind": "constant", "value": 0.5}]}},
    "naive": {
        "seed": 5, "trials": 1, "n": 40,
        "population": {"name": "bernoulli", "p": 0.3},
        "mechanism": {"name": "naive-empirical", "tau": 0.3},
        "analyst": {"name": "fixed", "queries": ["identity"]}},
    "median": {
        "seed": 6, "trials": 1, "n": 400,
        "population": {"name": "discretized_gaussian", "points": 33},
        "mechanism": {"name": "median", "delta": 0.2, "c_m": 1},
        "analyst": {"name": "shifting-means", "T": 4, "w_max": 2, "r_cells": 8}},
}

CEILING = "one past the ceiling"
HOSTILE = [0, -1, 5e-324, 1e-300, 1e300, math.inf, math.nan, True, "x", [], {},
           None, 2 ** 64, CEILING]
SPECS = {"population": POPULATIONS, "mechanism": MECHANISMS, "analyst": ANALYSTS}


def _rows(config):
    """(path, ceiling, (table, key)) for every table row under the config:
    the path of the key's value, and None where the key has no ceiling."""
    for key, row in CONFIG_KEYS.items():
        yield (key,), row.ceiling, ("config", key)
    for spec_key, family in SPECS.items():
        spec = config[spec_key]
        yield (spec_key, "name"), None, (spec_key, "name")
        for key, row in family[spec["name"]].keys.items():
            yield (spec_key, key), row.ceiling, (spec["name"], key)
    for i, query in enumerate(config["analyst"].get("queries", [])):
        kind = query if isinstance(query, str) else query["kind"]
        at = ("analyst", "queries", i)
        yield (*at, "kind"), None, ("query", "kind")
        for key, row in QUERY_KINDS[kind].keys.items():
            yield (*at, key), row.ceiling, (kind, key)


def _with(config, path, value):
    config = copy.deepcopy(config)
    node = config
    for step in path[:-1]:
        if isinstance(node[step], str):  # a query given by its kind name alone
            node[step] = {"kind": node[step]}
        node = node[step]
    node[path[-1]] = value
    return config


def test_bases_walk_every_table_row():
    walked = {table_key for config in BASES.values()
              for _, _, table_key in _rows(config)}
    tables = {("config", key) for key in CONFIG_KEYS}
    tables |= {(spec_key, "name") for spec_key in SPECS} | {("query", "kind")}
    for family in (POPULATIONS, MECHANISMS, ANALYSTS, QUERY_KINDS):
        tables |= {(name, key) for name, kind in family.items() for key in kind.keys}
    assert walked == tables


def _run(config, folder: Path):
    """(exit code, stderr, warnings, peak traced bytes) of one ``adasub run``.
    The YAML loader hands the config over as the values it would read, since
    parsing a file per run would take most of the test's time."""
    args = argparse.Namespace(config=str(folder / "cfg.yaml"), seed=None,
                              out=str(folder / "x.csv"), threads=None)
    err = io.StringIO()
    tracemalloc.reset_peak()
    with mock.patch.object(cli.yaml, "load", lambda *_, **__: config), \
            warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        warnings.simplefilter("always")
        code = cli.cmd_run(args)
    return code, err.getvalue(), [str(w.message) for w in caught], \
        tracemalloc.get_traced_memory()[1]


@settings(max_examples=2 * len(HOSTILE), deadline=None, derandomize=True)
@given(value=st.sampled_from(HOSTILE))
def test_hostile_values_run_or_are_refused_by_key(value):
    failures = []
    tracemalloc.start()
    try:
        with tempfile.TemporaryDirectory() as tmp:
            (Path(tmp) / "cfg.yaml").write_text("")
            for base, config in BASES.items():
                for path, ceiling, _ in _rows(config):
                    if value is CEILING and ceiling is None:
                        continue
                    given_value = ceiling + 1 if value is CEILING else value
                    code, err, caught, peak = _run(
                        _with(config, path, given_value), Path(tmp))
                    key = path[-1]
                    named = (code == 0 and err == "") or (
                        code == 2 and err.count("\n") == 1
                        and err.startswith("config error: ")
                        and re.search(rf"(?<![\w-]){re.escape(key)}(?![\w-])", err))
                    if not named or caught or peak > 100 * 2 ** 20:
                        failures.append(f"{base} {path}={given_value!r}: exit {code}, "
                                        f"{err.strip()!r}, {caught}, {peak} bytes")
    finally:
        tracemalloc.stop()
    assert not failures, "\n".join(failures)


def test_readme_schema_names_every_key():
    text = README.read_text()
    section = text[text.index("## Config schema"):text.index("### Example:")]
    named = set(re.findall(r"`([\w-]+)`", section))
    keys = set(CONFIG_KEYS) | {"name", "kind"}
    for family in (POPULATIONS, MECHANISMS, ANALYSTS, QUERY_KINDS):
        keys |= set(family) | {key for kind in family.values() for key in kind.keys}
    assert keys <= named, f"keys the README's config schema omits: {keys - named}"
