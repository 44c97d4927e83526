import csv
import hashlib
import json
import math
import re
import sys
import time
import warnings
from pathlib import Path

import pytest
import yaml

import numpy as np

import adasub.cli as cli
import adasub.divergence as dv
from adasub.cli import (
    ConfigError,
    format_number,
    load_config,
    main,
    run_suite,
)
from adasub.engine import RandomSource, ResponsePMF
from adasub.harness import (
    ROW_COLUMNS, RUN_MAX_ROUNDS, SAMPLE_MAX, ExperimentReport, run_experiment)
from adasub.mechanisms import mi_upper_bound, sq_answer_cost, sq_params

FIXTURES = Path(__file__).parent / "fixtures"

SMALL_CONFIG = {
    "seed": 99,
    "trials": 2,
    "n": 40,
    "population": {"name": "bernoulli", "p": 0.3},
    "mechanism": {"name": "subsampling-sq", "tau": 0.4, "delta": 0.2},
    "analyst": {"name": "fixed", "queries": ["identity"]},
}


def _median_on_grid(grid):
    return {"n": 400, "population": {"name": "discretized_gaussian", **grid},
            "mechanism": {"name": "median", "delta": 0.2, "c_m": 1},
            "analyst": {"name": "shifting-means", "T": 4}}


# Gaussian grids whose arithmetic overflows: hi - lo ("spread"), or the
# sums of w_max = 4 support points that a median query's law adds ("sums",
# and "sums-from-0", where 4 * hi = 2e308)
_OVERFLOWING_GRIDS = {
    name: _median_on_grid(grid) for name, grid in (
        ("spread", {"lo": -1.0e308, "hi": 1.0e308}),
        ("sums", {"lo": -8.0e307, "hi": 8.0e307, "sigma": 3.0e307}),
        ("sums-from-0", {"lo": 0.0, "hi": 5.0e307}))}


def write_config(tmp_path, overrides=None, name="cfg.yaml"):
    cfg = dict(SMALL_CONFIG)
    if overrides:
        cfg.update(overrides)
    path = tmp_path / name
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)  # so that a case can write a longer int
    try:
        path.write_text(yaml.safe_dump(cfg))
    finally:
        sys.set_int_max_str_digits(limit)
    return path


class TestLoadConfig:
    def test_valid(self, tmp_path):
        cfg = load_config(write_config(tmp_path))
        assert cfg.seed == 99 and cfg.trials == 2 and cfg.n == 40

    def test_unknown_top_key_named(self, tmp_path):
        path = write_config(tmp_path, {"fastapi": True})
        with pytest.raises(ConfigError, match="fastapi"):
            load_config(path)

    def test_missing_key_named(self, tmp_path):
        cfg = dict(SMALL_CONFIG)
        del cfg["analyst"]
        path = tmp_path / "c.yaml"
        path.write_text(yaml.safe_dump(cfg))
        with pytest.raises(ConfigError, match="analyst"):
            load_config(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "nope.yaml")

    @pytest.mark.parametrize("key", ["seed", "trials", "n"])
    @pytest.mark.parametrize("value", [2.7, True, "3"])
    def test_non_integer_numbers_exit_2(self, tmp_path, capsys, key, value):
        path = write_config(tmp_path, {key: value})
        with pytest.raises(ConfigError, match=f"{key} must be an integer"):
            load_config(path)
        out = tmp_path / "x.csv"
        assert main(["run", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"config error: {key} must be")
        assert not out.exists()

    def test_whole_float_numbers_accepted(self, tmp_path):
        cfg = load_config(write_config(tmp_path, {"trials": 2.0, "n": 40.0}))
        assert (cfg.trials, cfg.n) == (2, 40)
        assert isinstance(cfg.trials, int) and isinstance(cfg.n, int)

    def test_exponent_floats_read_as_floats(self, tmp_path):
        # YAML 1.1 reads these as strings: an exponent with no dot before it,
        # or with no sign
        path = tmp_path / "c.yaml"
        text = yaml.safe_dump(SMALL_CONFIG)
        path.write_text(text.replace("delta: 0.2", "delta: 2e-1")
                        .replace("tau: 0.4", "tau: 4.0e-1"))
        cfg = load_config(path)
        assert cfg.mechanism["delta"] == 0.2 and cfg.mechanism["tau"] == 0.4
        for text, value in (("1e-1", 0.1), ("-2E+3", -2000.0), ("1_0e1", 100.0),
                            (".5e1", 5.0), ("1.5", 1.5), ("1e", "1e"), ("12", 12)):
            assert yaml.load(f"x: {text}", Loader=cli._ConfigLoader) == {"x": value}

    def test_spec_without_name(self, tmp_path):
        path = write_config(tmp_path, {"population": {"p": 0.3}})
        with pytest.raises(ConfigError,
                           match="^name must be given in the population spec$"):
            load_config(path)

    def test_readme_configs_pass_validation(self, tmp_path):
        from adasub.harness import check_config
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        blocks = re.findall(r"```yaml\n(.*?)```", readme, re.S)
        assert len(blocks) >= 4  # the four documented examples at least
        for i, block in enumerate(blocks):
            path = tmp_path / f"readme-{i}.yaml"
            path.write_text(block)
            check_config(load_config(path))


class TestRunCommand:
    def test_run_writes_csv_and_summary(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = tmp_path / "report.csv"
        assert main(["run", str(cfg), "--out", str(out)]) == 0
        text = out.read_text()
        header = text.splitlines()[0]
        assert header == ("trial,t,query_id,mechanism,answer,sample_value,"
                          "truth,bias,threshold,within_bound,cost")
        assert (tmp_path / "report.csv.summary.json").exists()
        summary = json.loads((tmp_path / "report.csv.summary.json").read_text())
        assert summary["mechanism"] == "subsampling-sq"
        assert "wrote" in capsys.readouterr().out

    def test_unknown_mechanism_exit_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"mechanism": {"name": "magic"}})
        assert main(["run", str(cfg), "--out", str(tmp_path / "x.csv")]) == 2
        assert "magic" in capsys.readouterr().err

    def test_unknown_key_exit_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"zzz": 1})
        assert main(["run", str(cfg), "--out", str(tmp_path / "x.csv")]) == 2
        assert "zzz" in capsys.readouterr().err

    def test_byte_identical_reruns(self, tmp_path):
        cfg = write_config(tmp_path)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["run", str(cfg), "--out", str(a)]) == 0
        assert main(["run", str(cfg), "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("name", ["desk", "nondyadic"])
    def test_median_csv_bytes_match_pins(self, tmp_path, name):
        # the bytes written since each answer draws all of its probes in one
        # step: the median path's answers and random stream must not move
        pinned = json.loads(
            (FIXTURES / "median_runs.json").read_text())["runs"][name]
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(yaml.safe_dump(pinned["config"]))
        out = tmp_path / "run.csv"
        assert main(["run", str(cfg), "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == pinned["csv_sha256"]

    def test_seed_override_changes_report(self, tmp_path):
        cfg = write_config(tmp_path)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["run", str(cfg), "--out", str(a)]) == 0
        assert main(["run", str(cfg), "--out", str(b), "--seed", "100"]) == 0
        ta, tb = a.read_text(), b.read_text()
        assert ta != tb
        assert ta.splitlines()[0] == tb.splitlines()[0]
        assert len(ta.splitlines()) == len(tb.splitlines())

    def test_out_dir_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("ADASUB_OUT_DIR", str(tmp_path / "outs"))
        cfg = write_config(tmp_path)
        assert main(["run", str(cfg)]) == 0
        assert (tmp_path / "outs" / "run-99.csv").exists()

    @pytest.mark.parametrize("over,needle", [
        ({"analyst": {"name": "fixed", "queries": [{"kind": "coord", "j": 3}]}},
         "'coord:3' does not fit population bernoulli"),
        ({"population": {"name": "uniform_pm1_cube", "d": 3}},
         "'identity' does not fit population uniform_pm1_cube"),
        ({"n": 10, "population": {"name": "discretized_gaussian", "points": 129},
          "mechanism": {"name": "median", "delta": 0.4},
          "analyst": {"name": "shifting-means", "T": 6, "w_max": 2,
                      "r_cells": 16}}, "39 groups"),
        ({"n": 8, "population": {"name": "discretized_gaussian", "points": 9},
          "mechanism": {"name": "median", "delta": 0.5, "c_m": 0.5},
          "analyst": {"name": "shifting-means", "T": 4, "w_max": 4,
                      "r_cells": 8}}, "groups of as few as 4 elements"),
        # a 2^32-entry cube sample, refused before it is drawn
        ({"n": 2 ** 16, "population": {"name": "uniform_pm1_cube", "d": 2 ** 16},
          "analyst": {"name": "random-correlation", "T": 2 ** 16}},
         "n x d must be at most 268435456 cube sample entries, "
         "got n=65536, d=65536"),
        # 10^400 rows, refused before a trial keeps one; the count is not
        # formatted, as a float would overflow
        ({"trials": 10 ** 400}, "trials x analyst rounds must be at most 1048576 "
         "(rounds per trial: 1), so trials at most 1048576"),
        ({"trials": 2 ** 18 + 1, "population": {"name": "uniform_pm1_cube", "d": 4},
          "analyst": {"name": "random-correlation", "T": 4}},
         "trials x analyst rounds must be at most 1048576 (rounds per trial: 4), "
         "so trials at most 262144"),
        # size keys past their ceilings, refused before anything is allocated
        ({"n": 300_000_000}, "n must be at most 16777216, got 300000000"),
        ({"population": {"name": "discretized_gaussian", "points": 100_000_000}},
         "points must be at most 65536, got 100000000"),
        ({**_median_on_grid({}), "analyst": {"name": "shifting-means", "T": 3,
                                             "w_max": 1_000_000_000}},
         "w_max must be at most 1048576, got 1000000000"),
        ({**_median_on_grid({}), "analyst": {"name": "shifting-means",
                                             "T": 1_000_000_000}},
         "T must be at most 1048576, got 1000000000"),
        ({**_median_on_grid({}), "analyst": {"name": "shifting-means", "T": 4,
                                             "r_cells": 1_000_000_000}},
         "r_cells must be at most 1048576, got 1000000000"),
        # every key within its ceiling, but the median query laws would
        # convolve 2^10 x (2^16 - 1) + 1 grid sums
        ({**_median_on_grid({"points": 2 ** 16}), "analyst": {
            "name": "shifting-means", "T": 2 ** 10, "w_max": 2 ** 10}},
         "w_max and points must be small enough for at most 4194304 sums of "
         "1024 grid points, got w_max=1024, points=65536"),
        # n and d within their ceilings, but a 2 GiB cube sample
        ({"n": 2048, "population": {"name": "uniform_pm1_cube", "d": 2 ** 20},
          "analyst": {"name": "random-correlation", "T": 2 ** 20}},
         "n x d must be at most 268435456 cube sample entries, "
         "got n=2048, d=1048576"),
    ])
    def test_misfit_config_exit_2_before_any_trial(self, tmp_path, capsys,
                                                   monkeypatch, over, needle):
        import adasub.harness as hz
        monkeypatch.setattr(hz, "_run_trial", None)  # a trial would exit 3
        cfg = write_config(tmp_path, over)
        assert main(["run", str(cfg), "--out", str(tmp_path / "x.csv")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and needle in err
        assert "Traceback" not in err and err.count("\n") == 1
        assert not (tmp_path / "x.csv").exists()

    def test_yaml_syntax_error_is_one_line(self, tmp_path, capsys):
        cfg = tmp_path / "broken.yaml"
        cfg.write_text("seed: [1, 2\ntrials: 1\n")
        assert main(["run", str(cfg), "--out", str(tmp_path / "x.csv")]) == 2
        assert capsys.readouterr().err == (
            f"config error: {cfg}:2:7: expected ',' or ']', but got ':'\n")
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("text", [
        "seed: [1, 2\ntrials: 1\n", "seed: {a: 1\n", "seed: 'open\n",
        'seed: "\\q"\n', "seed: 1\n  trials: 2\n", "a: b: c\n", "- a\nb: c\n",
        "seed: *nowhere\n", "seed: &a 1\nn: &a 2\nx: *a\n", "seed:\t1\n\t- 2\n",
        "seed: !!python/name:os.system x\n", "seed: \x01\n", "seed: 1\n---\nn: 2\n",
        "%YAML 9.9\n--- {}\n", "? [a\n", "seed: @x\n", "seed: `x\n", "[1]]\n",
    ])
    def test_yaml_errors_are_worded_as_the_pure_python_parser_words_them(
            self, tmp_path, text):
        cfg = tmp_path / "broken.yaml"
        cfg.write_text(text)
        try:
            raw = yaml.load(text, Loader=yaml.SafeLoader)
        except yaml.YAMLError as exc:
            mark = getattr(exc, "problem_mark", None)
            want = (f"config does not parse as YAML: {exc}"
                    if mark is None or exc.problem is None
                    else f"{cfg}:{mark.line + 1}:{mark.column + 1}: {exc.problem}")
        else:  # parses, but is not a config mapping
            assert not isinstance(raw, dict)
            want = "config must be a mapping"
        with pytest.raises(ConfigError) as caught:
            load_config(cfg)
        assert str(caught.value) == want

    def test_libyaml_and_pure_python_loaders_read_configs_alike(self):
        from test_config_schema import BASES, CEILING, HOSTILE, _rows, _with
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        texts = re.findall(r"```yaml\n(.*?)```", readme, re.S)
        assert len(texts) >= 4
        texts += ["x: 1e-1\ny: -2E+3\nz: 1_0e1\nw: .5e1\nv: 1e\nu: 0x1F\n",
                  "x: " + "9" * 5000 + "\n"]
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)  # so that a case can write a longer int
        try:
            for config in BASES.values():
                texts.append(json.dumps(config, indent=1))  # flow style
                for path, ceiling, _ in _rows(config):
                    for value in HOSTILE:
                        if value is CEILING:
                            if ceiling is None:
                                continue
                            value = ceiling + 1
                        texts.append(yaml.safe_dump(_with(config, path, value)))
        finally:
            sys.set_int_max_str_digits(limit)
        assert cli._ConfigLoader.__mro__[1] is getattr(yaml, "CSafeLoader",
                                                       yaml.SafeLoader)
        for text in texts:
            fast = yaml.load(text, Loader=cli._ConfigLoader)
            pure = yaml.load(text, Loader=cli._PyConfigLoader)
            # repr tells 1 from 1.0 and True, reads NaN as NaN, and shows
            # an unread int by its text
            assert repr(fast) == repr(pure), text

    def test_bad_out_exit_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"out": 5})
        assert main(["run", str(cfg)]) == 2
        assert "out must be a path" in capsys.readouterr().err

    @pytest.mark.parametrize("argv_tail,over", [
        ([], {"seed": -1}), (["--seed", "-1"], {})])
    def test_negative_seed_exit_2(self, tmp_path, capsys, argv_tail, over):
        cfg = write_config(tmp_path, over)
        out = tmp_path / "x.csv"
        assert main(["run", str(cfg), "--out", str(out), *argv_tail]) == 2
        assert capsys.readouterr().err == (
            "config error: seed must be non-negative, got -1\n")
        assert not out.exists()

    @pytest.mark.parametrize("over,key", [
        ({"population": {"name": "uniform_pm1_cube", "d": 10.7},
          "analyst": {"name": "random-correlation", "T": 10}}, "d"),
        ({"population": {"name": "uniform_pm1_cube", "d": True},
          "analyst": {"name": "random-correlation", "T": 1}}, "d"),
        ({"population": {"name": "uniform_pm1_cube", "d": 10},
          "analyst": {"name": "random-correlation", "T": 10.4}}, "T"),
        ({"mechanism": {"name": "subsampling-sq", "delta": 0.2,
                        "epsilon": 0.1, "k": 5.9}}, "k"),
        ({"population": {"name": "uniform_pm1_cube", "d": 3},
          "analyst": {"name": "fixed", "queries": [{"kind": "coord", "j": 1.5}]}},
         "j"),
        ({"population": {"name": "discretized_gaussian", "points": 129},
          "mechanism": {"name": "median", "delta": 0.2, "noise": "false"},
          "analyst": {"name": "shifting-means", "T": 3, "w_max": 2,
                      "r_cells": 16}}, "noise"),
        ({"mechanism": {"name": "naive-empirical", "tau": "abc"}}, "tau"),
        ({"mechanism": {"name": "subsampling-sq", "tau": "abc", "delta": 0.2,
                        "epsilon": 0.1, "k": 5}}, "tau"),
        ({"mechanism": {"name": "subsampling-sq", "tau": 0.4, "delta": "abc"}},
         "delta"),
        ({"mechanism": {"name": "subsampling-sq", "delta": 0.2, "epsilon": "0.1",
                        "k": 5}}, "epsilon"),
        ({"population": {"name": "bernoulli", "p": "0.3"}}, "p"),
        ({"population": {"name": "discretized_gaussian", "sigma": "1"},
          "mechanism": {"name": "median", "delta": 0.2},
          "analyst": {"name": "shifting-means", "T": 3, "w_max": 2,
                      "r_cells": 16}}, "sigma"),
        ({"population": [1, 2]}, "population"),
        ({"mechanism": "subsampling-sq"}, "mechanism"),
        ({"analyst": {"name": "fixed", "queries": [5]}}, "queries"),
        ({"analyst": {"name": "fixed", "queries": [{"kind": "constant",
                                                    "value": "0.4"}]}}, "value"),
        ({"mechanism": {"name": "subsampling-sq", "tau": 0.4, "delta": 0.2,
                        "budget_mode": "almost_sure", "budget_limit": math.nan}},
         "budget_limit"),
        ({"mechanism": {"name": "subsampling-sq", "tau": 0.4, "delta": 0.2,
                        "budget_limit": -1}}, "budget_limit"),
        ({"population": {"name": "discretized_gaussian", "points": 129},
          "mechanism": {"name": "median", "delta": 0.2, "c_m": -1},
          "analyst": {"name": "shifting-means", "T": 3, "w_max": 2,
                      "r_cells": 16}}, "c_m"),
        ({"population": {"name": "discretized_gaussian", "points": 129},
          "mechanism": {"name": "median", "delta": 0.2},
          "analyst": {"name": "shifting-means", "T": 3, "w_max": 2,
                      "r_cells": 16, "r_step": "y"}}, "r_step"),
        ({"population": {"name": "discretized_gaussian", "points": 129},
          "mechanism": {"name": "median", "delta": 0.2},
          "analyst": {"name": "shifting-means", "T": 3, "w_max": 2,
                      "r_cells": 1}}, "r_cells"),
        # the outer grid centres overflow to +-inf
        ({"population": {"name": "discretized_gaussian"},
          "mechanism": {"name": "median", "delta": 0.2},
          "analyst": {"name": "shifting-means", "T": 4, "r_step": 1.0e307}},
         "r_step"),
        # every grid mass underflows, so the masses would be 0/0 = NaN
        ({"n": 400, "population": {"name": "discretized_gaussian", "mu": 100},
          "mechanism": {"name": "median", "delta": 0.2, "c_m": 1},
          "analyst": {"name": "shifting-means", "T": 3, "w_max": 2,
                      "r_cells": 16}}, "mu"),
        # more votes than gen.binomial takes (int64)
        ({"population": {"name": "uniform_pm1_cube", "d": 3},
          "mechanism": {"name": "subsampling-sq", "delta": 0.2, "epsilon": 0.1,
                        "k": 10 ** 20},
          "analyst": {"name": "random-correlation", "T": 3}}, "k"),
        ({"mechanism": {"name": "subsampling-sq", "tau": 0.4, "delta": 0.2,
                        "budget_mode": 5}}, "budget_mode"),
        ({"mechanism": {"name": "subsampling-sq", "tau": 0.4, "delta": 0.2,
                        "epsilon": 0.7}}, "epsilon"),
        ({"mechanism": {"name": "subsampling-sq", "tau": 0.4, "delta": 1.5}},
         "delta"),
        ({"mechanism": {"name": "subsampling-sq", "delta": 0.2, "epsilon": 0.1,
                        "k": 0}}, "k"),
        # the w_max-fold support sums of the grid overflow
        (_OVERFLOWING_GRIDS["sums"], "lo and hi"),
        # tau ** 2 underflows to 0, and 2 / delta overflows to inf
        ({"n": 50, "population": {"name": "uniform_pm1_cube", "d": 3},
          "mechanism": {"name": "subsampling-sq", "tau": 1.0e-300, "delta": 0.1},
          "analyst": {"name": "random-correlation", "T": 3}}, "tau"),
        ({"n": 50, "population": {"name": "uniform_pm1_cube", "d": 3},
          "mechanism": {"name": "subsampling-sq", "tau": 0.1, "delta": 5.0e-324},
          "analyst": {"name": "random-correlation", "T": 3}}, "delta"),
        # a group count of hundreds of digits, more groups than n, and an
        # infinite group count
        ({"population": {"name": "discretized_gaussian", "points": 129},
          "mechanism": {"name": "median", "delta": 0.2, "c_m": 1.0e300},
          "analyst": {"name": "shifting-means", "T": 3, "w_max": 2,
                      "r_cells": 16}}, "c_m"),
        ({"population": {"name": "discretized_gaussian", "points": 129},
          "mechanism": {"name": "median", "delta": 0.2, "c_m": 1.0e308},
          "analyst": {"name": "shifting-means", "T": 3, "w_max": 2,
                      "r_cells": 16}}, "c_m"),
        ({"population": {"name": "discretized_gaussian", "points": 129},
          "mechanism": {"name": "median", "delta": 5.0e-324},
          "analyst": {"name": "shifting-means", "T": 3, "w_max": 2,
                      "r_cells": 16}}, "delta"),
        # a finite vote count of 302 digits, more than gen.binomial takes
        ({"n": 50, "population": {"name": "uniform_pm1_cube", "d": 3},
          "mechanism": {"name": "subsampling-sq", "tau": 1.0e-150, "delta": 0.1},
          "analyst": {"name": "random-correlation", "T": 3}}, "tau"),
        # real values given as ints past the float range
        ({"population": {"name": "bernoulli", "p": 10 ** 400}}, "p"),
        ({"mechanism": {"name": "subsampling-sq", "delta": 0.2,
                        "epsilon": 10 ** 400, "k": 5}}, "epsilon"),
        # ints past Python's int-to-str digit limit, which yaml.safe_load
        # would raise on while parsing
        ({"population": {"name": "bernoulli", "p": 10 ** 5000}}, "p"),
        ({"seed": 10 ** 5000}, "seed"),
        # each message names its key
        ({"mechanism": {"name": []}}, "name"),
        ({**_median_on_grid({}), "analyst": {"name": "shifting-means"}}, "T"),
        ({"population": {"name": "uniform_pm1_cube", "d": 0},
          "analyst": {"name": "random-correlation", "T": 1}}, "d"),
        ({"analyst": {"name": "fixed", "queries": []}}, "queries"),
        ({"analyst": {"name": "fixed", "queries": [{}]}}, "kind"),
        (_median_on_grid({"points": 1}), "points"),
        (_median_on_grid({"sigma": 0}), "sigma"),
        (_median_on_grid({"lo": 1.0, "hi": 1.0}), "hi"),
        # 5550 groups for n = 400: delta is named first, and c_m after it
        ({**_median_on_grid({}), "mechanism": {"name": "median", "delta": 1.0e-300}},
         "delta"),
    ])
    def test_nested_value_of_wrong_type_exit_2_before_any_trial(
            self, tmp_path, capsys, monkeypatch, over, key):
        import adasub.harness as hz
        monkeypatch.setattr(hz, "_run_trial", None)  # a trial would exit 3
        cfg = write_config(tmp_path, over)
        out = tmp_path / "x.csv"
        assert main(["run", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {key} must be ")
        assert err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("case", sorted(_OVERFLOWING_GRIDS))
    def test_overflowing_gaussian_grid_exit_2_without_numpy_warnings(
            self, tmp_path, capsys, monkeypatch, case):
        import adasub.harness as hz
        monkeypatch.setattr(hz, "_run_trial", None)  # a trial would exit 3
        cfg = write_config(tmp_path, _OVERFLOWING_GRIDS[case])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["run", str(cfg), "--out", str(tmp_path / "x.csv")]) == 2
        assert [str(w.message) for w in caught] == []
        err = capsys.readouterr().err
        assert err.startswith("config error: hi - lo must be finite, got inf"
                              if case == "spread" else
                              "config error: lo and hi must be small enough ")
        assert err.count("\n") == 1

    def test_gaussian_grid_with_finite_sums_runs(self, tmp_path, capsys):
        # 4 * hi = 1.2e308 is finite, though 2 * 4 * hi is not
        cfg = write_config(tmp_path, {"trials": 1, **_median_on_grid(
            {"lo": 0.0, "hi": 3.0e307})})
        out = tmp_path / "x.csv"
        assert main(["run", str(cfg), "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        assert len(out.read_text().splitlines()) == 1 + 4

    def test_grid_sums_checked_at_the_largest_arity_asked(self, tmp_path, capsys):
        # T = 3 asks arities 1..3 only, and 3 * hi = 1.5e308 is finite, though
        # w_max * hi is not; nor would 2^20 x 256 sums fit in memory
        cfg = write_config(tmp_path, {"trials": 1, **_median_on_grid(
            {"lo": 0.0, "hi": 5.0e307}), "analyst": {
                "name": "shifting-means", "T": 3, "w_max": 2 ** 20}})
        out = tmp_path / "x.csv"
        assert main(["run", str(cfg), "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        assert len(out.read_text().splitlines()) == 1 + 3

    def test_overflowing_grid_quotient_runs(self, tmp_path, capsys):
        # the centres stay finite and increasing, but a subsample mean over
        # a step of 1e-320 overflows to +-inf and takes an end cell
        cfg = write_config(tmp_path, {
            "n": 400, "trials": 1,
            "population": {"name": "discretized_gaussian"},
            "mechanism": {"name": "median", "delta": 0.2, "c_m": 1},
            "analyst": {"name": "shifting-means", "T": 4, "r_step": 1.0e-320}})
        out = tmp_path / "x.csv"
        assert main(["run", str(cfg), "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        assert len(out.read_text().splitlines()) == 1 + 4

    def test_ledger_row_cost_mismatch_exit_3(self, tmp_path, capsys,
                                              monkeypatch):
        from adasub.mechanisms import BudgetLedger
        monkeypatch.setattr(BudgetLedger, "total",
                            property(lambda self: self._total + 1.0))
        cfg = write_config(tmp_path)
        assert main(["run", str(cfg), "--out", str(tmp_path / "x.csv")]) == 3
        err = capsys.readouterr().err
        assert err == ("run failure: RuntimeError: per-row costs do not sum "
                       "to the ledger total\n")
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("shape", ["directory", "under-a-file", "out-dir-env",
                                       "sidecar-directory"])
    def test_unwritable_output_path_exit_2(self, tmp_path, capsys, monkeypatch,
                                           shape):
        # a directory where the CSV or its sidecar goes, or a regular file
        # where a parent directory goes (through --out or $ADASUB_OUT_DIR)
        blocker = tmp_path / "blocker"
        argv = ["run", str(write_config(tmp_path))]
        if shape == "directory":
            blocker.mkdir()
            path = blocker
        elif shape == "sidecar-directory":
            (tmp_path / "x.csv.summary.json").mkdir()
            argv += ["--out", str(tmp_path / "x.csv")]
            path = tmp_path / "x.csv.summary.json"
        else:
            blocker.write_text("")
            path = blocker / "run-99.csv"
            if shape == "out-dir-env":
                monkeypatch.setenv("ADASUB_OUT_DIR", str(blocker))
        if shape in ("directory", "under-a-file"):
            argv += ["--out", str(path)]
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"config error: cannot write {path}: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("shape", ["directory", "sidecar-directory"])
    def test_unwritable_output_path_is_refused_before_the_run(self, tmp_path, capsys,
                                                              monkeypatch, shape):
        runs = []
        monkeypatch.setattr(cli, "run_experiment", runs.append)
        out, sidecar = tmp_path / "x.csv", tmp_path / "x.csv.summary.json"
        if shape == "directory":
            out.mkdir()
        else:
            out.write_text("an earlier run's CSV\n")
            sidecar.mkdir()
        assert main(["run", str(write_config(tmp_path)), "--out", str(out)]) == 2
        blocked = out if shape == "directory" else sidecar
        assert capsys.readouterr().err.startswith(
            f"config error: cannot write {blocked}: ")
        assert runs == []
        # the check leaves every path as it found it
        if shape == "directory":
            assert out.is_dir() and not sidecar.exists()
        else:
            assert out.read_text() == "an earlier run's CSV\n" and sidecar.is_dir()

    def test_threads_flag_keeps_output(self, tmp_path):
        cfg = write_config(tmp_path, {"trials": 3})
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["run", str(cfg), "--out", str(a)]) == 0
        assert main(["run", str(cfg), "--out", str(b), "--threads", "3"]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_legacy_threads_key_keeps_output(self, tmp_path):
        plain = write_config(tmp_path, {"trials": 3}, name="plain.yaml")
        legacy = write_config(tmp_path, {"trials": 3, "threads": 2},
                              name="legacy.yaml")
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["run", str(plain), "--out", str(a)]) == 0
        assert main(["run", str(legacy), "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert (tmp_path / "a.csv.summary.json").read_bytes() == \
            (tmp_path / "b.csv.summary.json").read_bytes()


def _over_the_bound(real):
    """``table_chi2_rows`` with every average 1 over its bound."""
    def rows(block, group):
        measured, bound, per, laws = real(block, group)
        return np.full(measured.shape, bound + 1.0), bound, per, laws
    return rows


def reference_csv(report, path):
    """The CSV writer by definition: ``format_number`` on every cell that is
    not a str, one ``writerow`` a row."""
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(ROW_COLUMNS)
        for row in report.rows:
            writer.writerow([row[c] if isinstance(row[c], str) else format_number(row[c])
                             for c in ROW_COLUMNS])


def same_csv_bytes(tmp_path, rows) -> bytes:
    """The bytes ``write_csv`` writes for these rows, checked equal to the
    reference writer's."""
    report = ExperimentReport(rows=rows, summary={})
    cli.write_csv(report, tmp_path / "got.csv")
    reference_csv(report, tmp_path / "want.csv")
    got = (tmp_path / "got.csv").read_bytes()
    assert got == (tmp_path / "want.csv").read_bytes()
    return got


class _Str(str):
    pass


_CELLS = [0, 7, -12, 2 ** 70, np.int64(-5), np.intp(9), True, 0.5, 0.1, 1 / 3,
          np.float64(0.25), np.float64(-0.0), math.nan, np.float64(math.nan),
          math.inf, -math.inf, -0.0, 0.0, 1e-300, -1e-300, 5e-324, 1.5e300,
          "coord:3", "a,b", 'say "hi"', '"', ",", "", " lead", "x\ny", np.str_("n,p"),
          "\r", "a\rb", "\t", "é", _Str('s,"t"')]


class TestCsvCells:
    """``write_csv`` formats each cell by its exact type; its bytes are the
    reference writer's."""

    def test_mixed_columns(self, tmp_path):
        # every column holds every kind of cell, each at its own offset
        rows = [{c: _CELLS[(i + 3 * j) % len(_CELLS)] for j, c in enumerate(ROW_COLUMNS)}
                for i in range(2 * len(_CELLS))]
        same_csv_bytes(tmp_path, rows)

    def test_one_kind_a_column(self, tmp_path):
        # floats with repeats, signed zeros and NaNs; ints, strs and numpy
        # scalars
        floats = [0.0, -0.0, 0.5, math.nan, float("nan"), -0.0, 0.1 + 0.2, 0.3,
                  math.inf, -math.inf, 1e-300, 0.0, 0.5, 2 / 3]
        kinds = {"trial": [3, 0, -1, 10 ** 20], "t": [np.int64(4), np.intp(-2)],
                 "query_id": ["test:sign-sum", "q,1", '"x"'], "mechanism": ["sq"],
                 "within_bound": [True, False], "cost": [np.float64(v) for v in floats]}
        rows = [{c: kinds.get(c, floats)[i % len(kinds.get(c, floats))]
                 for c in ROW_COLUMNS} for i in range(3 * len(floats))]
        table = list(csv.reader(same_csv_bytes(tmp_path, rows).decode().splitlines()))
        assert table[1][4:6] == ["0", "0"] and table[2][4:6] == ["-0", "-0"]
        assert table[2][2] == "q,1" and table[3][2] == '"x"'

    def test_no_rows(self, tmp_path):
        assert same_csv_bytes(tmp_path, []) == (",".join(ROW_COLUMNS) + "\n").encode()

    def test_chunks_change_kind(self, tmp_path):
        # rows over three chunks: each column holds one kind of cell in the
        # first chunk (exact ints, exact floats or strs) and mixed kinds in the
        # second; the last chunk is short
        chunk = cli.CSV_CHUNK_ROWS
        pure = {"trial": 4, "t": -2, "query_id": "coord:1", "mechanism": "sq"}
        rows = [{c: _CELLS[(i + 3 * j) % len(_CELLS)] if chunk <= i < 2 * chunk
                 else pure.get(c, 0.1 * i) for j, c in enumerate(ROW_COLUMNS)}
                for i in range(2 * chunk + 7)]
        head = same_csv_bytes(tmp_path, rows).decode().split("\n")[:4]
        assert list(csv.reader(head))[3][:5] == ["4", "-2", "coord:1", "sq", "0.2"]

    def test_median_readme_rows_match_the_reference(self, tmp_path):
        # the README median config's rows, whose grid-mean ids hold commas
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        [text] = [block for block in re.findall(r"```yaml\n(.*?)```", readme, re.S)
                  if "name: median" in block]
        cfg = tmp_path / "median.yaml"
        cfg.write_text(text)
        report = run_experiment(load_config(cfg))
        assert all("," in r["query_id"] for r in report.rows)
        assert b'"grid-mean:w=' in same_csv_bytes(tmp_path, report.rows)

    def test_write_peak_is_flat_in_the_rows(self, tmp_path):
        # the traced peak of writing 20,000 rows is about that of 2,000: the
        # writer holds one chunk of formatted cells at a time
        import tracemalloc
        peaks = []
        for count in (2000, 20000):
            rows = [{c: _CELLS[(i + 5 * j) % len(_CELLS)] if j % 3 == 0 else
                     (i * 0.37 if j % 3 == 1 else i) for j, c in enumerate(ROW_COLUMNS)}
                    for i in range(count)]
            report = ExperimentReport(rows=rows, summary={})
            cli.write_csv(report, tmp_path / "warm.csv")
            tracemalloc.start()
            try:
                cli.write_csv(report, tmp_path / f"rows{count}.csv")
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= peaks[0] * 1.25 + 4096, peaks

    def test_run_csv_matches_the_reference(self, tmp_path):
        cfg = write_config(tmp_path, {"population": {"name": "uniform_pm1_cube", "d": 30},
                                      "analyst": {"name": "random-correlation", "T": 30}})
        report = run_experiment(load_config(cfg))
        assert {type(r["sample_value"]) for r in report.rows} == {float}
        same_csv_bytes(tmp_path, report.rows)


class TestVerifyCommand:
    @pytest.mark.parametrize("suite,trials", [
        ("chi2-stability", 60),
        ("var-contraction", 80),
        ("var-contraction-linear-equality", 40),
        ("kl-chi2", 200),
        ("kl-mixture", 200),
        ("exceeds-mean", 20000),
    ])
    def test_suites_pass(self, suite, trials, capsys):
        assert main(["verify", suite, "--trials", str(trials), "--seed", "5"]) == 0
        out = capsys.readouterr().out
        assert "pass" in out

    def test_verify_all_stdout_is_pinned(self, capsys):
        # `adasub verify all` at its defaults, every suite at its default
        # instance count and seed 1, within a runtime budget of about 8
        # times its time on a 2-vCPU machine
        start = time.perf_counter()
        assert main(["verify", "all"]) == 0
        elapsed = time.perf_counter() - start
        assert capsys.readouterr().out == (FIXTURES / "verify_all.txt").read_text()
        assert elapsed < 5.0, f"verify all took {elapsed:.1f}s, budget 5s"

    def test_verify_all_draws_one_stream_per_block(self, monkeypatch, capsys):
        # chi2-stability and the variance suites 1 block each, the KL suites
        # 3 each (10,000 rows in blocks of 2^12) and exceeds-mean 1
        real = RandomSource.generator
        built = []

        def generator(source):
            if source._generator is None:
                built.append(source.path)
            return real.fget(source)

        monkeypatch.setattr(RandomSource, "generator", property(generator))
        assert main(["verify", "all"]) == 0
        assert len(built) <= 10, built

    def test_unknown_suite_exit_2(self, capsys):
        assert main(["verify", "nonsense"]) == 2
        assert "nonsense" in capsys.readouterr().err

    def test_linear_equality_reports_max_dev(self, capsys):
        assert main(["verify", "var-contraction-linear-equality",
                     "--trials", "30"]) == 0
        assert "max_dev" in capsys.readouterr().out

    def test_failure_pinpoints_instance(self, capsys):
        # a suite over a broken verifier is simulated by running the real
        # suite with an impossible tolerance via monkeypatching; instead,
        # check the reporting path on a crafted failing result
        from adasub.cli import SuiteResult, EXIT_FAILURE, cmd_verify
        import argparse
        import adasub.cli as cli

        def fake_suite(name, trials=None, seed=1):
            return SuiteResult("fake", 1, failures=["instance 0: dataset=[1,2]"])

        orig = cli.run_suite
        cli.run_suite = fake_suite
        try:
            args = argparse.Namespace(suite="fake", trials=None, seed=1)
            assert cmd_verify(args) == EXIT_FAILURE
        finally:
            cli.run_suite = orig
        assert "counterexample" in capsys.readouterr().out

    @pytest.mark.parametrize("argv,flag", [
        (["verify", "exceeds-mean", "--trials", "0"], "--trials"),
        (["verify", "all", "--trials", "0"], "--trials"),
        (["verify", "kl-chi2", "--trials", "-3"], "--trials"),
        (["verify", "chi2-stability", "--seed", "-1"], "--seed"),
        (["params", "--median", "--T", "10", "--rmax", "16", "--delta", "0.1",
          "--wmax", "0"], "--wmax"),
        (["params", "--median", "--T", "10", "--rmax", "16", "--delta", "0.1",
          "--n", "-5"], "--n"),
        (["params", "--median", "--T", "10", "--rmax", "16", "--delta", "0.1",
          "--n", "0"], "--n"),
    ])
    def test_bad_count_or_seed_exit_2(self, capsys, argv, flag):
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(f"config error: {flag} must be ")
        assert err.count("\n") == 1

    def test_run_suite_api(self):
        res = run_suite("var-contraction", trials=25, seed=3)
        assert res.passed and res.instances == 25

    @pytest.mark.parametrize("suite,attr,fake,needle", [
        ("chi2-stability", "table_chi2_rows", _over_the_bound,
         r"instance \d+: leave-one-out chi2 [\d.e+-]+ exceeds closed form [\d.e+-]+; "
         r"query=randmap\(.*\) tag=None dataset=\[.*\]"),
        ("chi2-stability", "chi2_stability_bound",
         lambda real: lambda n, w, y: real(n, w, y) + 1.0,
         r"instance \d+: w=1 equality off by 1\.0+e\+00; query=randmap\(w=1,"
         r".*\) tag=None dataset=\[.*\]"),
        ("var-contraction", "variance_contraction_rows",
         lambda real: lambda vals, n, w: (np.ones(len(vals)), np.zeros(len(vals))),
         r"instance \d+: n=\d+ w=\d+ lhs=1\.0 rhs=0\.0 f=\{.*\}"),
        ("exceeds-mean", "sample_exceeds_mean_probe",
         lambda real: lambda *args: 0.5, r"constant probe: estimate 0\.5 < 1"),
        ("exceeds-mean", "sample_exceeds_mean_exact",
         lambda real: lambda values, n: 0.0,
         r"(two-value|exact) probe: 0\.0 < 0\.0357"),
    ], ids=["chi2-over-bound", "chi2-w1-equality", "var-contraction", "mc-probe",
            "exact-probes"])
    def test_forced_failures_exit_3_with_the_instance(self, monkeypatch, capsys,
                                                      suite, attr, fake, needle):
        monkeypatch.setattr(dv, attr, fake(getattr(dv, attr)))
        assert main(["verify", suite, "--trials", "20"]) == 3
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith(f"{suite}: FAIL")
        found = [line for line in lines[1:]
                 if re.fullmatch(r"  counterexample: " + needle, line)]
        assert found and len(found) == len(lines) - 1
        if attr == "sample_exceeds_mean_exact":
            assert len(found) == 2
        if attr == "table_chi2_rows":  # every instance once, arity 1 too
            assert len(found) == 20

    def test_a_row_over_the_bound_names_only_its_instance(self, monkeypatch):
        # instance 10 shares its shape with 5 others among 60, and only its
        # row of the group's one rows call is over the bound
        block = dv.random_query_block(1, 0)
        drawn = [block.instance(k) for k in range(60)]

        def shape(q, S):
            return len(S), q.arity, len(q.outputs)

        bad = drawn[10][1].array.tolist()
        assert sum(shape(*inst) == shape(*drawn[10]) for inst in drawn) == 6
        bound = dv.chi2_stability_bound(*shape(*drawn[10]))
        real = dv.table_chi2_rows

        def rows(block, group):
            measured, closed, per, laws = real(block, group)
            hit = [block.instance(j)[1].array.tolist() == bad for j in group]
            return np.where(hit, closed + 1.0, measured), closed, per, laws

        monkeypatch.setattr(dv, "table_chi2_rows", rows)
        res = run_suite("chi2-stability", trials=60, seed=1)
        assert res.failures == [
            f"instance {i}: leave-one-out chi2 {bound + 1.0} exceeds closed form "
            f"{bound}; {cli._describe_instance(q, S)}"
            for i, (q, S) in enumerate(drawn) if S.array.tolist() == bad]
        assert res.failures[0].startswith("instance 10: ")

    def test_max_excess_counts_the_failing_rows(self, monkeypatch, capsys):
        # the bound of (n, w, |Y|) = (8, 3, 4) scaled by 0.3 puts some of
        # those instances over it: each is named once, and max_excess is the
        # largest of their excesses
        block = dv.random_query_block(1, 0)
        shaped = [(j, dv.measure_leave_one_out_chi2(*block.instance(j)))
                  for j in range(1000)
                  if (block.n[j], block.w[j], block.ysize[j]) == (8, 3, 4)]
        over = [(j, r.measured - r.bound * 0.3) for j, r in shaped
                if r.measured > r.bound * 0.3 + dv.INEQ_TOL]
        assert 1 < len(over) < len(shaped)
        real = dv.chi2_stability_bound
        monkeypatch.setattr(dv, "chi2_stability_bound", lambda n, w, y: real(n, w, y) * (
            0.3 if (n, w, y) == (8, 3, 4) else 1.0))
        res = run_suite("chi2-stability", seed=1)
        assert [int(f.split(":")[0].split()[1]) for f in res.failures] == \
            [j for j, _ in over]
        assert res.stats["max_excess"] == max(excess for _, excess in over)
        assert main(["verify", "chi2-stability"]) == 3
        lines = capsys.readouterr().out.splitlines()
        assert f"max_excess={format_number(res.stats['max_excess'])}" in lines[0]
        assert len(lines) == 1 + len(over)

    def test_a_suite_that_raises_exits_3_with_one_line(self, monkeypatch, capsys):
        def broken(vals, n, w):
            raise FloatingPointError("no sides")

        monkeypatch.setattr(dv, "variance_contraction_rows", broken)
        assert main(["verify", "all", "--trials", "20"]) == 3
        out, err = capsys.readouterr()
        assert out == "" and err == "verify failure: FloatingPointError: no sides\n"


# The first three counterexamples at seed 20260803 as the block-drawn suites
# print them, up to the kl and bound values.
KL_COUNTEREXAMPLES = {
    "kl-chi2": [
        ("instance 0: D=[0.5162427313167847, 0.2104348363122306, "
         "0.27332243237098464] E=[0.03398893104104887, 0.5514288155116828, "
         "0.41458225344726835] tau=0.06583905008086607",
         1.0878691258463116, 4.003543694210172),
        ("instance 1: D=[0.16650163711529936, 0.8334983628847006] "
         "E=[0.8085686139032967, 0.19143138609670327] tau=0.22967218007983578",
         0.9630454074586101, 7.34054205712894),
        ("instance 2: D=[0.03313988117214049, 0.9668601188278596] "
         "E=[0.0033132111123640243, 0.996686788887636] tau=0.09997655378285791",
         0.04693931079579554, 0.09170220900906925),
    ],
    "kl-mixture": [
        ("instance 0: D=[0.5162427313167847, 0.2104348363122306, "
         "0.27332243237098464] E=[0.03398893104104887, 0.5514288155116828, "
         "0.41458225344726835] tau=0.5",
         0.29149272901982637, 4.899993266174078),
        ("instance 1: D=[0.16650163711529936, 0.8334983628847006] "
         "E=[0.8085686139032967, 0.19143138609670327] tau=0.1",
         0.8449613334937301, 12.36911052356015),
        ("instance 2: D=[0.03313988117214049, 0.9668601188278596] "
         "E=[0.0033132111123640243, 0.996686788887636] tau=0.01",
         0.021415620667720542, 0.247854855602214),
    ],
}


class TestKlSuites:
    @pytest.mark.parametrize("suite", ["kl-chi2", "kl-mixture"])
    def test_forced_failures_keep_the_counterexample_layout(self, monkeypatch,
                                                            suite):
        monkeypatch.setattr(dv, "INEQ_TOL", -1e9)
        res = run_suite(suite, trials=3, seed=20260803)
        assert len(res.failures) == 3
        for text, (head, kl, bound) in zip(res.failures, KL_COUNTEREXAMPLES[suite]):
            m = re.fullmatch(r"(.*) kl=(\S+) bound=(\S+)", text)
            assert m.group(1) == head
            assert float(m.group(2)) == pytest.approx(kl, rel=1e-12)
            assert float(m.group(3)) == pytest.approx(bound, rel=1e-12)

    def test_block_boundary_matches_per_instance_checks(self, monkeypatch):
        # a tolerance of -5 fails 30-70% of the rows, so both verdicts occur
        monkeypatch.setattr(dv, "INEQ_TOL", -5.0)
        trials = dv.PMF_BLOCK + 1
        want = {"kl-chi2": [], "kl-mixture": []}
        for i in range(trials):
            block, j = divmod(i, dv.PMF_BLOCK)
            if j == 0:  # instance i is row j of block i // PMF_BLOCK's draws
                gen = RandomSource(7).child(block).generator
                sizes = gen.integers(2, 7, size=dv.PMF_BLOCK)
                exps = gen.standard_exponential((2, dv.PMF_BLOCK, 6))
            size = int(sizes[j])
            dp, ep = (ResponsePMF(tuple(range(size)), row * (1.0 / row.sum()))
                      for row in exps[:, j, :size])
            tau = min(1.0, float(np.min(ep.masses / dp.masses)))
            if not dv.verify_kl_chi2_inequality(dp, ep, tau).passed:
                want["kl-chi2"].append(i)
            if not dv.verify_kl_mixture_inequality(dp, ep, (0.5, 0.1, 0.01)[i % 3]).passed:
                want["kl-mixture"].append(i)
        for suite, failing in want.items():
            res = run_suite(suite, trials=trials, seed=7)
            assert res.instances == trials
            assert [int(f.split(":")[0].split()[1]) for f in res.failures] == failing
            assert 0.3 * trials < len(failing) < 0.7 * trials


class TestParamsCommand:
    def test_sq_table(self, capsys):
        assert main(["params", "--n", "15000", "--T", "1000",
                     "--tau", "0.1", "--delta", "0.1"]) == 0
        out = capsys.readouterr().out
        assert "8478" in out
        assert "epsilon" in out
        assert "MI upper bound" in out

    def test_sq_cost_lines_are_the_mechanism_functions(self, capsys):
        n, T, tau, delta = 15000, 1000, 0.1, 0.1
        assert main(["params", "--n", str(n), "--T", str(T),
                     "--tau", str(tau), "--delta", str(delta)]) == 0
        lines = capsys.readouterr().out.splitlines()
        sp = sq_params(n, T, tau, delta)
        per_query = sq_answer_cost(n, sp.k, sp.epsilon, delta)
        assert lines[3] == f"per-query cost      : {format_number(per_query)}"
        assert lines[5] == ("MI upper bound      : "
                            f"{format_number(mi_upper_bound(n, T * per_query))}")

    def test_tau_one_exit_2(self, capsys):
        assert main(["params", "--n", "100", "--T", "10",
                     "--tau", "1.0", "--delta", "0.1"]) == 2

    def test_vote_count_past_int64_names_tau(self, capsys):
        assert main(["params", "--n", "50", "--T", "3",
                     "--tau", "1e-150", "--delta", "0.05"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("config error: tau must be large enough ")
        assert "votes)" in captured.err and len(captured.err) < 150

    def test_median_table(self, capsys):
        assert main(["params", "--median", "--T", "100", "--rmax", "1024",
                     "--delta", "0.05"]) == 0
        assert "85" in capsys.readouterr().out

    def test_median_single_value_range_has_no_rounds(self, capsys):
        assert main(["params", "--median", "--T", "10", "--rmax", "1",
                     "--delta", "0.1"]) == 0
        assert "search rounds/query : 0" in capsys.readouterr().out

    def test_median_T_past_the_round_ceiling_exit_2(self, capsys):
        # checked before the two T-long lists are built
        assert main(["params", "--median", "--T", str(RUN_MAX_ROUNDS + 1),
                     "--rmax", "16", "--delta", "0.1"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (f"config error: --T must be at most {RUN_MAX_ROUNDS}, "
                       f"got {RUN_MAX_ROUNDS + 1}\n")

    @pytest.mark.parametrize("argv,flag,ceiling", [
        (["--n", "{}", "--T", "10", "--tau", "0.1", "--delta", "0.1"], "n", SAMPLE_MAX),
        (["--median", "--T", "10", "--rmax", "16", "--delta", "0.1", "--n", "{}"],
         "n", SAMPLE_MAX),
        (["--n", "100", "--T", "{}", "--tau", "0.1", "--delta", "0.1"], "T",
         RUN_MAX_ROUNDS),
        (["--median", "--T", "10", "--rmax", "16", "--delta", "0.1", "--wmax", "{}"],
         "wmax", RUN_MAX_ROUNDS),
    ])
    @pytest.mark.parametrize("past", ["ceiling+1", "400 digits"])
    def test_flags_past_their_ceiling_exit_2(self, capsys, argv, flag, ceiling, past):
        # refused before any arithmetic, where a huge int overflows a float
        value = str(ceiling + 1) if past == "ceiling+1" else "9" * 400
        assert main(["params", *(a.format(value) for a in argv)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"config error: --{flag} must be at most {ceiling}, got {value}\n"

    @pytest.mark.parametrize("n,verdict", [("5", "BELOW"), ("2000", "above")])
    def test_median_requested_n_line(self, capsys, n, verdict):
        assert main(["params", "--median", "--T", "10", "--rmax", "16",
                     "--delta", "0.1", "--n", n]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[-1] == f"requested n         : {n} ({verdict} advisory)"

    def test_sq_missing_flag_exit_2(self, capsys):
        assert main(["params", "--n", "100", "--T", "10", "--tau", "0.1"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "config error: statistical-query params need --delta\n"

    def test_median_missing_flag_exit_2(self, capsys):
        assert main(["params", "--median", "--T", "100"]) == 2
