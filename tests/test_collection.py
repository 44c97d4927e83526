"""Collection guard: every method of a ``Test*`` class in ``tests/`` is one
that pytest runs or uses, so a test cannot drop out of the suite by a
missing ``test_`` prefix."""

import ast
from pathlib import Path

XUNIT_HOOKS = {"setup_method", "teardown_method", "setup_class",
               "teardown_class"}


def _is_fixture(fn: ast.FunctionDef) -> bool:
    for dec in fn.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if isinstance(target, ast.Attribute) and target.attr == "fixture":
            return True
    return False


def test_every_test_class_method_is_collected_or_helper():
    stray = []
    for path in sorted(Path(__file__).parent.glob("test_*.py")):
        tree = ast.parse(path.read_text())
        for cls in tree.body:
            if not (isinstance(cls, ast.ClassDef) and cls.name.startswith("Test")):
                continue
            for fn in cls.body:
                if not isinstance(fn, ast.FunctionDef):
                    continue
                if fn.name.startswith(("test_", "_")) or fn.name in XUNIT_HOOKS \
                        or _is_fixture(fn):
                    continue
                stray.append(f"{path.name}::{cls.name}.{fn.name}")
    assert not stray, f"methods pytest never runs: {stray}"
