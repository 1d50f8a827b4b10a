"""The modules that run for every simulated event import at module level.

An import statement inside a function runs on every call; in the round
loop, the churn hooks or a phase engine that is a lookup per event. The
command-line harness (`cli.py`) is exempt.
"""

import ast
from pathlib import Path

import pytest

import churnskip

SRC = Path(churnskip.__file__).resolve().parent
HOT = ["simcore", "maintenance", "overlay", "skiplist", "work",
       *sorted(p.stem for p in SRC.glob("phase_*.py"))]


def _call_time_imports(tree: ast.Module) -> list[str]:
    found = []
    for func in ast.walk(tree):
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(func):
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    found.append(f"line {node.lineno}")
    return found


def test_hot_modules_are_all_found():
    assert {"phase_buffer", "phase_delete", "phase_merge", "phase_update"} <= set(HOT)


@pytest.mark.parametrize("module", HOT)
def test_no_import_inside_a_function(module):
    tree = ast.parse((SRC / f"{module}.py").read_text())
    assert _call_time_imports(tree) == []


def test_detects_an_import_inside_a_method():
    tree = ast.parse("class A:\n    def f(self):\n        from .x import y\n")
    assert _call_time_imports(tree) == ["line 3"]
