"""The modules that run for every simulated event import at module level.

An import statement inside a function runs on every call; in the round
loop, the churn hooks or a phase engine that is a lookup per event. The
command-line harness (`cli.py`) is exempt.

No package module imports a test module (a `*_reference` oracle,
`overlay_reshape` or any other module under `tests/`). Under pytest,
`tests/` is on `sys.path`, so such an import would pass the suite and fail
only for an installed package.
"""

import ast
from pathlib import Path

import pytest

import churnskip

SRC = Path(churnskip.__file__).resolve().parent
TESTS = Path(__file__).resolve().parent
TEST_MODULES = {"tests", *(p.stem for p in TESTS.glob("*.py"))}
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


def _test_module_imports(tree: ast.Module) -> list[str]:
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module]
        else:
            continue
        found += [f"line {node.lineno}: {name}" for name in names
                  if name.split(".")[0] in TEST_MODULES]
    return found


def test_test_modules_are_all_found():
    assert {"adversary_reference", "buffer_reference", "overlay_reference",
            "overlay_reshape"} <= TEST_MODULES


@pytest.mark.parametrize("module", sorted(p.stem for p in SRC.glob("*.py")))
def test_no_package_module_imports_a_test_module(module):
    tree = ast.parse((SRC / f"{module}.py").read_text())
    assert _test_module_imports(tree) == []


def test_detects_an_import_of_a_test_module():
    tree = ast.parse("import json\nfrom .params import SimParams\n"
                     "from buffer_reference import build_bitonic\n"
                     "def f():\n    import overlay_reshape, math\n")
    assert _test_module_imports(tree) == ["line 3: buffer_reference",
                                          "line 5: overlay_reshape"]
