"""Static guards for the runtime invariants of the package.

Every module under ``src/e8voa`` imports only from the standard library
or from ``e8voa`` itself, and no module contains a float literal or a
``float(...)`` call.  The check reads the syntax tree only, so it cannot
see ``/`` applied to two ints, which also yields a float at run time.
The weight-2 kernel functions call no scalar constructor.
"""

import ast
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "e8voa").glob("*.py"))


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_imports_are_standard_library_or_e8voa(path):
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        for name in names:
            top = name.split(".")[0]
            assert top == "e8voa" or top in sys.stdlib_module_names, (
                f"{path.name}:{node.lineno} imports {name}")


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_floating_point(path):
    for node in ast.walk(_tree(path)):
        assert not (isinstance(node, ast.Constant) and isinstance(node.value, float)), (
            f"{path.name}:{node.lineno} has a float literal")
        assert not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "float"), (
            f"{path.name}:{node.lineno} calls float()")


KERNEL = ("product", "inner", "module_act_on_key")


def test_weight2_kernel_builds_no_scalar_objects():
    # the kernel works on integer numerators; Fraction and Cyclotomic values
    # are made only by the readers it calls, never per term
    griess = next(p for p in SOURCES if p.name == "griess.py")
    bodies = {node.name: node for node in _tree(griess).body
              if isinstance(node, ast.FunctionDef) and node.name in KERNEL}
    assert sorted(bodies) == sorted(KERNEL)
    for name, body in bodies.items():
        for node in ast.walk(body):
            if isinstance(node, ast.Call):
                func = node.func.value if isinstance(node.func, ast.Attribute) else node.func
                assert not (isinstance(func, ast.Name)
                            and func.id in ("Fraction", "Cyclotomic")), (
                    f"griess.{name}:{node.lineno} calls {func.id}")
