"""Static guards for the runtime invariants of the package.

Every module under ``src/e8voa`` imports only from the standard library
or from ``e8voa`` itself, and no module contains a float literal or a
``float(...)`` call.  The check reads the syntax tree only, so it cannot
see ``/`` applied to two ints, which also yields a float at run time.
The weight-2 kernel functions call no scalar constructor, and lattice
membership, size reduction, the LDL decomposition, the root decomposition,
the glue class map, the X_eta count and the module action matrix call no
Fraction.  The tau involution is a
polynomial in the action matrix: it computes no kernel, echelon form or
inverse, and its matrix products call no Fraction.  The involution checks
and the rank mod p compare integers: they call no Cyclotomic,
scalar_inverse, sigma_phase or act_matrix.  Cyclotomic sums, products,
inverses and embeddings run on integer numerators over one denominator:
they call no Fraction, and no polynomial Euclid helper is left.
Importing the command-line module loads no ``dataclasses`` (and so none
of ``inspect``, ``dis``, ``ast`` and ``tokenize``), which a cold run pays.
"""

import ast
import os
import subprocess
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


def _calls_of(body, names):
    """(line, name) of each call in body to one of the named callables."""
    for node in ast.walk(body):
        if isinstance(node, ast.Call):
            func = node.func.value if isinstance(node.func, ast.Attribute) else node.func
            if isinstance(func, ast.Name) and func.id in names:
                yield node.lineno, func.id


KERNEL = ("product", "inner", "module_act_on_key")


def test_weight2_kernel_builds_no_scalar_objects():
    # the kernel works on integer numerators; Fraction and Cyclotomic values
    # are made only by the readers it calls, never per term
    griess = next(p for p in SOURCES if p.name == "griess.py")
    bodies = {node.name: node for node in _tree(griess).body
              if isinstance(node, ast.FunctionDef) and node.name in KERNEL}
    assert sorted(bodies) == sorted(KERNEL)
    for name, body in bodies.items():
        calls = list(_calls_of(body, ("Fraction", "Cyclotomic")))
        assert not calls, f"griess.{name} calls (line, name) {calls}"


def _functions(module, names):
    """The named top-level functions and Class.method bodies of a module."""
    tree = _tree(next(p for p in SOURCES if p.name == module))
    bodies = {}
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            bodies[node.name] = node
        elif isinstance(node, ast.ClassDef):
            bodies.update({f"{node.name}.{item.name}": item for item in node.body
                           if isinstance(item, ast.FunctionDef)})
    assert set(names) <= set(bodies), sorted(set(names) - set(bodies))
    return {name: bodies[name] for name in names}


def _assert_no_fraction_calls(module, names):
    for name, body in _functions(module, names).items():
        calls = list(_calls_of(body, ("Fraction",)))
        assert not calls, f"{module[:-3]}.{name} calls (line, name) {calls}"


def test_lattice_membership_and_size_reduction_run_on_ints():
    # both work on the int-scaled basis rows; only the reduced lattice's
    # constructor, outside these bodies, turns rows back into Fractions
    _assert_no_fraction_calls("lattice.py", ["EvenLattice.contains", "size_reduce_basis"])


def test_coset_vectors_run_on_ints():
    # count_X_eta compares int tuples over one denominator; the action
    # matrix fills with a module constant and reads values from _act only
    _assert_no_fraction_calls("lattice.py", ["count_X_eta", "_x_eta_ints"])
    _assert_no_fraction_calls("griess.py", ["ModuleSpace.act_matrix"])


def test_ldl_root_decomposition_and_glue_classes_run_on_ints():
    # Bareiss on the int Gram rows; pairings against int Gram columns; the
    # glue pairing as ints over one denominator
    _assert_no_fraction_calls("lattice.py", ["EvenLattice.ldl", "EvenLattice.gram_times"])
    _assert_no_fraction_calls("rootsys.py", [
        "decompose_root_lattice", "_component_graph", "simple_system",
        "ExtendedE8Node._check_glue", "ExtendedE8Node.coset_classes"])


TAU = ("tau_from_matrix", "annihilates", "_int_shifts", "_shifted_product")


def test_tau_is_a_polynomial_in_the_action_matrix():
    # the annihilating polynomial certifies the spectrum and its Lagrange
    # interpolant is tau, so no eigenvector basis is ever solved for
    for name, body in _functions("griess.py", TAU).items():
        calls = list(_calls_of(body, ("kernel_basis", "invert", "rref")))
        assert not calls, f"griess.{name} calls (line, name) {calls}"
    _assert_no_fraction_calls("griess.py", ["annihilates", "_shifted_product"])


def _is_memo(decorator):
    """Whether a decorator is lru_cache(...), lru_cache or cache, bare or
    through functools."""
    if isinstance(decorator, ast.Call):
        decorator = decorator.func
    if isinstance(decorator, ast.Attribute):
        return decorator.attr in ("lru_cache", "cache")
    return isinstance(decorator, ast.Name) and decorator.id in ("lru_cache", "cache")


def test_data_file_readers_are_cached_only_by_data_cached():
    # an lru_cache keyed on its arguments alone would keep serving what it
    # built from the data directory in use when it first ran, so nothing
    # that reaches named_code may sit behind one; codes.data_cached keys
    # on the code values instead
    defs = {}
    for path in SOURCES:
        for node in _tree(path).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs.setdefault(node.name, []).append((path.name, node))
    callees = {name: {callee for _, node in nodes
                      for _, callee in _calls_of(node, defs)}
               for name, nodes in defs.items()}

    def reaches_named_code(name):
        seen, todo = set(), [name]
        while todo:
            for callee in callees[todo.pop()] - seen:
                seen.add(callee)
                todo.append(callee)
        return "named_code" in seen

    memoized = [(module, node.name) for nodes in defs.values()
                for module, node in nodes
                if isinstance(node, ast.FunctionDef)
                and any(_is_memo(d) for d in node.decorator_list)]
    assert ("griess.py", "build_node_family") in memoized
    bad = [f"{module}:{name}" for module, name in memoized
           if reaches_named_code(name)]
    assert not bad, f"lru_cache over a data-file reader: {bad}"


def _called_names(body):
    """(line, name) of each call in body: the called name, and for a method
    call both the method and the name it is called on."""
    for node in ast.walk(body):
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Attribute):
                yield node.lineno, func.attr
                func = func.value
            if isinstance(func, ast.Name):
                yield node.lineno, func.id


INVOLUTION_CHECKS = {
    "mckay.py": ["dual_tau_orders", "conjugation_verified", "dihedral_check",
                 "sigma_weight2_order"],
    "linalg.py": ["rank_mod_p"],
}
PHASE_VALUES = ("Cyclotomic", "scalar_inverse", "sigma_phase", "act_matrix")


def test_involution_checks_compare_integer_exponents():
    # the phases are integer exponents mod their order, and the f-hat action
    # is never formed: f-hat = sigma(e-hat) is certified once, when the node
    # family is built
    for module, names in INVOLUTION_CHECKS.items():
        for name, body in _functions(module, names).items():
            calls = [(line, callee) for line, callee in _called_names(body)
                     if callee in PHASE_VALUES]
            assert not calls, f"{module[:-3]}.{name} calls (line, name) {calls}"


CYCLOTOMIC_INT_PATH = [
    "Cyclotomic.__add__", "Cyclotomic.__sub__", "Cyclotomic.__mul__",
    "Cyclotomic.inverse", "Cyclotomic.embed", "Cyclotomic._sum",
    "Cyclotomic._coerce", "Cyclotomic._nums_in", "_times", "_apply", "_cyc"]


def test_cyclotomic_arithmetic_runs_on_integer_numerators():
    # the inverse is the product of the other Galois conjugates over the
    # norm, so the Euclidean algorithm over Q[x] and its helpers are gone
    _assert_no_fraction_calls("scalars.py", CYCLOTOMIC_INT_PATH)
    scalars = next(p for p in SOURCES if p.name == "scalars.py")
    defined = {node.name for node in ast.walk(_tree(scalars))
               if isinstance(node, ast.FunctionDef)}
    assert not defined & {"sub_shift", "deg", "scale"}, defined & {"sub_shift", "deg", "scale"}


def test_importing_the_cli_loads_no_dataclasses():
    # -S keeps site hooks (.pth files) out, so only e8voa's own imports count
    src = str(Path(__file__).resolve().parents[1] / "src")
    out = subprocess.run(
        [sys.executable, "-S", "-c",
         "import sys, e8voa.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
