"""Static guards for the runtime invariants of the package.

Every module under ``src/e8voa`` imports only from the standard library
or from ``e8voa`` itself, and no module contains a float literal or a
``float(...)`` call.  The check reads the syntax tree only, so it cannot
see ``/`` applied to two ints, which also yields a float at run time.
The weight-2 kernel functions call no scalar constructor, and lattice
membership, size reduction, the LDL decomposition, short-vector
enumeration, the exact-norm filter, the root decomposition, the glue
class map, the Leech minimum's glue certificate, the X_eta count, the
module space's set-up, action rows and action matrix, the root-system
coset claims and the Leech dual-coset survey's minima, shape match and
split call no Fraction; the
command-line module calls no ``Coset``, ``coset_min_norm``,
``count_X_eta``, ``ModuleVector``, ``module_act`` or ``ambient``.
The tau rows and the dual-coset tau data and claims call no Fraction, and
neither the command-line module nor ``mckay`` calls the value views
``act_matrix``, ``tau_from_matrix`` or ``matrix``.
The code constructor, the dual code, the residue and shortened codes and
Construction A call no Fraction either, and ``codes`` imports nothing from
``fractions``.
The tau involution is a polynomial in the action matrix: it computes no
kernel, echelon form or inverse, and its matrix products call no Fraction.
The involution checks, the node family's check of sigma against the coset
classes and the rank mod p compare integers: they call no Cyclotomic,
scalar_inverse, sigma_phase or act_matrix.  Cyclotomic sums, products,
inverses and embeddings run on integer numerators over one denominator:
they call no Fraction, and no polynomial Euclid helper is left.
Importing the command-line module loads no ``dataclasses`` (and so none
of ``inspect``, ``dis``, ``ast`` and ``tokenize``), which a cold run pays.
``scalars`` imports nothing from the package, and no module defines or
imports ``RowSpace``.
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


def test_scalars_is_a_leaf_module():
    # the Cyclotomic hash is a trace, not an echelon solve, so scalars
    # needs nothing from the rest of the package
    scalars = next(p for p in SOURCES if p.name == "scalars.py")
    imported = [(node.lineno, node.module) for node in ast.walk(_tree(scalars))
                if isinstance(node, ast.ImportFrom)
                and (node.level or (node.module or "").split(".")[0] == "e8voa")
                or isinstance(node, ast.Import)
                and any(a.name.split(".")[0] == "e8voa" for a in node.names)]
    assert not imported, f"scalars.py imports (line, module) {imported}"


def test_no_module_defines_or_imports_a_row_space():
    # lattice coordinates solve the normal equations on ints; the
    # incremental echelon form lives on only as a test reference
    for path in SOURCES:
        tree = _tree(path)
        defined = [node.lineno for node in ast.walk(tree)
                   if isinstance(node, (ast.ClassDef, ast.FunctionDef))
                   and node.name == "RowSpace"]
        imported = [node.lineno for node in ast.walk(tree)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                    and any(a.name.split(".")[-1] == "RowSpace" for a in node.names)]
        assert not defined + imported, f"{path.name} has RowSpace at lines {defined + imported}"


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


KERNEL = ("product", "inner", "_act", "_mul_terms", "_split", "_block_matrix")


def test_weight2_kernel_builds_no_scalar_objects():
    # the kernel, and the U2 block rows read through it, work on integer
    # numerators; Fraction and Cyclotomic values are made only by the
    # readers it calls, never per term
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
    # count_X_eta compares int tuples over one denominator; the action rows
    # are _act's int rows, and the action matrix reads its values off them;
    # a module space is set up on its int keys, and the root-system coset
    # claims read lowering pairs and action-row sums off it, with no
    # Fraction coset, second coset minimum or module vector
    _assert_no_fraction_calls("lattice.py", ["count_X_eta", "_x_eta_ints"])
    _assert_no_fraction_calls("griess.py", ["ModuleSpace.__init__", "ModuleSpace.act_rows",
                                            "ModuleSpace.act_matrix"])
    _assert_no_fraction_calls("cli.py", ["_root_system_claims"])
    cli = _tree(next(p for p in SOURCES if p.name == "cli.py"))
    old = ("Coset", "coset_min_norm", "count_X_eta", "ModuleVector", "module_act", "ambient")
    calls = [(line, name) for line, name in _called_names(cli) if name in old]
    assert not calls, f"cli calls (line, name) {calls}"


def test_leech_survey_runs_on_ints():
    # minima, shape match and orthogonal split on doubled int tuples; only
    # _record, outside these bodies, halves them to Fractions
    _assert_no_fraction_calls("leech.py", ["minimal_coset_survey", "_doubled"])


def test_leech_minimum_certificate_runs_on_ints():
    # glue words from int pairings, 8-bit class tables of exact int norms
    # and sums of table entries over the glue code
    _assert_no_fraction_calls("leech.py", [
        "certify_minimum", "glue_bounds", "_glue_words", "_class_norm_bounds",
        "_sqrt2E8_cubed"])


def test_codes_run_on_their_preimage_lattices_without_fractions():
    # the dual is one integer back substitution, and the residue code, the
    # shortened codes and Construction A are duals and Hermite rows
    _assert_no_fraction_calls("codes.py", ["dual_code", "_dual_columns", "residue_code_B",
                                           "block_subcode", "construction_A",
                                           "_Code.__init__"])
    codes = next(p for p in SOURCES if p.name == "codes.py")
    imported = [node.lineno for node in ast.walk(_tree(codes))
                if isinstance(node, ast.ImportFrom) and node.module == "fractions"
                or isinstance(node, ast.Import)
                and any(a.name == "fractions" for a in node.names)]
    assert not imported, f"codes.py imports fractions at lines {imported}"


def test_ldl_root_decomposition_and_glue_classes_run_on_ints():
    # Bareiss on the int Gram rows; the enumeration on it hands out (S x, N)
    # int pairs, filtered by exact norm on ints, and a coset search starts
    # from its nearest-plane point, rounded on the same rows; pairings
    # against int Gram columns; the glue pairing as ints over one denominator
    _assert_no_fraction_calls("lattice.py", ["EvenLattice.ldl", "EvenLattice.gram_times",
                                             "enumerate_short", "coords_of_norm",
                                             "_nearest_plane"])
    _assert_no_fraction_calls("rootsys.py", [
        "root_components", "_component_graph", "simple_system",
        "ExtendedE8Node._check_glue", "ExtendedE8Node.coset_classes"])


def test_node_dossiers_are_built_in_e8_coordinates_alone():
    # L(i)'s roots are the class-0 E8 roots, split by root_components on the
    # E8 Gram: no ambient lattice, no second root search, no Hermite form
    (body,) = _functions("rootsys.py", ["ExtendedE8Node.__init__"]).values()
    banned = ("EvenLattice", "coords_of_norm", "hermite_normal_form",
              "decompose_root_lattice", "ambient")
    calls = [(line, name) for line, name in _called_names(body) if name in banned]
    assert not calls, f"ExtendedE8Node.__init__ calls (line, name) {calls}"


TAU = ("tau_rows", "tau_from_matrix", "annihilates", "_int_shifts", "_shifted_product")


def test_tau_is_a_polynomial_in_the_action_matrix():
    # the annihilating polynomial certifies the spectrum and its Lagrange
    # interpolant is tau, so no eigenvector basis is ever solved for
    for name, body in _functions("griess.py", TAU).items():
        calls = list(_calls_of(body, ("kernel_basis", "invert", "rref")))
        assert not calls, f"griess.{name} calls (line, name) {calls}"
    _assert_no_fraction_calls("griess.py", ["annihilates", "_shifted_product"])


VIEWS = ("act_matrix", "tau_from_matrix", "matrix")


def test_the_dual_tau_claims_read_int_rows():
    # tau_rows returns tau_e as int rows over one int, from act_rows' int
    # rows; the claims compare those ints with 0 and -q, and only the
    # Fraction views outside the claim path make values
    _assert_no_fraction_calls("griess.py", ["tau_rows"])
    _assert_no_fraction_calls("mckay.py", ["dual_tau_data", "tau_e_negates_dual_exponentials",
                                           "dual_tau_orders"])
    for module in ("cli.py", "mckay.py"):
        tree = _tree(next(p for p in SOURCES if p.name == module))
        calls = [(line, name) for line, name in _called_names(tree) if name in VIEWS]
        assert not calls, f"{module[:-3]} calls (line, name) {calls}"


def _is_memo(decorator):
    """Whether a decorator is lru_cache(...), lru_cache or cache, bare or
    through functools."""
    if isinstance(decorator, ast.Call):
        decorator = decorator.func
    if isinstance(decorator, ast.Attribute):
        return decorator.attr in ("lru_cache", "cache")
    return isinstance(decorator, ast.Name) and decorator.id in ("lru_cache", "cache")


SCALAR_TABLES = [("scalars.py", "_images"), ("scalars.py", "cyclotomic_polynomial"),
                 ("scalars.py", "euler_phi"), ("scalars.py", "power_table")]


def test_data_file_readers_are_cached_only_by_data_cached():
    # an lru_cache keyed on its arguments alone would keep serving what it
    # built from the data directory in use when it first ran, and
    # clear_caches cannot reach it; so only the pure small-int tables of
    # scalars sit behind one, and none of them reaches named_code, while
    # codes.data_cached keys on the code values and is registered
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

    # module functions and methods live as long as the process; a memo on
    # a function nested in a claim generator dies with its run
    memoized = sorted((path.name, node.name) for path in SOURCES
                      for top in _tree(path).body
                      for node in [top, *(top.body if isinstance(top, ast.ClassDef) else [])]
                      if isinstance(node, ast.FunctionDef)
                      and any(_is_memo(d) for d in node.decorator_list))
    assert memoized == SCALAR_TABLES
    bad = [f"{module}:{name}" for module, name in memoized
           if reaches_named_code(name)]
    assert not bad, f"lru_cache over a data-file reader: {bad}"


def test_clear_caches_empties_every_registered_memo(capsys, fresh_caches):
    from e8voa import codes, griess, mckay, rootsys
    from e8voa.cli import main
    assert main(["verify-mckay", "--node", "1"]) == 0
    capsys.readouterr()
    for cached in (griess.build_node_family, griess.coset_U2_cached,
                   mckay.dual_tau_orders, rootsys.extended_e8_node,
                   codes._named_code_in):
        assert cached.cache_info().currsize > 0, cached.__name__
    codes.clear_caches()
    assert [c.__name__ for c in codes.MEMOS if c.cache_info().currsize] == []


def test_a_memo_counts_hits_and_misses_like_lru_cache(fresh_caches):
    from e8voa.rootsys import extended_e8_node
    assert extended_e8_node(2) is extended_e8_node(2)
    assert extended_e8_node.cache_info() == (1, 1, None, 1)
    extended_e8_node.cache_clear()
    assert extended_e8_node.cache_info() == (0, 0, None, 0)


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
                 "sigma_weight2_order", "tau_product_orders"],
    "griess.py": ["NodeFamilies.__init__"],
    "linalg.py": ["rank_mod_p"],
}
PHASE_VALUES = ("Cyclotomic", "scalar_inverse", "sigma_phase", "act_matrix")


def test_involution_checks_compare_integer_exponents():
    # the phases are integer exponents mod their order, and the f-hat action
    # is never formed: the node family builds f-hat as sigma(e-hat), after
    # checking sigma's exponents against the coset classes as integers
    for module, names in INVOLUTION_CHECKS.items():
        for name, body in _functions(module, names).items():
            calls = [(line, callee) for line, callee in _called_names(body)
                     if callee in PHASE_VALUES]
            assert not calls, f"{module[:-3]}.{name} calls (line, name) {calls}"


def test_griess_folds_powers_of_zeta_in_one_place():
    # element sums, scalings, products, pairings and sigma place numerator
    # maps at powers of zeta_m and fold them by the rows Cyclotomic uses
    tree = _tree(next(p for p in SOURCES if p.name == "griess.py"))
    imported = {a.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                for a in node.names}
    assert "power_table" not in imported
    bodies = [node for top in tree.body
              for node in [top, *(top.body if isinstance(top, ast.ClassDef) else [])]
              if isinstance(node, ast.FunctionDef)]
    assert [node.name for node in bodies if any(_calls_of(node, ("_images",)))] == ["_fold"]


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
