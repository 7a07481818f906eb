from fractions import Fraction as F

import pytest

import fraction_reference as ref
from e8voa.cli import GRIESS_SUITE
from e8voa.lattice import EvenLattice
from e8voa.linalg import det, hermite_normal_form
from e8voa.rootsys import (EXTENDED_COEFFS, NODE_LABELS, NotRootGenerated,
                           UnsupportedType, build_root_system, e8_paper_data,
                           extended_e8_node, root_components)

PAPER_TYPES = {
    0: [("E", 8)],
    1: [("A", 1), ("E", 7)],
    2: [("A", 2), ("E", 6)],
    3: [("A", 3), ("D", 5)],
    4: [("A", 4), ("A", 4)],
    5: [("A", 1), ("A", 2), ("A", 5)],
    6: [("A", 1), ("A", 7)],
    7: [("D", 8)],
    8: [("A", 8)],
}


def test_root_counts():
    assert len(build_root_system("E", 8).roots) == 240
    assert len(build_root_system("D", 8).roots) == 112
    assert len(build_root_system("E", 7).roots) == 126
    assert len(build_root_system("E", 6).roots) == 72


def test_a1_roots_and_coxeter():
    rs = build_root_system("A", 1)
    assert sorted(rs.roots) == [(-1, 1), (1, -1)]
    assert rs.coxeter_number == 2


def test_all_roots_have_norm_two():
    for letter, rank in (("A", 5), ("D", 6), ("E", 8)):
        rs = build_root_system(letter, rank)
        assert all(sum(x * x for x in r) == 2 for r in rs.roots)
        assert rs.coxeter_number * rank == len(rs.roots)


def test_unsupported_type():
    with pytest.raises(UnsupportedType):
        build_root_system("E", 5)
    with pytest.raises(UnsupportedType):
        build_root_system("B", 3)


def test_simple_root_cartan_matches_declared_type():
    rs = build_root_system("D", 5)
    cart = [[sum(x * y for x, y in zip(u, v)) for v in rs.simple_roots]
            for u in rs.simple_roots]
    assert all(cart[i][i] == 2 for i in range(5))
    offdiag = sorted(cart[i][j] for i in range(5) for j in range(5) if i < j)
    assert offdiag.count(-1) == 4  # D5 tree has 4 edges


def weyl_reflection(root, v):
    """Reflection of v in the hyperplane of a norm-2 root."""
    root = tuple(F(x) for x in root)
    v = tuple(F(x) for x in v)
    n = sum(x * x for x in root)
    if n != 2:
        raise ValueError("reflection root must have norm 2")
    t = sum(x * y for x, y in zip(v, root))
    return tuple(x - t * y for x, y in zip(v, root))


def test_weyl_reflection_basics():
    rs = build_root_system("A", 2)
    a, b = rs.simple_roots[0], rs.simple_roots[1]
    assert weyl_reflection(a, a) == tuple(-x for x in a)
    assert weyl_reflection(a, b) == tuple(x + y for x, y in zip(a, b))


def test_weyl_orbit_of_highest_root_stays_in_root_system():
    data = e8_paper_data()
    rs = build_root_system("E", 8)
    highest = data["lattice"].ambient(data["highest_coords"])
    for s in rs.simple_roots:
        img = weyl_reflection(s, highest)
        assert img in set(rs.roots)


def test_extended_relation_and_indices():
    for i in range(9):
        node = extended_e8_node(i)
        assert node.n == EXTENDED_COEFFS[i]
        assert node.label == NODE_LABELS[i]
        total = [F(0)] * 8
        for coeff, alpha in zip(EXTENDED_COEFFS, ref.ambient_node(i).alphas):
            total = [t + coeff * a for t, a in zip(total, alpha)]
        assert all(x == 0 for x in total)


def test_node_classifications_match_display():
    for i, want in PAPER_TYPES.items():
        assert extended_e8_node(i).component_types == want


def test_glue_vector_pairings():
    for i in range(9):
        node, amb = extended_e8_node(i), ref.ambient_node(i)
        for j in range(9):
            t = sum(x * y for x, y in zip(amb.glue, amb.alphas[j]))
            if j == i:
                assert (t + F(1, node.n)).denominator == 1
            else:
                assert t.denominator == 1


def test_classify_examples():
    assert extended_e8_node(3).component_types == [("A", 3), ("D", 5)]
    assert extended_e8_node(6).component_types == [("A", 1), ("A", 7)]


def test_classify_rejects_rootless_lattice():
    lat = EvenLattice([(2, 0), (0, 2)])  # gram diag(4,4), no norm-2 vectors
    with pytest.raises(NotRootGenerated):
        ref.classify_root_sublattice(lat)


class ChainViolation(RuntimeError):
    pass


POWER_MAP_LABELS = {
    (3, 2): "(4A)^2 = 2B",
    (5, 3): "(6A)^2 = 3A",
    (5, 2): "(6A)^3 = 2A",
    (6, 2): "(4B)^2 = 2A",
}


def check_intermediate_chains():
    """Verify the intermediate sublattices between L(i) and E8.

    For composite n_i the lattice L(i) + Z d alpha_i with d a proper
    divisor sits strictly between L(i) and E8; each is classified and the
    corresponding power-map label attached.
    """
    type_to_label = {}
    for i in range(9):
        node = extended_e8_node(i)
        type_to_label[tuple(node.component_types)] = node.label
    chains = []
    e8 = e8_paper_data()["lattice"]
    for i in range(9):
        node = extended_e8_node(i)
        n = node.n
        divisors = [d for d in range(2, n) if n % d == 0]
        for d in divisors:
            rows = [list(r) for r in node.l_rows_coords]
            rows.append([d * x for x in node.alpha_coords[node.i]])
            h = hermite_normal_form(rows)
            mid_coords = h
            mid = EvenLattice([e8.ambient(r) for r in mid_coords])
            mid_types = ref.classify_root_sublattice(mid)
            idx_mid = _index_from_det(mid_coords)
            if idx_mid != d:
                raise ChainViolation(f"node {i}, divisor {d}: index {idx_mid}")
            if not all(mid.contains(v) for v in ref.ambient_node(i).lattice.basis):
                raise ChainViolation(f"node {i}: L(i) not inside the middle lattice")
            label = type_to_label.get(tuple(mid_types))
            chains.append({
                "i": i,
                "node_label": node.label,
                "lower": node.component_types,
                "middle": mid_types,
                "middle_label": label,
                "indices": (n // d, d),
                "power_map": POWER_MAP_LABELS.get((i, d)),
            })
    return chains


def _index_from_det(coords_rows) -> int:
    d = abs(det(coords_rows))
    if d.denominator != 1:
        raise ChainViolation("sublattice index is not an integer")
    return d.numerator


def test_intermediate_chains():
    chains = check_intermediate_chains()
    seen = {(c["i"], c["middle_label"]) for c in chains}
    assert seen == {(3, "2B"), (5, "2A"), (5, "3A"), (6, "2A")}
    for c in chains:
        assert c["indices"][0] * c["indices"][1] == EXTENDED_COEFFS[c["i"]]
        assert c["power_map"] is not None


def test_chain_type_displays():
    chains = check_intermediate_chains()
    by_key = {(c["i"], c["middle_label"]): c for c in chains}
    assert by_key[(3, "2B")]["middle"] == [("D", 8)]
    assert by_key[(5, "3A")]["middle"] == [("A", 2), ("E", 6)]
    assert by_key[(5, "3A")]["indices"] == (2, 3)
    assert by_key[(6, "2A")]["indices"] == (2, 2)


def test_sum_of_coset_root_counts():
    for i in range(9):
        node = extended_e8_node(i)
        assert node.phi_count() + sum(node.h_counts()) == 240
        hs = node.h_counts()
        assert hs == hs[::-1]  # negation symmetry


def test_glue_class_map_matches_the_fraction_reference():
    for i in range(9):
        node = extended_e8_node(i)
        assert node.coset_classes() == ref.coset_classes(node), i


@pytest.mark.parametrize("lat", [ref.ambient_node(i).lattice for i in range(9)]
                         + [build_root_system(*t).lattice for t in GRIESS_SUITE],
                         ids=[f"L({i})" for i in range(9)]
                         + ["%s%d" % t for t in GRIESS_SUITE])
def test_decompose_root_lattice_matches_the_fraction_reference(lat):
    comps = ref.decompose_root_lattice(lat)
    assert sorted((c.simple_coords, c.root_coords) for c in comps) == ref.root_components(lat)
    assert all(len(c.simple_coords) == c.rank for c in comps)


@pytest.mark.parametrize("i", range(9))
def test_node_components_are_the_ambient_decomposition_in_e8_coordinates(i):
    # the class-0 E8 roots split into the components that decompose_root_lattice
    # finds on the ambient L(i): same types in the same order, same root sets
    node = extended_e8_node(i)
    assert [(c.letter, c.rank, sorted(c.root_coords))
            for c in node.components] == ref.ambient_node(i).components
    assert all(len(c.simple_coords) == c.rank for c in node.components)


def test_root_components_rejects_a_root_set_that_is_not_a_system():
    # A1 + A1 inside A2: the two simple roots pair to -1 but their sum is
    # missing, so the diagram says A2 while only four roots are given
    lat = build_root_system("A", 2).lattice
    with pytest.raises(NotRootGenerated, match="A2 has 4 roots"):
        root_components([(-1, 0), (0, -1), (0, 1), (1, 0)], lat)
