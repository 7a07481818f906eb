import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from e8voa.linalg import RowSpace, rref
from e8voa.scalars import Cyclotomic, euler_phi, is_zero

small_rationals = st.fractions(min_value=-3, max_value=3, max_denominator=4)


def cyclotomics(order):
    deg = euler_phi(order)
    return st.lists(small_rationals, min_size=deg, max_size=deg).map(
        lambda cs: Cyclotomic(order, cs))


def matrices(entries):
    """Small matrices whose rows are often dependent: some rows are sums of others."""
    @st.composite
    def build(draw):
        ncols = draw(st.integers(1, 5))
        row = st.lists(entries, min_size=ncols, max_size=ncols)
        rows = draw(st.lists(row, min_size=1, max_size=5))
        for _ in range(draw(st.integers(0, 2))):
            a = draw(st.sampled_from(rows))
            b = draw(st.sampled_from(rows))
            rows.append([x + y for x, y in zip(a, b)])
        return rows
    return build()


def combine(coeffs, rows):
    out = [0] * len(rows[0])
    for c, row in zip(coeffs, rows):
        out = [o + c * x for o, x in zip(out, row)]
    return out


def same(u, v):
    return all(is_zero(x - y) for x, y in zip(u, v))


def check_against_rref(rows, extra):
    space = RowSpace(rows)
    red, pivots = rref(rows)
    assert space.pivots == pivots
    assert len(space.rows) == len(pivots)
    assert all(same(a, b) for a, b in zip(space.rows, red))
    assert space.inputs == len(rows)
    # a combination of dependent inputs still gets one valid combination
    target = combine(extra, rows)
    c = space.coords(target)
    assert c is not None and len(c) == len(rows)
    assert same(combine(c, rows), target)
    # a vector is in the span exactly when adding it keeps the rank
    probe = [x + 1 for x in target]
    in_span = len(rref(rows + [probe])[1]) == len(pivots)
    c = space.coords(probe)
    assert (c is not None) == in_span
    if in_span:
        assert same(combine(c, rows), probe)


@settings(max_examples=150, deadline=None)
@given(matrices(small_rationals), st.lists(small_rationals, min_size=7, max_size=7))
def test_row_space_matches_rref_over_q(rows, extra):
    check_against_rref(rows, extra)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([3, 4, 5]).flatmap(
    lambda n: st.tuples(matrices(cyclotomics(n)),
                        st.lists(cyclotomics(n), min_size=7, max_size=7))))
def test_row_space_matches_rref_over_cyclotomic_fields(case):
    rows, extra = case
    check_against_rref(rows, extra)


def test_coords_rejects_a_vector_that_agrees_on_every_pivot_column():
    rows = [[F(1), F(0), F(2), F(1)], [F(0), F(1), F(-1), F(3)]]
    space = RowSpace(rows)
    assert space.pivots == [0, 1]
    inside = combine([F(2), F(-1)], rows)
    assert space.coords(inside) == [2, -1]
    for col in (2, 3):
        outside = list(inside)
        outside[col] += F(1, 3)
        assert space.coords(outside) is None


def test_adding_a_dependent_row_leaves_the_form_unchanged():
    rows = [[1, 2, 0], [0, 1, 1]]
    space = RowSpace(rows)
    before = ([list(r) for r in space.rows], list(space.pivots))
    assert space.add([2, 5, 1]) is None
    assert ([list(r) for r in space.rows], list(space.pivots)) == before
    row = space.add([0, 0, 1])
    assert row == [0, 0, 1] and row is space.rows[2]
    assert space.pivots == [0, 1, 2]
    c = space.coords([2, 5, 1])
    assert len(c) == 4
    assert combine(c, rows + [[2, 5, 1], [0, 0, 1]]) == [2, 5, 1]


def test_empty_row_space_holds_only_zero():
    space = RowSpace()
    assert space.coords([0, 0]) == []
    assert space.coords([0, 1]) is None


@st.composite
def square_matrices(draw):
    """Square rational matrices up to 6x6, often singular: a row may be a
    combination of two others."""
    n = draw(st.integers(1, 6))
    row = st.lists(st.one_of(st.just(F(0)), small_rationals), min_size=n, max_size=n)
    rows = draw(st.lists(row, min_size=n, max_size=n))
    if n > 2 and draw(st.booleans()):
        a, b, c = draw(st.permutations(range(n)))[:3]
        k = draw(small_rationals)
        rows[c] = [x + k * y for x, y in zip(rows[a], rows[b])]
    return rows


def _inverse_or_singular(invert, mat):
    try:
        return invert(mat)
    except ZeroDivisionError:
        return "singular"


@settings(max_examples=300, deadline=None)
@given(square_matrices())
def test_integer_det_and_invert_match_the_fraction_reference(mat):
    import fraction_reference as ref
    from e8voa.linalg import det, invert
    assert det(mat) == ref.det(mat)
    got = _inverse_or_singular(invert, mat)
    assert got == _inverse_or_singular(ref.invert, mat)
    assert (got == "singular") == (ref.det(mat) == 0)
    if got != "singular":
        assert all(type(x) is F for row in got for x in row)


@st.composite
def small_int_matrices(draw):
    """(dense rows, the same rows as {column: int} dicts): integer matrices
    up to 6x6 with entries in [-9, 9], often of low rank: rows may repeat,
    change sign or vanish.  A dict row lists its columns in shuffled order
    and may keep explicit zeros.  Every minor is below the Hadamard bound
    (9 * sqrt(6))^6 < 2^31 - 1, so none vanishes mod that prime unless it
    vanishes over Q."""
    ncols = draw(st.integers(1, 6))
    row = st.lists(st.integers(-9, 9), min_size=ncols, max_size=ncols)
    rows = draw(st.lists(row, min_size=1, max_size=6))
    for _ in range(draw(st.integers(0, 6 - len(rows)))):
        src = draw(st.sampled_from(rows))
        rows.append([draw(st.sampled_from([-1, 0, 1])) * x for x in src])
    rows = draw(st.permutations(rows))
    sparse = [{c: row[c] for c in draw(st.permutations(range(ncols)))
               if row[c] or draw(st.booleans())} for row in rows]
    return rows, sparse


@settings(max_examples=300, deadline=None)
@given(small_int_matrices())
def test_rank_mod_p_matches_the_fraction_rank(mat):
    # at a prime above every minor the rank is exact; at RANK_PRIME it is
    # at most the rank over Q
    import fraction_reference as ref
    from e8voa import linalg
    rows, sparse = mat
    want = ref.rank(rows)
    assert linalg.rank_mod_p(sparse) <= want
    with patch.object(linalg, "RANK_PRIME", 2 ** 31 - 1):
        assert linalg.rank_mod_p(sparse) == want


def test_rank_mod_p_only_loses_rank():
    # a multiple of the prime vanishes mod p, so the rank can only drop
    from e8voa.linalg import RANK_PRIME, rank_mod_p
    assert rank_mod_p([{0: RANK_PRIME}, {1: 1}]) == 1
    assert rank_mod_p([{0: 1, 1: 2}, {1: 4 + RANK_PRIME, 0: 2}]) == 1
    assert rank_mod_p([]) == rank_mod_p([{0: 0, 1: 0}]) == rank_mod_p([{}]) == 0
    # the only pivot of a sparse column is a multiple of p: rank 2 over Q, 1 mod p
    assert rank_mod_p([{5: 3 * RANK_PRIME, 9: 7}, {9: 7}]) == 1


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([3, 4, 5, 6]).flatmap(
    lambda m: st.tuples(cyclotomics(m), cyclotomics(m))))
def test_residues_mod_p_is_a_ring_map(pair):
    from e8voa.linalg import RANK_PRIME as p, residues_mod_p
    a, b = pair
    ((x, y, s, t),) = residues_mod_p([[a, b, a + b, a * b]])
    assert (s, t) == ((x + y) % p, x * y % p)


def test_residues_mod_p_agree_across_field_orders():
    # one root r of order m = 12 serves every order dividing m:
    # zeta_6^2 and zeta_3 have one residue, and zeta_4^2 is -1
    from e8voa.linalg import RANK_PRIME as p, residues_mod_p
    ((a, b, c, d),) = residues_mod_p([[Cyclotomic.zeta(6) ** 2, Cyclotomic.zeta(3),
                                        Cyclotomic.zeta(4) ** 2, F(-1)]])
    assert a == b and c == d == p - 1


def test_residues_mod_p_raise_without_roots_of_unity_or_units():
    from e8voa import linalg
    with pytest.raises(ArithmeticError, match="no primitive 11-th root of unity"):
        linalg.residues_mod_p([[Cyclotomic.zeta(11)]])
    with pytest.raises(ArithmeticError, match="denominator vanishes"):
        linalg.residues_mod_p([[F(1, linalg.RANK_PRIME)]])
    # the root is searched from p itself: mod 7 there is a sixth root, no fourth
    with patch.object(linalg, "RANK_PRIME", 7):
        assert linalg.residues_mod_p([[Cyclotomic.zeta(6)]]) == [[3]]
        with pytest.raises(ArithmeticError, match="no primitive 4-th root"):
            linalg.residues_mod_p([[Cyclotomic.zeta(4)]])


def test_residues_mod_p_raise_under_python_O():
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = ("from e8voa.linalg import residues_mod_p\n"
            "from e8voa.scalars import Cyclotomic\n"
            "try:\n"
            "    residues_mod_p([[Cyclotomic.zeta(11)]])\n"
            "except ArithmeticError as exc:\n"
            "    print(exc)\n")
    out = subprocess.run([sys.executable, "-O", "-c", code], env={"PYTHONPATH": src},
                         capture_output=True, text=True, check=True)
    assert out.stdout == "F_30241 has no primitive 11-th root of unity\n"
