import itertools
from fractions import Fraction as F
from math import ceil, floor, isqrt, lcm

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from e8voa.lattice import (Coset, EvenLattice, NotMinimal,
                           NotPositiveDefinite, _nearest_plane, coords_of_norm,
                           coset_min_norm, coset_minimum, count_X_eta,
                           enumerate_short)
from e8voa.linalg import identity
from e8voa.rootsys import build_root_system, e8_paper_data


def from_gram(gram):
    """The lattice Z^n with the given Gram matrix."""
    return EvenLattice(identity(len(gram)), gram=gram)


def lattice_invariants(lat):
    lat.ldl()  # raises NotPositiveDefinite when it fails
    return {
        "det": lat.det_gram(),
        "dual_basis": lat.dual_basis_rows(),
        "is_even": lat.is_even(),
        "is_doubly_even": lat.is_doubly_even(),
    }


def load_matrix(path):
    """Whitespace-separated matrix of exact 'p/q' entries."""
    rows = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            rows.append([F(tok) for tok in line.split()])
    return rows


def e8_lattice():
    return e8_paper_data()["lattice"]


def sqrt2_e8():
    e8 = e8_lattice()
    return EvenLattice(e8.basis, gram=[[2 * x for x in row] for row in e8.gram])


def test_e8_determinant():
    assert e8_lattice().det_gram() == 1


def test_sqrt2e8_invariants():
    inv = lattice_invariants(sqrt2_e8())
    assert inv["det"] == 256
    assert inv["is_even"]
    assert inv["is_doubly_even"]


def test_index_of_l5_from_determinant_ratio():
    import fraction_reference as ref
    ratio = ref.ambient_node(5).lattice.det_gram() / e8_lattice().det_gram()
    assert ratio == 36


def test_not_positive_definite_detected():
    bad = from_gram([[2, 3], [3, 2]])
    with pytest.raises(NotPositiveDefinite):
        lattice_invariants(bad)


def test_short_vectors_of_sqrt2e8():
    lat = sqrt2_e8()
    assert len(coords_of_norm(lat, 4)) == 240
    assert coords_of_norm(lat, 2) == []


def test_short_vectors_closed_under_negation_and_sorted():
    lat = sqrt2_e8()
    coords = coords_of_norm(lat, 4)
    assert coords == sorted(coords)
    assert all(lat.pair(z, z) == 4 for z in coords)
    vset = {lat.ambient(z) for z in coords}
    assert len(vset) == 240
    assert all(tuple(-x for x in v) in vset for v in vset)


def _box_oracle(gram, target):
    """Independent brute-force enumeration over an explicit coordinate box."""
    from e8voa.linalg import invert
    n = len(gram)
    ginv = invert(gram)
    bounds = []
    for i in range(n):
        b = 0
        while F(b * b) <= target * ginv[i][i]:
            b += 1
        bounds.append(b)
    hits = []
    for z in itertools.product(*[range(-b, b + 1) for b in bounds]):
        norm = sum(z[i] * gram[i][j] * z[j] for i in range(n) for j in range(n))
        if norm == target:
            hits.append(tuple(F(x) for x in z))
    return sorted(hits)


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 3), st.integers(0, 400))
def test_enumeration_matches_box_oracle(rank, seed):
    import random
    rng = random.Random(seed)
    while True:
        a = [[rng.randint(-2, 2) for _ in range(rank)] for _ in range(rank)]
        gram = [[sum(a[i][k] * a[j][k] for k in range(rank)) + 2 * int(i == j)
                 for j in range(rank)] for i in range(rank)]
        from e8voa.linalg import det
        if det(gram) != 0:
            break
    target = F(rng.randint(1, 8))
    lat = from_gram(gram)
    # the Gram rows are integral, so each hit's N is its norm
    ours = sorted(tuple(z) for z, n in enumerate_short(lat, target)
                  if n == target)
    assert ours == _box_oracle(gram, target)
    assert coords_of_norm(lat, target) == _box_oracle(gram, target)


def _shifted_box_search(gram, bound, shift):
    """Every (z + shift, norm) with norm <= bound, by scanning a box of z.

    |x_i| <= sqrt(bound * Ginv_ii) on the ellipsoid; norms are compared on
    ints after clearing the denominators of the Gram matrix and the shift.
    """
    from e8voa.linalg import invert
    n = len(gram)
    ginv = invert(gram)
    g_den = lcm(*(x.denominator for row in gram for x in row))
    s_den = lcm(*(x.denominator for x in shift))
    g_int = [[int(x * g_den) for x in row] for row in gram]
    scale = g_den * s_den * s_den
    ranges = []
    for i in range(n):
        r = isqrt(floor(bound * ginv[i][i])) + 1
        ranges.append(range(floor(-shift[i]) - r, ceil(-shift[i]) + r + 1))
    hits = []
    for z in itertools.product(*ranges):
        xs = [int(s_den * (zi + si)) for zi, si in zip(z, shift)]
        q = sum(xs[i] * g_int[i][j] * xs[j] for i in range(n) for j in range(n))
        if F(q, scale) <= bound:
            hits.append((tuple(F(x, s_den) for x in xs), F(q, scale)))
    return sorted(hits)


@st.composite
def _short_vector_problems(draw):
    n = draw(st.integers(1, 5))
    small = st.fractions(-1, 1, max_denominator=3)
    a = [[draw(small) for _ in range(n)] for _ in range(n)]
    diag = [draw(st.fractions(F(1, 2), 2, max_denominator=4)) for _ in range(n)]
    gram = [[sum(a[i][k] * a[j][k] for k in range(n)) + (diag[i] if i == j else 0)
             for j in range(n)] for i in range(n)]
    shift = draw(st.lists(st.fractions(-2, 2, max_denominator=6),
                          min_size=n, max_size=n))
    bound = draw(st.fractions(0, 2, max_denominator=5))
    return gram, shift, bound


@settings(max_examples=60, deadline=None)
@given(_short_vector_problems())
def test_shifted_enumeration_matches_box_search(problem):
    # hits are (S x, S^2 g norm(x)) on ints, S and g the shift's and the
    # Gram matrix's denominators
    gram, shift, bound = problem
    ours = enumerate_short(from_gram(gram), bound, shift=shift)
    for coeffs, norm in ours:
        assert type(norm) is int and all(type(x) is int for x in coeffs)
    s_den = lcm(*(x.denominator for x in shift))
    g_den = lcm(*(x.denominator for row in gram for x in row))
    assert sorted(ours) == [(tuple(s_den * x for x in xs), s_den * s_den * g_den * norm)
                            for xs, norm in _shifted_box_search(gram, bound, shift)]


@settings(max_examples=60, deadline=None)
@given(_short_vector_problems(), st.booleans())
def test_unshifted_enumeration_matches_box_search(problem, zero_shift):
    # without a shift (or with a zero one) only half the tree is searched
    # and the negatives are appended: every vector of norm <= bound must
    # come back exactly once, the zero vector included
    gram, _, bound = problem
    n = len(gram)
    ours = enumerate_short(from_gram(gram), bound, shift=[F(0)] * n if zero_shift else None)
    g_den = lcm(*(x.denominator for row in gram for x in row))
    want = [(tuple(int(x) for x in xs), g_den * norm)
            for xs, norm in _shifted_box_search(gram, bound, [F(0)] * n)]
    assert len(set(ours)) == len(ours)
    assert sorted(ours) == want
    assert ours.count(((0,) * n, 0)) == 1


def test_verify_leech_long_counts_the_kissing_number():
    # --long adds the 196560 count to verify-leech as its own claim
    from e8voa.cli import RunConfig, run
    status, report, _ = run(RunConfig("verify-leech", long_checks=True))
    kissing = [r for r in report["results"] if r["claim"] == "leech/kissing-number"]
    assert kissing == [{"claim": "leech/kissing-number", "pass": True,
                        "expected": "196560", "actual": "196560"}]
    assert status == 0 and report["pass"]


def test_coset_min_norm_a2():
    a2 = build_root_system("A", 2)
    mu = (F(1, 3), F(1, 3), F(-2, 3))
    info = coset_min_norm(Coset(a2.lattice, mu))
    assert info["k"] == F(2, 3)
    assert len(info["reps"]) == 3


def test_coset_min_norm_trivial():
    a2 = build_root_system("A", 2)
    info = coset_min_norm(Coset(a2.lattice, (0, 0, 0)))
    assert info["k"] == 0
    assert info["reps"] == [(0, 0, 0)]


def test_dual_coset_of_unit_vector_has_min_one():
    from e8voa.codes import construction_A, named_code
    lat = construction_A(named_code("Hamming8"))
    shift = (1, 0, 0, 0, 0, 0, 0, 0)
    info = coset_min_norm(Coset(lat, shift))
    assert info["k"] == 1


def test_count_x_eta_a2():
    a2 = build_root_system("A", 2)
    c = Coset(a2.lattice, (F(1, 3), F(1, 3), F(-2, 3)))
    info = coset_min_norm(c)
    for eta in info["reps"]:
        assert count_X_eta(a2, c, eta) == 2


def test_count_x_eta_trivial_coset():
    a2 = build_root_system("A", 2)
    c = Coset(a2.lattice, (0, 0, 0))
    assert count_X_eta(a2, c, (0, 0, 0)) == 0


def test_count_x_eta_d5_spinor():
    d5 = build_root_system("D", 5)
    c = Coset(d5.lattice, (F(1, 2),) * 5)
    info = coset_min_norm(c)
    assert info["k"] == F(5, 4)
    assert count_X_eta(d5, c, info["reps"][0]) == 10


def test_count_x_eta_rejects_nonminimal():
    a2 = build_root_system("A", 2)
    c = Coset(a2.lattice, (F(1, 3), F(1, 3), F(-2, 3)))
    bad = tuple(x + y for x, y in
                zip((F(1, 3), F(1, 3), F(-2, 3)), a2.roots[0]))
    info = coset_min_norm(c)
    if bad not in set(info["reps"]):
        with pytest.raises(NotMinimal):
            count_X_eta(a2, c, bad)


def test_count_x_eta_rejects_a_vector_outside_the_coset():
    a2 = build_root_system("A", 2)
    c = Coset(a2.lattice, (F(1, 3), F(1, 3), F(-2, 3)))
    with pytest.raises(NotMinimal):
        count_X_eta(a2, c, (F(2, 3), F(-1, 3), F(-1, 3)))  # another coset
    with pytest.raises(NotMinimal):
        count_X_eta(a2, c, (F(1, 6), F(1, 6), F(-1, 3)))  # not in the dual


X_ETA_SYSTEMS = ([("A", n) for n in range(1, 5)] + [("D", n) for n in range(3, 6)]
                 + [("E", n) for n in range(6, 9)])


@pytest.mark.parametrize("letter, rank", X_ETA_SYSTEMS,
                         ids=["%s%d" % t for t in X_ETA_SYSTEMS])
def test_count_x_eta_matches_the_fraction_reference(letter, rank):
    # E8's roots are half-integral in the model, while its one coset is the
    # lattice itself, whose minimum is the zero vector
    import fraction_reference as ref
    rs = build_root_system(letter, rank)
    for shift in rs.lattice.dual_coset_shifts():
        c = Coset(rs.lattice, rs.lattice.ambient(shift))
        for eta in coset_min_norm(c)["reps"]:
            assert count_X_eta(rs, c, eta) == ref.count_X_eta(rs, c, eta)


def _survey_lattice():
    from e8voa.codes import construction_A, named_code
    return construction_A(named_code("Hamming8"))


@pytest.mark.parametrize("lattice", [sqrt2_e8, _survey_lattice],
                         ids=["sqrt2E8", "hamming-survey"])
def test_coset_minimum_matches_the_rounding_bound_search(lattice):
    # the nearest-plane start keeps the minima and minimal vectors of the
    # rounding-bound search on every dual coset; the nearest-plane point
    # lies in the coset and bounds its minimum from above
    import fraction_reference as ref
    lat = lattice()
    g_den = lat._int_gram_rows[1]
    shifts = list(lat.dual_coset_shifts())
    assert len(shifts) == 256
    for shift in shifts:
        k, den, xs = coset_minimum(lat, shift)
        want_k, want_den, want_xs = ref.coset_minimum(lat, shift)
        assert (k, den, sorted(xs)) == (want_k, want_den, sorted(want_xs))
        xs0 = [int(den * s) for s in shift]
        point, norm = _nearest_plane(lat, xs0, den)
        assert all((x - x0) % den == 0 for x, x0 in zip(point, xs0))
        assert F(norm, den * den * g_den) == lat.pair(
            [F(x, den) for x in point], [F(x, den) for x in point]) >= k


def test_coset_equality():
    a2 = build_root_system("A", 2)
    mu = (F(1, 3), F(1, 3), F(-2, 3))
    shifted = tuple(x + y for x, y in zip(mu, a2.roots[0]))
    assert Coset(a2.lattice, mu) == Coset(a2.lattice, shifted)
    assert Coset(a2.lattice, mu) != Coset(a2.lattice, (0, 0, 0))


def test_hamming_construction_norm4_coset_counts():
    # the sixteen norm-4 vectors congruent to 0 mod 2 are the +-2 e_j
    from e8voa.codes import construction_A, named_code
    lat = construction_A(named_code("Hamming8"))
    vecs = [lat.ambient(z) for z in coords_of_norm(lat, 4)]
    even = [v for v in vecs if all(int(x) % 2 == 0 for x in v)]
    assert len(even) == 16
    assert all(sorted(abs(int(x)) for x in v) == [0] * 7 + [2] for v in even)


def test_load_matrix(tmp_path):
    p = tmp_path / "m.txt"
    p.write_text("# comment\n1/2 0\n0 3\n")
    assert load_matrix(p) == [[F(1, 2), F(0)], [F(0), F(3)]]


@st.composite
def _pairing_problems(draw):
    n = draw(st.integers(1, 5))
    entry = st.fractions(-3, 3, max_denominator=4)
    upper = {(i, j): draw(entry) for i in range(n) for j in range(i, n)}
    gram = [[upper[min(i, j), max(i, j)] for j in range(n)] for i in range(n)]
    vec = st.lists(st.one_of(st.integers(-3, 3), entry), min_size=n, max_size=n)
    return gram, draw(vec), draw(vec)


@settings(max_examples=80, deadline=None)
@given(_pairing_problems())
def test_pair_is_symmetric_and_matches_u_gram_v(problem):
    gram, u, v = problem
    lat = from_gram(gram)
    want = sum(F(u[i]) * gram[i][j] * F(v[j])
               for i in range(len(u)) for j in range(len(v)))
    got = lat.pair(u, v)
    assert type(got) is F
    assert got == want
    assert lat.pair(v, u) == got


def _griess_root_systems():
    return ([("A", n) for n in range(1, 9)] + [("D", n) for n in range(3, 9)]
            + [("E", 6), ("E", 7), ("E", 8)])


@pytest.mark.parametrize("lat", [build_root_system(*t).lattice
                                 for t in _griess_root_systems()]
                         + [from_gram([[2 * x for x in row]
                                                   for row in e8_lattice().gram])],
                         ids=["%s%d" % t for t in _griess_root_systems()] + ["sqrt2E8"])
def test_dual_coset_shifts_enumerate_the_discriminant_group(lat):
    from e8voa.linalg import vec_mat
    shifts = list(lat.dual_coset_shifts())
    assert len(shifts) == lat.det_gram()
    assert all(x == 0 for x in shifts[0])
    # each shift is a dual vector: its pairings with the basis are integers
    assert all(x.denominator == 1 for s in shifts for x in vec_mat(s, lat.gram))
    # no two shifts differ by a lattice vector
    assert len({tuple(x % 1 for x in s) for s in shifts}) == len(shifts)


@st.composite
def _lattices(draw, max_rank=6):
    """Rank 1..6 lattices, full rank or not, with rational basis rows."""
    rank = draw(st.integers(1, max_rank))
    dim = draw(st.integers(rank, rank + 2))
    entry = st.fractions(-3, 3, max_denominator=draw(st.sampled_from([1, 2, 3, 4, 6])))
    basis = draw(st.lists(st.lists(entry, min_size=dim, max_size=dim),
                          min_size=rank, max_size=rank))
    from e8voa.linalg import det
    dots = [[sum(x * y for x, y in zip(u, v)) for v in basis] for u in basis]
    assume(det(dots) != 0)
    s = draw(st.sampled_from([F(1), F(2), F(1, 2), F(3)]))
    return EvenLattice(basis, gram=[[s * x for x in row] for row in dots])


def _contains_by_coords(lat, v):
    c = lat.coords(v)
    return c is not None and all(x.denominator == 1 for x in c)


def _probe_vectors(draw, lat):
    """Lattice vectors, vectors of the rational span off the lattice,
    vectors with denominators that need not divide the basis denominator,
    and integral vectors, which lie off the span of a rank-deficient lattice."""
    rank, dim = lat.rank, len(lat.basis[0])
    coeff = st.one_of(st.integers(-2, 2), st.fractions(-2, 2, max_denominator=6))
    out = [lat.ambient(draw(st.lists(coeff, min_size=rank, max_size=rank)))
           for _ in range(6)]
    out += [lat.ambient(draw(st.lists(st.integers(-3, 3), min_size=rank, max_size=rank)))
            for _ in range(3)]
    out += [tuple(draw(st.lists(st.fractions(-2, 2, max_denominator=10),
                                min_size=dim, max_size=dim))) for _ in range(3)]
    out += [tuple(draw(st.lists(st.integers(-2, 2), min_size=dim, max_size=dim)))
            for _ in range(3)]
    return out


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_contains_matches_integral_coords(data):
    lat = data.draw(_lattices())
    for v in _probe_vectors(data.draw, lat):
        assert lat.contains(v) == _contains_by_coords(lat, v), v


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_coords_match_the_row_space_reference(data):
    # rank below the ambient dimension, scaled Gram matrices, probes off the
    # span and denominators that the basis denominator does not divide
    import fraction_reference as ref
    lat = data.draw(_lattices())
    span = ref.RowSpace(lat.basis)
    for v in _probe_vectors(data.draw, lat):
        assert lat.coords(v) == span.coords(v), v


@settings(max_examples=20, deadline=None)
@given(st.data())
def test_contains_matches_integral_coords_on_a_leech_block(data):
    from e8voa.leech import build_leech, embed_sqrt2E8_cubed
    emb = embed_sqrt2E8_cubed(build_leech())
    k = data.draw(st.integers(0, 2))
    block = EvenLattice(emb.basis[8 * k: 8 * k + 8])  # rank 8 in 24 dimensions
    for v in _probe_vectors(data.draw, block):
        assert block.contains(v) == _contains_by_coords(block, v), v
    assert not block.contains(tuple(x / 2 for x in block.basis[0]))
    # an integral vector off the block's span
    assert not block.contains(tuple(int(j == 8 * ((k + 1) % 3)) for j in range(24)))


@settings(max_examples=120, deadline=None)
@given(_lattices())
def test_size_reduce_basis_matches_the_fraction_reference(lat):
    import fraction_reference as ref
    from e8voa.lattice import size_reduce_basis
    reduced = size_reduce_basis(lat)
    s = lat.gram[0][0] / sum(x * x for x in lat.basis[0])
    assert list(reduced.basis) == ref.size_reduce_basis_rows(lat.basis, s)
    assert reduced.gram == [[s * sum(x * y for x, y in zip(u, v)) for v in reduced.basis]
                            for u in reduced.basis]
    assert reduced.det_gram() == lat.det_gram()


def test_size_reduce_basis_keeps_an_explicit_gram():
    from e8voa.lattice import size_reduce_basis
    # the basis rows are orthonormal, but the form is [[4, 2], [2, 4]]: the
    # reduction and the result follow the Gram matrix, not the rows
    lat = from_gram([[4, 2], [2, 4]])
    reduced = size_reduce_basis(lat)
    assert reduced.det_gram() == lat.det_gram() == 12
    assert reduced.gram == [[4, 2], [2, 4]]
    lat = from_gram([[4, 6], [6, 13]])  # b_2 - 2 b_1 has norm 5
    reduced = size_reduce_basis(lat)
    assert reduced.det_gram() == lat.det_gram() == 16
    assert reduced.gram == [[4, -2], [-2, 5]]
    assert list(reduced.basis) == [(1, 0), (-2, 1)]


def test_size_reduce_basis_keeps_the_leech_basis():
    import fraction_reference as ref
    from e8voa.leech import build_leech
    ctx = build_leech()
    assert list(ctx.reduced.basis) == ref.size_reduce_basis_rows(ctx.lattice.basis, 1)
    assert ctx.reduced.gram == [[sum(x * y for x, y in zip(u, v)) for v in ctx.reduced.basis]
                                for u in ctx.reduced.basis]


@st.composite
def _symmetric_grams(draw):
    """Rational symmetric matrices up to 7x7: the Gram matrix of a random
    square basis (positive definite unless the basis is singular), or a
    random symmetric matrix (mostly indefinite)."""
    n = draw(st.integers(1, 7))
    entry = st.fractions(-3, 3, max_denominator=draw(st.sampled_from([1, 2, 3, 4, 6])))
    if draw(st.booleans()):
        basis = draw(st.lists(st.lists(entry, min_size=n, max_size=n),
                              min_size=n, max_size=n))
        return [[sum(x * y for x, y in zip(u, v)) for v in basis] for u in basis]
    upper = {(i, j): draw(entry) for i in range(n) for j in range(i, n)}
    return [[upper[min(i, j), max(i, j)] for j in range(n)] for i in range(n)]


@settings(max_examples=200, deadline=None)
@given(_symmetric_grams())
def test_integer_ldl_matches_the_fraction_reference(gram):
    import fraction_reference as ref
    try:
        want = ref.ldl(gram)
    except NotPositiveDefinite:
        with pytest.raises(NotPositiveDefinite):
            from_gram(gram).ldl()
        return
    assert from_gram(gram).ldl() == want


def test_integer_ldl_matches_the_fraction_reference_on_leech():
    import fraction_reference as ref
    from e8voa.leech import build_leech
    reduced = build_leech().reduced
    assert reduced.ldl() == ref.ldl(reduced.gram)
