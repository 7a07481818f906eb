import random
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import assert_only_failed
from e8voa.griess import (MODULE_EIGENVALUES, AlgebraContext, BadSpectrum, ContextMismatch,
                          DimensionMismatch, GriessElement, LeavesMinimalSpace, ModuleSpace,
                          ModuleVector, NotConformal, _dual_ints, _steps, apply_sigma,
                          apply_theta, build_hamming_family,
                          build_node_family, build_virasoro_family,
                          conformal_check, coset_U2_cached, e8_context,
                          e_f_coords, generated_closure_coords,
                          hamming_context, hamming_cosets_even, inner, module_act,
                          product,
                          sigma_phase, tau_from_matrix, tau_rows,
                          theta_split_tau_check)
from e8voa.cli import GRIESS_SUITE
from e8voa.lattice import coset_minimum
from e8voa.rootsys import extended_e8_node
from e8voa.scalars import Cyclotomic, as_rational

import fraction_reference as ref
from conftest import sqrt2_root_context
from test_properties import apply_weyl, random_theta_even


def tau_involution_module(ctx, e, space):
    return tau_from_matrix(space.act_matrix(e), MODULE_EIGENVALUES)


def e8ctx():
    return e8_context()


def e_hat():
    return build_node_family(0).e_hat


def test_omega_squares_to_twice_itself():
    ctx = e8ctx()
    om = ctx.omega()
    assert product(ctx, om, om) == om.scaled(2)
    assert inner(ctx, om, om) == 4


def test_omega_acts_as_two_on_weight_two():
    ctx = e8ctx()
    om = ctx.omega()
    for mono in (GriessElement(ctx, quad={(0, 0): 1}), GriessElement(ctx, deriv={3: 1}),
                 GriessElement(ctx, expo={ctx.norm4[17]: 1})):
        assert product(ctx, om, mono) == mono.scaled(2)


def test_e_hat_is_conformal_of_cc_half():
    ctx = e8ctx()
    assert as_rational(conformal_check(ctx, e_hat())) == F(1, 2)
    assert inner(ctx, e_hat(), e_hat()) == F(1, 4)


def test_conformal_check_rejects_non_conformal():
    ctx = e8ctx()
    with pytest.raises(NotConformal):
        conformal_check(ctx, ctx.omega().scaled(F(1, 3)))


def test_omega_tilde_central_charges():
    cases = {("A", 4): F(8, 7), ("D", 4): F(1), ("E", 7): F(7, 10)}
    for (letter, rank), want in cases.items():
        rs, ctx = sqrt2_root_context(letter, rank)
        fam = build_virasoro_family(ctx, rs.root_coords)
        assert as_rational(conformal_check(ctx, fam["omega_tilde"])) == want


def test_omega_tilde_e8_coincides_with_e_hat():
    ctx = e8ctx()
    fam = build_virasoro_family(ctx, ctx.norm4)
    assert fam["omega_tilde"] == e_hat()


def test_s_orthogonal_to_omega_tilde_every_type():
    for letter, rank in (("A", 3), ("D", 5), ("E", 6)):
        rs, ctx = sqrt2_root_context(letter, rank)
        fam = build_virasoro_family(ctx, rs.root_coords)
        assert product(ctx, fam["s"], fam["omega_tilde"]).is_zero()
        assert inner(ctx, fam["s"], fam["omega_tilde"]) == 0


def test_component_virasoro_sum_is_omega():
    fams = build_node_family(5)
    total = fams.ctx.zero()
    for s, w in zip(fams.s, fams.omega_tilde):
        total = total + s + w
    assert total == fams.ctx.omega()


def test_x_gamma_products():
    ham = build_hamming_family()
    ctx = ham.ctx
    words = [w for w in ham.code_words if 0 < sum(w) < 8]
    g1, g2 = words[0], words[1]
    target = tuple((a + b) % 2 for a, b in zip(g1, g2))
    if sum(target) in (4,):
        prod = product(ctx, ham.X[0][g1], ham.X[0][g2])
        assert prod == ham.X[0][target].scaled(4)


def test_x_gamma_inner_products():
    ham = build_hamming_family()
    ctx = ham.ctx
    zero = tuple([0] * 8)
    ones = tuple([1] * 8)
    for gamma in ham.code_words:
        want = 16 if (gamma != ones and gamma == gamma) else 0
        if gamma == ones:
            want = 0
        assert inner(ctx, ham.X[0][gamma], ham.X[0][gamma]) == want
    assert inner(ctx, ham.X[0][zero], ham.X[1][zero]) == -16
    for gamma in ham.code_words:
        if gamma != zero and gamma != ones:
            assert inner(ctx, ham.X[0][gamma], ham.X[1][gamma]) == 0


def test_x_ones_vanishes():
    ham = build_hamming_family()
    ones = tuple([1] * 8)
    assert ham.X[0][ones].is_zero()
    assert ham.X[1][ones].is_zero()


def test_hamming_trichotomy_reaches_only_the_zero_branch():
    # every even-coset delta has even weight, so no pair has odd overlap
    # parity and griess/hamming/inner-trichotomy only ever expects 0
    ham = build_hamming_family()
    reps = hamming_cosets_even()
    assert all(sum(d) % 2 == 0 for d in reps)
    keys = [(eps, d) for eps in (0, 1) for d in reps]
    vecs = {k: ham.e_hat(*k) for k in keys}
    within = across = 0
    for a, ka in enumerate(keys):
        for kb in keys[a + 1:]:
            assert inner(ham.ctx, vecs[ka], vecs[kb]) == 0, (ka, kb)
            within += ka[0] == kb[0]
            across += ka[0] != kb[0]
    assert (within, across) == (56, 64)


def test_e_hat_eps_delta_coset_equality():
    ham = build_hamming_family()
    delta = (1, 0, 0, 0, 0, 0, 1, 0)
    for gamma in ham.code_words[:4]:
        eta = tuple((d + g) % 2 for d, g in zip(delta, gamma))
        assert ham.e_hat(0, delta) == ham.e_hat(0, eta)
    other = (1, 0, 0, 0, 0, 0, 0, 0)
    in_coset = any(tuple((o + g) % 2 for o, g in zip(other, gamma)) == delta
                   for gamma in ham.code_words)
    if not in_coset:
        assert ham.e_hat(0, delta) != ham.e_hat(0, other)


def test_frames_sum_to_omega():
    ham = build_hamming_family()
    omega = ham.ctx.omega()
    for frame in (ham.standard_frame(), ham.hamming_frame()):
        total = ham.ctx.zero()
        for v in frame:
            total = total + v
        assert total == omega


def test_node_family_identities():
    fams = build_node_family(5)
    ctx = fams.ctx
    for s in fams.s:
        assert product(ctx, s, fams.e_hat).is_zero()
        for j, xj in fams.X.items():
            assert product(ctx, s, xj).is_zero()


def test_f_hat_equals_e_hat_for_node_zero():
    fams = build_node_family(0)
    assert fams.f_hat == fams.e_hat


def test_sigma_scales_coset_sums():
    fams = build_node_family(2)
    ctx = fams.ctx
    z = Cyclotomic.zeta(3)
    for j, xj in fams.X.items():
        assert fams.sigma(xj) == xj.scaled(z ** j)


def test_theta_sigma_theta_is_sigma_inverse():
    fams = build_node_family(4)
    ctx = fams.ctx
    el = fams.e_hat + fams.X[1].scaled(F(1, 7))
    lhs = apply_theta(fams.sigma(apply_theta(el)))
    rhs = fams.sigma(el, power=-1)
    assert lhs == rhs


def test_weyl_reflections_fix_e_hat():
    fams = build_node_family(0)
    ctx = fams.ctx
    e = fams.e_hat
    for k in range(8):
        root_key = tuple(int(t == k) for t in range(8))
        assert apply_weyl(ctx, root_key, e) == e


def test_weyl_preserves_product_and_form():
    ctx = e8ctx()
    root_key = tuple(int(t == 2) for t in range(8))
    u = ctx.omega()
    v = e_hat()
    pu = apply_weyl(ctx, root_key, u)
    pv = apply_weyl(ctx, root_key, v)
    assert apply_weyl(ctx, root_key, product(ctx, u, v)) == product(ctx, pu, pv)
    assert inner(ctx, pu, pv) == inner(ctx, u, v)


def test_context_mismatch_detected():
    _, ctx_a = sqrt2_root_context("A", 1)
    _, ctx_b = sqrt2_root_context("A", 2)
    el_a = ctx_a.omega()
    el_b = ctx_b.omega()
    with pytest.raises(ContextMismatch):
        product(ctx_a, el_a, el_b)


def test_scalars_must_be_exact():
    # Fraction(x) would take both: 0.1 as an inexact value with denominator 2^55
    ctx = sqrt2_root_context("A", 2)[1]
    for bad in (0.1, "1/3"):
        with pytest.raises(TypeError, match="not a rational scalar"):
            GriessElement(ctx, quad={(0, 0): bad})
        with pytest.raises(TypeError, match="not a rational scalar"):
            ctx.omega().scaled(bad)


def test_adding_or_subtracting_a_non_element_raises_type_error():
    # both operators return NotImplemented for an operand that is not an
    # element, so Python raises TypeError rather than failing inside the fold
    from e8voa.griess import e8_context
    omega = e8_context().omega()
    for bad in (1, F(1, 2), None):
        with pytest.raises(TypeError, match="unsupported operand"):
            omega + bad
        with pytest.raises(TypeError, match="unsupported operand"):
            omega - bad
    assert (omega - omega).is_zero()


def test_non_integral_exponential_key_is_rejected():
    # (-3/2, -3/2) would truncate to the norm-4 key (-1, -1) of sqrt2 A2
    rs, ctx = sqrt2_root_context("A", 2)
    assert ("e", (-1, -1)) in ctx.index
    GriessElement(ctx, expo={(-1, -1): 1})
    with pytest.raises(ValueError, match="integral"):
        GriessElement(ctx, expo={(F(-3, 2), F(-3, 2)): 1})
    keys = list(rs.root_coords)
    assert keys[0] == (-1, -1)
    keys[0] = (F(-3, 2), F(-3, 2))
    with pytest.raises(ValueError, match="integral"):
        build_virasoro_family(ctx, keys)


def test_tau_theta_split():
    ctx = e8ctx()
    blocks = theta_split_tau_check(ctx, e_hat())
    assert blocks == {"even": 156, "odd": 128}


def test_seventeen_sixteenths_eigenvector_exists():
    # a depth-one vector over a weight-1 state: e-hat acts by 17/16 on it,
    # so the weight-2 spectrum is strictly larger than {2, 0, 1/2, 1/16}
    ctx = e8ctx()
    e = e_hat()
    gamma = tuple(int(t == 0) for t in range(8))
    w = GriessElement(ctx, deriv={a: F(1, 16) * x for a, x in enumerate(gamma) if x},
                      expo={key: -F(1, 32) * ctx.pairing(key, gamma)
                            for key in ctx.norm4})
    assert not w.is_zero()
    assert product(ctx, e, w) == w.scaled(F(17, 16))


def test_module_action_norm_one_dual_coset():
    ctx = e8ctx()
    sp = ModuleSpace(ctx, ctx.gram_inv[0])
    assert sp.min_norm == 1 and len(sp) == 2
    x = sp.keys[0]
    xneg = tuple(-a for a in x)
    e = e_hat()
    img = module_act(ctx, e, ModuleVector(sp, {x: F(1)}))
    assert img == ModuleVector(sp, {x: F(1, 32), xneg: F(1, 32)})
    plus = ModuleVector(sp, {x: F(1), xneg: F(1)})
    minus = ModuleVector(sp, {x: F(1), xneg: F(-1)})
    assert module_act(ctx, e, plus) == plus.scaled(F(1, 16))
    assert module_act(ctx, e, minus).is_zero()


def test_module_omega_acts_by_minimal_weight():
    rs, ctx = sqrt2_root_context("A", 3)
    dual = rs.lattice.dual_basis_rows()
    shift = rs.lattice.coords(dual[0])
    sp = ModuleSpace(ctx, shift)
    om = ctx.omega()
    v = ModuleVector(sp, {k: F(1) for k in sp.keys})
    assert module_act(ctx, om, v) == v.scaled(sp.weight)


def test_highest_weight_vector_killed_by_s():
    rs, ctx = sqrt2_root_context("D", 4)
    fam = build_virasoro_family(ctx, rs.root_coords)
    dual = rs.lattice.dual_basis_rows()
    shift = rs.lattice.coords(dual[-1])
    sp = ModuleSpace(ctx, shift)
    v = ModuleVector(sp, {k: F(1) for k in sp.keys})
    assert module_act(ctx, fam["s"], v).is_zero()
    k = sp.min_norm / 2
    assert module_act(ctx, fam["omega_tilde"], v) == v.scaled(k)


def brute_force_act_matrix(ctx, u, sp):
    """The action on a minimal-weight space, summed over every norm-4 vector."""
    unit = [tuple(int(i == j) for j in range(ctx.rank)) for i in range(ctx.rank)]
    cols = []
    quad, deriv, expo = u.parts()
    for key in sp.keys:
        col = [F(0)] * len(sp)
        gx = [ctx.pairing(key, e) for e in unit]
        col[sp.index[key]] += sum(v * gx[a] * gx[b] for (a, b), v in quad.items())
        col[sp.index[key]] -= sum(v * gx[a] for a, v in deriv.items())
        for y in ctx.norm4:
            if y in expo and ctx.pairing(key, y) == -2:
                col[sp.index[tuple(p + q for p, q in zip(key, y))]] += expo[y]
        cols.append(col)
    return [list(row) for row in zip(*cols)]


def assert_action_matches_brute_force(ctx, u, sp):
    """act_matrix, and act_rows over its denominator for a rational u, both
    equal the sum over every norm-4 vector."""
    want = brute_force_act_matrix(ctx, u, sp)
    assert sp.act_matrix(u) == want
    if u.m == 1:
        rows, den = sp.act_rows(u)
        assert [[F(x, den) for x in row] for row in rows] == want


@pytest.mark.parametrize("letter, rank", [("A", 2), ("A", 3), ("D", 4)])
def test_act_matrix_matches_a_sum_over_all_norm4_vectors(letter, rank):
    rs, ctx = sqrt2_root_context(letter, rank)
    fam = build_virasoro_family(ctx, rs.root_coords)
    rng = random.Random(rank)
    elements = [fam["s"], fam["omega_tilde"], random_theta_even(ctx, rng)]
    assert all(u.m == 1 for u in elements)
    for shift in rs.lattice.dual_coset_shifts():
        sp = ModuleSpace(ctx, shift)
        for u in elements:
            assert_action_matches_brute_force(ctx, u, sp)


def _e8_dual_shift(mask):
    """The sum of the dual basis rows picked by the bits of mask."""
    rows = e8ctx().gram_inv
    return [sum((rows[b][t] for b in range(8) if mask >> b & 1), F(0))
            for t in range(8)]


@pytest.mark.parametrize("mask", [1, 16, 129])
def test_act_matrix_matches_a_sum_over_all_norm4_vectors_on_e8(mask):
    # e-hat is rational, so act_rows is checked too; node 5's f-hat lives
    # over Q(zeta_6)
    ctx = e8ctx()
    sp = ModuleSpace(ctx, _e8_dual_shift(mask))
    assert e_hat().m == 1 and build_node_family(5).f_hat.m == 6
    for u in (e_hat(), build_node_family(5).f_hat):
        assert_action_matches_brute_force(ctx, u, sp)


def _lowering_spaces():
    """(ctx, shift, space) over all 255 E8 dual cosets and every dual coset
    of A1-A4 and D3-D5."""
    ctx = e8ctx()
    for shift in list(ctx.lattice.dual_coset_shifts())[1:]:
        yield ctx, shift, ModuleSpace(ctx, shift)
    for letter, rank in [("A", 1), ("A", 2), ("A", 3), ("A", 4),
                         ("D", 3), ("D", 4), ("D", 5)]:
        rs, ctx = sqrt2_root_context(letter, rank)
        for shift in rs.lattice.dual_coset_shifts():
            yield ctx, shift, ModuleSpace(ctx, shift)


def test_module_space_lowering_pairs_match_the_norm4_scan():
    n_spaces = 0
    for ctx, shift, sp in _lowering_spaces():
        n_spaces += 1
        k, den, xs = coset_minimum(ctx.lattice, shift)
        assert (sp.min_norm, sp.den, sp.scaled_keys) == (k, den, sorted(xs))
        assert sp.keys == sorted(tuple(F(x, den) for x in key) for key in xs)
        for col, key in enumerate(sp.keys):
            own = sorted((y, sp.keys[row]) for y, row in sp.lowering[col])
            lowering = ref.lowering_scan(ctx, key)
            scan = sorted((y, t) for y, b, t in lowering if b == -2 and t in sp.index)
            assert own == scan
            assert len(own) == len(lowering)
            assert sp.gvecs[col] == _dual_ints(ctx, key)
            assert sp.scaled_keys[col] == tuple(sp.den * x for x in key)
    assert n_spaces == 255 + 2 + 3 + 4 + 5 + 4 + 4 + 4


def large_coordinate_context():
    """sqrt2E8 in the unimodular basis U^T G U, U = (1 + shift)^2, which is
    far from reduced: its norm-4 coordinates reach 20 and its minimal coset
    keys 31/2, so the key codes need a large base."""
    g = e8ctx().gram
    u = [[(1, 2, 1)[j - i] if 0 <= j - i <= 2 else 0 for j in range(8)] for i in range(8)]
    gram = [[sum(u[k][i] * g[k][m] * u[m][j] for k in range(8) for m in range(8))
             for j in range(8)] for i in range(8)]
    return AlgebraContext(gram, label="sqrt2E8, non-reduced basis")


def test_tables_match_the_dot_product_reference():
    big = large_coordinate_context()
    assert max(abs(c) for x in big.norm4 for c in x) == 20
    contexts = [e8ctx(), hamming_context(), big]
    for letter, rank in [("A", 1), ("A", 2), ("A", 3), ("A", 4),
                         ("D", 3), ("D", 4), ("D", 5)]:
        contexts.append(sqrt2_root_context(letter, rank)[1])
    for ctx in contexts:
        tables, start = ctx.tables, ctx.expo_start
        gxs = [_dual_ints(ctx, x) for x in ctx.norm4]
        assert tables.nbr[start:] == ref.steps(ctx, ctx.norm4, gxs, 1, start), ctx.label
        assert tables.opp[start:] == [ctx.index["e", tuple(-c for c in x)]
                                      for x in ctx.norm4], ctx.label
        assert tables.opp_terms[start:] == [ref.opp_terms(ctx, x) for x in ctx.norm4]


@pytest.mark.parametrize("make, stride, n_keys", [(e8ctx, 1, 2400),
                                                   (large_coordinate_context, 8, None)],
                         ids=["sqrt2E8", "non-reduced"])
def test_module_space_lowering_matches_the_dot_product_reference(make, stride, n_keys):
    # every E8 dual coset; every eighth one in the non-reduced basis, where
    # the minimal-vector search is slow
    ctx = make()
    keys = 0
    for shift in list(ctx.lattice.dual_coset_shifts())[1::stride]:
        sp = ModuleSpace(ctx, shift)
        assert sp.lowering == ref.steps(ctx, sp.scaled_keys, sp.gvecs, sp.den)
        keys += len(sp)
    if n_keys is not None:
        assert keys == n_keys


@pytest.mark.parametrize("den", [1, 2])
def test_steps_match_a_scan_over_every_ordered_pair(den):
    # small vectors of unequal norms against norm-4 vectors with
    # coordinates up to 20: the base must outgrow den * 20, not just
    # twice the small coordinates
    ctx = large_coordinate_context()
    xs = sorted({tuple(s if k in (a, b) else 0 for k in range(8))
                 for a in range(8) for b in range(8) for s in (-1, 1)} | {(0,) * 8})
    want = [[] for _ in xs]
    for i, x in enumerate(xs):
        for j, t in enumerate(xs):
            d = [p - q for p, q in zip(t, x)]
            if i != j and not any(c % den for c in d):
                e = ctx.index.get(("e", tuple(c // den for c in d)))
                if e is not None:
                    want[i].append((e, j))
    assert _steps(ctx, xs, den) == want
    assert sum(map(len, want)) > 0


def test_module_act_rejects_foreign_keys_and_contexts():
    rs, ctx = sqrt2_root_context("A", 2)
    sp = ModuleSpace(ctx, next(rs.lattice.dual_coset_shifts()))
    s = build_virasoro_family(ctx, rs.root_coords)["s"]
    with pytest.raises(LeavesMinimalSpace, match="not in the minimal-weight space"):
        module_act(ctx, s, ModuleVector(sp, {ctx.norm4[0]: F(1)}))
    with pytest.raises(ContextMismatch):
        module_act(ctx, e_hat(), ModuleVector(sp, {sp.keys[0]: F(1)}))


@pytest.mark.parametrize("letter, rank", GRIESS_SUITE, ids=["%s%d" % t for t in GRIESS_SUITE])
def test_lowering_degree_is_x_eta_on_every_suite_coset(letter, rank):
    # the context keeps R's coefficient basis and doubles its Gram matrix, so
    # its norm-4 vectors are R's roots, and the lowering pairs at a minimal
    # key are the roots y with eta + y minimal: |X_eta| of them
    from e8voa.lattice import Coset, coset_min_norm
    rs, ctx = sqrt2_root_context(letter, rank)
    assert set(ctx.norm4) == set(rs.root_coords)
    for shift in rs.lattice.dual_coset_shifts():
        sp = ModuleSpace(ctx, shift)
        assert sp.weight == ref.coset_minimum(rs.lattice, shift)[0]
        c = Coset(rs.lattice, rs.lattice.ambient(shift))
        etas = [rs.lattice.ambient(key) for key in sp.keys]
        assert sorted(etas) == coset_min_norm(c)["reps"]
        for pairs, eta in zip(sp.lowering, etas):
            assert len(pairs) == ref.count_X_eta(rs, c, eta)


def test_act_matrix_rejects_an_element_of_another_context():
    rs, ctx = sqrt2_root_context("A", 2)
    sp = ModuleSpace(ctx, list(rs.lattice.dual_coset_shifts())[1])
    with pytest.raises(ContextMismatch):
        sp.act_matrix(e_hat())
    with pytest.raises(ContextMismatch):
        sp.act_rows(e_hat())
    # int rows over one denominator exist only for a rational element
    sp8 = ModuleSpace(e8ctx(), _e8_dual_shift(1))
    with pytest.raises(ValueError, match="needs a rational element"):
        sp8.act_rows(build_node_family(5).f_hat)


def test_act_rows_accepts_a_sigma_power_with_rational_coefficients():
    # the phases of sigma^2 at node 3 are powers of zeta_4^2 = -1
    fams = build_node_family(3)
    el = fams.sigma(fams.e_hat, power=2)
    assert el.m == 1
    assert_action_matches_brute_force(fams.ctx, el, ModuleSpace(fams.ctx, _e8_dual_shift(1)))


def test_tau_module_spectrum_and_involution():
    import fraction_reference as ref
    ctx = e8ctx()
    e = e_hat()
    sp = ModuleSpace(ctx, ctx.gram_inv[3])
    tau = tau_involution_module(ctx, e, sp)
    m = tau.matrix()
    assert m == ref.tau_matrix(sp.act_matrix(e), MODULE_EIGENVALUES)
    rows, q = tau_rows(*sp.act_rows(e), MODULE_EIGENVALUES)
    assert [[F(x, q) for x in row] for row in rows] == m
    sq = [[sum(m[i][k] * m[k][j] for k in range(len(sp)))
           for j in range(len(sp))] for i in range(len(sp))]
    assert sq == [[F(int(i == j)) for j in range(len(sp))]
                  for i in range(len(sp))]


def test_tau_bad_spectrum_detected():
    ctx = e8ctx()
    sp = ModuleSpace(ctx, ctx.gram_inv[0])
    with pytest.raises(BadSpectrum):
        tau_involution_module(ctx, e_hat().scaled(2), sp)


@st.composite
def _diagonalizable(draw):
    """C D C^-1 for an invertible rational C and D diagonal over MODULE_EIGENVALUES."""
    import fraction_reference as ref
    n = draw(st.integers(1, 5))
    entry = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    c = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))
    assume(ref.det(c) != 0)
    d = draw(st.lists(st.sampled_from(MODULE_EIGENVALUES), min_size=n, max_size=n))
    c_inv = ref.invert(c)
    return [[sum(c[i][k] * d[k] * c_inv[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)]


@settings(max_examples=60, deadline=None)
@given(_diagonalizable())
def test_tau_matches_the_eigenvector_reference(mat):
    import fraction_reference as ref
    tau = tau_from_matrix(mat, MODULE_EIGENVALUES).matrix()
    assert tau == ref.tau_matrix(mat, MODULE_EIGENVALUES)
    n = len(mat)
    assert [[sum(tau[i][k] * tau[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)] == [[int(i == j) for j in range(n)] for i in range(n)]


def test_tau_jordan_block_at_one_half_is_bad_spectrum():
    import fraction_reference as ref
    # every eigenvalue is allowed, but the block at 1/2 is not diagonalizable
    jordan = [[F(1, 2), F(1), F(0)], [F(0), F(1, 2), F(0)], [F(0), F(0), F(1, 16)]]
    c = [[F(1), F(2), F(0)], [F(1), F(3), F(-1)], [F(0), F(1), F(1, 2)]]
    c_inv = ref.invert(c)
    conjugated = [[sum(c[i][k] * jordan[k][m] * c_inv[m][j]
                       for k in range(3) for m in range(3)) for j in range(3)]
                  for i in range(3)]
    for mat in (jordan, conjugated):
        with pytest.raises(BadSpectrum):
            tau_from_matrix(mat, MODULE_EIGENVALUES)
        with pytest.raises(ValueError, match="2 of 3"):
            ref.tau_matrix(mat, MODULE_EIGENVALUES)


def test_u2_dimensions_and_basis():
    for i in (0, 5, 7):
        node = extended_e8_node(i)
        u2 = coset_U2_cached(i)
        assert u2.dim == len(node.components) + node.n - 1


def _dense(rows, ncols):
    return [[row.get(c, 0) for c in range(ncols)] for row in rows]


def test_u2_block_dims_match_the_rational_kernels():
    # the certified upper bounds equal the kernel dimensions over Q
    from e8voa.griess import _stacked_rows, _u2_blocks
    from e8voa.linalg import kernel_basis_int
    for i in range(9):
        fams = build_node_family(i)
        want = {j: sum(len(kernel_basis_int(_dense(_stacked_rows(fams.ctx, fams.s, b), len(b)),
                                            len(b)))
                       for b in bs)
                for j, bs in _u2_blocks(fams).items()}
        assert coset_U2_cached(i).block_dims == want


def test_block_matrix_guards_the_direct_sum():
    # coset_U2's kernel is the direct sum of its block kernels only because
    # every image stays in its block, theta-symmetric, over Q
    from e8voa.griess import _block_matrix, _stacked_rows, _u2_blocks
    fams = build_node_family(5)
    grade1 = _u2_blocks(fams)[1][0]
    with pytest.raises(ArithmeticError, match="leaves the block"):
        _stacked_rows(fams.ctx, fams.s, grade1[1:])
    ctx = e8ctx()
    even = _u2_blocks(build_node_family(0))[0][0]
    with pytest.raises(ArithmeticError, match="not theta-symmetric"):
        _block_matrix(ctx, GriessElement(ctx, expo={ctx.norm4[0]: 1}), even)
    with pytest.raises(ArithmeticError, match="not rational"):
        _block_matrix(ctx, fams.f_hat, grade1)


def test_u2_rank_lost_mod_a_small_prime_is_a_dimension_mismatch(monkeypatch,
                                                                fresh_caches):
    # mod 7 a grade-0 block of node 5 loses rank, so its upper bound
    # exceeds the lower bound and the certificate fails
    from e8voa import linalg
    monkeypatch.setattr(linalg, "RANK_PRIME", 7)
    with pytest.raises(DimensionMismatch,
                       match=r"node 5: U2 kernel upper bounds \{0: 18, 1: 1.*\} "
                             r"per grade, against lower bounds \{0: 3, 1: 1"):
        coset_U2_cached(5)
    # the failure is stored like a value: a second call raises it again
    # without building U2 again
    with pytest.raises(DimensionMismatch, match="node 5: U2 kernel upper bounds"):
        coset_U2_cached(5)
    info = coset_U2_cached.cache_info()
    assert (info.hits, info.misses) == (1, 1)


def test_u2_inner_recovers_table():
    u2 = coset_U2_cached(5)
    e, f = e_f_coords(u2)
    assert as_rational(u2.inner_coords(e, f)) == F(5, 1024)


def test_closure_of_e_alone_is_one_dimensional():
    u2 = coset_U2_cached(4)
    e, _ = e_f_coords(u2)
    dim, _ = generated_closure_coords(u2, [e])
    assert dim == 1


def test_closure_node7_two_dimensional_with_zero_product():
    u2 = coset_U2_cached(7)
    e, f = e_f_coords(u2)
    prod = u2.multiply_coords(e, f)
    assert all(x == 0 for x in prod)
    dim, _ = generated_closure_coords(u2, [e, f])
    assert dim == 2 == u2.dim


def test_closure_generates_u2_for_selected_nodes():
    for i in (2, 4, 6):
        u2 = coset_U2_cached(i)
        e, f = e_f_coords(u2)
        dim, _ = generated_closure_coords(u2, [e, f])
        assert dim == u2.dim


def test_u2_gram_block_structure():
    u2 = coset_U2_cached(5)
    node = u2.node
    l = len(node.components)
    for a in range(l):
        for b in range(l):
            if a != b:
                assert u2.gram[a][b] == 0
    hs = node.h_counts()
    for j in range(1, node.n):
        for k in range(1, node.n):
            want = hs[j - 1] if j + k == node.n else 0
            assert u2.gram[l + j - 1][l + k - 1] == want


def test_u2_coords_reject_an_element_outside_u2():
    u2 = coset_U2_cached(5)
    assert u2.coords(e8ctx().omega()) is None
    assert u2.coords(u2.basis[0]) == [1] + [0] * (u2.dim - 1)


def test_a_u2_basis_without_pivot_keys_is_a_dimension_mismatch(monkeypatch):
    # X_2 replaced by X_1: both still lie in the kernel, but neither is
    # alone nonzero on any key, so independence is not certified
    import copy
    from e8voa import griess
    fams = copy.copy(build_node_family(5))
    fams.X = {**fams.X, 2: fams.X[1]}
    monkeypatch.setattr(griess, "build_node_family", lambda i: fams)
    with pytest.raises(DimensionMismatch, match="node 5: U2 basis vector 3 has no pivot key"):
        griess.coset_U2(5)


def test_e_f_coords_match_the_closed_forms():
    # e-hat = sum (h_k + 2)/32 omega_tilde_k + sum X_j / 32 and f-hat the
    # same with X_j twisted by zeta_n^j
    for i in range(9):
        node = extended_e8_node(i)
        omegas = [F(c.h + 2, 32) for c in node.components]
        e, f = e_f_coords(coset_U2_cached(i))
        assert e == omegas + [F(1, 32)] * (node.n - 1)
        assert f == omegas + [Cyclotomic.zeta(node.n, j) * F(1, 32)
                              for j in range(1, node.n)]


def test_a_product_off_u2_fails_exactly_the_u2_claim(monkeypatch, clean_verify_all,
                                                     fresh_caches):
    # omega added to the product of one ordered basis pair takes it out of
    # U2, so coset_U2 raises and only mckay/u2/i=5 fails
    from e8voa import cli, griess
    config = cli.RunConfig(command="verify-mckay", node_filter=[5])
    # fetched after the reset: the family that the U2 build reads
    fams = build_node_family(5)
    a, b = fams.omega_tilde[0], fams.X[1]
    honest = griess.product

    def mutated(ctx, u, v):
        out = honest(ctx, u, v)
        return out + ctx.omega() if u is a and v is b else out

    monkeypatch.setattr(griess, "product", mutated)
    records = cli.run_claims(cli.registry(config))
    clean = [r for r in clean_verify_all[1]["results"]
             if r["claim"] in {s["claim"] for s in records}]
    assert len(clean) == len(records)
    bad = "DimensionMismatch: node 5: U2 is not closed under products"
    assert_only_failed(clean, records, ["mckay/u2/i=5"], bad)
    assert next(r for r in records if not r["pass"])["actual"] == bad


# ---------------------------------------------------------------------------
# the kernel against a reference: the sector rules with one Fraction or
# Cyclotomic value per term, on the coefficients read back from the elements


def _pair_b(ctx, x, y):
    return sum(a * b for a, b in zip(_dual_ints(ctx, x), y))


def reference_product(ctx, u, v):
    (uq, ud, ue), (vq, vd, ve) = u.parts(), v.parts()
    quad, deriv, expo = {}, {}, {}
    g = ctx.gram

    def add(d, k, c):
        d[k] = d.get(k, 0) + c

    for (a, b), x in uq.items():
        for (c, d), y in vq.items():
            for p, q, w in ((b, d, g[a][c]), (b, c, g[a][d]),
                            (a, d, g[b][c]), (a, c, g[b][d])):
                if w:
                    add(quad, (p, q) if p <= q else (q, p), x * y * w)
        for c, y in vd.items():
            if g[a][c]:
                add(deriv, b, 2 * g[a][c] * x * y)
            if g[b][c]:
                add(deriv, a, 2 * g[b][c] * x * y)
    for side_quad, side_deriv, other in ((uq, ud, ve), (vq, vd, ue)):
        for key, y in other.items():
            gx = _dual_ints(ctx, key)
            for (a, b), x in side_quad.items():
                add(expo, key, x * y * gx[a] * gx[b])
            for a, x in side_deriv.items():
                add(expo, key, -gx[a] * x * y)
    for xkey, x in ue.items():
        y = ve.get(tuple(-c for c in xkey))
        if y is not None:
            half = x * y * F(1, 2)
            for a in range(ctx.rank):
                for b in range(a, ctx.rank):
                    if xkey[a] and xkey[b]:
                        add(quad, (a, b), half * (1 if a == b else 2) * xkey[a] * xkey[b])
                if xkey[a]:
                    add(deriv, a, half * xkey[a])
        for ykey, y in ve.items():
            if _pair_b(ctx, xkey, ykey) == -2:
                add(expo, tuple(p + q for p, q in zip(xkey, ykey)), x * y)
    return GriessElement(ctx, quad=quad, deriv=deriv, expo=expo)


def reference_inner(ctx, u, v):
    (uq, ud, ue), (vq, vd, ve) = u.parts(), v.parts()
    g = ctx.gram
    total = F(0)
    for (a, b), x in uq.items():
        for (c, d), y in vq.items():
            total = total + x * y * (g[a][c] * g[b][d] + g[a][d] * g[b][c])
    for a, x in ud.items():
        for b, y in vd.items():
            total = total - 6 * g[a][b] * x * y
    for key, x in ue.items():
        total = total + x * ve.get(tuple(-c for c in key), 0)
    return total


def random_element(ctx, rng, scalar, density):
    """Random element of the full weight-2 space with the given coefficient maker."""
    r = ctx.rank

    def pick(keys):
        return {k: scalar() for k in keys if rng.random() < density}

    return GriessElement(ctx, quad=pick([(a, b) for a in range(r) for b in range(a, r)]),
                         deriv=pick(range(r)), expo=pick(ctx.norm4))


def _assert_matches_reference(ctx, pairs):
    for u, v in pairs:
        assert product(ctx, u, v) == reference_product(ctx, u, v)
        assert inner(ctx, u, v) == reference_inner(ctx, u, v)


@pytest.mark.parametrize("letter, rank, density", [("A", 2, 0.6), ("A", 3, 0.5),
                                                   ("E", 8, 0.15)])
def test_kernel_matches_reference_on_rational_elements(letter, rank, density):
    if letter == "E":
        ctx = e8ctx()
    else:
        ctx = sqrt2_root_context(letter, rank)[1]
    rng = random.Random(600 + rank)

    def rational():
        return F(rng.randint(-5, 5), rng.randint(1, 4))

    count = 4 if letter == "E" else 30
    elements = [random_element(ctx, rng, rational, density) for _ in range(2 * count)]
    _assert_matches_reference(ctx, zip(elements[::2], elements[1::2]))


def test_kernel_matches_reference_over_cyclotomic_fields():
    _, ctx = sqrt2_root_context("A", 3)
    rng = random.Random(605)

    def over(n):
        return lambda: sum((Cyclotomic.zeta(n, j) * F(rng.randint(-3, 3), rng.randint(1, 3))
                            for j in range(n)), F(rng.randint(-2, 2)))

    z5 = [random_element(ctx, rng, over(5), 0.5) for _ in range(6)]
    z6 = [random_element(ctx, rng, over(6), 0.5) for _ in range(6)]
    assert {u.m for u in z5} == {5} and {u.m for u in z6} == {6}
    _assert_matches_reference(ctx, list(zip(z5[:3], z5[3:])) + list(zip(z6[:3], z6[3:]))
                              + list(zip(z5, z6)))


def test_sums_and_scalings_over_mixed_fields_fold_once():
    _, ctx = sqrt2_root_context("A", 3)
    rng = random.Random(607)

    def over(n):
        return sum((Cyclotomic.zeta(n, j) * F(rng.randint(-3, 3), rng.randint(1, 3))
                    for j in range(n)), F(rng.randint(-2, 2)))

    u = random_element(ctx, rng, lambda: over(5), 0.5)
    v = random_element(ctx, rng, lambda: over(6), 0.5)
    a, b = over(3), over(4)
    assert (u.m, v.m, a.order, b.order) == (5, 6, 3, 4)
    w = u.scaled(a) + v.scaled(b) - u
    for i in range(len(ctx.keys)):
        ui, vi = u.coefficient(i), v.coefficient(i)
        assert w.coefficient(i) == a * ui + b * vi - ui
    zero = u - u
    assert (zero.m, zero.den, zero.comps) == (1, 1, ({},))


def test_sigma_powers_compose_at_node_5():
    fams = build_node_family(5)
    e = fams.e_hat
    assert fams.sigma(e, power=6) == e
    for p in range(1, 6):
        for q in range(1, 6):
            assert fams.sigma(fams.sigma(e, power=q), power=p) == fams.sigma(e, power=p + q)


def test_kernel_matches_reference_on_node_vectors():
    fams5 = build_node_family(5)
    ctx = fams5.ctx
    fams3 = build_node_family(3)
    s2e = fams3.sigma(fams3.e_hat, power=2)
    _assert_matches_reference(ctx, [(fams5.e_hat, fams5.e_hat), (fams5.f_hat, fams5.e_hat),
                                    (s2e, s2e)])
