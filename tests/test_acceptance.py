"""Acceptance gate: every headline claim checked at exact equality.

Each criterion prints a single pass line; run with `pytest -s` to see
them.  All arithmetic is exact, so the tolerance everywhere is equality.
"""

import random
from fractions import Fraction as F

from e8voa.cli import RunConfig, verify_codes, verify_griess, verify_leech
from e8voa.griess import (GriessElement, ModuleSpace,
                          ModuleVector, apply_sigma, apply_theta,
                          build_hamming_family, build_node_family,
                          build_virasoro_family, conformal_check,
                          coset_U2_cached, e8_context, e_f_coords,
                          generated_closure_coords, hamming_cosets_even,
                          inner, module_act, product)
from e8voa.lattice import Coset, coset_min_norm, count_X_eta
from e8voa.mckay import (MCKAY_TABLE, ROOT_COUNT_TABLE,
                         counting_formula_inner, dihedral_check,
                         direct_inner, dual_tau_data, node_report,
                         tau_e_negates_dual_exponentials, tau_product_orders,
                         weight2_tau_theta_verified)
from e8voa.rootsys import extended_e8_node
from e8voa.scalars import as_rational

from conftest import sqrt2_root_context


def _ok(name, condition):
    print(f"{name}: {'PASS' if condition else 'FAIL'}")
    assert condition, name


def test_criterion_1_mckay_table():
    expected = (F(1, 4), F(1, 32), F(13, 2 ** 10), F(1, 2 ** 7), F(3, 2 ** 9),
                F(5, 2 ** 10), F(1, 2 ** 8), F(0), F(1, 2 ** 8))
    assert MCKAY_TABLE == expected
    ok = all(direct_inner(i) == expected[i]
             and counting_formula_inner(i) == expected[i] for i in range(9))
    _ok("criterion 1 (inner-product table, both routes)", ok)


def test_criterion_2_root_count_ledger():
    ok = True
    for i in range(9):
        node = extended_e8_node(i)
        ok = ok and (node.phi_count(), tuple(node.h_counts())) == ROOT_COUNT_TABLE[i]
    ok = ok and ROOT_COUNT_TABLE[3] == (52, (64, 60, 64))
    ok = ok and ROOT_COUNT_TABLE[6] == (58, (56, 70, 56))
    ok = ok and ROOT_COUNT_TABLE[8] == (72, (84, 84))
    _ok("criterion 2 (root-count ledger)", ok)


def _suite_types():
    return ([("A", n) for n in range(1, 9)]
            + [("D", n) for n in range(3, 9)]
            + [("E", 6), ("E", 7), ("E", 8)])


def test_criterion_3_conformal_vectors():
    cc = {"A": lambda n: F(2 * n, n + 3), "D": lambda n: F(1),
          "E": {6: F(6, 7), 7: F(7, 10), 8: F(1, 2)}.get}
    ok = True
    for letter, rank in _suite_types():
        rs, ctx = sqrt2_root_context(letter, rank)
        fam = build_virasoro_family(ctx, rs.root_coords)
        ok = ok and as_rational(conformal_check(ctx, fam["omega_tilde"])) == cc[letter](rank)
        conformal_check(ctx, fam["s"])
        ok = ok and product(ctx, fam["s"], fam["omega_tilde"]).is_zero()
        ok = ok and inner(ctx, fam["s"], fam["omega_tilde"]) == 0
    ham = build_hamming_family()
    hctx = ham.ctx
    reps = hamming_cosets_even()
    vecs = {(eps, d): ham.e_hat(eps, d) for eps in (0, 1) for d in reps}
    for v in vecs.values():
        ok = ok and as_rational(conformal_check(hctx, v)) == F(1, 2)
    items = sorted(vecs.items())
    for ka, va in items:
        for kb, vb in items:
            if ka >= kb:
                continue
            val = as_rational(inner(hctx, va, vb))
            if ka[0] != kb[0]:
                want = F(0)
            else:
                parity = sum((a + b) % 2 for a, b in zip(ka[1], kb[1])) % 2
                want = F(1, 32) if parity else F(0)
            ok = ok and val == want
    _ok("criterion 3 (conformal vectors and trichotomy)", ok)


def test_criterion_4_virasoro_frames():
    ham = build_hamming_family()
    ctx = ham.ctx
    omega = ctx.omega()
    ok = True
    for frame in (ham.standard_frame(), ham.hamming_frame()):
        ok = ok and len(frame) == 16
        total = ctx.zero()
        for v in frame:
            ok = ok and as_rational(conformal_check(ctx, v)) == F(1, 2)
            total = total + v
        for a in range(16):
            for b in range(a + 1, 16):
                ok = ok and product(ctx, frame[a], frame[b]).is_zero()
                ok = ok and inner(ctx, frame[a], frame[b]) == 0
        ok = ok and (total - omega).is_zero()
    _ok("criterion 4 (two Virasoro frames)", ok)


def test_criterion_5_coset_lemma_and_highest_weights():
    ok = True
    for letter, rank in _suite_types():
        rs, ctx = sqrt2_root_context(letter, rank)
        fam = build_virasoro_family(ctx, rs.root_coords)
        h = rs.coxeter_number
        for shift in rs.lattice.dual_coset_shifts():
            coset = Coset(rs.lattice, rs.lattice.ambient(shift))
            info = coset_min_norm(coset)
            k = info["k"]
            ok = ok and all(count_X_eta(rs, coset, eta) == k * h
                            for eta in info["reps"])
            sp = ModuleSpace(ctx, shift)
            v = ModuleVector(sp, {key: F(1) for key in sp.keys})
            ok = ok and module_act(ctx, fam["s"], v).is_zero()
            ok = ok and module_act(ctx, fam["omega_tilde"], v) == v.scaled(k)
    _ok("criterion 5 (|X_eta| = kh and highest-weight identities)", ok)


def test_criterion_6_automorphism_suite():
    ok = weight2_tau_theta_verified() == {"even": 156, "odd": 128}
    ok = ok and tau_e_negates_dual_exponentials()
    for i in range(9):
        n = extended_e8_node(i).n
        ok = ok and dihedral_check(i)["verified"]
        orders = tau_product_orders(i)
        ok = ok and orders["on_E8"] == (n if n % 2 else n // 2)
        ok = ok and orders["on_dual"] == n
        ok = ok and orders["on_leech"] == n
    _ok("criterion 6 (involutions, dihedral relations, orders)", ok)


def test_criterion_7_u2_suite():
    ok = True
    for i in range(9):
        node = extended_e8_node(i)
        u2 = coset_U2_cached(i)
        l = len(node.components)
        ok = ok and u2.dim == l + node.n - 1
        e, f = e_f_coords(u2)
        dim, _ = generated_closure_coords(u2, [e, f])
        ok = ok and dim == u2.dim
    _ok("criterion 7 (U2 dimensions, span, and generation)", ok)


def test_criterion_8_code_and_lattice_suite():
    config = RunConfig(command="verify-all", time_budget_seconds=600)
    results = verify_codes(config) + verify_leech(config)
    ok = all(r["pass"] for r in results)
    _ok("criterion 8 (codes, Construction A, Leech, dual cosets)", ok)


def test_criterion_9_property_suites():
    ok = True
    samples = 0
    for letter, rank, count in (("A", 1, 400), ("A", 2, 400), ("A", 3, 250)):
        rs, ctx = sqrt2_root_context(letter, rank)
        rng = random.Random(9000 + rank)
        seen = set()
        pairs = []
        for key in ctx.norm4:
            if key not in seen:
                seen.add(key)
                seen.add(tuple(-x for x in key))
                pairs.append(key)

        def rand_even():
            el = GriessElement(ctx)
            for a in range(ctx.rank):
                for b in range(a, ctx.rank):
                    if rng.random() < 0.6:
                        el.quad[(a, b)] = F(rng.randint(-4, 4), rng.randint(1, 3))
            for key in pairs:
                if rng.random() < 0.6:
                    c = F(rng.randint(-4, 4), rng.randint(1, 3))
                    neg = tuple(-x for x in key)
                    el.expo[key] = el.expo.get(key, 0) + c
                    el.expo[neg] = el.expo.get(neg, 0) + c
            return el._strip()

        for _ in range(count):
            u, v, w = rand_even(), rand_even(), rand_even()
            ok = ok and product(ctx, u, v) == product(ctx, v, u)
            ok = ok and inner(ctx, product(ctx, u, v), w) == inner(ctx, v, product(ctx, u, w))
            samples += 1
    ok = ok and samples >= 1000
    # automorphisms preserve the product and the pairing
    fams = build_node_family(4)
    ctx = fams.ctx
    glue = fams.node.glue_coords
    rng = random.Random(4242)
    for _ in range(10):
        u = GriessElement(ctx)
        v = GriessElement(ctx)
        for key in rng.sample(ctx.norm4, 10):
            u.expo[key] = F(rng.randint(-3, 3))
        for key in rng.sample(ctx.norm4, 10):
            v.expo[key] = F(rng.randint(-3, 3))
        su, sv = apply_sigma(ctx, glue, u), apply_sigma(ctx, glue, v)
        ok = ok and apply_sigma(ctx, glue, product(ctx, u, v)) == product(ctx, su, sv)
        ok = ok and inner(ctx, su, sv) == inner(ctx, u, v)
        tu, tv = apply_theta(u), apply_theta(v)
        ok = ok and apply_theta(product(ctx, u, v)) == product(ctx, tu, tv)
        ok = ok and inner(ctx, tu, tv) == inner(ctx, u, v)
    # tau spectra: {0, 2, 1/2} + the 1/16-congruent pair on weight 2,
    # {0, 1/2, 1/16} on the minimal-weight modules
    allowed = {F(0), F(1, 2), F(1, 16)}
    for _, _, tau in dual_tau_data():
        ok = ok and set(tau.spectrum()) <= allowed
    ok = ok and weight2_tau_theta_verified() == {"even": 156, "odd": 128}
    _ok("criterion 9 (randomized structural identities)", ok)


def test_all_node_reports_pass():
    ok = all(node_report(i).passed() for i in range(9))
    _ok("node dossiers (all nine complete and consistent)", ok)
