"""Acceptance gate: every headline claim checked at exact equality.

Criteria 1-8 and the node dossiers run the CLI's own claims, selected
from the claim registry by id prefix; criterion 9 samples structural
identities.  Each criterion prints a single pass line; run with
`pytest -s` to see them.  All arithmetic is exact, so the tolerance
everywhere is equality.
"""

import random
from fractions import Fraction as F

from e8voa.cli import RunConfig, registry, run_claims
from e8voa.griess import (MODULE_EIGENVALUES, GriessElement, apply_sigma,
                          apply_theta, build_node_family, inner, product)
from e8voa.linalg import identity
from e8voa.mckay import (MCKAY_TABLE, ROOT_COUNT_TABLE, dual_tau_data,
                         weight2_tau_theta_verified)

import fraction_reference as ref
from conftest import sqrt2_root_context


def _ok(name, condition):
    print(f"{name}: {'PASS' if condition else 'FAIL'}")
    assert condition, name


def _registry_passes(name, prefixes, count):
    """Run the verify-all claims whose ids start with one of the prefixes."""
    claims = [(claim, check) for claim, check
              in registry(RunConfig(command="verify-all"))
              if claim.startswith(prefixes)]
    assert len(claims) == count, [claim for claim, _ in claims]
    failing = [r for r in run_claims(claims) if not r["pass"]]
    print(f"{name}: {'FAIL' if failing else 'PASS'}")
    assert not failing, failing


def test_criterion_1_mckay_table():
    expected = (F(1, 4), F(1, 32), F(13, 2 ** 10), F(1, 2 ** 7), F(3, 2 ** 9),
                F(5, 2 ** 10), F(1, 2 ** 8), F(0), F(1, 2 ** 8))
    assert MCKAY_TABLE == expected
    _registry_passes("criterion 1 (inner-product table, both routes)",
                     ("mckay/inner/",), 9)


def test_criterion_2_root_count_ledger():
    assert ROOT_COUNT_TABLE[3] == (52, (64, 60, 64))
    assert ROOT_COUNT_TABLE[6] == (58, (56, 70, 56))
    assert ROOT_COUNT_TABLE[8] == (72, (84, 84))
    _registry_passes("criterion 2 (root-count ledger)",
                     ("mckay/root-counts/",), 9)


def test_criterion_3_conformal_vectors():
    _registry_passes("criterion 3 (conformal vectors and trichotomy)",
                     ("griess/conformal-family/",
                      "griess/hamming/conformal-cc-half",
                      "griess/hamming/inner-trichotomy"), 19)


def test_criterion_4_virasoro_frames():
    _registry_passes("criterion 4 (two Virasoro frames)", ("griess/frame/",), 2)


def test_criterion_5_coset_lemma_and_highest_weights():
    _registry_passes("criterion 5 (|X_eta| = kh and highest-weight identities)",
                     ("griess/x-eta/", "griess/highest-weight/"), 148)


def test_criterion_6_automorphism_suite():
    _registry_passes("criterion 6 (involutions, dihedral relations, orders)",
                     ("griess/tau/", "mckay/dihedral/", "mckay/tau-orders/"), 20)


def test_criterion_7_u2_suite():
    _registry_passes("criterion 7 (U2 dimensions, span, and generation)",
                     ("mckay/u2/",), 9)


def test_criterion_8_code_and_lattice_suite():
    _registry_passes("criterion 8 (codes, Construction A, Leech, dual cosets)",
                     ("codes/", "leech/"), 33)


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
            quad, expo = {}, {}
            for a in range(ctx.rank):
                for b in range(a, ctx.rank):
                    if rng.random() < 0.6:
                        quad[(a, b)] = F(rng.randint(-4, 4), rng.randint(1, 3))
            for key in pairs:
                if rng.random() < 0.6:
                    c = F(rng.randint(-4, 4), rng.randint(1, 3))
                    neg = tuple(-x for x in key)
                    expo[key] = expo.get(key, 0) + c
                    expo[neg] = expo.get(neg, 0) + c
            return GriessElement(ctx, quad=quad, expo=expo)

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
        u = GriessElement(ctx, expo={key: F(rng.randint(-3, 3))
                                     for key in rng.sample(ctx.norm4, 10)})
        v = GriessElement(ctx, expo={key: F(rng.randint(-3, 3))
                                     for key in rng.sample(ctx.norm4, 10)})
        su, sv = apply_sigma(ctx, glue, u), apply_sigma(ctx, glue, v)
        ok = ok and apply_sigma(ctx, glue, product(ctx, u, v)) == product(ctx, su, sv)
        ok = ok and inner(ctx, su, sv) == inner(ctx, u, v)
        tu, tv = apply_theta(u), apply_theta(v)
        ok = ok and apply_theta(product(ctx, u, v)) == product(ctx, tu, tv)
        ok = ok and inner(ctx, tu, tv) == inner(ctx, u, v)
    # tau spectra: {0, 2, 1/2} + the 1/16-congruent pair on weight 2,
    # {0, 1/2, 1/16} on the minimal-weight modules, where tau is the
    # eigenvector-basis involution and squares to I
    e_hat = build_node_family(0).e_hat
    for sp, tau, q in dual_tau_data():
        m = [[F(x, q) for x in row] for row in tau]
        ok = ok and m == ref.tau_matrix(sp.act_matrix(e_hat), MODULE_EIGENVALUES)
        ok = ok and ref.mat_mul(m, m) == identity(len(m))
    ok = ok and weight2_tau_theta_verified() == {"even": 156, "odd": 128}
    _ok("criterion 9 (randomized structural identities)", ok)


def test_all_node_reports_pass():
    _registry_passes("node dossiers (all nine complete and consistent)",
                     ("mckay/",), 54)
