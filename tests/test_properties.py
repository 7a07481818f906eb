"""Randomized structural checks of the weight-2 algebra, all exact.

The product and pairing identities are sampled on the weight-2 space of
the involution-fixed subalgebra, where the weight-1 space vanishes and
the commutative-algebra axioms hold on the nose.
"""

import random
from fractions import Fraction as F

import pytest

from e8voa.griess import (GriessElement, _dual_ints, apply_sigma, apply_theta,
                          build_node_family, inner, product)

from conftest import sqrt2_root_context


def weyl_matrix(ctx, root_key):
    """Coefficient-space matrix of the reflection v -> v - (B(v,r)/2) r."""
    root_key = tuple(int(x) for x in root_key)
    if ctx.pairing(root_key, root_key) != 4:
        raise ValueError("reflection key must have norm 4")
    g = _dual_ints(ctx, root_key)
    n = ctx.rank
    mat = [[F(int(i == j)) for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(n):
            mat[i][j] -= F(root_key[i]) * F(g[j]) / 2
    return mat


def apply_linear(ctx, mat, el):
    """Apply a lattice isometry given by its coefficient-space matrix."""
    quad, deriv, expo = el.parts()
    out_quad, out_deriv, out_expo = {}, {}, {}
    n = ctx.rank
    for (a, b), v in quad.items():
        for i in range(n):
            if not mat[i][a]:
                continue
            for j in range(n):
                w = mat[i][a] * mat[j][b]
                if w:
                    kk = (i, j) if i <= j else (j, i)
                    out_quad[kk] = out_quad.get(kk, 0) + v * w
    for a, v in deriv.items():
        for i in range(n):
            if mat[i][a]:
                out_deriv[i] = out_deriv.get(i, 0) + v * mat[i][a]
    for key, v in expo.items():
        img = tuple(sum(mat[i][j] * key[j] for j in range(n)) for i in range(n))
        img_int = tuple(int(x) for x in img)
        if tuple(F(x) for x in img_int) != tuple(img):
            raise ValueError("isometry does not preserve the lattice")
        out_expo[img_int] = out_expo.get(img_int, 0) + v
    return GriessElement(ctx, quad=out_quad, deriv=out_deriv, expo=out_expo)


def apply_weyl(ctx, root_key, el):
    return apply_linear(ctx, weyl_matrix(ctx, root_key), el)


def random_theta_even(ctx, rng, density=0.6):
    """Random element of the theta-fixed weight-2 subspace."""
    quad, expo = {}, {}
    r = ctx.rank
    for a in range(r):
        for b in range(a, r):
            if rng.random() < density:
                quad[(a, b)] = F(rng.randint(-4, 4), rng.randint(1, 3))
    seen = set()
    for key in ctx.norm4:
        if key in seen:
            continue
        seen.add(key)
        neg = tuple(-x for x in key)
        seen.add(neg)
        if rng.random() < density:
            c = F(rng.randint(-4, 4), rng.randint(1, 3))
            expo[key] = expo.get(key, 0) + c
            expo[neg] = expo.get(neg, 0) + c
    return GriessElement(ctx, quad=quad, expo=expo)


SAMPLE_SPECS = [("A", 1, 400), ("A", 2, 400), ("A", 3, 200), ("D", 4, 60)]


def test_commutativity_on_theta_even_triples():
    total = 0
    for letter, rank, count in SAMPLE_SPECS:
        _, ctx = sqrt2_root_context(letter, rank)
        rng = random.Random(1000 + rank)
        for _ in range(count):
            u = random_theta_even(ctx, rng)
            v = random_theta_even(ctx, rng)
            assert product(ctx, u, v) == product(ctx, v, u)
            total += 1
    assert total >= 1000


def test_form_invariance_on_theta_even_triples():
    total = 0
    for letter, rank, count in SAMPLE_SPECS:
        _, ctx = sqrt2_root_context(letter, rank)
        rng = random.Random(2000 + rank)
        for _ in range(count):
            u = random_theta_even(ctx, rng)
            v = random_theta_even(ctx, rng)
            w = random_theta_even(ctx, rng)
            assert inner(ctx, product(ctx, u, v), w) == inner(ctx, v, product(ctx, u, w))
            total += 1
    assert total >= 1000


def test_form_symmetry():
    _, ctx = sqrt2_root_context("A", 3)
    rng = random.Random(5)
    for _ in range(100):
        u = random_theta_even(ctx, rng)
        v = random_theta_even(ctx, rng)
        assert inner(ctx, u, v) == inner(ctx, v, u)


def test_noncommutativity_across_derivative_sector():
    # the derivative sector genuinely breaks commutativity on the full
    # weight-2 space, which is why sampling stays on the theta-even part
    _, ctx = sqrt2_root_context("A", 1)
    quad = GriessElement(ctx, quad={(0, 0): F(1)})
    der = GriessElement(ctx, deriv={0: F(1)})
    assert product(ctx, der, quad).is_zero()
    assert not product(ctx, quad, der).is_zero()


def test_theta_preserves_product_and_form():
    _, ctx = sqrt2_root_context("A", 2)
    rng = random.Random(31)

    def random_full(ctx):
        quad, deriv, expo = random_theta_even(ctx, rng).parts()
        for a in range(ctx.rank):
            if rng.random() < 0.5:
                deriv[a] = F(rng.randint(-3, 3))
        for key in ctx.norm4:
            if rng.random() < 0.3:
                expo[key] = expo.get(key, 0) + F(rng.randint(-3, 3))
        return GriessElement(ctx, quad=quad, deriv=deriv, expo=expo)

    for _ in range(200):
        u, v = random_full(ctx), random_full(ctx)
        assert apply_theta(product(ctx, u, v)) == product(ctx, apply_theta(u), apply_theta(v))
        assert inner(ctx, apply_theta(u), apply_theta(v)) == inner(ctx, u, v)


def test_sigma_preserves_product_and_form():
    fams = build_node_family(4)
    ctx = fams.ctx
    glue = fams.node.glue_coords
    rng = random.Random(77)
    for _ in range(25):
        uq, ue, vd, ve = {}, {}, {}, {}
        for key in rng.sample(ctx.norm4, 12):
            ue[key] = F(rng.randint(-3, 3))
        for key in rng.sample(ctx.norm4, 12):
            ve[key] = F(rng.randint(-3, 3))
        for a in range(8):
            if rng.random() < 0.3:
                uq[(a, a)] = F(rng.randint(-2, 2))
                vd[a] = F(rng.randint(-2, 2))
        u = GriessElement(ctx, quad=uq, expo=ue)
        v = GriessElement(ctx, deriv=vd, expo=ve)
        su, sv = apply_sigma(ctx, glue, u), apply_sigma(ctx, glue, v)
        assert apply_sigma(ctx, glue, product(ctx, u, v)) == product(ctx, su, sv)
        assert inner(ctx, su, sv) == inner(ctx, u, v)


def test_weyl_preserves_product_and_form_random():
    _, ctx = sqrt2_root_context("D", 4)
    rng = random.Random(13)
    root_key = ctx.norm4[5]
    for _ in range(60):
        u = random_theta_even(ctx, rng)
        v = random_theta_even(ctx, rng)
        wu, wv = apply_weyl(ctx, root_key, u), apply_weyl(ctx, root_key, v)
        assert apply_weyl(ctx, root_key, product(ctx, u, v)) == product(ctx, wu, wv)
        assert inner(ctx, wu, wv) == inner(ctx, u, v)


def test_weyl_matrix_is_an_involution():
    _, ctx = sqrt2_root_context("D", 4)
    m = weyl_matrix(ctx, ctx.norm4[0])
    n = ctx.rank
    sq = [[sum(m[i][k] * m[k][j] for k in range(n)) for j in range(n)]
          for i in range(n)]
    assert sq == [[F(int(i == j)) for j in range(n)] for i in range(n)]


def test_tau_spectra_lie_in_allowed_sets():
    import fraction_reference as ref
    from e8voa.griess import MODULE_EIGENVALUES
    from e8voa.linalg import identity
    from e8voa.mckay import dual_tau_data, weight2_tau_theta_verified
    blocks = weight2_tau_theta_verified()
    assert blocks == {"even": 156, "odd": 128}
    e_hat = build_node_family(0).e_hat
    for sp, tau, q in dual_tau_data()[:40]:
        m = [[F(x, q) for x in row] for row in tau]
        assert m == ref.tau_matrix(sp.act_matrix(e_hat), MODULE_EIGENVALUES)
        assert ref.mat_mul(m, m) == identity(len(m))
