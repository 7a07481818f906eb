"""Per-node facts: the inner-product table, involutions, and axes.

Each node of the extended diagram has root counts, two independent
routes to <e,f>, the orders of the product of the two Miyamoto
involutions on the weight-2 space, on the dual-coset modules and through
the Leech lattice, and the correspondence rows for Conway's axes.  The
claims about them are defined once, in the CLI's claim registry.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .codes import data_cached
from .griess import (MODULE_EIGENVALUES, ModuleSpace, build_node_family,
                     conformal_check, coset_U2_cached, e8_context, inner,
                     sigma_exponents, tau_rows, theta_split_tau_check)
from .linalg import det, hermite_normal_form
from .rootsys import NODE_LABELS, extended_e8_node
from .scalars import Cyclotomic, as_rational


class DualNotGenerated(RuntimeError):
    pass


class ConjugationFailed(RuntimeError):
    pass


MCKAY_TABLE = (
    Fraction(1, 4), Fraction(1, 32), Fraction(13, 1024), Fraction(1, 128),
    Fraction(3, 512), Fraction(5, 1024), Fraction(1, 256), Fraction(0),
    Fraction(1, 256),
)

ROOT_COUNT_TABLE = (
    (240, ()), (128, (112,)), (78, (81, 81)), (52, (64, 60, 64)),
    (40, (50, 50, 50, 50)), (38, (36, 45, 40, 45, 36)), (58, (56, 70, 56)),
    (112, (128,)), (72, (84, 84)),
)


def counting_formula_inner(i: int) -> Fraction:
    """1/2^6 + 2^-10 (|Phi| + sum_j zeta^j |H_j|), reduced to a rational."""
    node = extended_e8_node(i)
    phi = node.phi_count()
    hs = node.h_counts()
    total = Fraction(phi)
    for j, hj in enumerate(hs, start=1):
        total = Cyclotomic.zeta(node.n, j) * hj + total
    val = Fraction(1, 64) + Fraction(1, 1024) * total
    return as_rational(val)


def direct_inner(i: int) -> Fraction:
    fams = build_node_family(i)
    return as_rational(inner(fams.ctx, fams.e_hat, fams.f_hat))


@data_cached()
def weight2_tau_theta_verified() -> dict:
    """tau of e-hat equals theta on weight 2, by the block spectra."""
    fams = build_node_family(0)
    return theta_split_tau_check(fams.ctx, fams.e_hat)


@data_cached()
def conjugation_verified(i: int) -> bool:
    """f-hat_1 = sigma e-hat_1 sigma^(-1) as weight-2 operators, exactly.

    The node family builds f-hat as sigma(e-hat), so the identity holds
    once sigma is an automorphism of the weight-2 algebra.  sigma fixes
    the quad and deriv states and multiplies e^x by a phase, and e^x e^y
    is nonzero only for y = -x or B(x, y) = -2.  So the check is that the
    phase exponents, over one common order, form a character on the
    product tables: they cancel on e^x e^-x (``opp``) and add along
    e^x e^y = e^(x+y) (``nbr``).
    """
    fams = build_node_family(i)
    ctx = fams.ctx
    n, e = ctx.sigma_phases(fams.node.glue_coords)
    start, opp, nbr = ctx.expo_start, ctx.tables.opp, ctx.tables.nbr
    return all((e[x] + e[opp[x]]) % n == 0
               and all((e[x] + e[y] - e[z]) % n == 0 for y, z in nbr[x])
               for x in range(start, len(e)))


def sigma_weight2_order(i: int, power: int = 1) -> int:
    """Order of sigma^power on the weight-2 space.

    sigma multiplies e^x by zeta_N^e (``sigma_phases``), so sigma^power has
    order N / gcd(N, e * power) on e^x.
    """
    fams = build_node_family(i)
    ctx = fams.ctx
    n, exps = ctx.sigma_phases(fams.node.glue_coords)
    return lcm(*(n // gcd(n, e * power) for e in exps[ctx.expo_start:]))


def sigma_sq_weight2_order(i: int) -> int:
    return sigma_weight2_order(i, 2)


def dihedral_check(i: int) -> dict:
    """sigma has order n, theta inverts it, and the group has order 2n.

    theta sends e^x to e^-x, so theta sigma theta = sigma^(-1) is the
    ``opp`` half of ``conjugation_verified``.
    """
    return {"verified": conjugation_verified(i)
            and sigma_weight2_order(i) == extended_e8_node(i).n}


# ---------------------------------------------------------------------------
# dual-coset module suite


def dual_coset_spaces():
    """The 255 nontrivial cosets of the lattice in its dual, as modules."""
    ctx = e8_context()
    shifts = list(ctx.lattice.dual_coset_shifts())
    spaces = [ModuleSpace(ctx, shift) for shift in shifts[1:]]
    # the minimal keys across all cosets generate the dual lattice; every
    # nontrivial coset has denominator 2, so the int keys are the doubled keys
    h = hermite_normal_form([x for sp in spaces for x in sp.scaled_keys])
    if any(sp.den != 2 for sp in spaces) or len(h) != 8 or abs(det(h)) != 1:
        raise DualNotGenerated("minimal coset vectors do not generate the dual")
    return spaces


@data_cached()
def dual_tau_data():
    """(sp, tau, q) per dual-coset minimal space: tau_e = tau / q as int
    rows over one int, for e = e-hat (node independent)."""
    e_hat = build_node_family(0).e_hat
    return [(sp, *tau_rows(*sp.act_rows(e_hat), MODULE_EIGENVALUES))
            for sp in dual_coset_spaces()]


def tau_e_negates_dual_exponentials() -> bool:
    """tau(e^x) = -e^(-x) on every norm-1 dual coset."""
    for sp, tau, q in dual_tau_data():
        if sp.min_norm != 1:
            continue
        index = {key: i for i, key in enumerate(sp.scaled_keys)}
        for i, key in enumerate(sp.scaled_keys):
            j = index[tuple(-x for x in key)]
            if any(tau[r][i] != (-q if r == j else 0) for r in range(len(sp))):
                return False
    return True


@data_cached()
def dual_tau_orders(i: int) -> int:
    """Verify tau_e tau_f = sigma^(-2) on the dual modules; return its order.

    On each coset sigma is the diagonal S with phase zeta_N^(e_a) on key a
    (``sigma_exponents``), and both identities are checked on every coset
    as integers mod N.  tau_e S tau_e = S^(-1): e_a + e_b = 0 wherever
    tau_e has an entry.  M_f = S M_e S^(-1): f-hat = sigma(e-hat) has the
    quad and deriv terms of e-hat, so the diagonals agree, and the
    coefficient of e^y in e-hat times the phase of y (``sigma_phases``),
    so the identity is e_a - e_b = (exponent of y) on every lowering pair
    key_b + y = key_a.
    """
    fams = build_node_family(i)
    ctx = fams.ctx
    glue = fams.node.glue_coords
    n_y, e_y = ctx.sigma_phases(glue)
    order = 1
    for idx, (sp, tau, _) in enumerate(dual_tau_data()):
        n, e = sigma_exponents(ctx, glue, sp.scaled_keys, sp.den)
        for a, row in enumerate(tau):
            for b, x in enumerate(row):
                if x and (e[a] + e[b]) % n:
                    raise ConjugationFailed(
                        f"node {i}: tau_e does not invert sigma on coset {idx}: "
                        f"keys ({a}, {b}) have exponents {e[a]}, {e[b]} mod {n}")
        scale = n // n_y
        for b, pairs in enumerate(sp.lowering):
            for y, a in pairs:
                ey = scale * e_y[y]
                if (e[a] - e[b] - ey) % n:
                    raise ConjugationFailed(
                        f"node {i}: f-action is not the sigma conjugate on coset "
                        f"{idx}: keys ({a}, {b}) have exponents {e[a]}, {e[b]} "
                        f"and e^y has {ey} mod {n}")
        # tau_e tau_f = S^(-2) has the phase zeta_N^(-2 e_a) on key a
        order = lcm(order, *(n // gcd(n, 2 * x) for x in e))
    return order


# ---------------------------------------------------------------------------
# involution orders and axes


def tau_product_orders(i: int) -> tuple:
    """(on_E8, on_dual, on_leech): the orders of tau_e tau_f on weight 2, on
    the dual cosets and through Leech.

    tau_e = theta on weight 2 and the identity f-hat_1 = sigma e-hat_1
    sigma^(-1) there make tau_e tau_f = sigma^(-2) on weight 2; where the
    identity fails this raises ``ConjugationFailed``.
    """
    from .leech import sigma_tilde_order
    weight2_tau_theta_verified()
    if not conjugation_verified(i):
        raise ConjugationFailed(
            f"node {i}: f-hat_1 is not sigma e-hat_1 sigma^(-1) on weight 2")
    return sigma_sq_weight2_order(i), dual_tau_orders(i), sigma_tilde_order(i)


CONWAY_OMEGA_ROWS = {
    1: ((("A", 1), "1/32", "t_2A", Fraction(1, 2)),),
    2: ((("A", 2), "1/45", "u_3A", Fraction(4, 5)),),
    3: ((("A", 3), "1/96", "v_4A", Fraction(1)),),
    5: ((("A", 2), "1/45", "u_3A", Fraction(4, 5)),
        (("A", 1), "1/32", "t_2A", Fraction(1, 2))),
    6: ((("A", 1), "1/32", "t_2A", Fraction(1, 2)),),
}


def conway_report(i: int):
    """Correspondence rows to Conway's axes, with the checkable parts checked.

    e-hat is squared once.  ``conjugation_verified`` proves sigma an
    automorphism of the weight-2 algebra that keeps the form, so a sigma^j
    row, cc(sigma^j e) = cc(e), is verified when cc(e) = 1/2 and that
    certificate holds.  Node 4's w_5A row is 'recorded': its target
    normalization lives in an external table.
    """
    fams = build_node_family(i)
    ctx = fams.ctx
    node = fams.node
    cc = as_rational(conformal_check(ctx, fams.e_hat))
    ok = cc == Fraction(1, 2)
    rows = [{"element": f"sigma^{j}(e)" if j else "e", "scale": "1/32",
             "target": f"t_{j}", "central_charge": cc,
             "status": "verified" if ok and (not j or conjugation_verified(i))
             else "mismatch"} for j in range(node.n)]
    for comp_type, scale, target, want_cc in CONWAY_OMEGA_ROWS.get(i, ()):
        idx = next(k for k, c in enumerate(node.components)
                   if (c.letter, c.rank) == comp_type)
        wt = fams.omega_tilde[idx]
        cc = as_rational(conformal_check(ctx, wt))
        status = "verified" if cc == want_cc else "mismatch"
        rows.append({
            "element": f"omega_tilde({comp_type[0]}{comp_type[1]})",
            "scale": scale,
            "target": target,
            "central_charge": cc,
            "status": status,
        })
    if i == 4:
        idx1, idx2 = 0, 1
        diff = fams.omega_tilde[idx1] - fams.omega_tilde[idx2]
        norm = as_rational(inner(ctx, diff, diff))
        sqrt5 = 1 + 2 * Cyclotomic.zeta(5) + 2 * Cyclotomic.zeta(5, 4)
        scale = (-1) * (sqrt5 * 35).inverse()
        rows.append({
            "element": "omega_tilde(A4) - omega_tilde(A4)'",
            "scale": f"-(1/(35 sqrt5)) = {scale}",
            "target": "w_5A",
            "norm": norm,
            "status": "recorded",
        })
    return rows


def markdown_table(nodes) -> str:
    """The diagram table: one row per node in the given order.

    A node whose row raises is left out, and with no rows there is no
    table; the node's claims record the failure.
    """
    lines = [
        "| i | label | n | L(i) | <e,f> | <2e,2f> | dim U2 | tau wt2 | tau dual | tau Leech |",
        "|---|-------|---|------|-------|---------|--------|---------|----------|-----------|",
    ]
    for i in nodes:
        try:
            node = extended_e8_node(i)
            ef = direct_inner(i)
            u2_dim = coset_U2_cached(i).dim
            on_e8, on_dual, on_leech = tau_product_orders(i)
        except Exception:
            continue
        comps = "+".join("%s%d" % c for c in node.component_types)
        lines.append(
            f"| {i} | {NODE_LABELS[i]} | {node.n} | {comps} | {ef} "
            f"| {4 * ef} | {u2_dim} | {on_e8} | {on_dual} | {on_leech} |")
    return "\n".join(lines) if len(lines) > 2 else ""
