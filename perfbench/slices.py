"""The two benchmark workloads, bounded slices of the CLI sections.

A full CLI section takes 25 s (verify-leech) to 185 s (verify-griess)
cold, too long to repeat within a benchmark run, so each workload runs
the same library calls as its CLI sections over a fixed sub-scope and
emits claim records in the CLI's own format (``claim``, ``pass``,
``expected``, ``actual``).  The records are sorted by claim id, so the
report bytes do not depend on the seed, which only permutes the order of
independent units of work (sigma orders, root systems, dual cosets).

Library functions are called through their modules, so that the tracer,
which replaces module attributes, sees every call.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import lcm

from e8voa import griess, lattice, leech, mckay, rootsys
from e8voa.scalars import as_rational, is_zero


# _check and _coset_representatives copy private helpers of e8voa.cli, so
# that a refactor of the CLI's internals does not break the benchmark


def _check(results, claim, ok, expected=None, actual=None):
    rec = {"claim": claim, "pass": bool(ok)}
    if expected is not None:
        rec["expected"] = str(expected)
    if actual is not None:
        rec["actual"] = str(actual)
    results.append(rec)


# ---------------------------------------------------------------------------
# leech: verify-leech without the 256-coset survey


def leech_slice(rng):
    """The rank-24 certificate, the sqrt2E8^3 embedding and the sigma orders."""
    results = []
    ctx = leech.build_leech()
    lam = ctx.lattice
    _check(results, "leech/lattice/even-unimodular-rank24",
           lam.rank == 24 and lam.det_gram() == 1 and lam.is_even())
    _check(results, "leech/lattice/minimum-norm-4", leech.certify_minimum(600))
    emb = leech.embed_sqrt2E8_cubed(ctx)
    _check(results, "leech/embedding/block-gram",
           emb.det_gram() == 256 ** 3 and emb.is_doubly_even(),
           256 ** 3, emb.det_gram())
    for k in rng.sample(range(3), 3):
        _check(results, f"leech/embedding/block-{k}-norm4-count",
               leech.block_norm4_count(ctx, k) == 240, 240)
    for i in rng.sample(range(9), 9):
        n = rootsys.extended_e8_node(i).n
        got = leech.sigma_tilde_order(i)
        _check(results, f"leech/sigma-order/i={i}", got == n, n, got)
    return results


# ---------------------------------------------------------------------------
# algebra, part 1 (verify-griess): the root systems up to rank 4, and the
# Hamming-model checks on the code words and the standard frame; the checks
# on the dense e-hat vectors take 31 s cold

GRIESS_SUITE = [("A", n) for n in range(1, 5)] + [("D", 3), ("D", 4)]

OMEGA_TILDE_CC = {
    "A": lambda n: Fraction(2 * n, n + 3),
    "D": lambda n: Fraction(1),
}


def _coset_representatives(lat, dual_rows):
    """One shift per coset of the lattice in its dual, zero coset first."""
    zero = tuple(Fraction(0) for _ in dual_rows[0])

    def key_of(v):
        return tuple(Fraction(c) % 1 for c in lat.coords(v))

    seen = {key_of(zero)}
    reps = [zero]
    frontier = [zero]
    while frontier:
        new = []
        for base in frontier:
            for row in dual_rows:
                cand = tuple(a + Fraction(b) for a, b in zip(base, row))
                k = key_of(cand)
                if k not in seen:
                    seen.add(k)
                    new.append(cand)
                    reps.append(cand)
        frontier = new
    return reps


def _root_system_claims(results, letter, rank):
    rs = rootsys.build_root_system(letter, rank)
    gram2 = [[2 * x for x in row] for row in rs.lattice.gram]
    ctx = griess.AlgebraContext(gram2, label=f"sqrt2{letter}{rank}")
    fam = griess.build_virasoro_family(ctx, rs.root_coords)
    want = OMEGA_TILDE_CC[letter](rank)
    ok = (griess.conformal_check(ctx, fam["s"]) is not None
          and as_rational(griess.conformal_check(ctx, fam["omega_tilde"])) == want
          and griess.product(ctx, fam["s"], fam["omega_tilde"]).is_zero()
          and griess.inner(ctx, fam["s"], fam["omega_tilde"]) == 0)
    _check(results, f"griess/conformal-family/{letter}{rank}", ok, f"cc {want}")
    reps = _coset_representatives(rs.lattice, rs.lattice.dual_basis_rows())
    h = rs.coxeter_number
    for ridx, shift in enumerate(reps):
        coset = lattice.Coset(rs.lattice, shift)
        info = lattice.coset_min_norm(coset)
        k = info["k"]
        ok = all(lattice.count_X_eta(rs, coset, eta) == k * h
                 for eta in info["reps"])
        _check(results, f"griess/x-eta/{letter}{rank}/coset-{ridx}", ok,
               f"kh = {k * h}")
        sp = griess.ModuleSpace(ctx, rs.lattice.coords(shift))
        v = griess.ModuleVector(sp, {key: Fraction(1) for key in sp.keys})
        sv = griess.module_act(ctx, fam["s"], v)
        wv = griess.module_act(ctx, fam["omega_tilde"], v)
        ok = sv.is_zero() and (wv - v.scaled(k)).is_zero()
        _check(results, f"griess/highest-weight/{letter}{rank}/coset-{ridx}",
               ok, f"s v = 0 and w v = {k} v")


def _hamming_claims(results):
    ham = griess.build_hamming_family()
    hctx = ham.ctx
    ones = tuple([1] * 8)
    _check(results, "griess/hamming/x-ones-vanishes",
           ham.X[0][ones].is_zero() and ham.X[1][ones].is_zero())
    frame = ham.standard_frame()
    ok = len(frame) == 16
    total = hctx.zero()
    for v in frame:
        ok = ok and as_rational(griess.conformal_check(hctx, v)) == Fraction(1, 2)
        total = total + v
    for a in range(16):
        for b in range(a + 1, 16):
            ok = ok and griess.product(hctx, frame[a], frame[b]).is_zero()
            ok = ok and griess.inner(hctx, frame[a], frame[b]) == 0
    ok = ok and (total - hctx.omega()).is_zero()
    _check(results, "griess/frame/standard", ok, "16 orthogonal, sum omega")


# ---------------------------------------------------------------------------
# algebra, part 2 (verify-mckay): the dossiers of nodes 5 (6A, over
# Q(zeta_6)) and 7 (2B, rational) without the weight-2 conjugation check
# (4 s cold per node), node 5's Conway rows (5 s), node 7's rational U2
# (2 s) and the tau data on all 255 dual cosets (44 s); the dual-coset tau
# identities are checked on a fixed sample of norm-1 and norm-2 cosets

MCKAY_NODES = (5, 7)
U2_NODES = (5,)
CONWAY_NODES = (7,)
DUAL_SAMPLE_MASKS = (1, 16, 129)


def _dual_shift(mask):
    dual_rows = griess.e8_context().gram_inv
    shift = [Fraction(0)] * 8
    for b in range(8):
        if mask >> b & 1:
            for t in range(8):
                shift[t] += dual_rows[b][t]
    return shift


def _dual_coset_claims(results, mask, nodes):
    """tau_e inverts sigma and M_f = S M_e S^-1 on one dual coset, per node."""
    ctx = griess.e8_context()
    sp = griess.ModuleSpace(ctx, _dual_shift(mask))
    me = sp.act_matrix(griess.build_node_family(0).e_hat)
    te = griess.tau_from_matrix(me, griess.MODULE_EIGENVALUES).matrix()
    m = len(sp)
    for i in nodes:
        fams = griess.build_node_family(i)
        glue = fams.node.glue_coords
        phases = [griess.sigma_phase(ctx, glue, key) for key in sp.keys]
        inverts = all(is_zero(te[a][b]) or phases[a] * phases[b] == 1
                      for a in range(m) for b in range(m))
        mf = sp.act_matrix(fams.f_hat)
        conj = all(is_zero(mf[a][b] - phases[a] * me[a][b] / phases[b])
                   for a in range(m) for b in range(m))
        order = 1
        for key in sp.keys:
            order = lcm(order, Fraction(ctx.pairing(glue, key)).denominator)
        _check(results, f"mckay/dual-sample/i={i}/coset-{mask}",
               inverts and conj and fams.node.n % order == 0,
               actual=(len(sp), order))


def _node_claims(results, i):
    node = rootsys.extended_e8_node(i)
    counts = (node.phi_count(), tuple(node.h_counts()))
    _check(results, f"mckay/root-counts/i={i}",
           counts == mckay.ROOT_COUNT_TABLE[i], mckay.ROOT_COUNT_TABLE[i], counts)
    want = mckay.MCKAY_TABLE[i]
    direct = mckay.direct_inner(i)
    _check(results, f"mckay/inner/i={i}",
           direct == want and mckay.counting_formula_inner(i) == want,
           want, direct)
    if i in U2_NODES:
        u2 = griess.coset_U2_cached(i)
        e, f = griess.e_f_coords(u2)
        closure_dim, _ = griess.generated_closure_coords(u2, [e, f])
        _check(results, f"mckay/u2/i={i}",
               u2.dim == len(node.components) + node.n - 1
               and as_rational(u2.inner_coords(e, f)) == want
               and closure_dim == u2.dim, actual=u2.dim)
    dih = mckay.dihedral_check(i)
    on_e8 = mckay.sigma_sq_weight2_order(i)
    _check(results, f"mckay/dihedral/i={i}",
           dih["verified"] and on_e8 == (node.n if node.n % 2 else node.n // 2),
           actual=on_e8)
    if i in CONWAY_NODES:
        rows = mckay.conway_report(i)
        _check(results, f"mckay/conway/i={i}",
               all(row["status"] in ("verified", "recorded") for row in rows))


def algebra_slice(rng):
    # the nodes run first and in a fixed order: which unit fills the shared
    # caches first changes the peak RSS
    results = []
    for i in MCKAY_NODES:
        _node_claims(results, i)
    units = [lambda lr=lr: _root_system_claims(results, *lr) for lr in GRIESS_SUITE]
    units.append(lambda: _hamming_claims(results))
    units += [lambda mask=mask: _dual_coset_claims(results, mask, MCKAY_NODES)
              for mask in DUAL_SAMPLE_MASKS]
    for unit in rng.sample(units, len(units)):
        unit()
    return results


SLICES = {"leech": leech_slice, "algebra": algebra_slice}


def run_slice(workload: str, seed: int) -> dict:
    """The workload's report: claim records sorted by id, and overall pass."""
    results = SLICES[workload](random.Random(seed))
    results.sort(key=lambda r: r["claim"])
    return {"workload": workload, "results": results,
            "pass": all(r["pass"] for r in results)}
