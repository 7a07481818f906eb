from fractions import Fraction as F
from math import gcd

import pytest

from e8voa import griess, mckay
from e8voa.mckay import (MCKAY_TABLE, conway_report,
                         counting_formula_inner, dihedral_check, direct_inner,
                         markdown_table, tau_product_orders)
from e8voa.rootsys import NODE_LABELS


def test_table_values_selected_nodes():
    assert direct_inner(2) == F(13, 2 ** 10)
    assert direct_inner(7) == 0
    assert direct_inner(0) == F(1, 4)


def test_both_routes_agree_everywhere():
    for i in range(9):
        assert direct_inner(i) == MCKAY_TABLE[i]
        assert counting_formula_inner(i) == MCKAY_TABLE[i]


def test_labels_and_multiplicities():
    assert NODE_LABELS == ("1A", "2A", "3A", "4A", "5A", "6A", "4B", "2B", "3C")
    from e8voa.rootsys import EXTENDED_COEFFS
    assert EXTENDED_COEFFS == (1, 2, 3, 4, 5, 6, 4, 2, 3)


def test_tau_orders_examples():
    # (on_E8, on_dual, on_leech)
    assert tau_product_orders(3) == (2, 4, 4)
    assert tau_product_orders(4) == (5, 5, 5)
    assert tau_product_orders(0) == (1, 1, 1)


def test_tau_orders_parity_rule():
    for i in range(9):
        n = (1, 2, 3, 4, 5, 6, 4, 2, 3)[i]
        assert tau_product_orders(i) == (n if n % 2 else n // 2, n, n)


def test_dihedral_relations():
    for i in range(9):
        assert dihedral_check(i)["verified"]


def test_conway_rows_1a():
    rows = conway_report(0)
    assert len(rows) == 1
    assert rows[0]["element"] == "e" and rows[0]["target"] == "t_0"
    assert rows[0]["status"] == "verified"


def test_conway_rows_2b_only_sigma_powers():
    rows = conway_report(7)
    assert [r["target"] for r in rows] == ["t_0", "t_1"]
    assert all(r["central_charge"] == F(1, 2) for r in rows)


def test_conway_rows_6a():
    rows = conway_report(5)
    targets = {r["element"]: r for r in rows}
    a1 = targets["omega_tilde(A1)"]
    assert a1["target"] == "t_2A" and a1["central_charge"] == F(1, 2)
    a2 = targets["omega_tilde(A2)"]
    assert a2["target"] == "u_3A" and a2["central_charge"] == F(4, 5)
    assert a1["status"] == a2["status"] == "verified"


def test_conway_rows_5a_difference_norm():
    rows = conway_report(4)
    diff = [r for r in rows if r["target"] == "w_5A"]
    assert len(diff) == 1
    assert diff[0]["norm"] == F(8, 7)
    assert diff[0]["status"] == "recorded"


def test_conway_rows_4a_recorded_only():
    # the omega_tilde(A3) row is checked like every other row: cc = 1
    rows = conway_report(3)
    wt = [r for r in rows if r["target"] == "v_4A"]
    assert len(wt) == 1 and wt[0]["status"] == "verified"
    assert wt[0]["central_charge"] == 1


def test_a_wrong_central_charge_fails_exactly_node_3s_conway_claim(monkeypatch):
    from e8voa.cli import RunConfig, registry, run_claims
    (comp, scale, target, cc), = mckay.CONWAY_OMEGA_ROWS[3]
    assert cc == 1
    monkeypatch.setitem(mckay.CONWAY_OMEGA_ROWS, 3, ((comp, scale, target, F(2)),))
    records = run_claims(registry(RunConfig(command="verify-mckay")))
    assert [r["claim"] for r in records if not r["pass"]] == ["mckay/conway/i=3"]


def test_markdown_table_doubled_column():
    table = markdown_table(range(9))
    doubled = [line.split("|")[6].strip() for line in table.splitlines()[2:]]
    assert doubled == ["1", "1/8", "13/256", "1/32", "3/128", "5/256",
                       "1/64", "0", "1/64"]


def test_dual_cosets_that_do_not_generate_raise_their_own_class(monkeypatch):
    # the check is an explicit raise with its own class, so it also runs
    # under python -O
    from e8voa import mckay
    monkeypatch.setattr(mckay, "hermite_normal_form", lambda rows: rows[:7])
    with pytest.raises(mckay.DualNotGenerated, match="do not generate the dual"):
        mckay.dual_coset_spaces()


# the mutation tests below corrupt one exponent or one lowering pair on a
# coset that the old sample range(0, 255, 23) skipped, for a node whose
# conjugation check used to be sampled; the checks must name that coset
UNSAMPLED_COSET = 102
MUTATED_NODE = 4


def _unsampled_space():
    assert UNSAMPLED_COSET % 23
    # the tau data is computed before any corruption and stays cached
    return mckay.dual_tau_data()[UNSAMPLED_COSET][0]


def test_corrupt_key_exponent_fails_on_an_unsampled_coset(monkeypatch, fresh_caches):
    keys = _unsampled_space().scaled_keys
    real = mckay.sigma_exponents

    def corrupt(ctx, glue, xs, den=1):
        n, exps = real(ctx, glue, xs, den)
        if xs is keys:
            exps[3] = (exps[3] + 1) % n
        return n, exps

    monkeypatch.setattr(mckay, "sigma_exponents", corrupt)
    with pytest.raises(mckay.ConjugationFailed,
                       match=rf"node {MUTATED_NODE}: .* on coset {UNSAMPLED_COSET}: "
                             r"keys \(\d+, \d+\) have exponents \d+, \d+"):
        mckay.dual_tau_orders(MUTATED_NODE)


def test_corrupt_lowering_target_fails_on_an_unsampled_coset(monkeypatch, fresh_caches):
    sp = _unsampled_space()
    fams = griess.build_node_family(MUTATED_NODE)
    n, exps = griess.sigma_exponents(fams.ctx, fams.node.glue_coords,
                                     sp.scaled_keys, sp.den)
    y, a = sp.lowering[0][0]
    wrong = next(c for c in range(len(sp)) if exps[c] != exps[a])
    lowering = list(sp.lowering)
    lowering[0] = [(y, wrong)] + lowering[0][1:]
    monkeypatch.setattr(sp, "lowering", lowering)
    with pytest.raises(mckay.ConjugationFailed,
                       match=rf"not the sigma conjugate on coset {UNSAMPLED_COSET}: "
                             rf"keys \({wrong}, 0\) have exponents {exps[wrong]}, "
                             rf"{exps[0]} and e\^y has \d+ mod {n}"):
        mckay.dual_tau_orders(MUTATED_NODE)


def test_corrupt_sigma_phase_fails_conjugation_and_dihedral(monkeypatch, fresh_caches):
    fams = griess.build_node_family(MUTATED_NODE)
    ctx = fams.ctx
    glue = fams.node.glue_coords
    # checked uncached, so that the corrupted sigma below is checked afresh
    assert mckay.conjugation_verified.__wrapped__(MUTATED_NODE)
    # the dual-coset order stays cached from before the corruption, so the
    # orders claim below can fail only on the weight-2 identity
    mckay.dual_tau_orders(MUTATED_NODE)
    n, exps = ctx.sigma_phases(glue)
    exps = list(exps)
    x = next(k for k in range(ctx.expo_start, len(exps)) if exps[k])
    exps[x] = (exps[x] + 1) % n
    monkeypatch.setitem(ctx._phases, tuple(glue), (n, exps))
    assert not mckay.conjugation_verified(MUTATED_NODE)
    assert not dihedral_check(MUTATED_NODE)["verified"]
    # the orders claim reports no orders for a sigma that does not carry
    # e-hat_1 to f-hat_1, and the dihedral claim fails beside it
    from e8voa.cli import RunConfig, registry, run_claims
    records = {r["claim"]: r for r in run_claims(registry(
        RunConfig("verify-mckay", node_filter=[MUTATED_NODE])))}
    assert records[f"mckay/tau-orders/i={MUTATED_NODE}"]["actual"].startswith(
        f"ConjugationFailed: node {MUTATED_NODE}: f-hat_1 is not sigma e-hat_1")
    assert not records[f"mckay/dihedral/i={MUTATED_NODE}"]["pass"]


def test_a_wrong_leech_order_fails_exactly_its_two_claims(monkeypatch):
    from e8voa import leech
    from e8voa.cli import RunConfig, registry, run_claims
    from e8voa.rootsys import extended_e8_node
    honest = leech.sigma_tilde_order
    monkeypatch.setattr(leech, "sigma_tilde_order", lambda i: (
        extended_e8_node(i).n + 1 if i == 3 else honest(i)))
    failed = [r for command in ("verify-leech", "verify-mckay")
              for r in run_claims(registry(RunConfig(command, node_filter=[3])))
              if not r["pass"]]
    assert [r["claim"] for r in failed] == ["leech/sigma-order/i=3",
                                            "mckay/tau-orders/i=3"]
    assert failed[1]["actual"] == "(2, 4, 5)"


def test_a_root_moved_to_another_class_fails_the_node_family():
    # f-hat is sigma(e-hat) only where sigma's phase on each norm-4 key is
    # zeta_n to the key's coset class
    from e8voa.rootsys import ExtendedE8Node
    node = ExtendedE8Node(5)
    classes = node.coset_classes()
    root = next(iter(classes))
    classes[root] = (classes[root] + 1) % node.n
    with pytest.raises(AssertionError, match="sigma phases do not match the coset classes"):
        griess.NodeFamilies(node)


def test_sigma_phases_match_the_cyclotomic_sigma_phase():
    # the integer exponents are read as zeta_N^e against the one reference
    # phase, on every norm-4 key and on every key of one dual coset
    from e8voa.scalars import Cyclotomic
    sp = _unsampled_space()
    for i in (2, 5, 6):
        fams = griess.build_node_family(i)
        ctx, glue = fams.ctx, fams.node.glue_coords
        n, exps = ctx.sigma_phases(glue)
        for k, x in enumerate(ctx.norm4):
            e = exps[ctx.expo_start + k]
            assert Cyclotomic.zeta(n, e) == griess.sigma_phase(ctx, glue, x)
        n, exps = griess.sigma_exponents(ctx, glue, sp.scaled_keys, sp.den)
        for key, e in zip(sp.keys, exps):
            assert Cyclotomic.zeta(n, e) == griess.sigma_phase(ctx, glue, key)


def test_apply_sigma_keeps_the_least_field():
    # sigma_phases keeps its exponents over N = 2n on these nodes, but the
    # phases of sigma^p are powers of zeta_n^p, of order d = n / gcd(n, p),
    # and e-hat's coefficients on a whole coset class cover Q(zeta_d)
    for i in range(9):
        fams = griess.build_node_family(i)
        n = fams.node.n
        for p in range(1, n):
            d = n // gcd(n, p)
            assert fams.sigma(fams.e_hat, p).m == (d if d > 2 else 1)
