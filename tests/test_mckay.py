from fractions import Fraction as F

import pytest

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
    o3 = tau_product_orders(3)
    assert o3["on_E8"] == 2 and o3["on_leech"] == 4
    o4 = tau_product_orders(4)
    assert o4["on_E8"] == 5 and o4["on_leech"] == 5
    o0 = tau_product_orders(0)
    assert (o0["on_E8"], o0["on_dual"], o0["on_leech"]) == (1, 1, 1)


def test_tau_orders_parity_rule():
    for i in range(9):
        orders = tau_product_orders(i)
        n = (1, 2, 3, 4, 5, 6, 4, 2, 3)[i]
        want = n if n % 2 else n // 2
        assert orders["on_E8"] == want
        assert orders["on_dual"] == n
        assert orders["on_leech"] == n


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
    rows = conway_report(3)
    wt = [r for r in rows if r["target"] == "v_4A"]
    assert len(wt) == 1 and wt[0]["status"] == "recorded"


def test_markdown_table_doubled_column():
    table = markdown_table(range(9))
    doubled = [line.split("|")[6].strip() for line in table.splitlines()[2:]]
    assert doubled == ["1", "1/8", "13/256", "1/32", "3/128", "5/256",
                       "1/64", "0", "1/64"]


def test_dual_cosets_that_do_not_generate_raise_their_own_class(monkeypatch):
    # the check is an explicit raise with its own class, so it also runs
    # under python -O; the cached spaces are left as they are
    from e8voa import mckay
    monkeypatch.setattr(mckay, "hermite_normal_form", lambda rows: rows[:7])
    with pytest.raises(mckay.DualNotGenerated, match="do not generate the dual"):
        mckay.dual_coset_spaces.__wrapped__()
