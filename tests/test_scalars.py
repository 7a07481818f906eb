import itertools
from fractions import Fraction as F
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from e8voa.scalars import (Cyclotomic, NonRationalError, as_rational,
                           cyclotomic_polynomial, euler_phi, half_turn_phase,
                           is_zero, phase)


def zeta(n, k=1):
    return Cyclotomic.zeta(n, k)


def test_fourth_root_squares_to_minus_one():
    assert zeta(4) * zeta(4) == -1


def test_fifth_roots_sum_to_zero():
    total = 1 + zeta(5) + zeta(5, 2) + zeta(5, 3) + zeta(5, 4)
    assert total.is_zero()


def test_scaled_primitive_fifth_sum():
    total = 50 * (zeta(5) + zeta(5, 2) + zeta(5, 3) + zeta(5, 4))
    assert total == -50


def test_as_rational_constant():
    x = Cyclotomic.from_rational(F(3, 4), order=6)
    assert as_rational(x) == F(3, 4)


def test_as_rational_rejects_zeta3():
    with pytest.raises(NonRationalError):
        as_rational(zeta(3))


def test_six_a_inner_product_value():
    z = zeta(6)
    val = F(1, 2 ** 6) + F(1, 2 ** 10) * (
        38 + 36 * z + 45 * zeta(6, 2) + 40 * zeta(6, 3)
        + 45 * zeta(6, 4) + 36 * zeta(6, 5))
    assert as_rational(val) == F(5, 2 ** 10)


def test_zeta_power_n_is_one():
    for n in range(1, 13):
        assert zeta(n, n) == 1
        assert zeta(n) ** n == 1


def test_primitive_roots_rebuild_cyclotomic_polynomial():
    from math import gcd
    for n in range(1, 13):
        prim = [k for k in range(n) if gcd(k, n) == 1]
        # evaluate prod (x - zeta^k) by expanding coefficients over Q(zeta_n)
        coeffs = [Cyclotomic.from_rational(1, n)]
        for k in prim:
            root = zeta(n, k)
            new = [Cyclotomic.from_rational(0, n)
                   for _ in range(len(coeffs) + 1)]
            for i, c in enumerate(coeffs):
                new[i + 1] = new[i + 1] + c
                new[i] = new[i] - c * root
            coeffs = new
        target = cyclotomic_polynomial(n)
        assert len(coeffs) == len(target)
        for c, t in zip(coeffs, target):
            assert c == t


def test_round_trip_through_field():
    q = F(-7, 12)
    assert as_rational(Cyclotomic.from_rational(q, order=10)) == q


def test_sqrt5_inside_fifth_field():
    s = 1 + 2 * zeta(5) + 2 * zeta(5, 4)
    assert as_rational(s * s) == 5


def test_phase_helpers():
    assert phase(F(1, 3)) == zeta(3)
    assert phase(F(7, 3)) == zeta(3)
    assert half_turn_phase(F(2, 5)) == zeta(5, -1)
    assert half_turn_phase(2) == 1


def test_inverse_and_division():
    x = 2 + zeta(7, 3)
    assert x * x.inverse() == 1
    assert (x / x) == 1


def scalar_str(x) -> str:
    if isinstance(x, int):
        return str(x)
    if isinstance(x, F):
        return str(x)
    if isinstance(x, Cyclotomic):
        return str(x)
    raise TypeError(f"not a scalar: {x!r}")


def test_serialization():
    assert scalar_str(F(13, 1024)) == "13/1024"
    assert scalar_str(F(3)) == "3"
    assert scalar_str(zeta(4)) == "4:[0,1]"


small_rationals = st.fractions(min_value=-3, max_value=3,
                               max_denominator=6)


def cyclotomics(order):
    deg = euler_phi(order)
    return st.lists(small_rationals, min_size=deg, max_size=deg).map(
        lambda cs: Cyclotomic(order, cs))


@settings(max_examples=60, deadline=None)
@given(cyclotomics(12), cyclotomics(12), cyclotomics(12))
def test_field_axioms(a, b, c):
    assert (a + b) * c == a * c + b * c
    assert (a * b) * c == a * (b * c)
    assert a + b == b + a
    assert a * b == b * a


@settings(max_examples=40, deadline=None)
@given(cyclotomics(8), cyclotomics(12))
def test_mixed_order_arithmetic(a, b):
    s = a + b
    assert s - b == a.embed(24)
    assert (a * b) - (b * a) == 0


def test_equal_values_from_different_fields_hash_alike():
    pairs = [
        (zeta(3), zeta(6, 2)),
        (zeta(4), zeta(12, 3)),
        (zeta(6), zeta(12, 2)),
        # sqrt(-3) = 1 + 2 zeta_3, which is not a root of unity
        (1 + 2 * zeta(3), (1 + 2 * zeta(3)).embed(12)),
        (F(1, 2) + zeta(5, 2), (F(1, 2) + zeta(5, 2)).embed(10)),
    ]
    for a, b in pairs:
        assert a == b
        assert a.order != b.order
        assert hash(a) == hash(b)
        assert len({a, b}) == 1
    assert len({zeta(3), zeta(3, 2), zeta(6, 2), zeta(6, 4)}) == 2


def test_zero_is_falsy_and_is_zero_is_not():
    assert not (zeta(3) - zeta(3))
    assert not Cyclotomic.zero(5)
    # the same zero reached across two orders: zeta_3 = zeta_6^2
    diff = zeta(3) - zeta(6, 2)
    assert diff.order == 6 and not diff and is_zero(diff) and diff.is_zero()
    assert zeta(5) and not is_zero(zeta(5)) and zeta(3) - zeta(6)
    assert is_zero(0) and is_zero(F(0)) and not is_zero(F(1, 3))


def test_lowest_terms_and_no_float():
    x = zeta(5) / 3
    assert (x.den, x.nums) == (3, (0, 1, 0, 0))
    for value in (zeta(5) / 3, 3 / zeta(5), zeta(5) * F(1, 3), F(1, 3) * zeta(5),
                  zeta(5) / F(2, 3), (zeta(5) - zeta(5)) / 7):
        assert all(type(c) is F for c in value.coeffs), value.coeffs
        assert all(type(n) is int for n in value.nums) and type(value.den) is int
    assert 3 / zeta(5) == 3 * zeta(5, 4)
    assert (zeta(5) - zeta(5)).den == 1


def test_division_by_zero_raises():
    x = 1 + 2 * zeta(5)
    for divisor in (0, F(0), Cyclotomic.zero(5), zeta(3) - zeta(6, 2)):
        with pytest.raises(ZeroDivisionError):
            x / divisor
    with pytest.raises(ZeroDivisionError):
        1 / Cyclotomic.zero(5)
    with pytest.raises(ZeroDivisionError):
        Cyclotomic.zero(12).inverse()
    with pytest.raises(ZeroDivisionError):
        Cyclotomic.zero(7) ** -1


ORACLE_ORDERS = (1, 2, 3, 4, 5, 6, 8, 10, 12, 15, 24)


@st.composite
def oracle_pairs(draw, orders=ORACLE_ORDERS):
    """(Cyclotomic, its FractionCyclotomic reference) of a drawn order."""
    import fraction_reference as ref
    order = draw(st.sampled_from(orders))
    deg = euler_phi(order)
    cs = draw(st.lists(small_rationals, min_size=deg, max_size=deg))
    return Cyclotomic(order, cs), ref.FractionCyclotomic(order, cs)


def assert_agrees(got, want):
    """got (a Cyclotomic) has the order, coefficients and every printed and
    hashed form of want (a FractionCyclotomic), and the same rationality."""
    assert isinstance(got, Cyclotomic)
    assert (got.order, got.coeffs) == (want.order, want.coeffs)
    assert got.den > 0 and gcd(got.den, *got.nums) == 1  # lowest terms
    assert all(type(c) is F for c in got.coeffs)
    assert (str(got), repr(got), hash(got)) == (str(want), repr(want), hash(want))
    assert got.is_zero() == want.is_zero() == (not got)
    if want.is_rational():
        assert as_rational(got) == want.coeffs[0]
    else:
        with pytest.raises(NonRationalError):
            as_rational(got)


def assert_same_outcome(op, got_args, want_args):
    try:
        want = op(*want_args)
    except ZeroDivisionError:
        with pytest.raises(ZeroDivisionError):
            op(*got_args)
        return
    assert_agrees(op(*got_args), want)


@settings(max_examples=150, deadline=None)
@given(oracle_pairs(), oracle_pairs(), small_rationals, st.integers(-3, 3),
       st.sampled_from((1, 2, 3, 5)))
def test_cyclotomic_agrees_with_the_fraction_reference(x, y, q, k, factor):
    import operator
    (a, ra), (b, rb) = x, y
    assert_agrees(a, ra)
    for op in (operator.add, operator.sub, operator.mul, operator.truediv):
        assert_same_outcome(op, (a, b), (ra, rb))
        assert_same_outcome(op, (a, q), (ra, q))
        assert_same_outcome(op, (q, a), (q, ra))
        assert_same_outcome(op, (a, k), (ra, k))
    assert_same_outcome(operator.neg, (a,), (ra,))
    assert_same_outcome(lambda u: u.inverse(), (a,), (ra,))
    assert_same_outcome(operator.pow, (a, k), (ra, k))
    assert_same_outcome(lambda u: u.embed(u.order * factor), (a,), (ra,))
    assert (a == b) == (ra == rb)
    assert (a == q) == (ra == q) and (a == a.embed(a.order * factor))
    if ra == rb:
        assert hash(a) == hash(b)


def test_non_monomial_inverses_agree_with_the_fraction_reference():
    import fraction_reference as ref
    rz = ref.FractionCyclotomic.zeta
    cases = [
        (1 + 2 * zeta(5), 1 + 2 * rz(5)),
        (2 + zeta(7, 3), 2 + rz(7, 3)),
        (F(1, 2) - 3 * zeta(12) + zeta(12, 5), F(1, 2) - 3 * rz(12) + rz(12, 5)),
        (zeta(15, 2) + zeta(3) * 4, rz(15, 2) + rz(3) * 4),
    ]
    # the scale of mckay.conway_report for node 4: -(1/(35 sqrt5))
    sqrt5 = 1 + 2 * zeta(5) + 2 * zeta(5, 4)
    ref_sqrt5 = 1 + 2 * rz(5) + 2 * rz(5, 4)
    cases.append((sqrt5, ref_sqrt5))
    for got, want in cases:
        assert_agrees(got.inverse(), want.inverse())
        assert_agrees(got ** -2, want ** -2)
        assert got * got.inverse() == 1
    scale = (-1) * (sqrt5 * 35).inverse()
    assert_agrees(scale, (-1) * (ref_sqrt5 * 35).inverse())
    # -sqrt5/175, with sqrt5 = -1 - 2 zeta^2 - 2 zeta^3 in the power basis
    assert str(scale) == "5:[1/175,0,2/175,2/175]"
