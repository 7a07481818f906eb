import itertools
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from e8voa.scalars import (Cyclotomic, NonRationalError, as_rational,
                           cyclotomic_polynomial, euler_phi, half_turn_phase,
                           phase)


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
