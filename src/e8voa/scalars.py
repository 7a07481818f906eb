"""Exact scalar arithmetic: rationals and cyclotomic field elements.

Rationals are plain ``fractions.Fraction``.  Elements of Q(zeta_N) are kept
in the power basis 1, zeta, ..., zeta^(phi(N)-1) reduced modulo the N-th
cyclotomic polynomial, which makes equality testing canonical.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd


class NonRationalError(ArithmeticError):
    """Raised when a cyclotomic value expected to be rational is not."""


def euler_phi(n: int) -> int:
    result = n
    p = 2
    m = n
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            result -= result // p
        p += 1
    if m > 1:
        result -= result // m
    return result


def _poly_divide_exact(num: list[int], den: list[int]) -> list[int]:
    # exact division of integer polynomials, low-to-high coefficients
    num = num[:]
    q = [0] * (len(num) - len(den) + 1)
    for i in range(len(q) - 1, -1, -1):
        c = num[len(den) - 1 + i]
        if c % den[-1] != 0:
            raise ArithmeticError("polynomial division is not exact over Z")
        q[i] = c // den[-1]
        for j, d in enumerate(den):
            num[i + j] -= q[i] * d
    if any(c != 0 for c in num):
        raise ArithmeticError("polynomial division leaves a remainder")
    return q


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients of the n-th cyclotomic polynomial, low-to-high, monic."""
    if n == 1:
        return (-1, 1)
    poly = [0] * (n + 1)
    poly[0] = -1
    poly[n] = 1
    for d in range(1, n):
        if n % d == 0:
            poly = _poly_divide_exact(poly, list(cyclotomic_polynomial(d)))
    return tuple(poly)


@lru_cache(maxsize=None)
def power_table(n: int) -> tuple[tuple[int, ...], ...]:
    """Row k: the power-basis expansion of zeta_n^k, 0 <= k < n; all integers."""
    deg = euler_phi(n)
    phi_n = cyclotomic_polynomial(n)
    # x^deg = -(phi_n[0] + ... + phi_n[deg-1] x^(deg-1)), since phi_n monic
    top = tuple(-c for c in phi_n[:deg])
    rows: list[tuple[int, ...]] = []
    for k in range(n):
        if k < deg:
            rows.append(tuple(int(j == k) for j in range(deg)))
        else:
            prev = rows[k - 1]
            shifted = [0] + list(prev[: deg - 1])
            lead = prev[deg - 1]
            if lead:
                shifted = [s + lead * t for s, t in zip(shifted, top)]
            rows.append(tuple(shifted))
    return tuple(rows)


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"not a rational scalar: {x!r}")


class Cyclotomic:
    """An element of Q(zeta_N) in canonical power-basis form."""

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs):
        coeffs = tuple(_as_fraction(c) for c in coeffs)
        if len(coeffs) != euler_phi(order):
            raise ValueError("coefficient vector has wrong length")
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, name, value):
        raise AttributeError("Cyclotomic values are immutable")

    @staticmethod
    def zero(order: int = 1) -> "Cyclotomic":
        return Cyclotomic(order, [Fraction(0)] * euler_phi(order))

    @staticmethod
    def from_rational(q, order: int = 1) -> "Cyclotomic":
        c = [Fraction(0)] * euler_phi(order)
        c[0] = _as_fraction(q)
        return Cyclotomic(order, c)

    @staticmethod
    def zeta(order: int, k: int = 1) -> "Cyclotomic":
        """zeta_order^k."""
        row = power_table(order)[k % order]
        return Cyclotomic(order, row)

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def is_rational(self) -> bool:
        return all(c == 0 for c in self.coeffs[1:])

    def _embedded_coeffs(self, target: int) -> list[Fraction]:
        if target == self.order:
            return list(self.coeffs)
        if target % self.order != 0:
            raise ValueError("can only embed into a field of multiple order")
        step = target // self.order
        table = power_table(target)
        out = [Fraction(0)] * euler_phi(target)
        for j, c in enumerate(self.coeffs):
            if c == 0:
                continue
            row = table[(j * step) % target]
            for i, r in enumerate(row):
                if r:
                    out[i] += c * r
        return out

    def embed(self, target: int) -> "Cyclotomic":
        return Cyclotomic(target, self._embedded_coeffs(target))

    def _coerce(self, other):
        if isinstance(other, Cyclotomic):
            n = self.order * other.order // gcd(self.order, other.order)
            return self._embedded_coeffs(n), other._embedded_coeffs(n), n
        if isinstance(other, (int, Fraction)):
            a = list(self.coeffs)
            b = [Fraction(0)] * len(a)
            b[0] = _as_fraction(other)
            return a, b, self.order
        return None

    def __add__(self, other):
        co = self._coerce(other)
        if co is None:
            return NotImplemented
        a, b, n = co
        return Cyclotomic(n, [x + y for x, y in zip(a, b)])

    __radd__ = __add__

    def __neg__(self):
        return Cyclotomic(self.order, [-c for c in self.coeffs])

    def __sub__(self, other):
        co = self._coerce(other)
        if co is None:
            return NotImplemented
        a, b, n = co
        return Cyclotomic(n, [x - y for x, y in zip(a, b)])

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            q = _as_fraction(other)
            return Cyclotomic(self.order, [c * q for c in self.coeffs])
        if not isinstance(other, Cyclotomic):
            return NotImplemented
        co = self._coerce(other)
        a, b, n = co
        deg = len(a)
        raw = [Fraction(0)] * (2 * deg - 1)
        for i, x in enumerate(a):
            if x == 0:
                continue
            for j, y in enumerate(b):
                if y:
                    raw[i + j] += x * y
        table = power_table(n)
        out = raw[:deg] + [Fraction(0)] * (deg - len(raw[:deg]))
        for e in range(deg, len(raw)):
            c = raw[e]
            if c == 0:
                continue
            row = table[e % n]
            for i, r in enumerate(row):
                if r:
                    out[i] += c * r
        return Cyclotomic(n, out)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            return self.inverse() ** (-k)
        out = Cyclotomic.from_rational(1, self.order)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def inverse(self) -> "Cyclotomic":
        """Multiplicative inverse via the extended Euclidean algorithm."""
        if self.is_zero():
            raise ZeroDivisionError("cyclotomic division by zero")
        n = self.order
        modulus = [Fraction(c) for c in cyclotomic_polynomial(n)]
        a = list(self.coeffs)
        # extended gcd of a and modulus in Q[x]
        r0, r1 = modulus, a
        s0, s1 = [Fraction(0)], [Fraction(1)]

        def deg(p):
            for i in range(len(p) - 1, -1, -1):
                if p[i] != 0:
                    return i
            return -1

        def scale(p, c):
            return [x * c for x in p]

        def sub_shift(p, q, c, k):
            out = p[:]
            while len(out) < len(q) + k:
                out.append(Fraction(0))
            for i, x in enumerate(q):
                out[i + k] -= c * x
            return out

        while deg(r1) > 0:
            while deg(r0) >= deg(r1):
                d = deg(r0) - deg(r1)
                c = r0[deg(r0)] / r1[deg(r1)]
                r0 = sub_shift(r0, r1, c, d)
                s0 = sub_shift(s0, s1, c, d)
            r0, r1 = r1, r0
            s0, s1 = s1, s0
        if deg(r1) != 0:
            raise ZeroDivisionError("element is a zero divisor, not invertible")
        inv = scale(s1, 1 / r1[0])
        phi = euler_phi(n)
        inv = inv + [Fraction(0)] * max(0, phi - len(inv))
        return Cyclotomic(n, inv[:phi])

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            q = _as_fraction(other)
            return Cyclotomic(self.order, [c / q for c in self.coeffs])
        if isinstance(other, Cyclotomic):
            return self * other.inverse()
        return NotImplemented

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.is_rational() and self.coeffs[0] == other
        if isinstance(other, Cyclotomic):
            a, b, _ = self._coerce(other)
            return a == b
        return NotImplemented

    def _minimal_form(self):
        """(m, coeffs) in Q(zeta_m) for the least m; equal values share it,
        since Q(zeta_a) and Q(zeta_b) meet in Q(zeta_gcd(a, b))."""
        from .linalg import coords_in_rowspan
        n = self.order
        for m in range(3, n):
            if n % m == 0:
                rows = [Cyclotomic.zeta(m, j)._embedded_coeffs(n)
                        for j in range(euler_phi(m))]
                c = coords_in_rowspan(rows, self.coeffs)
                if c is not None:
                    return m, tuple(c)
        return n, self.coeffs

    def __hash__(self):
        if self.is_rational():
            return hash(self.coeffs[0])
        return hash(self._minimal_form())

    def __repr__(self):
        return f"Cyclotomic({self.order}, {list(self.coeffs)})"

    def __str__(self):
        body = ",".join(str(c) for c in self.coeffs)
        return f"{self.order}:[{body}]"


Scalar = object  # int | Fraction | Cyclotomic, duck-typed throughout


def is_zero(x) -> bool:
    if isinstance(x, Cyclotomic):
        return x.is_zero()
    return x == 0


def as_rational(x) -> Fraction:
    """The value of x as an exact rational, or NonRationalError."""
    if isinstance(x, (int, Fraction)):
        return Fraction(x)
    if isinstance(x, Cyclotomic):
        if x.is_rational():
            return x.coeffs[0]
        raise NonRationalError(f"not a rational value: {x}")
    raise TypeError(f"not a scalar: {x!r}")


def phase(t) -> "Cyclotomic | Fraction":
    """e^(2 pi i t) for rational t, as an exact root of unity."""
    t = _as_fraction(t)
    q = t.denominator
    p = t.numerator % q
    if q == 1:
        return Fraction(1)
    return Cyclotomic.zeta(q, p)


def half_turn_phase(t) -> "Cyclotomic | Fraction":
    """e^(-pi i t) for rational t."""
    t = _as_fraction(t)
    return phase(Fraction(-t.numerator, 2 * t.denominator))

