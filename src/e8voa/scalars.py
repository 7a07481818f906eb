"""Exact scalar arithmetic: rationals and cyclotomic field elements.

Rationals are plain ``fractions.Fraction``.  Elements of Q(zeta_N) are kept
in the power basis 1, zeta, ..., zeta^(phi(N)-1) reduced modulo the N-th
cyclotomic polynomial, which makes equality testing canonical.  The
coefficients are integer numerators over one denominator: a product is an
integer convolution folded back by the rows of ``power_table``, and the
inverse is the product of the other Galois conjugates over the norm.  A
value hashes as its normalized trace Tr(x)/phi(N): an embedding scales
trace and degree alike, so equal values from different fields hash alike
and a rational hashes as its Fraction, while distinct values may share a
hash (zeta_3, zeta_3^2 and -1/2 do).  This module imports nothing from
the package.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm


class NonRationalError(ArithmeticError):
    """Raised when a cyclotomic value expected to be rational is not."""


@lru_cache(maxsize=None)
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


def _rational(x):
    """x itself if it is an int or a Fraction, else TypeError."""
    if isinstance(x, (int, Fraction)):
        return x
    raise TypeError(f"not a rational scalar: {x!r}")


def _encode(x):
    """(m, den, nums) with x = sum_j nums[j] zeta_m^j / den; x is an int, a
    Fraction or a Cyclotomic, else TypeError."""
    if isinstance(x, Cyclotomic):
        return (x.order if x.order > 2 else 1), x.den, x.nums
    x = _rational(x)
    return 1, x.denominator, (x.numerator,)


@lru_cache(maxsize=None)
def _images(n: int, step: int, count: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Row j < count: the nonzero (i, r) of the power-basis row of zeta_n^(j*step).
    Step 1 folds a product back onto the basis, step n/m embeds Q(zeta_m) and
    a unit step k applies the Galois automorphism zeta -> zeta^k."""
    table = power_table(n)
    return tuple(tuple((i, r) for i, r in enumerate(table[j * step % n]) if r)
                 for j in range(count))


def _apply(rows, nums, size: int) -> list[int]:
    """sum_j nums[j] * rows[j] on the power basis of length size."""
    out = [0] * size
    for c, row in zip(nums, rows):
        if c:
            for i, r in row:
                out[i] += c * r
    return out


def _times(n: int, a, b) -> list[int]:
    """The product of two numerator vectors of Q(zeta_n): convolution, then folding."""
    deg = len(a)
    raw = [0] * (2 * deg - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    raw[i + j] += x * y
    return _apply(_images(n, 1, 2 * deg - 1), raw, deg)


_set = object.__setattr__


def _cyc(order: int, den: int, nums) -> "Cyclotomic":
    """sum_j nums[j] zeta_order^j / den in lowest terms (den == 1 for zero)."""
    g = gcd(den, *nums)
    if den < 0:
        g = -g
    if g != 1:
        den //= g
        nums = [x // g for x in nums]
    x = object.__new__(Cyclotomic)
    _set(x, "order", order)
    _set(x, "den", den)
    _set(x, "nums", tuple(nums))
    return x


class Cyclotomic:
    """An element of Q(zeta_N) in canonical power-basis form: phi(N) integer
    numerators ``nums`` over one denominator ``den`` > 0, in lowest terms."""

    __slots__ = ("order", "den", "nums")

    def __init__(self, order: int, coeffs):
        coeffs = [_rational(c) for c in coeffs]
        if len(coeffs) != euler_phi(order):
            raise ValueError("coefficient vector has wrong length")
        den = lcm(*(c.denominator for c in coeffs))
        _set(self, "order", order)
        _set(self, "den", den)
        _set(self, "nums", tuple(c.numerator * (den // c.denominator) for c in coeffs))

    def __setattr__(self, name, value):
        raise AttributeError("Cyclotomic values are immutable")

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The power-basis coefficients as Fractions."""
        return tuple(Fraction(x, self.den) for x in self.nums)

    @staticmethod
    def zero(order: int = 1) -> "Cyclotomic":
        return _cyc(order, 1, [0] * euler_phi(order))

    @staticmethod
    def from_rational(q, order: int = 1) -> "Cyclotomic":
        q = _rational(q)
        return _cyc(order, q.denominator, [q.numerator] + [0] * (euler_phi(order) - 1))

    @staticmethod
    def zeta(order: int, k: int = 1) -> "Cyclotomic":
        """zeta_order^k."""
        return _cyc(order, 1, power_table(order)[k % order])

    def __bool__(self) -> bool:
        return any(self.nums)

    def is_zero(self) -> bool:
        return not any(self.nums)

    def is_rational(self) -> bool:
        return not any(self.nums[1:])

    def _nums_in(self, target: int) -> list[int]:
        """The numerators over den of this value in Q(zeta_target)."""
        if target == self.order:
            return list(self.nums)
        if target % self.order != 0:
            raise ValueError("can only embed into a field of multiple order")
        rows = _images(target, target // self.order, len(self.nums))
        return _apply(rows, self.nums, euler_phi(target))

    def embed(self, target: int) -> "Cyclotomic":
        return _cyc(target, self.den, self._nums_in(target))

    def _coerce(self, other):
        """(n, a, da, b, db): both operands as numerators over Q(zeta_n)."""
        if isinstance(other, Cyclotomic):
            n = lcm(self.order, other.order)
            return n, self._nums_in(n), self.den, other._nums_in(n), other.den
        if isinstance(other, (int, Fraction)):
            b = [other.numerator] + [0] * (len(self.nums) - 1)
            return self.order, self.nums, self.den, b, other.denominator
        return None

    def _sum(self, other, sign):
        co = self._coerce(other)
        if co is None:
            return NotImplemented
        n, a, da, b, db = co
        return _cyc(n, da * db, [x * db + sign * y * da for x, y in zip(a, b)])

    def __add__(self, other):
        return self._sum(other, 1)

    __radd__ = __add__

    def __neg__(self):
        return _cyc(self.order, self.den, [-x for x in self.nums])

    def __sub__(self, other):
        return self._sum(other, -1)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            q = other.numerator
            return _cyc(self.order, self.den * other.denominator, [x * q for x in self.nums])
        if not isinstance(other, Cyclotomic):
            return NotImplemented
        n, a, da, b, db = self._coerce(other)
        return _cyc(n, da * db, _times(n, a, b))

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
        """x = a/den has 1/x = den P / (a P), P the product of the other Galois
        conjugates sigma_k(a), k a unit mod N; a P is the norm, an integer."""
        a = self.nums
        if not any(a):
            raise ZeroDivisionError("cyclotomic division by zero")
        n, deg = self.order, len(a)
        prod = [1] + [0] * (deg - 1)
        for k in range(2, n):
            if gcd(k, n) == 1:
                prod = _times(n, prod, _apply(_images(n, k, deg), a, deg))
        norm = _times(n, a, prod)[0]
        return _cyc(n, norm, [self.den * x for x in prod])

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * Fraction(other.denominator, other.numerator)
        if isinstance(other, Cyclotomic):
            return self * other.inverse()
        return NotImplemented

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return (self.is_rational()
                    and self.nums[0] * other.denominator == other.numerator * self.den)
        if isinstance(other, Cyclotomic):
            # an embedding keeps numerators and den in lowest terms, since
            # the power bases are Z-bases of the rings of integers
            n = lcm(self.order, other.order)
            return self.den == other.den and self._nums_in(n) == other._nums_in(n)
        return NotImplemented

    def __hash__(self):
        """The hash of Tr(x)/phi(N); Tr(x) is the constant term of the
        rational sum of the Galois images sigma_k(x), k a unit mod N."""
        n, deg = self.order, len(self.nums)
        tr = sum(_apply(_images(n, k, deg), self.nums, deg)[0]
                 for k in range(n) if gcd(k, n) == 1)
        return hash(Fraction(tr, self.den * deg))

    def __repr__(self):
        return f"Cyclotomic({self.order}, {list(self.coeffs)})"

    def __str__(self):
        body = ",".join(str(c) for c in self.coeffs)
        return f"{self.order}:[{body}]"


def is_zero(x) -> bool:
    return not x


def as_rational(x) -> Fraction:
    """The value of x as an exact rational, or NonRationalError."""
    if isinstance(x, (int, Fraction)):
        return Fraction(x)
    if isinstance(x, Cyclotomic):
        if x.is_rational():
            return Fraction(x.nums[0], x.den)
        raise NonRationalError(f"not a rational value: {x}")
    raise TypeError(f"not a scalar: {x!r}")


def phase(t) -> "Cyclotomic | Fraction":
    """e^(2 pi i t) for rational t, as an exact root of unity."""
    t = _rational(t)
    q = t.denominator
    p = t.numerator % q
    if q == 1:
        return Fraction(1)
    return Cyclotomic.zeta(q, p)


def half_turn_phase(t) -> "Cyclotomic | Fraction":
    """e^(-pi i t) for rational t."""
    t = _rational(t)
    return phase(Fraction(-t.numerator, 2 * t.denominator))

