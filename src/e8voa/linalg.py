"""Exact linear algebra over Q and over cyclotomic fields.

Matrices are lists of row lists.  Field entries may be int, Fraction, or
Cyclotomic; everything here is division-exact, no floating point anywhere.
``rank_mod_p`` bounds the rank over Q(zeta_m) from below on sparse {column:
int} rows mod a prime below 2^15 (``residues_mod_p`` maps Q(zeta_m) there),
where a product of residues is a one-digit int: on the U2 blocks it takes
0.6 of the time at 2^31 - 1.
"""

from __future__ import annotations

from bisect import bisect
from fractions import Fraction
from math import lcm

from .scalars import Cyclotomic, _encode, is_zero


def scalar_inverse(x):
    """1/x for a rational or cyclotomic scalar."""
    if isinstance(x, Cyclotomic):
        return x.inverse()
    return Fraction(1) / Fraction(x)


def identity(n):
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def vec_mat(v, a):
    n = len(a[0])
    out = [0] * n
    for x, row in zip(v, a):
        if x:
            for j, y in enumerate(row):
                if y:
                    out[j] = out[j] + x * y
    return out


def rref(mat):
    """Reduced row echelon form; returns (rows, pivot_columns)."""
    m = [list(r) for r in mat]
    if not m:
        return m, []
    ncols = len(m[0])
    pivots = []
    r = 0
    for c in range(ncols):
        if r >= len(m):
            break
        piv = None
        for i in range(r, len(m)):
            if not is_zero(m[i][c]):
                piv = i
                break
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = scalar_inverse(m[r][c])
        m[r] = [x * inv for x in m[r]]
        for i in range(len(m)):
            if i != r and not is_zero(m[i][c]):
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return m, pivots


def kernel_basis(mat):
    """Basis of the right kernel {x : mat . x = 0} as row vectors."""
    if not mat:
        return []
    ncols = len(mat[0])
    red, pivots = rref(mat)
    pivset = set(pivots)
    free = [c for c in range(ncols) if c not in pivset]
    basis = []
    for f in free:
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for r, c in enumerate(pivots):
            v[c] = -red[r][f]
        basis.append(v)
    return basis


def kernel_basis_int(rows, ncols):
    """Right kernel of an integer matrix by fraction-free elimination.

    Much faster than generic rref for the large structured matrices that
    occur in coset-kernel computations; returns Fraction row vectors.
    """
    m = [list(r) for r in rows if any(r)]
    if not m:
        return identity(ncols)
    pivots = []
    r = 0
    prev = 1
    for c in range(ncols):
        if r >= len(m):
            break
        piv = None
        for i in range(r, len(m)):
            if m[i][c]:
                piv = i
                break
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        b = m[r][c]
        rowr = m[r]
        for i in range(r + 1, len(m)):
            rowi = m[i]
            a = rowi[c]
            if a == 0 and b == prev:
                continue
            for j in range(c, ncols):
                rowi[j] = (b * rowi[j] - a * rowr[j]) // prev
        prev = b
        pivots.append(c)
        r += 1
    pivset = set(pivots)
    free = [c for c in range(ncols) if c not in pivset]
    basis = []
    for f in free:
        x = [Fraction(0)] * ncols
        x[f] = Fraction(1)
        for rr in range(r - 1, -1, -1):
            c = pivots[rr]
            s = sum(m[rr][j] * x[j] for j in range(c + 1, ncols) if x[j])
            x[c] = -Fraction(s) / m[rr][c]
        basis.append(x)
    return basis


# p = 1 mod 2520 = lcm(1..10): F_p holds zeta_m for every field order m <= 10
# (U2 needs 1, 3, 4, 5 and 6), and p < 2^15 keeps residue products one digit
RANK_PRIME = 30241


def rank_mod_p(rows):
    """Rank over F_p, p = RANK_PRIME, of an int matrix of {column: int} rows.

    Reduction mod p is a ring map, so every minor that vanishes over Q (or
    over Q(zeta_m), through ``residues_mod_p``) vanishes mod p: this rank is
    at most the rank over the field, and ``ncols - rank_mod_p`` bounds the
    kernel dimension over it from above.  Each step pivots on the sparsest
    remaining row, to keep the fill low.
    """
    p = RANK_PRIME
    m = [r for r in ({c: x % p for c, x in row.items() if x % p} for row in rows) if r]
    rank = 0
    while m:
        pivot = min(m, key=len)
        m.remove(pivot)
        c, x = pivot.popitem()
        inv = -pow(x, -1, p)
        for row in m:
            f = row.pop(c, 0) * inv % p
            if f:
                for j, y in pivot.items():
                    z = (row.get(j, 0) + f * y) % p
                    if z:
                        row[j] = z
                    else:
                        del row[j]
        m = [row for row in m if row]
        rank += 1
    return rank


def residues_mod_p(rows):
    """Rows of int, Fraction or Cyclotomic scalars as ints mod p = RANK_PRIME, by the
    ring map sum_j nums_j zeta_k^j / den -> sum_j nums_j r^(j m/k) / den: m is the lcm
    of the orders, r the first a^((p-1)/m), a = 2, 3, ..., of order m (so a root of the
    m-th cyclotomic polynomial mod p).  ArithmeticError unless m | p - 1 and p divides no den."""
    p = RANK_PRIME
    coded = [[_encode(x) for x in row] for row in rows]
    m = lcm(1, *(k for row in coded for k, _, _ in row))
    if (p - 1) % m:
        raise ArithmeticError(f"F_{p} has no primitive {m}-th root of unity")
    r = next(r for r in (pow(a, (p - 1) // m, p) for a in range(2, p))
             if all(pow(r, m // q, p) != 1 for q in range(2, m + 1) if m % q == 0))

    def residue(k, den, nums):
        if den % p == 0:
            raise ArithmeticError(f"a denominator vanishes mod {p}")
        return sum(c * pow(r, j * (m // k), p) for j, c in enumerate(nums)) * pow(den, -1, p) % p

    return [[residue(*x) for x in row] for row in coded]


def clear_denominators(rows):
    """(int rows, den) with rows[i][j] = int_rows[i][j] / den; int or Fraction entries."""
    den = lcm(*(x.denominator for row in rows for x in row))
    return [[x.numerator * (den // x.denominator) for x in row] for row in rows], den


def det(mat) -> Fraction:
    """Determinant over Q: Bareiss elimination on the rows scaled to ints.

    Every division by the previous pivot is exact (Sylvester's identity),
    so the entries stay integral throughout.
    """
    n = len(mat)
    m, den = clear_denominators(mat)
    sign = 1
    prev = 1
    for c in range(n - 1):
        piv = next((i for i in range(c, n) if m[i][c]), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            sign = -sign
        rowc = m[c]
        p = rowc[c]
        for i in range(c + 1, n):
            rowi = m[i]
            a = rowi[c]
            for j in range(c + 1, n):
                rowi[j] = (p * rowi[j] - a * rowc[j]) // prev
        prev = p
    return Fraction(sign * m[n - 1][n - 1] if n else 1, den ** n)


def invert(mat):
    """Inverse over Q, as Fractions, by fraction-free Gauss-Jordan on [M | I].

    M is mat scaled to ints by den.  Each step replaces every other row by
    (p * row - a * pivot_row) / previous pivot, exactly; at the end the left
    block is d*I and the right block d*M^-1, so mat^-1 = den * right / d.
    """
    n = len(mat)
    m, den = clear_denominators(mat)
    aug = [row + [int(i == j) for j in range(n)] for i, row in enumerate(m)]
    prev = 1
    for c in range(n):
        piv = next((i for i in range(c, n) if aug[i][c]), None)
        if piv is None:
            raise ZeroDivisionError("matrix is singular")
        aug[c], aug[piv] = aug[piv], aug[c]
        rowc = aug[c]
        p = rowc[c]
        for i in range(n):
            if i != c:
                a = aug[i][c]
                aug[i] = [(p * x - a * y) // prev for x, y in zip(aug[i], rowc)]
        prev = p
    return [[Fraction(den * x, prev) for x in row[n:]] for row in aug]


def hermite_normal_form(rows):
    """Row-style Hermite normal form over Z; returns the nonzero rows."""
    m = [[int(x) for x in row] for row in rows]
    if not m:
        return []
    ncols = len(m[0])
    r = 0
    for c in range(ncols):
        if r >= len(m):
            break
        piv = None
        for i in range(r, len(m)):
            if m[i][c] != 0 and (piv is None or abs(m[i][c]) < abs(m[piv][c])):
                piv = i
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        while True:
            done = True
            for i in range(r + 1, len(m)):
                if m[i][c] != 0:
                    q = m[i][c] // m[r][c]
                    m[i] = [a - q * b for a, b in zip(m[i], m[r])]
                    if m[i][c] != 0:
                        m[r], m[i] = m[i], m[r]
                        done = False
            if done:
                break
        if m[r][c] < 0:
            m[r] = [-a for a in m[r]]
        for i in range(r):
            q = m[i][c] // m[r][c]
            if q:
                m[i] = [a - q * b for a, b in zip(m[i], m[r])]
        r += 1
    return [row for row in m[:r]]


class RowSpace:
    """The span of rows added one at a time, kept in reduced row echelon form.

    Each echelon row records its combination of the input rows, so one
    reduction answers every later ``coords`` query.  Scalars may be int,
    Fraction or Cyclotomic, as in ``rref``.
    """

    def __init__(self, rows=()):
        self.rows = []  # 1 on its own pivot column, 0 on the other pivots
        self.pivots = []
        self.inputs = 0  # input rows added, dependent ones included
        self._combos = []  # per echelon row: {input index: coefficient}
        self._tails = None  # per echelon row: its nonzero (column, entry) off the pivots
        for row in rows:
            self.add(row)

    def add(self, v):
        """Add one input row and return the echelon row it inserted, as inserted;
        None, with the form unchanged, if it is in the span."""
        res = list(v)
        used = []
        for p, row, c in zip(self.pivots, self.rows, self._combos):
            f = res[p]
            if not is_zero(f):
                res = _minus_scaled(res, f, row)
                used.append((f, c))
        self.inputs += 1
        q = next((j for j, x in enumerate(res) if not is_zero(x)), None)
        if q is None:
            return None
        inv = scalar_inverse(res[q])
        res = [x if is_zero(x) else x * inv for x in res]
        combo = {self.inputs - 1: inv}
        for f, c in used:
            _combo_sub(combo, f * inv, c)
        for i, row in enumerate(self.rows):
            f = row[q]
            if not is_zero(f):
                self.rows[i] = _minus_scaled(row, f, res)
                _combo_sub(self._combos[i], f, combo)
        at = bisect(self.pivots, q)
        self.rows.insert(at, res)
        self.pivots.insert(at, q)
        self._combos.insert(at, combo)
        self._tails = None
        return res

    def coords(self, v):
        """Coefficients c over the input rows with sum(c_i * input_i) = v, or None.

        The residual of v must vanish on every column, not only on the pivots.
        """
        if self._tails is None:
            pivots = set(self.pivots)
            self._tails = [[(j, x) for j, x in enumerate(row)
                            if j not in pivots and not is_zero(x)]
                           for row in self.rows]
        pivots = self.pivots
        res = list(v)
        for p, tail in zip(pivots, self._tails):
            f = v[p]
            if not is_zero(f):
                for j, y in tail:
                    res[j] = res[j] - f * y
        for p in pivots:
            res[p] = 0
        if any(not is_zero(x) for x in res):
            return None
        out = [Fraction(0)] * self.inputs
        for p, combo in zip(pivots, self._combos):
            f = v[p]
            if not is_zero(f):
                for k, y in combo.items():
                    out[k] = out[k] + f * y
        return out


def _minus_scaled(row, f, other):
    """row - f * other, skipping the zero entries of other."""
    return [x if is_zero(y) else x - f * y for x, y in zip(row, other)]


def _combo_sub(combo, f, other):
    """combo -= f * other, on {index: coefficient} dicts."""
    for k, y in other.items():
        combo[k] = combo.get(k, 0) - f * y
