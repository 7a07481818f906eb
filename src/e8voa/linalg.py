"""Exact linear algebra over Q and over cyclotomic fields.

Matrices are lists of row lists.  Field entries may be int, Fraction, or
Cyclotomic; everything here is division-exact, no floating point anywhere.
"""

from __future__ import annotations

from fractions import Fraction

from .scalars import Cyclotomic, is_zero


def _inv(x):
    if isinstance(x, Cyclotomic):
        return x.inverse()
    return Fraction(1) / Fraction(x)


def mat_copy(m):
    return [list(r) for r in m]


def identity(n):
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def mat_mul(a, b):
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


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
    m = mat_copy(mat)
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
        inv = _inv(m[r][c])
        m[r] = [x * inv for x in m[r]]
        for i in range(len(m)):
            if i != r and not is_zero(m[i][c]):
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return m, pivots


def rank(mat) -> int:
    return len(rref(mat)[1])


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
        return [[Fraction(int(i == j)) for j in range(ncols)]
                for i in range(ncols)]
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


def clear_denominators(rows):
    """Scale a rational matrix to integers, row set unchanged up to scale."""
    from math import lcm
    denom = 1
    for row in rows:
        for x in row:
            denom = lcm(denom, Fraction(x).denominator)
    out = []
    for row in rows:
        out.append([int(Fraction(x) * denom) for x in row])
    return out


def det(mat) -> Fraction:
    """Determinant over Q by fraction-free elimination."""
    n = len(mat)
    m = [[Fraction(x) for x in row] for row in mat]
    sign = 1
    prev = Fraction(1)
    for c in range(n - 1):
        piv = None
        for i in range(c, n):
            if m[i][c] != 0:
                piv = i
                break
        if piv is None:
            return Fraction(0)
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            sign = -sign
        for i in range(c + 1, n):
            for j in range(c + 1, n):
                m[i][j] = (m[c][c] * m[i][j] - m[i][c] * m[c][j]) / prev
            m[i][c] = Fraction(0)
        prev = m[c][c]
    return sign * m[n - 1][n - 1]


def invert(mat):
    n = len(mat)
    aug = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
           for i, row in enumerate(mat)]
    red, pivots = rref(aug)
    if pivots != list(range(n)):
        raise ZeroDivisionError("matrix is singular")
    return [row[n:] for row in red]


def solve_right(mat, target):
    """One x with mat . x = target, or None if inconsistent (over a field)."""
    if not mat:
        return None
    ncols = len(mat[0])
    aug = [list(row) + [t] for row, t in zip(mat, target)]
    red, pivots = rref(aug)
    for r in range(len(pivots), len(red)):
        if not is_zero(red[r][ncols]):
            return None
    # any row with pivot in the last column means inconsistent
    if ncols in pivots:
        return None
    x = [Fraction(0)] * ncols
    for r, c in enumerate(pivots):
        x[c] = red[r][ncols]
    return x


def coords_in_rowspan(basis_rows, v):
    """Coefficients c with sum(c_i * basis_rows[i]) = v, or None."""
    if not basis_rows:
        return None if any(not is_zero(x) for x in v) else []
    cols = [list(col) for col in zip(*basis_rows)]
    return solve_right(cols, list(v))


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


def integer_coords_in_rowspan(basis_rows, v):
    """Integer coefficients over a rational row basis, or None."""
    c = coords_in_rowspan(basis_rows, v)
    if c is None:
        return None
    out = []
    for x in c:
        q = Fraction(x)
        if q.denominator != 1:
            return None
        out.append(q.numerator)
    return out


