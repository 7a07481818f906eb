"""Fraction references for the integer lattice set-up.

Plain Fraction versions of ``linalg.det``, ``linalg.invert`` and
``lattice.size_reduce_basis``, as they were before those moved onto
int-scaled rows; the oracle tests compare the two.
"""

from fractions import Fraction


def rref(mat):
    """Reduced row echelon form over Q; returns (rows, pivot_columns)."""
    m = [[Fraction(x) for x in r] for r in mat]
    pivots = []
    r = 0
    for c in range(len(m[0]) if m else 0):
        if r >= len(m):
            break
        piv = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return m, pivots


def det(mat) -> Fraction:
    """Determinant over Q by fraction-free elimination on Fractions."""
    n = len(mat)
    m = [[Fraction(x) for x in row] for row in mat]
    sign = 1
    prev = Fraction(1)
    for c in range(n - 1):
        piv = next((i for i in range(c, n) if m[i][c] != 0), None)
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
    """Inverse over Q by the reduced echelon form of [M | I]."""
    n = len(mat)
    aug = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
           for i, row in enumerate(mat)]
    red, pivots = rref(aug)
    if pivots != list(range(n)):
        raise ZeroDivisionError("matrix is singular")
    return [row[n:] for row in red]


def size_reduce_basis_rows(basis, scale):
    """The rows size_reduce_basis keeps: greedy pairwise reduction on Fractions."""
    basis = [[Fraction(x) for x in r] for r in basis]
    n = len(basis)
    scale = Fraction(scale)

    def norm(v):
        return scale * sum(x * x for x in v)

    def dot(u, v):
        return scale * sum(x * y for x, y in zip(u, v))

    improved = True
    while improved:
        improved = False
        order = sorted(range(n), key=lambda i: (norm(basis[i]), basis[i]))
        for i in order:
            for j in order:
                if i == j or norm(basis[j]) == 0:
                    continue
                ti = round(dot(basis[i], basis[j]) / norm(basis[j]))
                if ti == 0:
                    continue
                cand = [a - ti * b for a, b in zip(basis[i], basis[j])]
                if norm(cand) < norm(basis[i]):
                    basis[i] = cand
                    improved = True
    basis.sort(key=lambda r: (norm(r), r))
    return [tuple(r) for r in basis]
