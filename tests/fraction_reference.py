"""Fraction references for the integer lattice set-up and the tau matrices.

Plain Fraction versions of ``linalg.det``, ``linalg.invert``,
``lattice.size_reduce_basis``, ``EvenLattice.ldl``,
``ExtendedE8Node.coset_classes`` and the component split of
``rootsys.decompose_root_lattice``, as they were before those moved onto
int-scaled rows, and the eigenvector construction of
``griess.tau_from_matrix`` as it was before tau became a polynomial in the
action matrix, and ``lattice.count_X_eta`` as it was before it moved onto
int tuples; ``rank`` is the rank over Q that ``linalg.rank_mod_p`` bounds
from below.  The oracle tests compare the two.
"""

from fractions import Fraction
from math import lcm


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


def rank(mat) -> int:
    """Rank over Q: the number of pivots of the reduced echelon form."""
    return len(rref(mat)[1])


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


def kernel_basis(mat):
    """A basis of the right kernel over Q, read off the reduced echelon form."""
    red, pivots = rref(mat)
    basis = []
    for f in range(len(mat[0])):
        if f not in pivots:
            x = [Fraction(int(j == f)) for j in range(len(mat[0]))]
            for row, c in zip(red, pivots):
                x[c] = -row[f]
            basis.append(x)
    return basis


def tau_matrix(mat, allowed):
    """tau = C D C^-1: the columns of C are a kernel basis of mat - lam for
    each allowed lam, D is -1 on the 1/16 class and +1 elsewhere; raises
    ValueError unless the eigenvectors span."""
    n = len(mat)
    cols, signs = [], []
    for lam in allowed:
        shifted = [[x - lam if i == j else x for j, x in enumerate(row)]
                   for i, row in enumerate(mat)]
        for v in kernel_basis(shifted):
            cols.append(v)
            signs.append(-1 if (lam - Fraction(1, 16)).denominator == 1 else 1)
    if len(cols) != n:
        raise ValueError(f"{len(cols)} of {n} eigenvector dimensions found")
    c = [list(row) for row in zip(*cols)]
    cd = [[s * x for x, s in zip(row, signs)] for row in c]
    c_inv_cols = list(zip(*invert(c)))
    return [[sum(x * y for x, y in zip(row, col)) for col in c_inv_cols]
            for row in cd]


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


def ldl(gram):
    """(M, E, D, U) of EvenLattice.ldl by Fraction elimination on the Gram
    matrix; raises NotPositiveDefinite at the first nonpositive pivot."""
    from e8voa.lattice import NotPositiveDefinite
    n = len(gram)
    q = [[Fraction(x) for x in row] for row in gram]
    d, u = [], []
    for i in range(n):
        di = q[i][i]
        if di <= 0:
            raise NotPositiveDefinite("Gram matrix is not positive definite")
        ui = [x / di for x in q[i][i + 1:]]
        for k in range(i + 1, n):
            for l in range(k, n):
                q[k][l] -= di * ui[k - i - 1] * ui[l - i - 1]
        d.append(di)
        u.append(ui)
    e_den = lcm(*(x.denominator for x in d))
    m_den = lcm(*(x.denominator for row in u for x in row))
    return (m_den, e_den, [int(x * e_den) for x in d],
            [[int(x * m_den) for x in row] for row in u])


def coset_classes(node):
    """Root coords -> j with root in j*alpha_i + L(i), by solving rational
    coordinates over the L(i) basis and trying each j."""
    from e8voa.linalg import RowSpace
    from e8voa.rootsys import e8_paper_data
    e8 = e8_paper_data()["lattice"]
    span = RowSpace(node.lattice.basis)
    ai = span.coords(node.alphas[node.i])
    classes = {}
    for r in node.e8_root_coords:
        c = span.coords(e8.ambient(r))
        classes[r] = next(j for j in range(node.n)
                          if all((x - j * y).denominator == 1 for x, y in zip(c, ai)))
    return classes


def root_components(lat):
    """[(simple coords, root coords)] of a root lattice's components, with
    every pairing taken as a Fraction by EvenLattice.pair."""
    from e8voa.rootsys import _lex_positive, short_root_coords
    coords = short_root_coords(lat)
    pos = [c for c in coords if _lex_positive(c)]
    posset = set(pos)
    simple = [p for p in pos
              if not any(tuple(a - b for a, b in zip(p, q)) in posset
                         for q in pos if q != p)]
    comps = []
    for s in simple:
        linked = [c for c in comps if any(lat.pair(s, t) != 0 for t in c)]
        comps = [c for c in comps if c not in linked] + [sum(linked, []) + [s]]
    out = []
    for comp in comps:
        roots = [r for r in coords if any(lat.pair(r, s) != 0 for s in comp)]
        out.append((sorted(comp), roots))
    return sorted(out)


def count_X_eta(root_system, gamma, eta) -> int:
    """|{(alpha, beta): alpha + beta = eta}| over roots alpha and coset-minimal
    beta, on Fraction tuples; raises NotMinimal unless eta is coset-minimal."""
    from e8voa.lattice import NotMinimal, coset_min_norm
    info = gamma.min_info or coset_min_norm(gamma)
    minimal = set(tuple(v) for v in info["reps"])
    eta = tuple(Fraction(x) for x in eta)
    if eta not in minimal:
        raise NotMinimal("eta is not of minimal norm in its coset")
    count = 0
    for alpha in root_system.roots:
        beta = tuple(e - a for e, a in zip(eta, alpha))
        if beta in minimal:
            count += 1
    return count
