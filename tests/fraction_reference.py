"""Fraction references for the integer lattice set-up and the tau matrices.

Plain Fraction versions of ``linalg.det``, ``linalg.invert``,
``lattice.size_reduce_basis``, ``EvenLattice.ldl``,
``ExtendedE8Node.coset_classes`` and the component split of
``rootsys.decompose_root_lattice``, as they were before those moved onto
int-scaled rows, and the eigenvector construction of
``griess.tau_from_matrix`` as it was before tau became a polynomial in the
action matrix, and ``lattice.count_X_eta`` as it was before it moved onto
int tuples; ``rank`` is the rank over Q that ``linalg.rank_mod_p`` bounds
from below; ``FractionCyclotomic`` is ``scalars.Cyclotomic`` as it was
before it moved onto integer numerators over one denominator, with one
Fraction per power-basis coefficient and the inverse by the extended
Euclidean algorithm over Q[x].  ``steps`` is ``griess._steps`` as it was
before lowering pairs were found by int key codes: one dot product per
pair of vectors and an ``("e", y)`` lookup per hit; ``opp_terms`` is
``_Tables.opp_terms`` as it was built then, summing equal indices.  The
oracle tests compare the two.
"""

from fractions import Fraction
from math import gcd, lcm
from operator import mul


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


class FractionCyclotomic:
    """An element of Q(zeta_N) in canonical power-basis form, one Fraction
    per coefficient; ``repr`` and ``str`` print as ``scalars.Cyclotomic``."""

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs):
        from e8voa.scalars import euler_phi
        coeffs = tuple(Fraction(c) for c in coeffs)
        if len(coeffs) != euler_phi(order):
            raise ValueError("coefficient vector has wrong length")
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, name, value):
        raise AttributeError("Cyclotomic values are immutable")

    @staticmethod
    def from_rational(q, order: int = 1):
        from e8voa.scalars import euler_phi
        c = [Fraction(0)] * euler_phi(order)
        c[0] = Fraction(q)
        return FractionCyclotomic(order, c)

    @staticmethod
    def zeta(order: int, k: int = 1):
        from e8voa.scalars import power_table
        return FractionCyclotomic(order, power_table(order)[k % order])

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def is_rational(self) -> bool:
        return all(c == 0 for c in self.coeffs[1:])

    def _embedded_coeffs(self, target: int):
        from e8voa.scalars import euler_phi, power_table
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

    def embed(self, target: int):
        return FractionCyclotomic(target, self._embedded_coeffs(target))

    def _coerce(self, other):
        if isinstance(other, FractionCyclotomic):
            n = self.order * other.order // gcd(self.order, other.order)
            return self._embedded_coeffs(n), other._embedded_coeffs(n), n
        if isinstance(other, (int, Fraction)):
            a = list(self.coeffs)
            b = [Fraction(0)] * len(a)
            b[0] = Fraction(other)
            return a, b, self.order
        return None

    def __add__(self, other):
        co = self._coerce(other)
        if co is None:
            return NotImplemented
        a, b, n = co
        return FractionCyclotomic(n, [x + y for x, y in zip(a, b)])

    __radd__ = __add__

    def __neg__(self):
        return FractionCyclotomic(self.order, [-c for c in self.coeffs])

    def __sub__(self, other):
        co = self._coerce(other)
        if co is None:
            return NotImplemented
        a, b, n = co
        return FractionCyclotomic(n, [x - y for x, y in zip(a, b)])

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        from e8voa.scalars import power_table
        if isinstance(other, (int, Fraction)):
            q = Fraction(other)
            return FractionCyclotomic(self.order, [c * q for c in self.coeffs])
        if not isinstance(other, FractionCyclotomic):
            return NotImplemented
        a, b, n = self._coerce(other)
        deg = len(a)
        raw = [Fraction(0)] * (2 * deg - 1)
        for i, x in enumerate(a):
            if x == 0:
                continue
            for j, y in enumerate(b):
                if y:
                    raw[i + j] += x * y
        table = power_table(n)
        out = raw[:deg]
        for e in range(deg, len(raw)):
            c = raw[e]
            if c == 0:
                continue
            for i, r in enumerate(table[e % n]):
                if r:
                    out[i] += c * r
        return FractionCyclotomic(n, out)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            return self.inverse() ** (-k)
        out = FractionCyclotomic.from_rational(1, self.order)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def inverse(self):
        """Multiplicative inverse via the extended Euclidean algorithm."""
        from e8voa.scalars import cyclotomic_polynomial, euler_phi
        if self.is_zero():
            raise ZeroDivisionError("cyclotomic division by zero")
        n = self.order
        r0, r1 = [Fraction(c) for c in cyclotomic_polynomial(n)], list(self.coeffs)
        s0, s1 = [Fraction(0)], [Fraction(1)]

        def deg(p):
            for i in range(len(p) - 1, -1, -1):
                if p[i] != 0:
                    return i
            return -1

        def sub_shift(p, q, c, k):
            out = p[:] + [Fraction(0)] * max(0, len(q) + k - len(p))
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
        inv = [x / r1[0] for x in s1]
        phi = euler_phi(n)
        inv = inv + [Fraction(0)] * max(0, phi - len(inv))
        return FractionCyclotomic(n, inv[:phi])

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            q = Fraction(other)
            return FractionCyclotomic(self.order, [c / q for c in self.coeffs])
        if isinstance(other, FractionCyclotomic):
            return self * other.inverse()
        return NotImplemented

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.is_rational() and self.coeffs[0] == other
        if isinstance(other, FractionCyclotomic):
            a, b, _ = self._coerce(other)
            return a == b
        return NotImplemented

    def _minimal_form(self):
        from e8voa.linalg import coords_in_rowspan
        from e8voa.scalars import euler_phi
        n = self.order
        for m in range(3, n):
            if n % m == 0:
                rows = [FractionCyclotomic.zeta(m, j)._embedded_coeffs(n)
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


def steps(ctx, xs, gxs, den, offset=0):
    """Per vector x_i, the (index of e^y, offset + j) over the norm-4
    y = x_j - x_i; the x_i have one norm and are int tuples over den,
    with gxs[i] = G x_i / den as ints."""
    out = [[] for _ in xs]
    if not xs:
        return out
    target = sum(map(mul, gxs[0], xs[0])) - 2 * den  # den * (k - 2)
    index = ctx.index
    for i, (x, gx) in enumerate(zip(xs, gxs)):
        for j in range(i + 1, len(xs)):
            t = xs[j]
            if sum(map(mul, gx, t)) == target:
                y = tuple((p - q) // den for p, q in zip(t, x))
                out[i].append((index["e", y], offset + j))
                out[j].append((index["e", tuple(-c for c in y)], offset + i))
    return out


def opp_terms(ctx, x):
    """x(-1)^2 + x(-2) on the quad and deriv indices, equal indices summed
    and zeros dropped."""
    out = {}
    for i, key in enumerate(ctx.keys[:ctx.expo_start]):
        if key[0] == "q":
            a, b = key[1:]
            out[i] = out.get(i, 0) + (1 if a == b else 2) * x[a] * x[b]
        else:
            out[i] = out.get(i, 0) + x[key[1]]
    return tuple((i, w) for i, w in out.items() if w)
