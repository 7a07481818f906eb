"""Even lattices: the pairing, the ambient map, dual cosets, enumeration.

``EvenLattice`` is the one owner of the three lattice operations the rest
of the package uses: the bilinear form u^T G v on coefficient vectors
(``pair``), the linear-combination map from coefficients to ambient
vectors (``ambient``), and the enumeration of the cosets of the lattice in
its dual (``dual_coset_shifts``).  The Gram matrix and the basis are
scaled to integers over one denominator each, once per lattice, so the
pairing and the ambient map sum on Python ints.

Short-vector enumeration is exact Fincke-Pohst on ints: the LDL
decomposition of the Gram matrix is computed fraction-free (Bareiss) on
the integer Gram rows once per lattice and kept over two common
denominators (one for the off-diagonal part, one for the diagonal), each
search scales its shift and bound alike, and every level's range is an
integer square root.  Nothing here ever touches floating point.  Short
vectors leave this module as int tuples: ``enumerate_short`` hands out
(S*x, N) with S the shift's denominator and N = norm(x) * S^2 * g, g the
denominator of the Gram rows; ``coords_of_norm`` the coefficient tuples
of one exact norm; ``coset_minimum`` the minimal vectors of a coset over
one denominator.  Only ``coset_min_norm`` turns them into ambient rational
tuples.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import gcd, isqrt, lcm
from operator import add, mul, neg, sub

from .linalg import (RowSpace, clear_denominators, det, hermite_normal_form,
                     invert)


class NotPositiveDefinite(ValueError):
    pass


class NotMinimal(ValueError):
    pass


_ZERO = Fraction(0)


def _over_one_den(v):
    """(ints, den) with v_i = ints_i / den, for int or Fraction entries."""
    if all(type(x) is int for x in v):
        return v, 1
    (ints,), den = clear_denominators([v])
    return ints, den


class EvenLattice:
    """A positive definite lattice given by basis rows and a Gram matrix.

    The form is the Gram matrix alone: ``gram`` defaults to the ambient
    dot products of the basis rows, and a lattice whose form is not that
    (a sqrt(2)-rescaled one, say) passes its Gram matrix, so it never
    needs irrational coordinates.
    """

    def __init__(self, basis, gram=None):
        self._setup(clear_denominators(list(basis)),
                    None if gram is None else clear_denominators(gram))

    def _setup(self, int_basis, int_gram=None):
        """Set-up from (int rows, den) pairs, basis_i = rows_i / den, for the
        basis and the Gram matrix (by default the basis rows' dot products)."""
        self._int_rows = int_basis
        self.rank = len(int_basis[0])
        self._span = None
        self._hermite_rows = None
        self._ldl = None
        if int_gram is None:
            rows, den = int_basis
            int_gram = [[sum(map(mul, u, v)) for v in rows] for u in rows], den * den
        self._int_gram_rows = int_gram
        if int_gram[0] != [list(col) for col in zip(*int_gram[0])]:
            raise ValueError("Gram matrix must be symmetric")

    @cached_property
    def gram(self):
        """The Gram matrix as Fraction rows, built on first read."""
        ints, den = self._int_gram_rows
        return [[Fraction(x, den) for x in row] for row in ints]

    def det_gram(self) -> Fraction:
        ints, den = self._int_gram_rows
        return det(ints) / den ** self.rank

    def coords(self, ambient_vec):
        """Rational coefficients of an ambient vector over the basis, or None."""
        if self._span is None:
            self._span = RowSpace(self.basis)
        return self._span.coords(ambient_vec)

    def contains(self, vec, den=1) -> bool:
        """Whether vec / den (int or Fraction entries) lies in the lattice:
        scaled to the basis denominator it must be integral and reduce to
        zero against the Hermite form of the integer basis."""
        w = []
        b_den = self._int_rows[1]
        for x in vec:
            q, r = divmod(x.numerator * b_den, x.denominator * den)
            if r:
                return False
            w.append(q)
        for p, h, tail in self._hermite():
            if w[p]:
                q, r = divmod(w[p], h)
                if r:
                    return False
                w[p] = 0
                for j, y in tail:
                    w[j] -= q * y
        return not any(w)

    def _hermite(self):
        """Hermite form of the integer basis, as (pivot, entry, nonzero tail)
        per row; cached."""
        if self._hermite_rows is None:
            rows = []
            for row in hermite_normal_form(self._int_rows[0]):
                p = next(j for j, x in enumerate(row) if x)
                rows.append((p, row[p], [(j, x) for j, x in enumerate(row) if j > p and x]))
            self._hermite_rows = rows
        return self._hermite_rows

    @cached_property
    def basis(self):
        """The basis rows as Fractions, built on first read."""
        rows, den = self._int_rows
        return tuple(tuple(Fraction(x, den) for x in row) for row in rows)

    def ambient_ints(self, coeffs):
        """(ints, den) with sum(c_i * basis_i) = ints / den."""
        rows, den = self._int_rows
        coeffs, c_den = _over_one_den(coeffs)
        out = [0] * len(rows[0])
        for c, row in zip(coeffs, rows):
            if c:
                out = [o + c * x for o, x in zip(out, row)]
        return out, den * c_den

    def ambient(self, coeffs):
        """The ambient vector sum(c_i * basis_i), as Fractions."""
        out, den = self.ambient_ints(coeffs)
        return tuple(Fraction(o, den) if o else _ZERO for o in out)

    def gram_times(self, v):
        """(ints, den) with G v = ints / den, for a coefficient vector v."""
        rows, den = self._int_gram_rows
        v, v_den = _over_one_den(v)
        return [sum(map(mul, row, v)) for row in rows], den * v_den

    def pair(self, u, v) -> Fraction:
        """The bilinear form u^T G v on coefficient vectors, as a Fraction."""
        w, den = self.gram_times(v)
        u, u_den = _over_one_den(u)
        return Fraction(sum(map(mul, u, w)), den * u_den)

    def _gram_divisible(self, diag, off) -> bool:
        """Integral Gram matrix, diagonal divisible by diag, the rest by off."""
        ints, den = self._int_gram_rows
        return all(x % (den * (diag if i == j else off)) == 0
                   for i, row in enumerate(ints) for j, x in enumerate(row))

    def is_even(self) -> bool:
        return self._gram_divisible(2, 1)

    def is_doubly_even(self) -> bool:
        # norms divisible by 4 on the basis and even cross terms close
        # under addition, so the basis check suffices
        return self._gram_divisible(4, 2)

    def _gram_inverse(self):
        """(rows, d) with G^-1 = rows / d, as ints: G = A / den has the
        inverse den * A^-1."""
        ints, den = self._int_gram_rows
        rows, d = clear_denominators(invert(ints))
        return [[den * x for x in row] for row in rows], d

    def dual_basis_rows(self):
        """The dual basis as ambient vectors, the images of the rows of G^-1."""
        rows, d = self._gram_inverse()
        out = []
        for row in rows:
            v, den = self.ambient_ints(row)
            out.append(tuple(Fraction(x, den * d) if x else _ZERO for x in v))
        return out

    def dual_coset_shifts(self):
        """One coefficient shift per coset of the lattice in its dual.

        Breadth-first over the rows of G^-1, the dual basis in coefficient
        space, yielding the zero coset first; two shifts lie in the same
        coset exactly when they agree mod 1.  The search runs on the rows
        as ints over one denominator.
        """
        steps, den = self._gram_inverse()
        zero = (0,) * self.rank
        seen = {zero}
        frontier = [zero]
        yield (_ZERO,) * self.rank
        while frontier:
            new = []
            for base in frontier:
                for row in steps:
                    cand = tuple(map(add, base, row))
                    key = tuple(x % den for x in cand)
                    if key not in seen:
                        seen.add(key)
                        new.append(cand)
                        yield tuple(Fraction(x, den) for x in cand)
            frontier = new

    def ldl(self):
        """G = U^T diag(d) U with U unit upper triangular, on ints; cached.

        Returns (M, E, D, U): M and E are the common denominators of the
        off-diagonal u_ij and of the d_i, D_i = E*d_i, and row i of U holds
        M*u_ij for j > i.  Fraction-free (Bareiss) on A = den*G: when row i
        becomes the pivot row, a_ii is the leading principal minor of A of
        size i+1 and the row is a multiple of the Schur complement row, so
        d_i = a_ii / (a_{i-1,i-1} * den) and u_ij = a_ij / a_ii.
        """
        if self._ldl is None:
            ints, den = self._int_gram_rows
            a = [list(row) for row in ints]
            n = self.rank
            prev = 1
            d, u = [], []
            for i in range(n):
                row = a[i]
                p = row[i]
                if p <= 0:
                    raise NotPositiveDefinite("Gram matrix is not positive definite")
                d.append((p, prev * den))
                u.append((p, row[i + 1:]))
                for k in range(i + 1, n):
                    rk, f = a[k], row[k]
                    for l in range(k, n):
                        rk[l] = (p * rk[l] - f * row[l]) // prev
                prev = p
            e_den = lcm(*(q // gcd(p, q) for p, q in d))
            m_den = lcm(*(p // gcd(x, p) for p, tail in u for x in tail))
            self._ldl = (m_den, e_den, [p * e_den // q for p, q in d],
                         [[x * m_den // p for x in tail] for p, tail in u])
        return self._ldl


def enumerate_short(lat: EvenLattice, bound, shift=None):
    """All x = z + shift (z integer coefficients) with norm(x) <= bound.

    Returns a list of int pairs (X, N), each vector exactly once and in no
    promised order (``coords_of_norm`` is the sorted view): X = S*x with S
    the least common denominator of the shift (1 when there is none), and
    N = X^T A X with A = g*G the integer Gram rows, so norm(x) = N / (S^2 g).
    ``shift`` is a rational coefficient vector.

    With M, E, D, U from ``ldl``, M*S*(x_i + sum_{j>i} u_ij x_j) =
    M*S*z_i + C_i, where C_i = M*S*s_i + sum_{j>i} U_ij X_j.  The search
    scales norms by K = E*M^2*S^2*den(bound), and K*norm(x) * g equals
    E*M^2*den(bound) * N, one exact division per hit.

    Without a shift (or with a zero one) the set is symmetric, so only half
    the tree is searched: while every coordinate above the current level
    is 0, C_i = 0 and z_i >= 0 is enough.  That visits the zero vector
    (the first leaf) and each nonzero x whose highest nonzero coordinate
    is positive; their negatives are appended at the end.
    """
    n = lat.rank
    if bound < 0:
        return []
    if n == 0:
        return [((), 0)]
    m_den, e_den, d_int, urows = lat.ldl()
    xs0, s_den = ([0] * n, 1) if shift is None else _over_one_den(shift)
    ms = m_den * s_den
    b_num, b_den = bound.numerator, bound.denominator
    r0 = b_num * e_den * ms * ms
    dd = [di * b_den for di in d_int]
    # K*norm(x) = q*N / g with q = E*M^2*den(bound); divide out their gcd
    g_den = lat._int_gram_rows[1]
    q = e_den * m_den * m_den * b_den
    common = gcd(g_den, q)
    n_div, n_mul = q // common, g_den // common
    xs = [0] * n
    results = []
    append = results.append

    def descend(level, remaining, top):
        x0, dl = xs0[level], dd[level]
        c = m_den * x0 + sum(map(mul, urows[level], xs[level + 1:]))
        m = isqrt(remaining // dl)
        z_range = range(0 if top else -((m + c) // ms), (m - c) // ms + 1)
        if level == 0:
            tail = tuple(xs[1:])
            base = remaining - r0
            for z in z_range:
                y = ms * z + c
                append(((s_den * z + x0,) + tail, (dl * y * y - base) // n_div * n_mul))
            return
        for z in z_range:
            xs[level] = s_den * z + x0
            y = ms * z + c
            descend(level - 1, remaining - dl * y * y, top and not z)

    symmetric = not any(xs0)
    descend(n - 1, r0, symmetric)
    del descend  # free the search state now, not at the next cycle collection
    if symmetric:
        results += [(tuple(map(neg, v)), norm) for v, norm in results[1:]]
    return results


def coords_of_norm(lat: EvenLattice, norm):
    """The sorted int coefficient tuples of the lattice vectors of exactly
    the given squared norm."""
    target = norm * lat._int_gram_rows[1]
    return sorted(x for x, n in enumerate_short(lat, norm) if n == target)


class Coset:
    """A coset shift + lattice, shift given as an ambient vector."""

    def __init__(self, lattice: EvenLattice, shift):
        self.lattice = lattice
        self.shift = tuple(Fraction(x) for x in shift)
        c = lattice.coords(self.shift)
        if c is None:
            raise ValueError("coset shift lies outside the rational span")
        self.shift_coords = tuple(Fraction(x) for x in c)
        self.min_info = None  # coset_min_norm's result, once computed
        self.min_ints = None  # count_X_eta's scaled minima and roots, once computed

    def __eq__(self, other):
        if not isinstance(other, Coset):
            return NotImplemented
        if self.lattice is not other.lattice:
            return False
        diff = [a - b for a, b in zip(self.shift_coords, other.shift_coords)]
        return all(x.denominator == 1 for x in diff)


def coset_minimum(lat: EvenLattice, shift):
    """(k, den, xs): the minimal norm k over z + shift, z integral, and the
    vectors that achieve it as int tuples X = den * (z + shift), den the
    least common denominator of the shift.  The search is bounded by the
    norm of the coset's nearest-plane point."""
    xs0, den = _over_one_den(shift)
    scale = den * den * lat._int_gram_rows[1]
    hits = enumerate_short(lat, Fraction(_nearest_plane(lat, xs0, den)[1], scale),
                           shift=shift)
    n_min = min(n for _, n in hits)
    return Fraction(n_min, scale), den, [x for x, n in hits if n == n_min]


def _nearest_plane(lat: EvenLattice, xs0, s_den):
    """(X, N): Babai's nearest-plane point x of the coset z + xs0 / s_den, as
    X = s_den*x and N = X^T A X in the scaling of ``enumerate_short``.

    From the top level down, z_i rounds -C_i / (M*S) to the nearest int,
    which makes the level's term M*S*z_i + C_i as small as it can be.
    """
    m_den, _, _, urows = lat.ldl()
    ms = m_den * s_den
    xs = list(xs0)
    for i in reversed(range(lat.rank)):
        c = m_den * xs0[i] + sum(map(mul, urows[i], xs[i + 1:]))
        xs[i] = xs0[i] - s_den * _round_ratio(c, ms)
    rows = lat._int_gram_rows[0]
    return xs, sum(x * sum(map(mul, row, xs)) for x, row in zip(xs, rows))


def coset_min_norm(c: Coset) -> dict:
    """Exact minimum squared norm over the coset and all achieving vectors
    as sorted ambient Fraction tuples; kept on the coset, whose shift is
    fixed."""
    info = c.min_info
    if info is None:
        k, den, xs = coset_minimum(c.lattice, c.shift_coords)
        rows = sorted(c.lattice.ambient_ints(x)[0] for x in xs)
        den *= c.lattice._int_rows[1]
        reps = [tuple(Fraction(v, den) if v else _ZERO for v in row) for row in rows]
        info = c.min_info = {"k": k, "reps": reps}
    return info


def count_X_eta(root_system, gamma: Coset, eta) -> int:
    """|{(alpha, beta): alpha a root, beta coset-minimal, alpha + beta = eta}|,
    counted on int tuples over one denominator of the minima and the roots."""
    den, minimal, roots = _x_eta_ints(root_system, gamma)
    scaled = []
    for x in eta:
        q, r = divmod(x.numerator * den, x.denominator)
        if r:
            raise NotMinimal("eta is not of minimal norm in its coset")
        scaled.append(q)
    eta = tuple(scaled)
    if eta not in minimal:
        raise NotMinimal("eta is not of minimal norm in its coset")
    return sum(tuple(map(sub, eta, alpha)) in minimal for alpha in roots)


def _x_eta_ints(root_system, gamma: Coset):
    """(den, minimal, roots): the coset's minimal vectors as a set and the
    roots as a list, int tuples over their one common denominator (which
    covers half-integral roots too); kept on the coset for the last root
    system asked about."""
    data = gamma.min_ints
    if data is None or data[0] is not root_system:
        reps = (gamma.min_info or coset_min_norm(gamma))["reps"]
        rows, den = clear_denominators(reps + list(root_system.roots))
        rows = [tuple(row) for row in rows]
        data = gamma.min_ints = (root_system, den, set(rows[:len(reps)]),
                                 rows[len(reps):])
    return data[1:]


def size_reduce_basis(lat: EvenLattice) -> EvenLattice:
    """Greedy pairwise reduction; improves enumeration without LLL swaps.

    Runs on the integer Gram rows, whose denominator cancels from every
    comparison and rounded projection; the result keeps the reduced Gram.
    """
    basis, den = lat._int_rows
    gram, g_den = lat._int_gram_rows
    basis = [list(r) for r in basis]
    gram = [list(r) for r in gram]
    n = lat.rank
    improved = True
    while improved:
        improved = False
        order = sorted(range(n), key=lambda i: (gram[i][i], basis[i]))
        for i in order:
            for j in order:
                nj = gram[j][j]
                if i == j or nj == 0:
                    continue
                ti = _round_ratio(gram[i][j], nj)
                if ti == 0:
                    continue
                row = [a - ti * b for a, b in zip(gram[i], gram[j])]
                row[i] -= ti * row[j]
                if row[i] < gram[i][i]:
                    basis[i] = [a - ti * b for a, b in zip(basis[i], basis[j])]
                    gram[i] = row
                    for k, x in enumerate(row):
                        gram[k][i] = x
                    improved = True
    order = sorted(range(n), key=lambda i: (gram[i][i], basis[i]))
    out = object.__new__(EvenLattice)
    out._setup(([basis[i] for i in order], den),
               ([[gram[i][j] for j in order] for i in order], g_den))
    return out


def _round_ratio(p, q):
    """round(p / q) for ints, q > 0, ties to even as round(Fraction) does."""
    f, r = divmod(p, q)
    return f + (2 * r > q or (2 * r == q and f % 2 == 1))


def lattice_over(rows, den) -> EvenLattice:
    """The lattice with basis rows int_rows / den, the rows kept as ints."""
    g = gcd(den, *(x for row in rows for x in row))
    lat = object.__new__(EvenLattice)
    lat._setup(([[x // g for x in row] for row in rows], den // g))
    return lat
