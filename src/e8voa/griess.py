"""The exact weight-2 algebra of a lattice vertex algebra.

The underlying lattice N must be doubly even with no vectors of squared
norm 2, so the weight-2 space is spanned by the quadratic Heisenberg
states a(-1)b(-1).1, the derivative states a(-2).1, and the exponentials
e^x over the norm-4 vectors x of N.  The product u_1 v and the pairing
u_3 v are implemented by their mode rules; scalars may be rational or
cyclotomic and every computation is exact.

Coordinates are coefficient vectors with respect to a fixed basis of N,
with all pairings taken through the Gram matrix, so a sqrt(2)-rescaled
root lattice never needs irrational entries.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .lattice import EvenLattice, coset_minimum, enumerate_short
from .linalg import (RowSpace, clear_denominators, identity, invert,
                     kernel_basis, kernel_basis_int, mat_mul)
from .scalars import Cyclotomic, half_turn_phase, is_zero


class ContextMismatch(ValueError):
    pass


class NotConformal(ValueError):
    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class BadSpectrum(ValueError):
    pass


class LeavesMinimalSpace(ValueError):
    pass


class DimensionMismatch(AssertionError):
    pass


class EmbeddingError(ValueError):
    pass


HALF = Fraction(1, 2)


class AlgebraContext:
    """Weight-2 arithmetic for V_N, N given by a doubly even Gram matrix.

    ``basis``, when given, embeds N in an ambient space (``lattice.ambient``
    and ``lattice.coords`` map between keys and ambient vectors); by
    default the basis is the unit vectors.  ``gram`` is kept as int rows.
    """

    def __init__(self, gram, label: str = "", basis=None):
        self.label = label
        self.lattice = EvenLattice(basis or identity(len(gram)), gram=gram)
        self.rank = self.lattice.rank
        if not self.lattice.is_doubly_even():
            raise ValueError("context lattice must be doubly even")
        self.gram = [[x.numerator for x in row] for row in self.lattice.gram]
        if any(n == 2 for _, n in enumerate_short(self.lattice, 2)):
            raise ValueError("context lattice must have no norm-2 vectors")
        hits = enumerate_short(self.lattice, 4)
        norm4 = sorted(tuple(int(c) for c in z) for z, n in hits if n == 4)
        self.norm4 = tuple(v for v in norm4 if any(v))
        self.norm4_index = {v: k for k, v in enumerate(self.norm4)}
        self.gram_inv = invert(self.gram)
        self._gvec = {}
        self._omega = None
        self._neighbors = {}
        self._lowering = {}

    def gvec(self, key):
        """G . key, cached."""
        out = self._gvec.get(key)
        if out is None:
            out = tuple(sum(row[i] * key[i] for i in range(self.rank) if key[i])
                        for row in self.gram)
            self._gvec[key] = out
        return out

    def pairing(self, u, v) -> Fraction:
        return self.lattice.pair(u, v)

    def minus2_neighbors(self, key):
        """Pairs (y, key+y) over norm-4 y with B(key, y) = -2, cached."""
        out = self._neighbors.get(key)
        if out is None:
            out = self._neighbors[key] = tuple(
                (y, target) for y, b, target in self._lowering_scan(key) if b == -2)
        return out

    def lowering(self, key):
        """Triples (y, B(key, y), key+y) over norm-4 y with B(key, y) <= -2, cached.

        These are the only exponentials whose action on e^key can stay in a
        minimal-weight space.
        """
        out = self._lowering.get(key)
        if out is None:
            out = self._lowering[key] = tuple(self._lowering_scan(key))
        return out

    def _lowering_scan(self, key):
        gx = self.gvec(key)
        for y in self.norm4:
            b = sum(gx[i] * y[i] for i in range(self.rank) if y[i])
            if b <= -2:
                yield y, b, tuple(p + q for p, q in zip(key, y))

    def zero(self) -> "GriessElement":
        return GriessElement(self)

    def omega(self) -> "GriessElement":
        """The Virasoro element, (1/2) sum of dual-basis quadratic states."""
        if self._omega is None:
            el = GriessElement(self)
            for a in range(self.rank):
                for b in range(a, self.rank):
                    c = self.gram_inv[a][b] * (1 if a == b else 2) * HALF
                    if c:
                        el.quad[(a, b)] = c
            el._strip()
            self._omega = el
        return self._omega.copy()


class GriessElement:
    """Sparse weight-2 vector: quad (a<=b), deriv, and exponential parts."""

    __slots__ = ("ctx", "quad", "deriv", "expo")

    def __init__(self, ctx, quad=None, deriv=None, expo=None):
        self.ctx = ctx
        self.quad = dict(quad or {})
        self.deriv = dict(deriv or {})
        self.expo = dict(expo or {})

    def copy(self):
        return GriessElement(self.ctx, self.quad, self.deriv, self.expo)

    def _strip(self):
        for d in (self.quad, self.deriv, self.expo):
            dead = [k for k, v in d.items() if is_zero(v)]
            for k in dead:
                del d[k]
        return self

    def add_quad_square(self, vec, coeff):
        """Add coeff * vec(-1)^2 . 1 written over the basis monomials."""
        vec = tuple(Fraction(x) for x in vec)
        for a in range(self.ctx.rank):
            if not vec[a]:
                continue
            for b in range(a, self.ctx.rank):
                if not vec[b]:
                    continue
                mult = 1 if a == b else 2
                self.quad[(a, b)] = self.quad.get((a, b), 0) + coeff * mult * vec[a] * vec[b]
        return self

    def add_deriv_vec(self, vec, coeff):
        for a, x in enumerate(vec):
            if x:
                self.deriv[a] = self.deriv.get(a, 0) + coeff * Fraction(x)
        return self

    def add_expo(self, key, coeff):
        key = tuple(int(x) for x in key)
        if key not in self.ctx.norm4_index:
            raise ValueError("exponential key is not a norm-4 lattice vector")
        self.expo[key] = self.expo.get(key, 0) + coeff
        return self

    def scaled(self, c):
        out = GriessElement(self.ctx)
        out.quad = {k: c * v for k, v in self.quad.items()}
        out.deriv = {k: c * v for k, v in self.deriv.items()}
        out.expo = {k: c * v for k, v in self.expo.items()}
        return out._strip()

    def __add__(self, other):
        if not isinstance(other, GriessElement):
            return NotImplemented
        if other.ctx is not self.ctx:
            raise ContextMismatch("elements live in different contexts")
        out = self.copy()
        for k, v in other.quad.items():
            out.quad[k] = out.quad.get(k, 0) + v
        for k, v in other.deriv.items():
            out.deriv[k] = out.deriv.get(k, 0) + v
        for k, v in other.expo.items():
            out.expo[k] = out.expo.get(k, 0) + v
        return out._strip()

    def __sub__(self, other):
        return self + other.scaled(-1)

    def __neg__(self):
        return self.scaled(-1)

    def is_zero(self) -> bool:
        self._strip()
        return not (self.quad or self.deriv or self.expo)

    def __eq__(self, other):
        if not isinstance(other, GriessElement):
            return NotImplemented
        return (self - other).is_zero()

    def __hash__(self):
        raise TypeError("GriessElement is unhashable")


def _neg(key):
    return tuple(-x for x in key)


def product(ctx: AlgebraContext, u: GriessElement, v: GriessElement) -> GriessElement:
    """The weight-2 product u_1 v."""
    if u.ctx is not ctx or v.ctx is not ctx:
        raise ContextMismatch("product arguments from a different context")
    out = GriessElement(ctx)
    g = ctx.gram
    # quad . quad
    for (a, b), x in u.quad.items():
        for (c, d), y in v.quad.items():
            xy = x * y
            for (p, q, w) in (
                (b, d, g[a][c]), (b, c, g[a][d]),
                (a, d, g[b][c]), (a, c, g[b][d]),
            ):
                if w:
                    kk = (p, q) if p <= q else (q, p)
                    out.quad[kk] = out.quad.get(kk, 0) + xy * w
    # quad . deriv  (one-sided; deriv . quad vanishes)
    for (a, b), x in u.quad.items():
        for c, y in v.deriv.items():
            xy = x * y
            if g[a][c]:
                out.deriv[b] = out.deriv.get(b, 0) + 2 * g[a][c] * xy
            if g[b][c]:
                out.deriv[a] = out.deriv.get(a, 0) + 2 * g[b][c] * xy
    # quad . expo and expo . quad
    for el, other, sidequad in ((u, v, u.quad), (v, u, v.quad)):
        if not sidequad or not other.expo:
            continue
        for key, y in other.expo.items():
            gx = ctx.gvec(key)
            for (a, b), x in sidequad.items():
                w = gx[a] * gx[b]
                if w:
                    out.expo[key] = out.expo.get(key, 0) + x * y * w
    # deriv . expo and expo . deriv
    for el, other in ((u, v), (v, u)):
        if not el.deriv or not other.expo:
            continue
        for key, y in other.expo.items():
            gx = ctx.gvec(key)
            for a, x in el.deriv.items():
                if gx[a]:
                    out.expo[key] = out.expo.get(key, 0) - gx[a] * x * y
    # expo . expo: only pairings -2 (recombination) and -4 (opposite keys)
    # contribute; the doubly even lattice rules out everything else
    if u.expo and v.expo:
        for xkey, x in u.expo.items():
            y = v.expo.get(_neg(xkey))
            if y is not None:
                xy = x * y
                out.add_quad_square(xkey, xy * HALF)
                out.add_deriv_vec(xkey, xy * HALF)
            for ykey, target in ctx.minus2_neighbors(xkey):
                vy = v.expo.get(ykey)
                if vy is not None:
                    out.expo[target] = out.expo.get(target, 0) + x * vy
    return out._strip()


def inner(ctx: AlgebraContext, u: GriessElement, v: GriessElement):
    """The invariant pairing read off from the third product u_3 v."""
    if u.ctx is not ctx or v.ctx is not ctx:
        raise ContextMismatch("inner arguments from a different context")
    g = ctx.gram
    total = Fraction(0)
    for (a, b), x in u.quad.items():
        for (c, d), y in v.quad.items():
            w = g[a][c] * g[b][d] + g[a][d] * g[b][c]
            if w:
                total = total + x * y * w
    for a, x in u.deriv.items():
        for b, y in v.deriv.items():
            if g[a][b]:
                total = total - 6 * g[a][b] * x * y
    for key, x in u.expo.items():
        y = v.expo.get(_neg(key))
        if y is not None:
            total = total + x * y
    return total


def conformal_check(ctx: AlgebraContext, e: GriessElement):
    """Central charge 2<e,e> after checking e_1 e = 2e."""
    residual = product(ctx, e, e) - e.scaled(2)
    if not residual.is_zero():
        raise NotConformal("element does not square to twice itself", residual)
    return 2 * inner(ctx, e, e)


def build_virasoro_family(ctx: AlgebraContext, root_keys):
    """omega(Phi), s(Phi), and their difference for a root subsystem.

    ``root_keys`` lists the norm-4 context keys of all the roots (both
    signs).  The Coxeter number is |Phi| / rank(Phi).
    """
    keys = [tuple(int(x) for x in k) for k in root_keys]
    for k in keys:
        if k not in ctx.norm4_index:
            raise EmbeddingError("root does not lie in the context lattice")
        if _neg(k) not in ctx.norm4_index:
            raise EmbeddingError("root set must be closed under negation")
    r = len(RowSpace(keys).rows)
    h = Fraction(len(keys), r)
    if h.denominator != 1:
        raise EmbeddingError("root count is not a multiple of the rank")
    h = int(h)
    omega_phi = GriessElement(ctx)
    s = GriessElement(ctx)
    for k in keys:
        omega_phi.add_quad_square(k, Fraction(1, 8 * h))
        s.add_quad_square(k, Fraction(1, 8 * (h + 2)))
        s.add_expo(k, Fraction(-1, h + 2))
    omega_phi._strip()
    s._strip()
    return {"omega": omega_phi, "s": s, "omega_tilde": omega_phi - s, "h": h}


# ---------------------------------------------------------------------------
# automorphisms


def apply_theta(el: GriessElement) -> GriessElement:
    out = GriessElement(el.ctx)
    out.quad = dict(el.quad)
    out.deriv = {k: -v for k, v in el.deriv.items()}
    out.expo = {_neg(k): v for k, v in el.expo.items()}
    return out


def sigma_phase(ctx: AlgebraContext, glue_coords, key):
    """Phase of the lattice automorphism exp(-pi i beta(0)) on e^key."""
    t = ctx.pairing(glue_coords, key)
    return half_turn_phase(t)


def apply_sigma(ctx: AlgebraContext, glue_coords, el: GriessElement,
                power: int = 1) -> GriessElement:
    out = GriessElement(ctx)
    out.quad = dict(el.quad)
    out.deriv = dict(el.deriv)
    for k, v in el.expo.items():
        ph = sigma_phase(ctx, glue_coords, k)
        if power != 1:
            ph = ph ** power
        out.expo[k] = ph * v
    return out._strip()


def weyl_matrix(ctx: AlgebraContext, root_key):
    """Coefficient-space matrix of the reflection v -> v - (B(v,r)/2) r."""
    root_key = tuple(int(x) for x in root_key)
    if ctx.pairing(root_key, root_key) != 4:
        raise ValueError("reflection key must have norm 4")
    g = ctx.gvec(root_key)
    n = ctx.rank
    mat = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(n):
            mat[i][j] -= Fraction(root_key[i]) * Fraction(g[j]) / 2
    return mat


def apply_linear(ctx: AlgebraContext, mat, el: GriessElement) -> GriessElement:
    """Apply a lattice isometry given by its coefficient-space matrix."""
    out = GriessElement(ctx)
    n = ctx.rank
    for (a, b), v in el.quad.items():
        cols = {}
        for i in range(n):
            if not mat[i][a]:
                continue
            for j in range(n):
                w = mat[i][a] * mat[j][b]
                if w:
                    kk = (i, j) if i <= j else (j, i)
                    cols[kk] = cols.get(kk, Fraction(0)) + w
        for kk, w in cols.items():
            out.quad[kk] = out.quad.get(kk, 0) + v * w
    for a, v in el.deriv.items():
        for i in range(n):
            if mat[i][a]:
                out.deriv[i] = out.deriv.get(i, 0) + v * mat[i][a]
    for key, v in el.expo.items():
        img = tuple(sum(mat[i][j] * key[j] for j in range(n)) for i in range(n))
        img_int = tuple(int(x) for x in img)
        if tuple(Fraction(x) for x in img_int) != tuple(img):
            raise ValueError("isometry does not preserve the lattice")
        out.expo[img_int] = out.expo.get(img_int, 0) + v
    return out._strip()


def apply_weyl(ctx: AlgebraContext, root_key, el: GriessElement) -> GriessElement:
    return apply_linear(ctx, weyl_matrix(ctx, root_key), el)


# ---------------------------------------------------------------------------
# the weight-2 basis and matrices


class Weight2Basis:
    def __init__(self, ctx: AlgebraContext):
        self.ctx = ctx
        keys = []
        for a in range(ctx.rank):
            for b in range(a, ctx.rank):
                keys.append(("q", a, b))
        for a in range(ctx.rank):
            keys.append(("d", a))
        for v in ctx.norm4:
            keys.append(("e", v))
        self.keys = keys
        self.index = {k: i for i, k in enumerate(keys)}

    def __len__(self):
        return len(self.keys)

    def vector(self, el: GriessElement):
        out = [Fraction(0)] * len(self.keys)
        for (a, b), v in el.quad.items():
            out[self.index[("q", a, b)]] = v
        for a, v in el.deriv.items():
            out[self.index[("d", a)]] = v
        for k, v in el.expo.items():
            out[self.index[("e", k)]] = v
        return out

    def element(self, vec) -> GriessElement:
        el = GriessElement(self.ctx)
        for val, key in zip(vec, self.keys):
            if is_zero(val):
                continue
            if key[0] == "q":
                el.quad[(key[1], key[2])] = val
            elif key[0] == "d":
                el.deriv[key[1]] = val
            else:
                el.expo[key[1]] = val
        return el

    def monomial(self, key) -> GriessElement:
        return _combo_element(self.ctx, key)


# ---------------------------------------------------------------------------
# modules over the minimal-weight subspace of a coset


class ModuleSpace:
    """Minimal-weight subspace of the module attached to a dual coset."""

    def __init__(self, ctx: AlgebraContext, shift_coords):
        self.ctx = ctx
        k, zs = coset_minimum(ctx.lattice, shift_coords)
        self.min_norm = k
        self.weight = k / 2
        self.keys = sorted(zs)
        self.index = {z: i for i, z in enumerate(self.keys)}

    def __len__(self):
        return len(self.keys)

    def act_matrix(self, u: GriessElement):
        cols = []
        for key in self.keys:
            vec = [Fraction(0)] * len(self.keys)
            img = module_act_on_key(self.ctx, u, key, self.index)
            for kk, v in img.items():
                vec[self.index[kk]] = v
            cols.append(vec)
        return [[cols[j][i] for j in range(len(cols))]
                for i in range(len(self.keys))]


class ModuleVector:
    def __init__(self, space: ModuleSpace, terms=None):
        self.space = space
        self.terms = dict(terms or {})

    def __add__(self, other):
        out = ModuleVector(self.space, self.terms)
        for k, v in other.terms.items():
            out.terms[k] = out.terms.get(k, 0) + v
        out.terms = {k: v for k, v in out.terms.items() if not is_zero(v)}
        return out

    def scaled(self, c):
        return ModuleVector(self.space, {k: c * v for k, v in self.terms.items()})

    def __sub__(self, other):
        return self + other.scaled(-1)

    def is_zero(self):
        return all(is_zero(v) for v in self.terms.values())

    def __eq__(self, other):
        return (self - other).is_zero()

    __hash__ = None


def module_act_on_key(ctx, u: GriessElement, key, index):
    out = {}
    gx = ctx.gvec(key)
    acc = 0
    for (a, b), v in u.quad.items():
        w = gx[a] * gx[b]
        if w:
            acc = acc + v * w
    for a, v in u.deriv.items():
        if gx[a]:
            acc = acc - v * gx[a]
    if not is_zero(acc):
        out[key] = acc
    for ykey, b, target in ctx.lowering(key):
        v = u.expo.get(ykey)
        if v is None:
            continue
        if b < -2:
            raise LeavesMinimalSpace("module key is not of minimal norm")
        if target not in index:
            raise LeavesMinimalSpace("action leaves the minimal-weight space")
        out[target] = out.get(target, 0) + v
    return {k: v for k, v in out.items() if not is_zero(v)}


def module_act(ctx, u: GriessElement, mv: ModuleVector) -> ModuleVector:
    out = {}
    for key, c in mv.terms.items():
        for k2, v in module_act_on_key(ctx, u, key, mv.space.index).items():
            out[k2] = out.get(k2, 0) + c * v
    return ModuleVector(mv.space, {k: v for k, v in out.items() if not is_zero(v)})


# ---------------------------------------------------------------------------
# tau involutions


WEIGHT2_EIGENVALUES = (Fraction(2), Fraction(0), HALF,
                       Fraction(1, 16), Fraction(17, 16))
MODULE_EIGENVALUES = (Fraction(0), HALF, Fraction(1, 16))


def _is_sixteenth_class(lam: Fraction) -> bool:
    return (lam - Fraction(1, 16)).denominator == 1


class TauInvolution:
    """tau_e: -1 on the 1/16-class eigenspaces of e_1, +1 elsewhere."""

    def __init__(self, eigen, dim):
        self.eigen = eigen  # dict eigenvalue -> list of vectors
        self.dim = dim
        self._matrix = None

    def spectrum(self):
        return sorted(self.eigen.keys())

    def matrix(self):
        if self._matrix is None:
            cols = []
            signs = []
            for lam in sorted(self.eigen):
                for v in self.eigen[lam]:
                    cols.append(v)
                    signs.append(-1 if _is_sixteenth_class(lam) else 1)
            C = [[cols[j][i] for j in range(self.dim)] for i in range(self.dim)]
            Cinv = invert(C)
            D = [[Fraction(signs[i] * int(i == j)) for j in range(self.dim)]
                 for i in range(self.dim)]
            self._matrix = mat_mul(mat_mul(C, D), Cinv)
        return self._matrix


def tau_from_matrix(mat, allowed) -> TauInvolution:
    """Spectral tau of an action matrix with eigenvalues in ``allowed``."""
    dim = len(mat)
    eigen = {}
    total = 0
    for lam in allowed:
        shifted = [[mat[i][j] - (lam if i == j else 0) for j in range(dim)]
                   for i in range(dim)]
        basis = kernel_basis(shifted)
        if basis:
            eigen[lam] = basis
            total += len(basis)
    if total != dim:
        raise BadSpectrum(
            f"action is not diagonalizable over the expected set: "
            f"{total} of {dim} dimensions found")
    return TauInvolution(eigen, dim)


def tau_involution_module(ctx, e: GriessElement, space: ModuleSpace) -> TauInvolution:
    return tau_from_matrix(space.act_matrix(e), MODULE_EIGENVALUES)


def annihilates(mat, eigenvalues) -> bool:
    """Whether prod (mat - lam) vanishes, via integer arithmetic."""
    *a, lams = clear_denominators([*mat, eigenvalues])[0]
    prod = None
    for lam in lams:
        term = [[x - lam if i == j else x for j, x in enumerate(row)]
                for i, row in enumerate(a)]
        prod = term if prod is None else mat_mul(prod, term)
    return all(all(x == 0 for x in row) for row in prod)


def theta_split_tau_check(ctx: AlgebraContext, e: GriessElement):
    """Verify that tau_e equals theta on the weight-2 space.

    Requires a theta-fixed conformal vector.  The theta-even block must be
    annihilated by (t)(t-1/2)(t-2) and the theta-odd block by
    (t-1/16)(t-17/16); together these pin tau_e = theta exactly.
    """
    if apply_theta(e) != e:
        raise ValueError("theta-split check needs a theta-fixed vector")
    even_keys, odd_keys = _theta_split_keys(ctx, ctx.norm4)

    blocks = {}
    for name, keys, eigs in (
        ("even", even_keys, (Fraction(0), HALF, Fraction(2))),
        ("odd", odd_keys, (Fraction(1, 16), Fraction(17, 16))),
    ):
        cols = []
        for key in keys:
            img = product(ctx, e, _combo_element(ctx, key))
            cols.append(_combo_decompose(img, keys))
        mat = [[cols[j][i] for j in range(len(keys))] for i in range(len(keys))]
        if not annihilates(mat, eigs):
            raise BadSpectrum(f"theta-{name} block has eigenvalues outside {eigs}")
        blocks[name] = len(keys)
    return blocks


# ---------------------------------------------------------------------------
# the sqrt(2)E8 context and the families attached to the nine nodes


def sqrt2_root_context(letter: str, rank: int):
    """The root system of the type and the algebra context of sqrt(2) times its lattice."""
    from .rootsys import build_root_system
    rs = build_root_system(letter, rank)
    gram2 = [[2 * x for x in row] for row in rs.lattice.gram]
    return rs, AlgebraContext(gram2, label=f"sqrt2{letter}{rank}")


@lru_cache(maxsize=None)
def e8_context() -> AlgebraContext:
    from .rootsys import e8_paper_data
    cartan = e8_paper_data()["lattice"].gram
    gram2 = [[2 * x for x in row] for row in cartan]
    return AlgebraContext(gram2, label="sqrt2E8")


def _int_key(vec):
    out = tuple(int(x) for x in vec)
    if tuple(Fraction(x) for x in out) != tuple(Fraction(x) for x in vec):
        raise ValueError("expected an integral coefficient vector")
    return out


class NodeFamilies:
    """e-hat, f-hat, the graded sums X^j, and the component Virasoro pairs."""

    def __init__(self, node):
        from .scalars import Cyclotomic
        ctx = e8_context()
        self.ctx = ctx
        self.node = node
        classes = node.coset_classes()
        self.key_class = {k: classes[k] for k in ctx.norm4}

        omega = ctx.omega()
        e_hat = omega.scaled(Fraction(1, 16))
        for k in ctx.norm4:
            e_hat.add_expo(k, Fraction(1, 32))
        self.e_hat = e_hat._strip()

        self.X = {}
        for j in range(1, node.n):
            xj = GriessElement(ctx)
            for k in ctx.norm4:
                if self.key_class[k] == j:
                    xj.add_expo(k, Fraction(1))
            self.X[j] = xj._strip()

        self.components = node.components
        self.s = []
        self.omega_tilde = []
        self.component_h = []
        for comp in node.components:
            keys = [_int_key(r) for r in comp.root_coords]
            fam = build_virasoro_family(ctx, keys)
            self.s.append(fam["s"])
            self.omega_tilde.append(fam["omega_tilde"])
            self.component_h.append(fam["h"])

        n = node.n
        f_hat = omega.scaled(Fraction(1, 16))
        for k in ctx.norm4:
            j = self.key_class[k]
            if j == 0:
                f_hat.add_expo(k, Fraction(1, 32))
            else:
                f_hat.add_expo(k, Cyclotomic.zeta(n, j) * Fraction(1, 32))
        self.f_hat = f_hat._strip()
        f_sigma = apply_sigma(ctx, node.glue_coords, self.e_hat)
        if not (self.f_hat - f_sigma).is_zero():
            raise AssertionError("sigma(e-hat) does not match the twisted sum")

    def sigma(self, el, power=1):
        return apply_sigma(self.ctx, self.node.glue_coords, el, power=power)


@lru_cache(maxsize=None)
def build_node_family(i: int) -> NodeFamilies:
    from .rootsys import extended_e8_node
    return NodeFamilies(extended_e8_node(i))


# ---------------------------------------------------------------------------
# the Hamming-model context and its conformal vectors


def hamming_context() -> AlgebraContext:
    """The context of the Construction-A lattice of the Hamming code in use now."""
    from .codes import named_code
    return _hamming_context(named_code("Hamming8"))


@lru_cache(maxsize=None)
def _hamming_context(code) -> AlgebraContext:
    from .codes import construction_A
    lat = construction_A(code)
    return AlgebraContext(lat.gram, label="A(H8)", basis=lat.basis)


def hamming_cosets_even():
    """Representatives of the even cosets of the Hamming code in F_2^8."""
    from .codes import named_code
    h8 = named_code("Hamming8")
    words = sorted(set(h8.words()))
    seen = set()
    reps = []
    for mask in range(256):
        w = tuple((mask >> k) & 1 for k in range(8))
        if sum(w) % 2:
            continue
        cls = frozenset(tuple((a + b) % 2 for a, b in zip(w, c)) for c in words)
        if cls in seen:
            continue
        seen.add(cls)
        reps.append(w)
    return reps


class HammingFamilies:
    """X^eps_gamma, e-hat^eps_delta, and the standard Virasoro frame."""

    def __init__(self, code):
        ctx = _hamming_context(code)
        self.ctx = ctx
        self.code_words = sorted(set(code.words()))
        amb = {k: tuple(int(x) for x in ctx.lattice.ambient(k)) for k in ctx.norm4}
        self.ambient = amb
        self.X = {0: {}, 1: {}}
        for gamma in self.code_words:
            x0 = GriessElement(ctx)
            x1 = GriessElement(ctx)
            for k, a in amb.items():
                if tuple(x % 2 for x in a) != gamma:
                    continue
                x0.add_expo(k, Fraction(1))
                s = sum(a) // 2
                x1.add_expo(k, Fraction((-1) ** (s % 2)))
            self.X[0][gamma] = x0._strip()
            self.X[1][gamma] = x1._strip()

    def e_hat(self, eps: int, delta) -> GriessElement:
        ctx = self.ctx
        out = ctx.omega().scaled(Fraction(1, 16))
        for gamma in self.code_words:
            sign = (-1) ** (sum(d * g for d, g in zip(delta, gamma)) % 2)
            out = out + self.X[eps][gamma].scaled(Fraction(sign, 32))
        return out

    def standard_frame(self):
        ctx = self.ctx
        frame = []
        for j in range(8):
            lam = tuple(Fraction(2 * int(t == j)) for t in range(8))
            key = _int_key(ctx.lattice.coords(lam))
            for sign in (1, -1):
                el = GriessElement(ctx)
                el.add_quad_square(key, Fraction(1, 16))
                el.add_expo(key, Fraction(sign, 4))
                el.add_expo(_neg(key), Fraction(sign, 4))
                frame.append(el._strip())
        return frame

    def hamming_frame(self):
        reps = hamming_cosets_even()
        out = []
        for eps in (0, 1):
            for delta in reps:
                out.append(self.e_hat(eps, delta))
        return out


def build_hamming_family() -> HammingFamilies:
    """The Hamming-model families of the Hamming code in use now."""
    from .codes import named_code
    return _hamming_family(named_code("Hamming8"))


@lru_cache(maxsize=None)
def _hamming_family(code) -> HammingFamilies:
    return HammingFamilies(code)


# ---------------------------------------------------------------------------
# the coset subalgebra U and its weight-2 piece


class U2Data:
    def __init__(self, node, basis_labels, basis, gram, structure, block_dims):
        self.node = node
        self.basis_labels = basis_labels
        self.basis = basis
        self.gram = gram
        self.structure = structure
        self.block_dims = block_dims

    @property
    def dim(self):
        return len(self.basis)

    def multiply_coords(self, u, v):
        d = self.dim
        out = [0] * d
        for i in range(d):
            if is_zero(u[i]):
                continue
            for j in range(d):
                if is_zero(v[j]):
                    continue
                c = u[i] * v[j]
                for k in range(d):
                    w = self.structure[i][j][k]
                    if w:
                        out[k] = out[k] + c * w
        return out

    def inner_coords(self, u, v):
        total = 0
        for i, x in enumerate(u):
            if is_zero(x):
                continue
            for j, y in enumerate(v):
                if not is_zero(y) and self.gram[i][j]:
                    total = total + x * y * self.gram[i][j]
        return total


def _theta_split_keys(ctx, norm4_keys):
    """Keys of the theta-even and theta-odd blocks over the given norm-4 keys.

    Both blocks take all quadratic (even) or derivative (odd) states and
    one symmetrized pair ("p", even; "m", odd) per key up to sign.
    """
    even = [("q", a, b) for a in range(ctx.rank) for b in range(a, ctx.rank)]
    odd = [("d", a) for a in range(ctx.rank)]
    seen = set()
    for k in norm4_keys:
        if k in seen:
            continue
        seen.add(k)
        seen.add(_neg(k))
        even.append(("p", k))
        odd.append(("m", k))
    return even, odd


def _combo_element(ctx, key):
    """Monomial or theta-symmetrized exponential pair as an element."""
    el = GriessElement(ctx)
    if key[0] == "q":
        el.quad[(key[1], key[2])] = Fraction(1)
    elif key[0] == "d":
        el.deriv[key[1]] = Fraction(1)
    elif key[0] == "e":
        el.expo[key[1]] = Fraction(1)
    elif key[0] == "p":
        el.expo[key[1]] = Fraction(1)
        el.expo[_neg(key[1])] = Fraction(1)
    else:
        el.expo[key[1]] = Fraction(1)
        el.expo[_neg(key[1])] = Fraction(-1)
    return el


def _combo_decompose(el, keys):
    vec = [Fraction(0)] * len(keys)
    quad = dict(el.quad)
    deriv = dict(el.deriv)
    expo = dict(el.expo)
    for i, key in enumerate(keys):
        if key[0] == "q":
            vec[i] = quad.pop((key[1], key[2]), Fraction(0))
        elif key[0] == "d":
            vec[i] = deriv.pop(key[1], Fraction(0))
        elif key[0] == "e":
            vec[i] = expo.pop(key[1], Fraction(0))
        elif key[0] == "p":
            a = expo.pop(key[1], Fraction(0))
            b = expo.pop(_neg(key[1]), Fraction(0))
            if a != b:
                raise ArithmeticError("image is not theta-even")
            vec[i] = a
        else:
            a = expo.pop(key[1], Fraction(0))
            b = expo.pop(_neg(key[1]), Fraction(0))
            if a != -b:
                raise ArithmeticError("image is not theta-odd")
            vec[i] = a
    leftovers = list(quad.values()) + list(deriv.values()) + list(expo.values())
    if any(not is_zero(x) for x in leftovers):
        raise ArithmeticError("operator image leaves the block")
    return vec


def _stacked_kernel(ctx, operators, keys):
    """Kernel of several operators restricted to a monomial block."""
    stacked = []
    for op in operators:
        cols = [_combo_decompose(product(ctx, op, _combo_element(ctx, key)),
                                 keys) for key in keys]
        for r in range(len(keys)):
            stacked.append([cols[c][r] for c in range(len(keys))])
    ints, _ = clear_denominators(stacked)
    basis = kernel_basis_int(ints, len(keys))
    out = []
    for vec in basis:
        el = GriessElement(ctx)
        for val, key in zip(vec, keys):
            if is_zero(val):
                continue
            el = el + _combo_element(ctx, key).scaled(val)
        out.append(el._strip())
    return out


def coset_U2(i: int) -> U2Data:
    """Weight-2 commutant of the component Virasoro vectors s^k.

    The kernel is computed blockwise: the coset grading splits the space
    into sigma-eigenblocks preserved by every (s^k)_1, and the class-0
    block splits further into theta-even and theta-odd halves.
    """
    fams = build_node_family(i)
    ctx = fams.ctx
    node = fams.node
    n, l = node.n, len(node.components)

    expo_blocks = {j: [] for j in range(n)}
    for k in ctx.norm4:
        expo_blocks[fams.key_class[k]].append(k)

    even0, odd0 = _theta_split_keys(ctx, expo_blocks[0])

    kernel_elements = []
    block_dims = {}
    block0 = (_stacked_kernel(ctx, fams.s, even0)
              + _stacked_kernel(ctx, fams.s, odd0))
    block_dims[0] = len(block0)
    kernel_elements.extend(block0)
    for j in range(1, n):
        keys = [("e", k) for k in expo_blocks[j]]
        basis = _stacked_kernel(ctx, fams.s, keys)
        block_dims[j] = len(basis)
        kernel_elements.extend(basis)

    w2 = Weight2Basis(ctx)
    expected = l + n - 1
    if sum(block_dims.values()) != expected:
        raise DimensionMismatch(
            f"node {i}: U2 kernel has dimension {sum(block_dims.values())}, "
            f"expected {expected}")
    if block_dims[0] != l or any(block_dims[j] != 1 for j in range(1, n)):
        raise DimensionMismatch(f"node {i}: unexpected graded kernel {block_dims}")

    labels = [f"omega_tilde_{k+1}" for k in range(l)]
    basis = list(fams.omega_tilde)
    for j in range(1, n):
        labels.append(f"X_{j}")
        basis.append(fams.X[j])
    # claimed basis really lies in the kernel
    for b in basis:
        for s in fams.s:
            if not product(ctx, s, b).is_zero():
                raise DimensionMismatch(f"node {i}: claimed U2 vector not in kernel")
    space = RowSpace(w2.vector(b) for b in basis)
    if len(space.rows) != expected:
        raise DimensionMismatch(f"node {i}: claimed U2 basis is dependent")

    gram = [[inner(ctx, a, b) for b in basis] for a in basis]
    structure = []
    for a in basis:
        row = []
        for b in basis:
            prod = product(ctx, a, b)
            c = space.coords(w2.vector(prod))
            if c is None:
                raise DimensionMismatch(f"node {i}: U2 is not closed under products")
            row.append([Fraction(x) for x in c])
        structure.append(row)
    return U2Data(node, labels, basis, gram, structure, block_dims)


@lru_cache(maxsize=None)
def coset_U2_cached(i: int) -> U2Data:
    return coset_U2(i)


def generated_closure_coords(u2: U2Data, seed_coords):
    """Smallest product-closed subspace of U2 containing the seeds.

    Everything happens in coordinates over the U2 basis; scalars may be
    cyclotomic.  Returns the dimension and a row-reduced basis.
    """
    space = RowSpace(seed_coords)
    while True:
        span = list(space.rows)
        added = False
        for a in span:
            for b in span:
                added = space.add(u2.multiply_coords(a, b)) or added
        if not added:
            return len(space.rows), space.rows


def e_f_coords(u2: U2Data):
    """Coordinates of e-hat and f-hat over the U2 basis, by construction."""
    from .scalars import Cyclotomic
    fams = build_node_family(u2.node.i)
    l = len(u2.node.components)
    n = u2.node.n
    e = [Fraction(h + 2, 32) for h in fams.component_h]
    e += [Fraction(1, 32)] * (n - 1)
    f = [Fraction(h + 2, 32) for h in fams.component_h]
    for j in range(1, n):
        f.append(Cyclotomic.zeta(n, j) * Fraction(1, 32) if n > 1 else Fraction(1, 32))
    ctx = fams.ctx
    # verify the linear combinations really reproduce the two vectors
    e_el = ctx.zero()
    for c, b in zip(e, u2.basis):
        e_el = e_el + b.scaled(c)
    if not (e_el - fams.e_hat).is_zero():
        raise DimensionMismatch("e-hat coordinates over U2 are wrong")
    f_el = ctx.zero()
    for c, b in zip(f, u2.basis):
        f_el = f_el + b.scaled(c)
    if not (f_el - fams.f_hat).is_zero():
        raise DimensionMismatch("f-hat coordinates over U2 are wrong")
    return e, f
