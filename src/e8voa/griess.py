"""The exact weight-2 algebra of a lattice vertex algebra.

The underlying lattice N must be doubly even with no vectors of squared
norm 2, so the weight-2 space is spanned by the quadratic Heisenberg
states a(-1)b(-1).1, the derivative states a(-2).1, and the exponentials
e^x over the norm-4 vectors x of N.  The product u_1 v and the pairing
u_3 v are implemented by their mode rules; scalars may be rational or
cyclotomic and every computation is exact.

An element holds integer numerators over one denominator, indexed by the
context's basis; a value in Q(zeta_m) has phi(m) numerators, one per power
of zeta_m.  Sums, scalings, products, pairings and sigma place numerator
maps at powers of zeta_m and fold them once, in ``_fold``, on the rows that
``Cyclotomic`` uses.  For sigma of order n, sigma^p adds at most the field
Q(zeta_(n/gcd(n, p))).  The product and the pairing walk integer tables that
each context compiles on first use, so no scalar object is made per term.

Coordinates are coefficient vectors with respect to a fixed basis of N,
with all pairings taken through the Gram matrix, so a sqrt(2)-rescaled
root lattice never needs irrational entries.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm, prod
from operator import mul

from .codes import construction_A, data_cached, named_code
from .lattice import EvenLattice, coords_of_norm, coset_minimum
from .linalg import (RowSpace, clear_denominators, hermite_normal_form, identity, invert,
                     rank_mod_p)
from .scalars import Cyclotomic, _cyc, _images, _rational, euler_phi, half_turn_phase, is_zero


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
_ZERO = Fraction(0)


class AlgebraContext:
    """Weight-2 arithmetic for V_N, N given by a doubly even Gram matrix.

    ``basis``, when given, embeds N in an ambient space (``lattice.ambient``
    and ``lattice.coords`` map between keys and ambient vectors); by
    default the basis is the unit vectors.  ``gram`` is kept as int rows.

    ``keys`` indexes the weight-2 basis: ("q", a, b) for a(-1)b(-1).1 with
    a <= b, then ("d", a) for a(-2).1, then ("e", x) for e^x over the
    nonzero norm-4 vectors x; ``index`` inverts it.  The integer tables the
    product walks are compiled on first use.
    """

    def __init__(self, gram, label: str = "", basis=None):
        self.label = label
        self.lattice = EvenLattice(basis or identity(len(gram)), gram=gram)
        self.rank = r = self.lattice.rank
        if not self.lattice.is_doubly_even():
            raise ValueError("context lattice must be doubly even")
        self.gram = [[x.numerator for x in row] for row in self.lattice.gram]
        # doubly even: every norm is divisible by 4, so there is no norm-2
        # vector, and the norm-4 ones are nonzero
        self.norm4 = tuple(coords_of_norm(self.lattice, 4))
        self._norm4_max = max((abs(c) for v in self.norm4 for c in v), default=0)
        self.gram_inv = invert(self.gram)
        self.keys = tuple([("q", a, b) for a in range(r) for b in range(a, r)]
                          + [("d", a) for a in range(r)]
                          + [("e", x) for x in self.norm4])
        self.index = {k: i for i, k in enumerate(self.keys)}
        self.n_quad = r * (r + 1) // 2
        self.expo_start = self.n_quad + r
        self._omega = None
        self._phases = {}
        self._step_codes = {}

    @cached_property
    def tables(self) -> "_Tables":
        return _Tables(self)

    def pairing(self, u, v) -> Fraction:
        return self.lattice.pair(u, v)

    def sigma_phases(self, glue_coords):
        """(N, exps), cached: e^(-pi i B(glue, x)) = zeta_N^exps[i] on e^x at
        index i (``sigma_exponents`` over ``norm4``), None below ``expo_start``."""
        glue = tuple(glue_coords)
        out = self._phases.get(glue)
        if out is None:
            n, exps = sigma_exponents(self, glue, self.norm4)
            out = self._phases[glue] = n, (None,) * self.expo_start + tuple(exps)
        return out

    def zero(self) -> "GriessElement":
        return _make(self, 1, 1, ({},))

    def omega(self) -> "GriessElement":
        """The Virasoro element, (1/2) sum of dual-basis quadratic states."""
        if self._omega is None:
            r = self.rank
            self._omega = GriessElement(self, quad={
                (a, b): self.gram_inv[a][b] * (1 if a == b else 2) * HALF
                for a in range(r) for b in range(a, r)})
        return self._omega


def _dual_ints(ctx, key, den=1):
    """G . key / den as ints; key / den (int or Fraction entries) is in the dual."""
    g, g_den = ctx.lattice.gram_times(key)
    den *= g_den
    if any(x % den for x in g):
        raise ValueError("key is not in the dual lattice")
    return tuple(x // den for x in g)


def _key_codes(ctx, xs, den):
    """(codes, steps): c(x) = sum_k x_k b^k per int tuple x in xs, and
    {den c(y): index of e^y} over the norm-4 y, cached per (den, b).

    c is linear, so x_j - x_i = den y exactly when c(x_j) - c(x_i) = den c(y)
    and c is injective on both sides.  The digits of x_j - x_i are at most
    2 max|x_k|, those of den y at most den max|y_k|, and the odd b exceeds
    twice both; so where two such codes agree, the lowest differing digit
    would be a nonzero multiple of b of size at most b - 1.
    """
    big = max((abs(c) for x in xs for c in x), default=0)
    b = 2 * max(2 * big, den * ctx._norm4_max) + 1
    powers = [b ** k for k in range(ctx.rank)]
    steps = ctx._step_codes.get((den, b))
    if steps is None:
        scaled = [den * p for p in powers]
        steps = ctx._step_codes[den, b] = {
            sum(map(mul, y, scaled)): ctx.expo_start + k for k, y in enumerate(ctx.norm4)}
    return [sum(map(mul, x, powers)) for x in xs], steps


def _steps(ctx, xs, den, offset=0):
    """Per vector x_i, the (index of e^y, offset + j) over the norm-4
    y = (x_j - x_i) / den, in increasing j.

    The x_i are int tuples over den; each unordered pair costs one int
    difference of key codes and one lookup (``_key_codes``).
    """
    codes, steps = _key_codes(ctx, xs, den)
    get = steps.get
    out = [[] for _ in xs]
    for i, ci in enumerate(codes):
        for j in range(i + 1, len(codes)):
            e = get(codes[j] - ci)
            if e is not None:
                out[i].append((e, offset + j))
                out[j].append((steps[ci - codes[j]], offset + i))
    return out


class _Tables:
    """The integer structure tables of one context, indexed like ``ctx.keys``.

    Product weights are doubled, which clears the 1/2 of e^x . e^-x.  Per
    quad i: ``qq[i][j]``, the (target, weight) terms of i times quad or
    deriv j.  Per exponential e^x (below ``expo_start``: None): ``low``, the
    weights of the quad and deriv indices on e^x; ``opp``, the index of
    e^-x; ``opp_terms``, x(-1)^2 + x(-2), whose quad and deriv indices
    are all distinct; ``nbr``, the (e^y, e^(x+y)) pairs with B(x, y) = -2.
    ``opp`` and ``nbr`` are read off the int key codes of ``_key_codes``:
    e^-x has code -c(x), and x + y = x' exactly when c(x') - c(x) = c(y).
    ``form``: the pairing on quad and deriv indices.
    """

    def __init__(self, ctx: AlgebraContext):
        g, r = ctx.gram, ctx.rank
        nq, start = ctx.n_quad, ctx.expo_start
        quad = [k[1:] for k in ctx.keys[:nq]]

        def q(a, b):
            return ctx.index[("q", a, b) if a <= b else ("q", b, a)]

        def nonzero(*terms):
            # a repeated target needs no merging: the product sums every term
            return tuple(t for t in terms if t[1])

        self.qq = [[nonzero((q(b, d), 2 * g[a][c]), (q(b, c), 2 * g[a][d]),
                            (q(a, d), 2 * g[b][c]), (q(a, c), 2 * g[b][d]))
                    for c, d in quad]
                   + [nonzero((nq + b, 4 * g[a][c]), (nq + a, 4 * g[b][c]))
                      for c in range(r)]
                   for a, b in quad]
        self.form = ([[g[a][c] * g[b][d] + g[a][d] * g[b][c] for c, d in quad]
                      + [0] * r for a, b in quad]
                     + [[0] * nq + [-6 * g[a][b] for b in range(r)] for a in range(r)])
        pad = [None] * start
        gxs = [_dual_ints(ctx, x) for x in ctx.norm4]
        self.low = pad + [tuple(2 * gx[a] * gx[b] for a, b in quad)
                          + tuple(-2 * c for c in gx) for gx in gxs]
        codes, steps = _key_codes(ctx, ctx.norm4, 1)
        self.opp = pad + [steps[-c] for c in codes]
        self.opp_terms = pad + [tuple((i, w) for i, w in enumerate(
            [(1 if a == b else 2) * x[a] * x[b] for a, b in quad] + list(x)) if w)
            for x in ctx.norm4]
        self.nbr = pad + _steps(ctx, ctx.norm4, 1, start)


# ---------------------------------------------------------------------------
# elements: integer numerators over the context index


def _encode(x):
    """(m, den, nums) with x = sum_j nums[j] zeta_m^j / den; x is an int, a
    Fraction or a Cyclotomic, else TypeError."""
    if isinstance(x, Cyclotomic):
        return (x.order if x.order > 2 else 1), x.den, x.nums
    x = _rational(x)
    return 1, x.denominator, (x.numerator,)


def _value(m, den, nums):
    """The scalar sum_j nums[j] zeta_m^j / den: a Fraction when it is rational."""
    if not any(nums[1:]):
        return Fraction(nums[0], den)
    return _cyc(m, den, nums)


def _fold(m, placed):
    """sum w terms zeta_m^e over the (e, terms, w) in placed, terms a
    {index: int} map, as phi(m) numerator maps on the power basis of
    Q(zeta_m); zeta_m^e is folded by the rows that ``Cyclotomic`` uses."""
    rows = _images(m, 1, m)
    out = [{} for _ in range(euler_phi(m))]
    for e, terms, w in placed:
        for c, r in rows[e % m]:
            acc, wr = out[c], w * r
            for i, x in terms.items():
                acc[i] = acc.get(i, 0) + wr * x
    return out


def _field_product(mu, us, mv, vs, times):
    """(m, maps): sum_{j,k} times(us[j], vs[k]) zeta_mu^j zeta_mv^k over Q(zeta_m),
    m = lcm(mu, mv); ``times`` maps two nonzero operands to a numerator map."""
    m = lcm(mu, mv)
    return m, _fold(m, ((j * (m // mu) + k * (m // mv), times(a, b), 1)
                        for j, a in enumerate(us) if a for k, b in enumerate(vs) if b))


def _combination(ctx, pairs) -> "GriessElement":
    """sum c el over the (c, el) in pairs, each c rational or cyclotomic."""
    coded = [(_encode(c), el) for c, el in pairs]
    if any(el.ctx is not ctx for _, el in coded):
        raise ContextMismatch("elements live in different contexts")
    m = lcm(1, *(lcm(cm, el.m) for (cm, _, _), el in coded))
    den = lcm(1, *(cd * el.den for (_, cd, _), el in coded))
    return _make(ctx, m, den, _fold(m, (
        (j * (m // cm) + k * (m // el.m), terms, x * (den // (cd * el.den)))
        for (cm, cd, nums), el in coded for j, x in enumerate(nums) if x
        for k, terms in enumerate(el.comps))))


def _normal(m, den, comps):
    """(m, den, comps) with zeros dropped, the common factor removed and
    Q(zeta_2) written as Q."""
    comps = [{i: x for i, x in terms.items() if x} for terms in comps]
    if not any(comps):
        return 1, 1, ({},)
    g = den
    for terms in comps:
        g = gcd(g, *terms.values())
    if g > 1:
        den //= g
        comps = [{i: x // g for i, x in terms.items()} for terms in comps]
    return (1 if m == 2 else m), den, tuple(comps)


def _make(ctx, m, den, comps) -> "GriessElement":
    el = object.__new__(GriessElement)
    el.ctx = ctx
    el.m, el.den, el.comps = _normal(m, den, comps)
    return el


class GriessElement:
    """A weight-2 vector over the context index, with integer numerators.

    The coefficient of basis vector i is sum_j comps[j][i] zeta_m^j / den:
    one sparse {index: int} map per power of zeta_m, phi(m) in all.  The
    numerators have no common factor with den, and Q(zeta_2) is written as
    m = 1.  Elements are immutable; ``parts`` reads the coefficients back as
    Fraction or Cyclotomic values.
    """

    __slots__ = ("ctx", "m", "den", "comps")

    def __init__(self, ctx, quad=None, deriv=None, expo=None):
        """The element with coefficients keyed (a, b), a <= b, for a(-1)b(-1).1,
        a for a(-2).1 and the norm-4 key x for e^x."""
        labels = ([(("q", a, b), c) for (a, b), c in (quad or {}).items()]
                  + [(("d", a), c) for a, c in (deriv or {}).items()]
                  + [(("e", _int_key(k)), c) for k, c in (expo or {}).items()])
        if any(label not in ctx.index for label, _ in labels):
            raise ValueError("no such weight-2 basis vector; an exponential key "
                             "must be a norm-4 lattice vector")
        coded = [(ctx.index[label], *_encode(c)) for label, c in labels]
        m = lcm(1, *(cm for _, cm, _, _ in coded))
        den = lcm(1, *(d for _, _, d, _ in coded))
        self.ctx = ctx
        self.m, self.den, self.comps = _normal(m, den, _fold(m, (
            (j * (m // cm), {i: x}, den // d)
            for i, cm, d, nums in coded for j, x in enumerate(nums))))

    def parts(self):
        """(quad, deriv, expo): the nonzero coefficients, keyed as in the constructor."""
        out = ({}, {}, {})
        for i in sorted(set().union(*self.comps)):
            label = self.ctx.keys[i]
            value = self.coefficient(i)
            out["qde".index(label[0])][label[1:] if label[0] == "q" else label[1]] = value
        return out

    def coefficient(self, i):
        """The coefficient of context basis vector i."""
        return _value(self.m, self.den, [terms.get(i, 0) for terms in self.comps])

    def scaled(self, c):
        return _combination(self.ctx, [(c, self)])

    def __add__(self, other):
        if not isinstance(other, GriessElement):
            return NotImplemented
        return _combination(self.ctx, [(1, self), (1, other)])

    def __sub__(self, other):
        if not isinstance(other, GriessElement):
            return NotImplemented
        return _combination(self.ctx, [(1, self), (-1, other)])

    def __neg__(self):
        return _combination(self.ctx, [(-1, self)])

    def is_zero(self) -> bool:
        return not any(self.comps)

    def __eq__(self, other):
        if not isinstance(other, GriessElement):
            return NotImplemented
        return (self - other).is_zero()

    def __hash__(self):
        raise TypeError("GriessElement is unhashable")


def _square_sum(ctx, keys):
    """sum x(-1)^2 over the norm-4 keys, as {quad index: int}."""
    t = ctx.tables
    out = {}
    for x in keys:
        i = ctx.index.get(("e", x))
        if i is None:
            raise EmbeddingError("root does not lie in the context lattice")
        for j, w in t.opp_terms[i]:
            if j < ctx.n_quad:
                out[j] = out.get(j, 0) + w
    return out


# ---------------------------------------------------------------------------
# the product, the pairing and the automorphisms


def _split(start, a):
    """(a, low, exp): a numerator map and its (index, numerator) pairs below
    and from ``start``, the operand form that ``_mul_terms`` reads."""
    return a, [e for e in a.items() if e[0] < start], [e for e in a.items() if e[0] >= start]


def _mul_terms(t, sa, sb, acc):
    """acc, a list over the context index or a defaultdict(int), plus twice
    the product u_1 v of two split numerator maps (``_split``)."""
    a, alow, aexp = sa
    b, blow, bexp = sb
    nq = len(t.qq)
    # quad . quad and quad . deriv; deriv . quad and deriv . deriv vanish
    for i, x in alow:
        if i < nq:
            row = t.qq[i]
            for j, y in blow:
                xy = x * y
                for k, w in row[j]:
                    acc[k] += xy * w
    # quad and deriv acting on e^x, from either side
    low = t.low
    for side, exps in ((alow, bexp), (blow, aexp)):
        if side:
            for k, y in exps:
                pat = low[k]
                s = 0
                for i, x in side:
                    s += x * pat[i]
                if s:
                    acc[k] += s * y
    # expo . expo: only pairings -2 (recombination) and -4 (opposite keys)
    # contribute; the doubly even lattice rules out everything else.  The
    # loop runs over the sparser side; the neighbour relation is symmetric.
    if aexp and bexp:
        opp, opp_terms, nbr = t.opp, t.opp_terms, t.nbr
        flip = len(bexp) < len(aexp)
        exps, other = (bexp, a) if flip else (aexp, b)
        for k, x in exps:
            y = other.get(opp[k])
            if y:
                xy = x * y
                for j, w in opp_terms[opp[k] if flip else k]:
                    acc[j] += xy * w
            for yk, target in nbr[k]:
                y = other.get(yk)
                if y:
                    acc[target] += 2 * x * y
    return acc


def product(ctx: AlgebraContext, u: GriessElement, v: GriessElement) -> GriessElement:
    """The weight-2 product u_1 v."""
    if u.ctx is not ctx or v.ctx is not ctx:
        raise ContextMismatch("product arguments from a different context")
    t, start = ctx.tables, ctx.expo_start

    def times(sa, sb):
        # operands here are mostly dense, and a list indexes faster than a dict
        acc = _mul_terms(t, sa, sb, [0] * len(t.opp))
        return {i: x for i, x in enumerate(acc) if x}

    # an empty component stays falsy, so _field_product skips it
    m, comps = _field_product(u.m, [c and _split(start, c) for c in u.comps],
                              v.m, [c and _split(start, c) for c in v.comps], times)
    return _make(ctx, m, 2 * u.den * v.den, comps)


def inner(ctx: AlgebraContext, u: GriessElement, v: GriessElement):
    """The invariant pairing read off from the third product u_3 v."""
    if u.ctx is not ctx or v.ctx is not ctx:
        raise ContextMismatch("inner arguments from a different context")
    t = ctx.tables
    start = ctx.expo_start

    def pair(a, b):
        # one numerator, kept at index 0 so that _field_product can fold it
        blow = [(j, y) for j, y in b.items() if j < start]
        s = 0
        for i, x in a.items():
            if i < start:
                row = t.form[i]
                for j, y in blow:
                    s += x * y * row[j]
            else:
                s += x * b.get(t.opp[i], 0)
        return {0: s}

    m, comps = _field_product(u.m, u.comps, v.m, v.comps, pair)
    return _value(m, u.den * v.den, [terms.get(0, 0) for terms in comps])


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
    keys = [_int_key(k) for k in root_keys]
    squares = _square_sum(ctx, keys)
    if any(("e", _neg(k)) not in ctx.index for k in keys):
        raise EmbeddingError("root set must be closed under negation")
    h, rem = divmod(len(keys), len(hermite_normal_form(keys)))
    if rem:
        raise EmbeddingError("root count is not a multiple of the rank")
    # omega(Phi) = sum x(-1)^2 / 8h, s = sum (x(-1)^2 / 8 - e^x) / (h + 2)
    omega_phi = _make(ctx, 1, 8 * h, [squares])
    s = _make(ctx, 1, 8 * (h + 2), _fold(1, [(0, squares, 1)] + [
        (0, {ctx.index[("e", k)]: 1}, -8) for k in keys]))
    return {"omega": omega_phi, "s": s, "omega_tilde": omega_phi - s, "h": h}


def _neg(key):
    return tuple(-x for x in key)


def apply_theta(el: GriessElement) -> GriessElement:
    """The lift of -1: a(-2) -> -a(-2) and e^x -> e^-x."""
    ctx = el.ctx
    nq, start, opp = ctx.n_quad, ctx.expo_start, ctx.tables.opp
    return _make(ctx, el.m, el.den, tuple(
        {(i if i < start else opp[i]): (-x if nq <= i < start else x)
         for i, x in terms.items()} for terms in el.comps))


def sigma_phase(ctx: AlgebraContext, glue_coords, key):
    """Phase of the lattice automorphism exp(-pi i beta(0)) on e^key."""
    t = ctx.pairing(glue_coords, key)
    return half_turn_phase(t)


def sigma_exponents(ctx: AlgebraContext, glue_coords, xs, den=1):
    """(N, exps) with e^(-pi i B(glue, x_i / den)) = zeta_N^exps[i].

    The x_i are int tuples over den and the exponents lie in [0, N).  With
    G glue = g / d as ints, B(glue, x / den) = g.x / (d den), so N = 2 d den
    serves every x alike and the phases compare as integers mod N.
    """
    g, d = ctx.lattice.gram_times(glue_coords)
    n = 2 * d * den
    return n, [-sum(map(mul, g, x)) % n for x in xs]


def apply_sigma(ctx: AlgebraContext, glue_coords, el: GriessElement,
                power: int = 1) -> GriessElement:
    """sigma^power on el: e^x times zeta_N^(power exps[x]) (``sigma_phases``),
    over Q(zeta_m), m the lcm of el.m and the orders N / gcd(N, power exps[x])."""
    n, exps = ctx.sigma_phases(glue_coords)
    start = ctx.expo_start
    m = lcm(el.m, *(n // gcd(n, exps[i] * power)
                    for terms in el.comps for i in terms if i >= start))
    # zeta_m^j of el is zeta_m^(j m / el.m); power exps[x] m / n is whole, m / n need not be
    return _make(ctx, m, el.den, _fold(m, (
        (j * (m // el.m) + (exps[i] * power * m // n if i >= start else 0), {i: x}, 1)
        for j, terms in enumerate(el.comps) for i, x in terms.items())))


# ---------------------------------------------------------------------------
# modules over the minimal-weight subspace of a coset


class ModuleSpace:
    """Minimal-weight subspace of the module attached to a dual coset.

    Key i is the int tuple ``scaled_keys[i]`` over the coset's one
    denominator ``den``, in sorted order; ``gvecs[i]`` is G . key as ints,
    and ``lowering[i]`` lists the (index of e^y, j) over the norm-4 y with
    key_i + y = key_j, the only exponentials that act within the space,
    found by ``_steps`` on int key codes.  The Fraction ``keys`` and their
    ``index`` are built on first read.

    In ``sqrt2_root_context`` (R's coefficient basis, its Gram matrix
    doubled) the norm-4 y are R's roots and ``weight`` is the coset's
    minimal norm k in R.  The roots are closed under negation, so
    ``len(lowering[i])`` is |X_eta| at eta = key_i: the number of roots
    alpha with eta - alpha minimal.
    """

    def __init__(self, ctx: AlgebraContext, shift_coords):
        self.ctx = ctx
        self.min_norm, den, xs = coset_minimum(ctx.lattice, shift_coords)
        self.weight = self.min_norm / 2
        self.den = den
        self.scaled_keys = sorted(xs)
        self.gvecs = [_dual_ints(ctx, key, den) for key in self.scaled_keys]
        self.lowering = _steps(ctx, self.scaled_keys, den)

    @cached_property
    def keys(self):
        return [tuple(Fraction(x, self.den) for x in key) for key in self.scaled_keys]

    @cached_property
    def index(self):
        return {z: i for i, z in enumerate(self.keys)}

    def __len__(self):
        return len(self.scaled_keys)

    def act_rows(self, u: GriessElement):
        """(rows, den): u_1 on the space as int rows over one denominator,
        for a rational u."""
        if u.ctx is not self.ctx:
            raise ContextMismatch("act_rows argument from a different context")
        if u.m != 1:
            raise ValueError("act_rows needs a rational element")
        return _act(self, u)[0], u.den

    def act_matrix(self, u: GriessElement):
        """u_1 on the space as values: ``_act``'s numerators over u.den, with
        every zero entry the shared ``_ZERO``."""
        if u.ctx is not self.ctx:
            raise ContextMismatch("act_matrix argument from a different context")
        return [[_value(u.m, u.den, nums) if any(nums) else _ZERO for nums in zip(*rows)]
                for rows in zip(*_act(self, u))]


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


def _act(sp, u):
    """u_1 on the space sp: one n x n int matrix per numerator map of u.

    The quad and deriv terms act on e^key by G . key, on the diagonal, and
    e^y sends key b to key a on each lowering pair (y, a) of b."""
    keys, nq, start, n = sp.ctx.keys, sp.ctx.n_quad, sp.ctx.expo_start, len(sp)
    mats = []
    for terms in u.comps:
        quad = [(x, keys[i][1], keys[i][2]) for i, x in terms.items() if i < nq]
        deriv = [(x, i - nq) for i, x in terms.items() if nq <= i < start]
        mat = [[0] * n for _ in range(n)]
        for b, gx in enumerate(sp.gvecs):
            mat[b][b] = (sum(x * gx[i] * gx[j] for x, i, j in quad)
                         - sum(x * gx[i] for x, i in deriv))
            for y, a in sp.lowering[b]:
                mat[a][b] = terms.get(y, 0)
        mats.append(mat)
    return mats


def module_act(ctx, u: GriessElement, mv: ModuleVector) -> ModuleVector:
    sp = mv.space
    if sp.ctx is not ctx or u.ctx is not ctx:
        raise ContextMismatch("module_act arguments from a different context")
    cols = list(zip(*sp.act_matrix(u)))
    out = {}
    for key, c in mv.terms.items():
        col = sp.index.get(key)
        if col is None:
            raise LeavesMinimalSpace("module key is not in the minimal-weight space")
        for row, v in enumerate(cols[col]):
            if v is not _ZERO:
                out[row] = out.get(row, 0) + c * v
    return ModuleVector(sp, {sp.keys[r]: v for r, v in out.items() if not is_zero(v)})


# ---------------------------------------------------------------------------
# tau involutions


MODULE_EIGENVALUES = (Fraction(0), HALF, Fraction(1, 16))


class TauInvolution:
    """tau_e: -1 on the 1/16-class eigenspaces of e_1, +1 elsewhere."""

    def __init__(self, matrix):
        self._matrix = matrix

    def matrix(self):
        return self._matrix


def tau_rows(rows, den, allowed):
    """(tau, q) with tau_e = tau / q, for the action M = rows / den certified
    diagonalizable over ``allowed``.

    ``allowed`` holds one eigenvalue t of the 1/16 class (t - 1/16 an
    integer).  P = prod_{lam != t} (M - lam) is formed once, on ints: the
    spectrum is certified by P (M - t) = 0, and then P is q = P(t) times the
    projection onto the t-eigenspace, so tau = I - 2 P / q, that is q I - 2 P
    over q.  Over (0, 1/2, 1/16) this is tau = I + (512/7) M (M - 1/2).
    """
    a, shifts = _int_shifts(rows, den, allowed)
    (t,) = [s for lam, s in zip(allowed, shifts) if 16 * lam % 16 == 1]
    others = [s for s in shifts if s != t]
    p = _shifted_product(a, others)
    # P (a - t) = 0 entry by entry: (P a)_ij = t P_ij
    cols = list(zip(*a))
    if any(sum(map(mul, row, col)) != t * x for row in p for col, x in zip(cols, row)):
        raise BadSpectrum("action is not diagonalizable over the expected set")
    q = prod(t - s for s in others)
    return [[q * (i == j) - 2 * x for j, x in enumerate(row)] for i, row in enumerate(p)], q


def tau_from_matrix(mat, allowed) -> TauInvolution:
    """tau of an action matrix of values: the Fraction view of ``tau_rows``."""
    tau, q = tau_rows(*clear_denominators(mat), allowed)
    return TauInvolution([[Fraction(x, q) if x else _ZERO for x in row] for row in tau])


def _int_shifts(mat, den, eigenvalues):
    """(a, shifts) in ints, with mat / den - lam = (a - shift) / (d * den)."""
    lams = [Fraction(lam) * den for lam in eigenvalues]
    d = lcm(*(lam.denominator for lam in lams))
    return [[x * d for x in row] for row in mat], [int(lam * d) for lam in lams]


def _shifted_product(a, shifts):
    """prod over the shifts s of (a - s I), for an int matrix a, in integers."""
    n = len(a)
    out = [[int(i == j) for j in range(n)] for i in range(n)]
    for k, s in enumerate(shifts):
        term = [[x - s if i == j else x for j, x in enumerate(row)]
                for i, row in enumerate(a)]
        if k:
            cols = list(zip(*term))
            term = [[sum(map(mul, row, col)) for col in cols] for row in out]
        out = term
    return out


def annihilates(mat, den, eigenvalues) -> bool:
    """Whether prod (mat / den - lam) vanishes, for an int matrix, in integers."""
    return not any(map(any, _shifted_product(*_int_shifts(mat, den, eigenvalues))))


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
    for name, block, eigs in (
        ("even", even_keys, (Fraction(0), HALF, Fraction(2))),
        ("odd", odd_keys, (Fraction(1, 16), Fraction(17, 16))),
    ):
        rows, den = _block_matrix(ctx, e, block)  # square, about half dense: read densely
        if not annihilates([[r.get(c, 0) for c in range(len(rows))] for r in rows], den, eigs):
            raise BadSpectrum(f"theta-{name} block has eigenvalues outside {eigs}")
        blocks[name] = len(block)
    return blocks


# ---------------------------------------------------------------------------
# the sqrt(2)E8 context and the families attached to the nine nodes


def sqrt2_root_context(letter: str, rank: int):
    """The root system of the type and the algebra context of sqrt(2) times its lattice."""
    from .rootsys import build_root_system
    rs = build_root_system(letter, rank)
    gram2 = [[2 * x for x in row] for row in rs.lattice.gram]
    return rs, AlgebraContext(gram2, label=f"sqrt2{letter}{rank}")


@data_cached()
def e8_context() -> AlgebraContext:
    from .rootsys import e8_paper_data
    cartan = e8_paper_data()["lattice"].gram
    gram2 = [[2 * x for x in row] for row in cartan]
    return AlgebraContext(gram2, label="sqrt2E8")


def _int_key(vec):
    vec = tuple(vec)
    if all(type(x) is int for x in vec):
        return vec
    out = tuple(int(x) for x in vec)
    if out != vec:
        raise ValueError("expected an integral coefficient vector")
    return out


class NodeFamilies:
    """e-hat, f-hat = sigma(e-hat), the graded sums X^j, and the component
    Virasoro pairs."""

    def __init__(self, node):
        ctx = e8_context()
        self.ctx = ctx
        self.node = node
        classes = node.coset_classes()
        self.key_class = {k: classes[k] for k in ctx.norm4}
        # sigma multiplies e^x by zeta_N^exps[x]; on a class-j key that must
        # be zeta_n^j, so that f-hat = sigma(e-hat) is the twisted sum
        big_n, exps = ctx.sigma_phases(node.glue_coords)
        if any((e * node.n - self.key_class[k] * big_n) % (big_n * node.n)
               for k, e in zip(ctx.norm4, exps[ctx.expo_start:])):
            raise AssertionError("sigma phases do not match the coset classes")

        self.e_hat = ctx.omega().scaled(Fraction(1, 16)) + GriessElement(
            ctx, expo={k: Fraction(1, 32) for k in ctx.norm4})
        self.f_hat = self.sigma(self.e_hat)
        self.X = {j: GriessElement(ctx, expo={k: 1 for k in ctx.norm4
                                              if self.key_class[k] == j})
                  for j in range(1, node.n)}

        self.components = node.components
        fam = [build_virasoro_family(ctx, [_int_key(r) for r in comp.root_coords])
               for comp in node.components]
        self.s = [x["s"] for x in fam]
        self.omega_tilde = [x["omega_tilde"] for x in fam]

    def sigma(self, el, power=1):
        return apply_sigma(self.ctx, self.node.glue_coords, el, power=power)


@data_cached()
def build_node_family(i: int) -> NodeFamilies:
    from .rootsys import extended_e8_node
    return NodeFamilies(extended_e8_node(i))


# ---------------------------------------------------------------------------
# the Hamming-model context and its conformal vectors


def hamming_context() -> AlgebraContext:
    """The context of the Construction-A lattice of the Hamming code in use now."""
    lat = construction_A(named_code("Hamming8"))
    return AlgebraContext(lat.gram, label="A(H8)", basis=lat.basis)


def hamming_cosets_even():
    """Representatives of the even cosets of the Hamming code in F_2^8."""
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

    def __init__(self):
        ctx = hamming_context()
        self.ctx = ctx
        self.code_words = sorted(set(named_code("Hamming8").words()))
        amb = {k: tuple(int(x) for x in ctx.lattice.ambient(k)) for k in ctx.norm4}
        self.X = {0: {}, 1: {}}
        for gamma in self.code_words:
            keys = [k for k, a in amb.items() if tuple(x % 2 for x in a) == gamma]
            self.X[0][gamma] = GriessElement(ctx, expo={k: 1 for k in keys})
            self.X[1][gamma] = GriessElement(
                ctx, expo={k: (-1) ** (sum(amb[k]) // 2 % 2) for k in keys})

    def e_hat(self, eps: int, delta) -> GriessElement:
        return _combination(self.ctx, [(Fraction(1, 16), self.ctx.omega())] + [
            (Fraction((-1) ** (sum(map(mul, delta, gamma)) % 2), 32), self.X[eps][gamma])
            for gamma in self.code_words])

    def standard_frame(self):
        ctx = self.ctx
        frame = []
        for j in range(8):
            lam = tuple(Fraction(2 * int(t == j)) for t in range(8))
            key = _int_key(ctx.lattice.coords(lam))
            for sign in (1, -1):
                # x(-1)^2 / 16 + sign (e^x + e^-x) / 4
                terms = _square_sum(ctx, [key])
                terms[ctx.index[("e", key)]] = 4 * sign
                terms[ctx.index[("e", _neg(key))]] = 4 * sign
                frame.append(_make(ctx, 1, 16, [terms]))
        return frame

    def hamming_frame(self):
        reps = hamming_cosets_even()
        return [self.e_hat(eps, delta) for eps in (0, 1) for delta in reps]


@data_cached("Hamming8")
def build_hamming_family() -> HammingFamilies:
    """The Hamming-model families of the Hamming code in use now."""
    return HammingFamilies()


# ---------------------------------------------------------------------------
# the coset subalgebra U and its weight-2 piece


class U2Data:
    """U2 over its basis; basis vector k alone is nonzero at index pivots[k]."""

    def __init__(self, node, basis, pivots, gram, structure, block_dims):
        self.node, self.basis, self.pivots, self.gram = node, basis, pivots, gram
        self.structure, self.block_dims = structure, block_dims

    @property
    def dim(self):
        return len(self.basis)

    def coords(self, el):
        """Coordinates c_k = el / b_k at b_k's pivot, or None unless el - sum
        c_k b_k vanishes on every index.  el may be cyclotomic."""
        cs = [el.coefficient(p) / b.coefficient(p) for p, b in zip(self.pivots, self.basis)]
        rest = _combination(el.ctx, [(1, el)] + [(-c, b) for c, b in zip(cs, self.basis)])
        return cs if rest.is_zero() else None

    def multiply_coords(self, u, v):
        out = [0] * self.dim
        for x, table in zip(u, self.structure):
            if not is_zero(x):
                for y, ws in zip(v, table):
                    if not is_zero(y):
                        c = x * y
                        out = [o + c * w if w else o for o, w in zip(out, ws)]
        return out

    def inner_coords(self, u, v):
        total = 0
        for x, row in zip(u, self.gram):
            if not is_zero(x):
                for y, g in zip(v, row):
                    if not is_zero(y) and g:
                        total = total + x * y * g
        return total


def _theta_split_keys(ctx, norm4_keys):
    """The theta-even and theta-odd blocks over the given norm-4 keys.

    A block is a list of vectors, each a tuple of (index, sign) pairs.
    Both blocks take all quadratic (even) or derivative (odd) states and
    one pair e^x + e^-x (even) or e^x - e^-x (odd) per key up to sign.
    """
    nq, start, opp = ctx.n_quad, ctx.expo_start, ctx.tables.opp
    even = [((i, 1),) for i in range(nq)]
    odd = [((i, 1),) for i in range(nq, start)]
    seen = set()
    for k in norm4_keys:
        i = ctx.index[("e", k)]
        if i in seen:
            continue
        seen.update((i, opp[i]))
        even.append(((i, 1), (opp[i], 1)))
        odd.append(((i, 1), (opp[i], -1)))
    return even, odd


def _block_matrix(ctx, op, block):
    """(rows, den): op_1 on the block's span as sparse {column: int} rows over
    den = 2 op.den, indexed by the block's vectors.  Raises ArithmeticError if
    op is not rational, or if an image leaves the block or is not theta-symmetric.
    """
    if op.m != 1:
        raise ArithmeticError("block operator is not rational")
    t, start = ctx.tables, ctx.expo_start
    sop = _split(start, op.comps[0])
    where = {i: c for c, vec in enumerate(block) for i, _ in vec}
    rows = [{} for _ in block]
    for c, vec in enumerate(block):
        img = _mul_terms(t, sop, _split(start, dict(vec)), defaultdict(int))
        img = {i: x for i, x in img.items() if x}
        if not img.keys() <= where.keys():
            raise ArithmeticError("operator image leaves the block")
        for r in {where[i] for i in img}:
            xs = {img.get(i, 0) * sign for i, sign in block[r]}
            if len(xs) != 1:
                raise ArithmeticError("operator image is not theta-symmetric")
            rows[r][c] = xs.pop()
    return rows, 2 * op.den


def _stacked_rows(ctx, operators, block):
    """The sparse int rows of several operators on a block, stacked."""
    return [row for op in operators for row in _block_matrix(ctx, op, block)[0]]


def _u2_blocks(fams):
    """The blocks of coset_U2 by grade j, grade 0 as its theta-even and
    theta-odd halves."""
    ctx = fams.ctx
    expo_blocks = {j: [] for j in range(fams.node.n)}
    for k in ctx.norm4:
        expo_blocks[fams.key_class[k]].append(k)
    blocks = {0: list(_theta_split_keys(ctx, expo_blocks[0]))}
    for j in range(1, fams.node.n):
        blocks[j] = [[((ctx.index[("e", k)], 1),) for k in expo_blocks[j]]]
    return blocks


def coset_U2(i: int) -> U2Data:
    """Weight-2 commutant of the component Virasoro vectors s^k.

    The kernel is computed blockwise: the coset grading splits the space
    into sigma-eigenblocks preserved by every (s^k)_1, and the class-0
    block splits further into theta-even and theta-odd halves.

    The dimension is certified from both sides.  Per block, ``len(block)
    - rank_mod_p`` of the stacked rows bounds the kernel from above, as
    the rank mod p is at most the rank over Q.  The claimed basis (l
    vectors of grade 0, one X_j per grade j) lies in the kernel and is
    independent (each vector alone is nonzero at its pivot key), so the
    whole kernel has dimension at least l + n - 1.
    The kernel is the direct sum of the block kernels (``_block_matrix``
    raises if an image leaves its block), so upper bounds equal to l and
    to 1 are met in every grade.  A prime that loses rank can only make
    the bounds disagree.
    """
    fams = build_node_family(i)
    ctx = fams.ctx
    node = fams.node
    n, l = node.n, len(node.components)

    block_dims = {j: sum(len(b) - rank_mod_p(_stacked_rows(ctx, fams.s, b))
                         for b in bs)
                  for j, bs in _u2_blocks(fams).items()}
    lower = {j: l if j == 0 else 1 for j in range(n)}
    if block_dims != lower:
        raise DimensionMismatch(
            f"node {i}: U2 kernel upper bounds {block_dims} per grade, "
            f"against lower bounds {lower}")

    basis = list(fams.omega_tilde) + [fams.X[j] for j in range(1, n)]
    # claimed basis really lies in the kernel
    if not all(product(ctx, s, b).is_zero() for b in basis for s in fams.s):
        raise DimensionMismatch(f"node {i}: claimed U2 vector not in kernel")
    # and is independent: each vector alone is nonzero at its pivot, some e^x
    # with x a root of component k for omega_tilde_k, a class-j key for X_j
    supports = [{p for terms in b.comps for p in terms if p >= ctx.expo_start}
                for b in basis]
    pivots = [min(sup.difference(*supports[:k], *supports[k + 1:]), default=None)
              for k, sup in enumerate(supports)]
    if None in pivots:
        raise DimensionMismatch(f"node {i}: U2 basis vector {pivots.index(None)} "
                                "has no pivot key")
    gram = [[inner(ctx, a, b) for b in basis] for a in basis]
    u2 = U2Data(node, basis, pivots, gram, [], block_dims)
    for a in basis:
        row = [u2.coords(product(ctx, a, b)) for b in basis]
        if None in row:
            raise DimensionMismatch(f"node {i}: U2 is not closed under products")
        u2.structure.append(row)
    # the closure below multiplies each unordered pair once
    if any(u2.structure[a][b] != u2.structure[b][a]
           for a in range(len(basis)) for b in range(a)):
        raise DimensionMismatch(f"node {i}: U2 structure constants are not symmetric")
    return u2


@data_cached()
def coset_U2_cached(i: int) -> U2Data:
    return coset_U2(i)


def generated_closure_coords(u2: U2Data, seed_coords):
    """Smallest product-closed subspace of U2 containing the seeds.

    Everything happens in coordinates over the U2 basis; scalars may be
    cyclotomic.  Returns the dimension and a row-reduced basis.  U2 is
    commutative (``coset_U2`` certifies its structure constants symmetric),
    so each unordered pair of spanning rows is multiplied once.  A spanning
    row is an echelon row as first inserted, which is sparse.
    """
    space, gens, todo = RowSpace(), [], list(seed_coords)
    while todo:
        a = space.add(todo.pop())
        if a is not None:
            gens.append(a)
            todo += [u2.multiply_coords(a, b) for b in gens]
    return len(space.rows), space.rows


def e_f_coords(u2: U2Data):
    """Coordinates of e-hat and f-hat over the U2 basis."""
    fams = build_node_family(u2.node.i)
    e, f = u2.coords(fams.e_hat), u2.coords(fams.f_hat)
    if e is None or f is None:
        raise DimensionMismatch(f"node {u2.node.i}: e-hat or f-hat does not lie in U2")
    return e, f
