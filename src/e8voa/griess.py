"""The exact weight-2 algebra of a lattice vertex algebra.

The underlying lattice N must be doubly even with no vectors of squared
norm 2, so the weight-2 space is spanned by the quadratic Heisenberg
states a(-1)b(-1).1, the derivative states a(-2).1, and the exponentials
e^x over the norm-4 vectors x of N.  The product u_1 v and the pairing
u_3 v are implemented by their mode rules; scalars may be rational or
cyclotomic and every computation is exact.

An element holds integer numerators over one denominator, indexed by the
context's basis; a value in Q(zeta_m) has phi(m) numerators, one per power
of zeta_m.  The product and the pairing walk integer tables that each
context compiles on first use, so no scalar object is made per term.

Coordinates are coefficient vectors with respect to a fixed basis of N,
with all pairings taken through the Gram matrix, so a sqrt(2)-rescaled
root lattice never needs irrational entries.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, lru_cache
from math import gcd, lcm, prod
from operator import mul

from .codes import construction_A, data_cached, named_code
from .lattice import EvenLattice, coset_minimum, enumerate_short
from .linalg import (RowSpace, clear_denominators, identity, invert,
                     mat_mul, rank_mod_p)
from .scalars import Cyclotomic, _cyc, half_turn_phase, is_zero, power_table


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
        hits = enumerate_short(self.lattice, 4)
        if any(n == 2 for _, n in hits):
            raise ValueError("context lattice must have no norm-2 vectors")
        norm4 = sorted(tuple(int(c) for c in z) for z, n in hits if n == 4)
        self.norm4 = tuple(v for v in norm4 if any(v))
        self._norm4_max = max((abs(c) for v in self.norm4 for c in v), default=0)
        self.gram_inv = invert(self.gram)
        self.keys = tuple([("q", a, b) for a in range(r) for b in range(a, r)]
                          + [("d", a) for a in range(r)]
                          + [("e", x) for x in self.norm4])
        self.index = {k: i for i, k in enumerate(self.keys)}
        self.n_quad = r * (r + 1) // 2
        self.expo_start = self.n_quad + r
        self._gvec = {}
        self._omega = None
        self._lowering = {}
        self._phases = {}
        self._step_codes = {}

    @cached_property
    def tables(self) -> "_Tables":
        return _Tables(self)

    def gvec(self, key):
        """G . key as ints, cached; key must lie in the dual lattice."""
        out = self._gvec.get(key)
        if out is None:
            out = self._gvec[key] = _dual_ints(self, key)
        return out

    def pairing(self, u, v) -> Fraction:
        return self.lattice.pair(u, v)

    def lowering(self, key):
        """Triples (index of e^y, B(key, y), key+y) over norm-4 y with
        B(key, y) <= -2, cached.

        These are the only exponentials whose action on e^key can stay in a
        minimal-weight space.
        """
        out = self._lowering.get(key)
        if out is None:
            gx = self.gvec(key)
            pairs = ((k, sum(map(mul, gx, y)), y) for k, y in enumerate(self.norm4))
            out = self._lowering[key] = tuple(
                (self.expo_start + k, b, tuple(p + q for p, q in zip(key, y)))
                for k, b, y in pairs if b <= -2)
        return out

    def sigma_phases(self, glue_coords):
        """Per index, (q, p) with e^(-pi i B(glue, x)) = zeta_q^p on e^x, cached."""
        glue = tuple(glue_coords)
        out = self._phases.get(glue)
        if out is None:
            n, exps = sigma_exponents(self, glue, self.norm4)
            out = [None] * self.expo_start
            for e in exps:
                g = gcd(n, e)
                out.append((n // g, e // g))
            self._phases[glue] = out
        return out

    def zero(self) -> "GriessElement":
        return _make(self, 1, 1, ({},))

    def monomial(self, label) -> "GriessElement":
        """The basis vector with the given label from ``keys``."""
        return _make(self, 1, 1, ({self.index[label]: 1},))

    def omega(self) -> "GriessElement":
        """The Virasoro element, (1/2) sum of dual-basis quadratic states."""
        if self._omega is None:
            r = self.rank
            self._omega = GriessElement(self, quad={
                (a, b): self.gram_inv[a][b] * (1 if a == b else 2) * HALF
                for a in range(r) for b in range(a, r)})
        return self._omega


def _dual_ints(ctx, key):
    """G . key as ints, for int or Fraction entries; key must lie in the dual."""
    g, den = ctx.lattice.gram_times(key)
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


def _merged(terms):
    """(index, weight) pairs with equal indices summed and zeros dropped."""
    out = {}
    for i, w in terms:
        out[i] = out.get(i, 0) + w
    return tuple((i, w) for i, w in out.items() if w)


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

        self.qq = [[_merged([(q(b, d), 2 * g[a][c]), (q(b, c), 2 * g[a][d]),
                             (q(a, d), 2 * g[b][c]), (q(a, c), 2 * g[b][d])])
                    for c, d in quad]
                   + [_merged([(nq + b, 4 * g[a][c]), (nq + a, 4 * g[b][c])])
                      for c in range(r)]
                   for a, b in quad]
        self.form = ([[g[a][c] * g[b][d] + g[a][d] * g[b][c] for c, d in quad]
                      + [0] * r for a, b in quad]
                     + [[0] * nq + [-6 * g[a][b] for b in range(r)] for a in range(r)])
        pad = [None] * start
        gxs = [ctx.gvec(x) for x in ctx.norm4]
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
    """(m, den, nums) with x = sum_j nums[j] zeta_m^j / den."""
    if isinstance(x, Cyclotomic):
        return (x.order if x.order > 2 else 1), x.den, x.nums
    x = x if isinstance(x, (int, Fraction)) else Fraction(x)
    return 1, x.denominator, (x.numerator,)


def _value(m, den, nums):
    """The scalar sum_j nums[j] zeta_m^j / den: a Fraction when it is rational."""
    if not any(nums[1:]):
        return Fraction(nums[0], den)
    return _cyc(m, den, nums)


def _add_into(out, terms, w):
    """out += w * terms, on {index: numerator} maps."""
    for i, x in terms.items():
        out[i] = out.get(i, 0) + w * x


def _spread(raw, m):
    """sum_e raw[e] zeta_m^e as phi(m) numerator maps on the power basis."""
    if m == 1:
        return raw
    table = power_table(m)
    out = [{} for _ in table[0]]
    for e, terms in enumerate(raw):
        for c, w in enumerate(table[e % m]):
            if w:
                _add_into(out[c], terms, w)
    return out


def _field_product(mu, us, mv, vs, times):
    """(m, maps): sum_{j,k} times(us[j], vs[k]) zeta_mu^j zeta_mv^k over Q(zeta_m).

    m = lcm(mu, mv); ``times`` maps two nonzero operands to a numerator map.
    """
    m = lcm(mu, mv)
    raw = [{} for _ in range(m)]
    for j, a in enumerate(us):
        if a:
            for k, b in enumerate(vs):
                if b:
                    _add_into(raw[(j * (m // mu) + k * (m // mv)) % m], times(a, b), 1)
    return m, _spread(raw, m)


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
        raw = [{} for _ in range(m)]
        for i, cm, d, nums in coded:
            for j, x in enumerate(nums):
                _add_into(raw[j * (m // cm)], {i: x}, den // d)
        self.ctx = ctx
        self.m, self.den, self.comps = _normal(m, den, _spread(raw, m))

    def parts(self):
        """(quad, deriv, expo): the nonzero coefficients, keyed as in the constructor."""
        out = ({}, {}, {})
        for i in sorted(set().union(*self.comps)):
            label = self.ctx.keys[i]
            value = _value(self.m, self.den, [terms.get(i, 0) for terms in self.comps])
            out["qde".index(label[0])][label[1:] if label[0] == "q" else label[1]] = value
        return out

    def scaled(self, c):
        cm, cd, nums = _encode(c)
        m, comps = _field_product(self.m, self.comps, cm, nums,
                                  lambda terms, x: {i: x * y for i, y in terms.items()})
        return _make(self.ctx, m, self.den * cd, comps)

    def __add__(self, other):
        if not isinstance(other, GriessElement):
            return NotImplemented
        if other.ctx is not self.ctx:
            raise ContextMismatch("elements live in different contexts")
        m, den = lcm(self.m, other.m), lcm(self.den, other.den)
        raw = [{} for _ in range(m)]
        for el in (self, other):
            for j, terms in enumerate(el.comps):
                _add_into(raw[j * (m // el.m)], terms, den // el.den)
        return _make(self.ctx, m, den, _spread(raw, m))

    def __sub__(self, other):
        return self + other.scaled(-1)

    def __neg__(self):
        return self.scaled(-1)

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


def _mul_terms(t, start, a, b):
    """Twice the product u_1 v of two numerator maps, as a numerator map."""
    acc = [0] * len(t.opp)
    alow = [(i, x) for i, x in a.items() if i < start]
    blow = [(i, x) for i, x in b.items() if i < start]
    aexp = [(i, x) for i, x in a.items() if i >= start]
    bexp = [(i, x) for i, x in b.items() if i >= start]
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
    return {i: x for i, x in enumerate(acc) if x}


def product(ctx: AlgebraContext, u: GriessElement, v: GriessElement) -> GriessElement:
    """The weight-2 product u_1 v."""
    if u.ctx is not ctx or v.ctx is not ctx:
        raise ContextMismatch("product arguments from a different context")
    t, start = ctx.tables, ctx.expo_start
    m, comps = _field_product(u.m, u.comps, v.m, v.comps,
                              lambda a, b: _mul_terms(t, start, a, b))
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
    r = len(RowSpace(keys).rows)
    h = Fraction(len(keys), r)
    if h.denominator != 1:
        raise EmbeddingError("root count is not a multiple of the rank")
    h = int(h)
    # omega(Phi) = sum x(-1)^2 / 8h, s = sum (x(-1)^2 / 8 - e^x) / (h + 2)
    omega_phi = _make(ctx, 1, 8 * h, [squares])
    s_terms = dict(squares)
    for k in keys:
        _add_into(s_terms, {ctx.index[("e", k)]: 1}, -8)
    s = _make(ctx, 1, 8 * (h + 2), [s_terms])
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
    phases = ctx.sigma_phases(glue_coords)
    start = ctx.expo_start
    m = lcm(el.m, *(phases[i][0] for terms in el.comps for i in terms if i >= start))
    # raw[e]: the terms multiplied by zeta_m^e; zeta_m^j of el is zeta_m^(j m / el.m)
    raw = [{} for _ in range(m)]
    for j, terms in enumerate(el.comps):
        for i, x in terms.items():
            e = j * (m // el.m)
            if i >= start:
                q, p = phases[i]
                e += p * power * (m // q)
            raw[e % m][i] = x
    return _make(ctx, m, el.den, _spread(raw, m))


# ---------------------------------------------------------------------------
# modules over the minimal-weight subspace of a coset


class ModuleSpace:
    """Minimal-weight subspace of the module attached to a dual coset.

    ``keys`` are the sorted rational coefficient vectors of the minimal
    coset vectors, and ``index``, built on first read, inverts them.
    Inside, key i is the int tuple ``scaled_keys[i]`` over the coset's one
    denominator ``den``, ``gvecs[i]`` is G . key as ints, and
    ``lowering[i]`` lists the (index of e^y, j) over the norm-4 y with
    key_i + y = key_j, the only exponentials that act within the space;
    ``_steps`` finds them by differences of the keys' int codes, one int
    subtraction and one lookup per pair of keys.
    """

    def __init__(self, ctx: AlgebraContext, shift_coords):
        self.ctx = ctx
        k, zs = coset_minimum(ctx.lattice, shift_coords)
        self.min_norm = k
        self.weight = k / 2
        self.keys = sorted(zs)
        rows, self.den = clear_denominators(self.keys)
        self.scaled_keys = [tuple(row) for row in rows]
        self.gvecs = [_dual_ints(ctx, key) for key in self.keys]
        self.lowering = _steps(ctx, self.scaled_keys, self.den)

    @cached_property
    def index(self):
        return {z: i for i, z in enumerate(self.keys)}

    def __len__(self):
        return len(self.keys)

    def _column_image(self, u: GriessElement, lows, col):
        """{row: value} of u_1 on key ``col``; ``lows`` is ``_low_terms(u)``."""
        return _act(self.ctx, u, lows, col, self.gvecs[col], self.lowering[col])

    def act_matrix(self, u: GriessElement):
        n, lows = len(self.keys), _low_terms(u)
        mat = [[_ZERO] * n for _ in range(n)]
        for col in range(n):
            for row, value in self._column_image(u, lows, col).items():
                mat[row][col] = value
        return mat


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


def _low_terms(el):
    """Per numerator map of el, its quad and deriv terms."""
    start = el.ctx.expo_start
    return [[(i, x) for i, x in terms.items() if i < start] for terms in el.comps]


def _act(ctx, u, lows, key, gx, pairs):
    """{label: value} of u_1 e^key; ``lows`` is ``_low_terms(u)``, gx is
    G . key as ints and ``pairs`` the (index of e^y, label of key + y) over
    the norm-4 y with B(key, y) = -2.  ``key`` and the labels may be module
    keys or positions in a space."""
    keys, nq = ctx.keys, ctx.n_quad
    images = []
    for low, terms in zip(lows, u.comps):
        acc = 0
        for i, x in low:
            if i < nq:
                acc += x * gx[keys[i][1]] * gx[keys[i][2]]
            else:
                acc -= x * gx[i - nq]
        image = {key: acc} if acc else {}
        for y, target in pairs:
            x = terms.get(y)
            if x:
                image[target] = x
        images.append(image)
    return {target: _value(u.m, u.den, [image.get(target, 0) for image in images])
            for target in dict.fromkeys(k for image in images for k in image)}


def module_act_on_key(ctx, u: GriessElement, key, index):
    """{module key: value} of u_1 e^key, for a key of the minimal-weight
    space whose keys ``index`` holds; the pairs come from ``ctx.lowering``."""
    support = set().union(*u.comps)
    pairs = []
    for y, b, target in ctx.lowering(key):
        if y in support:
            if b < -2:
                raise LeavesMinimalSpace("module key is not of minimal norm")
            if target not in index:
                raise LeavesMinimalSpace("action leaves the minimal-weight space")
            pairs.append((y, target))
    return _act(ctx, u, _low_terms(u), key, ctx.gvec(key), pairs)


def module_act(ctx, u: GriessElement, mv: ModuleVector) -> ModuleVector:
    sp, lows = mv.space, _low_terms(u)
    if sp.ctx is not ctx or u.ctx is not ctx:
        raise ContextMismatch("module_act arguments from a different context")
    out = {}
    for key, c in mv.terms.items():
        col = sp.index.get(key)
        if col is None:
            raise LeavesMinimalSpace("module key is not in the minimal-weight space")
        for row, v in sp._column_image(u, lows, col).items():
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


def tau_from_matrix(mat, allowed) -> TauInvolution:
    """tau of an action matrix M, certified diagonalizable over ``allowed``.

    Once prod (M - lam) = 0, tau is the Lagrange polynomial sum_lam s_lam
    prod_{mu != lam} (M - mu) / (lam - mu), s_lam = -1 on the 1/16 class,
    +1 elsewhere.  The basis sums to I, so tau = I - 2 (1/16-class terms),
    over (0, 1/2, 1/16) I + (512/7) M (M - 1/2); the products run on ints.
    """
    rows, den = clear_denominators(mat)
    if not annihilates(rows, den, allowed):
        raise BadSpectrum("action is not diagonalizable over the expected set")
    a, shifts = _int_shifts(rows, den, allowed)
    tau = identity(len(a))
    for lam, s in zip(allowed, shifts):
        if (lam - Fraction(1, 16)).denominator == 1:
            others = [t for t in shifts if t != s]
            c = Fraction(-2, prod(s - t for t in others))
            tau = [[x + c * y for x, y in zip(row, num)]
                   for row, num in zip(tau, _shifted_product(a, others))]
    return TauInvolution(tau)


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
        out = mat_mul(out, term) if k else term
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
        if not annihilates(*_block_matrix(ctx, e, block), eigs):
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


@lru_cache(maxsize=None)
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
    """e-hat, f-hat, the graded sums X^j, and the component Virasoro pairs."""

    def __init__(self, node):
        ctx = e8_context()
        self.ctx = ctx
        self.node = node
        classes = node.coset_classes()
        self.key_class = {k: classes[k] for k in ctx.norm4}

        omega16 = ctx.omega().scaled(Fraction(1, 16))
        self.e_hat = omega16 + GriessElement(
            ctx, expo={k: Fraction(1, 32) for k in ctx.norm4})
        self.X = {j: GriessElement(ctx, expo={k: 1 for k in ctx.norm4
                                              if self.key_class[k] == j})
                  for j in range(1, node.n)}

        self.components = node.components
        fam = [build_virasoro_family(ctx, [_int_key(r) for r in comp.root_coords])
               for comp in node.components]
        self.s = [x["s"] for x in fam]
        self.omega_tilde = [x["omega_tilde"] for x in fam]
        self.component_h = [x["h"] for x in fam]

        self.f_hat = omega16 + GriessElement(ctx, expo={
            k: Cyclotomic.zeta(node.n, j) * Fraction(1, 32) if j else Fraction(1, 32)
            for k, j in self.key_class.items()})
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


@data_cached("Hamming8")
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
    """(mat, den): the int matrix and denominator of op_1 on the block's span.

    Raises ArithmeticError if an image leaves the span of the block.
    """
    where = {i: (c, sign) for c, vec in enumerate(block) for i, sign in vec}
    cols, dens = [], []
    for vec in block:
        img = product(ctx, op, _make(ctx, 1, 1, (dict(vec),)))
        found = {}
        for i, x in img.comps[0].items():
            if img.m != 1 or i not in where:
                raise ArithmeticError("operator image leaves the block")
            c, sign = where[i]
            found.setdefault(c, []).append(x * sign)
        for c, xs in found.items():
            if len(xs) != len(block[c]) or len(set(xs)) != 1:
                raise ArithmeticError("operator image is not theta-symmetric")
        cols.append({c: xs[0] for c, xs in found.items()})
        dens.append(img.den)
    den = lcm(*dens)
    return [[col.get(r, 0) * (den // d) for col, d in zip(cols, dens)]
            for r in range(len(block))], den


def _stacked_rows(ctx, operators, block):
    """The int rows of several operators on a block, stacked."""
    rows = []
    for op in operators:
        rows.extend(_block_matrix(ctx, op, block)[0])
    return rows


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
    independent, so the whole kernel has dimension at least l + n - 1.
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

    expected = l + n - 1
    labels = ([f"omega_tilde_{k+1}" for k in range(l)]
              + [f"X_{j}" for j in range(1, n)])
    basis = list(fams.omega_tilde) + [fams.X[j] for j in range(1, n)]
    # claimed basis really lies in the kernel
    for b in basis:
        for s in fams.s:
            if not product(ctx, s, b).is_zero():
                raise DimensionMismatch(f"node {i}: claimed U2 vector not in kernel")
    # the rows are the numerators of the rational basis, so a coordinate c
    # over row k is c * den_k / den over the basis element

    def numerators(el):
        if el.m != 1:
            raise DimensionMismatch(f"node {i}: U2 vector is not rational")
        return [el.comps[0].get(k, 0) for k in range(len(ctx.keys))]

    space = RowSpace(numerators(b) for b in basis)
    if len(space.rows) != expected:
        raise DimensionMismatch(f"node {i}: claimed U2 basis is dependent")

    gram = [[inner(ctx, a, b) for b in basis] for a in basis]
    structure = []
    for a in basis:
        row = []
        for b in basis:
            prod = product(ctx, a, b)
            c = space.coords(numerators(prod))
            if c is None:
                raise DimensionMismatch(f"node {i}: U2 is not closed under products")
            row.append([x * el.den / prod.den for x, el in zip(c, basis)])
        structure.append(row)
    # the closure below multiplies each unordered pair once
    if any(structure[a][b] != structure[b][a]
           for a in range(expected) for b in range(a)):
        raise DimensionMismatch(f"node {i}: U2 structure constants are not symmetric")
    return U2Data(node, labels, basis, gram, structure, block_dims)


@lru_cache(maxsize=None)
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
        before = set(space.pivots)
        if space.add(todo.pop()):
            a = next(r for p, r in zip(space.pivots, space.rows) if p not in before)
            gens.append(a)
            todo += [u2.multiply_coords(a, b) for b in gens]
    return len(space.rows), space.rows


def e_f_coords(u2: U2Data):
    """Coordinates of e-hat and f-hat over the U2 basis, by construction."""
    fams = build_node_family(u2.node.i)
    n = u2.node.n
    omegas = [Fraction(h + 2, 32) for h in fams.component_h]
    e = omegas + [Fraction(1, 32)] * (n - 1)
    f = omegas + [Cyclotomic.zeta(n, j) * Fraction(1, 32) for j in range(1, n)]
    # verify the linear combinations really reproduce the two vectors
    for name, coords, want in (("e-hat", e, fams.e_hat), ("f-hat", f, fams.f_hat)):
        el = fams.ctx.zero()
        for c, b in zip(coords, u2.basis):
            el = el + b.scaled(c)
        if not (el - want).is_zero():
            raise DimensionMismatch(f"{name} coordinates over U2 are wrong")
    return e, f
