"""The Leech lattice from the length-24 Z4 code, and its E8 structure.

Everything here is certified rather than assumed: the code is checked to
be type II self-dual, the lattice to be even and unimodular, and the three
orthogonal copies of the rescaled E8 lattice are located inside it
explicitly.  The minimum norm 4 is certified on their sum M: each of the
2^12 classes of the Leech lattice modulo M is bounded below by its glue
word, the parities of its pairings with M (Conway and Sloane, *Sphere
Packings, Lattices and Groups*, ch. 4 section 3).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul, sub

from .codes import (block_subcode, construction_A, data_cached,
                    find_column_permutation, is_type_II, named_code,
                    residue_code_B)
from .lattice import (EvenLattice, coords_of_norm, coset_minimum, lattice_over,
                      size_reduce_basis)
from .linalg import clear_denominators, vec_mat
from .rootsys import e8_paper_data, simple_system


class CodeCheckFailed(RuntimeError):
    pass


class EmbeddingNotFound(RuntimeError):
    pass


class ShapeMismatch(RuntimeError):
    pass


class MinimumNotCertified(RuntimeError):
    pass


class LeechContext:
    def __init__(self, code, lattice, reduced):
        self.code = code
        self.lattice = lattice
        self.reduced = reduced


@data_cached("Z4Leech")
def build_leech() -> LeechContext:
    """The Leech lattice from the Z4 code in the data directory in use now."""
    code = named_code("Z4Leech")
    if not is_type_II(code):
        raise CodeCheckFailed("the Z4 code is not type II self-dual")
    lam = construction_A(code)
    if lam.rank != 24 or lam.det_gram() != 1 or not lam.is_even():
        raise CodeCheckFailed("Construction A did not produce an even unimodular lattice")
    return LeechContext(code, lam, size_reduce_basis(lam))


def certify_minimum(budget_seconds=None) -> bool:
    """Minimum norm 4: no nonzero vector of norm below 4, and an explicit one
    of norm 4.

    The lower bound is exhaustive over the 2^12 classes of the lattice
    modulo its sublattice sqrt(2)E8^3 (``glue_bounds``): every nonzero class
    must have a norm bound of at least 4, and the sublattice's own nonzero
    vectors have norm at least 4 because it is doubly even.  A failing check
    raises ``MinimumNotCertified``, naming the first glue word whose bound is
    below 4, or the glue code's dimension when it is not 12.  The
    certificate reads no budget: ``budget_seconds`` is accepted and ignored
    only because the benchmark's ``perfbench/slices.py`` still calls
    ``certify_minimum(600)``.
    """
    ctx = build_leech()
    bounds = glue_bounds(ctx.lattice, _sqrt2E8_cubed(ctx))
    if len(bounds) != 2 ** 12 - 1:
        raise MinimumNotCertified(
            f"glue code has dimension {len(bounds).bit_length()}, not 12")
    low = next(((w, b) for w, b in bounds if b < 4), None)
    if low is not None:
        raise MinimumNotCertified("glue word %d has norm bound %d" % low)
    return ctx.lattice.contains((2,) + (0,) * 23)


def glue_bounds(lat: EvenLattice, emb: EvenLattice):
    """(word, bound) for each nonzero class of lat modulo emb = M_0 + M_1 + M_2.

    Each M_k is doubly even of determinant 256 on its own 8 coordinates,
    so its Gram matrix is G_k = 2 U_k with U_k even unimodular.  A vector
    v of lat pairs integrally with every row m_j of emb (checked), so with
    b = (B(v, m_j)) over the rows of block k its projection pi_k v has norm
    b^T G_k^-1 b.  Its class c = b mod 2 in M_k^*/M_k fixes that norm mod 2
    and is zero exactly when pi_k v lies in M_k; a nonzero class has norm at
    least 1, so at least 2 when even.  The word of v packs the 24 bits b mod
    2, bit j for row j; the words of lat's basis span its glue code, listed
    in a fixed order, and a class's bound is the sum over the blocks of
    these per-class minima, a lower bound for the norm of each of its
    vectors.
    """
    basis = []
    for w in _glue_words(lat, emb):
        for b in basis:
            w = min(w, w ^ b)
        if w:
            basis.append(w)
            basis.sort(reverse=True)
    code = [0]
    for b in basis:
        code += [w ^ b for w in code]
    t0, t1, t2 = (_class_norm_bounds(emb, k) for k in range(3))
    return [(w, t0[w & 255] + t1[w >> 8 & 255] + t2[w >> 16]) for w in code[1:]]


def _glue_words(lat: EvenLattice, emb: EvenLattice):
    """The 24-bit glue word of each basis vector of lat over the rows of emb."""
    rows, den = lat._int_rows
    m_rows, m_den = emb._int_rows
    den *= m_den
    words = []
    for v in rows:
        word = 0
        for j, m in enumerate(m_rows):
            q, r = divmod(sum(map(mul, v, m)), den)
            if r:
                raise MinimumNotCertified("pairing with sqrt(2)E8^3 is not an integer")
            word |= (q & 1) << j
        words.append(word)
    return words


def _class_norm_bounds(emb: EvenLattice, k: int):
    """Least norm of the class c of M_k^*/M_k, for every 8-bit class c.

    A = 2 G_k^-1 = U_k^-1 is integral and even, U_k being even unimodular,
    so the dual vector with coordinates c has the exact integer norm
    c^T A c / 2, built one bit at a time; 0 for c = 0, otherwise 1 or 2 by
    its parity.
    """
    rows, den = emb._int_rows
    inverse, d = lattice_over(rows[8 * k: 8 * k + 8], den)._gram_inverse()
    a = [[2 * x // d for x in row] for row in inverse]
    norms = [0] * 256
    for c in range(1, 256):
        i = c.bit_length() - 1
        rest = c ^ 1 << i
        norms[c] = (norms[rest] + a[i][i] // 2
                    + sum(a[i][j] for j in range(i) if rest >> j & 1))
    return [0] + [2 - q % 2 for q in norms[1:]]


def kissing_vectors():
    """All minimal vectors of the Leech lattice; slow, behind a flag."""
    return coords_of_norm(build_leech().reduced, 4)


def _paper_frame_in(lat: EvenLattice, norm4):
    """Keys m_1..m_8 of a doubly even lattice with Gram 2 x (E8 Cartan).

    The norm-4 vectors ``norm4`` (sorted int coefficient tuples) of an
    isometric copy of the rescaled E8 lattice form a rescaled root system;
    a simple system matching the chain labelling of the diagram is
    extracted and reordered by backtracking.
    """
    simple = simple_system(norm4)
    if len(simple) != lat.rank:
        raise EmbeddingNotFound("could not extract a simple system")
    pairs = [[lat.pair(u, v) for v in simple] for u in simple]
    if any(x.denominator != 1 for row in pairs for x in row):
        raise EmbeddingNotFound("pairing of lattice vectors is not an integer")
    cartan = [[x // 2 for x in row] for row in pairs]
    target = e8_paper_data()["lattice"].gram
    target = [[int(x) for x in row] for row in target]
    perm = _match_diagram(target, cartan)
    if perm is None:
        raise EmbeddingNotFound("simple system does not match the E8 diagram")
    return [simple[perm[i]] for i in range(8)]


def _match_diagram(target, source):
    """Permutation p with source[p[i]][p[j]] == target[i][j]."""
    n = len(target)
    tdeg = [sum(1 for j in range(n) if i != j and target[i][j] != 0)
            for i in range(n)]
    sdeg = [sum(1 for j in range(n) if i != j and source[i][j] != 0)
            for i in range(n)]
    perm = [None] * n
    used = [False] * n

    def extend(i):
        if i == n:
            return True
        for c in range(n):
            if used[c] or sdeg[c] != tdeg[i]:
                continue
            ok = True
            for j in range(i):
                if source[c][perm[j]] != target[i][j]:
                    ok = False
                    break
            if ok:
                perm[i] = c
                used[c] = True
                if extend(i + 1):
                    return True
                used[c] = False
        return False

    return perm if extend(0) else None


@data_cached()
def _block_codes(ctx: LeechContext):
    """The subcodes of the residue code on the three coordinate blocks."""
    bc = residue_code_B(ctx.code)
    return [block_subcode(bc, range(8 * k, 8 * k + 8)) for k in range(3)]


@data_cached()
def _sqrt2E8_cubed(ctx: LeechContext):
    """Three orthogonal rescaled-E8 copies on the coordinate blocks, read
    from the Z4 code alone.

    Block k of the residue code carries a subcode whose mod-2 preimage
    lattice, doubly even of determinant 256 (so the subcode has dimension
    4), sits inside the Leech lattice.
    """
    blocks = []
    for k, blk in enumerate(_block_codes(ctx)):
        block_lat = construction_A(blk)
        if block_lat.det_gram() != 256 or not block_lat.is_doubly_even():
            raise EmbeddingNotFound(f"block {k} lattice is not a rescaled E8")
        blocks.append(block_lat._int_rows)
    # each block row, over one common denominator, in 24 coordinates
    den = lcm(*(d for _, d in blocks))
    rows24 = [[0] * (8 * k) + [x * (den // d) for x in row] + [0] * (16 - 8 * k)
              for k, (rows, d) in enumerate(blocks) for row in rows]
    # all 24 vectors lie in the Leech lattice
    if not all(ctx.lattice.contains(row, den) for row in rows24):
        raise EmbeddingNotFound("block lattice vector falls outside Leech")
    emb = lattice_over(rows24, den)
    # Gram is block diagonal with three rescaled E8 blocks; cross blocks
    # vanish because the supports are disjoint
    gram = emb._int_gram_rows[0]
    if any(gram[a][b] for a in range(24) for b in range(24) if a // 8 != b // 8):
        raise EmbeddingNotFound("blocks are not orthogonal")
    return emb


@data_cached("Hamming8")
def embed_sqrt2E8_cubed(ctx: LeechContext):
    """The three rescaled-E8 copies, each block code equivalent to the
    Hamming code of the data directory."""
    h8 = named_code("Hamming8")
    for k, blk in enumerate(_block_codes(ctx)):
        if find_column_permutation(blk, h8) is None:
            raise EmbeddingNotFound(f"block {k} does not carry a Hamming code")
    return _sqrt2E8_cubed(ctx)


@data_cached("Hamming8")
def _block(ctx: LeechContext, k: int):
    """Block k of the embedding in Leech coordinates, and its norm-4 vectors."""
    # every block vector lies in Leech: embed_sqrt2E8_cubed certified the rows
    rows, den = embed_sqrt2E8_cubed(ctx)._int_rows
    block = lattice_over(rows[8 * k: 8 * k + 8], den)
    return block, coords_of_norm(block, 4)


@data_cached("Hamming8")
def block_frames(ctx: LeechContext):
    """The diagram frame m_1..m_8 of each block, in Leech coordinates."""
    frames = []
    for k in range(3):
        block, norm4 = _block(ctx, k)
        frames.append([block.ambient(m) for m in _paper_frame_in(block, norm4)])
    return frames


def block_norm4_count(ctx: LeechContext, k: int) -> int:
    return len(_block(ctx, k)[1])


def sigma_tilde_order(i: int) -> int:
    """Order of the phase automorphism induced by the node-i glue vector.

    beta is the image of the rescaled glue vector under the first-block
    embedding; the order is the lcm of the denominators of its pairings
    with a basis of the Leech lattice, taken on int rows over one
    denominator.
    """
    from .rootsys import extended_e8_node
    node = extended_e8_node(i)
    ctx = build_leech()
    (glue,), g_den = clear_denominators([node.glue_coords])
    frame, f_den = clear_denominators(block_frames(ctx)[0])
    beta = vec_mat(glue, frame)
    rows, den = ctx.lattice._int_rows
    den *= g_den * f_den
    return lcm(*(den // gcd(den, sum(map(mul, beta, row))) for row in rows))


MINIMAL_SHAPES = (
    (0, 0, 0, 0, 0, 0, 0, 0),
    (1, 0, 0, 0, 0, 0, 0, 0),
    (1, 1, 0, 0, 0, 0, 0, 0),
    (Fraction(1, 2), Fraction(1, 2), Fraction(1, 2), Fraction(1, 2), 0, 0, 0, 0),
    (Fraction(1, 2), Fraction(1, 2), Fraction(1, 2), 0, 0, 0, 0, Fraction(-1, 2)),
    (Fraction(1, 2), Fraction(1, 2), 0, 0, 0, 0, Fraction(-1, 2), Fraction(-1, 2)),
    (1, Fraction(1, 2), Fraction(1, 2), Fraction(1, 2), Fraction(1, 2), 0, 0, 0),
    (1, Fraction(1, 2), Fraction(1, 2), Fraction(1, 2), 0, 0, 0, Fraction(-1, 2)),
    (Fraction(1, 2),) * 8,
    (Fraction(1, 2),) * 7 + (Fraction(-1, 2),),
    (Fraction(1, 2),) * 6 + (Fraction(-1, 2), Fraction(-1, 2)),
)


# the shapes and their negatives as doubled int tuples, sorted descending
_SHAPES2 = {tuple(sorted((int(2 * e * x) for x in s), reverse=True))
            for s in MINIMAL_SHAPES for e in (1, -1)}


def _doubled(row, den):
    """2 * row / den as an int tuple, or None when that is not integral."""
    if all(2 * x % den == 0 for x in row):
        return tuple(2 * x // den for x in row)
    return None


def _record(k, n_minimal, *vecs):
    """The record of a coset, its doubled rep (and split) halved to Fractions."""
    rep, *split = (tuple(Fraction(x, 2) for x in v) for v in vecs)
    return {"min_norm": k, "rep": rep, "n_minimal": n_minimal, "split": tuple(split) or None}


@data_cached("Hamming8")
def minimal_coset_survey():
    """Classify all 256 cosets of the rescaled E8 lattice in its dual.

    Each coset gets its exact minimal norm (0, 1, or 2), a minimal
    representative matching one of the eleven coordinate shapes up to
    permutation and overall sign, and for norm 2 an orthogonal splitting
    into two norm-1 dual vectors.  The norm-1 dual vectors are exactly the
    minimal representatives of the norm-1 cosets.  Vectors are sorted
    doubled ambient int tuples 2x until ``_record`` halves them.
    """
    lat = construction_A(named_code("Hamming8"))
    infos = []
    for shift in lat.dual_coset_shifts():
        k, den, xs = coset_minimum(lat, shift)
        rows = sorted(lat.ambient_ints(x)[0] for x in xs)
        infos.append((k, [_doubled(row, den * lat._int_rows[1]) for row in rows]))
    norm1 = [v for k, reps in infos if k == 1 for v in reps if v is not None]
    cosets = []
    for k, reps in infos:
        if k not in (0, 1, 2):
            raise ShapeMismatch(f"coset has minimal norm {k}")
        match = next((v for v in reps if v is not None
                      and tuple(sorted(v, reverse=True)) in _SHAPES2), None)
        if match is None:
            raise ShapeMismatch("no minimal representative matches the shape list")
        split = ()
        if k == 2:
            # doubled, |A|^2 = 4 and |R|^2 = 8: |R - A|^2 = 12 - 2 A.R and A.(R - A)
            # = A.R - 4, so R - A has norm 1 and is orthogonal to A iff A.R == 4
            a = next((a for a in norm1 if sum(map(mul, a, match)) == 4), None)
            if a is None:
                raise ShapeMismatch("norm-2 representative admits no orthogonal split")
            split = (a, tuple(map(sub, match, a)))
        cosets.append(_record(k, len(reps), match, *split))
    return cosets
