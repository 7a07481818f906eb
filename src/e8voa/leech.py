"""The Leech lattice from the length-24 Z4 code, and its E8 structure.

Everything here is certified rather than assumed: the code is checked to
be type II self-dual, the lattice to be even and unimodular with minimum
norm 4 (by exhaustive budgeted enumeration), and the three orthogonal
copies of the rescaled E8 lattice are located inside it explicitly.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul

from .codes import (block_subcode, construction_A, data_cached,
                    find_column_permutation, is_type_II, named_code,
                    residue_code_B)
from .lattice import (Coset, EvenLattice, coset_min_norm, enumerate_short,
                      lattice_from_integer_rows, lattice_over, size_reduce_basis)
from .linalg import clear_denominators, vec_mat
from .rootsys import e8_paper_data, simple_system


class CodeCheckFailed(RuntimeError):
    pass


class EmbeddingNotFound(RuntimeError):
    pass


class ShapeMismatch(RuntimeError):
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


def certify_minimum(budget_seconds=600) -> bool:
    """No vectors of norm 2 (exhaustive search) and an explicit norm-4 one."""
    ctx = build_leech()
    hits = enumerate_short(ctx.reduced, 2, budget_seconds=budget_seconds)
    nonzero = [z for z, n in hits if n != 0]
    if nonzero:
        return False
    witness = tuple(Fraction(2 if j == 0 else 0) for j in range(24))
    if not ctx.lattice.contains(witness):
        return False
    return True


def kissing_vectors(budget_seconds=None):
    """All minimal vectors of the Leech lattice; slow, behind a flag."""
    ctx = build_leech()
    hits = enumerate_short(ctx.reduced, 4, budget_seconds=budget_seconds)
    return [z for z, n in hits if n == 4]


def _paper_frame_in(lat: EvenLattice, norm4):
    """Keys m_1..m_8 of a doubly even lattice with Gram 2 x (E8 Cartan).

    The norm-4 vectors ``norm4`` of an isometric copy of the rescaled E8
    lattice form a rescaled root system; a simple system matching the chain
    labelling of the diagram is extracted and reordered by backtracking.
    """
    keys = sorted(tuple(int(x) for x in z) for z in norm4)
    simple = simple_system(keys)
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


@data_cached("Hamming8")
def embed_sqrt2E8_cubed(ctx: LeechContext):
    """Three orthogonal rescaled-E8 copies on the coordinate blocks.

    Block k of the residue code carries a Hamming-equivalent subcode; its
    mod-2 preimage lattice, doubly even of determinant 256, sits inside
    the Leech lattice.
    """
    h8 = named_code("Hamming8")
    bc = residue_code_B(ctx.code)
    blocks = []
    for k in range(3):
        cols = list(range(8 * k, 8 * k + 8))
        blk = block_subcode(bc, cols)
        if blk.dimension != 4 or find_column_permutation(blk, h8) is None:
            raise EmbeddingNotFound(f"block {k} does not carry a Hamming code")
        gens = [[2 * int(i == j) for j in range(8)] for i in range(8)]
        gens += [list(g) for g in blk.generators]
        block_lat = lattice_from_integer_rows(gens)
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
def _block(ctx: LeechContext, k: int):
    """Block k of the embedding in Leech coordinates, and its norm-4 vectors."""
    rows, den = embed_sqrt2E8_cubed(ctx)._int_rows
    block = lattice_over(rows[8 * k: 8 * k + 8], den)
    return block, [z for z, n in enumerate_short(block, 4) if n == 4]


@data_cached("Hamming8")
def block_frames(ctx: LeechContext):
    """The diagram frame m_1..m_8 of each block, in Leech coordinates."""
    frames = []
    for k in range(3):
        block, norm4 = _block(ctx, k)
        frame = [block.ambient(m) for m in _paper_frame_in(block, norm4)]
        if not all(ctx.lattice.contains(v) for v in frame):
            raise EmbeddingNotFound("frame vector falls outside Leech")
        frames.append(frame)
    return frames


def block_norm4_count(ctx: LeechContext, k: int) -> int:
    block, norm4 = _block(ctx, k)
    vecs = [block.ambient_ints(z) for z in norm4]
    if not all(ctx.lattice.contains(v, den) for v, den in vecs):
        raise EmbeddingNotFound("norm-4 block vector falls outside Leech")
    return len(vecs)


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


def _canonical_shape(v):
    return tuple(sorted((Fraction(x) for x in v), reverse=True))


_SHAPE_SET = {_canonical_shape(s) for s in MINIMAL_SHAPES}


@data_cached("Hamming8")
def minimal_coset_survey():
    """Classify all 256 cosets of the rescaled E8 lattice in its dual.

    Each coset gets its exact minimal norm (0, 1, or 2), a minimal
    representative matching one of the eleven coordinate shapes up to
    permutation and overall sign, and for norm 2 an orthogonal splitting
    into two norm-1 dual vectors.  The norm-1 dual vectors are exactly the
    minimal representatives of the norm-1 cosets.
    """
    lat = construction_A(named_code("Hamming8"))
    infos = [coset_min_norm(Coset(lat, lat.ambient(shift)))
             for shift in lat.dual_coset_shifts()]
    norm1 = [v for info in infos if info["k"] == 1 for v in info["reps"]]
    cosets = []
    for info in infos:
        k = info["k"]
        if k not in (0, 1, 2):
            raise ShapeMismatch(f"coset has minimal norm {k}")
        match = None
        for rep in info["reps"]:
            c = _canonical_shape(rep)
            cneg = _canonical_shape([-x for x in rep])
            if c in _SHAPE_SET or cneg in _SHAPE_SET:
                match = rep
                break
        if match is None:
            raise ShapeMismatch("no minimal representative matches the shape list")
        split = None
        if k == 2:
            for a in norm1:
                b = tuple(x - y for x, y in zip(match, a))
                nb = sum(x * x for x in b)
                ab = sum(x * y for x, y in zip(a, b))
                if nb == 1 and ab == 0:
                    split = (a, b)
                    break
            if split is None:
                raise ShapeMismatch("norm-2 representative admits no orthogonal split")
        cosets.append({"min_norm": k, "rep": match,
                       "n_minimal": len(info["reps"]), "split": split})
    return cosets
