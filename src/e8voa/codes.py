"""Binary and Z4 linear codes, duals, and Construction A lattices.

Binary codewords are tuples of 0/1; Z4 codewords are tuples over 0..3.
Every code C over Z/q is held as one object, its preimage lattice
L = {x in Z^n : x mod q in C}, and everything else is read off the Hermite
basis B of L: B is upper triangular with pivots dividing q, so the rows
with a pivot below q generate C, and the pivots give its size.  The dual
code's lattice is qL*, spanned by the columns of qB^-1, one exact back
substitution.  Two identities reduce the other constructions to duals: the
torsion code {b : 2b in C} of a Z4 code is the dual of the residue code of
C-perp, and a shortened code is the dual of the dual code punctured to the
same columns.  Every check is exact and on Python ints.
"""

from __future__ import annotations

import itertools
import os
from collections import namedtuple
from functools import wraps
from math import prod
from operator import mul

from .lattice import EvenLattice, lattice_over
from .linalg import hermite_normal_form


def data_dir() -> str:
    override = os.environ.get("MCKAY_DATA_DIR")
    if override:
        return override
    return os.path.join(os.path.dirname(__file__), "data")


def _load_digit_rows(path, alphabet):
    rows = []
    with open(path) as fh:
        for line in fh:
            line = "".join(line.split())
            if not line or line.startswith("#"):
                continue
            row = tuple(int(ch) for ch in line)
            if any(d not in alphabet for d in row):
                raise ValueError(f"bad digit in {path}: {line}")
            rows.append(row)
    return rows


class _Code:
    """A linear code over Z/q of the given length, held as the Hermite rows
    of its preimage lattice L = {x in Z^n : x mod q in C}, computed once
    from qI and the generating rows.

    L contains qZ^n, so its Hermite rows ``_rows`` form an upper triangular
    n x n matrix whose pivots divide q and whose entries lie below the pivot
    of their column.  ``generators`` are the rows with a pivot below q; they
    generate C, and for q = 2 they are its reduced echelon basis over F2.
    The Hermite rows are unique for each code, so equality and the hash
    read them.  Subclasses set q.
    """

    def __init__(self, length: int, generators):
        rows = [list(g) for g in generators]
        if any(len(g) != length for g in rows):
            raise ValueError(f"code generators must have length {length}")
        self.length = length
        self._rows = hermite_normal_form(
            [[self.q * (i == j) for j in range(length)] for i in range(length)] + rows)
        self._key = type(self), length, tuple(map(tuple, self._rows))
        self.generators = [tuple(row) for i, row in enumerate(self._rows)
                           if row[i] < self.q]

    def cardinality(self) -> int:
        return self.q ** self.length // prod(row[i] for i, row in enumerate(self._rows))

    def __eq__(self, other):
        return isinstance(other, _Code) and self._key == other._key

    def __hash__(self):
        return hash(self._key)


class BinaryCode(_Code):
    """A binary code; ``generators`` is its reduced echelon basis over F2."""

    q = 2

    @property
    def dimension(self) -> int:
        return len(self.generators)

    def words(self):
        for mask in range(1 << self.dimension):
            w = [0] * self.length
            for i, g in enumerate(self.generators):
                if mask >> i & 1:
                    w = [(a + b) % 2 for a, b in zip(w, g)]
            yield tuple(w)

    def weight_distribution(self):
        dist = [0] * (self.length + 1)
        for w in self.words():
            dist[sum(w)] += 1
        return tuple(dist)


class Z4Code(_Code):
    """A Z4 code.  ``generators`` are the Hermite rows of the preimage
    lattice with pivot 1 or 2, not the rows the code was built from; they
    generate the same code, which is all ``is_type_II`` reads."""

    q = 4


CacheInfo = namedtuple("CacheInfo", "hits misses maxsize currsize")
MEMOS = []  # every memo that data_cached makes, for clear_caches


def data_cached(*names):
    """Cache a builder on its arguments and the values of the named codes.

    The key holds ``named_code(n)`` for each name, so the builder runs
    again exactly when the value of a code it reads changes, as when
    ``MCKAY_DATA_DIR`` points at other data.  An exception is stored like
    a value and raised again, so a failing build fails the same way once
    per data state.  Each memo joins ``MEMOS`` and has lru_cache's
    ``cache_info`` and ``cache_clear``.
    """
    def decorate(build):
        memo, counts = {}, [0, 0]  # [misses, hits], indexed by the hit

        @wraps(build)
        def cached(*args):
            key = (args, *map(named_code, names))
            hit = key in memo
            counts[hit] += 1
            if not hit:
                try:
                    memo[key] = build(*args)
                except Exception as exc:
                    memo[key] = exc.with_traceback(None)
            value = memo[key]
            if isinstance(value, Exception):
                raise value.with_traceback(None)
            return value

        def cache_clear():
            memo.clear()
            counts[:] = [0, 0]

        cached.memo, cached.cache_clear = memo, cache_clear
        cached.cache_info = lambda: CacheInfo(counts[1], counts[0], None, len(memo))
        MEMOS.append(cached)
        return cached
    return decorate


def clear_caches():
    """Empty every memo made by ``data_cached``."""
    for cached in MEMOS:
        cached.cache_clear()


def named_code(name: str):
    """The named code, read from the data directory in effect now."""
    return _named_code_in(os.path.realpath(data_dir()), name)


@data_cached()
def _named_code_in(directory: str, name: str):
    if name == "Hamming8":
        rows = _load_digit_rows(os.path.join(directory, "hamming8.txt"), {0, 1})
        return BinaryCode(8, rows)
    if name == "RM41":
        rows = _load_digit_rows(os.path.join(directory, "rm41.txt"), {0, 1})
        return BinaryCode(16, rows)
    if name == "RM42":
        return dual_code(_named_code_in(directory, "RM41"))
    if name == "Z4Leech":
        rows = _load_digit_rows(os.path.join(directory, "z4_leech.txt"),
                                {0, 1, 2, 3})
        return Z4Code(24, rows)
    raise ValueError(f"unknown code name: {name}")


def _dual_columns(c):
    """The columns of X = qB^-1 reduced mod q; with qZ^n they span qL*, the
    preimage lattice of the dual code.

    B X = qI is solved by back substitution; X is upper triangular like B,
    and it is integral because L contains qZ^n.
    """
    b, q, n = c._rows, c.q, c.length
    cols = []
    for j in range(n):
        x = [0] * (j + 1)
        for i in range(j, -1, -1):
            s = q * (i == j) - sum(map(mul, b[i][i + 1:j + 1], x[i + 1:]))
            x[i], r = divmod(s, b[i][i])
            if r:
                raise ArithmeticError("dual of a code lattice must be 1/q-integral")
        cols.append([v % q for v in x] + [0] * (n - j - 1))
    return cols


def dual_code(c):
    """The dual code, whose preimage lattice is qL*."""
    return type(c)(c.length, _dual_columns(c))


def euclidean_weight(word) -> int:
    return sum(min(x * x, (4 - x) * (4 - x)) for x in word)


def is_type_II(c: Z4Code) -> bool:
    """Self-dual with all Euclidean weights divisible by 8.

    Euclidean weight mod 8 equals the integer squared length mod 8 of any
    lift, so on a self-dual code (pairings divisible by 4) it is additive
    and the generator check is conclusive.
    """
    if dual_code(c) != c:
        return False
    return all(euclidean_weight(g) % 8 == 0 for g in c.generators)


@data_cached()
def construction_A(c) -> EvenLattice:
    """The lattice L / (q / 2): L itself for a binary code, L / 2 for a Z4
    code."""
    return lattice_over(c._rows, c.q // 2)


def residue_code_B(c: Z4Code) -> BinaryCode:
    """Binary words b with 2b in the Z4 code.

    2b lies in C = (C-perp)-perp exactly when b is orthogonal mod 2 to every
    word of C-perp, so this is the dual of the residue code of C-perp: the
    binary code that the columns spanning C-perp's lattice generate.
    """
    return dual_code(BinaryCode(c.length, _dual_columns(c)))


def block_subcode(c: BinaryCode, columns) -> BinaryCode:
    """Subcode of words supported inside the given column set, restricted:
    the dual of the dual code punctured to the columns."""
    columns = list(columns)
    punctured = [[x[j] for j in columns] for x in _dual_columns(c)]
    return dual_code(BinaryCode(len(columns), punctured))


def find_column_permutation(source: BinaryCode, target: BinaryCode):
    """A column permutation carrying source onto target, or None."""
    if source.length != target.length or source.dimension != target.dimension:
        return None
    src_words = set(source.words())
    tgt_words = set(target.words())
    for perm in itertools.permutations(range(source.length)):
        if all(tuple(w[j] for j in perm) in tgt_words for w in src_words):
            return perm
    return None
