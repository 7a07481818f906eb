"""Binary and Z4 linear codes, duals, and Construction A lattices.

Binary codewords are tuples of 0/1; Z4 codewords are tuples over 0..3.
Code membership and duality are computed through the associated integer
lattices {x : x mod q in C}, which keeps every check exact and avoids any
reliance on a particular standard form.
"""

from __future__ import annotations

import itertools
import os
from fractions import Fraction
from functools import lru_cache, wraps

from .lattice import EvenLattice, lattice_from_integer_rows
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


def _rref_f2(rows, length):
    rows = [list(r) for r in rows]
    r = 0
    for c in range(length):
        piv = None
        for i in range(r, len(rows)):
            if rows[i][c]:
                piv = i
                break
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                rows[i] = [(a + b) % 2 for a, b in zip(rows[i], rows[r])]
        r += 1
    return [tuple(row) for row in rows[:r] if any(row)]


class BinaryCode:
    def __init__(self, length: int, generators):
        self.length = length
        self.generators = _rref_f2(generators, length)
        self.dimension = len(self.generators)

    def words(self):
        for mask in range(1 << self.dimension):
            w = [0] * self.length
            m = mask
            i = 0
            while m:
                if m & 1:
                    g = self.generators[i]
                    w = [(a + b) % 2 for a, b in zip(w, g)]
                m >>= 1
                i += 1
            yield tuple(w)

    def weight_distribution(self):
        dist = [0] * (self.length + 1)
        for w in self.words():
            dist[sum(w)] += 1
        return tuple(dist)

    def contains(self, word) -> bool:
        reduced = _rref_f2(list(self.generators) + [tuple(word)], self.length)
        return len(reduced) == self.dimension

    def __eq__(self, other):
        if not isinstance(other, BinaryCode):
            return NotImplemented
        return self.length == other.length and self.generators == other.generators

    def __hash__(self):
        return hash((self.length, tuple(self.generators)))


class Z4Code:
    def __init__(self, length: int, generators):
        self.length = length
        gens = [tuple(x % 4 for x in g) for g in generators if any(x % 4 for x in g)]
        self.generators = self._canonical(gens)
        self._lattice = None

    def _canonical(self, gens):
        rows = [list(g) for g in gens]
        r = 0
        for c in range(self.length):
            piv = None
            for i in range(r, len(rows)):
                if rows[i][c] % 2 == 1:
                    piv = i
                    break
            if piv is not None:
                rows[r], rows[piv] = rows[piv], rows[r]
                if rows[r][c] == 3:
                    rows[r] = [(3 * x) % 4 for x in rows[r]]
                for i in range(len(rows)):
                    if i != r and rows[i][c]:
                        q = rows[i][c]
                        rows[i] = [(a - q * b) % 4 for a, b in zip(rows[i], rows[r])]
                r += 1
                continue
            piv = None
            for i in range(r, len(rows)):
                if rows[i][c] == 2:
                    piv = i
                    break
            if piv is None:
                continue
            rows[r], rows[piv] = rows[piv], rows[r]
            for i in range(len(rows)):
                if i != r and rows[i][c] in (2, 3):
                    q = rows[i][c] // 2
                    rows[i] = [(a - q * b) % 4 for a, b in zip(rows[i], rows[r])]
            r += 1
        rows = [tuple(row) for row in rows[:r] if any(row)]
        order4 = [row for row in rows if any(x % 2 for x in row)]
        order2 = [row for row in rows if not any(x % 2 for x in row)]
        return order4 + order2

    def lattice(self) -> EvenLattice:
        """The unscaled preimage lattice {x in Z^n : x mod 4 in C}."""
        if self._lattice is None:
            rows = [[4 * int(i == j) for j in range(self.length)]
                    for i in range(self.length)]
            rows += [list(g) for g in self.generators]
            self._lattice = lattice_from_integer_rows(rows)
        return self._lattice

    def cardinality(self) -> int:
        from .linalg import det
        rows, den = self.lattice()._int_rows
        return (4 ** self.length) * den ** len(rows) // abs(det(rows))

    def contains(self, word) -> bool:
        return self.lattice().contains([int(x) for x in word])

    def __eq__(self, other):
        if not isinstance(other, Z4Code):
            return NotImplemented
        if self.length != other.length:
            return False
        if self.cardinality() != other.cardinality():
            return False
        return all(other.contains(g) for g in self.generators)

    def __hash__(self):
        return hash((self.length, tuple(self.generators)))


def named_code(name: str):
    """The named code, read from the data directory in effect now."""
    return _named_code_in(os.path.realpath(data_dir()), name)


@lru_cache(maxsize=None)
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


def data_cached(*names):
    """Cache a builder on its arguments and the values of the named codes.

    The key holds ``named_code(n)`` for each name, so the builder runs
    again exactly when the value of a code it reads changes, as when
    ``MCKAY_DATA_DIR`` points at other data.  An exception is stored like
    a value and raised again, so a failing build fails the same way once
    per data state.
    """
    def decorate(build):
        memo = {}

        @wraps(build)
        def cached(*args):
            key = (args, tuple(named_code(n) for n in names))
            if key not in memo:
                try:
                    memo[key] = build(*args)
                except Exception as exc:
                    memo[key] = exc.with_traceback(None)
            value = memo[key]
            if isinstance(value, Exception):
                raise value.with_traceback(None)
            return value

        cached.cache_clear = memo.clear
        return cached
    return decorate


def dual_code(c):
    if isinstance(c, BinaryCode):
        # kernel of the generator matrix over F2
        gens = c.generators
        if not gens:
            full = [[int(i == j) for j in range(c.length)] for i in range(c.length)]
            return BinaryCode(c.length, full)
        basis = _f2_kernel(gens, c.length)
        return BinaryCode(c.length, basis)
    if isinstance(c, Z4Code):
        lat = c.lattice()
        dual_rows = lat.dual_basis_rows()
        gens = []
        for row in dual_rows:
            scaled = [4 * Fraction(x) for x in row]
            if any(x.denominator != 1 for x in scaled):
                raise AssertionError("dual lattice of a Z4 code must be 1/4-integral")
            gens.append(tuple(int(x) % 4 for x in scaled))
        return Z4Code(c.length, gens)
    raise TypeError("expected a BinaryCode or Z4Code")


def _f2_kernel(rows, length):
    red = _rref_f2(rows, length)
    pivots = []
    for row in red:
        pivots.append(next(i for i, x in enumerate(row) if x))
    pivset = set(pivots)
    free = [c for c in range(length) if c not in pivset]
    basis = []
    for f in free:
        v = [0] * length
        v[f] = 1
        for r, c in enumerate(pivots):
            v[c] = red[r][f] % 2
        basis.append(tuple(v))
    return basis


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


def construction_A(c) -> EvenLattice:
    if isinstance(c, BinaryCode):
        rows = [[2 * int(i == j) for j in range(c.length)] for i in range(c.length)]
        rows += [list(g) for g in c.generators]
        return lattice_from_integer_rows(rows)
    if isinstance(c, Z4Code):
        rows = [[4 * int(i == j) for j in range(c.length)] for i in range(c.length)]
        rows += [list(g) for g in c.generators]
        return lattice_from_integer_rows(rows, denominator=2)
    raise TypeError("expected a BinaryCode or Z4Code")


def residue_code_B(c: Z4Code) -> BinaryCode:
    """Binary words b with 2b in the Z4 code.

    The words 2b are exactly the even vectors of the preimage lattice, so
    the generators come from the intersection of that lattice with 2Z^n.
    """
    ints, den = c.lattice()._int_rows
    basis = [[x // den for x in row] for row in ints]
    left = _f2_kernel_left(basis, c.length)
    rows = []
    for z in left:
        v = [0] * c.length
        for zi, brow in zip(z, basis):
            if zi:
                v = [a + zi * b for a, b in zip(v, brow)]
        rows.append(v)
    rows += [[2 * x for x in row] for row in basis]
    h = hermite_normal_form(rows)
    gens = []
    for row in h:
        if any(x % 2 for x in row):
            raise AssertionError("intersection with 2Z^n has an odd vector")
        gens.append(tuple((x // 2) % 2 for x in row))
    return BinaryCode(c.length, gens)


def _f2_kernel_left(int_rows, length):
    """Left kernel over F2 of an integer matrix reduced mod 2."""
    m = len(int_rows)
    # transpose mod 2, then right kernel
    t = [tuple(int_rows[r][c] % 2 for r in range(m)) for c in range(length)]
    return _f2_kernel(t, m)


def block_subcode(c: BinaryCode, columns) -> BinaryCode:
    """Subcode of words supported inside the given column set, restricted."""
    columns = list(columns)
    outside = [j for j in range(c.length) if j not in columns]
    gens = c.generators
    if not gens:
        return BinaryCode(len(columns), [])
    # combinations z of generators with zero coordinates outside `columns`
    restricted = [tuple(g[j] for j in outside) for g in gens]
    combos = _f2_kernel_left([list(r) for r in restricted], len(outside))
    rows = []
    for z in combos:
        w = [0] * c.length
        for zi, g in zip(z, gens):
            if zi:
                w = [(a + b) % 2 for a, b in zip(w, g)]
        rows.append(tuple(w[j] for j in columns))
    return BinaryCode(len(columns), rows)


def find_column_permutation(source: BinaryCode, target: BinaryCode):
    """A column permutation carrying source onto target, or None."""
    if source.length != target.length or source.dimension != target.dimension:
        return None
    src_words = set(source.words())
    tgt_words = set(target.words())
    n = source.length
    for perm in itertools.permutations(range(n)):
        ok = True
        for w in src_words:
            pw = tuple(w[perm[j]] for j in range(n))
            if pw not in tgt_words:
                ok = False
                break
        if ok:
            return perm
    return None
