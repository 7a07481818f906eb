from fractions import Fraction as F
from operator import mul

import pytest

from e8voa.codes import (BinaryCode, Z4Code, _load_digit_rows, block_subcode,
                         construction_A, dual_code, euclidean_weight,
                         find_column_permutation, is_type_II, named_code,
                         residue_code_B)
from e8voa.lattice import coords_of_norm


def test_hamming_weight_distribution():
    assert named_code("Hamming8").weight_distribution() == (1, 0, 0, 0, 14, 0, 0, 0, 1)


def test_hamming_self_dual():
    h8 = named_code("Hamming8")
    assert dual_code(h8) == h8


def test_rm42_dimension_and_duality():
    rm41 = named_code("RM41")
    rm42 = named_code("RM42")
    assert rm41.dimension == 5
    assert rm42.dimension == 11
    assert dual_code(rm42) == rm41


def test_double_dual_identity():
    for name in ("Hamming8", "RM41", "RM42"):
        c = named_code(name)
        assert dual_code(dual_code(c)) == c
    z4 = named_code("Z4Leech")
    assert dual_code(dual_code(z4)) == z4


def test_z4_cardinality():
    assert named_code("Z4Leech").cardinality() == 2 ** 24


def _type_counts(z4):
    """(k1, k2) with cardinality 4^k1 * 2^k2; k1 is the mod-2 rank."""
    k1 = BinaryCode(z4.length, z4.generators).dimension
    size = z4.cardinality()
    k2 = 0
    size //= 4 ** k1
    while size > 1:
        size //= 2
        k2 += 1
    return k1, k2


def test_z4_type_counts():
    z4 = named_code("Z4Leech")
    assert _type_counts(z4) == (7, 10)
    assert 4 ** 7 * 2 ** 10 == 2 ** 24


def test_z4_self_dual_and_type_II():
    z4 = named_code("Z4Leech")
    assert dual_code(z4) == z4
    assert is_type_II(z4)


def test_z4_equal_codes_hash_equal():
    # the two generating sets span the same code, {0, (2,3,1,2), (0,2,2,0),
    # (2,1,3,2)}, so the codes must hash alike
    a = Z4Code(4, [(2, 3, 1, 2)])
    b = Z4Code(4, [(2, 1, 3, 2), (0, 2, 2, 0)])
    assert a == b and hash(a) == hash(b)
    assert a != Z4Code(4, [(0, 2, 2, 0)])
    # random generating sets of one code: invertible row operations mod 4,
    # plus some redundant combinations
    import random
    rng = random.Random(17)
    for _ in range(50):
        gens = [[rng.randrange(4) for _ in range(5)] for _ in range(rng.randint(1, 3))]
        other = [list(g) for g in gens]
        for _ in range(6):
            i, j = rng.randrange(len(other)), rng.randrange(len(other))
            if i != j:
                c = rng.randrange(4)
                other[i] = [(x + c * y) % 4 for x, y in zip(other[i], other[j])]
            else:
                other[i] = [(-x) % 4 for x in other[i]]
        for _ in range(rng.randint(0, 2)):
            cs = [rng.randrange(4) for _ in gens]
            other.append([sum(c * g[k] for c, g in zip(cs, gens)) % 4 for k in range(5)])
        x, y = Z4Code(5, gens), Z4Code(5, other)
        assert x == y and hash(x) == hash(y)


def test_zero_code_not_type_II():
    zero = Z4Code(24, [])
    assert not is_type_II(zero)


def test_corrupted_code_not_type_II():
    z4 = named_code("Z4Leech")
    gens = [list(g) for g in z4.generators]
    gens[0][0] = (gens[0][0] + 1) % 4
    assert not is_type_II(Z4Code(24, gens))


def test_euclidean_weight_additivity_on_code():
    import random
    z4 = named_code("Z4Leech")
    rng = random.Random(7)
    gens = z4.generators
    for _ in range(200):
        x = [0] * 24
        y = [0] * 24
        for g in gens:
            if rng.random() < 0.5:
                x = [(a + b) % 4 for a, b in zip(x, g)]
            if rng.random() < 0.5:
                y = [(a + b) % 4 for a, b in zip(y, g)]
        s = [(a + b) % 4 for a, b in zip(x, y)]
        assert euclidean_weight(s) % 8 == 0
        assert (euclidean_weight(x) + euclidean_weight(y)) % 8 == euclidean_weight(s) % 8


def test_construction_a_hamming():
    lat = construction_A(named_code("Hamming8"))
    assert lat.det_gram() == 256
    assert lat.is_doubly_even()
    assert len(coords_of_norm(lat, 4)) == 240


def test_construction_a_zero_code():
    zero = BinaryCode(4, [])
    lat = construction_A(zero)
    assert lat.det_gram() == 2 ** 8
    assert sorted(tuple(int(x) for x in b) for b in lat.basis) == [
        (0, 0, 0, 2), (0, 0, 2, 0), (0, 2, 0, 0), (2, 0, 0, 0)]


def test_construction_a_even_iff_doubly_even_code():
    # a code with a weight-2 word gives an even but not doubly even lattice
    c = BinaryCode(4, [(1, 1, 0, 0)])
    lat = construction_A(c)
    assert lat.is_even()
    assert not lat.is_doubly_even()


def test_construction_a4_leech():
    lam = construction_A(named_code("Z4Leech"))
    assert lam.rank == 24
    assert lam.det_gram() == 1
    assert lam.is_even()


def test_residue_code_trivia():
    zero = Z4Code(6, [])
    assert residue_code_B(zero).dimension == 0
    full = Z4Code(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    assert residue_code_B(full).dimension == 3


def test_residue_code_contains_hamming_cubed():
    bc = residue_code_B(named_code("Z4Leech"))
    assert bc.dimension == 17
    h8 = named_code("Hamming8")
    for k in range(3):
        blk = block_subcode(bc, range(8 * k, 8 * k + 8))
        assert blk.dimension == 4
        perm = find_column_permutation(blk, h8)
        assert perm is not None
        permuted = BinaryCode(8, [tuple(g[perm[j]] for j in range(8))
                                  for g in blk.generators])
        assert permuted == h8


def test_sublattice_index_is_power_of_two():
    z4 = named_code("Z4Leech")
    lam = construction_A(z4)
    bc = residue_code_B(z4)
    lb = construction_A(bc)
    # L_B(C) sits inside the Leech lattice with 2-power index
    for row in lb.basis:
        assert lam.contains(row)
    index_sq = lb.det_gram() / lam.det_gram()
    assert index_sq == 2 ** 14


def load_binary_code(path) -> BinaryCode:
    rows = _load_digit_rows(path, {0, 1})
    return BinaryCode(len(rows[0]), rows)


def load_z4_code(path) -> Z4Code:
    rows = _load_digit_rows(path, {0, 1, 2, 3})
    return Z4Code(len(rows[0]), rows)


def test_code_loaders(tmp_path):
    p = tmp_path / "c.txt"
    p.write_text("# two generators\n1100\n0011\n")
    c = load_binary_code(p)
    assert c.dimension == 2 and c.length == 4
    q = tmp_path / "z.txt"
    q.write_text("1230\n")
    z = load_z4_code(q)
    assert z.length == 4 and z.cardinality() == 4


def test_data_dir_override(tmp_path, monkeypatch):
    import e8voa.codes as codes
    (tmp_path / "hamming8.txt").write_text("11110000\n00111100\n00001111\n01100110\n")
    monkeypatch.setenv("MCKAY_DATA_DIR", str(tmp_path))
    assert codes.data_dir() == str(tmp_path)
    rows = codes._load_digit_rows(
        str(tmp_path / "hamming8.txt"), {0, 1})
    assert len(rows) == 4


def test_named_code_follows_the_data_dir_without_cache_clear(tmp_path, monkeypatch):
    default = named_code("Hamming8")
    assert default.dimension == 4
    (tmp_path / "hamming8.txt").write_text("11111111\n")
    monkeypatch.setenv("MCKAY_DATA_DIR", str(tmp_path))
    switched = named_code("Hamming8")
    assert switched.dimension == 1
    assert switched.generators == [(1,) * 8]
    monkeypatch.delenv("MCKAY_DATA_DIR")
    assert named_code("Hamming8") is default


def test_codes_match_the_f2_reference():
    """Generators, duals, shortened codes, residue codes and sizes against
    the F2 eliminations the preimage lattices replaced, on seeded random
    codes of lengths 1-10, the zero and the full code of each length among
    them, and on random column sets, empty ones included."""
    import random

    import fraction_reference as ref
    rng = random.Random(20)
    for n in range(1, 11):
        full = [[int(i == j) for j in range(n)] for i in range(n)]
        cases = [[], full] + [[[rng.randrange(4) for _ in range(n)]
                               for _ in range(rng.randint(0, n + 2))]
                              for _ in range(20)]
        for rows in cases:
            b_rows = [[x % 2 for x in row] for row in rows]
            c = BinaryCode(n, b_rows)
            gens = ref.binary_generators(n, b_rows)
            assert c.generators == gens
            assert dual_code(c).generators == ref.binary_dual_code(n, gens)
            assert dual_code(dual_code(c)) == c
            for cols in ([], sorted(rng.sample(range(n), rng.randint(0, n)))):
                assert (block_subcode(c, cols).generators
                        == ref.block_subcode(n, gens, cols))
            z = Z4Code(n, rows)
            assert all(0 <= x < 4 for g in z.generators for x in g)
            assert Z4Code(n, z.generators) == z
            assert residue_code_B(z).generators == ref.residue_code_B(n, rows)
            size = ref.z4_cardinality(n, rows)
            assert z.cardinality() == size
            dual = dual_code(z)
            assert ref.z4_cardinality(n, dual.generators) * size == 4 ** n
            assert all(sum(map(mul, g, h)) % 4 == 0
                       for g in dual.generators for h in rows)
            assert dual_code(dual) == z


def test_code_generators_must_have_the_code_length():
    with pytest.raises(ValueError):
        BinaryCode(8, [(1, 1, 1, 1, 0, 0, 0)])
    with pytest.raises(ValueError):
        Z4Code(4, [(1, 2, 3, 0), (1, 2, 3, 0, 0)])
