from collections import Counter
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import assert_only_failed, data_copy

from e8voa import leech
from e8voa.lattice import EvenLattice
from e8voa.leech import (MINIMAL_SHAPES, block_frame, block_norm4_count,
                         build_leech, certify_minimum, embed_sqrt2E8_cubed,
                         minimal_coset_survey, sigma_tilde_order)


def test_leech_lattice_invariants():
    ctx = build_leech()
    assert ctx.lattice.rank == 24
    assert ctx.lattice.det_gram() == 1
    assert ctx.lattice.is_even()


def test_minimum_norm_certified():
    assert certify_minimum()


def test_the_rank24_search_finds_no_norm2_vector():
    # the Fincke-Pohst search the glue certificate replaced, kept as its oracle
    from e8voa.lattice import enumerate_short
    assert [n for _, n in enumerate_short(build_leech().reduced, 2)] == [0]


def test_the_glue_code_has_dimension_12_and_least_bound_4():
    from e8voa.leech import _sqrt2E8_cubed, glue_bounds
    ctx = build_leech()
    bounds = glue_bounds(ctx.lattice, _sqrt2E8_cubed(ctx))
    assert len(bounds) == 2 ** 12 - 1
    assert len({w for w, _ in bounds}) == len(bounds) and 0 not in dict(bounds)
    assert min(b for _, b in bounds) == 4


def _planted(ctx, extra):
    """The lattice spanned by the rows of sqrt(2)E8^3 and the ambient int
    vector extra over 2, with the Z4 code of ctx."""
    from e8voa.leech import LeechContext, _sqrt2E8_cubed
    from e8voa.lattice import lattice_over
    from e8voa.linalg import hermite_normal_form
    rows, den = _sqrt2E8_cubed(ctx)._int_rows
    lat = lattice_over(hermite_normal_form(
        [[2 * x for x in row] for row in rows] + [[den * x for x in extra]]), 2 * den)
    return LeechContext(ctx.code, lat, lat)


def test_a_planted_norm2_glue_vector_is_rejected(monkeypatch, fresh_caches):
    # u = (m1 + m2) / 2 for the norm-4 vectors m1 = 2 e_0 of M_0 and m2 = 2 e_8
    # of M_1 has norm 2; its class has bound 1 + 1 on blocks 0 and 1
    from e8voa import leech
    from e8voa.cli import RunConfig, registry, run_claims
    u2 = [2 * (t in (0, 8)) for t in range(24)]  # 2u = 2 e_0 + 2 e_8
    assert sum(x * x for x in u2) == 4 * 2
    planted = _planted(build_leech(), u2)
    (word, bound), = leech.glue_bounds(planted.lattice, leech._sqrt2E8_cubed(planted))
    assert bound == 2 and word & 255 and word >> 8 & 255 and not word >> 16
    monkeypatch.setattr(leech, "build_leech", lambda: planted)
    record, = [r for r in run_claims(registry(RunConfig("verify-leech")))
               if r["claim"] == "leech/lattice/minimum-norm-4"]
    assert record == {"claim": "leech/lattice/minimum-norm-4", "pass": False,
                      "actual": "MinimumNotCertified: glue code has dimension 1, not 12"}


def test_a_non_integral_pairing_fails_the_certificate(monkeypatch, fresh_caches):
    # e_0 / 2 pairs to 1/2 with the lift of a block-0 code word through 0
    from e8voa import leech
    planted = _planted(build_leech(), [int(t == 0) for t in range(24)])
    monkeypatch.setattr(leech, "build_leech", lambda: planted)
    with pytest.raises(leech.MinimumNotCertified, match="not an integer"):
        leech.certify_minimum()


def test_a_block_that_is_not_doubly_even_fails_the_certificate(monkeypatch,
                                                              fresh_caches):
    # the code of the four pairs {01, 23, 45, 67} has dimension 4 and an
    # even preimage lattice of determinant 256 with vectors of norm 2
    from e8voa import leech
    from e8voa.cli import RunConfig, registry, run_claims
    from e8voa.codes import BinaryCode
    pairs = BinaryCode(8, [[int(j // 2 == i) for j in range(8)] for i in range(4)])
    assert leech.construction_A(pairs).det_gram() == 256
    monkeypatch.setattr(leech, "block_subcode", lambda code, columns: pairs)
    record, = [r for r in run_claims(registry(RunConfig("verify-leech")))
               if r["claim"] == "leech/lattice/minimum-norm-4"]
    assert not record["pass"]
    assert record["actual"] == ("EmbeddingNotFound: block 0 lattice is not a "
                                "rescaled E8")


def test_swapped_class_bounds_fail_exactly_the_minimum_claim(monkeypatch):
    # norm bounds 1 and 2 exchanged: the first glue word in span order whose
    # bound falls below 4 is named with its bound, the same ints every run
    from e8voa import leech
    from e8voa.cli import RunConfig, registry, run_claims
    clean = run_claims(registry(RunConfig("verify-leech")))
    bounds = leech._class_norm_bounds
    monkeypatch.setattr(leech, "_class_norm_bounds", lambda emb, k: [
        b and 3 - b for b in bounds(emb, k)])
    mutated = run_claims(registry(RunConfig("verify-leech")))
    assert run_claims(registry(RunConfig("verify-leech"))) == mutated
    assert_only_failed(clean, mutated, ["leech/lattice/minimum-norm-4"],
                       "MinimumNotCertified: glue word ")
    actual, = [r["actual"] for r in mutated if not r["pass"]]
    assert actual == "MinimumNotCertified: glue word 2523554 has norm bound 3"


def test_embedding_gram_and_orthogonality():
    ctx = build_leech()
    emb = embed_sqrt2E8_cubed(ctx)
    assert emb.det_gram() == 256 ** 3
    for a in range(24):
        for b in range(24):
            if a // 8 != b // 8:
                assert emb.gram[a][b] == 0
    from e8voa.rootsys import e8_paper_data
    cart = e8_paper_data()["lattice"].gram
    for k in range(3):
        for fr in [block_frame(ctx, k)]:
            for i in range(8):
                for j in range(8):
                    dot = sum(x * y for x, y in zip(fr[i], fr[j]))
                    assert dot == 2 * cart[i][j]


def test_each_block_has_240_minimal_vectors():
    ctx = build_leech()
    for k in range(3):
        assert block_norm4_count(ctx, k) == 240


def test_block_vectors_and_frames_lie_in_leech():
    # block_norm4_count and block_frame rely on the certified block rows
    # instead of checking each vector; this keeps that fact checked
    from e8voa.leech import _block
    ctx = build_leech()
    lam = ctx.lattice
    for k in range(3):
        block, norm4 = _block(ctx, k)
        assert len(norm4) == 240
        assert all(lam.contains(*block.ambient_ints(z)) for z in norm4)
        assert all(lam.contains(v) for v in block_frame(ctx, k))


def test_embedding_is_built_from_the_block_int_rows():
    # the cross-block zeros are read off the integer Gram rows, and the
    # rows match the embedding built from the Fraction block bases
    from e8voa.codes import block_subcode, residue_code_B
    from e8voa.lattice import EvenLattice, lattice_over
    from e8voa.linalg import hermite_normal_form
    from e8voa.leech import _block
    ctx = build_leech()
    emb = embed_sqrt2E8_cubed(ctx)
    gram, den = emb._int_gram_rows
    assert all(gram[a][b] == 0 for a in range(24) for b in range(24) if a // 8 != b // 8)
    assert any(gram[a][b] for a in range(24) for b in range(24) if a != b)
    rows24 = []
    for k in range(3):
        blk = block_subcode(residue_code_B(ctx.code), list(range(8 * k, 8 * k + 8)))
        gens = [[2 * int(i == j) for j in range(8)] for i in range(8)]
        block_lat = lattice_over(
            hermite_normal_form(gens + [list(g) for g in blk.generators]), 1)
        rows24 += [[F(0)] * (8 * k) + list(row) + [F(0)] * (16 - 8 * k)
                   for row in block_lat.basis]
    reference = EvenLattice(rows24)
    assert emb._int_rows == reference._int_rows
    assert emb._int_gram_rows == reference._int_gram_rows
    rows, d = emb._int_rows
    for k in range(3):
        block, norm4 = _block(ctx, k)
        assert block._int_rows == (rows[8 * k: 8 * k + 8], d)
        assert block.basis == emb.basis[8 * k: 8 * k + 8]


def test_sigma_tilde_orders_match_labels():
    for i, n in enumerate((1, 2, 3, 4, 5, 6, 4, 2, 3)):
        assert sigma_tilde_order(i) == n


def test_survey_basic_counts():
    survey = minimal_coset_survey()
    assert len(survey) == 256
    counts = Counter(int(c["min_norm"]) for c in survey)
    assert counts == {0: 1, 1: 120, 2: 135}


def test_survey_minimal_vector_counts():
    survey = minimal_coset_survey()
    for c in survey:
        if c["min_norm"] == 0:
            assert c["n_minimal"] == 1
        elif c["min_norm"] == 1:
            assert c["n_minimal"] == 2
        else:
            assert c["n_minimal"] == 16


def test_survey_norm2_splittings():
    survey = minimal_coset_survey()
    for c in survey:
        if c["min_norm"] != 2:
            assert c["split"] is None
            continue
        a, b = c["split"]
        assert sum(x * x for x in a) == 1
        assert sum(x * x for x in b) == 1
        assert sum(x * y for x, y in zip(a, b)) == 0
        assert tuple(x + y for x, y in zip(a, b)) == tuple(c["rep"])


def test_survey_matches_the_fraction_reference():
    import fraction_reference as ref
    survey = minimal_coset_survey()
    reference = ref.minimal_coset_survey()
    assert len(survey) == len(reference) == 256
    for got, want in zip(survey, reference):
        assert got == want
        assert all(type(x) is F for x in got["rep"])


def test_shape_list_is_exactly_eleven():
    assert len(MINIMAL_SHAPES) == 11
    norms = sorted(set(sum(F(x) * F(x) for x in s) for s in MINIMAL_SHAPES))
    assert norms == [0, 1, 2]


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 24 - 1), st.integers(0, 2 ** 24 - 1))
def test_phase_map_is_additive(mask_a, mask_b):
    ctx = build_leech()
    basis = ctx.lattice.basis
    embed_sqrt2E8_cubed(ctx)
    frame = block_frame(ctx, 0)
    from e8voa.rootsys import extended_e8_node
    glue = extended_e8_node(5).glue_coords
    beta = [F(0)] * 24
    for c, m in zip(glue, frame):
        for t in range(24):
            beta[t] += c * m[t]

    def vec(mask):
        out = [F(0)] * 24
        for bit in range(24):
            if mask >> bit & 1:
                for t in range(24):
                    out[t] += basis[bit][t]
        return out

    from e8voa.scalars import phase
    va, vb = vec(mask_a), vec(mask_b)
    ta = sum(x * y for x, y in zip(beta, va))
    tb = sum(x * y for x, y in zip(beta, vb))
    tsum = sum(x * y for x, y in zip(beta, [p + q for p, q in zip(va, vb)]))
    assert phase(ta) * phase(tb) == phase(tsum)


def test_build_leech_follows_the_data_dir(tmp_path, monkeypatch):
    from e8voa.leech import CodeCheckFailed
    first = build_leech()
    bad = data_copy(tmp_path, [("z4_leech.txt", "3012", "3013")])
    monkeypatch.setenv("MCKAY_DATA_DIR", str(bad))
    with pytest.raises(CodeCheckFailed):
        build_leech()
    monkeypatch.delenv("MCKAY_DATA_DIR")
    assert build_leech() is first


def test_failing_leech_build_checks_the_code_once(tmp_path, monkeypatch, capsys,
                                                  fresh_caches):
    from e8voa import leech
    from e8voa.cli import main
    calls = []
    is_type_II = leech.is_type_II

    def counting(code):
        calls.append(code)
        return is_type_II(code)

    monkeypatch.setattr(leech, "is_type_II", counting)
    bad = data_copy(tmp_path, [("z4_leech.txt", "3012", "3013")])
    monkeypatch.setenv("MCKAY_DATA_DIR", str(bad))
    assert main(["verify-leech"]) == 1
    capsys.readouterr()
    assert len(calls) == 1


def _counting(monkeypatch, module, name, calls):
    """Replace module.name by a wrapper that appends its arguments to calls."""
    original = getattr(module, name)

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(module, name, counting)


def test_failing_embedding_and_survey_are_built_once(tmp_path, monkeypatch,
                                                     capsys, fresh_caches):
    from e8voa import leech
    from e8voa.cli import main
    perms, surveys = [], []
    _counting(monkeypatch, leech, "find_column_permutation", perms)
    # the survey is the one caller of construction_A on the Hamming code
    _counting(monkeypatch, leech, "construction_A", surveys)
    bad = data_copy(tmp_path, [("hamming8.txt", "11110000", "11110001")])
    monkeypatch.setenv("MCKAY_DATA_DIR", str(bad))
    assert main(["verify-leech"]) == 1
    capsys.readouterr()
    assert len(perms) == 1
    assert len([c for c in surveys if c[0] == leech.named_code("Hamming8")]) == 1


def test_survey_is_cached_and_follows_the_data_dir(tmp_path, monkeypatch):
    from e8voa.leech import ShapeMismatch
    first = minimal_coset_survey()
    assert minimal_coset_survey() is first
    bad = data_copy(tmp_path, [("hamming8.txt", "11110000", "11110001")])
    monkeypatch.setenv("MCKAY_DATA_DIR", str(bad))
    with pytest.raises(ShapeMismatch, match="minimal norm 5/4"):
        minimal_coset_survey()
    monkeypatch.delenv("MCKAY_DATA_DIR")
    assert minimal_coset_survey() is first


def test_a_shape_missing_from_the_list_fails_exactly_the_dual_coset_claims(
        monkeypatch, fresh_caches):
    # without the norm-1 shape (1, 0, ..., 0) some norm-1 coset matches no
    # shape, so the survey raises and each of its four claims fails with it
    from e8voa import leech
    from e8voa.cli import RunConfig, registry, run_claims
    from e8voa.codes import clear_caches
    clean = run_claims(registry(RunConfig("verify-leech")))
    doubled = (2,) + (0,) * 7
    monkeypatch.setattr(leech, "_SHAPES2",
                        leech._SHAPES2 - {doubled, tuple(-x for x in doubled[::-1])})
    clear_caches()
    mutated = run_claims(registry(RunConfig("verify-leech")))
    failed = [r["claim"] for r in clean if r["claim"].startswith("leech/dual-cosets/")]
    assert len(failed) == 4
    assert_only_failed(clean, mutated, failed, "ShapeMismatch: no minimal "
                       "representative matches the shape list")


def _gram_doubled(honest):
    # the sqrt(2) scaling applied twice: the same rows under twice their Gram
    def embed(ctx):
        emb = honest(ctx)
        return EvenLattice(emb.basis, gram=[[2 * x for x in row] for row in emb.gram])
    return embed


# one targeted mutation per Leech claim family, as (owner, attribute, mutate,
# the claims that must fail, the start of their actual), with mutate(honest
# attribute) -> the replacement
LEECH_MUTATIONS = {
    # the diagonal and off-diagonal divisors of the evenness test swapped
    "even-unimodular-rank24": (EvenLattice, "is_even",
                               lambda honest: lambda lat: lat._gram_divisible(1, 2),
                               ["leech/lattice/even-unimodular-rank24"],
                               "rank 24, det 1, even False"),
    "embedding/block-gram": (leech, "embed_sqrt2E8_cubed", _gram_doubled,
                             ["leech/embedding/block-gram"], str(2 ** 24 * 256 ** 3)),
    # each pair of opposite vectors counted once
    "embedding/block-counts": (leech, "block_norm4_count",
                               lambda honest: lambda ctx, k: honest(ctx, k) // 2,
                               [f"leech/embedding/block-{k}-norm4-count" for k in range(3)],
                               "120"),
}


@pytest.mark.parametrize("family", LEECH_MUTATIONS)
def test_a_targeted_mutation_fails_exactly_its_leech_claims(family, monkeypatch,
                                                            fresh_caches):
    from e8voa.cli import RunConfig, registry, run_claims
    from e8voa.codes import clear_caches
    owner, name, mutate, failed, actual = LEECH_MUTATIONS[family]
    clean = run_claims(registry(RunConfig("verify-leech")))
    clear_caches()
    monkeypatch.setattr(owner, name, mutate(getattr(owner, name)))
    mutated = run_claims(registry(RunConfig("verify-leech")))
    assert_only_failed(clean, mutated, failed, actual)


def test_hamming_context_follows_the_data_dir(tmp_path, monkeypatch):
    from e8voa.griess import build_hamming_family, hamming_context
    first = build_hamming_family()
    # the row 01100110 becomes 01100111: the code is no longer doubly even
    bad = data_copy(tmp_path, [("hamming8.txt", "01100110", "01100111")])
    monkeypatch.setenv("MCKAY_DATA_DIR", str(bad))
    with pytest.raises(ValueError, match="doubly even"):
        hamming_context()
    with pytest.raises(ValueError, match="doubly even"):
        build_hamming_family()
    monkeypatch.delenv("MCKAY_DATA_DIR")
    assert build_hamming_family() is first
