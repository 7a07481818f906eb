"""Command-line verification front end.

Commands re-run the exact checks and emit deterministic JSON or markdown
reports; the exit status is 0 exactly when every requested check passes.

Every claim is defined once, in the registry: each section yields its
claims in report order as ``(claim_id, check)``, where ``check()`` returns
``(ok, expected, actual)``.  ``run_claims`` turns each claim into one
record and is the only place that catches exceptions: a check that raises
fails its own claim, with ``actual = "<ExceptionClass>: <message>"``.
Checks call the functions of ``codes``, ``griess``, ``lattice``, ``leech``
and ``mckay`` through their modules, so a test can replace one.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from functools import cache, partial
from itertools import combinations

from . import __version__, codes, griess, lattice, leech, mckay
from .rootsys import build_root_system, extended_e8_node
from .scalars import as_rational


class RunConfig:
    def __init__(self, command: str, node_filter: list[int] | None = None,
                 output_format: str = "json", long_checks: bool = False):
        self.command = command
        self.node_filter = list(dict.fromkeys(node_filter or []))
        self.output_format = output_format
        self.long_checks = long_checks
        if command not in COMMANDS:
            raise ValueError(f"unknown command {command!r}")
        if output_format not in FORMATS:
            raise ValueError(f"unknown output format {output_format!r}")
        if any(not 0 <= i <= 8 for i in self.node_filter):
            raise ValueError("node filter entries must be 0..8")


def _equals(expected, actual):
    return actual == expected, expected, actual


def _nodes(config):
    return config.node_filter or list(range(9))


def _found(ok, actual):
    """A check with no expected value; a failure states what it found."""
    return ok, None, None if ok else actual


def _count(want, n):
    """The count n against want; a failure states n."""
    return n == want, want, None if n == want else n


@codes.data_cached()
def _even_unimodular(lam):
    """Rank 24, determinant 1 and even; a failure states all three."""
    rank, det, even = lam.rank, lam.det_gram(), lam.is_even()
    return _found(rank == 24 and det == 1 and even,
                  f"rank {rank}, det {det}, even {even}")


def _codes_claims(config: RunConfig):
    h8 = partial(codes.named_code, "Hamming8")
    rm42 = partial(codes.named_code, "RM42")
    z4 = partial(codes.named_code, "Z4Leech")
    lat = cache(lambda: codes.construction_A(h8()))
    bc = cache(lambda: codes.residue_code_B(z4()))

    def z4_type_II():
        c = z4()
        if codes.is_type_II(c):
            return True, None, None
        weights = sorted({codes.euclidean_weight(g) % 8 for g in c.generators})
        return False, None, f"self-dual {codes.dual_code(c) == c}, weights mod 8 {weights}"

    def dual_is(c, want):
        d = codes.dual_code(c)
        return _found(d == want, f"dual weights {d.weight_distribution()}")

    def doubly_even():
        # the Gram entries off their divisor: 4 on the diagonal, 2 off it
        bad = [f"Gram[{a}][{b}] = {x}" for a, row in enumerate(lat().gram)
               for b, x in enumerate(row) if x % (4 if a == b else 2)]
        return _found(lat().is_doubly_even(), ", ".join(bad[:1]))

    def hamming_block(k):
        blk = codes.block_subcode(bc(), range(8 * k, 8 * k + 8))
        ok = (blk.dimension == 4
              and codes.find_column_permutation(blk, h8()) is not None)
        return _found(ok, f"dimension {blk.dimension}, weights {blk.weight_distribution()}")

    yield "codes/hamming8/weight-distribution", lambda: (
        h8().weight_distribution() == (1, 0, 0, 0, 14, 0, 0, 0, 1),
        "(1,0,0,0,14,0,0,0,1)", h8().weight_distribution())
    yield "codes/hamming8/self-dual", lambda: dual_is(h8(), h8())
    yield "codes/rm42/dimension", lambda: _equals(11, rm42().dimension)
    yield "codes/rm42/dual-is-rm41", lambda: dual_is(
        rm42(), codes.named_code("RM41"))
    yield "codes/z4/cardinality", lambda: _equals(2 ** 24, z4().cardinality())
    yield "codes/z4/type-II", z4_type_II
    yield "codes/construction-a/h8-det", lambda: _equals(256, lat().det_gram())
    yield "codes/construction-a/h8-doubly-even", doubly_even
    yield "codes/construction-a/h8-norm4-count", lambda: _count(
        240, len(lattice.coords_of_norm(lat(), 4)))
    yield "codes/construction-a/z4-rank-det", lambda: _even_unimodular(
        codes.construction_A(z4()))
    yield "codes/residue/dimension", lambda: _equals(17, bc().dimension)
    for k in range(3):
        yield f"codes/residue/hamming-block-{k}", lambda k=k: hamming_block(k)


def _leech_claims(config: RunConfig):
    def survey():
        return leech.minimal_coset_survey()

    def block_gram():
        emb = leech.embed_sqrt2E8_cubed(leech.build_leech())
        return (emb.det_gram() == 256 ** 3 and emb.is_doubly_even(),
                256 ** 3, emb.det_gram())

    yield "leech/lattice/even-unimodular-rank24", lambda: _even_unimodular(
        leech.build_leech().lattice)
    yield "leech/lattice/minimum-norm-4", lambda: (
        leech.certify_minimum(), None, None)
    yield "leech/embedding/block-gram", block_gram
    for k in range(3):
        yield (f"leech/embedding/block-{k}-norm4-count",
               lambda k=k: _count(240, leech.block_norm4_count(leech.build_leech(), k)))
    for i in _nodes(config):
        yield f"leech/sigma-order/i={i}", lambda i=i: _equals(
            extended_e8_node(i).n, leech.sigma_tilde_order(i))
    yield "leech/dual-cosets/count", lambda: _equals(256, len(survey()))
    yield "leech/dual-cosets/min-norms", lambda: _equals(
        [0, 1, 2], sorted(set(int(c["min_norm"]) for c in survey())))
    yield "leech/dual-cosets/norm-counts", lambda: _equals(
        (1, 120, 135),
        tuple(sum(1 for c in survey() if c["min_norm"] == k) for k in (0, 1, 2)))
    yield "leech/dual-cosets/norm2-splits", lambda: (
        all(c["split"] is not None for c in survey() if c["min_norm"] == 2),
        None, None)
    if config.long_checks:
        yield "leech/kissing-number", lambda: _equals(
            196560, len(leech.kissing_vectors()))


GRIESS_SUITE = ([("A", n) for n in range(1, 9)] + [("D", n) for n in range(3, 9)]
                + [("E", 6), ("E", 7), ("E", 8)])

OMEGA_TILDE_CC = {
    "A": lambda n: Fraction(2 * n, n + 3),
    "D": lambda n: Fraction(1),
    "E": {6: Fraction(6, 7), 7: Fraction(7, 10), 8: Fraction(1, 2)}.get,
}


def _root_system_claims(letter, rank):
    """The conformal family of sqrt(2) times the root lattice, and its dual cosets.

    The algebra context and the Virasoro family are built once, by the
    first check that needs them.
    """
    rs = build_root_system(letter, rank)
    ctx = cache(lambda: griess.sqrt2_root_context(letter, rank)[1])
    fam = cache(lambda: griess.build_virasoro_family(ctx(), rs.root_coords))
    want = OMEGA_TILDE_CC[letter](rank)
    h = rs.coxeter_number

    def conformal_family():
        s, w = fam()["s"], fam()["omega_tilde"]
        ok = (griess.conformal_check(ctx(), s) is not None
              and as_rational(griess.conformal_check(ctx(), w)) == want
              and griess.product(ctx(), s, w).is_zero()
              and griess.inner(ctx(), s, w) == 0)
        return ok, f"cc {want}", None

    def coset_claims(ridx, shift):
        space = cache(lambda: griess.ModuleSpace(ctx(), shift))

        def x_eta():
            # |X_eta| is the number of lowering pairs at eta (see ModuleSpace)
            kh = space().weight * h
            return all(len(pairs) == kh for pairs in space().lowering), f"kh = {kh}", None

        def highest_weight():
            # s v = 0 and w v = k v on the all-ones vector v, as row sums of
            # the int action rows over their denominator
            sp = space()
            k = sp.weight

            def rows_sum_to(u, c):
                rows, den = sp.act_rows(u)
                return all(sum(row) == c * den for row in rows)
            return (rows_sum_to(fam()["s"], 0) and rows_sum_to(fam()["omega_tilde"], k),
                    f"s v = 0 and w v = {k} v", None)

        yield f"griess/x-eta/{letter}{rank}/coset-{ridx}", x_eta
        yield f"griess/highest-weight/{letter}{rank}/coset-{ridx}", highest_weight

    yield f"griess/conformal-family/{letter}{rank}", conformal_family
    for ridx, shift in enumerate(rs.lattice.dual_coset_shifts()):
        yield from coset_claims(ridx, shift)


def _hamming_claims():
    half = Fraction(1, 2)

    def ham():
        return griess.build_hamming_family()

    hctx = cache(lambda: ham().ctx)

    def frame_memos(build):
        """Memos of one frame: its vectors keyed in frame order, their central
        charges, and (a_1 b is zero, <a, b>) on the pairs a < b.  A vector
        that is not idempotent fails only the claims that square it."""
        vectors = cache(build)
        ccs = cache(lambda: [as_rational(griess.conformal_check(hctx(), v))
                             for v in vectors().values()])
        pairs = cache(lambda: {
            (ka, kb): (griess.product(hctx(), u, v).is_zero(),
                       as_rational(griess.inner(hctx(), u, v)))
            for (ka, u), (kb, v) in combinations(vectors().items(), 2)})
        return vectors, ccs, pairs

    standard = frame_memos(lambda: dict(enumerate(ham().standard_frame())))
    hamming = frame_memos(lambda: ham().hamming_frame())
    _, hamming_ccs, hamming_pairs = hamming

    def x_ones():
        ones = tuple([1] * 8)
        return ham().X[0][ones].is_zero() and ham().X[1][ones].is_zero(), None, None

    def trichotomy():
        """Pairings are 0 across signs and 1/32 or 0 within one, by the parity
        of delta + delta'.  Every delta of ``hamming_cosets_even`` has even
        weight, so only the zero branch is reached: all 120 pairings are 0."""
        def want(ka, kb):
            parity = sum(a + b for a, b in zip(ka[1], kb[1])) % 2
            return Fraction(1, 32) if ka[0] == kb[0] and parity else 0
        return all(val == want(ka, kb)
                   for (ka, kb), (_, val) in hamming_pairs().items()), None, None

    def orthogonal_frame(vectors, ccs, pairs):
        ok = (len(vectors()) == 16 and all(cc == half for cc in ccs())
              and all(zero and val == 0 for zero, val in pairs().values())
              and (sum(vectors().values(), hctx().zero()) - hctx().omega()).is_zero())
        return ok, "16 orthogonal, sum omega", None

    def tau_blocks():
        blocks = mckay.weight2_tau_theta_verified()
        return (blocks == {"even": 156, "odd": 128}, "{even:156, odd:128}",
                blocks)

    yield "griess/hamming/x-ones-vanishes", x_ones
    yield "griess/hamming/conformal-cc-half", lambda: (
        all(cc == half for cc in hamming_ccs()), "cc 1/2", None)
    yield "griess/hamming/inner-trichotomy", trichotomy
    yield "griess/frame/standard", lambda: orthogonal_frame(*standard)
    yield "griess/frame/hamming", lambda: orthogonal_frame(*hamming)
    yield "griess/tau/weight2-equals-theta", tau_blocks
    yield "griess/tau/negates-dual-exponentials", lambda: (
        mckay.tau_e_negates_dual_exponentials(), None, None)


def _griess_claims(config: RunConfig):
    for letter, rank in GRIESS_SUITE:
        yield from _root_system_claims(letter, rank)
    yield from _hamming_claims()


def _node_claims(i):
    want = mckay.MCKAY_TABLE[i]

    def inner():
        direct = mckay.direct_inner(i)
        return (direct == want and mckay.counting_formula_inner(i) == want,
                want, direct)

    def root_counts():
        node = extended_e8_node(i)
        return _equals(mckay.ROOT_COUNT_TABLE[i],
                       (node.phi_count(), tuple(node.h_counts())))

    def u2():
        node = extended_e8_node(i)
        u2 = griess.coset_U2_cached(i)
        e, f = griess.e_f_coords(u2)
        rank, _ = griess.generated_closure_coords(u2, [e, f])
        found = (u2.dim, rank, as_rational(u2.inner_coords(e, f)))
        expected = (len(node.components) + node.n - 1,) * 2 + (want,)
        return (True, None, None) if found == expected else (False, expected, found)

    def tau_orders():
        n = extended_e8_node(i).n
        orders = mckay.tau_product_orders(i)
        return orders == (n if n % 2 else n // 2, n, n), None, orders

    yield f"mckay/inner/i={i}", inner
    yield f"mckay/root-counts/i={i}", root_counts
    yield f"mckay/u2/i={i}", u2
    yield f"mckay/tau-orders/i={i}", tau_orders
    yield f"mckay/dihedral/i={i}", lambda: (
        mckay.dihedral_check(i)["verified"], None, None)
    yield f"mckay/conway/i={i}", lambda: (
        all(row["status"] in ("verified", "recorded")
            for row in mckay.conway_report(i)), None, None)


def _mckay_claims(config: RunConfig):
    for i in _nodes(config):
        yield from _node_claims(i)


SECTIONS = (("codes", _codes_claims), ("griess", _griess_claims),
            ("leech", _leech_claims), ("mckay", _mckay_claims))
COMMANDS = [f"verify-{name}" for name, _ in SECTIONS] + ["verify-all"]
FORMATS = ["json", "markdown"]


def registry(config: RunConfig):
    """The configured command's claims, in report order, as (claim_id, check)."""
    for name, claims in SECTIONS:
        if config.command in (f"verify-{name}", "verify-all"):
            yield from claims(config)


def run_claims(claims) -> list[dict]:
    """One record per claim; a check that raises fails its own claim."""
    results = []
    for claim, check in claims:
        try:
            ok, expected, actual = check()
        except Exception as exc:
            ok, expected, actual = False, None, f"{type(exc).__name__}: {exc}"
        rec = {"claim": claim, "pass": bool(ok)}
        if expected is not None:
            rec["expected"] = str(expected)
        if actual is not None:
            rec["actual"] = str(actual)
        results.append(rec)
    return results


def run(config: RunConfig):
    """Run the configured command; returns (exit_status, report dict, text)."""
    results = run_claims(registry(config))
    table = ""
    if config.command in ("verify-mckay", "verify-all"):
        table = mckay.markdown_table(_nodes(config))
    all_pass = all(r["pass"] for r in results)
    report = {
        "version": __version__,
        "command": config.command,
        "results": results,
        "pass": all_pass,
    }
    if config.output_format == "markdown":
        lines = [f"# {config.command}", ""]
        for r in results:
            mark = "PASS" if r["pass"] else "FAIL"
            extra = ""
            if not r["pass"]:
                extra = " (expected %s, got %s)" % (
                    r.get("expected", "?"), r.get("actual", "?"))
            lines.append(f"- [{mark}] {r['claim']}{extra}")
        if table:
            lines += ["", table]
        lines.append("")
        lines.append("overall: " + ("PASS" if all_pass else "FAIL"))
        text = "\n".join(lines)
    else:
        if table:
            report["table"] = table
        text = json.dumps(report, indent=1, sort_keys=True)
    return (0 if all_pass else 1), report, text


def main(argv=None) -> int:
    # only the options given reach RunConfig, which holds every default
    parser = argparse.ArgumentParser(
        prog="e8voa", argument_default=argparse.SUPPRESS,
        description="Exact verification of the extended-E8 conformal vector "
                    "constructions and the Leech lattice")
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--node", type=int, action="append", dest="node_filter",
                        metavar="NODE",
                        help="restrict node-indexed checks to this node (repeatable)")
    parser.add_argument("--format", choices=FORMATS, dest="output_format")
    parser.add_argument("--long", action="store_true", dest="long_checks",
                        help="enable the long-running kissing-number count")
    args = parser.parse_args(argv)
    try:
        config = RunConfig(**vars(args))
    except ValueError as exc:
        parser.error(str(exc))
    status, _, text = run(config)
    print(text)
    return status


if __name__ == "__main__":
    sys.exit(main())
