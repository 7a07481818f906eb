"""Command-line verification front end.

Commands re-run the exact checks and emit deterministic JSON or markdown
reports; the exit status is 0 exactly when every requested check passes.
Failed checks carry a machine-readable claim identifier.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field
from fractions import Fraction

VERSION = "0.1.0"


@dataclass
class RunConfig:
    command: str
    node_filter: list[int] = field(default_factory=list)
    output_format: str = "json"
    time_budget_seconds: int = 600
    field_order_override: int | None = None
    long_checks: bool = False

    def __post_init__(self):
        if any(not 0 <= i <= 8 for i in self.node_filter):
            raise ValueError("node filter entries must be 0..8")
        if self.time_budget_seconds <= 0:
            raise ValueError("time budget must be positive")


def _check(results, claim, ok, expected=None, actual=None):
    rec = {"claim": claim, "pass": bool(ok)}
    if expected is not None:
        rec["expected"] = str(expected)
    if actual is not None:
        rec["actual"] = str(actual)
    results.append(rec)
    return ok


def _nodes(config):
    return config.node_filter or list(range(9))


def verify_codes(config: RunConfig):
    from .codes import (construction_A, dual_code, named_code, is_type_II,
                        residue_code_B, block_subcode, find_column_permutation)
    from .lattice import short_vectors
    results = []
    h8 = named_code("Hamming8")
    _check(results, "codes/hamming8/weight-distribution",
           h8.weight_distribution() == (1, 0, 0, 0, 14, 0, 0, 0, 1),
           "(1,0,0,0,14,0,0,0,1)", h8.weight_distribution())
    _check(results, "codes/hamming8/self-dual", dual_code(h8) == h8)
    rm41 = named_code("RM41")
    rm42 = named_code("RM42")
    _check(results, "codes/rm42/dimension", rm42.dimension == 11, 11,
           rm42.dimension)
    _check(results, "codes/rm42/dual-is-rm41", dual_code(rm42) == rm41)
    z4 = named_code("Z4Leech")
    _check(results, "codes/z4/cardinality", z4.cardinality() == 2 ** 24,
           2 ** 24, z4.cardinality())
    _check(results, "codes/z4/type-II", is_type_II(z4))
    lat = construction_A(h8)
    _check(results, "codes/construction-a/h8-det", lat.det_gram() == 256,
           256, lat.det_gram())
    _check(results, "codes/construction-a/h8-doubly-even",
           lat.is_doubly_even())
    _check(results, "codes/construction-a/h8-norm4-count",
           len(short_vectors(lat, 4)) == 240, 240)
    lam = construction_A(z4)
    _check(results, "codes/construction-a/z4-rank-det",
           lam.rank == 24 and lam.det_gram() == 1 and lam.is_even())
    bc = residue_code_B(z4)
    _check(results, "codes/residue/dimension", bc.dimension == 17, 17,
           bc.dimension)
    for k in range(3):
        blk = block_subcode(bc, range(8 * k, 8 * k + 8))
        perm = (find_column_permutation(blk, h8)
                if blk.dimension == 4 else None)
        _check(results, f"codes/residue/hamming-block-{k}", perm is not None)
    return results


def verify_leech(config: RunConfig):
    from .lattice import BudgetExceeded
    from .leech import (build_leech, certify_minimum, embed_sqrt2E8_cubed,
                        block_norm4_count, sigma_tilde_order,
                        minimal_coset_survey, kissing_vectors)
    from .rootsys import extended_e8_node
    results = []
    ctx = build_leech()
    _check(results, "leech/lattice/even-unimodular-rank24",
           ctx.lattice.rank == 24 and ctx.lattice.det_gram() == 1
           and ctx.lattice.is_even())
    try:
        minimum_ok = certify_minimum(config.time_budget_seconds)
        min_actual = None
    except BudgetExceeded:
        minimum_ok = False
        min_actual = "time budget exceeded"
    _check(results, "leech/lattice/minimum-norm-4", minimum_ok,
           actual=min_actual)
    emb = embed_sqrt2E8_cubed(ctx)
    _check(results, "leech/embedding/block-gram",
           emb.det_gram() == 256 ** 3 and emb.is_doubly_even(),
           256 ** 3, emb.det_gram())
    for k in range(3):
        _check(results, f"leech/embedding/block-{k}-norm4-count",
               block_norm4_count(ctx, k) == 240, 240)
    for i in _nodes(config):
        n = extended_e8_node(i).n
        got = sigma_tilde_order(i)
        _check(results, f"leech/sigma-order/i={i}", got == n, n, got)
    survey = minimal_coset_survey()
    norms = sorted(set(int(c["min_norm"]) for c in survey))
    _check(results, "leech/dual-cosets/count", len(survey) == 256, 256,
           len(survey))
    _check(results, "leech/dual-cosets/min-norms", norms == [0, 1, 2],
           "[0, 1, 2]", norms)
    counts = {k: sum(1 for c in survey if c["min_norm"] == k)
              for k in (0, 1, 2)}
    _check(results, "leech/dual-cosets/norm-counts",
           (counts[0], counts[1], counts[2]) == (1, 120, 135),
           "(1, 120, 135)", (counts[0], counts[1], counts[2]))
    _check(results, "leech/dual-cosets/norm2-splits",
           all(c["split"] is not None for c in survey if c["min_norm"] == 2))
    if config.long_checks:
        try:
            vecs = kissing_vectors(budget_seconds=config.time_budget_seconds)
            _check(results, "leech/kissing-number", len(vecs) == 196560,
                   196560, len(vecs))
        except BudgetExceeded:
            _check(results, "leech/kissing-number", False, 196560,
                   "time budget exceeded")
    return results


def verify_griess(config: RunConfig):
    from .griess import (build_hamming_family, build_virasoro_family,
                         conformal_check, inner, product,
                         module_act, ModuleSpace, ModuleVector)
    from .lattice import Coset, coset_min_norm, count_X_eta
    from .mckay import (tau_e_negates_dual_exponentials,
                        weight2_tau_theta_verified)
    from .rootsys import build_root_system
    from .scalars import as_rational
    results = []

    suite = ([("A", n) for n in range(1, 9)] + [("D", n) for n in range(3, 9)]
             + [("E", 6), ("E", 7), ("E", 8)])
    omega_tilde_cc = {
        "A": lambda n: Fraction(2 * n, n + 3),
        "D": lambda n: Fraction(1),
        "E": {6: Fraction(6, 7), 7: Fraction(7, 10), 8: Fraction(1, 2)}.get,
    }
    from .griess import AlgebraContext
    for letter, rank in suite:
        rs = build_root_system(letter, rank)
        gram2 = [[2 * x for x in row] for row in rs.lattice.gram]
        ctx = AlgebraContext(gram2, label=f"sqrt2{letter}{rank}")
        fam = build_virasoro_family(ctx, rs.root_coords)
        want = omega_tilde_cc[letter](rank)
        ok = (conformal_check(ctx, fam["s"]) is not None
              and as_rational(conformal_check(ctx, fam["omega_tilde"])) == want
              and product(ctx, fam["s"], fam["omega_tilde"]).is_zero()
              and inner(ctx, fam["s"], fam["omega_tilde"]) == 0)
        _check(results, f"griess/conformal-family/{letter}{rank}", ok,
               f"cc {want}")
        # coset counting and highest-weight checks
        for ridx, shift in enumerate(rs.lattice.dual_coset_shifts()):
            coset = Coset(rs.lattice, rs.lattice.ambient(shift))
            info = coset_min_norm(coset)
            k = info["k"]
            h = rs.coxeter_number
            ok = all(count_X_eta(rs, coset, eta) == k * h
                     for eta in info["reps"])
            _check(results,
                   f"griess/x-eta/{letter}{rank}/coset-{ridx}", ok,
                   f"kh = {k * h}")
            sp = ModuleSpace(ctx, shift)
            v = ModuleVector(sp, {key: Fraction(1) for key in sp.keys})
            sv = module_act(ctx, fam["s"], v)
            wv = module_act(ctx, fam["omega_tilde"], v)
            ok = sv.is_zero() and (wv - v.scaled(k)).is_zero()
            _check(results,
                   f"griess/highest-weight/{letter}{rank}/coset-{ridx}", ok,
                   f"s v = 0 and w v = {k} v")

    ham = build_hamming_family()
    hctx = ham.ctx
    ones = tuple([1] * 8)
    _check(results, "griess/hamming/x-ones-vanishes",
           ham.X[0][ones].is_zero() and ham.X[1][ones].is_zero())
    from .griess import hamming_cosets_even
    reps = hamming_cosets_even()
    vectors = {(eps, delta): ham.e_hat(eps, delta)
               for eps in (0, 1) for delta in reps}
    ok = all(as_rational(conformal_check(hctx, v)) == Fraction(1, 2)
             for v in vectors.values())
    _check(results, "griess/hamming/conformal-cc-half", ok, "cc 1/2")
    tri_ok = True
    items = sorted(vectors.items())
    for (ka, va) in items:
        for (kb, vb) in items:
            if ka >= kb:
                continue
            val = as_rational(inner(hctx, va, vb))
            if ka[0] != kb[0]:
                want = Fraction(0)
            else:
                parity = sum((a + b) % 2 for a, b in zip(ka[1], kb[1])) % 2
                want = Fraction(1, 32) if parity else Fraction(0)
            if val != want:
                tri_ok = False
    _check(results, "griess/hamming/inner-trichotomy", tri_ok)
    omega = hctx.omega()
    for name, frame in (("standard", ham.standard_frame()),
                        ("hamming", ham.hamming_frame())):
        ok = len(frame) == 16
        total = hctx.zero()
        for v in frame:
            ok = ok and as_rational(conformal_check(hctx, v)) == Fraction(1, 2)
            total = total + v
        for a in range(16):
            for b in range(a + 1, 16):
                ok = ok and product(hctx, frame[a], frame[b]).is_zero()
                ok = ok and inner(hctx, frame[a], frame[b]) == 0
        ok = ok and (total - omega).is_zero()
        _check(results, f"griess/frame/{name}", ok, "16 orthogonal, sum omega")
    blocks = weight2_tau_theta_verified()
    _check(results, "griess/tau/weight2-equals-theta",
           blocks == {"even": 156, "odd": 128}, "{even:156, odd:128}", blocks)
    _check(results, "griess/tau/negates-dual-exponentials",
           tau_e_negates_dual_exponentials())
    return results


def verify_mckay(config: RunConfig):
    from .mckay import node_report, markdown_table, MCKAY_TABLE, ROOT_COUNT_TABLE
    results = []
    reports = []
    for i in _nodes(config):
        try:
            r = node_report(i)
        except Exception as exc:
            _check(results, f"mckay/node/i={i}", False,
                   actual=f"{type(exc).__name__}: {exc}")
            continue
        reports.append(r)
        _check(results, f"mckay/inner/i={i}",
               r.inner_direct == MCKAY_TABLE[i]
               and r.inner_formula == MCKAY_TABLE[i],
               MCKAY_TABLE[i], r.inner_direct)
        _check(results, f"mckay/root-counts/i={i}",
               (r.phi_count, r.h_counts) == ROOT_COUNT_TABLE[i],
               ROOT_COUNT_TABLE[i], (r.phi_count, r.h_counts))
        _check(results, f"mckay/u2/i={i}",
               r.u2_dim == len(r.components) + r.n - 1
               and r.u2_generated_by_ef)
        _check(results, f"mckay/tau-orders/i={i}", r.tau_orders_match,
               actual=(r.tau_order_E8, r.tau_order_dual, r.tau_order_leech))
        _check(results, f"mckay/dihedral/i={i}", r.dihedral_verified)
        _check(results, f"mckay/conway/i={i}",
               all(row["status"] in ("verified", "recorded")
                   for row in r.conway_map))
    if config.field_order_override:
        from .mckay import counting_formula_inner
        from .scalars import Cyclotomic
        ok = True
        for i in _nodes(config):
            from .rootsys import extended_e8_node
            node = extended_e8_node(i)
            if config.field_order_override % (2 * node.n):
                ok = False
                break
            val = counting_formula_inner(i)
            embedded = Cyclotomic.from_rational(
                val, config.field_order_override)
            ok = ok and embedded == val
        _check(results, "mckay/field-order-override", ok)
    table = markdown_table(reports) if reports else ""
    return results, table


def _section(name, verify, config):
    """The section's records, or one failing ``<name>/error`` record if it raises."""
    try:
        return verify(config)
    except Exception as exc:
        results = []
        _check(results, f"{name}/error", False,
               actual=f"{type(exc).__name__}: {exc}")
        return results


def run(config: RunConfig):
    """Run the configured command; returns (exit_status, report dict, text)."""
    sections = {}
    table = ""
    for name, verify in (("codes", verify_codes), ("leech", verify_leech),
                         ("griess", verify_griess)):
        if config.command in (f"verify-{name}", "verify-all"):
            sections[name] = _section(name, verify, config)
    if config.command in ("verify-mckay", "verify-all"):
        sections["mckay"], table = verify_mckay(config)
    results = []
    for name in sorted(sections):
        results.extend(sections[name])
    all_pass = all(r["pass"] for r in results)
    report = {
        "version": VERSION,
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
    parser = argparse.ArgumentParser(
        prog="e8voa",
        description="Exact verification of the extended-E8 conformal vector "
                    "constructions and the Leech lattice")
    parser.add_argument("command", choices=[
        "verify-mckay", "verify-griess", "verify-leech", "verify-codes",
        "verify-all"])
    parser.add_argument("--node", type=int, action="append", default=None,
                        help="restrict node-indexed checks to this node (repeatable)")
    parser.add_argument("--format", choices=["json", "markdown"],
                        default="json")
    parser.add_argument("--budget", type=int, default=600,
                        help="time budget in seconds for rank-24 enumeration")
    parser.add_argument("--long", action="store_true",
                        help="enable the long-running kissing-number count")
    parser.add_argument("--field-order", type=int, default=None,
                        help="re-check table values inside Q(zeta_N) for this N")
    args = parser.parse_args(argv)
    config = RunConfig(
        command=args.command,
        node_filter=args.node or [],
        output_format=args.format,
        time_budget_seconds=args.budget,
        field_order_override=args.field_order,
        long_checks=args.long,
    )
    status, _, text = run(config)
    print(text)
    return status


if __name__ == "__main__":
    sys.exit(main())
