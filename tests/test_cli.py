import functools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import assert_only_failed, data_copy
from e8voa import cli, codes
from e8voa.cli import RunConfig, main, registry, run
from e8voa.lattice import lattice_over


def test_run_config_validation():
    with pytest.raises(ValueError):
        RunConfig(command="verify-all", node_filter=[9])
    with pytest.raises(ValueError, match="unknown command"):
        RunConfig(command="verify-typo")
    with pytest.raises(ValueError, match="unknown output format"):
        RunConfig(command="verify-all", output_format="xml")


def test_the_command_line_passes_only_the_options_given(monkeypatch, capsys):
    # the defaults live in RunConfig alone
    configs = []

    def capture(config):
        configs.append(config)
        return 0, {}, ""

    monkeypatch.setattr(cli, "run", capture)
    assert main(["verify-codes"]) == 0
    assert vars(configs[-1]) == vars(RunConfig("verify-codes"))
    main(["verify-mckay", "--format", "markdown", "--node", "3", "--long"])
    assert vars(configs[-1]) == vars(RunConfig(
        "verify-mckay", node_filter=[3], output_format="markdown", long_checks=True))


def test_a_repeated_node_is_reported_once(capsys):
    # the node filter keeps each node once, in first-seen order
    assert RunConfig(command="verify-all", node_filter=[5, 3, 5, 3]).node_filter == [5, 3]
    assert main(["verify-leech", "--node", "3", "--node", "3"]) == 0
    claims = [r["claim"] for r in json.loads(capsys.readouterr().out)["results"]]
    assert len(claims) == len(set(claims))
    assert [c for c in claims if c.startswith("leech/sigma-order/")] == [
        "leech/sigma-order/i=3"]


@pytest.mark.parametrize("argv", [
    ["verify-leech", "--budget", "0"], ["verify-mckay", "--node", "9"]], ids=" ".join)
def test_bad_option_values_are_usage_errors(argv):
    # there is no --budget option, so it is rejected like a bad value
    src = str(Path(__file__).resolve().parents[1] / "src")
    out = subprocess.run([sys.executable, "-m", "e8voa", *argv],
                         env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True)
    assert out.returncode == 2
    assert out.stdout == ""
    assert out.stderr.startswith("usage: e8voa")
    assert "e8voa: error: " in out.stderr and "Traceback" not in out.stderr


def test_verify_codes_json(capsys):
    rc = main(["verify-codes"])
    out = capsys.readouterr().out
    assert rc == 0
    report = json.loads(out)
    assert report["command"] == "verify-codes"
    assert report["pass"] is True
    assert all(r["pass"] for r in report["results"])
    assert any(r["claim"] == "codes/z4/type-II" for r in report["results"])


def test_verify_codes_deterministic(capsys):
    main(["verify-codes"])
    first = capsys.readouterr().out
    main(["verify-codes"])
    second = capsys.readouterr().out
    assert first == second


def test_verify_mckay_single_node(capsys):
    rc = main(["verify-mckay", "--node", "7", "--format", "json"])
    out = capsys.readouterr().out
    assert rc == 0
    report = json.loads(out)
    claims = {r["claim"] for r in report["results"]}
    assert "mckay/inner/i=7" in claims
    assert not any("i=3" in c for c in claims)
    inner = next(r for r in report["results"] if r["claim"] == "mckay/inner/i=7")
    assert inner["actual"] == "0"


def test_verify_mckay_markdown_table(capsys):
    rc = main(["verify-mckay", "--format", "markdown"])
    out = capsys.readouterr().out
    assert rc == 0
    rows = [line for line in out.splitlines()
            if line.startswith("| ") and "label" not in line]
    doubled = [line.split("|")[6].strip() for line in rows]
    assert doubled == ["1", "1/8", "13/256", "1/32", "3/128", "5/256",
                       "1/64", "0", "1/64"]


# one semantic corruption per data file: a word of weight 5 in the Hamming
# code, a repeated row in RM(1,4), and one entry of the Z4 code
CORRUPTIONS = {
    "hamming8.txt": ("11110000", "11110001"),
    "rm41.txt": ("1010101010101010", "1100110011001100"),
    "z4_leech.txt": ("3012", "3013"),
}


@functools.cache
def _clean_stdout(command):
    status, _, text = run(RunConfig(command=command))
    assert status == 0
    return text + "\n"


@pytest.mark.parametrize("command, corrupt, claim", [
    ("verify-codes", "z4_leech.txt", "codes/z4/type-II"),
    ("verify-leech", "z4_leech.txt", "leech/lattice/even-unimodular-rank24"),
    ("verify-codes", "hamming8.txt", "codes/hamming8/weight-distribution"),
    ("verify-leech", "hamming8.txt", "leech/embedding/block-gram"),
    ("verify-codes", "rm41.txt", "codes/rm42/dimension"),
    ("verify-leech", "rm41.txt", None),
], ids=["verify-codes", "verify-leech", "verify-codes-hamming8",
        "verify-leech-hamming8", "verify-codes-rm41", "verify-leech-rm41"])
def test_corrupted_data_fails(command, corrupt, claim, tmp_path, monkeypatch,
                              capsys):
    """A corrupted file fails the claims that read it and changes no claim id.

    claim is a claim that must fail; None means the command does not read
    the file, so its report must not change at all.
    """
    clean = _clean_stdout(command)
    data_copy(tmp_path, [(corrupt, *CORRUPTIONS[corrupt])])
    monkeypatch.setenv("MCKAY_DATA_DIR", str(tmp_path))
    rc = main([command])
    out, err = capsys.readouterr()
    assert err == ""
    if claim is None:
        assert rc == 0
        assert out == clean
        return
    report = json.loads(out)
    assert rc == 1
    assert report["pass"] is False
    assert ([r["claim"] for r in report["results"]]
            == [r["claim"] for r in json.loads(clean)["results"]])
    failing = [r["claim"] for r in report["results"] if not r["pass"]]
    assert claim in failing


def test_the_leech_minimum_reads_no_hamming_code(tmp_path, monkeypatch):
    """The glue certificate reads the blocks of the Z4 code alone: with the
    Hamming code corrupted the minimum still passes and the embedding,
    which compares its blocks with that code, fails."""
    data_copy(tmp_path, [("hamming8.txt", *CORRUPTIONS["hamming8.txt"])])
    monkeypatch.setenv("MCKAY_DATA_DIR", str(tmp_path))
    records = {r["claim"]: r for r in cli.run_claims(registry(RunConfig("verify-leech")))}
    assert records["leech/lattice/minimum-norm-4"] == {
        "claim": "leech/lattice/minimum-norm-4", "pass": True}
    assert records["leech/embedding/block-gram"] == {
        "claim": "leech/embedding/block-gram", "pass": False,
        "actual": "EmbeddingNotFound: block 0 does not carry a Hamming code"}


def test_short_code_row_fails_the_claims_that_read_it(tmp_path, monkeypatch, capsys):
    """A 7-digit row in hamming8.txt is rejected by the code constructor, so
    each claim that reads the code fails with its ValueError."""
    data_copy(tmp_path, [("hamming8.txt", "11110000", "1111000")])
    monkeypatch.setenv("MCKAY_DATA_DIR", str(tmp_path))
    rc = main(["verify-codes"])
    out, err = capsys.readouterr()
    assert rc == 1 and err == ""
    records = [r for r in json.loads(out)["results"]
               if r["claim"].startswith("codes/hamming8/")]
    assert len(records) == 2
    assert all(not r["pass"] and r["actual"].startswith("ValueError: ")
               for r in records)
    assert "IndexError" not in out


def test_verify_mckay_rereads_the_data_dir(tmp_path, monkeypatch, capsys):
    """No node fact read from a data file is served from a cache after the file changes."""
    assert main(["verify-mckay", "--node", "0"]) == 0
    capsys.readouterr()
    data_copy(tmp_path, [("z4_leech.txt", *CORRUPTIONS["z4_leech.txt"])])
    monkeypatch.setenv("MCKAY_DATA_DIR", str(tmp_path))
    rc = main(["verify-mckay", "--node", "0"])
    report = json.loads(capsys.readouterr().out)
    assert rc == 1
    rec = next(r for r in report["results"] if r["claim"] == "mckay/tau-orders/i=0")
    assert rec["pass"] is False
    assert rec["actual"].startswith("CodeCheckFailed: ")


def test_verify_all_claim_ids_match_the_manifest():
    """The verify-all claim ids, listed from the registry without running a check."""
    want = (Path(__file__).parent / "verify_all_claims.txt").read_text().splitlines()
    assert len(want) == 259 and len(set(want)) == 259
    assert [claim for claim, _ in registry(RunConfig(command="verify-all"))] == want


def test_run_function_returns_report():
    status, report, text = run(RunConfig(command="verify-codes"))
    assert status == 0
    assert report["version"]
    assert json.loads(text)["pass"] is True


def test_the_version_is_stated_once():
    # the report prints e8voa.__version__, and pyproject.toml must agree
    tomllib = pytest.importorskip("tomllib")
    import e8voa
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as fh:
        assert tomllib.load(fh)["project"]["version"] == e8voa.__version__


def test_verify_codes_runs_the_same_under_python_O():
    import os
    import subprocess
    import sys
    from pathlib import Path
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    env.pop("PYTHONHASHSEED", None)
    # verify-mckay --node 5 goes through coset_U2, e_f_coords and the closure;
    # its bytes depend neither on -O nor on the hash seed
    for argv, variants in ((["verify-codes"], [(["-O"], env)]),
                           (["verify-mckay", "--node", "5"],
                            [(["-O"], {**env, "PYTHONHASHSEED": "0"}),
                             ([], {**env, "PYTHONHASHSEED": "4242"})])):
        runs = [subprocess.run([sys.executable, *flags, "-m", "e8voa.cli", *argv],
                               capture_output=True, env=run_env)
                for flags, run_env in [([], env), *variants]]
        assert runs[0].returncode == 0
        for other in runs[1:]:
            assert other.returncode == runs[0].returncode
            assert other.stdout == runs[0].stdout


def test_verify_mckay_records_any_exception(monkeypatch, capsys):
    import e8voa.mckay

    def broken(i):
        raise ValueError(f"node {i} is broken")

    monkeypatch.setattr(e8voa.mckay, "direct_inner", broken)
    rc = main(["verify-mckay", "--node", "3"])
    report = json.loads(capsys.readouterr().out)
    assert rc == 1
    assert report["pass"] is False
    records = {r["claim"]: r for r in report["results"]}
    assert list(records) == [f"mckay/{name}/i=3" for name in (
        "inner", "root-counts", "u2", "tau-orders", "dihedral", "conway")]
    assert records["mckay/inner/i=3"]["pass"] is False
    assert records["mckay/inner/i=3"]["actual"] == "ValueError: node 3 is broken"
    assert records["mckay/root-counts/i=3"]["pass"] is True


def test_a_dropped_lowering_pair_fails_exactly_its_coset_claims(monkeypatch):
    # both coset claims read the one ModuleSpace of their coset, so a
    # lowering pair lost on A2's coset 1 fails that coset's two claims
    from e8voa import cli, griess
    rs, ctx = griess.sqrt2_root_context("A", 2)
    target = griess.ModuleSpace(ctx, list(rs.lattice.dual_coset_shifts())[1]).scaled_keys
    clean = cli.run_claims(cli._root_system_claims("A", 2))
    steps = griess._steps

    def dropping(ctx, xs, den, offset=0):
        out = steps(ctx, xs, den, offset)
        if list(xs) == target:
            out[0] = out[0][1:]
        return out

    monkeypatch.setattr(griess, "_steps", dropping)
    mutated = cli.run_claims(cli._root_system_claims("A", 2))
    failed = ["griess/x-eta/A2/coset-1", "griess/highest-weight/A2/coset-1"]
    assert [r["claim"] for r in mutated if not r["pass"]] == failed
    assert all(r["pass"] for r in clean)
    assert mutated == [{**r, "pass": r["claim"] not in failed} for r in clean]


def test_a_shifted_action_entry_fails_exactly_the_dual_tau_claims(
        monkeypatch, clean_verify_all, fresh_caches):
    # one diagonal entry of e-hat's action on one 16-key dual coset, moved
    # by 1 / den: tau_rows certifies no spectrum over (0, 1/2, 1/16) there,
    # so the two claim families that read the dual tau data fail with
    # BadSpectrum, and every other record stays as it was
    from e8voa import griess, mckay
    # by value: the tau data builds its own spaces
    target = next(sp.scaled_keys for sp in mckay.dual_coset_spaces() if len(sp) == 16)
    act = griess._act

    def shifted(sp, u):
        mats = act(sp, u)
        if sp.scaled_keys == target:
            mats[0][0][0] += 1
        return mats

    monkeypatch.setattr(griess, "_act", shifted)
    mutated = cli.run_claims(registry(RunConfig(command="verify-all")))
    assert_only_failed(clean_verify_all[1]["results"], mutated,
                       ["griess/tau/negates-dual-exponentials"]
                       + [f"mckay/tau-orders/i={i}" for i in range(9)], "BadSpectrum: ")


def test_a_theta_odd_block_off_its_spectrum_fails_exactly_the_theta_claims(
        monkeypatch, clean_verify_all, fresh_caches):
    # e-hat's 128-row theta-odd weight-2 block reported as not annihilated
    # by its polynomial: tau_e = theta fails, and with it the tau orders of
    # every node, which rest on it; the failure is built once and stored
    from e8voa import griess
    honest = griess.annihilates
    monkeypatch.setattr(griess, "annihilates", lambda mat, den, eigenvalues: (
        len(mat) != 128 and honest(mat, den, eigenvalues)))
    mutated = cli.run_claims(registry(RunConfig(command="verify-all")))
    assert_only_failed(clean_verify_all[1]["results"], mutated,
                       ["griess/tau/weight2-equals-theta"]
                       + [f"mckay/tau-orders/i={i}" for i in range(9)],
                       "BadSpectrum: theta-odd block")


def test_python_dash_m_runs_the_command_line(capsys):
    src = str(Path(__file__).resolve().parents[1] / "src")
    out = subprocess.run([sys.executable, "-m", "e8voa", "verify-codes"],
                         env={**os.environ, "PYTHONPATH": src}, capture_output=True)
    assert out.returncode == 0
    assert main(["verify-codes"]) == 0
    assert out.stdout == capsys.readouterr().out.encode()


def test_verify_all_report_bytes_are_pinned(clean_verify_all):
    # the printed verify-all report is the contract: every claim passes and
    # the bytes match the reference digest
    import hashlib
    status, report, text = clean_verify_all
    assert status == 0 and report["pass"] is True
    digest = hashlib.sha256((text + "\n").encode()).hexdigest()
    assert digest == "675160a42b629c202f92ec429acbad5c0e57238a4d85888cb50bad27628cad70"


def _swap_two_columns_of_the_dual(name):
    # the dual of the named code comes back with its first two columns
    # swapped: an equivalent code, so the Hamming blocks of the residue
    # code, which read the same dual, still match the Hamming code
    def mutate(honest):
        target = codes.named_code(name)

        def dual(c):
            d = honest(c)
            if c != target:
                return d
            return codes.BinaryCode(d.length, [(g[1], g[0]) + g[2:] for g in d.generators])
        return dual
    return mutate


# one targeted mutation per code claim family, as (function, mutate), with
# mutate(honest function) -> the replacement
CODE_MUTATIONS = {
    "codes/hamming8/self-dual": ("dual_code", _swap_two_columns_of_the_dual("Hamming8")),
    "codes/rm42/dual-is-rm41": ("dual_code", _swap_two_columns_of_the_dual("RM42")),
    # the lattice scaled by 1/q instead of 1/(q/2)
    "codes/construction-a/": ("construction_A",
                              lambda honest: lambda c: lattice_over(c._rows, c.q)),
    # the residue code of C-perp, without the dual that turns it into B
    "codes/residue/": ("residue_code_B", lambda honest: lambda c: codes.dual_code(honest(c))),
    # the Lee weight (2 counts 2) in place of the Euclidean weight (2 counts 4)
    "codes/z4/type-II": ("euclidean_weight",
                         lambda honest: lambda w: sum(min(x % 4, -x % 4) for x in w)),
    # one factor 2 of the torsion lost
    "codes/z4/cardinality": ("Z4Code.cardinality", lambda honest: lambda c: honest(c) // 2),
}


@pytest.mark.parametrize("family", CODE_MUTATIONS)
def test_a_targeted_mutation_fails_exactly_its_code_family(family, monkeypatch, fresh_caches):
    name, mutate = CODE_MUTATIONS[family]
    owner, _, attr = name.rpartition(".")
    target = getattr(codes, owner) if owner else codes
    clean = cli.run_claims(registry(RunConfig("verify-codes")))
    codes.clear_caches()
    monkeypatch.setattr(target, attr, mutate(getattr(target, attr)))
    mutated = cli.run_claims(registry(RunConfig("verify-codes")))
    failed = [r["claim"] for r in clean if r["claim"].startswith(family)]
    assert failed and all(r["pass"] for r in clean)
    assert [r["claim"] for r in mutated if not r["pass"]] == failed
    # every failing code claim states what it found
    assert all("actual" in r for r in mutated if not r["pass"])
    assert ([r for r in mutated if r["claim"] not in failed]
            == [r for r in clean if r["claim"] not in failed])


def _failed_exactly(clean, mutated, failed):
    """Every clean record passes; exactly the claims in failed fail, and
    every other record is the clean one."""
    assert all(r["pass"] for r in clean)
    assert [r["claim"] for r in mutated if not r["pass"]] == failed
    assert ([r for r in mutated if r["claim"] not in failed]
            == [r for r in clean if r["claim"] not in failed])


@functools.cache
def _clean_hamming_records():
    # the Hamming section of verify-griess; the root systems read no frame
    return cli.run_claims(cli._hamming_claims())


@pytest.mark.parametrize("method, pos, replace, failed, actual", [
    # a Hamming vector doubled is not idempotent: the claims that square it
    ("hamming_frame", 5, lambda vs: vs[5].scaled(2),
     ["griess/hamming/conformal-cc-half", "griess/frame/hamming"], "NotConformal: "),
    # a Hamming vector repeated: it pairs with its copy to 1/4
    ("hamming_frame", 6, lambda vs: vs[5],
     ["griess/hamming/inner-trichotomy", "griess/frame/hamming"], ""),
    # the sign of e^x + e^-x flipped in the first standard vector makes it
    # the second one
    ("standard_frame", 0, lambda vs: vs[1], ["griess/frame/standard"], ""),
], ids=["hamming-doubled", "hamming-duplicated", "standard-sign-flipped"])
def test_a_frame_vector_mutation_fails_exactly_the_claims_that_read_it(
        method, pos, replace, failed, actual, monkeypatch):
    from e8voa import griess
    honest = getattr(griess.HammingFamilies, method)

    def mutated_frame(self):
        frame = honest(self)
        keys = list(frame) if isinstance(frame, dict) else list(range(len(frame)))
        frame[keys[pos]] = replace([frame[k] for k in keys])
        return frame

    clean = _clean_hamming_records()
    monkeypatch.setattr(griess.HammingFamilies, method, mutated_frame)
    mutated = cli.run_claims(cli._hamming_claims())
    _failed_exactly(clean, mutated, failed)
    assert all(r.get("actual", "").startswith(actual)
               for r in mutated if not r["pass"])


def _node_records(k):
    return cli.run_claims(registry(RunConfig("verify-mckay", node_filter=[k])))


def test_a_broken_sigma_character_fails_exactly_the_claims_on_its_certificate(
        monkeypatch):
    # node 7's sigma exponent moved by +1 on one e^x and by -1 on e^-x: the
    # exponents still cancel on opp but no longer add along nbr, so sigma is
    # not certified as an automorphism; the tau orders, the dihedral check
    # and the Conway sigma^j rows rest on that certificate
    from e8voa import griess, mckay
    k = 7
    clean = _node_records(k)
    fams = griess.build_node_family(k)
    ctx, glue = fams.ctx, tuple(fams.node.glue_coords)
    n, exps = ctx.sigma_phases(glue)
    opp, nbr = ctx.tables.opp, ctx.tables.nbr
    x = next(x for x in range(ctx.expo_start, len(exps)) if nbr[x])
    broken = list(exps)
    broken[x], broken[opp[x]] = (exps[x] + 1) % n, (exps[opp[x]] - 1) % n
    monkeypatch.setitem(ctx._phases, glue, (n, tuple(broken)))
    monkeypatch.delitem(mckay.conjugation_verified.memo, ((k,),))
    mutated = _node_records(k)
    _failed_exactly(clean, mutated, [f"mckay/{name}/i={k}"
                                     for name in ("tau-orders", "dihedral", "conway")])


def test_a_planted_sigma_error_fails_the_claims_that_read_f_hat(monkeypatch):
    # sigma planted as the identity while node 7's family is rebuilt, so
    # f-hat = e-hat: <e, f> and U2, which read f-hat, fail; the Conway rows
    # no longer apply sigma, so they pass
    from e8voa import griess
    k = 7
    clean = _node_records(k)
    monkeypatch.setattr(griess, "apply_sigma", lambda ctx, glue, el, power=1: el)
    monkeypatch.delitem(griess.build_node_family.memo, ((k,),))
    mutated = _node_records(k)
    _failed_exactly(clean, mutated, [f"mckay/inner/i={k}", f"mckay/u2/i={k}"])
    assert all("actual" in r for r in mutated if not r["pass"])
