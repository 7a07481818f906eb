import json

import pytest

from e8voa.cli import RunConfig, main, run


def test_run_config_validation():
    with pytest.raises(ValueError):
        RunConfig(command="verify-all", node_filter=[9])
    with pytest.raises(ValueError):
        RunConfig(command="verify-all", time_budget_seconds=0)


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


def test_field_order_override(capsys):
    rc = main(["verify-mckay", "--node", "4", "--field-order", "120"])
    out = capsys.readouterr().out
    assert rc == 0
    report = json.loads(out)
    assert any(r["claim"] == "mckay/field-order-override" and r["pass"]
               for r in report["results"])


@pytest.mark.parametrize("command, claim", [
    ("verify-codes", "codes/z4/type-II"),
    ("verify-leech", "leech/error"),
], ids=["verify-codes", "verify-leech"])
def test_corrupted_data_fails(command, claim, tmp_path, monkeypatch, capsys):
    import e8voa.codes as codes
    src = codes.data_dir()
    import shutil
    for name in ("hamming8.txt", "rm41.txt"):
        shutil.copy(f"{src}/{name}", tmp_path / name)
    rows = (tmp_path / "z4_leech.txt")
    good = open(f"{src}/z4_leech.txt").read()
    bad = good.replace("3012", "3013", 1)
    rows.write_text(bad)
    monkeypatch.setenv("MCKAY_DATA_DIR", str(tmp_path))
    try:
        rc = main([command])
        out = capsys.readouterr().out
        report = json.loads(out)
        assert rc == 1
        assert report["pass"] is False
        failing = [r["claim"] for r in report["results"] if not r["pass"]]
        assert claim in failing
    finally:
        monkeypatch.delenv("MCKAY_DATA_DIR")


def test_run_function_returns_report():
    status, report, text = run(RunConfig(command="verify-codes"))
    assert status == 0
    assert report["version"]
    assert json.loads(text)["pass"] is True


def test_verify_codes_runs_the_same_under_python_O():
    import os
    import subprocess
    import sys
    from pathlib import Path
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    runs = [subprocess.run([sys.executable, *flags, "-m", "e8voa.cli", "verify-codes"],
                           capture_output=True, env=env)
            for flags in ([], ["-O"])]
    assert runs[0].returncode == 0
    assert runs[1].returncode == runs[0].returncode
    assert runs[1].stdout == runs[0].stdout


def test_verify_mckay_records_any_exception(monkeypatch, capsys):
    import e8voa.mckay

    def broken(i):
        raise ValueError(f"node {i} is broken")

    monkeypatch.setattr(e8voa.mckay, "node_report", broken)
    rc = main(["verify-mckay", "--node", "3"])
    report = json.loads(capsys.readouterr().out)
    assert rc == 1
    assert report["pass"] is False
    rec = next(r for r in report["results"] if r["claim"] == "mckay/node/i=3")
    assert rec["pass"] is False
    assert rec["actual"] == "ValueError: node 3 is broken"
