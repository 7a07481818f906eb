"""The traced child prints the same bytes as the untraced one, and its spans add up.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_trace.py
"""

import hashlib
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import tracer  # noqa: E402


def test_traced_run_matches_untraced_run():
    run.OUT.mkdir(exist_ok=True)
    ref = json.loads((run.HERE / "reference.json").read_text())["algebra"]
    trace_path = run.OUT / "trace-test.json"
    deadline = time.monotonic() + run.RUN_DEADLINE_S
    plain = run.run_child("algebra", 0, deadline)
    traced = run.run_child("algebra", 0, deadline, trace_out=trace_path)
    assert plain["rc"] == traced["rc"] == 0
    assert traced["stdout"] == plain["stdout"]
    assert hashlib.sha256(plain["stdout"]).hexdigest() == ref["sha256"]

    data = json.loads(trace_path.read_text())
    stats = tracer.aggregate(data)
    assert sum(s["self_s"] for s in stats.values()) <= traced["wall_s"]
    # ModuleSpace.__init__ (a class attribute) calls enumerate_short through
    # griess's own `from .lattice import enumerate_short` binding
    names = data["names"]
    parents = {names[data["name_of"][p]]
               for nid, p in zip(data["name_of"], data["parent"])
               if names[nid] == "lattice.enumerate_short" and p >= 0}
    assert "griess.ModuleSpace.init" in parents
