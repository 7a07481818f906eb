"""e8voa benchmark runner.

    python3 perfbench/run.py --workload leech --seed 0 --seconds 60 --trace 0

Run from the root of a source checkout (``src/e8voa`` must exist).  Each
timed unit is a cold child process (``perfbench/child.py``), one at a
time, so every run pays interpreter start, the package import and every
lazy cache, as a user of the CLI does.  With ``--trace 0`` children are
started until ``--seconds`` is used up (at least three), with a fixed
calibration loop timed before the first child and after each one; each
child's times are scaled to the reference speed by the calibrations on
either side of it.  The end-to-end metrics are the means (wall and CPU
time) or medians (set-up time, peak RSS) over the children.  With
``--trace 1`` one untraced and one traced child run, and the per-layer
metrics come from the traced child's spans.  Each child's report is
gated: exit code, JSON, ``"pass": true``, claim count and sha256 against
``reference.json``.  Metric names, units
and directions are read from ``BENCHMARK.json``.  The last line of stdout
is the result object; a record of every run, with the machine's load
average around each child, is appended to ``perfbench/out/runs.jsonl``.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from fractions import Fraction
from pathlib import Path

import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
MIN_CHILDREN = 3
# a run must end within 180 s; children still running at this point are killed
RUN_DEADLINE_S = 160.0
# predicted zeros: a later change that reroutes work across layers shows here
PREDICTED_ZERO = {
    "leech": ["scalars.Cyclotomic.init.calls", "scalars.Cyclotomic.mul.calls",
              "scalars.Cyclotomic.add.calls", "scalars.Cyclotomic.inverse.calls",
              "griess.product.calls", "griess.inner.calls"],
}
# The host's speed drifts by 30% and more within minutes, in wall and CPU
# time alike (it shares its cores), so raw times of the same code spread
# past the bounds from run to run.  A fixed loop of Fraction and dict work,
# like the program's own, is timed in this process before the first child
# and after each one; a child's times are divided by the mean of the two
# calibrations around it and multiplied by REF_CALIBRATION_S, the loop's
# time on the reference host (2-vCPU Xeon VM, CPython 3.11.7).  The
# reported times are thus seconds at the reference speed.
REF_CALIBRATION_S = 2.0
SCALED = ("wall_s", "cpu_s", "setup_s")
# A run has only five to eight children, and their scaled times scatter
# evenly, without outliers.  Over two sets of ten 60-s runs per workload,
# the widest spread of the run values was 0.08 of their median with the
# mean and 0.11 with the median.  Set-up time keeps the median: a child's
# import can stall on I/O.
MEAN_OF = {"wall_s": statistics.mean, "cpu_s": statistics.mean}
_GRAM = [[Fraction(2 + 2 * (i == j), 1 + (i + j) % 3) for j in range(6)]
         for i in range(6)]


def _rational_sums():
    """A running Fraction sum with a tuple-keyed table (the algebra's pattern)."""
    s = Fraction(0)
    table = {}
    for i in range(1, 800):
        s += Fraction(i % 7 + 1, i * i + 1)
        table[(i % 97, i % 89)] = s.numerator % 1000003
    return len(table)


def _short_vector_norms():
    """Norms of small integer vectors under a rational Gram matrix (the lattices')."""
    counts = {}
    r = range(-2, 3)
    for a in r:
        for b in r:
            for c in r:
                v = (a, b, c, a - b, b - c, c + a)
                norm = sum(v[i] * _GRAM[i][j] * v[j]
                           for i in range(6) for j in range(6) if v[i] and v[j])
                counts[norm] = counts.get(norm, 0) + 1
    return len(counts)


def calibrate():
    """Wall and CPU seconds of the fixed calibration loop."""
    t0, c0 = time.monotonic(), time.process_time()
    for _ in range(150):
        _rational_sums()
    for _ in range(40):
        _short_vector_norms()
    return time.monotonic() - t0, time.process_time() - c0


def scale_to_reference(child, before, after):
    """Replace the child's times by times at the reference speed."""
    wall_cal = (before[0] + after[0]) / 2
    cpu_cal = (before[1] + after[1]) / 2
    child["raw"] = {name: child[name] for name in SCALED}
    child["calibration"] = [before, after]
    child["wall_s"] *= REF_CALIBRATION_S / wall_cal
    child["setup_s"] *= REF_CALIBRATION_S / wall_cal
    child["cpu_s"] *= REF_CALIBRATION_S / cpu_cal


def _loadavg():
    with open("/proc/loadavg") as fh:
        return [float(x) for x in fh.read().split()[:3]]


def _nproc():
    return len(os.sched_getaffinity(0))


def _commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        ref_file = ROOT / ".git" / ref[5:]
        return ref_file.read_text().strip() if ref_file.is_file() else None
    return ref


def _source_digest():
    h = hashlib.sha256()
    for path in sorted((SRC / "e8voa").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def run_child(workload, seed, deadline, trace_out=None):
    """One cold child; returns its timings, rusage, load and raw output."""
    stdout_path = OUT / "child.stdout"
    stderr_path = OUT / "child.stderr"
    cmd = [sys.executable, str(HERE / "child.py"),
           "--workload", workload, "--seed", str(seed)]
    if trace_out is not None:
        cmd += ["--trace-out", str(trace_out)]
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    load_before = _loadavg()
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        t0 = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env, cwd=ROOT)
        killer = threading.Timer(max(1.0, deadline - t0), proc.kill)
        killer.start()
        try:
            _, status, ru = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        t1 = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    marks = {}
    for line in stderr_path.read_text(errors="replace").splitlines():
        if line.startswith("perfbench-"):
            key, _, value = line.partition(" ")
            marks[key] = float(value)
    setup_mark = marks.get("perfbench-setup")
    return {
        "rc": proc.returncode,
        "wall_s": t1 - t0,
        "cpu_s": ru.ru_utime + ru.ru_stime,
        "setup_s": (setup_mark - t0) if setup_mark is not None else t1 - t0,
        "peak_rss_mb": marks.get("perfbench-peak-rss-kb", ru.ru_maxrss) / 1024.0,
        "load_before": load_before,
        "load_after": _loadavg(),
        "stdout": stdout_path.read_bytes(),
    }


def gate(child, ref):
    """Number of the workload's reference claims this child failed."""
    if child["rc"] != 0:
        return ref["claims"], f"exit code {child['rc']}"
    try:
        report = json.loads(child["stdout"])
    except ValueError:
        return ref["claims"], "stdout is not JSON"
    if report.get("pass") is not True:
        failed = sum(1 for r in report.get("results", []) if not r.get("pass"))
        return max(failed, 1), "report does not pass"
    if len(report.get("results", [])) != ref["claims"]:
        return ref["claims"], "claim count differs from the reference"
    if hashlib.sha256(child["stdout"]).hexdigest() != ref["sha256"]:
        return ref["claims"], "stdout differs from the reference bytes"
    return 0, None


def layer_metrics(names, data, overhead_s):
    """Per-layer values by metric name: <span>.<stat>, cache.*, trace.*."""
    stats = tracer.aggregate(data)
    values = {}
    for name in names:
        if name == "trace.overhead_s":
            values[name] = overhead_s
        elif name == "trace.spans":
            values[name] = len(data["start"])
        elif name.startswith("cache."):
            values[name] = data["caches"][name[len("cache."):]]
        elif name in data["counts"]:
            values[name] = data["counts"][name]
        else:
            span, stat = name.rsplit(".", 1)
            values[name] = stats.get(span, {}).get(stat, 0)
    return values


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "e8voa" / "cli.py").is_file():
        print(f"perfbench: no e8voa sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    references = json.loads((HERE / "reference.json").read_text())
    if args.workload not in references:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    ref = references[args.workload]
    OUT.mkdir(exist_ok=True)
    start = time.monotonic()
    deadline = start + RUN_DEADLINE_S
    compileall.compile_dir(str(SRC / "e8voa"), quiet=1)

    nproc = _nproc()
    children = []
    attempted = failed = 0
    problems = []

    def child(trace_out=None):
        nonlocal attempted, failed
        c = run_child(args.workload, args.seed, deadline, trace_out)
        bad, why = gate(c, ref)
        attempted += ref["claims"]
        failed += bad
        if why:
            problems.append(why)
        c["loaded"] = max(c["load_before"][0], c["load_after"][0]) >= nproc
        children.append(c)
        return c

    if args.trace == 0:
        before = calibrate()
        unit_s = []
        while True:
            t0 = time.monotonic()
            c = child()
            after = calibrate()
            scale_to_reference(c, before, after)
            before = after
            unit_s.append(time.monotonic() - t0)
            elapsed = time.monotonic() - start
            typical = statistics.median(unit_s)
            if elapsed + typical > min(args.seconds, RUN_DEADLINE_S) and (
                    len(children) >= MIN_CHILDREN
                    or elapsed + typical > RUN_DEADLINE_S):
                break
        metrics = {}
        for m in spec["end_to_end"]:
            average = MEAN_OF.get(m["name"], statistics.median)
            metrics[m["name"]] = {
                "value": average([c[m["name"]] for c in children]),
                "unit": m["unit"]}
    else:
        trace_path = OUT / f"trace-{args.workload}-{args.seed}.json"
        plain = child()
        traced = child(trace_out=trace_path)
        if traced["stdout"] != plain["stdout"]:
            failed += ref["claims"]
            problems.append("traced stdout differs from the untraced stdout")
        data = json.loads(trace_path.read_text()) if traced["rc"] == 0 else None
        names = [m["name"] for m in spec["per_layer"]]
        if data is None:
            values = dict.fromkeys(names, 0)
        else:
            values = layer_metrics(names, data,
                                   traced["wall_s"] - plain["wall_s"])
        for name in PREDICTED_ZERO.get(args.workload, ()):
            if values.get(name, 0) != 0:
                problems.append(f"predicted zero {name} = {values[name]}")
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in spec["per_layer"]}

    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "nproc": nproc,
        "python": platform.python_version(), "commit": _commit(),
        "source_sha256": _source_digest(),
        "children": [{k: v for k, v in c.items() if k != "stdout"}
                     for c in children],
        "loaded": any(c["loaded"] for c in children),
        "problems": problems,
        "metrics": metrics,
    }
    with open(OUT / "runs.jsonl", "a") as fh:
        fh.write(json.dumps(record) + "\n")
    walls = [round(c.get("raw", c)["wall_s"], 3) for c in children]
    ref_walls = [round(c["wall_s"], 3) for c in children if "raw" in c]
    print(f"perfbench: {args.workload} seed={args.seed} trace={args.trace} "
          f"children={len(children)} raw wall_s={walls} "
          f"reference wall_s={ref_walls} loaded={record['loaded']} "
          f"problems={problems}", file=sys.stderr)
    print(json.dumps({"correct": failed == 0,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
