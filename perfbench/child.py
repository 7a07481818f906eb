"""One cold benchmark process: import the CLI, run one workload, print its report.

    PYTHONPATH=src python3 perfbench/child.py --workload leech --seed 0 \\
        [--trace-out FILE]

Set-up ends once ``e8voa.cli`` (and with it the whole package) is imported
and the arguments are parsed; the process then writes
``perfbench-setup <time.monotonic()>`` to stderr, so the parent can time
set-up against its own clock.  The report goes to stdout in the CLI's JSON
layout.  Last, the process writes ``perfbench-peak-rss-kb <VmHWM>``: the
parent cannot use ``ru_maxrss``, which on Linux also counts the parent's
RSS at fork time.  With ``--trace-out`` every e8voa call the workload makes is
recorded as a span and the spans are written to FILE at the end; stdout
is unchanged.
"""

import argparse
import json
import sys
import time

import e8voa.cli  # noqa: F401  (the import is the set-up being timed)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace-out")
    args = parser.parse_args()
    print(f"perfbench-setup {time.monotonic()!r}", file=sys.stderr, flush=True)

    import slices
    recorder = None
    if args.trace_out:
        import tracer
        recorder = tracer.Recorder()
        recorder.install(extra_modules=[slices])
        report = recorder.span(tracer.SECTION, slices.run_slice,
                               args=(args.workload, args.seed))
    else:
        report = slices.run_slice(args.workload, args.seed)
    print(json.dumps(report, indent=1, sort_keys=True))
    if recorder is not None:
        recorder.dump(args.trace_out)
    with open("/proc/self/status") as fh:
        peak = next(line.split()[1] for line in fh if line.startswith("VmHWM:"))
    print(f"perfbench-peak-rss-kb {peak}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
