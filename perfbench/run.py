"""End-to-end benchmark of the calendar/rules engine: one command.

Usage (from the repository root)::

    python3 perfbench/run.py --workload calendar_eval --seed 1 \\
        --seconds 10 --trace 0

``--trace 0`` measures every end-to-end metric with tracing off;
``--trace 1`` is the traced run that splits the same operations into
per-layer metrics.  The last line of standard output is the result
object (``correct``, ``attempted``, ``failed``, ``metrics``); the lines
before it print each metric by name with its unit, the sample counts,
any failed check, and the provenance block.  ``--out FILE`` also writes
the full result (with provenance) as JSON for ``perfbench/compare.py``.

The program is imported from ``src/`` of the checkout the benchmark sits
in, so it runs against exactly the source next to it; without that
source it exits with status 2.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: Checkpoint files and trace dumps; listed in the root .gitignore.
WORKDIR = os.path.join(ROOT, ".perfbench_out")

WORKLOADS = {
    "calendar_eval": "wl_calendar",
    "valid_time_query": "wl_query",
    "dbcron_month": "wl_dbcron",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="input size factor (the smoke test uses a "
                             "tiny scale); results at other scales are "
                             "not comparable")
    parser.add_argument("--out", help="also write the full result here")
    parser.add_argument("--baseline-pass", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def load_workload(name: str, seed: int, scale: float):
    module = __import__(WORKLOADS[name])
    return module.Workload(seed, scale)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: program source not found under {SRC}",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import harness
    from common import provenance

    workload = load_workload(args.workload, args.seed, args.scale)
    if args.baseline_pass:
        print(json.dumps(harness.untraced_pass(workload, args.seconds)))
        return 0
    prov = provenance(ROOT, SRC, args.seed, args.workload)
    if args.trace:
        baseline = harness.baseline_in_child(
            os.path.abspath(__file__), args.workload, args.seed,
            args.seconds, args.scale)
        trace_path = os.path.join(
            WORKDIR, f"trace-{args.workload}-{args.seed}.json")
        result = harness.run_traced(workload, baseline, WORKDIR, trace_path)
        names = harness.PER_LAYER
    else:
        result = harness.run_untraced(workload, args.seconds, WORKDIR)
        names = harness.END_TO_END
    metrics = harness.format_metrics(result["metrics"])
    report = {"provenance": prov, "workload": workload.describe(),
              "scale": args.scale, "seconds": args.seconds,
              "trace": args.trace,
              **{k: v for k, v in result.items() if k != "metrics"}}
    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"ops={result.get('ops')}")
    for name, unit in names:
        if name in metrics:
            print(f"{name:34s} {metrics[name]['value']:14.4f} {unit}")
        else:
            print(f"{name:34s} {'missing':>14s} {unit}")
    for name, value in result.get("raw_metrics", {}).items():
        print(f"{'raw ' + name:34s} {value:14.4f} (not speed-corrected, "
              f"not gated)")
    for name, value in result.get("extra", {}).items():
        print(f"{name:34s} {value:14.4f} (not gated)")
    print(f"{'failed_ops_ratio':34s} "
          f"{result['failed'] / max(1, result['attempted']):14.4f} ratio")
    for line in result.get("failures", []):
        print(f"FAILED: {line}")
    if result.get("stream_exhausted"):
        print("NOTE: the op stream ran out before --seconds elapsed; the "
              "timed phase ended with it")
    print("# " + json.dumps(report, default=str, sort_keys=True))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump({**report, "metrics": metrics}, handle, indent=1,
                      default=str, sort_keys=True)
    print(json.dumps({"correct": bool(result["correct"]),
                      "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
