"""Compare two sets of benchmark results metric by metric.

Usage (from the repository root)::

    python3 perfbench/compare.py BASE_DIR NEW_DIR [--benchmark BENCHMARK.json]

Each directory holds result files written by ``run.py --out FILE``, any
number of runs per workload.  For every workload (one block each) and
every end-to-end metric the tool prints both medians with their run
counts, the ratio new/base with its base spelled out, and a verdict
against the bound ``BENCHMARK.json`` fixes for the metric:

* ``worse``: the new median is worse than the base median by more than
  the bound;
* ``unresolved``: the base runs spread (quartile distance over median)
  wider than the bound, so no verdict is possible, unless every new run
  beats every base run;
* ``improved``: the new side wins at least 9 of 10 run pairs and the
  medians differ by more than the base runs' quartile distance;
* ``unchanged``: none of the above.

Per-layer metrics from traced runs print as ratios only: they have no
bound.  The exit status is 1 when any metric reads ``worse``.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load_results(directory: str) -> dict:
    """workload -> trace flag -> metric -> list of values."""
    out: dict = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path, encoding="utf-8") as handle:
            result = json.load(handle)
        workload = result["provenance"]["workload"]
        per = out.setdefault(workload, {}).setdefault(result["trace"], {})
        for name, metric in result["metrics"].items():
            per.setdefault(name, []).append(float(metric["value"]))
    return out


def quartile_spread(values: list[float]) -> float:
    """(Q3 - Q1) / median, as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) < 2:
        return float("inf")
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / med if med else float("inf")


def verdict(base: list[float], new: list[float], bound: float,
            lower_is_better: bool) -> str:
    """One of improved / unchanged / worse / unresolved."""
    b_med, n_med = statistics.median(base), statistics.median(new)

    def better(x: float, y: float) -> bool:
        return x < y if lower_is_better else x > y

    worse_by = (n_med - b_med) / b_med if lower_is_better \
        else (b_med - n_med) / b_med
    if worse_by > bound:
        return "worse"
    if quartile_spread(base) > bound and not all(
            better(n, b) for n in new for b in base):
        return "unresolved"
    pairs = list(zip(base, new))
    wins = sum(better(n, b) for b, n in pairs)
    q_dist = quartile_spread(base) * b_med
    if pairs and wins >= 0.9 * len(pairs) and abs(n_med - b_med) > q_dist:
        return "improved"
    return "unchanged"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("base")
    parser.add_argument("new")
    parser.add_argument("--benchmark",
                        default=os.path.join(os.path.dirname(HERE),
                                             "BENCHMARK.json"))
    args = parser.parse_args(argv)
    with open(args.benchmark, encoding="utf-8") as handle:
        spec = json.load(handle)
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    base, new = load_results(args.base), load_results(args.new)
    worse = 0
    for workload in sorted(set(base) | set(new)):
        print(f"== {workload}")
        for trace in (0, 1):
            b_metrics = base.get(workload, {}).get(trace, {})
            n_metrics = new.get(workload, {}).get(trace, {})
            for name in sorted(set(b_metrics) & set(n_metrics)):
                b, n = b_metrics[name], n_metrics[name]
                b_med, n_med = statistics.median(b), statistics.median(n)
                ratio = (f"{n_med / b_med:7.3f}x of base {b_med:.4g}"
                         if b_med else f"   n/a (base {b_med:.4g})")
                spec_m = bounds.get(name) if trace == 0 else None
                if spec_m is None:
                    label = "no bound (per-layer)" if trace else "no bound"
                else:
                    label = verdict(b, n, spec_m["bound"],
                                    spec_m["better"] == "lower")
                    worse += label == "worse"
                print(f"  {name:32s} base {b_med:12.4f} (n={len(b)})  "
                      f"new {n_med:12.4f} (n={len(n)})  {ratio}  {label}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
