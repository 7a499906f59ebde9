"""Tiny-scale smoke test of every workload, traced and untraced.

Run from the repository root::

    python3 -m pytest perfbench/test_smoke.py -q

Each workload runs at ``--scale 0.02`` for one second per mode: every
correctness check must pass and the result line must carry exactly the
metrics ``BENCHMARK.json`` names (p90s may be absent at this scale,
where no class reaches the 100 samples a p90 needs).  The benchmark
must also refuse to run, without printing a result, in a directory
holding only ``BENCHMARK.json`` and the benchmark's own files.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
WORKLOADS = ("calendar_eval", "valid_time_query", "dbcron_month")


def spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def run(workload: str, trace: int, out: str | None = None,
        cwd: str = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
           "--workload", workload, "--seed", "7", "--seconds", "1",
           "--trace", str(trace), "--scale", "0.02"]
    if out:
        cmd += ["--out", out]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=300, check=False)


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_smoke(workload, trace, tmp_path):
    proc = run(workload, trace, out=str(tmp_path / "result.json"))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["failed"] == 0, proc.stdout
    assert result["attempted"] >= 1
    key = "per_layer" if trace else "end_to_end"
    names = {m["name"]: m["unit"] for m in spec()[key]}
    got = result["metrics"]
    missing = set(names) - set(got)
    assert missing <= {n for n in names if n.endswith("_p90_ms")}, missing
    assert set(got) <= set(names)
    for name, metric in got.items():
        assert metric["unit"] == names[name]
    if not missing:
        assert result["correct"]
    report = json.loads((tmp_path / "result.json").read_text())
    provenance = report["provenance"]
    for field in ("commit", "python", "cpu", "nproc", "seed", "repro_env"):
        assert field in provenance


def test_refuses_without_program_source(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run("calendar_eval", 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_compare_reads_results(tmp_path):
    base, new = tmp_path / "base", tmp_path / "new"
    base.mkdir()
    new.mkdir()
    assert run("calendar_eval", 0, out=str(base / "a.json")).returncode == 0
    assert run("calendar_eval", 0, out=str(new / "a.json")).returncode == 0
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "compare.py"), str(base),
         str(new)], capture_output=True, text=True, timeout=60, check=False)
    assert proc.returncode in (0, 1), proc.stderr
    assert "== calendar_eval" in proc.stdout
    assert "x of base" in proc.stdout


def test_streams_end_cleanly_when_exhausted():
    """A stream that runs out ends the timed phase; it does not crash."""
    sys.path[:0] = [HERE, os.path.join(ROOT, "src")]
    try:
        import common
        import wl_calendar
        import wl_dbcron
    finally:
        del sys.path[:2]
    loop = common.run_loop(iter([common.Op("warm", "x")] * 3),
                           lambda op: None, lambda op, res: True,
                           common.SpeedProbe(), seconds=60)
    assert loop.exhausted and loop.attempted == 3
    workload = wl_calendar.Workload(7, scale=0.02)
    for name, (params, build) in workload.cold_pools.items():
        workload.cold_pools[name] = (params[:2], build)
    ops = list(workload.ops())
    cold = [op for op in ops if op.cls == "cold"]
    assert 0 < len(cold) <= 2 * len(workload.cold_pools)
    assert len({(op.text, op.args.get("window")) for op in cold}) == len(cold)
    workload = wl_dbcron.Workload(7, scale=0.02)
    workload.cold_exprs = workload.cold_exprs[:3]
    assert [op.cls for op in workload.ops()] == ["warm", "cold", "write"] * 3
