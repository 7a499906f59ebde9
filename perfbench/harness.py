"""Run orchestration: untraced runs, traced runs and metric assembly.

A workload object (``wl_*.py``) supplies inputs, set-up, the op stream,
per-op execution and checking, a traced twin of each op, post-phase
oracle checks and a checkpoint target.  This module turns that into the
two kinds of run:

* untraced (``--trace 0``): repeated set-ups, warm-up, the timed closed
  loop, the checkpoint, oracle checks -> every end-to-end metric;
* traced (``--trace 1``): an untraced pass in a fresh child process
  fixes the op count and wall time, then the same ops run here through
  the workloads' traced twins -> every per-layer metric.
"""

from __future__ import annotations

import itertools
import json
import os
import subprocess
import sys
from contextlib import nullcontext
from statistics import median
from time import perf_counter

from common import (
    MIN_PROBES,
    SpanRecorder,
    SpeedProbe,
    frozen_heap,
    program_counters,
    latency_summary,
    peak_rss_mb,
    run_loop,
    timed_setups,
)

with open(os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "BENCHMARK.json"), encoding="utf-8") as _f:
    _SPEC = json.load(_f)
#: (name, unit) of the end-to-end and per-layer metrics, in the order
#: ``BENCHMARK.json`` lists them.
END_TO_END = tuple((m["name"], m["unit"]) for m in _SPEC["end_to_end"])
PER_LAYER = tuple((m["name"], m["unit"]) for m in _SPEC["per_layer"])


# -- checkpoint ----------------------------------------------------------------


def user_rows(db) -> dict:
    """What the user stored: catalog records and every user table's rows.

    Rows are projected on the schema columns and sorted, so the dict
    compares equal exactly when a restore lost or changed nothing.
    """
    out = {"catalog": sorted(
        (record.name, record.derivation_script,
         None if record.values is None else record.values.to_pairs())
        for record in db.calendars.table)}
    manager = db.rule_manager
    out["action_rules"] = [] if manager is None else sorted(
        (name, rule.expression_text, manager.tables.next_fire_of(name))
        for name, rule in manager.temporal_rules.items() if rule.actions)
    for name in db.relation_names():
        if name.startswith("pg_") or name in ("rule_info", "rule_time"):
            continue
        relation = db.relation(name)
        columns = relation.schema.column_names()
        out[name] = sorted(
            (tuple(row.get(c) for c in columns) for row in relation.scan()),
            key=repr)
    return out


def checkpoint(db, workdir: str, probe: SpeedProbe,
               rec: SpanRecorder | None = None) -> dict:
    """``save_database`` + ``load_database``; rows must survive unchanged.

    Save and load are timed separately, with machine-speed samples before,
    between and after them; ``*_s`` are raw, ``*_corr_s`` corrected.
    """
    from repro.db.persist import load_database, save_database

    def span(name):
        return rec.span(name) if rec is not None else nullcontext()

    os.makedirs(workdir, exist_ok=True)
    path = os.path.join(workdir, f"checkpoint-{os.getpid()}.json")
    try:
        probe.sample(MIN_PROBES)
        with rec.op("op.checkpoint") if rec is not None else nullcontext():
            s0 = perf_counter()
            with span("persist.save"):
                save_database(db, path)
            s1 = perf_counter()
        probe.sample(MIN_PROBES)
        with rec.op("op.checkpoint") if rec is not None else nullcontext():
            l0 = perf_counter()
            with span("persist.load"):
                restored = load_database(path)
            l1 = perf_counter()
        probe.sample(MIN_PROBES)
        file_bytes = os.path.getsize(path)
    finally:
        if os.path.exists(path):
            os.remove(path)
    before = user_rows(db)
    ok = before == user_rows(restored)
    user_bytes = len(json.dumps(before, default=str,
                                separators=(",", ":")).encode())
    return {"save_s": s1 - s0, "load_s": l1 - l0,
            "save_corr_s": probe.correct(s0, s1 - s0),
            "load_corr_s": probe.correct(l0, l1 - l0),
            "ok": ok, "file_bytes": file_bytes, "user_bytes": user_bytes}


# -- untraced run ----------------------------------------------------------------


def _latency_metrics(samples_by_class: dict) -> dict:
    out = {}
    for cls, samples in samples_by_class.items():
        if samples:
            for q, value in latency_summary(samples).items():
                if q != "n":
                    out[f"{cls}_{q}"] = (value, "ms")
    return out


def run_untraced(workload, seconds: float, workdir: str) -> dict:
    """Every end-to-end metric plus attempted/failed/correct.

    Set-up runs ``workload.setup_repeats`` times before the timed loop
    and as many times again after it (the loop's state released first),
    so ``setup_s`` is a median over two moments of the run rather than
    one burst.  The gated metrics are speed-corrected (``SpeedProbe``);
    the raw ones are returned beside them.
    """
    probe = SpeedProbe()
    repeats = workload.setup_repeats
    ckpts: list[dict] = []
    # A workload checkpointed before its loop saves the fresh set-up
    # state, so each set-up (before and after the loop) is checkpointed.
    after = (lambda s: ckpts.append(checkpoint(s.db, workdir, probe))) \
        if workload.checkpoint_before_loop else None
    session, setup_raw, setup_corr = timed_setups(
        workload.build, repeats, workload.reset, probe, after)
    workload.warmup(session)
    with frozen_heap():
        loop = run_loop(workload.ops(),
                        lambda op: workload.execute(session, op),
                        lambda op, res: workload.check(session, op, res),
                        probe, seconds=seconds)
        # Peak memory over set-up, warm-up and the loop; the checkpoints
        # and set-ups that follow only repeat work for the timings.
        rss = peak_rss_mb()
        if not ckpts:
            ckpts = [checkpoint(session.db, workdir, probe)
                     for _ in range(workload.checkpoint_repeats)]
    checks = workload.final_checks(session)
    extra = workload.extra_metrics(session, loop)
    session = None
    _, more_raw, more_corr = timed_setups(workload.build, repeats,
                                          workload.reset, probe, after)
    setup_raw += more_raw
    setup_corr += more_corr
    checks.append(("checkpoint restores identical rows",
                   all(c["ok"] for c in ckpts)))
    failed_checks = [name for name, ok in checks if not ok]
    attempted = loop.attempted + len(checks)
    failed = loop.failed + len(failed_checks)

    busy = sum(sum(samples) for samples in loop.corrected.values())
    metrics = {
        "setup_s": (median(setup_corr), "s"),
        "ops_per_s": (loop.attempted / busy, "1/s"),
        "checkpoint_s": (median(c["save_corr_s"] + c["load_corr_s"]
                                for c in ckpts), "s"),
        "peak_rss_mb": (rss, "MB"),
        **_latency_metrics(loop.corrected),
    }
    raw = {
        "setup_s": median(setup_raw),
        "ops_per_s": loop.attempted / loop.elapsed,
        "checkpoint_s": median(c["save_s"] + c["load_s"] for c in ckpts),
        **{name: value for name, (value, _) in
           _latency_metrics(loop.latencies).items()},
    }
    missing = [name for name, _ in END_TO_END if name not in metrics]
    return {
        "attempted": attempted, "failed": failed,
        "correct": failed == 0 and not missing,
        "metrics": metrics,
        "raw_metrics": raw,
        "missing": missing,
        "samples": {cls: len(s) for cls, s in loop.latencies.items() if s},
        "setup_times_s": setup_raw,
        "speed_samples": len(probe.took),
        "reference_median_s": median(probe.took),
        "failures": loop.failures + failed_checks,
        "ops": loop.attempted, "elapsed_s": loop.elapsed,
        "stream_exhausted": loop.exhausted,
        "extra": extra,
    }


def untraced_pass(workload, seconds: float) -> dict:
    """One set-up and the timed loop only: the traced run's baseline.

    Also returns the deltas of the program's own counters over the loop,
    read here rather than in the traced pass because the traced twins
    split first-touch ops into separate layer calls, which skip the
    program's own memo and cache bookkeeping for them.
    """
    probe = SpeedProbe()
    session, _, _ = timed_setups(workload.build, 1, workload.reset, probe)
    workload.warmup(session)
    before = workload.counters(session)
    with frozen_heap():
        loop = run_loop(workload.ops(),
                        lambda op: workload.execute(session, op),
                        lambda op, res: True, probe, seconds=seconds)
    after = workload.counters(session)
    return {"ops": loop.attempted,
            "busy_s": sum(sum(s) for s in loop.corrected.values()),
            "counters": {key: value - before.get(key, 0)
                         for key, value in after.items()},
            # Since process start: periodic compiles happen in set-up too.
            "totals": after}


# -- traced run -------------------------------------------------------------------


def baseline_in_child(run_py: str, workload: str, seed: int,
                      seconds: float, scale: float) -> dict:
    """The untraced pass in a fresh process (empty caches, like ours)."""
    cmd = [sys.executable, run_py, "--workload", workload, "--seed",
           str(seed), "--seconds", repr(seconds), "--trace", "0",
           "--scale", repr(scale), "--baseline-pass"]
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=170, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"baseline pass failed:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_traced(workload, baseline: dict, workdir: str,
               trace_path: str) -> dict:
    """Same ops as the untraced baseline, through the traced twins.

    Span times are speed-corrected per operation like the untraced
    loop's latencies, so ``trace.overhead_ratio`` compares like with like.
    """
    rec = SpanRecorder()
    probe = SpeedProbe()
    probe.sample(MIN_PROBES)
    session = workload.build(rec, probe=probe)
    stats = {"generated": 0, "served": 0, "rewrites": 0, "cold_ops": 0,
             "ops": 0}
    if workload.checkpoint_before_loop:
        ckpt = checkpoint(session.db, workdir, probe, rec)
    workload.warmup(session)
    attempted = failed = 0
    failures: list[str] = []
    with frozen_heap():
        stream = list(itertools.islice(workload.ops(), baseline["ops"]))
        for op in stream:
            attempted += 1
            stats["ops"] += 1
            stats["cold_ops"] += op.cls == "cold"
            probe.sample()
            try:
                with rec.op(f"op.{op.cls}"):
                    result = workload.traced(session, op, rec, stats)
                probe.sample()
                ok = workload.traced_check(session, op, result)
            except Exception as exc:  # noqa: BLE001 - op boundary, reported
                ok = False
                if len(failures) < 5:
                    failures.append(f"{op.kind}: {type(exc).__name__}: {exc}")
            failed += not ok
        if not workload.checkpoint_before_loop:
            ckpt = checkpoint(session.db, workdir, probe, rec)
    probe.sample(MIN_PROBES)
    failed += not ckpt["ok"]
    attempted += 1
    rec.scale = {span[4]: probe.factor(span[1], span[2])
                 for span in rec.spans if span[3] is None}
    rec.dump(trace_path)

    traced_s = rec.root_time("op.") - rec.root_time("op.checkpoint")
    metrics = counter_metrics(baseline["counters"], baseline["totals"],
                              baseline["ops"])
    metrics.update(workload.layer_metrics(session, stats, rec, baseline))
    metrics["persist.save_s"] = (ckpt["save_corr_s"], "s")
    metrics["persist.load_s"] = (ckpt["load_corr_s"], "s")
    metrics["persist.bytes_per_user_byte"] = (
        ckpt["file_bytes"] / max(1, ckpt["user_bytes"]), "ratio")
    metrics["trace.coverage"] = (rec.coverage("op."), "ratio")
    metrics["trace.overhead_ratio"] = (traced_s / baseline["busy_s"],
                                       "ratio")
    times = rec.self_times()
    for name, unit in PER_LAYER:
        if name not in metrics:
            metrics[name] = (rec.layer_ms(name[:-3], times) if unit == "ms"
                             else 0.0, unit)
    return {"attempted": attempted, "failed": failed,
            "correct": failed == 0, "metrics": metrics,
            "failures": failures, "trace_file": trace_path,
            "ops": baseline["ops"]}


def delta_ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def counter_metrics(delta: dict, totals: dict, ops: int) -> dict:
    """Layer metrics from the program's counters in the untraced pass:
    ``delta`` over its loop, ``totals`` since its process started."""
    lookups = delta["mc.hits"] + delta["mc.misses"] + delta["mc.extensions"]
    memo = delta["mc.memo_hits"] + delta["mc.memo_misses"]
    compiled = totals["periodic.compiled"]
    fallback = totals["periodic.fallback"]
    return {
        "matcache.hit_ratio": (delta_ratio(delta["mc.hits"], lookups),
                               "ratio"),
        "matcache.memo_hit_ratio": (delta_ratio(delta["mc.memo_hits"], memo),
                                    "ratio"),
        "matcache.evictions": (delta["mc.evictions"], "count"),
        "periodic.compiled_ratio": (
            delta_ratio(compiled, compiled + fallback), "ratio"),
        "columnar.materialisations": (
            delta["columnar.materialisations"] / max(1, ops), "count/op"),
    }


def format_metrics(metrics: dict) -> dict:
    return {name: {"value": float(value), "unit": unit}
            for name, (value, unit) in metrics.items()}


