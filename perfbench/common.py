"""Shared machinery of the end-to-end benchmark.

Holds what every workload needs and nothing workload-specific: the
operation record, the closed-loop timed phase, percentile summaries,
the in-memory span recorder of the traced run, and the provenance block.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from bisect import bisect_left, bisect_right
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter

#: Operation classes of the timed phase.  ``cold`` is the first touch of
#: a text, ``warm`` a repeat over compiled state, ``write`` a mutation.
CLASSES = ("cold", "warm", "write")

#: A latency percentile is only reported when at least this many samples
#: lie above it (p90 therefore needs >= 100 samples of its class).
MIN_TAIL_SAMPLES = 10
MIN_SAMPLES = 100
#: A run whose classes are still short of ``MIN_SAMPLES`` after the
#: requested seconds keeps going, up to this multiple of them.
MAX_STRETCH = 2.0


@dataclass
class Op:
    """One operation of a workload's seeded stream."""

    cls: str                 #: "cold" | "warm" | "write"
    kind: str                #: template name (dispatch + checking)
    text: str = ""           #: CEL / Postquel text, rule expression, …
    args: dict = field(default_factory=dict)


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile (``q`` in 0..100) of ``values``."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def latency_summary(seconds: list[float]) -> dict:
    """p50/p90 in ms with the sample count; p90 needs 10 samples above."""
    n = len(seconds)
    out = {"n": n, "p50_ms": percentile(seconds, 50) * 1e3}
    if n - int(n * 0.9) >= MIN_TAIL_SAMPLES and n >= MIN_SAMPLES:
        out["p90_ms"] = percentile(seconds, 90) * 1e3
    return out


def peak_rss_mb() -> float:
    """Peak resident set size of this process (ru_maxrss is KiB on Linux)."""
    usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    scale = 1.0 if sys.platform == "darwin" else 1024.0
    return usage * scale / (1024.0 * 1024.0)


# -- machine speed ----------------------------------------------------------

#: Median duration of one reference op (``_reference_op``) on the machine
#: the bounds were fitted on (Intel Xeon, 2 vCPUs, CPython 3.11) at its
#: usual speed.  Corrected times read as seconds on that machine.
REF_NOMINAL_S = 0.31e-3
#: How often set-up and the traced run sample the reference op (the timed
#: loop samples right before and right after every operation).
PROBE_INTERVAL_S = 0.02
#: The samples that give a span of time its local speed: those within
#: ``PROBE_SPANS`` times its duration of it, at most ``PROBE_WINDOW_S``,
#: and always the nearest one before and the nearest one after it.  The
#: host's speed changes within milliseconds, so a short operation is
#: corrected by the samples taken right beside it; a wider window would
#: pull in other moments and widen the corrected tail.
PROBE_SPANS = 5
PROBE_WINDOW_S = 0.25
#: Samples taken on each side of a set-up, a checkpoint and the loop.
MIN_PROBES = 7


def _reference_op() -> int:
    """Fixed work in the program's mix: hashing, allocation, a keyed sort
    (bytecode) and a JSON round trip (C code)."""
    table = {}
    for i in range(200):
        table[(i, "k%d" % i)] = [i, i * 2]
    order = sorted(table, key=lambda key: -key[0])
    return len(json.loads(json.dumps(order)))


class SpeedProbe:
    """Samples of how fast the machine runs fixed work, taken between ops.

    On a shared host the same operation can take 1.5-2x longer from one
    second to the next as neighbours come and go, which no amount of
    repetition inside one run averages away.  Every timed quantity is
    therefore also reported *corrected*: multiplied by ``REF_NOMINAL_S``
    over the median reference time sampled around it.  The reference runs
    with the garbage collector paused and frees all it allocates, so it
    neither triggers nor absorbs the program's collections; a change to
    the program moves the corrected times as it moves the raw ones, while
    a change in machine speed moves both the op and the reference and
    cancels.  Each sample is the second of two back-to-back reference
    runs, so it does not depend on how much cache the program's last
    operation used.
    """

    def __init__(self) -> None:
        self.at: list[float] = []
        self.took: list[float] = []
        #: Wall seconds spent sampling (subtracted where a sample ran
        #: inside a timed set-up).
        self.spent = 0.0
        self._next = 0.0

    def sample(self, count: int = 1) -> None:
        """Time ``count`` reference ops, each right after an untimed one.

        The untimed run refills the caches the program's last operation
        evicted, so a sample measures the machine, not what the program
        did just before it.
        """
        start = perf_counter()
        enabled = gc.isenabled()
        gc.disable()
        try:
            for _ in range(count):
                _reference_op()
                t0 = perf_counter()
                _reference_op()
                t1 = perf_counter()
                self.at.append(t0)
                self.took.append(t1 - t0)
        finally:
            if enabled:
                gc.enable()
        end = perf_counter()
        self.spent += end - start
        self._next = end + PROBE_INTERVAL_S

    def tick(self) -> None:
        """Sample if ``PROBE_INTERVAL_S`` has passed since the last one."""
        if perf_counter() >= self._next:
            self.sample()

    def factor(self, t0: float, t1: float) -> float:
        """``REF_NOMINAL_S`` over the median reference time near [t0, t1]
        (see ``PROBE_SPANS``)."""
        near = min(PROBE_WINDOW_S, PROBE_SPANS * (t1 - t0))
        lo = max(0, min(bisect_left(self.at, t0 - near),
                        bisect_left(self.at, t0) - 1))
        hi = min(len(self.at), max(bisect_right(self.at, t1 + near),
                                   bisect_right(self.at, t1) + 1))
        if hi <= lo:
            raise RuntimeError("no machine-speed samples")
        return REF_NOMINAL_S / statistics.median(self.took[lo:hi])

    def correct(self, t0: float, seconds: float) -> float:
        return seconds * self.factor(t0, t0 + seconds)


@dataclass
class LoopResult:
    """What the timed phase measured."""

    latencies: dict          #: class -> list of seconds
    corrected: dict          #: class -> list of speed-corrected seconds
    attempted: int
    failed: int
    elapsed: float           #: wall seconds of the whole phase
    failures: list           #: first few failure descriptions
    exhausted: bool = False  #: the op stream ended before the clock did


def run_loop(ops, execute, check, probe: SpeedProbe, *, seconds: float
             ) -> LoopResult:
    """Closed loop, one client: each op is sent after the last returns.

    Runs ``ops`` until ``seconds`` elapse or the stream ends (reported
    as ``exhausted``).  A class the stream has produced that is still
    short of ``MIN_SAMPLES`` keeps the loop going up to ``MAX_STRETCH``
    times ``seconds``, so that a slower program still reports a p90 with
    ten samples above it.  ``execute(op)`` is timed; ``check(op,
    result)`` runs outside the timed region and returns False for a
    wrong answer.  An exception from either counts the op as failed: the
    loop must keep going to report a ratio.  The speed probe samples
    right before and right after each op, outside the timed region.
    """
    latencies = {cls: [] for cls in CLASSES}
    starts = {cls: [] for cls in CLASSES}
    failures: list[str] = []
    attempted = failed = 0
    start = perf_counter()
    deadline = start + seconds
    hard_deadline = start + seconds * MAX_STRETCH

    def done(now: float) -> bool:
        if now >= hard_deadline:
            return True
        return now >= deadline and all(
            len(samples) >= MIN_SAMPLES or not samples
            for samples in latencies.values())

    def one(op: Op) -> None:
        nonlocal attempted, failed
        attempted += 1
        t1 = None
        probe.sample()
        t0 = perf_counter()
        try:
            result = execute(op)
            t1 = perf_counter()
            probe.sample()
            ok = check(op, result)
        except Exception as exc:  # noqa: BLE001 - op boundary, reported
            if t1 is None:  # execute raised
                t1 = perf_counter()
                probe.sample()
            ok = False
            if len(failures) < 5:
                failures.append(f"{op.kind} {op.text[:80]!r}: "
                                f"{type(exc).__name__}: {exc}")
        else:
            if not ok and len(failures) < 5:
                failures.append(f"{op.kind} {op.text[:80]!r}: wrong result")
        latencies[op.cls].append(t1 - t0)
        starts[op.cls].append(t0)
        if not ok:
            failed += 1

    probe.sample(MIN_PROBES)
    exhausted = True
    for op in ops:
        if done(perf_counter()):
            exhausted = False
            break
        one(op)
    elapsed = perf_counter() - start
    probe.sample(MIN_PROBES)
    corrected = {cls: [probe.correct(t0, d) for t0, d in zip(starts[cls], ds)]
                 for cls, ds in latencies.items()}
    return LoopResult(latencies, corrected, attempted, failed, elapsed,
                      failures, exhausted)


@contextmanager
def frozen_heap():
    """Keep the objects alive at entry out of garbage collection.

    Entered after set-up and warm-up: the set-up heap (50k rows, 10k
    rules, the catalog) stays fixed through the timed phase, so it is
    frozen, as a long-running service freezes its start-up heap, and a
    full collection scans only what the phase itself keeps alive.  The
    phase's garbage is still collected, inside the operations whose
    allocations trigger it.  Unfrozen, ``valid_time_query`` ran ~40 full
    collections of ~30 ms each in a 15 s loop on the machine the bounds
    were fitted on, landing on a random tenth of the operations and
    moving p90 latencies by up to a fifth from run to run.
    """
    gc.collect()
    gc.freeze()
    try:
        yield
    finally:
        gc.unfreeze()


def timed_setups(build, repeats: int, reset, probe: SpeedProbe, after=None
                 ) -> tuple[object, list[float], list[float]]:
    """Run ``build(probe=probe)`` ``repeats`` times from a reset state.

    Returns the last built state, every raw set-up time and every
    speed-corrected one (samples the build takes between its steps are
    subtracted).  The previous state is dropped (and collected) before
    the next build so peak memory reflects one live set-up, not several.
    ``after(state)``, if given, runs untimed on each fresh state.
    """
    raw, corrected = [], []
    state = None
    for _ in range(repeats):
        state = None
        reset()
        gc.collect()
        probe.sample(MIN_PROBES)
        spent = probe.spent
        t0 = perf_counter()
        state = build(probe=probe)
        t1 = perf_counter()
        took = (t1 - t0) - (probe.spent - spent)
        probe.sample(MIN_PROBES)
        raw.append(took)
        corrected.append(took * probe.factor(t0, t1))
        if after is not None:
            after(state)
    return state, raw, corrected


# -- tracing -----------------------------------------------------------------


class SpanRecorder:
    """In-memory spans recorded around calls into the program's layers.

    A span is ``[name, start, end, parent index, op id]``.  Spans nest
    through a stack; each operation opens a root span named ``op.<cls>``
    (or ``setup.*``) and the layer calls made for it are its children.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op_id = -1
        #: op id -> speed correction factor applied to its spans' times.
        self.scale: dict[int, float] = {}
        self._child: list[float] | None = None

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        record = [name, perf_counter(), None, parent, self.op_id]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield record
        finally:
            record[2] = perf_counter()
            self._stack.pop()

    @contextmanager
    def op(self, name: str):
        """A root span for one operation (new op id)."""
        self.op_id += 1
        with self.span(name) as record:
            yield record

    def _child_time(self) -> list[float]:
        """Per span, the summed duration of its direct children.

        Computed once per set of spans: the per-layer metrics ask for it
        many times after the run, when no span is added any more.
        """
        if self._child is None or len(self._child) != len(self.spans):
            child = [0.0] * len(self.spans)
            for _, start, end, parent, _ in self.spans:
                if parent is not None:
                    child[parent] += end - start
            self._child = child
        return self._child

    def self_times(self) -> dict:
        """name -> (calls, self seconds): duration minus child coverage."""
        child_time = self._child_time()
        out: dict = {}
        for index, (name, start, end, _, op_id) in enumerate(self.spans):
            calls, total = out.get(name, (0, 0.0))
            own = (end - start) - child_time[index]
            out[name] = (calls + 1, total + own * self.scale.get(op_id, 1.0))
        return out

    def coverage(self, prefix: str = "op.") -> float:
        """Share of op wall time covered by layer (child) spans."""
        child_time = self._child_time()
        total = covered = 0.0
        for index, (name, start, end, parent, _) in enumerate(self.spans):
            if parent is None and name.startswith(prefix):
                total += end - start
                covered += child_time[index]
        return covered / total if total > 0 else 0.0

    def root_time(self, prefix: str = "op.") -> float:
        """Summed wall time of the root spans whose name has ``prefix``."""
        return sum((end - start) * self.scale.get(op_id, 1.0)
                   for name, start, end, parent, op_id in self.spans
                   if parent is None and name.startswith(prefix))

    def layer_ms(self, name: str, times: dict | None = None) -> float:
        """Mean self time per call of spans called ``name``, in ms
        (``times``: a ``self_times()`` result to reuse)."""
        calls, total = (times or self.self_times()).get(name, (0, 0.0))
        return total / calls * 1e3 if calls else 0.0

    def dump(self, path: str) -> None:
        """Write every span plus per-layer self times as JSON."""
        layers = {name: {"calls": calls, "self_ms": total * 1e3}
                  for name, (calls, total) in sorted(
                      self.self_times().items())}
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"fields": ["name", "start", "end", "parent", "op"],
                       "spans": self.spans, "speed_factor": self.scale,
                       "layers": layers}, handle)


# -- provenance --------------------------------------------------------------


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _commit(root: str) -> str | None:
    """HEAD of the checkout, or None when ``root`` is not a git work tree
    of its own (a parent directory's repository does not count)."""
    try:
        out = subprocess.run(
            ["git", "-C", root, "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10, check=False)
    except (OSError, subprocess.SubprocessError):
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or \
            os.path.realpath(lines[0]) != os.path.realpath(root):
        return None
    return lines[1]


def _source_digest(src: str) -> str:
    """sha256 over the program's source files (the checkout may not be git)."""
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for filename in sorted(filenames):
            if filename.endswith(".py"):
                path = os.path.join(dirpath, filename)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()


def provenance(root: str, src: str, seed: int, workload: str) -> dict:
    """Commit, source digest, Python, CPU, nproc, seed and REPRO_* vars.

    ``REPRO_*`` variables switch the program's code paths, so a run with
    one set measures a different program; they are recorded verbatim.
    """
    return {
        "workload": workload,
        "seed": seed,
        "commit": _commit(root),
        "source_sha256": _source_digest(src),
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "cpu": _cpu_model(),
        "nproc": os.cpu_count(),
        "repro_env": {key: value for key, value in sorted(os.environ.items())
                      if key.startswith("REPRO_")},
        "utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def program_counters(session) -> dict:
    """Counters the program exposes: matcache.stats() + Session.metrics()."""
    stats = session.registry.matcache.stats()
    metrics = session.metrics()
    out = {f"mc.{key}": value for key, value in stats.items()
           if isinstance(value, (int, float))}
    for key in ("periodic.compiled", "periodic.fallback",
                "columnar.materialisations"):
        value = metrics.get(key, 0)
        out[key] = value if isinstance(value, (int, float)) else 0
    return out

