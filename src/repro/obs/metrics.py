"""Process metrics: counters, gauges and monotonic-timing histograms.

A :class:`MetricsRegistry` owns named instruments.  Instruments are
created on first use (``registry.counter("matcache.hits")``) and the same
object is returned for the same name thereafter, so call sites can bind
an instrument once and update it lock-cheap in hot loops.  Three kinds:

* :class:`Counter` — a monotonically increasing integer (events, items);
* :class:`Gauge` — a point-in-time value that moves both ways (drift,
  heap depth);
* :class:`Histogram` — a distribution over fixed exponential buckets,
  tuned for wall-clock timings measured with
  :func:`time.perf_counter` (1µs … 10s).

Passing ``labels=("relation", "shard")`` to the registry constructors
returns a *family* (:class:`CounterFamily` / :class:`GaugeFamily` /
:class:`HistogramFamily`) instead of a single instrument.  A family
holds one child instrument per label-value tuple
(``family.labels("emp", "3")``); children are plain instruments, so
hot call sites bind a child once and pay exactly the unlabelled cost
thereafter.  Every family has a cardinality governor: at most
``max_series`` children are admitted, after which unseen label sets
collapse into a reserved all-``other`` child and the registry's
``metrics.series_dropped`` counter is incremented — hostile label values
cannot grow the registry without bound.

Every instrument is thread-safe; snapshots (:meth:`MetricsRegistry.
snapshot`) are consistent per instrument, not across instruments — good
enough for observability, cheap enough for hot paths.
"""

from __future__ import annotations

import bisect
import threading

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry",
           "CounterFamily", "GaugeFamily", "HistogramFamily",
           "DEFAULT_LATENCY_BOUNDS", "DEFAULT_MAX_SERIES",
           "OTHER_LABEL_VALUE", "SERIES_DROPPED_METRIC",
           "escape_label_value", "series_key"]

#: Upper bounds (seconds) of the default latency buckets: a 1-2.5-5
#: series from 1µs to 10s; one implicit overflow bucket above the last.
DEFAULT_LATENCY_BOUNDS: tuple[float, ...] = tuple(
    base * scale
    for scale in (1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0)
    for base in (1.0, 2.5, 5.0)
) + (10.0,)

#: Default per-family series cap enforced by the cardinality governor.
DEFAULT_MAX_SERIES = 64

#: Label value of the reserved overflow series a governed family
#: collapses excess label sets into.
OTHER_LABEL_VALUE = "other"

#: Registry-level counter incremented whenever a label set is collapsed.
SERIES_DROPPED_METRIC = "metrics.series_dropped"


def escape_label_value(value: str) -> str:
    """Escape a label value inside a ``name{k="v"}`` series key."""
    return (value.replace("\\", "\\\\")
                 .replace('"', '\\"')
                 .replace("\n", "\\n"))


def series_key(name: str, label_names: "tuple[str, ...]",
               values: "tuple[str, ...]") -> str:
    """The flat ``name{k="v",...}`` key a labelled child appears under."""
    inner = ",".join(f'{k}="{escape_label_value(v)}"'
                     for k, v in zip(label_names, values))
    return f"{name}{{{inner}}}"


class Counter:
    """A monotonically increasing counter."""

    __slots__ = ("name", "description", "_value", "_lock")

    def __init__(self, name: str, description: str = "") -> None:
        self.name = name
        self.description = description
        self._value = 0
        self._lock = threading.Lock()

    def inc(self, amount: int = 1) -> None:
        """Add ``amount`` (negative amounts are rejected)."""
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int:
        """The current count."""
        return self._value

    def reset(self) -> None:
        """Zero the counter (stats-reset support, not for normal use)."""
        with self._lock:
            self._value = 0

    def __repr__(self) -> str:
        return f"Counter({self.name}={self._value})"


class Gauge:
    """A value that can move in both directions."""

    __slots__ = ("name", "description", "_value", "_lock")

    def __init__(self, name: str, description: str = "") -> None:
        self.name = name
        self.description = description
        self._value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        """Replace the gauge value."""
        with self._lock:
            self._value = value

    def add(self, delta: float) -> None:
        """Move the gauge by ``delta`` (either direction)."""
        with self._lock:
            self._value += delta

    @property
    def value(self) -> float:
        """The current gauge value."""
        return self._value

    def reset(self) -> None:
        """Zero the gauge."""
        with self._lock:
            self._value = 0.0

    def __repr__(self) -> str:
        return f"Gauge({self.name}={self._value})"


class Histogram:
    """A fixed-bucket histogram for monotonic (perf_counter) timings.

    Buckets are defined by their inclusive upper bounds plus an implicit
    overflow bucket; the defaults cover 1µs–10s on a 1-2.5-5 series.
    Tracks count, sum, min and max exactly; quantiles are estimated from
    the bucket boundaries (an upper bound — good enough to find a hot
    kernel, not for SLA maths).
    """

    __slots__ = ("name", "description", "bounds", "_counts", "_count",
                 "_sum", "_min", "_max", "_lock")

    def __init__(self, name: str, description: str = "",
                 bounds: "tuple[float, ...] | None" = None) -> None:
        self.name = name
        self.description = description
        self.bounds = tuple(bounds) if bounds is not None \
            else DEFAULT_LATENCY_BOUNDS
        if list(self.bounds) != sorted(self.bounds) or not self.bounds:
            raise ValueError(
                f"histogram {name!r} bucket bounds must be sorted and "
                "non-empty")
        self._counts = [0] * (len(self.bounds) + 1)
        self._count = 0
        self._sum = 0.0
        self._min: float | None = None
        self._max: float | None = None
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        """Record one sample."""
        index = bisect.bisect_left(self.bounds, value)
        with self._lock:
            self._counts[index] += 1
            self._count += 1
            self._sum += value
            if self._min is None or value < self._min:
                self._min = value
            if self._max is None or value > self._max:
                self._max = value

    @property
    def count(self) -> int:
        """Number of recorded samples."""
        return self._count

    @property
    def sum(self) -> float:
        """Sum of all recorded samples."""
        return self._sum

    def quantile(self, q: float) -> float | None:
        """Estimated ``q``-quantile (0..1); None when empty.

        Returns the upper bound of the bucket holding the quantile
        (clamped to the observed max), an intentionally conservative
        estimate.  A single-observation histogram returns that sole
        value exactly.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile {q} outside [0, 1]")
        with self._lock:
            if self._count == 0:
                return None
            if self._count == 1:
                return self._min
            rank = q * self._count
            seen = 0
            for i, bucket_count in enumerate(self._counts):
                seen += bucket_count
                if seen >= rank and bucket_count:
                    bound = self.bounds[i] if i < len(self.bounds) \
                        else self._max
                    return min(bound, self._max)
            return self._max

    def percentile(self, q: float) -> float | None:
        """Interpolated ``q``-percentile (0..1); None when empty.

        Unlike :meth:`quantile` (which returns the holding bucket's
        upper bound), this interpolates linearly *within* the bucket by
        the rank's position among its samples, clamped to the observed
        min/max — a smoother estimate for ``\\metrics``-style display.
        A single-observation histogram returns that sole value exactly,
        never an interpolation against the overflow bucket.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"percentile {q} outside [0, 1]")
        with self._lock:
            if self._count == 0:
                return None
            if self._count == 1:
                return self._min
            counts = list(self._counts)
            count, lo, hi = self._count, self._min, self._max
        rank = q * count
        seen = 0
        for i, bucket_count in enumerate(counts):
            if not bucket_count:
                continue
            if seen + bucket_count >= rank:
                lower = self.bounds[i - 1] if i > 0 else 0.0
                upper = self.bounds[i] if i < len(self.bounds) else hi
                fraction = (rank - seen) / bucket_count
                value = lower + (upper - lower) * max(0.0, fraction)
                return min(max(value, lo), hi)
            seen += bucket_count
        return hi

    def summary(self) -> dict:
        """Count/sum/mean/min/max plus p50/p90/p99 estimates."""
        with self._lock:
            count, total = self._count, self._sum
            lo, hi = self._min, self._max
        out = {
            "count": count,
            "sum": total,
            "mean": (total / count) if count else None,
            "min": lo,
            "max": hi,
        }
        for label, q in (("p50", 0.5), ("p90", 0.9), ("p99", 0.99)):
            out[label] = self.quantile(q)
        return out

    def reset(self) -> None:
        """Drop every recorded sample."""
        with self._lock:
            self._counts = [0] * (len(self.bounds) + 1)
            self._count = 0
            self._sum = 0.0
            self._min = None
            self._max = None

    def __repr__(self) -> str:
        return f"Histogram({self.name}, n={self._count})"


# -- Labelled instrument families ----------------------------------------------


class _Family:
    """A named set of child instruments keyed by label-value tuples.

    ``labels(*values)`` (or ``labels(relation="emp", ...)``) resolves the
    child for one label set, creating it on first use.  The cardinality
    governor caps the number of distinct children at ``max_series``:
    once full, unseen label sets resolve to a single reserved child
    whose every label value is ``"other"``, and ``on_drop`` (wired by
    the registry to the ``metrics.series_dropped`` counter) fires per
    collapsed resolution.  Children are ordinary instruments — bind one
    outside the hot loop and updates cost the same as unlabelled.
    """

    __slots__ = ("name", "description", "label_names", "max_series",
                 "_child_factory", "_on_drop", "_children", "_other",
                 "_lock")

    #: Child instrument class, set by the concrete family.
    child_kind: type = object

    def __init__(self, name: str, description: str,
                 label_names: "tuple[str, ...]", max_series: int,
                 child_factory, on_drop=None) -> None:
        self.name = name
        self.description = description
        self.label_names = tuple(str(label) for label in label_names)
        if not self.label_names:
            raise ValueError(f"family {name!r} needs at least one label")
        if len(set(self.label_names)) != len(self.label_names):
            raise ValueError(f"family {name!r} has duplicate label names")
        if max_series < 1:
            raise ValueError(f"family {name!r} max_series must be >= 1")
        self.max_series = max_series
        self._child_factory = child_factory
        self._on_drop = on_drop
        self._children: dict = {}
        self._other = None
        self._lock = threading.Lock()

    def labels(self, *values, **named):
        """The child instrument for one label-value tuple.

        Accepts positional values in label order, or keyword values by
        label name (not both).  Values are coerced to ``str``.  Resolving
        a label set the governor has already collapsed returns the
        reserved ``other`` child.
        """
        if named:
            if values:
                raise ValueError(
                    f"family {self.name!r}: pass label values either "
                    "positionally or by name, not both")
            try:
                values = tuple(named[label] for label in self.label_names)
            except KeyError as exc:
                raise ValueError(
                    f"family {self.name!r} missing label {exc.args[0]!r}"
                ) from None
            if len(named) != len(self.label_names):
                unknown = set(named) - set(self.label_names)
                raise ValueError(
                    f"family {self.name!r} unknown labels {sorted(unknown)}")
        key = tuple(str(value) for value in values)
        if len(key) != len(self.label_names):
            raise ValueError(
                f"family {self.name!r} expects {len(self.label_names)} "
                f"label values ({', '.join(self.label_names)}), "
                f"got {len(key)}")
        child = self._children.get(key)
        if child is not None:
            return child
        with self._lock:
            child = self._children.get(key)
            if child is not None:
                return child
            if len(self._children) >= self.max_series:
                if self._on_drop is not None:
                    self._on_drop()
                return self._overflow_child()
            child = self._child_factory(key)
            self._children[key] = child
            return child

    def _overflow_child(self):
        # Called under self._lock.  Reuse an explicitly created
        # all-"other" child if one exists so the series stays unique.
        if self._other is None:
            key = (OTHER_LABEL_VALUE,) * len(self.label_names)
            existing = self._children.get(key)
            self._other = existing if existing is not None \
                else self._child_factory(key)
        return self._other

    def series(self) -> dict:
        """``{label_values: child}`` for every live series (other last)."""
        with self._lock:
            out = dict(self._children)
            if self._other is not None:
                out.setdefault(
                    (OTHER_LABEL_VALUE,) * len(self.label_names),
                    self._other)
        return out

    @property
    def series_count(self) -> int:
        """Number of live series including the reserved overflow child."""
        return len(self.series())

    def reset(self) -> None:
        """Reset every child (series are kept, values zeroed)."""
        for child in self.series().values():
            child.reset()

    def __repr__(self) -> str:
        return (f"{type(self).__name__}({self.name}, "
                f"labels={self.label_names}, series={self.series_count})")


class CounterFamily(_Family):
    """A labelled set of :class:`Counter` children."""

    __slots__ = ()
    child_kind = Counter


class GaugeFamily(_Family):
    """A labelled set of :class:`Gauge` children."""

    __slots__ = ()
    child_kind = Gauge


class HistogramFamily(_Family):
    """A labelled set of :class:`Histogram` children (shared bounds)."""

    __slots__ = ()
    child_kind = Histogram


class MetricsRegistry:
    """Named instruments, created on first use and shared thereafter.

    Passing ``labels=(...)`` returns a labelled family instead of a
    plain instrument; a name is either plain or labelled, never both,
    and a labelled name's label set and kind are frozen at creation.
    """

    def __init__(self) -> None:
        self._instruments: dict[str, object] = {}
        self._lock = threading.Lock()

    def _get_or_create(self, name: str, kind, factory):
        with self._lock:
            instrument = self._instruments.get(name)
            if instrument is None:
                instrument = factory()
                self._instruments[name] = instrument
            elif not isinstance(instrument, kind):
                raise ValueError(
                    f"metric {name!r} already registered as "
                    f"{type(instrument).__name__}, not {kind.__name__}")
            return instrument

    def _family(self, name: str, description: str, family_kind,
                labels, max_series, child_factory):
        label_names = tuple(str(label) for label in labels)
        cap = DEFAULT_MAX_SERIES if max_series is None else int(max_series)
        dropped = self._get_or_create(
            SERIES_DROPPED_METRIC, Counter,
            lambda: Counter(
                SERIES_DROPPED_METRIC,
                "Label sets collapsed into the reserved `other` series "
                "by the cardinality governor"))
        family = self._get_or_create(
            name, family_kind,
            lambda: family_kind(name, description, label_names, cap,
                                child_factory, on_drop=dropped.inc))
        if family.label_names != label_names:
            raise ValueError(
                f"metric {name!r} already registered with labels "
                f"{family.label_names}, not {label_names}")
        return family

    def counter(self, name: str, description: str = "", *,
                labels: "tuple[str, ...] | None" = None,
                max_series: "int | None" = None):
        """The counter (or counter family) named ``name``."""
        if labels is None:
            return self._get_or_create(
                name, Counter, lambda: Counter(name, description))
        names = tuple(str(label) for label in labels)
        return self._family(
            name, description, CounterFamily, names, max_series,
            lambda values: Counter(series_key(name, names, values),
                                   description))

    def gauge(self, name: str, description: str = "", *,
              labels: "tuple[str, ...] | None" = None,
              max_series: "int | None" = None):
        """The gauge (or gauge family) named ``name``."""
        if labels is None:
            return self._get_or_create(
                name, Gauge, lambda: Gauge(name, description))
        names = tuple(str(label) for label in labels)
        return self._family(
            name, description, GaugeFamily, names, max_series,
            lambda values: Gauge(series_key(name, names, values),
                                 description))

    def histogram(self, name: str, description: str = "",
                  bounds: "tuple[float, ...] | None" = None, *,
                  labels: "tuple[str, ...] | None" = None,
                  max_series: "int | None" = None):
        """The histogram (or histogram family) named ``name``."""
        if labels is None:
            return self._get_or_create(
                name, Histogram,
                lambda: Histogram(name, description, bounds))
        names = tuple(str(label) for label in labels)
        return self._family(
            name, description, HistogramFamily, names, max_series,
            lambda values: Histogram(series_key(name, names, values),
                                     description, bounds))

    def names(self) -> list[str]:
        """Sorted names of every registered instrument and family."""
        with self._lock:
            return sorted(self._instruments)

    def get(self, name: str):
        """The instrument or family under ``name``, or None."""
        with self._lock:
            return self._instruments.get(name)

    def snapshot(self) -> dict:
        """A plain-dict snapshot of every instrument, keyed by name.

        Counters and gauges map to their value; histograms to their
        :meth:`Histogram.summary` dict.  Labelled children appear under
        flat ``name{label="value",...}`` keys, one per live series.
        """
        with self._lock:
            instruments = list(self._instruments.items())
        out: dict = {}
        for name, instrument in sorted(instruments):
            if isinstance(instrument, _Family):
                for values, child in sorted(instrument.series().items()):
                    key = series_key(name, instrument.label_names, values)
                    if isinstance(child, Histogram):
                        out[key] = child.summary()
                    else:
                        out[key] = child.value
            elif isinstance(instrument, Histogram):
                out[name] = instrument.summary()
            else:
                out[name] = instrument.value
        return out

    def reset(self) -> None:
        """Reset every instrument (counters/gauges to 0, histograms empty)."""
        with self._lock:
            instruments = list(self._instruments.values())
        for instrument in instruments:
            instrument.reset()
