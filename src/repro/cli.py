r"""An interactive shell for calendars, queries and rules.

Run with ``python -m repro``.  Three kinds of input:

* **Postquel statements** (``retrieve …``, ``append …``, ``create table``,
  ``define rule`` …) execute against the session database;
* **calendar expressions** (anything else without a leading backslash,
  e.g. ``[3]/WEEKS:overlaps:[1]/MONTHS:during:1993/YEARS``) evaluate over
  the session window and print civil dates;
* **backslash commands** control the session::

      \help                     this text
      \calendars                list the CALENDARS catalog
      \show NAME                Figure-1 style catalog record
      \define NAME { script }   define a calendar
      \window START .. END      set the evaluation window
      \cache [clear]            materialisation-cache and result-memo
                                stats (or clear both); includes
                                lock-contention and columnar
                                materialisation-counter lines
      \clock                    show the simulated clock
      \advance N                advance the clock N days (DBCRON fires)
      \rules [stats|drop NAME]  list rules; "stats" reports the daemon
                                and its schedule; "drop NAME" removes
                                a rule
      \tables                   list relations
      \explain [-noopt] EXPR | retrieve ...  evaluation plan of an
                                expression (with the optimizer's
                                rewrites, plan diff and backend —
                                periodic vs materialising chain;
                                -noopt shows the unoptimized strategy
                                only), or a query's execution strategy
                                (each variable's access path and filter
                                placement plus the vectorized engine's
                                per-conjunct kernel: hash join, endpoint
                                sweep, valid-time range scan, batched
                                calendar sweep and why the range scan
                                declined — all from the plan that runs
                                — or why the query falls back to
                                row-at-a-time, e.g. an "as of"
                                historical scan)
      \profile EXPR             run with tracing; per-step timing tree
      \prof [on|off|status|top [N]|clear]  continuous sampling profiler:
                                start/stop the background sampler, show
                                its status, the N hottest leaf frames
                                (default 10), or drop accumulated stacks
      \metrics [reset]          metrics snapshot (counters, latency
                                histograms with p50/p95/p99; labelled
                                series render as name{label="value"})
      \slowlog [clear]          captured slow-query records (set the
                                REPRO_SLOWLOG_SECONDS env var or
                                Session(slow_query_threshold=) to enable)
      \trace on|off             toggle span tracing for the session
      \save FILE / \load FILE   persist / restore the session database
      \quit                     leave

The session database starts with the standard calendars, US holidays, a
rule manager and a DBCRON daemon on a simulated clock.
"""

from __future__ import annotations

import sys

from repro.core import Calendar
from repro.core import columnar
from repro.core.errors import CalendarError
from repro.db import DatabaseError
from repro.db.executor import Result
from repro.session import Session as CoreSession

__all__ = ["Session", "main"]

_QL_KEYWORDS = ("retrieve", "append", "replace", "delete", "create",
                "drop", "define rule", "define calendar")


class Session(CoreSession):
    """One interactive session: the core facade plus line dispatch."""

    def __init__(self, epoch: str = "Jan 1 1987",
                 holiday_years: tuple[int, int] = (1987, 2016)) -> None:
        super().__init__(epoch, holiday_years=holiday_years)
        self.window: tuple | None = None

    # -- dispatch -----------------------------------------------------------

    def run_line(self, line: str) -> str:
        """Execute one input line; returns the printable response."""
        text = line.strip()
        if not text:
            return ""
        try:
            if text.startswith("\\"):
                return self._command(text[1:])
            lowered = text.lower()
            if any(lowered.startswith(k) for k in _QL_KEYWORDS):
                return self._render(self.db.execute(text))
            # Through the session facade so the slow-query log sees
            # interactive evaluations too.
            value = self.eval(text, window=self.window)
            return self._render(value)
        except (CalendarError, DatabaseError) as exc:
            return f"error: {exc}"

    # -- rendering ------------------------------------------------------------

    def _render(self, value) -> str:
        if isinstance(value, Result):
            return value.to_table()
        if isinstance(value, Calendar):
            return self._render_calendar(value)
        return str(value)

    def _render_calendar(self, cal: Calendar) -> str:
        if cal.order != 1:
            lines = [f"order-{cal.order} calendar, "
                     f"{len(cal)} groups:"]
            for sub in cal.elements:
                lines.append("  " + self._one_line(sub.flatten()))
            return "\n".join(lines)
        return self._one_line(cal)

    def _one_line(self, cal: Calendar) -> str:
        parts = []
        for iv in cal.elements[:10]:
            if iv.is_instant():
                parts.append(str(self.system.date_of(iv.lo)))
            else:
                parts.append(f"{self.system.date_of(iv.lo)} .. "
                             f"{self.system.date_of(iv.hi)}")
        suffix = f"  (+{len(cal) - 10} more)" if len(cal) > 10 else ""
        return "; ".join(parts) + suffix if parts else "(empty)"

    def _rules_command(self, argument: str) -> str:
        """``\\rules [stats | drop NAME]`` on the ``Session.rules`` facade."""
        if argument:
            sub, _, rest = argument.partition(" ")
            sub = sub.lower()
            if sub == "stats":
                stats = self.rules.stats()
                daemon = stats["daemon"]
                schedule = stats["schedule"]
                lines = [
                    f"{stats['event_rules']} event rule(s), "
                    f"{stats['temporal_rules']} temporal rule(s); "
                    f"clock at tick {stats['clock']}",
                    f"  daemon: {daemon['scheduler']} scheduler, "
                    f"period {daemon['period']}, "
                    f"{daemon['probes']} probes, {daemon['fires']} fires, "
                    f"{daemon['reschedules']} reschedules",
                    f"  schedule: {schedule['scheduled']} armed",
                ]
                if schedule.get("overflow"):
                    lines.append(
                        f"    overflow: {schedule['overflow']} entries, "
                        f"{schedule.get('cascades', 0)} cascades")
                return "\n".join(lines)
            if sub == "drop":
                name = rest.strip()
                if not name:
                    return "usage: \\rules drop NAME"
                self.rules.drop(name)
                return f"dropped rule {name}"
            return "usage: \\rules [stats | drop NAME]"
        manager = self.manager
        lines = [f"event    {name}: on {rule.event} to "
                 f"{rule.relation}"
                 for name, rule in manager.event_rules.items()]
        lines += [f"temporal {name}: {rule.expression_text}"
                  for name, rule in manager.temporal_rules.items()]
        return "\n".join(lines) if lines else "(no rules)"

    # -- commands --------------------------------------------------------------

    def _command(self, text: str) -> str:
        parts = text.split(None, 1)
        command = parts[0].lower()
        argument = parts[1].strip() if len(parts) > 1 else ""
        if command in ("help", "h", "?"):
            return __doc__
        if command in ("quit", "q", "exit"):
            raise EOFError
        if command == "calendars":
            return "\n".join(self.registry.names())
        if command == "show":
            return self.registry.render(argument)
        if command == "define":
            name, _, script = argument.partition(" ")
            if not script.strip():
                return "usage: \\define NAME { script }"
            self.registry.define(name, script=script.strip(),
                                 replace=True)
            return f"defined calendar {name}"
        if command == "window":
            start, _, end = argument.partition("..")
            if not end:
                return "usage: \\window Jan 1 1993 .. Dec 31 1993"
            self.window = (start.strip(), end.strip())
            return f"window set to {self.window[0]} .. {self.window[1]}"
        if command == "cache":
            if argument.lower() == "clear":
                self.registry.clear_caches()
                self.registry.matcache.reset_stats()
                return "materialisation cache cleared"
            if argument:
                return "usage: \\cache [clear]"
            stats = self.registry.cache_stats()
            lines = [
                f"materialisation cache: {stats['entries']} entries, "
                f"{stats['memo_entries']} memo entries",
                f"  hits {stats['hits']}  misses {stats['misses']}  "
                f"extensions {stats['extensions']}  "
                f"evictions {stats['evictions']}  "
                f"hit ratio {stats['hit_ratio']:.1%}",
                f"  intervals served {stats['served_intervals']}  "
                f"generated {stats['generated_intervals']}",
                f"  memo hits {stats['memo_hits']}  "
                f"memo misses {stats['memo_misses']}",
                f"  result memo: {stats['result_entries']} entries, "
                f"{stats['result_intervals']} intervals",
            ]
            for kind in ("hit", "miss", "extension"):
                summary = stats.get(f"{kind}_seconds")
                if summary and summary["count"]:
                    lines.append(
                        f"  {kind} latency: p50 "
                        f"{summary['p50'] * 1e6:.0f}us  p99 "
                        f"{summary['p99'] * 1e6:.0f}us  over "
                        f"{summary['count']} sample(s)")
            waits = stats.get("lock_wait_seconds")
            if waits and waits["count"]:
                lines.append(
                    f"  contention: {stats['lock_contention']} contended "
                    f"acquisition(s)  lock wait p50 "
                    f"{waits['p50'] * 1e6:.0f}us  p99 "
                    f"{waits['p99'] * 1e6:.0f}us  "
                    f"single-flight waits {stats['single_flight_waits']}")
            else:
                lines.append(
                    f"  contention: none observed  single-flight waits "
                    f"{stats['single_flight_waits']}")
            lines.append(
                f"  columnar materialisations "
                f"{columnar.MATERIALISATIONS.value}")
            return "\n".join(lines)
        if command == "clock":
            return (f"clock at {self.system.date_of(self.clock.now)} "
                    f"(tick {self.clock.now})")
        if command == "advance":
            try:
                days = int(argument)
            except ValueError:
                return "usage: \\advance N"
            before = self.cron.stats.fires
            self.cron.run_until(self.clock.now + days)
            fired = self.cron.stats.fires - before
            return (f"clock at {self.system.date_of(self.clock.now)}; "
                    f"{fired} temporal rule firing(s)")
        if command == "rules":
            return self._rules_command(argument)
        if command == "tables":
            return "\n".join(self.db.relation_names())
        if command == "explain":
            if not argument:
                return ("usage: \\explain [-noopt] EXPR | "
                        "\\explain retrieve ...")
            optimized = None
            if argument.startswith("-noopt"):
                optimized = False
                argument = argument[len("-noopt"):].strip()
                if not argument:
                    return ("usage: \\explain [-noopt] EXPR | "
                            "\\explain retrieve ...")
            if any(argument.lower().startswith(k) for k in _QL_KEYWORDS):
                return self.db.explain(argument)
            return self.explain(argument, window=self.window,
                                optimized=optimized).render()
        if command == "profile":
            if not argument:
                return "usage: \\profile EXPR"
            return self.profile(argument, window=self.window).render()
        if command == "prof":
            return self._prof_command(argument)
        if command == "metrics":
            if argument.lower() == "reset":
                self.instrumentation.metrics.reset()
                return "metrics reset"
            if argument:
                return "usage: \\metrics [reset]"
            return self._render_metrics()
        if command == "slowlog":
            if argument.lower() == "clear":
                self.slowlog.clear()
                return "slow-query log cleared"
            if argument:
                return "usage: \\slowlog [clear]"
            if not self.slowlog.enabled:
                return ("slow-query log disabled (set "
                        "REPRO_SLOWLOG_SECONDS or "
                        "Session(slow_query_threshold=...))")
            records = self.slow_queries()
            if not records:
                return (f"no queries over "
                        f"{self.slowlog.threshold_s * 1e3:.1f}ms yet")
            lines = [f"{len(records)} slow quer"
                     f"{'y' if len(records) == 1 else 'ies'} "
                     f"(threshold {self.slowlog.threshold_s * 1e3:.1f}ms):"]
            for record in records:
                source = record.source if len(record.source) <= 48 \
                    else record.source[:45] + "..."
                line = (f"  {record.duration_s * 1e3:9.3f}ms  "
                        f"[{record.via}] {source}")
                if record.error:
                    line += f"  ({record.error})"
                lines.append(line)
            return "\n".join(lines)
        if command == "trace":
            flag = argument.lower()
            if flag not in ("on", "off"):
                return "usage: \\trace on|off"
            self.instrumentation.tracing = flag == "on"
            return f"tracing {flag}"
        if command == "save":
            from repro.db.persist import save_database
            report = save_database(self.db, argument)
            return (f"saved {report.relations} relations, "
                    f"{report.calendars} calendars, "
                    f"{report.event_rules + report.temporal_rules} rules")
        if command == "load":
            from repro.db.persist import load_database
            self.attach_database(load_database(argument))
            return f"loaded {argument}"
        return f"unknown command \\{command} (try \\help)"

    def _prof_command(self, argument: str) -> str:
        """``\\prof [on|off|status|top [N]|clear]``."""
        sub, _, rest = argument.lower().partition(" ")
        profiler = self.profiler
        if sub in ("", "status"):
            stats = profiler.stats()
            state = "running" if stats["running"] else "stopped"
            return (f"profiler {state} at {stats['hertz']:g} Hz: "
                    f"{stats['samples']} sample(s), "
                    f"{stats['stacks']} distinct stack(s), "
                    f"{stats['overflowed']} overflowed, "
                    f"{stats['errors']} error(s)")
        if sub == "on":
            if profiler.running:
                return "profiler already running"
            profiler.start()
            return f"profiler started at {profiler.hertz:g} Hz"
        if sub == "off":
            if not profiler.running:
                return "profiler not running"
            profiler.stop()
            return (f"profiler stopped; {profiler.stats()['samples']} "
                    "sample(s) retained (\\prof top to inspect)")
        if sub == "top":
            try:
                n = int(rest) if rest.strip() else 10
            except ValueError:
                return "usage: \\prof top [N]"
            rows = profiler.top(n)
            if not rows:
                return "(no samples yet — \\prof on to start sampling)"
            width = max(len(frame) for frame, _ in rows)
            return "\n".join(f"{frame:<{width}}  {count}"
                             for frame, count in rows)
        if sub == "clear":
            profiler.clear()
            return "profiler samples cleared"
        return "usage: \\prof [on|off|status|top [N]|clear]"

    def _render_metrics(self) -> str:
        """Formatted snapshot of every registered metric.

        Histogram lines show interpolated p50/p95/p99 (see
        :meth:`repro.obs.metrics.Histogram.percentile`) rather than the
        conservative bucket-upper-bound quantiles of the snapshot.
        """
        snapshot = self.metrics()
        if not snapshot:
            return "(no metrics recorded)"
        registry = self.instrumentation.metrics
        lines = []
        for name in sorted(snapshot):
            value = snapshot[name]
            if isinstance(value, dict):
                if not value["count"]:
                    lines.append(f"{name:<32} count 0")
                    continue
                histogram = self._snapshot_histogram(registry, name)
                if histogram is None:
                    lines.append(
                        f"{name:<32} count {value['count']:<8} "
                        f"sum {value['sum'] * 1e3:.3f}ms")
                    continue
                p50, p95, p99 = (histogram.percentile(q)
                                 for q in (0.5, 0.95, 0.99))
                lines.append(
                    f"{name:<32} count {value['count']:<8} "
                    f"p50 {p50 * 1e3:.3f}ms  "
                    f"p95 {p95 * 1e3:.3f}ms  "
                    f"p99 {p99 * 1e3:.3f}ms  "
                    f"sum {value['sum'] * 1e3:.3f}ms")
            else:
                lines.append(f"{name:<32} {value}")
        return "\n".join(lines)

    @staticmethod
    def _snapshot_histogram(registry, name: str):
        """Resolve a snapshot key back to its Histogram instrument.

        Labelled series render under flat ``name{label="value"}`` keys
        that are not registry entries; the child instruments carry the
        same flat key as their name, so look them up via the family.
        """
        instrument = registry.get(name)
        if instrument is not None:
            return instrument
        family = registry.get(name.partition("{")[0])
        if family is None or not hasattr(family, "series"):
            return None
        for child in family.series().values():
            if child.name == name:
                return child
        return None


def main(argv: list[str] | None = None) -> int:
    """Entry point for ``python -m repro``."""
    argv = list(sys.argv[1:] if argv is None else argv)
    epoch = "Jan 1 1987"
    commands: list[str] = []
    while argv:
        arg = argv.pop(0)
        if arg in ("-e", "--epoch") and argv:
            epoch = argv.pop(0)
        elif arg in ("-c", "--command") and argv:
            commands.append(argv.pop(0))
        elif arg in ("-h", "--help"):
            print(__doc__)
            return 0
        else:
            print(f"unknown argument {arg!r}", file=sys.stderr)
            return 2
    session = Session(epoch=epoch)
    if commands:
        for command in commands:
            output = session.run_line(command)
            if output:
                print(output)
        return 0
    print(f"repro calendar shell — epoch {epoch}; \\help for help")
    while True:
        try:
            line = input("cal> ")
        except EOFError:
            print()
            return 0
        try:
            output = session.run_line(line)
        except EOFError:
            return 0
        if output:
            print(output)


if __name__ == "__main__":
    raise SystemExit(main())
