"""Workload ``dbcron_month``: 10k temporal rules and DBCRON day by day.

Set-up declares ``RULES`` rules through ``Session.rules.on_calendar``
over a fixed expression mix (weekday patterns, business-day selections,
``HOLIDAYS`` differences, and shapes the periodic compiler declines so
the windowed ``next_occurrence`` path runs too); a fixed share carries a
Postquel ``append`` action into ``fire_log``, the rest a callback.  The
timed phase then repeats: advance DBCRON one simulated day from Jan 1
1993 (warm: probe + fire), declare a rule with a first-touch expression
(cold), declare a batch of rules reusing compiled expressions (write).
The rule database is checkpointed right after set-up, so its size does
not depend on how many days a run gets through.
"""

from __future__ import annotations

import datetime
from contextlib import nullcontext
import itertools
import random

import oracle
from common import Op, percentile, program_counters

from repro import Session
from repro.core.matcache import get_default_cache

NAME = "dbcron_month"
WHY = ("rules manager, timing wheel and next_occurrence do the work; lang "
       "idle after declaring. Ops cycle: one simulated day, a rule with a "
       "new expression, a batch of rules reusing compiled ones")

RULES = 10_000
#: Share of set-up rules whose action is a Postquel append into fire_log.
ACTION_SHARE = 0.2
#: Rules declared by one write op (one batch keeps the op long enough to
#: time steadily).  Their expressions only fire in 2016, so the firing
#: load stays the set-up's however many days a run covers.
WRITE_BATCH = 10
START = datetime.date(1993, 1, 1)

FAR_FUTURE = [(f"[{k}]/DAYS:during:WEEKS:during:2016/YEARS", None)
              for k in range(1, 6)]

#: Set-up expression mix: (share of rules, expressions, weekday oracle).
#: The oracle gives the ISO weekdays a rule fires on, when it is a pure
#: weekday pattern; those rules' fire ticks are checked against datetime.
MIX = (
    (0.40, [(f"[{k}]/DAYS:during:WEEKS", {k}) for k in range(1, 8)]
     + [("[1-5]/DAYS:during:WEEKS", {1, 2, 3, 4, 5}),
        ("[6-7]/DAYS:during:WEEKS", {6, 7}),
        ("[2-4]/DAYS:during:WEEKS", {2, 3, 4})]),
    (0.20, [("[1]/AM_BUS_DAYS:during:MONTHS", None),
            ("[n]/AM_BUS_DAYS:during:MONTHS", None),
            ("[5]/AM_BUS_DAYS:during:WEEKS", None),
            ("[1]/AM_BUS_DAYS:during:WEEKS", None)]),
    (0.20, [(f"([{k}]/DAYS:during:WEEKS) - HOLIDAYS", None)
            for k in range(1, 6)] + [("AM_BUS_DAYS - HOLIDAYS", None)]),
    # Declined by the periodic compiler (``<`` lookback, DECADES).
    (0.15, [("[n]/AM_BUS_DAYS:<:[3]/DAYS:during:WEEKS", None),
            ("[2]/DAYS:during:WEEKS:during:DECADES", None),
            ("[4]/DAYS:during:WEEKS:during:DECADES", None),
            ("[n]/AM_BUS_DAYS:<:LDOM", None)]),
    # Armed for a future year: they wait in the wheel's far-future
    # overflow and are what write ops declare more of.
    (0.05, FAR_FUTURE),
)


#: Years a first-touch weekday union may be anchored to (None: unanchored).
COLD_YEARS = (None, *range(1993, 2016))


def _weekday_union(days, year: int | None = None) -> str:
    anchor = "" if year is None else f":during:{year}/YEARS"
    return " + ".join(f"([{d}]/DAYS:during:WEEKS{anchor})"
                      for d in sorted(days))


def _cold_expressions(rng: random.Random
                      ) -> list[tuple[str, set | None, int | None]]:
    """First-touch rule expressions, all distinct and none in the set-up mix.

    Strata cost differently (a union's compile grows with its terms), so
    the list takes them in turn — unions of 2, 3, 4 and 5 weekdays, each
    unanchored or anchored to one year, each followed by a weekday
    anchored to one month or year — and the seed only shuffles within a
    stratum.  Any prefix of the first 4032 expressions (every stratum
    still live) then has the same mix.  A union carries its weekday
    oracle, its weekday set and anchor year: ``(text, weekdays, year)``.
    """
    strata = []
    for size in (2, 3, 4, 5):
        unions = [(_weekday_union(days, year), set(days), year)
                  for days in itertools.combinations(range(1, 8), size)
                  for year in COLD_YEARS]
        rng.shuffle(unions)
        strata.append(unions)
    anchored = [(f"[{k}]/DAYS:during:WEEKS:during:[{m}]/MONTHS"
                 f":during:{y}/YEARS", None, None)
                for k in range(1, 8) for m in range(1, 13)
                for y in range(1993, 2016)]
    anchored += [(f"[{k}]/DAYS:during:WEEKS:during:{y}/YEARS", None, None)
                 for k in range(1, 8) for y in range(1993, 2016)]
    rng.shuffle(anchored)
    out = []
    for round_ in itertools.count():
        live = [stratum for stratum in strata if round_ < len(stratum)]
        if not live:
            return out
        for stratum in live:
            out.append(stratum[round_])
            if anchored:
                out.append(anchored.pop())


class Workload:
    name = NAME
    setup_repeats = 2
    #: The rule catalog is checkpointed before the simulated days.
    checkpoint_before_loop = True

    def __init__(self, seed: int, scale: float = 1.0) -> None:
        self.seed = seed
        rng = random.Random(seed)
        self.rules_n = max(50, int(RULES * scale))
        self.specs = []
        for share, exprs in MIX:
            for i in range(int(round(self.rules_n * share))):
                self.specs.append(exprs[i % len(exprs)])
        rng.shuffle(self.specs)
        self.actions = set(rng.sample(range(len(self.specs)),
                                      int(len(self.specs) * ACTION_SHARE)))
        self.cold_exprs = _cold_expressions(rng)
        self.start_tick = oracle.tick_of(START)
        self._reset()

    def _reset(self) -> None:
        #: rule name -> (fire ticks, weekday set, anchor year or None,
        #: declared at tick)
        self.tracked: dict[str, tuple[list, set, int | None, int]] = {}
        self.max_drift = 0
        self.callback_fires = 0
        #: fire_log rows counted and discarded at month ends so far.
        self.rotated_rows = 0

    # -- set-up ---------------------------------------------------------------

    @staticmethod
    def reset() -> None:
        get_default_cache().clear()

    def build(self, rec=None, probe=None):
        self._reset()

        def setup_span(name):
            return rec.op(name) if rec is not None else nullcontext()

        with setup_span("setup.session"):
            session = Session("Jan 1 1987", holiday_years=(1987, 2016),
                              workers=1, clock_start=self.start_tick)
            session.db.create_table("fire_log", [("rule", "text"),
                                                 ("t", "abstime")])
        for index, (expr, weekdays) in enumerate(self.specs):
            if probe is not None:
                probe.tick()
            name = f"r{index}"
            with setup_span("setup.declare"):
                if rec is None:
                    self._declare(session, name, expr, weekdays,
                                  action=index in self.actions)
                else:
                    with rec.span("rules.declare"):
                        self._declare(session, name, expr, weekdays,
                                      action=index in self.actions)
        return session

    def _declare(self, session, name: str, expr: str, weekdays,
                 year: int | None = None, action: bool = False):
        """Declare one rule; a pure weekday pattern (``weekdays`` set, in
        ``year`` only if given) is tracked for the fire-tick oracle."""
        if action:
            return session.rules.on_calendar(
                name, expression=expr,
                do=[f'append fire_log (rule = "{name}", t = now.t)'])
        clock = session.clock
        fires: list = []
        if weekdays is not None:
            self.tracked[name] = (fires, weekdays, year, clock.now)

        def callback(db, tick):
            self.callback_fires += 1
            self.max_drift = max(self.max_drift, clock.now - tick)
            fires.append(tick)
        return session.rules.on_calendar(name, expression=expr,
                                         callback=callback)

    def warmup(self, session) -> None:
        if session.system.day_of("Jan 1 1993") != self.start_tick:
            raise RuntimeError("program epoch differs from the oracle's")

    # -- the op stream ----------------------------------------------------------------

    def ops(self):
        """Day / cold declare / batch declare cycles until the cold
        expressions run out (far beyond a run at the time of writing);
        the timed phase then ends with the stream."""
        reuse = random.Random(self.seed + 1)
        serial = itertools.count()
        for expr, weekdays, year in self.cold_exprs:
            yield Op("warm", "day")
            yield Op("cold", "declare", expr,
                     {"name": f"cold{next(serial)}", "weekdays": weekdays,
                      "year": year})
            batch = [(f"more{next(serial)}", reuse.choice(FAR_FUTURE)[0])
                     for _ in range(WRITE_BATCH)]
            yield Op("write", "declare_batch", batch[0][1], {"batch": batch})

    def execute(self, session, op: Op):
        if op.kind == "day":
            return session.cron.run_until(session.clock.now + 1)
        if op.kind == "declare_batch":
            return [self._declare(session, name, expr, None)
                    for name, expr in op.args["batch"]]
        return self._declare(session, op.args["name"], op.text,
                             op.args["weekdays"], op.args["year"])

    def check(self, session, op: Op, result) -> bool:
        if op.kind == "day":
            if oracle.date_of(session.clock.now).day == 1:
                # Monthly maintenance, untimed: rotate the log (counted,
                # then truncated) and vacuum the dead RULE_TIME versions
                # every fire leaves, so the state a run ends with does not
                # grow with the number of days it covered.
                log = session.db.relation("fire_log")
                self.rotated_rows += len(log)
                log.truncate()
                session.db.vacuum()
            return result >= 0
        if op.kind == "declare_batch":
            return all(name in session.rules for name, _ in op.args["batch"])
        return op.args["name"] in session.rules

    traced_check = check

    def traced(self, session, op: Op, rec, stats: dict):
        """One span per public call: ``DBCron.run_until(now + 1)`` split
        into its probe / clock-advance (which fires) / probe / fire_due
        steps, and a declaration with its periodic compile first."""
        if op.kind == "day":
            cron = session.cron
            before = cron.stats.fires
            with rec.span("dbcron.probe"):
                cron.probe()
            with rec.span("dbcron.fire"):
                session.clock.advance(1)
            with rec.span("dbcron.probe"):
                cron.probe()
            with rec.span("dbcron.fire"):
                cron.fire_due()
            stats["fires"] = stats.get("fires", 0) + cron.stats.fires - before
            return cron.stats.fires - before
        if op.kind == "declare_batch":
            out = []
            for name, expr in op.args["batch"]:
                with rec.span("rules.declare"):
                    out.append(self._declare(session, name, expr, None))
            return out
        with rec.span("periodic.compile"):
            session.registry.periodic_set(op.text)
        with rec.span("rules.declare"):
            return self._declare(session, op.args["name"], op.text,
                                 op.args["weekdays"], op.args["year"])

    # -- counters, layer metrics, checks --------------------------------------------------

    @staticmethod
    def counters(session) -> dict:
        out = program_counters(session)
        out["dbcron.fires"] = session.cron.stats.fires
        out["dbcron.probes"] = session.cron.stats.probes
        cascades = getattr(session.cron.sched, "cascades", None)
        out["dbcron.wheel.cascades"] = cascades() if cascades else 0
        return out

    def layer_metrics(self, session, stats: dict, rec, baseline) -> dict:
        delta = baseline["counters"]
        times = rec.self_times()
        fire_s = times.get("dbcron.fire", (0, 0.0))[1]
        probe_s = times.get("dbcron.probe", (0, 0.0))[1]
        days = max(1, sum(1 for span in rec.spans if span[0] == "op.warm"))
        return {
            "dbcron.fires": (delta["dbcron.fires"], "count"),
            "dbcron.probes": (delta["dbcron.probes"], "count"),
            "dbcron.wheel.cascades": (delta["dbcron.wheel.cascades"],
                                      "count"),
            "dbcron.fire_drift_ticks": (self.max_drift, "ticks"),
            "dbcron.fires_per_s": (
                stats.get("fires", 0) / max(1e-9, fire_s + probe_s), "1/s"),
            "dbcron.probe_ms": (probe_s / days * 1e3, "ms"),
            "dbcron.fire_ms": (fire_s / days * 1e3, "ms"),
        }

    def extra_metrics(self, session, loop) -> dict:
        """The DBCRON view of the loop (printed, not gated): a tick is
        one simulated day, so ``tick_*`` are ``warm_*`` of this workload."""
        days = loop.corrected["warm"]
        return {"fires_per_s": session.cron.stats.fires / max(1e-9,
                                                               sum(days)),
                "tick_p50_ms": percentile(days, 50) * 1e3,
                "tick_p90_ms": percentile(days, 90) * 1e3,
                "simulated_days": len(days),
                "fires": session.cron.stats.fires}

    def final_checks(self, session) -> list[tuple[str, bool]]:
        now = session.clock.now
        wrong = []
        for name, (fires, weekdays, year, declared) in self.tracked.items():
            expected = [t for t in range(declared + 1, now + 1)
                        if _fires_on(oracle.date_of(t), weekdays, year)]
            if fires != expected:
                wrong.append(name)
        manager = session.manager
        action_fires = sum(rule.fire_count
                           for rule in manager.temporal_rules.values()
                           if rule.actions)
        log_rows = self.rotated_rows + len(session.db.relation("fire_log"))
        return [
            (f"weekday-pattern rule fire ticks == datetime "
             f"({len(self.tracked)} rules, wrong: {wrong[:3]})", not wrong),
            ("fire_log rows (with monthly rotations) == action fires",
             log_rows == action_fires),
            ("fires == callback fires + action fires",
             session.cron.stats.fires == self.callback_fires + action_fires),
            ("fire drift == 0 ticks", self.max_drift == 0),
        ]

    def describe(self) -> dict:
        return {
            "rules": self.rules_n, "action_share": ACTION_SHARE,
            "mix": [{"share": share, "expressions": [e for e, _ in exprs]}
                    for share, exprs in MIX],
            "start": str(START),
            "op_cycle": ["day (warm)", "declare new expression (cold)",
                         f"declare {WRITE_BATCH} rules with compiled "
                         f"far-future expressions (write)"],
            "distinct_cold_expressions": len(self.cold_exprs),
        }



def _fires_on(date: datetime.date, weekdays: set, year: int | None) -> bool:
    """A weekday pattern, if anchored then only in weeks wholly inside
    the anchor year (``WEEKS:during:<year>/YEARS`` is strict)."""
    return date.isoweekday() in weekdays and (
        year is None or (date.year == year and oracle.week_within_year(date)))
