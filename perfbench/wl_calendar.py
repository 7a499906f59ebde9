"""Workload ``calendar_eval``: a seeded CEL stream through ``Session.eval``.

Over the default 30-year catalog (1987-2016, US holidays installed) the
stream mixes foreach (strict and relaxed), selections (``[n]``, negative
predicates), the set operators ``&``/``-``/``+``, named catalog
calendars, the paper's Figure 2/3 expressions, "Tuesdays 1993" and the
section 3.3 scripts E6-E8.  Two ops in ``PATTERN`` are first-touch texts
drawn round-robin from the cold templates (skipping any that run out;
the stream ends when all have), one is a catalog write (``define
calendar``), and the rest cycle through a hot set small enough to stay
in the materialisation cache.

A catalog write bumps its registry's version, which invalidates every
plan memoised against that catalog, so the writes go to a second
session in the same process (its own catalog, the shared matcache):
they run among the reads, sampling the whole run's machine speed, and
the reads' warm plans stay warm.
"""

from __future__ import annotations

import calendar as pycal
import collections
import datetime
import itertools
import random

from dateutil import rrule

import oracle
from common import Op, program_counters

from repro import Session
from repro.core.calendar import Calendar
from repro.core.granularity import Granularity
from repro.core.matcache import get_default_cache
from repro.lang.errors import ParseError, PlanError
from repro.lang.factorizer import factorize
from repro.lang.interpreter import Interpreter
from repro.lang.optimizer import optimize_plan
from repro.lang.parser import parse_expression, parse_script
from repro.lang.plan import PlanVM
from repro.lang.planner import compile_expression

NAME = "calendar_eval"
WHY = ("CEL front end, periodic compiler, kernels and matcache do the work; "
       "db and rules idle. 1 op in 5 is a first-touch text, 1 in 10 a "
       "catalog write, the rest repeat a cached hot set")

#: The op classes, repeated: a 20% cold share, a 10% write share.
PATTERN = ("warm", "warm", "warm", "warm", "cold",
           "warm", "warm", "write", "warm", "cold")
#: Terms of each written calendar's expression.
DEFINE_TERMS = 4
#: Cold expressions re-checked against the reference interpreter on the
#: unfactorized AST after the timed phase.
ORACLE_SAMPLES = 12
YEARS = range(1987, 2017)
#: Days of a month every month has.
MONTH_DAYS = range(1, 29)
#: Op kinds that are scripts (run by the interpreter, not a plan).
SCRIPTS = ("e6", "e7", "e8")

E6 = ("{LDOM_t = [n]/DAYS:during:MONTHS;"
      " LDOM_HOL = LDOM_t:intersects:HOLIDAYS;"
      " LAST_BUS_DAY = [n]/AM_BUS_DAYS:<:LDOM_HOL;"
      " return (LDOM_t - LDOM_HOL + LAST_BUS_DAY);}")
#: E7 with the expiration month, year and Friday ordinal (3 in the paper).
E7 = ("{EM = [%d]/MONTHS:during:%d/YEARS;"
      " Fris = [5]/DAYS:during:WEEKS;"
      " temp1 = [%d]/Fris:overlaps:EM;"
      " if (temp1:intersects:HOLIDAYS) return([n]/AM_BUS_DAYS:<:temp1);"
      " else return(temp1);}")
E8 = ("{EM = [11]/MONTHS:during:1993/YEARS;"
      " temp1 = [n]/AM_BUS_DAYS:during:EM;"
      " temp2 = [-7]/AM_BUS_DAYS:<:temp1;"
      " while (today:<:temp2) ;"
      " return (\"LAST TRADING DAY\");}")
FIGURE_2 = "[1]/DAYS:during:WEEKS:during:[1]/MONTHS:during:1993/YEARS"
FIGURE_3 = "[3]/WEEKS:overlaps:[1]/MONTHS:during:1993/YEARS"
TUESDAYS_1993 = "([2]/DAYS:during:WEEKS) & 1993/YEARS"

#: Cold templates: name -> (parameter space, text builder).  Every
#: template is anchored or selective enough that a first touch costs
#: milliseconds, and together they hold far more distinct texts than the
#: matcache's 256 entries or its 2048-entry memo.  Each holds at least
#: 630 texts, against ~50 per template that a 20 s run used when this
#: was written, and within a template no text respells another's
#: calendar (no ``[-1]`` for ``[7]``, no swapped operands).  Where one
#: operator shape has too few, a day of the week and a day of the month
#: both feed it.
COLD_TEMPLATES = {
    "and_year": (
        lambda: itertools.chain(
            (("WEEKS", k, y) for k in range(1, 8) for y in YEARS),
            (("MONTHS", d, y) for d in MONTH_DAYS for y in YEARS)),
        lambda g, k, y: f"([{k}]/DAYS:during:{g}) & {y}/YEARS"),
    "minus_holidays": (
        lambda: itertools.chain(
            (("WEEKS", k, y) for k in range(1, 6) for y in YEARS),
            (("MONTHS", d, y) for d in MONTH_DAYS for y in YEARS)),
        lambda g, k, y: (f"([{k}]/DAYS:during:{g}:during:{y}/YEARS)"
                         f" - HOLIDAYS")),
    "union": (
        lambda: ((a, b, y) for a in range(1, 8) for b in range(a + 1, 8)
                 for y in YEARS),
        lambda a, b, y: (f"([{a}]/DAYS:during:WEEKS:during:{y}/YEARS) + "
                         f"([{b}]/DAYS:during:WEEKS:during:{y}/YEARS)")),
    "figure2_shape": (
        lambda: itertools.product(range(1, 8), range(1, 13), YEARS),
        lambda d, m, y: (f"[{d}]/DAYS:during:WEEKS:during:[{m}]/MONTHS"
                         f":during:{y}/YEARS")),
    "figure3_shape": (
        lambda: itertools.product(range(1, 5), range(1, 13), YEARS),
        lambda w, m, y: f"[{w}]/WEEKS:overlaps:[{m}]/MONTHS:during:{y}/YEARS"),
    "relaxed": (
        lambda: itertools.chain(
            (("WEEKS", k, y) for k in range(1, 8) for y in YEARS),
            (("MONTHS", d, y) for d in MONTH_DAYS for y in YEARS)),
        lambda g, k, y: f"[{k}]/DAYS.during.{g}.during.{y}/YEARS"),
    "negative": (
        lambda: itertools.product(MONTH_DAYS, YEARS),
        lambda d, y: f"[-{d}]/DAYS:during:MONTHS:during:{y}/YEARS"),
    "bus_days": (
        lambda: itertools.product(("n", "1", "-1", "2"), range(1, 13), YEARS),
        lambda s, m, y: (f"[{s}]/AM_BUS_DAYS:during:[{m}]/MONTHS"
                         f":during:{y}/YEARS")),
    # E6 over a yearly window starting on day 1-20 of a month (a later
    # start could push a holiday month end's roll-back out of it).
    "e6_window": (lambda: itertools.product(
        range(1, 21), range(1, 13), range(1988, 2016)), None),
    # E7 for the 1st-4th Friday of a month.
    "e7_month": (lambda: itertools.product(range(1, 13), YEARS,
                                           range(1, 5)), None),
}


def _d(date: datetime.date) -> str:
    return f"{pycal.month_abbr[date.month]} {date.day} {date.year}"


def _year_window(day: int, month: int, year: int) -> tuple[str, str]:
    """A one-year window starting on ``day`` of ``month``."""
    start = datetime.date(year, month, day)
    end = datetime.date(year + 1, month, day) - datetime.timedelta(days=1)
    return _d(start), _d(end)


class Workload:
    name = NAME
    #: Set-ups before and again after the loop (construction is ~10 ms).
    setup_repeats = 15
    #: The reading session is checkpointed after the loop.
    checkpoint_before_loop = False
    #: Checkpoints of the final state (median reported).
    checkpoint_repeats = 31

    def __init__(self, seed: int, scale: float = 1.0) -> None:
        self.seed = seed
        self.rng = random.Random(seed)
        #: The session catalog writes go to (see the module docstring).
        self.writer = None
        #: (name, script) of each calendar the timed phase wrote.
        self.written: list[tuple[str, str]] = []
        self.holidays = oracle.HolidayOracle(1987, 2016)
        self.hot = self._hot_set()
        self.cold_pools = self._cold_pools()
        #: Cold op ordinals whose results are kept for the oracle check.
        self.sampled: dict[int, object] = {}
        self._cold_seen = 0
        #: Hot op key -> its warm-up result and that result's fingerprint;
        #: every warm serve must reproduce the fingerprint.
        self.warm_results: dict = {}
        self.expected: dict = {}

    # -- inputs ---------------------------------------------------------------

    def _hot_set(self) -> list[Op]:
        rng = self.rng
        y = rng.choice(YEARS)
        k = rng.randrange(1, 8)
        a, b = rng.sample(range(1, 8), 2)
        d = rng.randrange(1, 8)
        m = rng.randrange(1, 13)
        e6_year = rng.choice(range(1988, 2016))
        hot = [
            Op("warm", "figure2", FIGURE_2),
            Op("warm", "figure3", FIGURE_3),
            Op("warm", "tuesdays_1993", TUESDAYS_1993),
            Op("warm", "named", "HOLIDAYS"),
            Op("warm", "named", "AM_BUS_DAYS"),
            Op("warm", "e6", E6, {"window": _year_window(1, 1, e6_year),
                                  "start": (1, 1, e6_year)}),
            Op("warm", "e6", E6, {"window": _year_window(1, 1, 1993),
                                  "start": (1, 1, 1993)}),
            Op("warm", "e7", E7 % (11, 1993, 3),
               {"window": ("Jan 1 1993", "Dec 31 1993"),
                "month": 11, "year": 1993, "nth": 3}),
            Op("warm", "e8", E8, {"window": ("Oct 1 1993", "Dec 31 1993"),
                                  "today": "Nov 30 1993"}),
            Op("warm", "expr", f"([{k}]/DAYS:during:WEEKS) - HOLIDAYS"),
            Op("warm", "expr", f"([{a}]/DAYS:during:WEEKS) + "
                               f"([{b}]/DAYS:during:WEEKS)"),
            Op("warm", "expr", "[n]/AM_BUS_DAYS:during:MONTHS"),
            Op("warm", "expr", f"[-{d}]/DAYS:during:MONTHS"),
            Op("warm", "expr", f"[{k}]/DAYS.during.WEEKS"),
            Op("warm", "expr", f"([{k}]/DAYS:during:WEEKS) & {y}/YEARS"),
            Op("warm", "expr", f"[{d}]/DAYS:during:WEEKS:during:[{m}]/MONTHS"
                               f":during:{y}/YEARS"),
        ]
        return hot

    def _cold_pools(self) -> dict:
        pools = {}
        for name, (space, build) in COLD_TEMPLATES.items():
            params = list(space())
            self.rng.shuffle(params)
            pools[name] = (params, build)
        return pools

    def _cold_op(self, template: str, params) -> Op:
        if template == "e6_window":
            return Op("cold", "e6", E6, {"window": _year_window(*params),
                                         "start": params})
        if template == "e7_month":
            month, year, nth = params
            return Op("cold", "e7", E7 % (month, year, nth),
                      {"window": (f"Jan 1 {year}", f"Dec 31 {year}"),
                       "month": month, "year": year, "nth": nth})
        build = COLD_TEMPLATES[template][1]
        return Op("cold", "expr", build(*params))

    def distinct_cold_texts(self) -> int:
        return sum(len(params) for params, _ in self.cold_pools.values())

    def _cold_stream(self, template: str):
        """The template's first-touch ops in seeded order, minus any that
        coincide with a hot op."""
        hot_keys = {_key(op) for op in self.hot}
        for params in self.cold_pools[template][0]:
            op = self._cold_op(template, params)
            if _key(op) not in hot_keys:
                yield op

    def ops(self):
        """Op classes follow ``PATTERN``: cold ops round-robin over the
        cold templates, writes define a new calendar each, warm ops cycle
        the shuffled hot set.  A template that runs out is skipped, and
        the stream ends when all have (far beyond a run at the time of
        writing)."""
        rng = random.Random(self.seed + 1)
        cold = collections.deque(self._cold_stream(template)
                                 for template in COLD_TEMPLATES)
        writes = itertools.count()
        hot_order: list[Op] = []
        for cls in itertools.cycle(PATTERN):
            if cls == "write":
                yield _define_op(next(writes))
            elif cls == "cold":
                op = None
                while cold and op is None:
                    stream = cold.popleft()
                    op = next(stream, None)
                    if op is not None:
                        cold.append(stream)
                if op is None:
                    return
                yield op
            else:
                if not hot_order:
                    hot_order = list(self.hot)
                    rng.shuffle(hot_order)
                yield hot_order.pop()

    # -- set-up -----------------------------------------------------------------

    @staticmethod
    def reset() -> None:
        get_default_cache().clear()

    def build(self, rec=None, probe=None):
        """The reading session; the writing one is kept on the workload."""
        def session():
            return Session("Jan 1 1987", holiday_years=(1987, 2016),
                           workers=1)
        self.writer = None
        self.written = []
        if rec is None:
            self.writer = session()
            return session()
        with rec.op("setup.session"):
            with rec.span("catalog.install"):
                self.writer = session()
                return session()

    def warmup(self, session) -> None:
        """First touch of the hot set (untimed): warm means cached."""
        for op in self.hot:
            result = self.execute(session, op)
            self.warm_results[_key(op)] = result
            self.expected[_key(op)] = _fingerprint(result)

    # -- execution ----------------------------------------------------------------

    def execute(self, session, op: Op):
        if op.kind == "define":
            return self.writer.query(op.text)
        return session.eval(op.text, window=op.args.get("window"),
                            today=op.args.get("today"))

    def check(self, session, op: Op, result) -> bool:
        if op.kind == "define":
            self.written.append((op.args["name"], op.args["script"]))
            return op.args["name"] in self.writer.registry
        if op.cls == "warm":
            return _fingerprint(result) == self.expected[_key(op)]
        ordinal = self._cold_seen
        self._cold_seen += 1
        if op.kind == "e6":
            return self._check_e6(session, result, op.args)
        if op.kind == "e7":
            return self._check_e7(session, result, op.args)
        if not isinstance(result, Calendar):
            return False
        if ordinal % 7 == 3 and len(self.sampled) < ORACLE_SAMPLES:
            self.sampled[ordinal] = (op.text, result)
        return True

    # -- traced execution -------------------------------------------------------

    def traced(self, session, op: Op, rec, stats: dict):
        """The op with spans around the program's public calls.

        Warm ops run ``Session.eval`` whole, in one span named after the
        layer that does their work (``lang.interp`` for the scripts,
        ``lang.vm`` otherwise): their plans are memoised, so what is
        timed is the program's own path.  Cold ops take the steps of
        ``Session.eval`` as separate calls, one span each: parse, then
        (expressions) factorize, plan, periodic memo peek, optimize, VM
        and the small-tier periodic compile, or (scripts) the
        interpreter.  This split must be kept in step with
        ``CalendarRegistry.eval_expression`` / ``eval_script``, which
        ``Session.eval`` routes a text to.
        """
        registry = session.registry
        window, today = op.args.get("window"), op.args.get("today")
        if op.kind == "define":
            with rec.span("db.execute"):
                return self.writer.query(op.text)
        if op.cls == "warm":
            with rec.span("lang.interp" if op.kind in SCRIPTS
                          else "lang.vm"):
                return self.execute(session, op)
        with rec.span("catalog.context"):
            ctx = registry.context(window, today=today)
        try:
            with rec.span("lang.parse"):
                expr = parse_expression(op.text)
        except ParseError:
            with rec.span("lang.parse"):
                script = parse_script(op.text)
            with rec.span("lang.interp"):
                result = Interpreter(ctx).execute(script)
            _count(stats, ctx, result)
            return result
        with rec.span("lang.factorize"):
            factored = factorize(expr, registry.resolver).expression
        days = registry.periodic and ctx.unit is Granularity.DAYS
        try:
            with rec.span("lang.plan"):
                plan = compile_expression(
                    factored, registry.system, registry.resolver,
                    context_window=ctx.window, matcache=registry.matcache)
            if registry.optimize:
                pset = None
                if days:
                    with rec.span("periodic.peek"):
                        pset = registry.periodic_set(op.text, peek=True)
                with rec.span("lang.optimize"):
                    outcome = optimize_plan(
                        plan, context_window=ctx.window, unit=ctx.unit,
                        periodic=pset,
                        metrics=registry.instrumentation.metrics)
                stats["rewrites"] += len(outcome.rewrites)
                plan = outcome.plan
            with rec.span("lang.vm"):
                result = PlanVM(ctx).run(plan)
        except PlanError:
            with rec.span("lang.interp"):
                result = Interpreter(ctx).evaluate(factored)
            _count(stats, ctx, result)
            return result
        if days:
            with rec.span("periodic.compile"):
                registry.periodic_set(op.text, full=False)
        _count(stats, ctx, result)
        return result

    def traced_check(self, session, op: Op, result) -> bool:
        """Cold results must equal ``Session.eval``'s; warm ones their
        warm-up result."""
        if op.kind == "define":
            return op.args["name"] in self.writer.registry
        if op.cls == "warm":
            return _fingerprint(result) == self.expected[_key(op)]
        return _fingerprint(result) == _fingerprint(self.execute(session, op))

    @staticmethod
    def counters(session) -> dict:
        return program_counters(session)

    def layer_metrics(self, session, stats: dict, rec, baseline) -> dict:
        """Per cold op: warm ops run ``Session.eval`` whole, so only the
        cold ops' contexts show what the kernels generated."""
        cold = max(1, stats["cold_ops"])
        return {
            "optimizer.rewrites": (stats["rewrites"] / cold, "count/op"),
            "core.generated_intervals_per_op": (stats["generated"] / cold,
                                                "count/op"),
            "core.generated_per_served": (
                stats["generated"] / max(1, stats["served"]), "ratio"),
        }

    @staticmethod
    def extra_metrics(session, loop) -> dict:
        return {}

    # -- oracles ------------------------------------------------------------------

    def _check_e6(self, session, result, args) -> bool:
        """The last day of each of the window's twelve months, a holiday
        one replaced by the business day before it."""
        if not isinstance(result, Calendar):
            return False
        day, month, year = args["start"]
        expected = []
        for i in range(12):
            y, m = year + (month - 1 + i) // 12, (month - 1 + i) % 12 + 1
            last = datetime.date(y, m, pycal.monthrange(y, m)[1])
            expected.append(_d(self.holidays.roll_back_holiday(last)))
        return _dates(session, result) == expected

    def _check_e7(self, session, result, args) -> bool:
        """The month's ``nth`` Friday, or the business day before it when
        it is a holiday — nothing when that falls before the window (a
        holiday Friday January 1st)."""
        if not isinstance(result, Calendar):
            return False
        year = args["year"]
        day = self.holidays.roll_back_holiday(
            oracle.nth_weekday(year, args["month"], 5, args["nth"]))
        return _dates(session, result) == (
            [_d(day)] if day.year == year else [])

    def _hot_reference(self, session, op: Op) -> bool:
        """The warm-up result every serve of ``op`` was compared with,
        against an oracle outside the timed path: ``datetime`` for the
        scripts, the reference ``Interpreter`` (unfactorized AST, or the
        stored script of a catalog name) for the rest."""
        result = self.warm_results[_key(op)]
        if op.kind == "e6":
            return self._check_e6(session, result, op.args)
        if op.kind == "e7":
            return self._check_e7(session, result, op.args)
        if op.kind == "e8":
            return result == "LAST TRADING DAY"
        registry = session.registry
        window = op.args.get("window")
        if op.kind == "named":
            reference = registry.evaluate(op.text, window=window,
                                          use_plan=False)
        else:
            reference = Interpreter(registry.context(window)).evaluate(
                parse_expression(op.text))
        return _fingerprint(reference) == _fingerprint(result)

    def final_checks(self, session) -> list[tuple[str, bool]]:
        checks = [
            ("tuesdays_1993 == dateutil.rrule",
             _dates(session, session.eval(TUESDAYS_1993)) == [
                 _d(d.date()) for d in rrule.rrule(
                     rrule.WEEKLY, byweekday=rrule.TU,
                     dtstart=datetime.datetime(1993, 1, 1),
                     until=datetime.datetime(1993, 12, 31))]),
            ("figure2 == Mondays of January 1993",
             _dates(session, session.eval(FIGURE_2)) == [
                 _d(datetime.date(1993, 1, day)) for day in range(1, 32)
                 if datetime.date(1993, 1, day).isoweekday() == 1]),
            ("figure3 == third week overlapping January 1993",
             _spans(session, session.eval(FIGURE_3)) ==
             [_third_week_jan_1993()]),
            ("e6 1993 == EXPERIMENTS.md E6",
             _dates(session, session.eval(
                 E6, window=("Jan 1 1993", "Dec 31 1993"))) == [
                 "Jan 31 1993", "Feb 28 1993", "Mar 31 1993", "Apr 30 1993",
                 "May 28 1993", "Jun 30 1993", "Jul 31 1993", "Aug 31 1993",
                 "Sep 30 1993", "Oct 31 1993", "Nov 30 1993",
                 "Dec 31 1993"]),
            ("e7 Nov 1993 == Nov 19 1993",
             _dates(session, session.eval(
                 E7 % (11, 1993, 3), window=("Jan 1 1993", "Dec 31 1993")))
             == ["Nov 19 1993"]),
            ("e8 == LAST TRADING DAY",
             session.eval(E8, window=("Oct 1 1993", "Dec 31 1993"),
                          today="Nov 30 1993") == "LAST TRADING DAY"),
        ]
        for op in self.hot:
            checks.append((f"hot {op.kind} {op.text[:60]!r} "
                           f"{op.args.get('window')} == reference",
                           self._hot_reference(session, op)))
        registry = session.registry
        for ordinal, (text, result) in sorted(self.sampled.items()):
            ctx = registry.context(None)
            reference = Interpreter(ctx).evaluate(parse_expression(text))
            checks.append((f"cold #{ordinal} == interpreter: {text}",
                           _fingerprint(reference) == _fingerprint(result)))
        # Written calendars, spread over the phase: the writer's stored
        # calendar against the reference interpreter on its script.
        step = max(1, len(self.written) // ORACLE_SAMPLES)
        for name, script in self.written[::step][:ORACLE_SAMPLES]:
            reference = Interpreter(registry.context(None)).execute(
                parse_script(script))
            checks.append((f"written {name} == interpreter: {script}",
                           _fingerprint(self.writer.eval(name)) ==
                           _fingerprint(reference)))
        return checks

    def describe(self) -> dict:
        return {
            "catalog": "standard calendars + US holidays 1987-2016, "
                       "30-year default window",
            "hot_set_texts": len(self.hot),
            "cold_share": PATTERN.count("cold") / len(PATTERN),
            "write_share": PATTERN.count("write") / len(PATTERN),
            "cold_templates": {name: len(params) for name, (params, _)
                               in self.cold_pools.items()},
            "distinct_cold_texts": self.distinct_cold_texts(),
            "matcache_entries": get_default_cache().maxsize,
            "matcache_memo_entries": get_default_cache().memo_maxsize,
            "writes": "define calendar in a second session's catalog",
            "oracle_samples": ORACLE_SAMPLES,
        }


def _define_script(i: int) -> str:
    """A union of ``DEFINE_TERMS`` weekday-of-month foreach terms."""
    terms = (f"([{1 + (i + t) % 7}]/DAYS:during:WEEKS:during:"
             f"[{1 + (i + 5 * t) % 12}]/MONTHS)" for t in range(DEFINE_TERMS))
    return f"{{return({' + '.join(terms)});}}"


def _define_op(i: int) -> Op:
    script = _define_script(i)
    return Op("write", "define",
              f'define calendar BENCH_CAL_{i} as "{script}"',
              {"name": f"BENCH_CAL_{i}", "script": script})


def _key(op: Op) -> tuple:
    """What makes two evaluations the same: text, window and today."""
    return op.text, op.args.get("window"), op.args.get("today")


def _count(stats: dict, ctx, result) -> None:
    stats["generated"] += ctx.stats["intervals_generated"]
    if isinstance(result, Calendar):
        stats["served"] += len(result)


def _fingerprint(result) -> object:
    """The whole content of a result, built without materialising
    ``Interval`` objects: order, granularity, labels and every leaf
    ``(lo, hi)`` pair in its group."""
    if not isinstance(result, Calendar):
        return result
    if result.order == 1:
        content = tuple(result.iter_pairs())
    else:
        content = tuple(_fingerprint(el) for el in result.elements)
    return result.order, result.granularity, result.labels, content


def _dates(session, cal) -> list[str]:
    return [str(session.system.date_of(iv.lo)) for iv in cal.iter_intervals()]


def _spans(session, cal) -> list[tuple[str, str]]:
    return [(str(session.system.date_of(iv.lo)),
             str(session.system.date_of(iv.hi))) for iv in cal.iter_intervals()]


def _third_week_jan_1993() -> tuple[str, str]:
    monday = datetime.date(1993, 1, 1)
    monday -= datetime.timedelta(days=monday.isoweekday() - 1)
    weeks = []
    while monday <= datetime.date(1993, 1, 31):
        weeks.append((monday, monday + datetime.timedelta(days=6)))
        monday += datetime.timedelta(days=7)
    start, end = weeks[2]
    return _d(start), _d(end)
