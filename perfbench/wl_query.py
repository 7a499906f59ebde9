"""Workload ``valid_time_query``: Postquel over a 50k-row valid-time table.

``trades`` holds ten years (1993-2002) of seeded daily trades, indexed
on ``sym``; ``spans`` is a 500-row interval relation.  The read mix
covers ``within`` over catalog calendars and over first-touch calendar
expressions (which pay the full-tier periodic compile), ``on CAL``,
indexed equality, an aggregate, an equi-join, an ``overlaps`` join and
one disjunctive WHERE the vector planner refuses (run against the small
relation, so the row engine is timed without dominating).  ``append``
statements are interleaved, so a read gain that costs index or lane
maintenance shows up in ``write_*``.  Every count is checked against a
recount of the generated rows kept beside the program.
"""

from __future__ import annotations

import datetime
from contextlib import nullcontext
import itertools
import random

import oracle
from common import Op, program_counters

from repro import Session
from repro.core.matcache import get_default_cache
from repro.db import vector
from repro.db.executor import Executor
from repro.db.ql.parser import parse_statement

NAME = "valid_time_query"
WHY = ("db parser, vector executor, index, storage and persist do the work; "
       "calendars only as within probes. 1 op in 4 is a first-touch within, "
       "1 in 4 an append")

ROWS = 50_000
SPANS = 500
#: Rows of ``desks``, self-joined by the refused statement: its
#: disjunctive join conjunct keeps it on the row engine, DESKS^2 pairs.
DESKS = 30
SYMBOLS = 50
FIRST_YEAR, YEARS = 1993, 10
#: The repeating op pattern: 1 cold read, 2 warm reads, 1 append.
PATTERN = ("cold", "warm", "write", "warm")

COUNT = "retrieve (count()) from t in trades where t.day within \"%s\""


def _year_range():
    return range(FIRST_YEAR, FIRST_YEAR + YEARS)


#: Cold ``within`` templates: name -> (parameter space, text, predicate
#: factory).  A predicate takes a date and a HolidayOracle.
COLD_TEMPLATES = {
    "and_year": (
        lambda: itertools.product(range(1, 8), _year_range()),
        lambda k, y: f"([{k}]/DAYS:during:WEEKS) & {y}/YEARS",
        lambda k, y: lambda d, h: d.isoweekday() == k and d.year == y),
    "week_in_month": (
        lambda: itertools.product(range(1, 8), range(1, 13), _year_range()),
        lambda k, m, y: (f"[{k}]/DAYS:during:WEEKS:during:[{m}]/MONTHS"
                         f":during:{y}/YEARS"),
        lambda k, m, y: lambda d, h: (d.isoweekday() == k and d.year == y
                                      and d.month == m
                                      and oracle.week_within_month(d))),
    "day_of_month": (
        lambda: itertools.product(range(1, 29), _year_range()),
        lambda n, y: f"[{n}]/DAYS:during:MONTHS:during:{y}/YEARS",
        lambda n, y: lambda d, h: d.day == n and d.year == y),
    "weekday_set": (
        lambda: itertools.chain(
            (("range", a, b) for a in range(1, 8) for b in range(a + 1, 8)),
            (("union", a, b) for a in range(1, 8) for b in range(a + 1, 8))),
        lambda form, a, b: (f"[{a}-{b}]/DAYS:during:WEEKS" if form == "range"
                            else f"([{a}]/DAYS:during:WEEKS) + "
                                 f"([{b}]/DAYS:during:WEEKS)"),
        lambda form, a, b: (
            (lambda d, h: a <= d.isoweekday() <= b) if form == "range"
            else (lambda d, h: d.isoweekday() in (a, b)))),
    "minus_holidays": (
        lambda: ((a, b) for a in range(1, 8) for b in range(a, 8)),
        lambda a, b: (f"([{a}]/DAYS:during:WEEKS) - HOLIDAYS" if a == b
                      else f"flatten([{a}-{b}]/DAYS:during:WEEKS) - HOLIDAYS"),
        lambda a, b: lambda d, h: (a <= d.isoweekday() <= b
                                   and not h.is_holiday(d))),
    "business_day": (
        lambda: itertools.product(("1", "n"), range(1, 13), _year_range()),
        lambda s, m, y: (f"[{s}]/AM_BUS_DAYS:during:[{m}]/MONTHS"
                         f":during:{y}/YEARS"),
        lambda s, m, y: _business_pred(s, m, y)),
}

#: Catalog calendars probed by warm reads, with their oracles.
CATALOG = {
    "Mondays": lambda d, h: d.isoweekday() == 1,
    "Weekdays": lambda d, h: d.isoweekday() <= 5,
    "LDOM": lambda d, h: oracle.is_last_of_month(d),
    "HOLIDAYS": lambda d, h: h.is_holiday(d),
    "AM_BUS_DAYS": lambda d, h: h.is_business_day(d),
}


def _business_pred(s: str, m: int, y: int):
    cache = {}

    def pred(d, h):
        if "day" not in cache:
            days = h.business_days(y, m)
            cache["day"] = days[0] if s == "1" else days[-1]
        return d == cache["day"]
    return pred


class Workload:
    name = NAME
    #: Set-ups before and again after the loop.
    setup_repeats = 3
    #: Checkpointed after the loop: the appends are part of the state.
    checkpoint_before_loop = False
    #: Checkpoints of the final state (median reported).
    checkpoint_repeats = 3

    def __init__(self, seed: int, scale: float = 1.0) -> None:
        self.seed = seed
        rng = random.Random(seed)
        self.rows_n = max(200, int(ROWS * scale))
        self.spans_n = max(20, int(SPANS * scale))
        first = datetime.date(FIRST_YEAR, 1, 1)
        self.days = [first + datetime.timedelta(days=i)
                     for i in range((datetime.date(FIRST_YEAR + YEARS, 1, 1)
                                     - first).days)]
        self.holidays = oracle.HolidayOracle(1987, 2016)
        self.rows = [{"id": i, "sym": f"S{rng.randrange(SYMBOLS)}",
                      "day": oracle.tick_of(rng.choice(self.days)),
                      "qty": rng.randrange(1000)}
                     for i in range(self.rows_n)]
        self.spans = []
        for i in range(self.spans_n):
            lo = oracle.tick_of(rng.choice(self.days))
            self.spans.append({"id": i, "sym": f"S{rng.randrange(SYMBOLS)}",
                               "lo": lo, "hi": lo + rng.randrange(1, 30)})
        self.desks = [{"id": i, "sym": f"S{rng.randrange(SYMBOLS)}"}
                      for i in range(DESKS)]
        hot_k = rng.randrange(1, 8)
        hot_n, hot_y = rng.randrange(1, 29), rng.choice(_year_range())
        self.hot_exprs = {
            f"([{hot_k}]/DAYS:during:WEEKS) - HOLIDAYS":
                lambda d, h: d.isoweekday() == hot_k and not h.is_holiday(d),
            f"[{hot_n}]/DAYS:during:MONTHS:during:{hot_y}/YEARS":
                lambda d, h: d.day == hot_n and d.year == hot_y,
        }
        self.hot_syms = rng.sample([f"S{i}" for i in range(SYMBOLS)], 2)
        self.cold = {}
        for name, (space, text, pred) in COLD_TEMPLATES.items():
            params = list(space())
            rng.shuffle(params)
            self.cold[name] = [(text(*p), pred(*p)) for p in params]
        self._reset_oracle()

    # -- oracle state --------------------------------------------------------

    def _reset_oracle(self) -> None:
        """Recount the generated rows: the expected answers."""
        self.preds: dict[str, object] = {}
        self.expected: dict[str, int] = {}
        self.classified = {"vector": 0, "retrieves": 0}
        self.day_count: dict[int, int] = {}
        self.sym_count: dict[str, int] = {}
        self.sym_qty: dict[str, int] = {}
        self.total = 0
        for row in self.rows:
            self._account(row)

    def _account(self, row: dict) -> None:
        self.day_count[row["day"]] = self.day_count.get(row["day"], 0) + 1
        self.sym_count[row["sym"]] = self.sym_count.get(row["sym"], 0) + 1
        self.sym_qty[row["sym"]] = self.sym_qty.get(row["sym"], 0) + row["qty"]
        self.total += 1
        for text, pred in self.preds.items():
            if pred(oracle.date_of(row["day"]), self.holidays):
                self.expected[text] += 1

    def _within_expected(self, text: str, pred) -> int:
        if text not in self.expected:
            self.preds[text] = pred
            self.expected[text] = sum(
                n for tick, n in self.day_count.items()
                if pred(oracle.date_of(tick), self.holidays))
        return self.expected[text]

    def _static_expected(self) -> dict:
        """Answers the appends cannot change (joins over ``spans``)."""
        ids = {row["id"] for row in self.rows}
        overlaps = sum(1 for a in self.spans for b in self.spans
                       if a["lo"] <= b["hi"] and b["lo"] <= a["hi"])
        refused = sum(1 for a in self.desks for b in self.desks
                      if a["sym"] == b["sym"] or a["id"] - b["id"] > 25)
        return {"equi_join": sum(1 for s in self.spans if s["id"] in ids),
                "overlaps_join": overlaps, "refused": refused}

    # -- inputs ------------------------------------------------------------------

    def _hot(self) -> list[Op]:
        ops = [Op("warm", "within", COUNT % name, {"cal": name})
               for name in CATALOG]
        ops += [Op("warm", "within", COUNT % text, {"cal": text})
                for text in self.hot_exprs]
        ops.append(Op("warm", "on", "retrieve (count()) from t in trades "
                                    "on Tuesdays"))
        ops += [Op("warm", "eq", f'retrieve (t.id, t.qty) from t in trades '
                                 f'where t.sym = "{sym}"', {"sym": sym})
                for sym in self.hot_syms]
        ops.append(Op("warm", "aggregate",
                      f"retrieve (count(), sum(t.qty) as total) "
                      f'from t in trades where t.sym = "{self.hot_syms[0]}"',
                      {"sym": self.hot_syms[0]}))
        ops.append(Op("warm", "equi_join",
                      "retrieve (count()) from s in spans, t in trades "
                      "where s.id = t.id"))
        ops.append(Op("warm", "overlaps_join",
                      "retrieve (count()) from a in spans, b in spans "
                      "where overlaps(a.lo, a.hi, b.lo, b.hi)"))
        ops.append(Op("warm", "refused",
                      "retrieve (count()) from a in desks, b in desks "
                      "where a.sym = b.sym or a.id - b.id > 25"))
        return ops

    def ops(self):
        rng = random.Random(self.seed + 1)
        append_rng = random.Random(self.seed + 2)
        templates = list(self.cold)
        cursors = dict.fromkeys(templates, 0)
        hot_order: list[Op] = []
        cold_index = 0
        next_id = self.rows_n
        for ordinal in itertools.count():
            cls = PATTERN[ordinal % len(PATTERN)]
            if cls == "cold":
                live = [t for t in templates
                        if cursors[t] < len(self.cold[t])]
                if not live:
                    return  # the timed phase ends with the stream
                name = live[cold_index % len(live)]
                cold_index += 1
                text, pred = self.cold[name][cursors[name]]
                cursors[name] += 1
                yield Op("cold", "within", COUNT % text,
                         {"cal": text, "pred": pred})
            elif cls == "write":
                row = {"id": next_id,
                       "sym": f"S{append_rng.randrange(SYMBOLS)}",
                       "day": oracle.tick_of(append_rng.choice(self.days)),
                       "qty": append_rng.randrange(1000)}
                next_id += 1
                yield Op("write", "append",
                         f'append trades (id = {row["id"]}, '
                         f'sym = "{row["sym"]}", day = {row["day"]}, '
                         f'qty = {row["qty"]})', {"row": row})
            else:
                if not hot_order:
                    hot_order = self._hot()
                    rng.shuffle(hot_order)
                yield hot_order.pop()

    # -- set-up ---------------------------------------------------------------

    @staticmethod
    def reset() -> None:
        get_default_cache().clear()

    def build(self, rec=None, probe=None):
        if rec is None:
            return self._build(None, probe)
        with rec.op("setup.load"):
            return self._build(rec, probe)

    def _build(self, rec, probe):
        def span(name):
            if probe is not None:
                probe.tick()
            return rec.span(name) if rec is not None else nullcontext()

        with span("catalog.install"):
            session = Session("Jan 1 1987", holiday_years=(1987, 2016),
                              workers=1)
        db = session.db
        with span("storage.create"):
            trades = db.create_table(
                "trades", [("id", "int4"), ("sym", "text"),
                           ("day", "abstime"), ("qty", "int4")],
                valid_time_column="day")
            spans = db.create_table(
                "spans", [("id", "int4"), ("sym", "text"),
                          ("lo", "abstime"), ("hi", "abstime")],
                valid_time_column="lo")
            desks = db.create_table("desks", [("id", "int4"),
                                              ("sym", "text")])
        with span("storage.insert_many"):
            trades.insert_many([dict(r) for r in self.rows], fire_hooks=False)
            spans.insert_many([dict(r) for r in self.spans], fire_hooks=False)
            desks.insert_many([dict(r) for r in self.desks], fire_hooks=False)
        with span("index.create"):
            db.create_index("trades", "sym")
        return session

    def warmup(self, session) -> None:
        """Epoch sanity check, then one untimed pass over the hot reads."""
        if session.system.day_of("Jan 1 1993") != oracle.tick_of(
                datetime.date(1993, 1, 1)):
            raise RuntimeError("program epoch differs from the oracle's")
        self._reset_oracle()
        self.static = self._static_expected()
        for op in self._hot():
            self.execute(session, op)

    # -- execution ----------------------------------------------------------------

    @staticmethod
    def execute(session, op: Op):
        return session.query(op.text)

    def check(self, session, op: Op, result) -> bool:
        kind = op.kind
        if kind == "append":
            self._account(op.args["row"])
            return result.affected == 1
        if kind == "within":
            pred = op.args.get("pred") or self.hot_exprs.get(op.args["cal"]) \
                or CATALOG[op.args["cal"]]
            return result.rows[0]["count()"] == self._within_expected(
                op.args["cal"], pred)
        if kind == "on":
            return result.rows[0]["count()"] == self._within_expected(
                "on Tuesdays", lambda d, h: d.isoweekday() == 2)
        if kind == "eq":
            return len(result) == self.sym_count.get(op.args["sym"], 0)
        if kind == "aggregate":
            row = result.rows[0]
            sym = op.args["sym"]
            return [row["count()"], row["total"]] == [
                self.sym_count.get(sym, 0), self.sym_qty.get(sym, 0)]
        if kind in ("equi_join", "overlaps_join", "refused"):
            return result.rows[0]["count()"] == self.static[kind]
        return False

    def traced_check(self, session, op: Op, result) -> bool:
        """The check, plus the vector planner's verdict on each read.

        ``vector.plan_retrieve`` is the decision ``\\explain`` reports;
        it runs here, outside the op's spans, so it costs the op nothing.
        """
        if op.kind != "append":
            plan, _ = vector.plan_retrieve(parse_statement(op.text),
                                           session.db, set())
            self.classified["vector"] += plan is not None
            self.classified["retrieves"] += 1
        return self.check(session, op, result)

    def traced(self, session, op: Op, rec, stats: dict):
        """Postquel parse, then the executor, one span each.

        A first-touch ``within`` compiles its calendar's periodic form
        first (``Database.resolve_periodic``, which the executor's probe
        would otherwise call and which caches the outcome), so the
        calendar layer's share of a cold read has its own span.
        """
        db = session.db
        with rec.span("db.parse"):
            statement = parse_statement(op.text)
        if op.cls == "cold":
            with rec.span("periodic.compile"):
                db.resolve_periodic(op.args["cal"])
        with rec.span("db.append" if op.kind == "append" else "db.execute"):
            result = Executor(db).execute(statement)
        stats["result_rows"] = stats.get("result_rows", 0) + len(result)
        return result

    # -- counters and layer metrics ---------------------------------------------------

    @staticmethod
    def counters(session) -> dict:
        out = program_counters(session)
        batch = session.metrics().get("db.batch.rows")
        out["db.batch.rows"] = batch.get("sum", 0) if isinstance(
            batch, dict) else 0
        return out

    def layer_metrics(self, session, stats: dict, rec, baseline) -> dict:
        rows = baseline["counters"].get("db.batch.rows", 0)
        return {
            "db.vector_ratio": (self.classified["vector"]
                                / max(1, self.classified["retrieves"]),
                                "ratio"),
            "db.batch_rows_per_result": (
                rows / max(1, stats.get("result_rows", 0)), "ratio"),
        }

    @staticmethod
    def extra_metrics(session, loop) -> dict:
        return {}

    def final_checks(self, session) -> list[tuple[str, bool]]:
        db = session.db
        trades = list(db.relation("trades").scan())
        by_day: dict[int, int] = {}
        for row in trades:
            by_day[row["day"]] = by_day.get(row["day"], 0) + 1
        return [
            ("trades rows == generated + appended",
             len(trades) == self.total),
            ("per-day row counts == oracle", by_day == self.day_count),
        ]

    def describe(self) -> dict:
        return {
            "rows": self.rows_n, "spans": self.spans_n, "desks": DESKS,
            "years": f"{FIRST_YEAR}-{FIRST_YEAR + YEARS - 1}",
            "symbols": SYMBOLS, "index": "trades.sym",
            "cold_share": PATTERN.count("cold") / len(PATTERN),
            "write_share": PATTERN.count("write") / len(PATTERN),
            "hot_reads": len(self._hot()),
            "cold_templates": list(COLD_TEMPLATES),
            "distinct_cold_texts": sum(len(v) for v in self.cold.values()),
        }

