"""Unit tests for the vectorized retrieve pipeline.

Covers the batch kernels' empty/single-row edges, plan classification
and fallback reasons, EXPLAIN strategy reporting, the labelled
``db.join.strategy`` / ``db.batch.rows`` metrics, batch index
maintenance (``insert_many`` / ``insert_batch``), NULL semantics and
the valid-time range scan with each reason it declines.
"""

from collections import Counter
from unittest import mock

import pytest

from repro.core import Calendar
from repro.core.columnar import interval_join_pairs
from repro.db import Database, ExecutionError
from repro.db import vector
from repro.db.executor import Executor
from repro.db.index import CalendarProbe, OrderedIndex
from repro.db.ql.parser import parse_statement
from repro.db.storage import Relation
from repro.db.types import OperatorRegistry


@pytest.fixture()
def joined(db):
    db.create_table("emp", [("name", "text"), ("dept", "int4"),
                            ("lo", "abstime"), ("hi", "abstime")],
                    valid_time_column="lo")
    db.create_table("dept", [("id", "int4"), ("site", "text")])
    rows = [("a", 1, 5, 9), ("b", 2, 8, 12), ("c", 1, 20, 25),
            ("d", 3, 11, 11), ("e", None, 30, 31)]
    for name, dept, lo, hi in rows:
        db.insert("emp", name=name, dept=dept, lo=lo, hi=hi)
    for i, site in ((1, "x"), (2, "y"), (4, "z")):
        db.insert("dept", id=i, site=site)
    return db


def both_engines(db, query, bindings=None):
    """(vectorized rows, row-at-a-time rows) for one query.

    The row engine is forced by making the planner refuse the
    statement; the refusal count proves the oracle run took that path.
    """
    vec = db.execute(query, bindings).rows
    refusals = []

    def refuse(stmt, db, extra_keys):
        refusals.append(stmt)
        return None, "row engine forced"

    with mock.patch.object(vector, "plan_retrieve", refuse):
        row = db.execute(query, bindings).rows
    assert refusals, "the row-engine run never reached the planner"
    return vec, row


def lanes_probe(intervals):
    """A calendar probe answering from ``intervals``' lanes alone."""
    calendar = Calendar.from_intervals(intervals)
    return CalendarProbe(lambda: calendar)


def both_engines_raising(db, query):
    """The ``ExecutionError`` each engine raises on ``query``."""
    errors = []
    with pytest.raises(ExecutionError) as vec:
        db.execute(query)
    errors.append(vec)
    with mock.patch.object(vector, "plan_retrieve",
                           lambda *args: (None, "row engine forced")):
        with pytest.raises(ExecutionError) as row:
            db.execute(query)
    errors.append(row)
    return errors


class TestKernelEdges:
    # Batch membership is the probe's ``members``.
    def test_batch_membership_empty_values(self):
        assert lanes_probe([(1, 3), (5, 9)]).members([]) == []

    def test_batch_membership_empty_lanes(self):
        assert lanes_probe([]).members([1, 2, 3]) == [False] * 3

    def test_batch_membership_single(self):
        assert lanes_probe([(5, 9)]).members([4, 5, 9, 10]) == \
            [False, True, True, False]

    def test_batch_membership_zero_never_member(self):
        assert lanes_probe([(-3, 3)]).members([0]) == [False]

    def test_interval_join_empty_sides(self):
        assert interval_join_pairs([], [], [], []) == []
        assert interval_join_pairs([1], [2], [], []) == []
        assert interval_join_pairs([], [], [1], [2]) == []

    def test_interval_join_single_pair(self):
        assert interval_join_pairs([1], [5], [4], [9]) == [(0, 1 - 1)]

    def test_interval_join_overlaps_matches_scalar(self):
        a = [(1, 4), (2, 2), (6, 9)]
        b = [(0, 1), (3, 7), (9, 12)]
        got = set(interval_join_pairs([x[0] for x in a],
                                      [x[1] for x in a],
                                      [x[0] for x in b],
                                      [x[1] for x in b]))
        want = {(i, j) for i, (alo, ahi) in enumerate(a)
                for j, (blo, bhi) in enumerate(b)
                if alo <= bhi and blo <= ahi}
        assert got == want

    def test_interval_join_during_subset_of_overlaps(self):
        # Inputs must be lo-sorted (the executor argsorts its lanes).
        a = sorted([(2, 3), (1, 9), (5, 5)])
        b = sorted([(1, 4), (5, 6), (0, 10)])
        got = set(interval_join_pairs([x[0] for x in a],
                                      [x[1] for x in a],
                                      [x[0] for x in b],
                                      [x[1] for x in b],
                                      predicate="during"))
        want = {(i, j) for i, (alo, ahi) in enumerate(a)
                for j, (blo, bhi) in enumerate(b)
                if alo >= blo and ahi <= bhi}
        assert got == want

    def test_interval_join_unknown_predicate(self):
        with pytest.raises(ValueError):
            interval_join_pairs([1], [2], [1], [2], predicate="meets")

    def test_contains_batch_matches_contains(self, db, registry):
        probe = db.calendar_probe("MONDAYS")
        points = [365, 1, 2, 7, 8, 30, 2, 365]
        assert probe.members(points) == [probe.contains(p) for p in points]
        assert probe.members(points) == [
            registry.evaluate("MONDAYS").contains_point(p) for p in points]


class TestBatchIndexMaintenance:
    def test_insert_batch_matches_incremental(self):
        a, b = OrderedIndex("k"), OrderedIndex("k")
        rows = [{"k": v, "_tid": i} for i, v in
                enumerate([5, 1, 9, 1, None, 3])]
        for row in rows:
            a.insert(row)
        b.insert_batch(rows)
        assert a.items() == b.items()

    def test_insert_batch_merges_into_existing(self):
        index = OrderedIndex("k")
        index.insert_batch([{"k": v, "_tid": i}
                            for i, v in enumerate([4, 8])])
        index.insert_batch([{"k": v, "_tid": 10 + i}
                            for i, v in enumerate([1, 6, 9])])
        keys, tids = index.items()
        assert keys == [1, 4, 6, 8, 9]
        assert len(tids) == 5

    def test_insert_batch_empty(self):
        index = OrderedIndex("k")
        index.insert_batch([])
        assert len(index) == 0

    def test_insert_many_feeds_indexes_and_key_map(self, db):
        db.create_table("t", [("k", "int4"), ("v", "text")],
                        key=("k",))
        db.create_index("t", "k")
        relation = db.relation("t")
        relation.insert_many([{"k": i, "v": f"r{i}"}
                              for i in (3, 1, 2)])
        assert relation.indexes["k"].lookup_eq(2) != []
        from repro.db.errors import IntegrityError
        with pytest.raises(IntegrityError):
            relation.insert_many([{"k": 9, "v": "x"},
                                  {"k": 9, "v": "y"}])
        # The bad batch must not have half-applied.
        assert len(relation) == 3

    def test_insert_many_bumps_data_version_once(self, db):
        db.create_table("t", [("k", "int4")])
        relation = db.relation("t")
        before = relation.data_version
        relation.insert_many([{"k": 1}, {"k": 2}])
        assert relation.data_version == before + 1


class TestPlanClassification:
    def _plan(self, db, query, extra=()):
        return vector.plan_retrieve(parse_statement(query), db,
                                    set(extra))

    def test_as_of_reason(self, joined):
        plan, reason = self._plan(
            joined, "retrieve (e.name) from e in emp as of 3")
        assert plan is None
        assert "as of" in reason and "sequential" in reason

    def test_unbound_variable_reason(self, joined):
        plan, reason = self._plan(
            joined, "retrieve (e.name) from e in emp where e.dept = lim")
        assert plan is None and "unbound variable" in reason
        plan, _ = self._plan(
            joined, "retrieve (e.name) from e in emp where e.dept = lim",
            extra={"lim"})
        assert plan is not None

    def test_cross_variable_arithmetic_rejected(self, joined):
        plan, reason = self._plan(
            joined, "retrieve (e.name) from e in emp, d in dept "
                    "where e.dept = d.id + 1")
        assert plan is None and "non-vectorizable" in reason

    def test_overridden_operator_rejected(self, joined):
        joined.operators.register("=", "int4", "int4",
                                  lambda a, b: a == b)
        plan, _ = self._plan(
            joined, "retrieve (e.name) from e in emp, d in dept "
                    "where e.dept = d.id")
        assert plan is None

    def test_redefined_sweep_function_rejected(self, joined):
        joined.functions.register("overlaps",
                                  lambda a, b, c, d: True, replace=True)
        plan, reason = self._plan(
            joined, "retrieve (e.name) from e in emp, d in emp "
                    "where overlaps(e.lo, e.hi, d.lo, d.hi)")
        assert plan is None and "non-vectorizable" in reason

    def test_classified_buckets(self, joined):
        plan, _ = self._plan(
            joined, "retrieve (e.name) from e in emp, d in dept "
                    "where e.dept = d.id and e.lo > 4 and "
                    'e.lo within "MONDAYS"')
        assert plan is not None
        filters = plan.filters_of("e")
        assert isinstance(filters[0], vector.ScalarFilter)
        assert isinstance(filters[1], vector.WithinFilter)
        assert len(plan.edges) == 1
        assert isinstance(plan.edges[0], vector.EquiEdge)


class TestEngineParity:
    def test_equi_join_with_nulls(self, joined):
        # emp "e" has dept None; dept has no None id — None never joins
        # a non-None, and a None = None pair must join in both engines.
        joined.insert("dept", id=None, site="limbo")
        vec, row = both_engines(
            joined, "retrieve (e.name, d.site) from e in emp, d in dept "
                    "where e.dept = d.id")
        assert sorted(map(repr, vec)) == sorted(map(repr, row))
        assert {r["name"] for r in vec} >= {"e"}  # the None = None pair

    def test_indexed_equi_join_runs_a_hash_join(self, joined):
        joined.create_index("emp", "dept")
        joined.create_index("dept", "id")
        joined.insert("dept", id=None, site="limbo")
        # Both join columns indexed, one of them holding a None: the
        # hash join serves it and the None = None pair still joins.
        q = ("retrieve (e.name, d.site) from e in emp, d in dept "
             "where e.dept = d.id")
        assert "(e.dept = d.id): hash join" in joined.explain(q)
        vec, row = both_engines(joined, q)
        assert vec == row and {"name": "e", "site": "limbo"} in vec

    def test_fully_indexed_equi_join_keeps_row_engine_order(self, db):
        # Keys repeat and come in no order on either side: a join fed
        # by the index lanes would hand rows over in key order.
        db.create_table("l", [("k", "int4"), ("n", "int4")])
        db.create_table("r", [("k", "int4"), ("n", "int4")])
        for n, k in enumerate((5, 2, 9, 2, 1, 5)):
            db.insert("l", k=k, n=n)
        for n, k in enumerate((2, 5, 1, 2, 7, 5)):
            db.insert("r", k=k, n=n)
        db.create_index("l", "k")
        db.create_index("r", "k")
        q = ("retrieve (a.n as an, b.n as bn) from a in l, b in r "
             "where a.k = b.k")
        vec, row = both_engines(db, q)
        assert vec == row
        assert [(r["an"], r["bn"]) for r in vec] == [
            (0, 1), (0, 5), (1, 0), (1, 3), (3, 0), (3, 3), (4, 2),
            (5, 1), (5, 5)]

    def test_interval_sweep_parity_with_inverted_and_null(self, joined):
        # An inverted interval (lo > hi) and a NULL endpoint take the
        # scalar escape path; results must still match the row engine.
        joined.insert("emp", name="inv", dept=7, lo=40, hi=2)
        joined.insert("emp", name="nul", dept=7, lo=None, hi=50)
        for pred in ("overlaps", "during"):
            vec, row = both_engines(
                joined, f"retrieve (a.name, b.name) from a in emp, "
                        f"b in emp where {pred}(a.lo, a.hi, b.lo, b.hi)")
            assert sorted(map(repr, vec)) == sorted(map(repr, row))

    def test_within_parity_and_none_raises(self, joined):
        vec, row = both_engines(
            joined, 'retrieve (e.name) from e in emp '
                    'where e.lo within "MONDAYS"')
        assert sorted(map(repr, vec)) == sorted(map(repr, row))
        joined.insert("emp", name="null-lo", dept=9, lo=None, hi=4)
        with pytest.raises(ExecutionError, match="abstime tick"):
            joined.execute('retrieve (e.name) from e in emp '
                           'where e.lo within "MONDAYS"')

    def test_a_bool_is_not_a_tick(self, db):
        db.create_table("e", [("f", "bool"), ("t", "int4")],
                        valid_time_column="f")
        for _ in range(10):
            db.insert("e", f=True, t=0)
        for query in ('retrieve (count()) from x in e '
                      'where x.f within "DAYS"',
                      'retrieve (member(x.f, "DAYS") as m) from x in e',
                      "retrieve (x.t) from x in e on DAYS"):
            for engine in both_engines_raising(db, query):
                assert engine.match(r"within expects an abstime tick"), query
        # Tick 0 is no member, and no error.
        vec, row = both_engines(
            db, 'retrieve (count()) from x in e where x.t within "DAYS"')
        assert vec == row == [{"count()": 0}]

    def test_on_calendar_parity(self, joined):
        vec, row = both_engines(
            joined, "retrieve (e.name) from e in emp on MONDAYS")
        assert sorted(map(repr, vec)) == sorted(map(repr, row))

    def test_empty_relation(self, joined):
        joined.create_table("void", [("k", "int4")])
        vec, row = both_engines(
            joined, "retrieve (v.k) from v in void where v.k = 1")
        assert vec == row == []

    def test_single_row_relation(self, joined):
        joined.create_table("one", [("k", "abstime")])
        monday = joined.system.day_of("Feb 1 1993")
        joined.insert("one", k=monday)
        vec, row = both_engines(
            joined, 'retrieve (o.k) from o in one '
                    'where o.k within "MONDAYS"')
        assert vec == row and len(vec) == 1

    def test_retrieve_events_still_fire(self, joined):
        seen = []
        joined.relation("emp").hooks["retrieve"].append(
            lambda event: seen.append(event.current["name"]))
        joined.execute("retrieve (e.name) from e in emp "
                       "where e.dept = 1")
        assert sorted(seen) == ["a", "c"]

    def test_count_fast_path_matches(self, joined):
        vec, row = both_engines(
            joined, "retrieve (count() as n) from e in emp, d in dept "
                    "where e.dept = d.id")
        assert vec == row

    def test_order_by_identical_order(self, joined):
        vec, row = both_engines(
            joined, "retrieve (e.name, d.site) from e in emp, "
                    "d in dept where e.dept = d.id order by name")
        assert vec == row


def built_tables(db, query):
    """(the size of each hash-join table built, the rows) for a query."""
    spy = mock.Mock(wraps=Executor._key_table)
    with mock.patch.object(Executor, "_key_table", spy):
        rows = db.execute(query).rows
    return [len(call.args[1]) for call in spy.call_args_list], rows


@pytest.fixture()
def keyed(db):
    """``few`` (5 rows) and ``many`` (10 rows) on a float8 key: keys
    repeat on both sides, and each side holds NULL and NaN keys."""
    nan = float("nan")
    for name, keys in (("few", (2.0, None, 1.0, 2.0, nan)),
                       ("many", (1.0, 2.0, nan, None, 3.0, 2.0, 1.0,
                                 None, 2.0, 5.0))):
        db.create_table(name, [("k", "float8"), ("n", "int4")])
        for n, k in enumerate(keys):
            db.insert(name, k=k, n=n)
    return db


class TestHashJoinBuildSide:
    """The table is built over the smaller input, and the output keeps
    the nested loop's order either way."""

    SMALL_LEFT = ("retrieve (a.n as an, b.n as bn) from a in few, "
                  "b in many where a.k = b.k")
    LARGE_LEFT = ("retrieve (a.n as an, b.n as bn) from b in many, "
                  "a in few where a.k = b.k")

    def test_smaller_left_input_builds_over_the_combos(self, keyed):
        assert built_tables(keyed, self.SMALL_LEFT)[0] == [5]
        vec, row = both_engines(keyed, self.SMALL_LEFT)
        assert vec == row
        pairs = [(r["an"], r["bn"]) for r in vec]
        assert pairs == [(0, 1), (0, 5), (0, 8), (1, 3), (1, 7), (2, 0),
                         (2, 6), (3, 1), (3, 5), (3, 8)]

    def test_larger_left_input_builds_over_the_selection(self, keyed):
        assert built_tables(keyed, self.LARGE_LEFT)[0] == [5]
        vec, row = both_engines(keyed, self.LARGE_LEFT)
        assert vec == row
        pairs = [(r["bn"], r["an"]) for r in vec]
        assert pairs == [(0, 2), (1, 0), (1, 3), (3, 1), (5, 0), (5, 3),
                         (6, 2), (7, 1), (8, 0), (8, 3)]

    def test_no_nan_pair_and_null_pairs_join(self, keyed):
        for query in (self.SMALL_LEFT, self.LARGE_LEFT):
            pairs = {(r["an"], r["bn"]) for r in keyed.execute(query).rows}
            assert (4, 2) not in pairs  # NaN = NaN is false
            assert {(1, 3), (1, 7)} <= pairs  # NULL = NULL is true

    @pytest.mark.parametrize("side", ["few", "many"])
    def test_unhashable_key_takes_the_pairwise_escape(self, db, side):
        db.types.define("bag", lambda v: isinstance(v, (list, int)))
        for name, keys in (("few", (2, 1, 2)),
                           ("many", (1, 2, 3, 2, 1, 2, 4))):
            db.create_table(name, [("k", "bag"), ("n", "int4")])
            for n, k in enumerate(keys):
                db.insert(name, k=k, n=n)
        # ``few`` is the built side in both orders: a list key there
        # fails the build, one in ``many`` fails the probe.
        db.insert(side, k=[1], n=99)
        for query in (self.SMALL_LEFT, self.LARGE_LEFT):
            before = TestMetrics._count(db, vector.STRAT_SEQUENTIAL)
            vec, row = both_engines(db, query)
            assert vec == row and len(vec) == 8
            assert TestMetrics._count(db, vector.STRAT_SEQUENTIAL) > before

    def test_three_variable_fold_second_edge_on_the_swapped_build(self, db):
        db.create_table("one", [("k", "int4")])
        db.create_table("mid", [("k", "int4"), ("j", "int4")])
        db.create_table("big", [("j", "int4"), ("n", "int4")])
        for k in (1, 2):
            db.insert("one", k=k)
        for k, j in ((2, 10), (1, 20), (3, 10), (1, 10), (2, 30), (9, 20)):
            db.insert("mid", k=k, j=j)
        for n, j in enumerate((10, 20, 30, 10, 40, 20, 10, 30, 50, 10,
                               20, 60)):
            db.insert("big", j=j, n=n)
        query = ("retrieve (a.k, b.j, c.n) from a in one, b in mid, "
                 "c in big where a.k = b.k and b.j = c.j")
        # 2 combos join 6 mid rows, then 4 combos join 12 big rows.
        assert built_tables(db, query)[0] == [2, 4]
        vec, row = both_engines(db, query)
        assert vec == row and len(vec) == 13

    def test_five_row_side_is_built_in_both_orders(self, db):
        db.create_table("five", [("id", "int4")])
        db.create_table("lots", [("id", "int4")])
        db.relation("five").insert_many(
            [{"id": i * 1000} for i in range(5)], fire_hooks=False)
        db.relation("lots").insert_many(
            [{"id": i} for i in range(5000)], fire_hooks=False)
        for query in ("retrieve (count()) from f in five, l in lots "
                      "where f.id = l.id",
                      "retrieve (count()) from l in lots, f in five "
                      "where l.id = f.id"):
            assert built_tables(db, query) == ([5], [{"count()": 5}])


class TestOperatorMemo:
    REFUSED = ("retrieve (count()) from a in desks, b in desks "
               "where a.sym = b.sym or a.id - b.id > 25")

    @staticmethod
    def _desks(db) -> None:
        db.create_table("desks", [("id", "int4"), ("sym", "text")])
        for i in range(30):
            db.insert("desks", id=i, sym=f"S{i % 7}")
        assert vector.plan_retrieve(parse_statement(
            TestOperatorMemo.REFUSED), db, set())[0] is None

    def test_refused_self_join_resolves_each_signature_once(self, db):
        # Of the statement's operators only ``-`` has a registered
        # operator (the calendar difference); ``=`` and ``>`` are never
        # resolved, and ``-`` on int4 is resolved once for 1 800 uses.
        self._desks(db)
        spy = mock.Mock(wraps=db.operators._lookup)
        with mock.patch.object(db.operators, "_lookup", spy):
            first = db.execute(self.REFUSED).rows
            assert db.execute(self.REFUSED).rows == first
        calls = [call.args for call in spy.call_args_list]
        assert calls == [("-", "int4", "int4")]

    def test_no_resolution_without_an_operator_of_the_name(self, db):
        # A 30 x 30 row-engine self-join over a database with no
        # operators registered never consults the registry.
        db.operators = OperatorRegistry()
        self._desks(db)
        spy = mock.Mock(wraps=db.operators.resolve)
        with mock.patch.object(db.operators, "resolve", spy):
            rows = db.execute(self.REFUSED).rows
        assert spy.call_count == 0
        assert rows == [{"count()": sum(
            1 for a in range(30) for b in range(30)
            if a % 7 == b % 7 or a - b > 25)}]

    def test_registration_after_a_cached_miss_takes_effect(self, db):
        db.create_table("t", [("k", "text")])
        for k in ("abc", "ABC", "xy"):
            db.insert("t", k=k)
        query = 'retrieve (x.k) from x in t where x.k = "abc"'
        vec, row = both_engines(db, query)
        assert vec == row == [{"k": "abc"}]
        # The row engine's run cached "no custom = for text/text".
        assert db.operators.resolve("=", "text", "text") is None
        db.operators.register("=", "text", "text",
                              lambda a, b: a.lower() == b.lower())
        vec, row = both_engines(db, query)
        assert vec == row == [{"k": "abc"}, {"k": "ABC"}]
        db.operators.register("=", "text", "text",
                              lambda a, b: a == b.upper(), replace=True)
        vec, row = both_engines(db, query)
        assert vec == row == [{"k": "ABC"}]


class TestExplainStrategies:
    def test_strategies_reported(self, joined):
        plan = joined.explain(
            "retrieve (a.name, b.name) from a in emp, b in emp "
            "where overlaps(a.lo, a.hi, b.lo, b.hi) and a.dept = 1 "
            'and a.lo within "MONDAYS" and b.lo within "MONDAYS"')
        assert "vectorized pipeline:" in plan
        assert "endpoint sweep" in plan
        # a's within follows a filter; b's leads and reads the index.
        assert '(a.lo within "MONDAYS"): batched calendar sweep\n' in plan
        assert '(b.lo within "MONDAYS"): valid-time range scan' in plan
        assert "sequential fallback" in plan

    def test_as_of_fallback_noted(self, joined):
        plan = joined.explain(
            "retrieve (e.name) from e in emp as of 3")
        assert "vectorized: off" in plan
        assert "as of historical scan" in plan


class TestMetrics:
    def test_join_strategy_counter_and_batch_histogram(self, joined):
        joined.execute("retrieve (e.name, d.site) from e in emp, "
                       "d in dept where e.dept = d.id and e.lo > 4")
        snapshot = joined.instrumentation.metrics.snapshot()
        assert snapshot[
            'db.join.strategy{strategy="hash join"}'] >= 1
        assert snapshot[
            'db.join.strategy{strategy="sequential fallback"}'] >= 1
        assert snapshot["db.batch.rows"]["count"] >= 2

    @staticmethod
    def _count(db, strategy: str) -> int:
        return db.instrumentation.metrics.snapshot().get(
            f'db.join.strategy{{strategy="{strategy}"}}', 0)

    def test_range_scan_counted(self, joined):
        before = self._count(joined, vector.STRAT_RANGE)
        joined.execute('retrieve (e.name) from e in emp '
                       'where e.lo within "MONDAYS"')
        joined.execute("retrieve (e.name) from e in emp on MONDAYS")
        assert self._count(joined, vector.STRAT_RANGE) == before + 2

    def test_calendar_sweep_counted(self, joined):
        # A within behind another filter still takes the batched sweep.
        before = self._count(joined, vector.STRAT_CALENDAR)
        joined.execute('retrieve (e.name) from e in emp '
                       'where e.hi > 0 and e.lo within "MONDAYS"')
        assert self._count(joined, vector.STRAT_CALENDAR) == before + 1


class TestValidTimeRangeScan:
    WITHIN = 'retrieve (e.name) from e in emp where e.lo within "MONDAYS"'

    def test_valid_time_column_is_indexed(self, joined):
        index = joined.relation("emp").indexes["lo"]
        assert isinstance(index, OrderedIndex) and len(index) == 5
        # create_index on it hands back the maintained index as it is.
        assert joined.create_index("emp", "lo") is index

    def test_explain_names_the_range_scan(self, joined):
        assert '(e.lo within "MONDAYS"): valid-time range scan' in \
            joined.explain(self.WITHIN)
        assert "on 'MONDAYS' (valid-time range scan)" in joined.explain(
            "retrieve (e.name) from e in emp on MONDAYS")

    def test_declines_on_null_ticks(self, joined):
        joined.insert("emp", name="n", dept=1, lo=None, hi=3)
        assert "batched calendar sweep (range scan declined: NULL " \
            "ticks leave the index short of the live rows)" in \
            joined.explain(self.WITHIN)

    def test_declines_on_non_abstime_column(self, joined):
        assert "dept is not an abstime column" in joined.explain(
            'retrieve (e.name) from e in emp where e.dept within "MONDAYS"')

    def test_declines_for_an_equality_probe(self, joined):
        joined.create_index("emp", "dept")
        assert "(range scan declined: equality probe chosen)" in \
            joined.explain('retrieve (e.name) from e in emp where '
                           'e.lo within "MONDAYS" and e.dept = 1')

    def test_range_scan_serves_unsorted_lanes_in_order(self, joined):
        # Ticks below the compiled set's safe range read the lanes,
        # which the probe sorts and merges once.
        joined.calendars.define("JUMBLE", values=[(20, 25), (1, 9)],
                                granularity="DAYS")
        query = ('retrieve (e.name) from e in emp '
                 'where e.lo within "JUMBLE"')
        assert '(e.lo within "JUMBLE"): valid-time range scan' in \
            joined.explain(query)
        before = TestMetrics._count(joined, vector.STRAT_RANGE)
        vec, row = both_engines(joined, query)
        assert TestMetrics._count(joined, vector.STRAT_RANGE) == before + 1
        assert [r["name"] for r in vec] == ["a", "b", "c"] and vec == row

    def test_on_declines_behind_a_filter(self, joined):
        assert "range scan declined: a filter or join reads the rows" in \
            joined.explain("retrieve (e.name) from e in emp "
                           "where e.dept = 1 on MONDAYS")

    def test_count_reads_no_row(self, joined):
        # An eligible count() answers from the index lanes alone.
        expected = [joined.execute(q).rows for q in (
            'retrieve (count()) from e in emp where e.lo within "MONDAYS"',
            "retrieve (count()) from e in emp on MONDAYS")]
        with mock.patch.object(Relation, "scan", side_effect=AssertionError), \
                mock.patch.object(Relation, "get", side_effect=AssertionError):
            assert [joined.execute(q).rows for q in (
                'retrieve (count()) from e in emp '
                'where e.lo within "MONDAYS"',
                "retrieve (count()) from e in emp on MONDAYS")] == expected

    def test_count_reads_the_per_key_counts(self, joined):
        # Five keys over 26 ticks are too sparse to count per value, so
        # that count takes the tid list; over dense keys a count reads
        # the index's running per-key counts, which appends keep current.
        query = 'retrieve (count()) from e in emp where e.lo within "MONDAYS"'
        vec, row = both_engines(joined, query)
        assert vec == row
        for lo in range(1, 60):
            joined.insert("emp", name="f", dept=1, lo=lo, hi=lo)
        monday = next(t for t in range(1, 60)
                      if joined.calendar_probe("MONDAYS").contains(t))
        counts = []
        with mock.patch.object(OrderedIndex, "lookup_runs",
                               side_effect=AssertionError):
            counts.append(joined.execute(query).rows[0]["count()"])
            joined.insert("emp", name="g", dept=1, lo=monday, hi=monday)
            counts.append(joined.execute(query).rows[0]["count()"])
        vec, row = both_engines(joined, query)
        assert vec == row
        assert counts == [row[0]["count()"] - 1, row[0]["count()"]]

    def test_rows_come_in_scan_order(self, joined):
        emp = joined.relation("emp")
        mondays = [joined.system.day_of(f"Feb {d} 1993") for d in (15, 1, 8)]
        for i, day in enumerate(mondays):
            emp.insert({"name": f"m{i}", "dept": 1, "lo": day, "hi": day})
        emp.update(emp.scan()[0]["_tid"], {"lo": mondays[2]})
        vec, row = both_engines(joined, self.WITHIN)
        assert vec == row
        assert [r["name"] for r in vec] == ["a", "m0", "m1", "m2"]


class TestExplainMatchesRun:
    """``explain`` prints the plan the vectorized engine runs: one
    access line per variable, and exactly the kernels one execution
    counts under ``db.join.strategy``."""

    RANGE, SCAN = vector.STRAT_RANGE, vector.SEQUENTIAL_SCAN
    #: ``(statement, raises, first variable's access)``: a statement
    #: that raises counts its retreat to the row engine on top of the
    #: plan's kernels.
    CORPUS = [
        ('retrieve (e.name) from e in emp where e.lo within "MONDAYS"',
         False, RANGE),
        ("retrieve (e.name) from e in emp on MONDAYS", False, RANGE),
        ("retrieve (e.name) from e in emp where e.dept = 1 on MONDAYS",
         False, SCAN),
        ('retrieve (e.name) from e in emp where e.lo within "MONDAYS" '
         'and e.name = "a"', False, "index probe on emp.name"),
        ('retrieve (n.k) from n in nul where n.lo within "MONDAYS"',
         True, SCAN),
        ("retrieve (n.k) from n in nul on MONDAYS", False, RANGE),
        ('retrieve (n.k) from n in nul where n.k within "MONDAYS"',
         False, SCAN),
        ('retrieve (e.name) from e in emp where e.hi within "MONDAYS"',
         False, SCAN),
        ("retrieve (e.name, d.site) from e in emp, d in dept "
         "where e.dept = d.id", False, SCAN),
        ("retrieve (a.name, b.name) from a in emp, b in emp "
         "where overlaps(a.lo, a.hi, b.lo, b.hi) and a.dept = 1",
         False, SCAN),
        ("retrieve (a.name) from a in emp, b in emp "
         "where a.name = b.name or a.dept = 1", False, SCAN),
    ]

    @pytest.fixture()
    def corpus_db(self, joined):
        joined.create_index("emp", "name")
        joined.create_table("nul", [("k", "int4"), ("lo", "abstime")],
                            valid_time_column="lo")
        monday = joined.system.day_of("Feb 1 1993")
        for k, lo in ((1, monday), (2, None), (3, monday + 1)):
            joined.insert("nul", k=k, lo=lo)
        # nul.k is not an abstime column; e.hi is one with no index.
        return joined

    @staticmethod
    def _labels(text: str) -> list[str]:
        """Kernel labels: the pipeline lines and the ``on`` line."""
        labels = []
        lines = text.splitlines()
        if "vectorized pipeline:" in lines:
            for line in lines[lines.index("vectorized pipeline:") + 1:]:
                if not line.startswith("  "):
                    break
                kernel = line.strip().split(": ", 1)[1]
                labels.append(kernel.split(" (range scan declined")[0])
        for line in lines:
            if line.startswith("valid-time restriction:"):
                labels.append(line.split("(", 1)[1].split(";")[0]
                              .rstrip(")"))
        return labels

    @staticmethod
    def _increments(db) -> dict:
        return {key: value for key, value in
                db.instrumentation.metrics.snapshot().items()
                if key.startswith("db.join.strategy{")}

    def test_explain_prints_the_plan_that_runs(self, corpus_db):
        db = corpus_db
        for query, raises, first in self.CORPUS:
            with mock.patch.object(OrderedIndex, "lookup_runs",
                                   side_effect=AssertionError), \
                    mock.patch.object(Relation, "scan",
                                      side_effect=AssertionError):
                text = db.explain(query)
            stmt = parse_statement(query)
            access = [line for line in text.splitlines()
                      if line.lstrip().startswith("-> ")]
            assert len(access) == len(stmt.range_vars), query
            assert access[0].endswith(f": {first}"), (query, access)
            vectorized = "vectorized: off" not in text
            expected = Counter(self._labels(text))
            if raises:
                expected[vector.STRAT_SEQUENTIAL] += 1
            before = Counter(self._increments(db))
            calls = Counter()

            def spy(name, real):
                def wrapper(*args, **kwargs):
                    calls[name] += 1
                    return real(*args, **kwargs)
                return wrapper

            with mock.patch.object(
                    OrderedIndex, "lookup_runs",
                    spy("range", OrderedIndex.lookup_runs)), \
                    mock.patch.object(OrderedIndex, "lookup_eq",
                                      spy("probe", OrderedIndex.lookup_eq)), \
                    mock.patch.object(Relation, "scan",
                                      spy("scan", Relation.scan)):
                if raises:
                    with pytest.raises(ExecutionError):
                        db.execute(query)
                else:
                    db.execute(query)
            after = Counter(self._increments(db))
            counted = Counter({key.split('"')[1]: after[key] - before[key]
                               for key in after if after[key] > before[key]})
            assert counted == expected, query
            if vectorized and not raises:
                kinds = {"range" if line.endswith(vector.STRAT_RANGE)
                         else "probe" if "index probe on" in line
                         else "scan" for line in access}
                assert set(calls) == kinds, (query, calls)
            elif not vectorized:
                assert not expected and not counted
