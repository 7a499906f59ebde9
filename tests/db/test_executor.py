"""Unit tests for query execution."""

import pytest

from repro.db import Database, ExecutionError, SchemaError


@pytest.fixture()
def students(db):
    db.create_table("students",
                    [("name", "text"), ("country", "text"),
                     ("week", "abstime"), ("hours", "int4")],
                    valid_time_column="week")
    base = db.system.day_of("Feb 1 1993")  # a Monday
    rows = [("alice", "US", base, 25), ("bo", "CN", base, 22),
            ("cara", "IN", base + 1, 18), ("dan", "FR", base + 7, 30)]
    for name, country, week, hours in rows:
        db.insert("students", name=name, country=country, week=week,
                  hours=hours)
    return db


class TestRetrieve:
    def test_projection(self, students):
        result = students.execute(
            "retrieve (s.name) from s in students")
        assert result.columns == ["name"]
        assert result.column("name") == ["alice", "bo", "cara", "dan"]

    def test_where_filter(self, students):
        result = students.execute(
            'retrieve (s.name) from s in students '
            'where s.hours > 20 and s.country != "US"')
        assert result.column("name") == ["bo", "dan"]

    def test_computed_target_with_alias(self, students):
        result = students.execute(
            "retrieve (s.hours * 2 as double) from s in students "
            'where s.name = "alice"')
        assert result.rows[0]["double"] == 50

    def test_join(self, students):
        students.create_table("countries",
                              [("code", "text"), ("label", "text")])
        students.insert("countries", code="US", label="United States")
        students.insert("countries", code="CN", label="China")
        result = students.execute(
            "retrieve (s.name, c.label) from s in students, "
            "c in countries where s.country = c.code")
        assert sorted((r["name"], r["label"]) for r in result.rows) == [
            ("alice", "United States"), ("bo", "China")]

    def test_or_and_not(self, students):
        result = students.execute(
            'retrieve (s.name) from s in students '
            'where s.country = "FR" or not s.hours >= 20')
        assert result.column("name") == ["cara", "dan"]

    def test_result_table_rendering(self, students):
        result = students.execute(
            "retrieve (s.name, s.hours) from s in students "
            'where s.name = "bo"')
        table = result.to_table()
        assert "name" in table and "bo" in table and "22" in table

    def test_no_from_clause(self, students):
        result = students.execute("retrieve (1 + 2 as three)")
        assert result.rows == [{"three": 3}]


class TestAggregates:
    def test_count(self, students):
        result = students.execute(
            "retrieve (count()) from s in students")
        assert result.rows[0]["count()"] == 4

    def test_sum_avg_min_max(self, students):
        result = students.execute(
            "retrieve (sum(s.hours) as total, avg(s.hours) as mean, "
            "min(s.hours) as lo, max(s.hours) as hi) from s in students")
        row = result.rows[0]
        assert row["total"] == 95
        assert row["mean"] == pytest.approx(23.75)
        assert (row["lo"], row["hi"]) == (18, 30)

    def test_aggregate_with_where(self, students):
        result = students.execute(
            "retrieve (count()) from s in students where s.hours > 20")
        assert result.rows[0]["count()"] == 3

    def test_aggregate_of_empty(self, students):
        result = students.execute(
            "retrieve (sum(s.hours) as t) from s in students "
            "where s.hours > 99")
        assert result.rows[0]["t"] is None

    def test_aggregate_mixed_with_plain_rejected(self, students):
        with pytest.raises(ExecutionError):
            students.execute(
                "retrieve (s.name, count(s.hours)) from s in students")


class TestCalendarIntegration:
    def test_within_operator(self, students):
        result = students.execute(
            'retrieve (s.name) from s in students '
            'where s.week within "Mondays"')
        assert result.column("name") == ["alice", "bo", "dan"]

    def test_member_function(self, students):
        result = students.execute(
            'retrieve (s.name) from s in students '
            'where member(s.week, "Tuesdays")')
        assert result.column("name") == ["cara"]

    def test_on_calendar_clause(self, students):
        result = students.execute(
            'retrieve (s.name) from s in students on Mondays')
        assert result.column("name") == ["alice", "bo", "dan"]

    def test_on_expression_text(self, students):
        result = students.execute(
            'retrieve (s.name) from s in students '
            'on "[2]/DAYS:during:WEEKS"')
        assert result.column("name") == ["cara"]

    def test_on_requires_valid_time_column(self, students):
        students.create_table("plain", [("x", "int4")])
        students.insert("plain", x=1)
        with pytest.raises(ExecutionError):
            students.execute("retrieve (p.x) from p in plain on Mondays")

    def test_calendar_bridge_functions(self, students):
        day = students.system.day_of("Jan 1 1993")
        result = students.execute(
            f'retrieve (date_text({day}) as d, weekday({day}) as w, '
            f'next_in("Mondays", {day}) as nm)')
        row = result.rows[0]
        assert row["d"] == "Jan 1 1993"
        assert row["w"] == 5
        assert str(students.system.date_of(row["nm"])) == "Jan 4 1993"

    def test_calendar_valued_operator(self, students):
        result = students.execute(
            'retrieve (calendar("Mondays") * calendar("Weekdays") as c)')
        cal = result.rows[0]["c"]
        assert all(students.system.epoch.weekday_of(iv.lo) == 1
                   for iv in cal.iter_intervals())


class TestMutations:
    def test_append(self, students):
        students.execute('append students (name = "eve", hours = 5)')
        assert len(students.relation("students")) == 5

    def test_replace(self, students):
        result = students.execute(
            "replace s (hours = s.hours + 1) from s in students "
            "where s.hours >= 25")
        assert result.affected == 2
        hours = students.execute(
            'retrieve (s.hours) from s in students where s.name = "dan"')
        assert hours.rows[0]["hours"] == 31

    def test_delete(self, students):
        result = students.execute(
            'delete s from s in students where s.country = "US"')
        assert result.affected == 1
        assert len(students.relation("students")) == 3

    def test_delete_implicit_range_var(self, students):
        result = students.execute("delete students")
        assert result.affected == 4
        assert len(students.relation("students")) == 0


class TestIndexUse:
    def test_equality_probe_via_index(self, students):
        students.create_index("students", "name")
        result = students.execute(
            'retrieve (s.hours) from s in students where s.name = "cara"')
        assert result.rows[0]["hours"] == 18

    def test_index_maintained_on_mutations(self, students):
        students.create_index("students", "name")
        students.execute('append students (name = "zed", hours = 1)')
        students.execute(
            'replace s (hours = 2) from s in students where s.name = "zed"')
        result = students.execute(
            'retrieve (s.hours) from s in students where s.name = "zed"')
        assert result.rows[0]["hours"] == 2
        students.execute('delete s from s in students where s.name = "zed"')
        result = students.execute(
            'retrieve (s.hours) from s in students where s.name = "zed"')
        assert result.rows == []


class TestSystemCatalogs:
    def test_pg_class_lists_tables(self, students):
        result = students.execute(
            'retrieve (c.relname) from c in pg_class '
            'where c.relkind = "heap"')
        assert "students" in result.column("relname")

    def test_pg_attribute_lists_columns(self, students):
        result = students.execute(
            'retrieve (a.attname) from a in pg_attribute '
            'where a.relname = "students"')
        assert set(result.column("attname")) == {
            "name", "country", "week", "hours"}

    def test_drop_table_cleans_catalog(self, students):
        students.create_table("temp", [("x", "int4")])
        students.drop_table("temp")
        result = students.execute(
            'retrieve (c.relname) from c in pg_class '
            'where c.relname = "temp"')
        assert result.rows == []
        with pytest.raises(SchemaError):
            students.relation("temp")

    def test_cannot_drop_system_relation(self, students):
        with pytest.raises(SchemaError):
            students.drop_table("pg_class")


class TestErrors:
    def test_unknown_relation(self, db):
        with pytest.raises(SchemaError):
            db.execute("retrieve (x.a) from x in missing")

    def test_unbound_variable(self, students):
        with pytest.raises(ExecutionError):
            students.execute(
                "retrieve (t.name) from s in students")

    def test_unknown_column(self, students):
        with pytest.raises(ExecutionError):
            students.execute("retrieve (s.salary) from s in students")

    def test_unknown_function(self, students):
        with pytest.raises(ExecutionError):
            students.execute(
                "retrieve (mystery(s.hours)) from s in students")

    def test_type_error_in_operator(self, students):
        with pytest.raises(ExecutionError):
            students.execute(
                'retrieve (s.hours) from s in students '
                'where s.name + 1 = 2')

    def test_within_requires_int(self, students):
        with pytest.raises(ExecutionError):
            students.execute(
                'retrieve (s.name) from s in students '
                'where s.name within "Mondays"')


class TestPredicatePushdown:
    """Join results must be unchanged by early conjunct evaluation."""

    @pytest.fixture()
    def join_db(self, db):
        db.create_table("a_rel", [("k", "int4"), ("tag", "text")])
        db.create_table("b_rel", [("k", "int4"), ("val", "int4")])
        for k in range(6):
            db.insert("a_rel", k=k, tag="even" if k % 2 == 0 else "odd")
            db.insert("b_rel", k=k, val=k * 10)
        return db

    def test_join_with_mixed_conjuncts(self, join_db):
        result = join_db.execute(
            "retrieve (a.k, b.val) from a in a_rel, b in b_rel "
            'where a.tag = "even" and b.val > 10 and a.k = b.k')
        assert sorted((r["k"], r["val"]) for r in result.rows) == \
            [(2, 20), (4, 40)]

    def test_constant_conjunct(self, join_db):
        result = join_db.execute(
            "retrieve (a.k) from a in a_rel where 1 = 2 and a.k = 0")
        assert result.rows == []

    def test_or_predicates_not_split(self, join_db):
        # OR terms must not be pushed down independently.
        result = join_db.execute(
            "retrieve (a.k as ak, b.k as bk) from a in a_rel, "
            "b in b_rel where (a.k = 0 or b.k = 5) and a.k = b.k")
        assert sorted((r["ak"], r["bk"]) for r in result.rows) == \
            [(0, 0), (5, 5)]

    def test_cross_product_without_where(self, join_db):
        result = join_db.execute(
            "retrieve (count()) from a in a_rel, b in b_rel")
        assert result.rows[0]["count()"] == 36


class TestExplain:
    @pytest.fixture()
    def ex_db(self, db):
        db.execute("create table t1 (k int4, v text) valid time k")
        db.execute("create table t2 (k int4)")
        db.execute("create index on t1 (k)")
        return db

    def test_index_probe_reported(self, ex_db):
        plan = ex_db.explain(
            "retrieve (a.v) from a in t1 where a.k = 5")
        assert "index probe on t1.k" in plan

    def test_sequential_scan_reported(self, ex_db):
        plan = ex_db.explain(
            "retrieve (a.v) from a in t1 where a.v = \"x\"")
        assert "sequential scan" in plan

    def test_pushdown_placement_shown(self, ex_db):
        plan = ex_db.explain(
            "retrieve (a.v) from a in t1, b in t2 "
            'where a.v = "x" and b.k = a.k')
        lines = plan.splitlines()
        assert 'filter: (a.v = "x")' in lines[1]
        assert "(b.k = a.k)" in plan.splitlines()[3]

    def test_as_of_scan_reported(self, ex_db):
        plan = ex_db.explain(
            "retrieve (a.v) from a in t1 as of 3")
        assert "historical scan" in plan

    def test_post_steps_reported(self, ex_db):
        plan = ex_db.explain(
            "retrieve unique into sink (a.v) from a in t1 "
            "on Mondays order by v desc")
        assert "post: unique" in plan
        assert "order by v" in plan
        assert "materialise into sink" in plan
        assert "valid-time restriction" in plan

    def test_constant_result(self, ex_db):
        assert ex_db.explain("retrieve (1 + 1 as two)") == \
            "-> constant result"

    def test_non_retrieve_rejected(self, ex_db):
        with pytest.raises(ExecutionError):
            ex_db.explain("append t2 (k = 1)")


class TestMetricHandles:
    """``Executor.execute`` binds its metric handles once per registry:
    a swapped instrumentation bundle gets every later statement."""

    @staticmethod
    def _stack():
        from repro.catalog import CalendarRegistry
        from repro.core import CalendarSystem
        from repro.obs.instrument import Instrumentation
        registry = CalendarRegistry(CalendarSystem.starting("Jan 1 1987"),
                                    instrumentation=Instrumentation())
        db = Database(calendars=registry)
        db.create_table("t", [("x", "int4")])
        return registry, db, Instrumentation

    @staticmethod
    def _counts(metrics, relation: str) -> tuple[int, int]:
        latency = metrics.get("db.query.latency")
        family = metrics.get("db.relation.query_seconds")
        child = family.series().get((relation,)) if family else None
        return (latency.count if latency else 0,
                child.count if child else 0)

    def test_a_swapped_bundle_gets_the_next_statement(self):
        registry, db, Instrumentation = self._stack()
        first = registry.instrumentation
        db.execute("append t (x = 1)")
        registry.instrumentation = second = Instrumentation(tracing=True)
        db.execute("append t (x = 2)")
        db.execute("retrieve (a.x) from a in t")
        assert self._counts(first.metrics, "t") == (1, 1)
        assert self._counts(second.metrics, "t") == (2, 2)
        # Back to the first registry: its handles are bound again.
        registry.instrumentation = first
        db.execute("append t (x = 3)")
        assert self._counts(first.metrics, "t") == (2, 2)
        assert self._counts(second.metrics, "t") == (2, 2)

    def test_the_129th_relation_collapses_into_other(self):
        registry, db, _ = self._stack()
        for i in range(130):
            db.create_table(f"r{i}", [("x", "int4")])
        for i in range(130):
            db.execute(f"append r{i} (x = {i})")
        db.execute("append r129 (x = 0)")
        metrics = registry.instrumentation.metrics
        series = metrics.get("db.relation.query_seconds").series()
        assert len(series) == 129
        assert ("r127",) in series and ("r128",) not in series
        assert series[("other",)].count == 3  # r128, r129, r129 again
        assert metrics.get("metrics.series_dropped").value == 3
