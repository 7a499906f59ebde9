"""The :class:`repro.Session` facade: wiring, explain, profile, metrics."""

import json
import os
import subprocess
import sys
import warnings
from statistics import median

import pytest

from repro import (
    Calendar,
    CalendarRegistry,
    CalendarSystem,
    Database,
    Session,
)
from repro.obs.instrument import Instrumentation


@pytest.fixture()
def session():
    return Session("Jan 1 1987", holiday_years=(1987, 1996),
                   instrumentation=Instrumentation())


class TestWiring:
    def test_components_constructed_together(self, session):
        assert session.db.calendars is session.registry
        assert session.manager.db is session.db
        assert session.cron.manager is session.manager
        assert session.cron.clock is session.clock
        assert session.system is session.registry.system

    def test_instrumentation_shared(self, session):
        assert session.db.instrumentation is session.instrumentation
        assert session.registry.instrumentation is session.instrumentation

    def test_adopts_existing_registry(self):
        registry = CalendarRegistry(CalendarSystem.starting("Jan 1 1987"))
        s = Session(registry=registry)
        assert s.registry is registry
        assert s.db.calendars is registry

    def test_adopts_existing_database(self):
        db = Database()
        s = Session(database=db)
        assert s.db is db
        assert s.registry is db.calendars

    def test_attach_database_rewires(self, session):
        other = Database()
        session.attach_database(other)
        assert session.db is other
        assert session.manager is other.rule_manager
        assert session.cron.db is other

    def test_old_constructors_still_work(self):
        registry = CalendarRegistry(CalendarSystem.starting("Jan 1 1987"))
        db = Database(calendars=registry)
        assert db.calendars is registry  # no Session required


class TestEvaluation:
    def test_eval_expression(self, session):
        cal = session.eval("[1]/MONTHS:during:1993/YEARS")
        assert isinstance(cal, Calendar)
        assert len(cal.flatten()) == 1

    def test_eval_defined_name(self, session):
        cal = session.eval("HOLIDAYS", window=("Jan 1 1993", "Dec 31 1993"))
        assert isinstance(cal, Calendar)

    def test_eval_script(self, session):
        result = session.eval("x = (DAYS:during:[1]/MONTHS:during:"
                              "1993/YEARS); return (x)")
        assert isinstance(result, Calendar)

    def test_query(self, session):
        session.query("create table t (x int4)")
        session.query("append t (x = 1)")
        assert len(session.query("retrieve (t.x) from t in t")) == 1

    def test_next_occurrence_accepts_date_string(self, session):
        tick = session.next_occurrence("HOLIDAYS", "Feb 1 1993")
        assert isinstance(tick, int)


class TestExplain:
    def test_explain_expression_has_plan(self, session):
        exp = session.explain("[1]/MONTHS:during:1993/YEARS")
        assert exp.plan is not None
        text = exp.render()
        assert "generate(YEARS" in text
        assert "return" in text

    def test_explain_reports_factorizer_rewrites(self, session):
        exp = session.explain(
            "([1]/MONTHS:during:YEARS):during:1993/YEARS")
        assert exp.rewrites  # the paper's Example 1 factorization

    def test_explain_defined_name(self, session):
        session.registry.define(
            "jan", script="return ([1]/MONTHS:during:YEARS)")
        exp = session.explain("jan")
        assert exp.plan is not None

    def test_explain_explicit_calendar(self, session):
        session.registry.define("fixed", values=[(10, 12)],
                                granularity="days")
        exp = session.explain("fixed")
        assert exp.plan is None
        assert "explicit" in exp.note

    def test_explain_does_not_execute(self, session):
        before = session.registry.cache_stats()["served_intervals"]
        session.explain("DAYS:during:[1]/MONTHS:during:1993/YEARS")
        assert session.registry.cache_stats()["served_intervals"] == before


class TestProfile:
    def test_profile_returns_result_and_tree(self, session):
        profile = session.profile("[22]/DAYS:during:[1]/MONTHS:during:"
                                  "1993/YEARS")
        assert isinstance(profile.result, Calendar)
        assert profile.root.name == "session.profile"
        assert "plan.step." in profile.render()

    def test_profile_step_count_matches_plan(self, session):
        text = "[22]/DAYS:during:[1]/MONTHS:during:1993/YEARS"
        exp = session.explain(text)
        # The VM runs the optimized plan when the optimizer gate is on.
        plan = exp.opt_plan if exp.optimized and exp.opt_plan is not None \
            else exp.plan
        profile = session.profile(text)
        assert len(profile.steps()) == len(plan.steps)

    def test_profile_coverage_at_least_90_percent(self):
        """The first profile of a session (it pays the periodic compile)
        is at least 90% covered by leaf spans.  A run is a millisecond or
        two, so one scheduler stall in an untraced gap can swing a single
        reading across the bound: the median of five fresh sessions'
        first profiles decides."""
        coverages = []
        for _ in range(5):
            fresh = Session("Jan 1 1987", holiday_years=(1987, 1996),
                            instrumentation=Instrumentation())
            coverages.append(fresh.profile(
                "DAYS:during:[1]/MONTHS:during:1993/YEARS").coverage)
        assert median(coverages) >= 0.90, coverages

    def test_first_profile_of_a_process_covers_periodic_compile(self):
        """A process's first profile pays the periodic compile; it runs
        under a ``periodic.compile`` span, with the closed form's own
        ``periodic.closed`` span nested in it (no interpreter evaluation),
        so coverage holds from the first call.  Each run is a fresh
        process; the median of three keeps one scheduler stall in an
        untraced gap from deciding the outcome.  The children drop the
        ``REPRO_*`` settings, so every CI leg measures the same untraced
        first profile."""
        import repro

        script = (
            "from repro import Session\n"
            "p = Session().profile('DAYS:during:[1]/MONTHS:during:"
            "1993/YEARS')\n"
            "(span,) = p.root.find('periodic.compile')\n"
            "print(p.coverage, [c.name for c in span.children])\n")
        src = os.path.dirname(os.path.dirname(repro.__file__))
        env = {key: value for key, value in os.environ.items()
               if not key.startswith("REPRO_")}
        env["PYTHONPATH"] = src
        runs = [subprocess.run([sys.executable, "-c", script], env=env,
                               capture_output=True, text=True, check=True,
                               timeout=120).stdout.split(" ", 1)
                for _ in range(3)]
        assert all("'periodic.closed'" in children
                   and "registry.eval_expression" not in children
                   for _, children in runs)
        assert median(float(coverage) for coverage, _ in runs) >= 0.90, \
            runs

    def test_profile_leaves_tracing_state_untouched(self, session):
        assert session.instrumentation.tracer is None
        session.profile("[1]/MONTHS:during:1993/YEARS")
        assert session.instrumentation.tracer is None
        assert session.recent_traces() == []

    def test_profile_with_tracing_already_on(self, session):
        session.instrumentation.enable_tracing()
        tracer_before = session.instrumentation.raw_tracer
        session.profile("[1]/MONTHS:during:1993/YEARS")
        assert session.instrumentation.tracing is True
        assert session.instrumentation.raw_tracer is tracer_before


class TestObservability:
    def test_spans_carry_what_the_run_did(self, session):
        """The facts of a traced run are read from span meta: a
        statement's result size, and a periodic compile's path and
        form, or its decline reason."""
        session.instrumentation.enable_tracing()
        session.query("create table emp (name text)")
        for name in ("ann", "bob"):
            session.query(f'append emp (name = "{name}")')
        session.query("retrieve (e.name) from e in emp")
        assert session.registry.periodic_set("[2]/DAYS:during:WEEKS")
        assert session.registry.periodic_set(
            "[2]/DAYS:during:WEEKS:during:DECADES") is None
        spans = [span for root in session.recent_traces()
                 for span in root.walk()]
        assert [(s.name, s.meta["rows"], s.meta["affected"])
                for s in spans if s.name.startswith("executor.")] == [
            ("executor.CreateTable", 0, 0), ("executor.Append", 0, 1),
            ("executor.Append", 0, 1), ("executor.Retrieve", 2, 0)]
        compiled, declined = [s for s in spans
                              if s.name == "periodic.compile"]
        assert compiled.meta["path"] == "closed"
        assert compiled.meta["form"]
        assert "reason" not in compiled.meta
        assert declined.meta["reason"]
        assert "form" not in declined.meta

    def test_metrics_snapshot_after_eval(self, session):
        session.eval("[1]/MONTHS:during:1993/YEARS")
        snap = session.metrics()
        assert "matcache.misses" in snap

    def test_traces_recorded_when_enabled(self, session):
        session.instrumentation.enable_tracing()
        session.eval("[2]/MONTHS:during:1993/YEARS")
        names = [s.name for s in session.recent_traces()]
        assert "registry.eval_expression" in names

    def test_vm_step_metrics_recorded_when_tracing(self, session):
        session.instrumentation.enable_tracing()
        session.eval("[3]/MONTHS:during:1993/YEARS")
        assert session.metrics()["vm.steps"] > 0

    def test_export_json(self, session):
        session.eval("[1]/MONTHS:during:1993/YEARS")
        document = json.loads(session.export_json())
        assert document["kind"] == "observability"
        assert "matcache.misses" in document["metrics"]

    def test_dbcron_fire_metrics(self, session):
        fired = []
        session.manager.declare_temporal(
            "weekly", expression="[1]/DAYS:during:WEEKS",
            callback=lambda db, tick: fired.append(tick))
        session.cron.run_until(session.clock.now + 30)
        assert fired
        snap = session.metrics()
        assert snap["dbcron.fires"] == len(fired)
        assert snap["dbcron.fire_seconds"]["count"] == len(fired)
        assert snap["dbcron.probes"] >= 1


class TestWindowConventions:
    def test_string_window(self, session):
        cal = session.eval("DAYS", window="Jan 1 1993 .. Jan 5 1993")
        assert len(cal.flatten()) == 5

    def test_tuple_of_strings_window(self, session):
        cal = session.eval("DAYS", window=("Jan 1 1993", "Jan 5 1993"))
        assert len(cal.flatten()) == 5

    def test_bad_window_rejected(self, session):
        from repro.errors import ReproError
        with pytest.raises(ReproError):
            session.eval("DAYS", window="not a window")

    # The deprecated positional option forms are now keyword-only: the
    # positional call raises, the keyword call gives the calendar.

    def test_positional_window_deprecated(self, session):
        window = ("Jan 1 1993", "Jan 3 1993")
        with pytest.raises(TypeError):
            session.registry.eval_expression("DAYS", window)
        cal = session.registry.eval_expression("DAYS", window=window)
        assert len(cal.flatten()) == 3

    def test_positional_today_deprecated(self, session):
        window = ("Jan 1 1993", "Dec 31 1993")
        with pytest.raises(TypeError):
            session.registry.evaluate("HOLIDAYS", window, 2200)
        keyword = session.registry.evaluate("HOLIDAYS", window=window,
                                            today=2200)
        assert keyword.flatten() == session.registry.evaluate(
            "HOLIDAYS", window=window).flatten()

    def test_positional_eval_script_deprecated(self, session):
        window = ("Jan 1 1993", "Jan 3 1993")
        with pytest.raises(TypeError):
            session.registry.eval_script("return (DAYS)", window)
        cal = session.registry.eval_script("return (DAYS)", window=window)
        assert len(cal.flatten()) == 3

    def test_keyword_use_does_not_warn(self, session):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            session.registry.eval_expression(
                "DAYS", window=("Jan 1 1993", "Jan 3 1993"))
        assert not [w for w in caught
                    if issubclass(w.category, DeprecationWarning)]
