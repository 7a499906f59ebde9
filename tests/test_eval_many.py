"""Unit tests for the batch engine: ``Session.eval_many``.

Covers what the Hypothesis parity property does not pin down directly:
result ordering and object sharing for duplicate inputs, error
propagation order, the one legal ``workers=`` value, and the trace
rollup under one ``session.eval_many`` root span.
"""

import threading

import pytest

from repro.core import Calendar
from repro.core.errors import ConfigurationError
from repro.errors import ReproError
from repro.obs.instrument import Instrumentation
from repro.session import Session

WINDOW = ("Jan 1 1993", "Dec 31 1993")

MIXED = [
    "[1]/MONTHS:during:1993/YEARS",
    "HOLIDAYS",
    "AM_BUS_DAYS - HOLIDAYS",
    "x = (DAYS:during:[1]/MONTHS:during:1993/YEARS); return (x)",
]


@pytest.fixture()
def session():
    return Session("Jan 1 1987", holiday_years=(1993, 1994),
                   instrumentation=Instrumentation())


class TestOrderingAndDedup:
    def test_results_in_input_order(self, session):
        expected = [session.eval(t, window=WINDOW) for t in MIXED]
        got = session.eval_many(MIXED, window=WINDOW)
        assert len(got) == len(expected)
        for g, e in zip(got, expected):
            assert g.to_pairs() == e.to_pairs()

    def test_duplicates_share_one_result_object(self, session):
        batch = ["HOLIDAYS", "[1]/MONTHS:during:1993/YEARS", "HOLIDAYS",
                 "HOLIDAYS"]
        got = session.eval_many(batch, window=WINDOW)
        assert got[0] is got[2]
        assert got[0] is got[3]
        assert got[1] is not got[0]

    def test_empty_batch(self, session):
        assert session.eval_many([], window=WINDOW) == []

    def test_accepts_any_iterable(self, session):
        got = session.eval_many(iter(["HOLIDAYS"]), window=WINDOW)
        assert isinstance(got[0], Calendar)


class TestErrorPropagation:
    def test_unknown_name_raises(self, session):
        with pytest.raises(ReproError):
            session.eval_many(["NO_SUCH_CAL_XYZ"], window=WINDOW)

    def test_first_error_by_input_order(self, session):
        batch = ["HOLIDAYS", "UNDEFINED_B + DAYS", "UNDEFINED_A",
                 "HOLIDAYS"]
        with pytest.raises(ReproError) as excinfo:
            session.eval_many(batch, window=WINDOW)
        assert "UNDEFINED_B" in str(excinfo.value)

    def test_good_scripts_unaffected_by_bad_sibling(self, session):
        # The same session still answers after a failed batch.
        with pytest.raises(ReproError):
            session.eval_many(["HOLIDAYS", "NO_SUCH_CAL_XYZ"],
                              window=WINDOW)
        got = session.eval_many(["HOLIDAYS"], window=WINDOW)
        assert isinstance(got[0], Calendar)


class TestSequentialBatch:
    def test_jobs_run_in_input_order_on_the_calling_thread(
            self, session, monkeypatch):
        ran = []
        exec_job = session._exec_job

        def spy(job, *args):
            ran.append((job.text, threading.get_ident()))
            return exec_job(job, *args)

        monkeypatch.setattr(session, "_exec_job", spy)
        batch = [MIXED[2], MIXED[0], MIXED[2], MIXED[1]]
        session.eval_many(batch, window=WINDOW)
        # One run per unique text, first-seen order, this thread only.
        assert ran == [(text, threading.get_ident())
                       for text in (MIXED[2], MIXED[0], MIXED[1])]

    def test_max_workers_is_not_a_parameter(self, session):
        with pytest.raises(TypeError, match="max_workers"):
            session.eval_many(MIXED, window=WINDOW, max_workers=2)

    def test_batch_events_carry_no_workers_field(self, session):
        session.instrumentation.tracing = True
        session.eval_many(MIXED + MIXED[:1], window=WINDOW)
        (root,) = [s for s in session.recent_traces()
                   if s.name == "session.eval_many"]
        assert root.meta == {"scripts": 5, "unique": 4}
        assert root.duration > 0.0
        assert not root.find("pool.dispatch")

    def test_root_span_has_no_workers_attribute(self, session):
        session.instrumentation.tracing = True
        session.eval_many(MIXED, window=WINDOW)
        (root,) = [s for s in session.recent_traces()
                   if s.name == "session.eval_many"]
        assert "workers" not in root.meta


class TestWorkersParameter:
    def test_one_worker_builds(self):
        session = Session("Jan 1 1987", workers=1,
                          instrumentation=Instrumentation())
        assert isinstance(session.eval(MIXED[0], window=WINDOW), Calendar)

    @pytest.mark.parametrize("workers", [2, 0, None])
    def test_any_other_value_raises_a_typed_error(self, workers):
        with pytest.raises(ConfigurationError,
                           match="worker pool was removed"):
            Session("Jan 1 1987", workers=workers,
                    instrumentation=Instrumentation())
        assert issubclass(ConfigurationError, ReproError)


class TestTraceRollup:
    def test_one_root_with_job_spans(self, session):
        session.instrumentation.tracing = True
        session.eval_many(MIXED, window=WINDOW)
        roots = [s for s in session.recent_traces()
                 if s.name == "session.eval_many"]
        assert len(roots) == 1
        root = roots[0]
        assert root.meta["scripts"] == len(MIXED)
        assert root.meta["unique"] == len(MIXED)
        names = [c.name for c in root.children]
        assert names.count("eval_many.plan") == 1
        assert names.count("eval_many.hoist") == 1
        jobs = [c for c in root.children if c.name == "session.eval_job"]
        assert len(jobs) == len(MIXED)
        assert {j.meta["script"] for j in jobs} == set(MIXED)

    def test_hoist_span_reports_materialisations(self, session):
        session.instrumentation.tracing = True
        session.eval_many(MIXED, window=WINDOW)
        root = [s for s in session.recent_traces()
                if s.name == "session.eval_many"][0]
        hoist = root.find("eval_many.hoist")[0]
        assert hoist.meta["materialised"] >= 1

    def test_tracing_off_is_fine(self, session):
        session.instrumentation.tracing = False
        got = session.eval_many(MIXED, window=WINDOW)
        assert len(got) == len(MIXED)
        assert session.recent_traces() == []
