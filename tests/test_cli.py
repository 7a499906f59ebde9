"""Tests for the interactive shell (driven through Session.run_line)."""

import pytest

from repro.cli import Session


@pytest.fixture(scope="module")
def session():
    return Session(epoch="Jan 1 1987", holiday_years=(1987, 1999))


class TestExpressionInput:
    def test_expression_prints_dates(self, session):
        session.run_line("\\window Jan 1 1993 .. Dec 31 1993")
        out = session.run_line(
            "[3]/WEEKS:overlaps:[1]/MONTHS:during:1993/YEARS")
        assert out == "Jan 11 1993 .. Jan 17 1993"

    def test_instant_calendar_rendering(self, session):
        out = session.run_line("[2]/DAYS:during:[1]/WEEKS:during:"
                               "1993/YEARS")
        assert "Jan 5 1993" in out

    def test_long_results_elided(self, session):
        out = session.run_line("[2]/DAYS:during:WEEKS")
        assert "more)" in out

    def test_order2_rendering(self, session):
        out = session.run_line("WEEKS:during:[1-2]/MONTHS:during:"
                               "1993/YEARS")
        assert out.startswith("order-2 calendar")

    def test_parse_error_reported(self, session):
        out = session.run_line("WEEKS:during:")
        assert out.startswith("error:")

    def test_empty_line(self, session):
        assert session.run_line("   ") == ""


class TestQlInput:
    def test_ddl_and_dml(self, session):
        session.run_line("create table pets (name text)")
        session.run_line('append pets (name = "rex")')
        out = session.run_line("retrieve (p.name) from p in pets")
        assert "rex" in out

    def test_query_error_reported(self, session):
        out = session.run_line("retrieve (x.a) from x in missing")
        assert out.startswith("error:")


class TestCommands:
    def test_help(self, session):
        assert "backslash commands" in session.run_line("\\help")

    def test_calendars_listing(self, session):
        out = session.run_line("\\calendars")
        assert "Tuesdays" in out and "HOLIDAYS" in out

    def test_show_figure1(self, session):
        out = session.run_line("\\show Tuesdays")
        assert "Derivation-Script" in out

    def test_define_command(self, session):
        out = session.run_line(
            "\\define PAYDAY {return([n]/AM_BUS_DAYS:during:MONTHS);}")
        assert out == "defined calendar PAYDAY"
        assert "PAYDAY" in session.run_line("\\calendars")

    def test_window_usage_error(self, session):
        assert "usage" in session.run_line("\\window Jan 1 1993")

    def test_clock_and_advance(self, session):
        assert "tick" in session.run_line("\\clock")
        out = session.run_line("\\advance 10")
        assert "clock at" in out

    def test_advance_fires_temporal_rules(self, session):
        session.run_line("create table ticks (t abstime)")
        session.run_line(
            'define rule tick_rule on calendar "[2]/DAYS:during:WEEKS" '
            "do ( append ticks (t = now.t) )")
        out = session.run_line("\\advance 15")
        assert "temporal rule firing(s)" in out
        rows = session.run_line("retrieve (count()) from t in ticks")
        count = int(rows.splitlines()[-1].strip())
        assert count >= 2  # at least two Tuesdays in 15 days

    def test_rules_listing(self, session):
        out = session.run_line("\\rules")
        assert "tick_rule" in out

    def test_tables_listing(self, session):
        out = session.run_line("\\tables")
        assert "pg_class" in out and "pets" in out

    def test_unknown_command(self, session):
        assert "unknown command" in session.run_line("\\frobnicate")

    def test_workers_command_is_gone(self, session):
        assert "unknown command" in session.run_line("\\workers")
        assert "unknown command" in session.run_line("\\workers 4")

    def test_help_lists_no_workers_command(self, session):
        assert "\\workers" not in session.run_line("\\help")

    def test_quit_raises_eof(self, session):
        with pytest.raises(EOFError):
            session.run_line("\\quit")


class TestSaveLoad:
    def test_roundtrip(self, tmp_path):
        session = Session(holiday_years=(1987, 1994))
        session.run_line("create table notes (txt text)")
        session.run_line('append notes (txt = "hello")')
        out = session.run_line(f"\\save {tmp_path / 'session.json'}")
        assert out.startswith("saved")
        out = session.run_line(f"\\load {tmp_path / 'session.json'}")
        assert out.startswith("loaded")
        rows = session.run_line("retrieve (n.txt) from n in notes")
        assert "hello" in rows


class TestMain:
    def test_main_with_commands(self, capsys):
        from repro.cli import main
        code = main(["-c", "\\clock"])
        assert code == 0
        assert "tick" in capsys.readouterr().out

    def test_main_help(self, capsys):
        from repro.cli import main
        assert main(["--help"]) == 0
        assert "backslash" in capsys.readouterr().out

    def test_main_bad_arg(self, capsys):
        from repro.cli import main
        assert main(["--bogus"]) == 2


class TestExplainCommand:
    def test_explain(self, session):
        session.run_line("create table exp_t (k int4)")
        session.run_line("create index on exp_t (k)")
        out = session.run_line(
            "\\explain retrieve (e.k) from e in exp_t where e.k = 1")
        assert "index probe" in out

    def test_explain_usage(self, session):
        assert "usage" in session.run_line("\\explain")


class TestCacheContentionLine:
    def test_cache_reports_contention(self, session):
        session.run_line("[1]/MONTHS:during:1993/YEARS")
        out = session.run_line("\\cache")
        assert "contention:" in out
        assert "single-flight waits" in out
