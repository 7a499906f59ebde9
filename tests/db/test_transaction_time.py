"""Transaction-time (no-overwrite) storage and the ``as of`` clause."""

import pytest

from repro.db import ExecutionError


@pytest.fixture()
def history_db(db):
    db.create_table("prices", [("symbol", "text"), ("price", "float8")])
    db.execute('append prices (symbol = "XYZ", price = 100.0)')
    db.execute('append prices (symbol = "ABC", price = 50.0)')
    db.execute('replace p (price = 110.0) from p in prices '
               'where p.symbol = "XYZ"')
    db.execute('delete p from p in prices where p.symbol = "ABC"')
    return db


class TestVersioning:
    def test_live_view_reflects_mutations(self, history_db):
        rows = history_db.execute(
            "retrieve (p.symbol, p.price) from p in prices")
        assert [(r["symbol"], r["price"]) for r in rows.rows] == \
            [("XYZ", 110.0)]

    def test_dead_versions_retained(self, history_db):
        relation = history_db.relation("prices")
        assert len(relation) == 1
        assert relation.version_count() == 3  # 1 live + 2 dead

    def test_tuples_carry_stamps(self, history_db):
        row = history_db.relation("prices").scan()[0]
        assert row["_tmin"] > 1
        assert "_tmax" not in row

    def test_vacuum_reclaims(self, history_db):
        assert history_db.vacuum() == 2
        assert history_db.relation("prices").version_count() == 1

    def test_truncate_clears_history(self, history_db):
        history_db.relation("prices").truncate()
        assert history_db.relation("prices").version_count() == 0


class TestAsOfQueries:
    def test_state_before_any_change(self, db):
        db.create_table("t", [("x", "int4")])
        xact0 = db.current_xact()
        db.execute("append t (x = 1)")
        rows = db.execute(
            f"retrieve (r.x) from r in t as of {xact0}")
        assert rows.rows == []

    def test_state_between_mutations(self, history_db):
        relation = history_db.relation("prices")
        # Find the stamp of the original XYZ version (first dead row).
        original = relation._history[0]
        assert original["price"] == 100.0
        xact = original["_tmin"]
        rows = history_db.execute(
            f'retrieve (p.price) from p in prices as of {xact} '
            'where p.symbol = "XYZ"')
        assert rows.column("price") == [100.0]

    def test_deleted_tuple_visible_historically(self, history_db):
        relation = history_db.relation("prices")
        abc = next(r for r in relation._history if r["symbol"] == "ABC")
        xact = abc["_tmax"] - 1
        rows = history_db.execute(
            f"retrieve (p.symbol) from p in prices as of {xact} "
            "order by symbol")
        assert rows.column("symbol") == ["ABC", "XYZ"]

    def test_current_xact_sees_live_state(self, history_db):
        now = history_db.current_xact()
        live = history_db.execute(
            "retrieve (p.symbol, p.price) from p in prices")
        historical = history_db.execute(
            f"retrieve (p.symbol, p.price) from p in prices as of {now}")
        assert live.rows == historical.rows

    def test_as_of_must_be_integer(self, history_db):
        with pytest.raises(ExecutionError):
            history_db.execute(
                'retrieve (p.price) from p in prices as of "yesterday"')

    def test_join_current_with_historical(self, history_db):
        """Rule conditions can compare current vs historical state."""
        relation = history_db.relation("prices")
        old_xact = relation._history[0]["_tmin"]
        rows = history_db.execute(
            "retrieve (now.symbol, now.price as current_price, "
            "old.price as old_price) "
            f"from now in prices, old in prices as of {old_xact} "
            "where now.symbol = old.symbol")
        (row,) = rows.rows
        assert row["current_price"] == 110.0
        assert row["old_price"] == 100.0


class TestRuleOverHistory:
    def test_event_rule_checking_historical_state(self, history_db):
        """Section 4: a condition inspecting a past state of the object."""
        from repro.rules import RuleManager
        manager = RuleManager(history_db)
        history_db.create_table("spikes", [("symbol", "text")])
        baseline_xact = history_db.relation(
            "prices")._history[0]["_tmin"]
        manager.declare_event(
            "spike_watch", event="replace", relation="prices",
            condition=None,
            callback=lambda d, e: d.execute(
                f'retrieve into spikes (p.symbol) from p in prices '
                f'as of {baseline_xact} '
                f'where p.symbol = "{e.new["symbol"]}" '
                f'and p.price * 2 < {e.new["price"]}'))
        history_db.execute(
            'replace p (price = 250.0) from p in prices '
            'where p.symbol = "XYZ"')
        spikes = history_db.execute(
            "retrieve (s.symbol) from s in spikes")
        assert spikes.column("symbol") == ["XYZ"]
