"""Property-based parity: the vectorized retrieve pipeline must agree
with the row-at-a-time engine on every query — same result multiset,
same row order under ``order by`` unique keys, and same error class when
a query raises — across random schemas, NULL columns, inverted
intervals, equi/overlap/valid-time predicate mixes and ``as of`` scans.
The row engine is the oracle: it runs with ``vector.plan_retrieve``
patched to refuse every statement.
"""

from unittest import mock

from hypothesis import given, settings, strategies as st

from repro.catalog import CalendarRegistry, install_standard_calendars
from repro.core import CalendarSystem
from repro.db import Database
from repro.db import vector

_REGISTRY = None


def _registry() -> CalendarRegistry:
    """One shared registry — building it per example would dominate."""
    global _REGISTRY
    if _REGISTRY is None:
        _REGISTRY = CalendarRegistry(
            CalendarSystem.starting("Jan 1 1987"),
            default_horizon_years=5)
        install_standard_calendars(_REGISTRY)
    return _REGISTRY


# Row values: small ints so joins actually match, None for NULL
# semantics, and independently drawn interval endpoints so inverted
# (lo > hi) intervals appear and must take the sweep's scalar escape.
_key = st.one_of(st.none(), st.integers(min_value=0, max_value=4))
_tick = st.one_of(st.none(), st.integers(min_value=1, max_value=60))
_rows = st.lists(st.tuples(_key, _tick, _tick), max_size=10)


def _build(rows_a, rows_b, index_a, index_b) -> Database:
    db = Database(calendars=_registry())
    db.create_table("ta", [("k", "int4"), ("lo", "abstime"),
                           ("hi", "abstime")], valid_time_column="lo")
    db.create_table("tb", [("k", "int4"), ("lo", "abstime"),
                           ("hi", "abstime")])
    for k, lo, hi in rows_a:
        db.insert("ta", k=k, lo=lo, hi=hi)
    for k, lo, hi in rows_b:
        db.insert("tb", k=k, lo=lo, hi=hi)
    if index_a:
        db.create_index("ta", "k")
    if index_b:
        db.create_index("tb", "k")
    return db


def _run(db, query, bindings=None, ordered=False):
    """Outcome of one engine run: rows (sorted unless ordered) or the
    raised error class — errors must match across engines too."""
    try:
        rows = [repr(row) for row in db.execute(query, bindings).rows]
    except Exception as exc:
        return ("error", type(exc).__name__)
    return ("ok", rows if ordered else sorted(rows))


def _assert_parity(db, query, bindings=None, ordered=False):
    vectorized = _run(db, query, bindings, ordered)
    refusals = []

    def refuse(stmt, db, extra_keys):
        refusals.append(stmt)
        return None, "row engine forced"

    with mock.patch.object(vector, "plan_retrieve", refuse):
        sequential = _run(db, query, bindings, ordered)
    # The oracle run reached the planner and was refused, so it really
    # took the row engine rather than comparing the pipeline to itself.
    assert len(refusals) == 1, query
    assert vectorized == sequential, query


QUERIES = [
    # projection / single-variable filters (index probe when indexed)
    ("retrieve (a.k, a.lo, a.hi) from a in ta", None, False),
    ("retrieve (a.lo) from a in ta where a.k = 2", None, False),
    ("retrieve (a.lo) from a in ta where a.k = bound and a.lo > 10",
     {"bound": 1}, False),
    # batched calendar probe; raises on NULL ticks in both engines
    ('retrieve (a.lo) from a in ta where a.lo within "MONDAYS"',
     None, False),
    # single-variable interval predicate stays a scalar filter
    ("retrieve (a.k) from a in ta "
     "where overlaps(a.lo, a.hi, a.lo, a.hi)", None, False),
    # hash / merge equi join (merge when both sides fully indexed)
    ("retrieve (a.k, b.lo) from a in ta, b in tb where a.k = b.k",
     None, False),
    ("retrieve (a.k) from a in ta, b in tb "
     "where a.k = b.k and a.lo > 10 and b.hi < 50", None, False),
    # endpoint sweeps, incl. NULL and inverted intervals
    ("retrieve (a.lo, b.lo) from a in ta, b in tb "
     "where overlaps(a.lo, a.hi, b.lo, b.hi)", None, False),
    ("retrieve (a.lo, b.lo) from a in ta, b in tb "
     "where during(a.lo, a.hi, b.lo, b.hi)", None, False),
    # three variables: join fold plus a secondary edge filter
    ("retrieve (a.k) from a in ta, b in tb, c in tb "
     "where a.k = b.k and b.k = c.k and a.k = c.k", None, False),
    # valid-time restriction (NULL ticks silently excluded)
    ("retrieve (a.k, a.lo) from a in ta on MONDAYS", None, False),
    # aggregate fast path
    ("retrieve (count() as n) from a in ta, b in tb where a.k = b.k",
     None, False),
    # historical scan: both engines take the sequential path
    ("retrieve (a.k) from a in ta as of 1", None, False),
    # exact row order under a unique order-by key pair
    ("retrieve (a._tid as t1, b._tid as t2) from a in ta, b in tb "
     "where a.k = b.k order by t1, t2", None, True),
]


class TestVectorizedParity:
    @settings(max_examples=60, deadline=None)
    @given(rows_a=_rows, rows_b=_rows, index_a=st.booleans(),
           index_b=st.booleans())
    def test_engines_agree(self, rows_a, rows_b, index_a, index_b):
        db = _build(rows_a, rows_b, index_a, index_b)
        for query, bindings, ordered in QUERIES:
            _assert_parity(db, query, bindings, ordered)

    @settings(max_examples=30, deadline=None)
    @given(rows_a=_rows, deleted=st.sets(st.integers(0, 9)))
    def test_as_of_after_mutation(self, rows_a, deleted):
        db = _build(rows_a, [], True, False)
        relation = db.relation("ta")
        live = list(relation.scan())
        for i in sorted(deleted):
            if i < len(live):
                relation.delete(live[i]["_tid"])
        for xact in (1, db.current_xact()):
            _assert_parity(
                db, f"retrieve (a.k, a.lo) from a in ta as of {xact}")
        _assert_parity(db, "retrieve (a.k, a.lo) from a in ta")
