"""Property-based parity: the vectorized retrieve pipeline must agree
with the row-at-a-time engine on every query — same result multiset,
same row order under ``order by`` unique keys (and under no ``order by``
where the valid-time range scan must keep scan order), and same error
class when a query raises — across random schemas, NULL columns,
inverted intervals, ticks at 0, below 0 and on both sides of the
compiled calendars' safe range, equi/overlap/valid-time predicate mixes,
mutations between queries and ``as of`` scans.  The row engine is the
oracle: it runs with ``vector.plan_retrieve`` patched to refuse every
statement.
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
        # Overlapping values: sorted lanes the range scan merges, and
        # the same intervals out of order, which the probe sorts first.
        _REGISTRY.define("OVERLAP", values=[(-20, 4), (2, 30), (25, 405),
                                            (1420, 1440)],
                         granularity="DAYS")
        _REGISTRY.define("JUMBLE", values=[(25, 405), (-20, 4), (2, 30)],
                         granularity="DAYS")
    return _REGISTRY


#: The registry window is ticks 1..1826; compiled calendars are probed
#: only inside (401, 1426), so the ticks straddle both of its edges as
#: well as 0 (never a member) and negative ticks.
_SAFE_LO, _SAFE_HI = 401, 1426

# Row values: small ints so joins actually match, None for NULL
# semantics, and independently drawn interval endpoints so inverted
# (lo > hi) intervals appear and must take the sweep's scalar escape.
_key = st.one_of(st.none(), st.integers(min_value=0, max_value=4))
_tick = st.one_of(
    st.none(), st.integers(min_value=-10, max_value=60),
    st.integers(min_value=_SAFE_LO - 15, max_value=_SAFE_LO + 15),
    st.integers(min_value=_SAFE_HI - 15, max_value=_SAFE_HI + 15))
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


def _range_scans(db) -> int:
    return db.instrumentation.metrics.snapshot().get(
        f'db.join.strategy{{strategy="{vector.STRAT_RANGE}"}}', 0)


def _assert_parity(db, query, bindings=None, ordered=False, ranged=None):
    """Both engines agree on ``query``; with ``ranged`` set, the
    vectorized run took the valid-time range scan exactly when it is
    True."""
    scans = _range_scans(db)
    vectorized = _run(db, query, bindings, ordered)
    if ranged is not None:
        assert (_range_scans(db) > scans) == ranged, query
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
    # hash equi join, indexed sides or not
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
    # a conjunct that raises on NULL ahead of the within keeps the
    # batched sweep and the row engine's short-circuit
    ('retrieve (a.k) from a in ta where a.hi > 3 and a.lo within "MONDAYS"',
     None, False),
    # the within feeds a join
    ('retrieve (a.k, b.k) from a in ta, b in tb '
     'where a.lo within "MONDAYS" and a.k = b.k', None, False),
    # on behind a filter that raises on NULL: the row engine evaluates
    # the filter on off-calendar rows too, so the range scan declines
    ("retrieve (a.k) from a in ta where a.hi > 3 on MONDAYS", None, False),
]

#: Join projections compared in row order with no ``order by``: the
#: join kernels hand rows over in the nested loop's order.
ORDERED_JOINS = [
    "retrieve (a._tid as t1, b._tid as t2, a.k) from a in ta, b in tb "
    "where a.k = b.k",
    "retrieve (a._tid as t1, b._tid as t2) from a in ta, b in tb "
    "where overlaps(a.lo, a.hi, b.lo, b.hi)",
]
QUERIES += [(query, None, True) for query in ORDERED_JOINS]

#: Queries the valid-time range scan serves while ``ta.lo`` has no NULL
#: (``on`` serves them regardless): ``(query, ordered, needs_cover)``.
#: Projections compare in order with no ``order by``: the scan must
#: hand rows over in scan order.
RANGE_QUERIES = [
    ('retrieve (count()) from a in ta where a.lo within "MONDAYS"',
     False, True),
    ('retrieve (a.k, a.lo) from a in ta where a.lo within "MONDAYS"',
     True, True),
    ('retrieve (a.k, a.lo) from a in ta where a.lo within "MONDAYS" '
     'and a.k != 2', True, True),
    ('retrieve (a.lo) from a in ta where a.lo within "OVERLAP"',
     True, True),
    ("retrieve (count()) from a in ta on MONDAYS", False, False),
    ("retrieve (a.k, a.lo) from a in ta on OVERLAP", True, False),
]


def _assert_range_parity(db):
    covered = all(row["lo"] is not None
                  for row in db.relation("ta").scan())
    for query, ordered, needs_cover in RANGE_QUERIES:
        _assert_parity(db, query, ordered=ordered,
                       ranged=covered or not needs_cover)
    # Out-of-order lanes: the probe sorts them, the scan still serves.
    _assert_parity(db, 'retrieve (a.lo) from a in ta '
                       'where a.lo within "JUMBLE"', ordered=True,
                   ranged=covered)


class TestVectorizedParity:
    @settings(max_examples=60, deadline=None)
    @given(rows_a=_rows, rows_b=_rows, index_a=st.booleans(),
           index_b=st.booleans())
    def test_engines_agree(self, rows_a, rows_b, index_a, index_b):
        db = _build(rows_a, rows_b, index_a, index_b)
        for query, bindings, ordered in QUERIES:
            _assert_parity(db, query, bindings, ordered)
        _assert_range_parity(db)
        # With both join columns indexed too.
        db.create_index("ta", "k")
        db.create_index("tb", "k")
        for query in ORDERED_JOINS:
            _assert_parity(db, query, ordered=True)

    @settings(max_examples=30, deadline=None)
    @given(flags=st.lists(st.one_of(st.none(), st.booleans()), max_size=8),
           ticks=st.lists(st.integers(min_value=-3, max_value=3),
                          max_size=4))
    def test_a_bool_is_not_a_tick(self, flags, ticks):
        db = Database(calendars=_registry())
        db.create_table("e", [("f", "bool"), ("t", "int4")],
                        valid_time_column="f")
        for f in flags:
            db.insert("e", f=f, t=1)
        for t in ticks:  # tick 0 is a non-member, not an error
            db.insert("e", f=None, t=t)
        for query in ('retrieve (count()) from x in e '
                      'where x.f within "DAYS"',
                      'retrieve (x.t) from x in e where x.t within "DAYS"',
                      'retrieve (member(x.f, "DAYS") as m) from x in e',
                      'retrieve (x.t) from x in e on DAYS'):
            _assert_parity(db, query)

    @settings(max_examples=30, deadline=None)
    @given(rows_a=_rows, steps=st.lists(st.tuples(
        st.sampled_from(["append", "replace", "delete"]),
        st.integers(0, 9), _key, _tick), max_size=6))
    def test_range_scan_after_mutations(self, rows_a, steps):
        db = _build(rows_a, [], False, False)
        relation = db.relation("ta")
        for op, at, k, lo in steps:
            live = list(relation.scan())
            if op == "append" or not live:
                db.insert("ta", k=k, lo=lo, hi=lo)
            elif op == "replace":
                relation.update(live[at % len(live)]["_tid"],
                                {"k": k, "lo": lo})
            else:
                relation.delete(live[at % len(live)]["_tid"])
            _assert_range_parity(db)

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
