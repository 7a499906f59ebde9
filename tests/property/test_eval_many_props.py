"""Property: ``Session.eval_many`` equals sequential ``eval``.

For any batch drawn from a pool of defined names, expressions and
scripts — duplicates included — the batch engine must return exactly
what a script-by-script ``session.eval`` loop returns, in the same
order.  One module-level session is shared across
examples so the batch paths run against progressively warmer plan/
materialisation caches (the realistic steady state).
"""

from hypothesis import given, settings, strategies as st

from repro.core import Calendar
from repro.obs.instrument import Instrumentation
from repro.session import Session

SESSION = Session("Jan 1 1987", holiday_years=(1993, 1994),
                  instrumentation=Instrumentation())

WINDOW = ("Jan 1 1993", "Dec 31 1993")

#: Mixed pool: expressions, a defined calendar, a full script.
SCRIPT_POOL = [
    "[1]/MONTHS:during:1993/YEARS",
    "[22]/DAYS:during:[1]/MONTHS:during:1993/YEARS",
    "[3]/WEEKS:overlaps:[1]/MONTHS:during:1993/YEARS",
    "DAYS:during:[2]/MONTHS:during:1993/YEARS",
    "HOLIDAYS",
    "AM_BUS_DAYS - HOLIDAYS",
    "x = (DAYS:during:[1]/MONTHS:during:1993/YEARS); return (x)",
    "[n]/DAYS:during:[3]/MONTHS:during:1993/YEARS",
]

batches = st.lists(st.sampled_from(SCRIPT_POOL), min_size=1, max_size=10)


def assert_same(got, expected) -> None:
    assert type(got) is type(expected)
    if isinstance(expected, Calendar):
        assert got.to_pairs() == expected.to_pairs()
        assert got.labels == expected.labels
    else:
        assert got == expected


@settings(max_examples=25, deadline=None)
@given(batch=batches)
def test_eval_many_equals_sequential_eval(batch):
    expected = [SESSION.eval(text, window=WINDOW) for text in batch]
    got = SESSION.eval_many(batch, window=WINDOW)
    assert len(got) == len(expected)
    for g, e in zip(got, expected):
        assert_same(g, e)

