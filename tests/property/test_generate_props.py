"""Property-based tests for basic-calendar generation.

``TestDatetimeModel`` checks ``generate`` pair-for-pair and
label-for-label against a brute-force model built on :mod:`datetime`,
under epochs that put the zero skip at a year start, inside a month and
on a leap day.
"""

import datetime

from hypothesis import given, settings, strategies as st

from repro.core import CalendarSystem, Granularity

SYSTEM = CalendarSystem.starting("Jan 1 1987")

day_granularities = st.sampled_from(
    [Granularity.DAYS, Granularity.WEEKS, Granularity.MONTHS,
     Granularity.YEARS])

windows = st.tuples(
    st.integers(min_value=-2000, max_value=2000).filter(lambda t: t != 0),
    st.integers(min_value=1, max_value=500),
).map(lambda t: (t[0], t[0] + t[1] if t[0] + t[1] != 0 else t[0] + t[1] + 1))


def points(cal):
    out = set()
    for iv in cal.iter_intervals():
        out |= set(iv)
    return out


class TestGenerateProperties:
    @given(day_granularities, windows)
    @settings(max_examples=60, deadline=None)
    def test_clip_covers_exactly_the_window(self, gran, window):
        lo, hi = window
        cal = SYSTEM.generate(gran, "DAYS", (lo, hi), mode="clip")
        expected = {d for d in range(lo, hi + 1) if d != 0}
        assert points(cal) == expected

    @given(day_granularities, windows)
    @settings(max_examples=60, deadline=None)
    def test_cover_is_superset_of_clip(self, gran, window):
        clip = SYSTEM.generate(gran, "DAYS", window, mode="clip")
        cover = SYSTEM.generate(gran, "DAYS", window, mode="cover")
        assert points(clip) <= points(cover)

    @given(day_granularities, windows)
    @settings(max_examples=60, deadline=None)
    def test_elements_contiguous_and_disjoint(self, gran, window):
        cal = SYSTEM.generate(gran, "DAYS", window, mode="cover")
        for a, b in zip(cal.elements, cal.elements[1:]):
            # Consecutive units tile the axis: b starts right after a.
            expected = a.hi + 1 if a.hi + 1 != 0 else 1
            assert b.lo == expected

    @given(windows)
    @settings(max_examples=60, deadline=None)
    def test_week_lengths(self, window):
        cal = SYSTEM.generate("WEEKS", "DAYS", window, mode="cover")
        assert all(len(iv) == 7 for iv in cal.elements)

    @given(windows)
    @settings(max_examples=60, deadline=None)
    def test_month_boundaries_match_datetime(self, window):
        cal = SYSTEM.generate("MONTHS", "DAYS", window, mode="cover")
        for i, iv in enumerate(cal.elements):
            start = SYSTEM.date_of(iv.lo)
            assert start.day == 1
            oracle = datetime.date(start.year, start.month, 1)
            assert (oracle.year, oracle.month) == (start.year, start.month)
            end = SYSTEM.date_of(iv.hi)
            next_day = SYSTEM.date_of(iv.hi + 1 if iv.hi + 1 != 0 else 1)
            assert next_day.day == 1  # last day of the month
            assert cal.labels[i] == start.month

    @given(windows)
    @settings(max_examples=60, deadline=None)
    def test_year_labels_match_dates(self, window):
        cal = SYSTEM.generate("YEARS", "DAYS", window, mode="cover")
        for i, iv in enumerate(cal.elements):
            assert cal.labels[i] == SYSTEM.date_of(iv.lo).year
            assert SYSTEM.date_of(iv.lo).month == 1
            assert SYSTEM.date_of(iv.hi).month == 12

    @given(windows, st.sampled_from([24, 1440]))
    @settings(max_examples=40, deadline=None)
    def test_subday_scaling_consistent(self, window, factor):
        unit = Granularity.HOURS if factor == 24 else Granularity.MINUTES
        lo, hi = window
        days = SYSTEM.generate("DAYS", unit,
                               ((lo - 1) * factor + 1 if lo > 0
                                else lo * factor,
                                hi * factor if hi > 0
                                else (hi + 1) * factor - 1),
                               mode="cover")
        assert all(len(iv) == factor for iv in days.elements)


# -- brute-force datetime model ------------------------------------------------

MODEL_EPOCHS = {
    "Jan 1 1987": datetime.date(1987, 1, 1),
    "Mar 15 1990": datetime.date(1990, 3, 15),
    "Feb 29 2000": datetime.date(2000, 2, 29),
}
MODEL_SYSTEMS = {text: CalendarSystem.starting(text) for text in MODEL_EPOCHS}

#: Unit ticks per day for the model's unit granularities.
TICKS_PER_DAY = {Granularity.DAYS: 1, Granularity.HOURS: 24}


def _lin(tick: int) -> int:
    return tick - 1 if tick > 0 else tick


def _unlin(lin: int) -> int:
    return lin + 1 if lin >= 0 else lin


def _civil_unit(gran, date):
    """(first date, last date, label) of the ``gran`` unit holding ``date``."""
    if gran == Granularity.DAYS:
        return date, date, date.day
    if gran == Granularity.WEEKS:
        monday = date - datetime.timedelta(days=date.weekday())
        return monday, monday + datetime.timedelta(days=6), None
    if gran == Granularity.MONTHS:
        first = date.replace(day=1)
        after = (first + datetime.timedelta(days=32)).replace(day=1)
        return first, after - datetime.timedelta(days=1), date.month
    return (datetime.date(date.year, 1, 1), datetime.date(date.year, 12, 31),
            date.year)


def model_generate(epoch, gran, unit, window, mode):
    """``generate`` by brute force: walk every day of the window with
    :mod:`datetime`, collect the units holding them, then clip or keep
    them whole.  Works in linear ticks (no zero skip) throughout."""
    k = TICKS_PER_DAY[unit]
    wlo, whi = _lin(window[0]), _lin(window[1])
    units = []
    for day in range(wlo // k, whi // k + 1):
        first, last, label = _civil_unit(
            gran, epoch + datetime.timedelta(days=day))
        span = ((first - epoch).days * k, ((last - epoch).days + 1) * k - 1)
        if not units or units[-1][0] != span:
            units.append((span, label))
    pairs, labels = [], []
    for (lo, hi), label in units:
        if mode == "clip":
            lo, hi = max(lo, wlo), min(hi, whi)
        pairs.append((_unlin(lo), _unlin(hi)))
        labels.append(label)
    return pairs, (None if gran == Granularity.WEEKS else labels)


def _tick_window(width_max):
    return st.tuples(
        st.integers(min_value=-60_000, max_value=60_000),
        st.integers(min_value=0, max_value=width_max),
    ).map(lambda t: (t[0], t[0] + t[1])).filter(
        lambda w: w[0] != 0 and w[1] != 0)


class TestDatetimeModel:
    @given(st.sampled_from(sorted(MODEL_EPOCHS)), day_granularities,
           st.sampled_from([Granularity.DAYS, Granularity.HOURS]),
           st.sampled_from(["clip", "cover"]), _tick_window(3000))
    @settings(max_examples=300, deadline=None)
    def test_generate_matches_model(self, epoch, gran, unit, mode, window):
        if unit == Granularity.DAYS:
            window = (window[0] // 20 or 1, window[1] // 20 or 1)
        cal = MODEL_SYSTEMS[epoch].generate(gran, unit, window, mode=mode)
        pairs, labels = model_generate(MODEL_EPOCHS[epoch], gran, unit,
                                       window, mode)
        assert [(iv.lo, iv.hi) for iv in cal.elements] == pairs
        assert (None if cal.labels is None else list(cal.labels)) == labels

    @given(st.sampled_from(sorted(MODEL_EPOCHS)), day_granularities,
           st.sampled_from(["clip", "cover"]),
           st.integers(min_value=-40, max_value=40).filter(bool),
           st.integers(min_value=0, max_value=70))
    @settings(max_examples=150, deadline=None)
    def test_windows_around_the_epoch(self, epoch, gran, mode, lo, width):
        """Windows near tick 0, where the zero skip falls inside a week,
        inside a month (Mar 15 1990) or on a leap day (Feb 29 2000)."""
        window = (lo, lo + width or 1)
        cal = MODEL_SYSTEMS[epoch].generate(gran, Granularity.DAYS, window,
                                            mode=mode)
        pairs, labels = model_generate(MODEL_EPOCHS[epoch], gran,
                                       Granularity.DAYS, window, mode)
        assert [(iv.lo, iv.hi) for iv in cal.elements] == pairs
        assert (None if cal.labels is None else list(cal.labels)) == labels
