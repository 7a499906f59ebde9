"""Shared fixture for the timing gates: a registry over a 30-year horizon."""

from __future__ import annotations

import pytest

from repro.catalog import (
    CalendarRegistry,
    install_standard_calendars,
    install_us_holidays,
)
from repro.core import CalendarSystem


@pytest.fixture(scope="module")
def registry() -> CalendarRegistry:
    registry = CalendarRegistry(CalendarSystem.starting("Jan 1 1987"),
                                default_horizon_years=30)
    install_standard_calendars(registry)
    install_us_holidays(registry, 1987, 2016)
    return registry
