"""Shared fixtures: calendar systems, populated registries, databases,
and a per-test hang guard."""

from __future__ import annotations

import faulthandler
import os

import pytest

from repro.catalog import (
    CalendarRegistry,
    install_standard_calendars,
    install_us_holidays,
)
from repro.core import CalendarSystem
from repro.db import Database
from repro.rules import DBCron, RuleManager, SimulatedClock


#: Seconds one test may run before the process dumps every thread's
#: stack and exits: a hang fails with the stuck test's traceback instead
#: of spinning until the CI job is killed.  Far above any test's normal
#: run time, also with tracing or the sampling profiler on.
HANG_SECONDS = 300


@pytest.fixture(scope="session")
def _terminal_stderr(pytestconfig):
    """A descriptor of the stderr pytest itself writes to: output
    capture redirects fd 2 while a test runs, and a process that exits
    from inside a test never hands its captured output back."""
    capman = pytestconfig.pluginmanager.getplugin("capturemanager")
    if capman is not None:
        capman.suspend_global_capture()
    try:
        fd = os.dup(2)
    finally:
        if capman is not None:
            capman.resume_global_capture()
    yield fd
    os.close(fd)


@pytest.fixture(autouse=True)
def _hang_guard(_terminal_stderr):
    faulthandler.dump_traceback_later(HANG_SECONDS, exit=True,
                                      file=_terminal_stderr)
    yield
    faulthandler.cancel_dump_traceback_later()


@pytest.fixture(scope="session")
def system87() -> CalendarSystem:
    """The paper's system start date: January 1, 1987."""
    return CalendarSystem.starting("Jan 1 1987")


@pytest.fixture(scope="session")
def system93() -> CalendarSystem:
    """Day 1 = Jan 1 1993, matching the section 3.1 worked examples."""
    return CalendarSystem.starting("Jan 1 1993")


@pytest.fixture()
def registry(system87) -> CalendarRegistry:
    """A registry with the standard calendars and US holidays 1987-2006."""
    reg = CalendarRegistry(system87, default_horizon_years=25)
    install_standard_calendars(reg)
    install_us_holidays(reg, 1987, 2006)
    return reg


@pytest.fixture()
def registry93(system93) -> CalendarRegistry:
    reg = CalendarRegistry(system93, default_horizon_years=10)
    install_standard_calendars(reg)
    install_us_holidays(reg, 1993, 2002)
    return reg


@pytest.fixture()
def db(registry) -> Database:
    return Database(calendars=registry)


@pytest.fixture()
def ruled_db(db):
    """(db, manager, clock, cron) with the clock at Jan 1 1993."""
    manager = RuleManager(db)
    clock = SimulatedClock(now=db.system.day_of("Jan 1 1993"))
    cron = DBCron(manager, clock, period=7)
    return db, manager, clock, cron
