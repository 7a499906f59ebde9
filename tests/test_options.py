"""The settable option surface: one code path per layer.

Each layer runs one path; the alternatives that survive are fallbacks
or parity oracles reached through per-object seams
(``CalendarRegistry.optimize``/``.periodic``,
``DBCron(schedule=HeapSchedule())``), never through process-wide
switches.  The environment variables left are observability and
deployment settings.
"""

import ast
import inspect
import pathlib
import re

import repro
from repro.catalog import CalendarRegistry
from repro.db import vector
from repro.obs.instrument import Instrumentation
from repro.rules import DBCron, RuleManager, WheelSchedule
from repro.session import Session

SRC = pathlib.Path(repro.__file__).parent


def _env_names() -> set[str]:
    """Every ``REPRO_*`` name spelled as a string literal in src/repro."""
    names = set()
    for path in SRC.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Constant) and \
                    isinstance(node.value, str) and \
                    re.fullmatch(r"REPRO_[A-Z_]+", node.value):
                names.add(node.value)
    return names


def test_environment_variables_are_settings_not_path_switches():
    assert _env_names() == {
        "REPRO_TRACE", "REPRO_PROFILE", "REPRO_SLOWLOG_SECONDS",
        "REPRO_MATCACHE_SIZE"}


def test_session_takes_no_code_path_switch():
    parameters = inspect.signature(Session).parameters
    for name in ("optimize", "periodic", "vector_db", "scheduler",
                 "wheel_shards", "throttle", "telemetry_port", "telemetry"):
        assert name not in parameters
    assert not hasattr(Instrumentation(), "pipeline")


def test_no_module_global_engine_toggle():
    assert not hasattr(vector, "set_enabled")
    assert not hasattr(vector, "enabled")


def test_dbcron_has_one_schedule_seam():
    parameters = inspect.signature(DBCron).parameters
    assert "schedule" in parameters
    for name in ("scheduler", "shards", "pool"):
        assert name not in parameters


def test_wheel_is_not_sharded():
    assert "shards" not in inspect.signature(WheelSchedule).parameters


def test_deprecated_shims_are_gone():
    assert not hasattr(RuleManager, "define_event_rule")
    assert not hasattr(RuleManager, "define_temporal_rule")
    for method in (CalendarRegistry.evaluate,
                   CalendarRegistry.eval_expression,
                   CalendarRegistry.eval_script):
        kinds = [p.kind for p in inspect.signature(method).parameters.values()]
        assert inspect.Parameter.VAR_POSITIONAL not in kinds
