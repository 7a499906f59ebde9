"""Time-based rules: event rules, temporal rules, RULE tables, DBCRON."""

from repro.rules.clock import SimulatedClock, WallClock
from repro.rules.dbcron import DBCron, HeapSchedule
from repro.rules.events import Event
from repro.rules.facade import RulesFacade
from repro.rules.manager import RuleManager
from repro.rules.rule import EventRule
from repro.rules.tables import RULE_INFO, RULE_TIME, RuleTables
from repro.rules.temporal import TemporalRule
from repro.rules.wheel import HierarchicalWheel, WheelSchedule

__all__ = [
    "Event", "EventRule", "TemporalRule", "RuleManager",
    "RuleTables", "RULE_INFO", "RULE_TIME",
    "SimulatedClock", "WallClock", "DBCron",
    "HeapSchedule", "WheelSchedule", "HierarchicalWheel",
    "RulesFacade",
]
