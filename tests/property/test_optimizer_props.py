"""Property: the optimizer is invisible — results are byte-identical.

For any expression the language strategy can produce, evaluating with
the plan optimizer enabled must yield exactly the result of evaluating
with it disabled (same pairs, same order, same labels, same error if
any).  This is the soundness contract of every rewrite rule: CSE,
select fusion, foreach merging, selection push-down and DCE.
"""

import pytest
from hypothesis import HealthCheck, given, settings

from repro import ReproError, Session
from repro.lang.plan import (
    FusedForEachStep,
    MergedForEachStep,
    PeriodicStep,
    PipelineForEachStep,
)
from repro.obs.instrument import Instrumentation

from tests.property.test_lang_props import cel_expressions

WINDOW = ("Jan 1 1992", "Dec 31 1994")

_sessions = None


def _shared_sessions():
    global _sessions
    if _sessions is None:
        pair = []
        for optimize in (True, False):
            session = Session("Jan 1 1987", holiday_years=(1987, 1996),
                              instrumentation=Instrumentation())
            session.registry.optimize = optimize
            session.registry.define(
                "Jan-1993",
                script="return ([1]/MONTHS:during:1993/YEARS)")
            pair.append(session)
        _sessions = tuple(pair)
    return _sessions


#: Step kinds only the optimizer produces.
_REWRITTEN = (FusedForEachStep, MergedForEachStep, PipelineForEachStep,
              PeriodicStep)


def _assert_reference_plan(session, text):
    """The unoptimized session really runs the unrewritten plan."""
    explanation = session.explain(text, window=WINDOW)
    assert not explanation.optimized and explanation.opt_plan is None
    if explanation.plan is not None:
        assert not [step for step in explanation.plan.steps
                    if isinstance(step, _REWRITTEN)], text


def _outcome(session, text):
    try:
        return ("ok", session.eval(text, window=WINDOW))
    except ReproError as exc:
        return ("error", type(exc).__name__)


@settings(max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(cel_expressions())
def test_optimized_equals_unoptimized(text):
    on, off = _shared_sessions()
    kind_on, value_on = _outcome(on, text)
    kind_off, value_off = _outcome(off, text)
    if kind_off == "ok":
        _assert_reference_plan(off, text)
    assert kind_on == kind_off, (text, value_on, value_off)
    # ``Calendar.__eq__`` compares order, granularity and the flattened
    # lanes; flattening to Python pairs as well would repeat that check
    # at up to a billion pairs (``DAYS:<:DAYS:<:DAYS``).
    assert value_on == value_off, text
    if kind_on == "ok" and hasattr(value_on, "to_pairs"):
        assert value_on.granularity == value_off.granularity


@pytest.mark.parametrize("text", [
    # The canonical push-down chain (figure-2 style).
    "Mondays:during:([1]/(MONTHS:during:YEARS))",
    # Negative and last-element selection through the fused kernel.
    "[-1]/(WEEKS:during:MONTHS)",
    "[n]/(DAYS:during:MONTHS)",
    "Mondays:during:([n]/(MONTHS:during:YEARS))",
    "Mondays:during:([-2]/(MONTHS:during:YEARS))",
    # Ranges and multi-picks keep order-2 shape through fusion.
    "[2-4]/(WEEKS:during:MONTHS)",
    "[1;3]/(WEEKS:during:MONTHS)",
    # Merged adjacent foreach.
    "(DAYS:during:WEEKS):during:MONTHS",
    # Label anchoring inside and outside the chain.
    "Mondays:during:1993/YEARS",
    "WEEKS:during:[1-2]/MONTHS:during:1993/YEARS",
    # Set ops downstream of rewritten subplans.
    "([1]/(WEEKS:during:MONTHS)) + HOLIDAYS",
    "([n]/(DAYS:during:MONTHS)) - HOLIDAYS",
])
def test_known_rewrite_shapes_are_identical(text):
    on, off = _shared_sessions()
    kind_on, value_on = _outcome(on, text)
    kind_off, value_off = _outcome(off, text)
    _assert_reference_plan(off, text)
    assert kind_on == kind_off == "ok"
    assert value_on == value_off
    assert value_on.flatten().to_pairs() == value_off.flatten().to_pairs()
