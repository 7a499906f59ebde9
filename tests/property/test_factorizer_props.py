"""Property-based test: factorization preserves expression semantics.

Random expressions over the basic calendars are factorized and evaluated
both ways (reference interpreter, unfactorized vs factorized + compiled
plan); the results must be identical.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core import CalendarSystem
from repro.lang import (
    EvalContext,
    Interpreter,
    PlanVM,
    compile_expression,
    factorize,
    parse_expression,
)
from repro.lang.defs import basic_resolver

SYSTEM = CalendarSystem.starting("Jan 1 1987")
WINDOW = (SYSTEM.epoch.days_of_year(1991)[0],
          SYSTEM.epoch.days_of_year(1995)[1])

ops = st.sampled_from(["during", "overlaps", "<", "<=", "meets"])
selectors = st.sampled_from(["[1]/", "[2]/", "[n]/", "[-1]/", ""])
bases = st.sampled_from(["DAYS", "WEEKS", "MONTHS"])
years = st.sampled_from([1992, 1993, 1994])


@st.composite
def expressions(draw):
    """Build chains like [k]/X:op:[j]/Y:op:1993/YEARS."""
    depth = draw(st.integers(min_value=1, max_value=3))
    parts = []
    for _ in range(depth):
        parts.append(f"{draw(selectors)}{draw(bases)}")
    anchor_year = draw(years)
    tail = draw(st.sampled_from(
        [f"[1]/MONTHS:during:{anchor_year}/YEARS",
         f"{anchor_year}/YEARS"]))
    chain = parts + [tail]
    op_list = [draw(ops) for _ in range(len(chain) - 1)]
    text = chain[0]
    for op, part in zip(op_list, chain[1:]):
        text += f":{op}:{part}"
    return text


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(expressions())
def test_factorized_plan_equals_reference(text):
    expr = parse_expression(text)
    factored = factorize(expr, basic_resolver).expression

    ctx_ref = EvalContext(system=SYSTEM, resolver=basic_resolver,
                          window=WINDOW)
    reference = Interpreter(ctx_ref).evaluate(expr)

    ctx_fact = EvalContext(system=SYSTEM, resolver=basic_resolver,
                           window=WINDOW)
    factored_result = Interpreter(ctx_fact).evaluate(factored)
    # Calendar equality compares lanes (grouped order-2 members and
    # group lengths) without building the nested tuples ``to_pairs()``
    # would: a drawn chain such as WEEKS:<:DAYS:<:DAYS:<:1994/YEARS has
    # 74M leaves, whose tuples need ~8 GB.
    assert factored_result == reference, \
        f"factorization changed semantics of {text}"

    plan = compile_expression(factored, SYSTEM, basic_resolver,
                              context_window=WINDOW)
    ctx_plan = EvalContext(system=SYSTEM, resolver=basic_resolver,
                           window=WINDOW)
    plan_result = PlanVM(ctx_plan).run(plan)
    assert plan_result == reference, \
        f"compiled plan changed semantics of {text}"


@settings(max_examples=30, deadline=None)
@given(expressions())
def test_factorization_never_grows_tree(text):
    from repro.lang import count_nodes
    expr = parse_expression(text)
    result = factorize(expr, basic_resolver)
    assert count_nodes(result.expression) <= count_nodes(expr)
