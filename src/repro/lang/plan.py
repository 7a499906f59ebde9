"""Evaluation plans: the "set of procedural statements" of section 3.2.

A plan is a linear sequence of register-targeted steps (generate a basic
calendar over a window, apply a foreach/selection/set operation, …)
produced by :mod:`repro.lang.planner` from a factorized expression and
executed by :class:`PlanVM` against an
:class:`~repro.lang.interpreter.EvalContext`.

Plans are what the CALENDARS catalog stores in its ``eval-plan`` column
(Figure 1) — :meth:`Plan.text` renders them in a readable procedural form.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from typing import Sequence

from repro.core.algebra import SelectionPredicate, caloperate, foreach, \
    label_select, select
from repro.core.calendar import Calendar
from repro.core.granularity import Granularity
from repro.core.interval import Interval, axis_add
from repro.core.stream import PeakTracker
from repro.lang.defs import BasicDef, DerivedDef, ExplicitDef
from repro.lang.errors import EvaluationError, PlanError

__all__ = [
    "WindowSpec", "PlanStep", "GenerateStep", "LoadStep", "ForEachStep",
    "SelectStep", "LabelSelectStep", "SetOpStep", "CalOperateStep",
    "FlattenStep", "ShiftStep", "InstantsStep", "HullStep",
    "IntervalStep", "PointStep", "TodayStep", "GenerateCallStep",
    "FusedForEachStep", "MergedForEachStep", "PipelineForEachStep",
    "PeriodicStep", "Plan", "PlanVM",
]


@dataclass(frozen=True)
class WindowSpec:
    """A generation window: either the context window or a fixed tick range.

    ``dynamic=True`` marks a window that a streaming pipeline narrows at
    run time to the neighbourhood of one reference interval; the
    ``fixed``/context part is then the *eager bound* — the window the
    unoptimised plan would have generated over — which the per-reference
    window is intersected with so optimised results stay byte-identical.
    """

    fixed: tuple[int, int] | None = None
    dynamic: bool = False
    #: Tick range of the YEARS label (``1993/YEARS``) this window was
    #: narrowed to, if any.  The reference evaluation only holds that
    #: year when it overlaps the padded context window; otherwise the
    #: label select is empty and so is everything confined to it.
    anchor: tuple[int, int] | None = None

    def resolve(self, context) -> tuple[int, int] | None:
        """The concrete tick window for an evaluation context, or None
        when the anchor year lies outside the context's reach."""
        if self.anchor is not None:
            lo, hi = context.padded_tick_window(context.window)
            if self.anchor[1] < lo or self.anchor[0] > hi:
                return None
        if self.fixed is not None:
            return self.fixed
        return context.window

    def __str__(self) -> str:
        base = ("<context-window>" if self.fixed is None
                else f"[{self.fixed[0]}, {self.fixed[1]}]")
        if self.dynamic:
            return f"<per-ref ∩ {base}>"
        return base


CONTEXT_WINDOW = WindowSpec(None)


class PlanStep:
    """Base class of plan steps; every step writes one register."""

    target: str

    def describe(self) -> str:
        """One-line procedural rendering of this step."""
        raise NotImplementedError


@dataclass(frozen=True)
class GenerateStep(PlanStep):
    """Materialise a basic calendar over a window (cover mode).

    ``pad`` overrides the evaluation context's blanket window padding
    (in unit ticks); ``None`` keeps the legacy blanket, ``0`` disables
    padding entirely (dynamic pipeline windows arrive pre-padded).
    """

    target: str
    calendar: Granularity
    window: WindowSpec
    pad: int | None = None

    def describe(self) -> str:
        pad = f", pad={self.pad}" if self.pad is not None else ""
        return (f"{self.target} := generate({self.calendar.name}, "
                f"<unit>, {self.window}{pad})")


@dataclass(frozen=True)
class LoadStep(PlanStep):
    """Load a named calendar via the resolver (explicit values or a
    multi-statement derivation that cannot be compiled inline)."""

    target: str
    name: str

    def describe(self) -> str:
        return f"{self.target} := load({self.name!r})"


@dataclass(frozen=True)
class ForEachStep(PlanStep):
    target: str
    op: str
    strict: bool
    left: str
    right: str

    def describe(self) -> str:
        sep = ":" if self.strict else "."
        return (f"{self.target} := for each c in {self.left}: "
                f"keep c {sep}{self.op}{sep} {self.right}")


@dataclass(frozen=True)
class SelectStep(PlanStep):
    target: str
    predicate: SelectionPredicate
    source: str

    def describe(self) -> str:
        return f"{self.target} := select {self.predicate} from {self.source}"


@dataclass(frozen=True)
class LabelSelectStep(PlanStep):
    target: str
    label: int | str
    source: str

    def describe(self) -> str:
        return f"{self.target} := select label {self.label} from {self.source}"


@dataclass(frozen=True)
class SetOpStep(PlanStep):
    target: str
    op: str
    left: str
    right: str

    def describe(self) -> str:
        return f"{self.target} := {self.left} {self.op} {self.right}"


@dataclass(frozen=True)
class CalOperateStep(PlanStep):
    target: str
    source: str
    counts: tuple[int, ...]
    end: int | None

    def describe(self) -> str:
        end = "*" if self.end is None else str(self.end)
        counts = "; ".join(str(c) for c in self.counts)
        return (f"{self.target} := caloperate({self.source}, {end}; "
                f"({counts}))")


@dataclass(frozen=True)
class IntervalStep(PlanStep):
    target: str
    lo: int
    hi: int

    def describe(self) -> str:
        return f"{self.target} := interval({self.lo}, {self.hi})"


@dataclass(frozen=True)
class PointStep(PlanStep):
    target: str
    date_text: str

    def describe(self) -> str:
        return f"{self.target} := point({self.date_text!r})"


@dataclass(frozen=True)
class TodayStep(PlanStep):
    target: str

    def describe(self) -> str:
        return f"{self.target} := today"


@dataclass(frozen=True)
class FlattenStep(PlanStep):
    """Collapse an order-n calendar to order 1."""

    target: str
    source: str

    def describe(self) -> str:
        return f"{self.target} := flatten({self.source})"


@dataclass(frozen=True)
class ShiftStep(PlanStep):
    """Translate every interval of a calendar by a tick delta."""

    target: str
    source: str
    delta: int

    def describe(self) -> str:
        return f"{self.target} := shift({self.source}, {self.delta})"


@dataclass(frozen=True)
class InstantsStep(PlanStep):
    """Explode a calendar into one instant per covered point."""

    target: str
    source: str

    def describe(self) -> str:
        return f"{self.target} := instants({self.source})"


@dataclass(frozen=True)
class HullStep(PlanStep):
    """Collapse a calendar to its single spanning interval."""

    target: str
    source: str

    def describe(self) -> str:
        return f"{self.target} := hull({self.source})"


@dataclass(frozen=True)
class GenerateCallStep(PlanStep):
    """An explicit ``generate(cal, unit, start, end[, mode])`` call."""

    target: str
    calendar: str
    unit: str
    start: object
    end: object
    mode: str = "clip"

    def describe(self) -> str:
        return (f"{self.target} := generate({self.calendar}, {self.unit}, "
                f"[{self.start!r}, {self.end!r}], {self.mode})")


@dataclass(frozen=True)
class FusedForEachStep(PlanStep):
    """A foreach and its sole-consumer positional selection as one step.

    It runs the algebra kernels, ``select(foreach(...))``; the grouped
    intermediate is member lanes plus group bounds, so no per-group
    object is built.  The step keeps the plan's shape and ``explain``
    text."""

    target: str
    op: str
    strict: bool
    left: str
    right: str
    predicate: SelectionPredicate

    def describe(self) -> str:
        sep = ":" if self.strict else "."
        return (f"{self.target} := select {self.predicate} from each group "
                f"of (for each c in {self.left}: keep c "
                f"{sep}{self.op}{sep} {self.right})")


@dataclass(frozen=True)
class MergedForEachStep(PlanStep):
    """Two adjacent foreach steps, the inner one flattened into the outer.

    Runs ``foreach(op2, foreach(op1, ...).flatten(), ...)``: the inner
    grouping's flatten is its member lanes, uncopied."""

    target: str
    op1: str
    strict1: bool
    left: str
    right: str
    op2: str
    strict2: bool
    right2: str

    def describe(self) -> str:
        s1 = ":" if self.strict1 else "."
        s2 = ":" if self.strict2 else "."
        return (f"{self.target} := for each c in (each group of {self.left} "
                f"{s1}{self.op1}{s1} {self.right}): keep c "
                f"{s2}{self.op2}{s2} {self.right2}")


@dataclass(frozen=True)
class PipelineForEachStep(PlanStep):
    """Selection push-down: evaluate the left-operand chain lazily per
    reference interval over a narrowed dynamic window.

    ``subplan`` is the foreach's left chain with its generation windows
    marked dynamic; for each reference interval ``r`` the chain runs over
    ``[r.lo - pad, r.hi + pad]`` (intersected with each generate's eager
    bound), so only the neighbourhood of the selected references is ever
    materialised.  ``predicate`` carries a fused trailing selection.
    ``granularity`` is the statically known granularity of the chain's
    result (needed to assemble empty groups identically to the eager
    plan).
    """

    target: str
    op: str
    strict: bool
    right: str
    subplan: "Plan"
    pad: int
    granularity: Granularity
    predicate: SelectionPredicate | None = None

    def describe(self) -> str:
        sep = ":" if self.strict else "."
        inner = "; ".join(s.describe() for s in self.subplan.steps)
        pred = (f"; select {self.predicate} per group"
                if self.predicate is not None else "")
        return (f"{self.target} := for each r in {self.right}: eval "
                f"[{inner}; yield {self.subplan.result}] over r±{self.pad}, "
                f"keep c {sep}{self.op}{sep} r{pred}")


@dataclass(frozen=True)
class PeriodicStep(PlanStep):
    """Expand a compiled :class:`~repro.core.periodic.PeriodicSet` over
    the context window — the periodic backend the cost model can pick
    instead of a generate/foreach/select chain.

    ``pset`` carries verified element structure (``exact_elements``), so
    expansion by modular arithmetic reproduces the materialising chain's
    result without generating any intermediate cover.
    """

    target: str
    source: str
    pset: object = field(compare=False)

    def describe(self) -> str:
        return (f"{self.target} := periodic({self.source!r}; "
                f"{self.pset.describe()})")


@dataclass
class Plan:
    """An ordered list of steps plus the register holding the result.

    A compiled plan is **frozen by convention**: nothing mutates
    ``steps`` after the planner returns it.  That is what lets the
    catalog cache one plan per expression and lets callers sharing a
    session run the same plan object on several threads at once — each
    execution's mutable state lives in the :class:`PlanVM` run, never
    on the plan.
    """

    steps: list[PlanStep] = field(default_factory=list)
    result: str = ""

    def text(self) -> str:
        """Readable procedural rendering (the eval-plan catalog column)."""
        lines = [step.describe() for step in self.steps]
        lines.append(f"return {self.result}")
        return "\n".join(lines)

    def __len__(self) -> int:
        return len(self.steps)

    def generate_steps(self) -> "list[GenerateStep]":
        """All basic-calendar generation steps of the plan."""
        return [s for s in self.steps if isinstance(s, GenerateStep)]


#: ``(weakref to a MetricsRegistry, vm.step_seconds, vm.steps)``: the
#: traced VM's step instruments, bound once per metrics registry.
_STEP_HANDLES: tuple = (lambda: None, None, None)


def _step_handles(metrics) -> tuple:
    """``(vm.step_seconds, vm.steps)`` of ``metrics``, looked up when
    the metrics registry differs from the last one asked for."""
    global _STEP_HANDLES
    handles = _STEP_HANDLES
    if handles[0]() is not metrics:
        handles = _STEP_HANDLES = (
            weakref.ref(metrics), metrics.histogram("vm.step_seconds"),
            metrics.counter("vm.steps"))
    return handles[1], handles[2]


class PlanVM:
    """Executes a :class:`Plan` against an EvalContext.

    **Re-entrancy contract**: a VM instance is cheap and single-use —
    construct one per ``run`` call.  The register file is a local of
    :meth:`run`, so concurrent runs of the *same* plan (callers sharing
    a session across threads) never share execution state; the only
    shared mutable structure is the context's materialisation dict,
    whose entries are idempotent (same key → equal calendar), making
    duplicate concurrent writes harmless.
    """

    def __init__(self, context, window_override: "tuple[int, int] | None" = None,
                 tracker: "PeakTracker | None" = None) -> None:
        self.context = context
        # Set for per-reference sub-runs of a PipelineForEachStep: dynamic
        # generation windows resolve to this tick range instead of the
        # context window.
        self.window_override = window_override
        self.tracker = tracker

    def run(self, plan: Plan) -> Calendar:
        """Execute the steps in order; the (window-clipped) result.

        When the context carries an active tracer this dispatches to the
        instrumented twin :meth:`_run_traced`; the disabled-tracing cost
        is this single ``is not None`` branch per plan run.
        """
        ctx = self.context
        publish = False
        if self.tracker is None and "peak_live_intervals" in ctx.stats:
            self.tracker = PeakTracker()
            publish = True
        try:
            if ctx.tracer is not None:
                return self._run_traced(plan)
            registers: dict[str, object] = {}
            for step in plan.steps:
                registers[step.target] = self._exec(step, registers)
            return self._finish(plan, registers)
        finally:
            if publish:
                self.tracker.publish(ctx.stats)

    def run_raw(self, plan: Plan):
        """Execute a pipeline sub-plan: plain loop, no final window clip.

        Used for the per-reference chain runs of
        :class:`PipelineForEachStep`; registers die with the run, so the
        peak tracker releases everything but the returned result.
        """
        registers: dict[str, object] = {}
        for step in plan.steps:
            registers[step.target] = self._exec(step, registers)
        try:
            result = registers[plan.result]
        except KeyError:
            raise PlanError(
                f"plan result register {plan.result!r} was never written")
        if self.tracker is not None:
            for name, value in registers.items():
                if name != plan.result and isinstance(value, Calendar):
                    self.tracker.sub(value.leaf_count())
        return result

    def _exec(self, step: "PlanStep", registers: dict):
        value = self._run_step(step, registers)
        if self.tracker is not None and isinstance(value, Calendar):
            self.tracker.add(value.leaf_count())
        return value

    def _run_traced(self, plan: Plan) -> Calendar:
        """Instrumented twin of :meth:`run`: per-opcode spans + timings."""
        from time import perf_counter

        tracer = self.context.tracer
        metrics = self.context.metrics
        step_hist = step_count = None
        with tracer.span("plan.run", steps=len(plan.steps),
                         result=plan.result):
            registers: dict[str, object] = {}
            for step in plan.steps:
                with tracer.span(f"plan.step.{type(step).__name__}",
                                 target=step.target):
                    t0 = perf_counter()
                    registers[step.target] = self._exec(step, registers)
                    if metrics is not None:
                        elapsed = perf_counter() - t0
                        # Bound in the first step's span, once per run:
                        # a step's instrument calls are traced time.
                        if step_hist is None:
                            step_hist, step_count = _step_handles(metrics)
                        step_hist.observe(elapsed)
                        step_count.inc()
            with tracer.span("plan.finish"):
                return self._finish(plan, registers)

    def _finish(self, plan: Plan, registers: dict) -> Calendar:
        """Fetch the result register and clip it to the context window."""
        try:
            result = registers[plan.result]
        except KeyError:
            raise PlanError(
                f"plan result register {plan.result!r} was never written")
        if not isinstance(result, Calendar):
            raise PlanError("plan did not produce a calendar")
        from repro.lang.interpreter import clip_to_window
        return clip_to_window(result, self.context.window)

    def _run_step(self, step: PlanStep, registers: dict):
        ctx = self.context
        if isinstance(step, GenerateStep):
            window = step.window.resolve(ctx)
            if window is None:
                # No unit, but labelled like generated units (all but
                # WEEKS), so a label select over it comes out empty.
                labels = None if step.calendar == Granularity.WEEKS else []
                return Calendar.from_intervals([], step.calendar, labels)
            if step.window.dynamic and self.window_override is not None:
                # Per-reference pipeline run: narrow to the reference
                # neighbourhood, intersected with the window the eager
                # plan would have covered (keeps boundary truncation
                # byte-identical to the unoptimised plan).
                lo0, hi0 = ctx.padded_tick_window(window, step.pad)
                lo = max(self.window_override[0], lo0)
                hi = min(self.window_override[1], hi0)
                if lo > hi:
                    return Calendar.from_intervals([], step.calendar)
                return ctx.materialise_basic(step.calendar, (lo, hi),
                                             mode="cover", pad=0)
            return ctx.materialise_basic(step.calendar, window,
                                         mode="cover", pad=step.pad)
        if isinstance(step, LoadStep):
            definition = ctx.resolver(step.name)
            if definition is None:
                raise PlanError(f"unknown calendar {step.name!r}")
            # Defer to the interpreter for scripted/explicit definitions.
            from repro.lang.interpreter import Interpreter
            return Interpreter(ctx)._eval_definition(step.name, definition)
        if isinstance(step, ForEachStep):
            left, reference = self._foreach_operands(step.left, step.right,
                                                     registers)
            return foreach(step.op, left, reference, strict=step.strict)
        if isinstance(step, SelectStep):
            return select(registers[step.source], step.predicate)
        if isinstance(step, LabelSelectStep):
            return label_select(registers[step.source], step.label)
        if isinstance(step, SetOpStep):
            left, right = registers[step.left], registers[step.right]
            if step.op == "+":
                return left.union(right)
            if step.op == "-":
                return left.difference(right)
            if step.op == "&":
                return left.intersection(right)
            raise PlanError(f"unknown set op {step.op!r}")
        if isinstance(step, CalOperateStep):
            source = registers[step.source]
            if source.order != 1:
                source = source.flatten()
            return caloperate(source, step.counts, step.end)
        if isinstance(step, IntervalStep):
            return Calendar.interval(step.lo, step.hi, ctx.unit)
        if isinstance(step, PointStep):
            if ctx.unit != Granularity.DAYS:
                raise EvaluationError(
                    "point() literals require a DAYS evaluation unit")
            return Calendar.point(ctx.system.day_of(step.date_text),
                                  Granularity.DAYS)
        if isinstance(step, FlattenStep):
            return registers[step.source].flatten()
        if isinstance(step, ShiftStep):
            source = registers[step.source]
            if source.order != 1:
                source = source.flatten()
            return source.shifted(step.delta)
        if isinstance(step, InstantsStep):
            source = registers[step.source]
            points = sorted({t for iv in source.iter_intervals()
                             for t in iv})
            return Calendar.from_intervals([(t, t) for t in points],
                                           source.granularity)
        if isinstance(step, HullStep):
            source = registers[step.source]
            span = source.span()
            if span is None:
                return Calendar.from_intervals([], source.granularity)
            return Calendar.from_intervals([span], source.granularity)
        if isinstance(step, TodayStep):
            if ctx.today is None:
                raise EvaluationError("'today' is not bound in this context")
            return Calendar.point(ctx.today, ctx.unit)
        if isinstance(step, GenerateCallStep):
            return ctx.generate_call(step.calendar, step.unit,
                                     (step.start, step.end),
                                     mode=step.mode)
        if isinstance(step, PeriodicStep):
            return step.pset.expand(ctx.window)
        if isinstance(step, FusedForEachStep):
            return self._run_fused(step, registers)
        if isinstance(step, MergedForEachStep):
            return self._run_merged(step, registers)
        if isinstance(step, PipelineForEachStep):
            return self._run_pipeline(step, registers)
        raise PlanError(f"unknown plan step {step!r}")

    # -- fused / streaming kernels ----------------------------------------------

    def _foreach_operands(self, left: str, right: str, registers: dict):
        """A foreach step's operands: the left flattened to order 1 and a
        one-element order-1 right operand unwrapped to its interval."""
        left_cal = registers[left]
        right_cal = registers[right]
        if left_cal.order != 1:
            left_cal = left_cal.flatten()
        if right_cal.order == 1 and len(right_cal) == 1:
            return left_cal, right_cal[0]
        return left_cal, right_cal

    def _run_fused(self, step: FusedForEachStep, registers: dict) -> Calendar:
        """``select(foreach(...))``: the grouped foreach result is lanes
        plus group bounds, so the selection never sees per-group objects."""
        left, reference = self._foreach_operands(step.left, step.right,
                                                 registers)
        return select(foreach(step.op, left, reference, strict=step.strict),
                      step.predicate)

    def _run_merged(self, step: MergedForEachStep, registers: dict
                    ) -> Calendar:
        """Inner grouping + flatten + outer foreach: the inner groups'
        member lanes feed the outer foreach without a copy."""
        left = registers[step.left]
        if left.order != 1:
            left = left.flatten()
        mid = foreach(step.op1, left, registers[step.right],
                      strict=step.strict1).flatten()
        right2 = registers[step.right2]
        reference2 = (right2[0]
                      if right2.order == 1 and len(right2) == 1 else right2)
        return foreach(step.op2, mid, reference2, strict=step.strict2)

    def _run_pipeline(self, step: PipelineForEachStep, registers: dict
                      ) -> Calendar:
        """Per-reference lazy evaluation of the foreach's left chain."""
        right = registers[step.right]
        reference = (right[0]
                     if right.order == 1 and len(right) == 1 else right)
        out = self._pipeline_foreach(step, reference)
        if step.predicate is not None:
            out = select(out, step.predicate)
        return out

    def _pipeline_foreach(self, step: PipelineForEachStep, ref) -> Calendar:
        """Mirror of :func:`repro.core.algebra.foreach`'s assembly, with the
        left operand re-evaluated per reference over a narrowed window."""
        if isinstance(ref, Interval):
            left = self._eval_chain_for_ref(step, ref)
            return foreach(step.op, left, ref, strict=step.strict)
        if ref.order == 1:
            subs: list[Calendar] = []
            labels: list = []
            for i, r in enumerate(ref):
                left = self._eval_chain_for_ref(step, r)
                sub = foreach(step.op, left, r, strict=step.strict)
                if self.tracker is not None:
                    self.tracker.sub(left.leaf_count())
                if sub.is_empty():
                    continue
                subs.append(sub)
                labels.append(ref.label_of(i))
            out = Calendar.from_calendars(subs, step.granularity)
            if ref.labels is not None:
                out = out.with_labels(labels)
            return out
        subs = [self._pipeline_foreach(step, sub) for sub in ref.elements]
        subs = [s for s in subs if not s.is_empty()]
        return Calendar.from_calendars(subs, step.granularity)

    def _eval_chain_for_ref(self, step: PipelineForEachStep,
                            ref: Interval) -> Calendar:
        """Run the left chain over the reference's padded neighbourhood."""
        lo = axis_add(ref.lo, -step.pad)
        hi = axis_add(ref.hi, step.pad)
        vm = PlanVM(self.context, window_override=(lo, hi),
                    tracker=self.tracker)
        result = vm.run_raw(step.subplan)
        if not isinstance(result, Calendar):
            raise PlanError("pipeline sub-plan did not produce a calendar")
        if result.order != 1:
            flat = result.flatten()
            if self.tracker is not None:
                self.tracker.sub(result.leaf_count())
                self.tracker.add(flat.leaf_count())
            result = flat
        return result
