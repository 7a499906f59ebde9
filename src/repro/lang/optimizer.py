"""Cost-aware plan optimizer: the rewrite pass between Planner and PlanVM.

The planner emits a conservative linear plan; this module rewrites it
through five passes (see ``docs/IMPLEMENTATION_NOTES.md`` §9 for the full
rule catalog and soundness arguments):

1. **Common-subexpression elimination** — steps with identical canonical
   fingerprints (operand registers chased through earlier merges, windows
   resolved against the evaluation window unless the plan is reusable
   across windows) collapse onto one register.
2. **Select fusion** — a positional selection that is the sole consumer of
   a foreach fuses into one :class:`FusedForEachStep` kernel, selecting
   groups as they form instead of materialising the order-2 intermediate.
3. **Foreach merge fusion** — adjacent foreach steps where the inner
   grouping is immediately flattened into the outer merge into one
   :class:`MergedForEachStep` pass.
4. **Selection push-down** — a foreach whose left chain is provably
   window-local is replaced by a :class:`PipelineForEachStep` that
   re-evaluates the chain per *reference interval* over a narrowed
   dynamic window, generalising the paper's selection look-ahead to
   nested chains; gated by a cost model so it only fires when the
   narrowed generation work beats eager materialisation.
5. **Dead-step elimination** — steps whose registers became unreachable
   from the result register are dropped.

``optimize_plan`` never mutates its input plan (compiled plans are
memoised and shared across threads); it returns a fresh
:class:`OptimizationResult` carrying the rewritten plan, human-readable
rewrite descriptions, and per-register cardinality estimates for
``explain``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.core.granularity import Granularity, exact_ratio
from repro.core.interval import get_listop
from repro.lang.plan import (
    CalOperateStep,
    FlattenStep,
    ForEachStep,
    FusedForEachStep,
    GenerateStep,
    HullStep,
    IntervalStep,
    LabelSelectStep,
    LoadStep,
    MergedForEachStep,
    PeriodicStep,
    PipelineForEachStep,
    Plan,
    PlanStep,
    PointStep,
    SelectStep,
    SetOpStep,
    ShiftStep,
    TodayStep,
    WindowSpec,
)
from repro.lang.planner import _LOOKBACK_OPS

__all__ = ["OptimizationResult", "optimize_plan"]

#: Upper bound on the day-span of one element of each day-or-coarser
#: basic calendar (leap years, 31-day months).
_SPAN_DAYS = {
    Granularity.DAYS: 1,
    Granularity.WEEKS: 7,
    Granularity.MONTHS: 31,
    Granularity.YEARS: 366,
    Granularity.DECADES: 3653,
    Granularity.CENTURY: 36525,
}

#: Unit granularities the pipeline rewrite supports: tick arithmetic on
#: these axes is exact (fixed ratios to days).
_PIPELINE_UNITS = (Granularity.SECONDS, Granularity.MINUTES,
                   Granularity.HOURS, Granularity.DAYS)

#: Reference count above which per-reference re-evaluation cannot win.
_MAX_PIPELINE_REFS = 4096

#: Estimated per-reference, per-step Python overhead (in generated-interval
#: cost units) of a pipeline sub-run.
_PIPELINE_STEP_OVERHEAD = 32

#: Label-selection granularities whose labels are unique across the whole
#: axis (``find_label`` is then window-independent).
_UNIQUE_LABEL_GRANS = (Granularity.YEARS, Granularity.DECADES,
                       Granularity.CENTURY)


def _span_ticks(gran: Granularity, unit: Granularity) -> int | None:
    """Upper bound, in unit ticks, of one element of basic ``gran``."""
    try:
        if gran <= Granularity.DAYS:
            return exact_ratio(unit, gran)
        days = _SPAN_DAYS.get(gran)
        if days is None:
            return None
        return days * exact_ratio(unit, Granularity.DAYS)
    except Exception:
        return None


@dataclass
class _Est:
    """Cardinality estimate of a register: leaf count, typical leaf span
    (unit ticks), and group count when the register is order-2."""

    count: float
    span: float
    groups: float | None = None


@dataclass
class OptimizationResult:
    """An optimised plan plus the audit trail ``explain`` renders."""

    plan: Plan
    rewrites: list[str] = field(default_factory=list)
    eliminated: int = 0
    #: Per-register cardinality estimates ("~N ivs") for the final plan.
    costs: dict[str, str] = field(default_factory=dict)


def _operands(step: PlanStep) -> tuple[str, ...]:
    """Registers a step reads."""
    if isinstance(step, PeriodicStep):
        return ()  # ``source`` is the expression text, not a register
    if isinstance(step, (ForEachStep, FusedForEachStep, SetOpStep)):
        return (step.left, step.right)
    if isinstance(step, MergedForEachStep):
        return (step.left, step.right, step.right2)
    if isinstance(step, PipelineForEachStep):
        return (step.right,)
    if isinstance(step, (SelectStep, LabelSelectStep, FlattenStep,
                         ShiftStep, HullStep, CalOperateStep)):
        return (step.source,)
    source = getattr(step, "source", None)
    if isinstance(source, str):
        return (source,)
    return ()


def _retarget(step: PlanStep, mapping: dict) -> PlanStep:
    """A copy of ``step`` with operand registers chased through ``mapping``."""
    changes = {}
    for fld in ("left", "right", "right2", "source"):
        value = getattr(step, fld, None)
        if isinstance(value, str) and mapping.get(value, value) != value:
            changes[fld] = mapping[value]
    return replace(step, **changes) if changes else step


class _Optimizer:
    def __init__(self, plan: Plan, context_window, unit: Granularity,
                 reusable: bool, periodic=None) -> None:
        self.steps = list(plan.steps)
        self.result = plan.result
        self.context_window = context_window
        self.unit = unit
        self.reusable = reusable
        self.periodic = periodic
        self.rewrites: list[str] = []
        self.counts = {"periodic": 0, "cse": 0, "fused": 0, "merged": 0,
                       "pushdown": 0, "dce": 0}

    # -- shared helpers ----------------------------------------------------------

    def _consumers(self) -> dict:
        """register -> list of step indices reading it (result counts too)."""
        uses: dict[str, list[int]] = {}
        for i, step in enumerate(self.steps):
            for reg in _operands(step):
                uses.setdefault(reg, []).append(i)
        uses.setdefault(self.result, []).append(-1)
        return uses

    def _defs(self) -> dict:
        return {step.target: i for i, step in enumerate(self.steps)}

    def _note(self, kind: str, detail: str) -> None:
        self.counts[kind] += 1
        self.rewrites.append(f"{kind}: {detail}")

    # -- pass 0: periodic backend substitution -----------------------------------

    def periodic_backend(self) -> bool:
        """Replace the whole plan with one :class:`PeriodicStep`.

        Sound only for a compiled :class:`~repro.core.periodic.PeriodicSet`
        with *verified* element structure (``exact_elements``): expansion
        by modular arithmetic then reproduces exactly the whole elements
        the eager chain would keep after the final window clip.  Gated on
        a concrete day window (expansion needs one; record plans re-run
        under arbitrary windows and stay on the chain backend) and on the
        cost model: the expansion cost must beat the chain's generation
        cost whenever the latter is estimable.
        """
        pset = self.periodic
        if pset is None or not getattr(pset, "exact_elements", False):
            return False
        if self.reusable or self.context_window is None or \
                self.unit is not Granularity.DAYS:
            return False
        expansion = pset.expansion_cost(self.context_window)
        eager = 0.0
        for step in self.steps:
            if isinstance(step, GenerateStep):
                e = self._estimate_step(step, {}, self._window_ticks())
                if e is not None:
                    eager += e.count
        if eager and expansion >= eager:
            return False
        self.steps = [PeriodicStep(self.result, pset.source, pset)]
        self._note("periodic",
                   f"{self.result} := periodic backend "
                   f"({pset.describe()}; est {expansion} ivs vs "
                   f"{eager:.0f} generated)")
        return True

    # -- pass 1: common-subexpression elimination --------------------------------

    def _window_key(self, ws: WindowSpec):
        if self.reusable:
            # Record plans are reused under arbitrary evaluation windows;
            # only structurally identical windows may unify.
            return (ws.fixed, ws.dynamic, ws.anchor)
        fixed = ws.fixed if ws.fixed is not None else self.context_window
        return (fixed, ws.dynamic, ws.anchor)

    def _fingerprint(self, step: PlanStep, mapping: dict):
        fields = []
        for name, value in vars(step).items():
            if name == "target":
                continue
            if isinstance(value, str) and name in ("left", "right",
                                                   "right2", "source"):
                value = mapping.get(value, value)
            elif isinstance(value, WindowSpec):
                value = self._window_key(value)
            elif isinstance(value, Plan):
                value = value.text()
            fields.append((name, value))
        return (type(step).__name__, tuple(fields))

    def cse(self) -> None:
        seen: dict = {}
        mapping: dict[str, str] = {}
        out: list[PlanStep] = []
        for step in self.steps:
            step = _retarget(step, mapping)
            fp = self._fingerprint(step, mapping)
            kept = seen.get(fp)
            if kept is not None:
                mapping[step.target] = kept
                self._note("cse", f"{step.target} = {kept} "
                                  f"({type(step).__name__})")
                continue
            seen[fp] = step.target
            out.append(step)
        self.steps = out
        self.result = mapping.get(self.result, self.result)

    # -- pass 2: select fusion ---------------------------------------------------

    def fuse_selects(self) -> None:
        while True:
            uses = self._consumers()
            defs = self._defs()
            fused = False
            for j, step in enumerate(self.steps):
                if not isinstance(step, SelectStep):
                    continue
                i = defs.get(step.source)
                if i is None:
                    continue
                inner = self.steps[i]
                if not isinstance(inner, ForEachStep):
                    continue
                if uses.get(inner.target, []) != [j]:
                    continue
                self.steps[j] = FusedForEachStep(
                    step.target, inner.op, inner.strict, inner.left,
                    inner.right, step.predicate)
                del self.steps[i]
                self._note("fused", f"{step.target} := select "
                                    f"{step.predicate} ∘ foreach "
                                    f"{inner.target}")
                fused = True
                break
            if not fused:
                return

    # -- pass 3: foreach merge fusion --------------------------------------------

    def merge_foreach(self) -> None:
        while True:
            uses = self._consumers()
            defs = self._defs()
            merged = False
            for j, outer in enumerate(self.steps):
                if not isinstance(outer, ForEachStep):
                    continue
                i = defs.get(outer.left)
                if i is None:
                    continue
                inner = self.steps[i]
                drop = [i]
                if isinstance(inner, FlattenStep) and \
                        uses.get(inner.target, []) == [j]:
                    k = defs.get(inner.source)
                    if k is None:
                        continue
                    flat_of = self.steps[k]
                    if not isinstance(flat_of, ForEachStep) or \
                            uses.get(flat_of.target, []) != [i]:
                        continue
                    inner, drop = flat_of, sorted((i, k), reverse=True)
                elif not isinstance(inner, ForEachStep) or \
                        uses.get(inner.target, []) != [j]:
                    continue
                if get_listop(inner.op).shape == "filtering":
                    continue
                self.steps[j] = MergedForEachStep(
                    outer.target, inner.op, inner.strict, inner.left,
                    inner.right, outer.op, outer.strict, outer.right)
                for idx in drop:
                    del self.steps[idx]
                self._note("merged", f"{outer.target} := foreach "
                                     f"{outer.op} ∘ foreach {inner.op}")
                merged = True
                break
            if not merged:
                return

    # -- pass 4: selection push-down ---------------------------------------------

    def _estimates(self) -> dict[str, _Est]:
        window = self.context_window
        w_ticks = (window[1] - window[0] + 1) if window is not None else None
        est: dict[str, _Est] = {}
        for step in self.steps:
            e = self._estimate_step(step, est, w_ticks)
            if e is not None:
                est[step.target] = e
        return est

    def _estimate_step(self, step, est, w_ticks) -> "_Est | None":
        if isinstance(step, GenerateStep):
            span = _span_ticks(step.calendar, self.unit)
            if span is None:
                return None
            if step.window.fixed is not None:
                lo, hi = step.window.fixed
                ticks = hi - lo + 1
            elif w_ticks is not None:
                ticks = w_ticks
            else:
                return None
            return _Est(max(1.0, ticks / span), span)

        def of(reg):
            return est.get(reg)

        if isinstance(step, (ForEachStep, MergedForEachStep)):
            left = of(step.left)
            ref = of(step.right2 if isinstance(step, MergedForEachStep)
                     else step.right)
            if left is None or ref is None:
                return None
            per_group = max(1.0, ref.span / max(left.span, 1.0))
            count = min(left.count, ref.count * per_group)
            return _Est(count, left.span, groups=ref.count)
        if isinstance(step, FusedForEachStep):
            left, ref = of(step.left), of(step.right)
            if left is None or ref is None:
                return None
            picks = (1.0 if step.predicate.is_singleton()
                     else len(step.predicate.items))
            return _Est(ref.count * picks, left.span)
        if isinstance(step, PipelineForEachStep):
            ref = of(step.right)
            if ref is None:
                return None
            return _Est(ref.count, ref.span)
        if isinstance(step, SelectStep):
            src = of(step.source)
            if src is None:
                return None
            if src.groups is not None:
                picks = (1.0 if step.predicate.is_singleton()
                         else len(step.predicate.items))
                return _Est(min(src.count, src.groups * picks), src.span)
            picks = len(step.predicate.items)
            return _Est(min(src.count, float(picks)), src.span)
        if isinstance(step, LabelSelectStep):
            src = of(step.source)
            return None if src is None else _Est(1.0, src.span)
        if isinstance(step, SetOpStep):
            a, b = of(step.left), of(step.right)
            if a is None or b is None:
                return None
            return _Est(a.count + b.count, max(a.span, b.span))
        if isinstance(step, (FlattenStep, ShiftStep)):
            src = of(step.source)
            return None if src is None else _Est(src.count, src.span)
        if isinstance(step, HullStep):
            src = of(step.source)
            return None if src is None else _Est(1.0, src.count * src.span)
        if isinstance(step, CalOperateStep):
            src = of(step.source)
            if src is None:
                return None
            return _Est(src.count, src.span)
        if isinstance(step, IntervalStep):
            return _Est(1.0, step.hi - step.lo + 1)
        if isinstance(step, (PointStep, TodayStep)):
            return _Est(1.0, 1.0)
        if isinstance(step, PeriodicStep) and \
                self.context_window is not None:
            return _Est(float(step.pset.expansion_cost(self.context_window)),
                        1.0)
        return None

    def _chain_of(self, root_reg: str, defs: dict) -> "list[int] | None":
        """Indices of the transitive definition chain of ``root_reg``."""
        pending = [root_reg]
        found: set[int] = set()
        while pending:
            reg = pending.pop()
            i = defs.get(reg)
            if i is None:
                return None
            if i in found:
                continue
            found.add(i)
            pending.extend(_operands(self.steps[i]))
        return sorted(found)

    def _chain_safety(self, chain: "list[int]", defs: dict,
                      root_reg: str) -> "tuple[int, Granularity] | None":
        """(pad_ticks, result granularity) when the chain may pipeline."""
        gran: dict[str, Granularity] = {}
        pad = 0
        has_load = False
        has_select = False
        foreach_shapes: dict[str, str] = {}
        for i in chain:
            step = self.steps[i]
            if isinstance(step, GenerateStep):
                span = _span_ticks(step.calendar, self.unit)
                if span is None:
                    return None
                pad += span
                gran[step.target] = step.calendar
            elif isinstance(step, ForEachStep):
                op = get_listop(step.op)
                if step.op in _LOOKBACK_OPS:
                    return None
                foreach_shapes[step.target] = op.shape
                g = gran.get(step.left)
                if g is None:
                    return None
                gran[step.target] = g
            elif isinstance(step, FusedForEachStep):
                # foreach + per-group positional selection in one kernel:
                # safe under the same rules as the ForEach/Select pair.
                op = get_listop(step.op)
                if step.op in _LOOKBACK_OPS or op.shape == "filtering":
                    return None
                has_select = True
                g = gran.get(step.left)
                if g is None:
                    return None
                gran[step.target] = g
            elif isinstance(step, MergedForEachStep):
                if step.op1 in _LOOKBACK_OPS or step.op2 in _LOOKBACK_OPS:
                    return None
                foreach_shapes[step.target] = get_listop(step.op2).shape
                g = gran.get(step.left)
                if g is None:
                    return None
                gran[step.target] = g
            elif isinstance(step, SelectStep):
                has_select = True
                shape = foreach_shapes.get(step.source)
                if shape is None or shape == "filtering":
                    # Positional selection over anything but an in-chain
                    # grouping foreach is globally window-dependent.
                    return None
                g = gran.get(step.source)
                if g is None:
                    return None
                gran[step.target] = g
            elif isinstance(step, LabelSelectStep):
                src = defs.get(step.source)
                if src is None or src not in chain:
                    return None
                src_step = self.steps[src]
                if not isinstance(src_step, GenerateStep) or \
                        src_step.calendar not in _UNIQUE_LABEL_GRANS:
                    return None
                gran[step.target] = gran[step.source]
            elif isinstance(step, LoadStep):
                has_load = True
            elif isinstance(step, FlattenStep):
                g = gran.get(step.source)
                if g is None:
                    return None
                gran[step.target] = g
            elif isinstance(step, ShiftStep):
                g = gran.get(step.source)
                if g is None:
                    return None
                pad += abs(step.delta)
                gran[step.target] = g
            elif isinstance(step, SetOpStep):
                g = gran.get(step.left) or gran.get(step.right)
                if g is None:
                    return None
                gran[step.target] = g
            elif isinstance(step, IntervalStep):
                pad += step.hi - step.lo + 1
                gran[step.target] = self.unit
            elif isinstance(step, (PointStep, TodayStep)):
                pad += 1
                gran[step.target] = self.unit
            else:
                # HullStep, CalOperateStep, GenerateCallStep and already
                # rewritten kernels are globally window-dependent or
                # unmodelled: never pipeline across them.
                return None
        if has_load and has_select:
            # A load's granularity (hence group spans) is unknown; with a
            # positional selection in the chain that is unsound.
            return None
        root_gran = gran.get(root_reg)
        if root_gran is None:
            return None
        return pad, root_gran

    def push_down(self) -> None:
        if self.unit not in _PIPELINE_UNITS:
            return
        changed = True
        while changed:
            changed = False
            defs = self._defs()
            uses = self._consumers()
            est = self._estimates()
            for j, step in enumerate(self.steps):
                if not isinstance(step, (ForEachStep, FusedForEachStep)):
                    continue
                if step.op in _LOOKBACK_OPS or \
                        get_listop(step.op).shape == "filtering":
                    continue
                chain = self._chain_of(step.left, defs)
                if not chain:
                    continue
                # Only pipeline when the whole chain would become dead:
                # a register consumed elsewhere still runs eagerly and the
                # rewrite would duplicate, not save, work.
                chain_set = set(chain)
                chain_regs = {self.steps[i].target for i in chain}
                if self.result in chain_regs:
                    continue
                if any(k not in chain_set and k != j
                       for reg in chain_regs for k in uses.get(reg, [])):
                    continue
                safety = self._chain_safety(chain, defs, step.left)
                if safety is None:
                    continue
                pad, gran = safety
                refs = est.get(step.right)
                if refs is None or refs.count > _MAX_PIPELINE_REFS:
                    continue
                eager_cost = 0.0
                pipeline_cost = refs.count * len(chain) * \
                    _PIPELINE_STEP_OVERHEAD
                feasible = True
                for i in chain:
                    s = self.steps[i]
                    if not isinstance(s, GenerateStep):
                        continue
                    e = self._estimate_step(s, {}, self._window_ticks())
                    span = _span_ticks(s.calendar, self.unit)
                    if e is None or span is None:
                        feasible = False
                        break
                    eager_cost += e.count
                    pipeline_cost += refs.count * \
                        (refs.span + 2 * pad) / span
                if not feasible or pipeline_cost >= 0.5 * eager_cost:
                    continue
                subplan = Plan(
                    [replace(self.steps[i],
                             window=replace(self.steps[i].window,
                                            dynamic=True))
                     if isinstance(self.steps[i], GenerateStep)
                     else self.steps[i]
                     for i in chain],
                    step.left)
                predicate = (step.predicate
                             if isinstance(step, FusedForEachStep) else None)
                self.steps[j] = PipelineForEachStep(
                    step.target, step.op, step.strict, step.right,
                    subplan, pad, gran, predicate)
                self._note(
                    "pushdown",
                    f"{step.target}: left chain of {len(chain)} steps "
                    f"re-evaluated per reference (~{refs.count:.0f} refs, "
                    f"pad {pad}; est cost {pipeline_cost:.0f} vs eager "
                    f"{eager_cost:.0f})")
                changed = True
                break

    def _window_ticks(self) -> "int | None":
        if self.context_window is None:
            return None
        return self.context_window[1] - self.context_window[0] + 1

    # -- pass 5: dead-step elimination -------------------------------------------

    def dce(self) -> None:
        live = {self.result}
        keep: list[PlanStep] = []
        for step in reversed(self.steps):
            if step.target in live:
                keep.append(step)
                live.update(_operands(step))
            else:
                self._note("dce", f"dropped {step.target} "
                                  f"({type(step).__name__})")
        keep.reverse()
        self.steps = keep

    # -- driver ------------------------------------------------------------------

    def run(self) -> OptimizationResult:
        if not self.periodic_backend():
            self.cse()
            self.fuse_selects()
            self.merge_foreach()
            self.push_down()
            self.dce()
        est = self._estimates()
        costs = {reg: f"~{e.count:.0f} ivs" for reg, e in est.items()}
        return OptimizationResult(
            Plan(self.steps, self.result),
            rewrites=self.rewrites,
            eliminated=self.counts["cse"] + self.counts["dce"],
            costs=costs)


def optimize_plan(plan: Plan, *, context_window=None,
                  unit: Granularity = Granularity.DAYS,
                  reusable: bool = False, periodic=None,
                  metrics=None) -> OptimizationResult:
    """Optimise a compiled plan; the input plan is never mutated.

    ``context_window`` is the evaluation tick window the plan will run
    under (None leaves window-dependent rewrites conservative);
    ``reusable=True`` marks a plan the catalog re-executes under
    arbitrary windows (record eval-plans), restricting CSE to
    structurally identical windows.  ``periodic`` optionally carries the
    expression's compiled :class:`~repro.core.periodic.PeriodicSet`; when
    its element structure is verified and cheaper, the whole chain is
    replaced by one :class:`PeriodicStep` (the periodic backend).
    ``metrics`` receives the optimizer counters.
    """
    opt = _Optimizer(plan, context_window, unit, reusable, periodic)
    result = opt.run()
    if metrics is not None:
        metrics.counter("optimizer.runs").inc()
        if result.rewrites:
            metrics.counter("optimizer.rewrites").inc(len(result.rewrites))
        for kind, n in opt.counts.items():
            if n:
                metrics.counter(f"optimizer.{kind}").inc(n)
        if result.eliminated:
            metrics.counter("plan.steps.eliminated").inc(result.eliminated)
    return result
