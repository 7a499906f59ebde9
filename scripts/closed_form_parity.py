"""Closed-form compile parity over the perfbench calendar corpus.

Every calendar text the three perfbench workloads hand to the periodic
compiler is compiled twice at each budget tier: by the default compile
(the closed form, with the interpreter oracle as its fallback) and by
the oracle compile alone.  Both must compile or fall back alike, with
the same fallback reasons, and every compiled set must be equal field
for field.  Each compiled set must also come back equal, field for
field, from the persistence codec (``repro.db.persist``'s
``encode_periodic_set``/``decode_periodic_set``) through JSON text, as a
saved database stores it.  The corpus, in families:

* ``dbcron.mix`` — the ``dbcron_month`` set-up expressions;
* ``dbcron.cold_union`` / ``dbcron.cold_anchor`` — its first-touch
  weekday unions and month/year anchors;
* ``calendar.hot`` and ``calendar.<template>`` — the ``calendar_eval``
  hot set and cold templates;
* ``query.catalog`` and ``query.<template>`` — the ``valid_time_query``
  catalog probes and cold ``within`` templates.

Run from the repository root::

    PYTHONPATH=src python scripts/closed_form_parity.py [--sample N]

``--sample N`` checks N texts per family (a fixed shuffle); the default
checks them all.  The script prints one line per family (texts, closed
and oracle paths, the AST node kinds that sent texts to the oracle) and
exits 1 when any text differs.
"""

from __future__ import annotations

import argparse
import collections
import json
import os
import random
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "perfbench"))

import wl_calendar  # noqa: E402
import wl_dbcron  # noqa: E402
import wl_query  # noqa: E402

from repro import Session  # noqa: E402
from repro.catalog.registry import CalendarRegistry  # noqa: E402
from repro.core.matcache import MaterialisationCache  # noqa: E402
from repro.core.periodic import (  # noqa: E402
    compile_expression_oracle,
    compile_expression_periodic,
)
from repro.db.persist import (  # noqa: E402
    decode_periodic_set,
    encode_periodic_set,
)

#: The PeriodicSet fields a closed-form compile must reproduce.
FIELDS = ("period", "offsets", "patch_window", "patch", "elements",
          "patch_elements", "granularity", "exact_elements")
#: The registry's two oracle budgets, full tier first.
TIERS = (CalendarRegistry._PERIODIC_FULL_DAYS,
         CalendarRegistry._PERIODIC_SMALL_DAYS)


def registry() -> CalendarRegistry:
    """The workloads' catalog (1987 epoch, 1987-2016 holidays) over a
    private materialisation cache."""
    return Session("Jan 1 1987", holiday_years=(1987, 2016),
                   matcache=MaterialisationCache()).registry


def families() -> dict[str, list[str]]:
    """Family name -> its distinct texts, in a fixed order."""
    out: dict[str, list[str]] = {}
    out["dbcron.mix"] = [text for _, exprs in wl_dbcron.MIX
                         for text, _ in exprs]
    cold = [text for text, _, _ in
            wl_dbcron._cold_expressions(random.Random(1))]
    out["dbcron.cold_union"] = [t for t in cold if " + " in t]
    out["dbcron.cold_anchor"] = [t for t in cold if " + " not in t]
    hot = wl_calendar.Workload(seed=1).hot
    out["calendar.hot"] = [op.text for op in hot
                           if op.kind not in wl_calendar.SCRIPTS]
    for name, (space, build) in wl_calendar.COLD_TEMPLATES.items():
        if build is not None:  # the E6/E7 script templates never compile
            out[f"calendar.{name}"] = [build(*p) for p in space()]
    out["query.catalog"] = list(wl_query.CATALOG)
    for name, (space, build, _) in wl_query.COLD_TEMPLATES.items():
        out[f"query.{name}"] = [build(*p) for p in space()]
    return {name: list(dict.fromkeys(texts))
            for name, texts in out.items()}


def corpus(sample: int | None = None) -> list[tuple[str, str]]:
    """``(family, text)`` pairs; ``sample`` texts per family when given
    (the same ones on every run)."""
    pairs = []
    for name, texts in families().items():
        if sample is not None and len(texts) > sample:
            texts = random.Random(name).sample(texts, sample)
        pairs += [(name, text) for text in texts]
    return pairs


def compile_both(reg: CalendarRegistry, text: str, max_eval_days: int):
    """``(closed, closed_reasons, path, oracle, oracle_reasons)``."""
    parsed, factored = reg._parsed_asts(text, None)

    def evaluate(window):
        return reg.eval_expression(text, window=window, optimize=False)

    closed_reasons: list = []
    oracle_reasons: list = []
    paths: list = []
    closed = compile_expression_periodic(
        factored, system=reg.system, resolver=reg.resolver,
        evaluate=evaluate, source=text, max_eval_days=max_eval_days,
        reason_out=closed_reasons, raw=parsed, memo=reg._closed_memo(),
        path_out=paths)
    oracle = compile_expression_oracle(
        factored, system=reg.system, resolver=reg.resolver,
        evaluate=evaluate, source=text, max_eval_days=max_eval_days,
        reason_out=oracle_reasons)
    return (closed, closed_reasons, paths[-1] if paths else None, oracle,
            oracle_reasons)


def differences(reg: CalendarRegistry, text: str) -> tuple[list, list]:
    """``(differences, paths)`` of one text over both tiers."""
    found, paths = [], []
    for budget in TIERS:
        closed, closed_reasons, path, oracle, oracle_reasons = \
            compile_both(reg, text, budget)
        paths.append(path)
        if closed_reasons != oracle_reasons:
            found.append(f"tier {budget}: reasons {closed_reasons} != "
                         f"{oracle_reasons}")
        elif (closed is None) != (oracle is None):
            found.append(f"tier {budget}: compiled {closed is not None} "
                         f"!= {oracle is not None}")
        elif closed is not None:
            found += [f"tier {budget}: field {field}"
                      for field in FIELDS
                      if getattr(closed, field) != getattr(oracle, field)]
            stored = decode_periodic_set(text, json.loads(json.dumps(
                encode_periodic_set(closed))))
            found += [f"tier {budget}: stored field {field}"
                      for field in FIELDS + ("source",)
                      if getattr(stored, field) != getattr(closed, field)]
    return found, paths


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--sample", type=int, default=None,
                        help="texts per family (default: all)")
    args = parser.parse_args(argv)
    reg = registry()
    failed = 0
    stats: dict = collections.defaultdict(collections.Counter)
    started = time.perf_counter()
    for family, text in corpus(args.sample):
        found, paths = differences(reg, text)
        counts = stats[family]
        counts["texts"] += 1
        for path in paths:
            if path is not None:
                counts[path[0] if path[0] == "closed"
                       else f"oracle:{path[1]}"] += 1
        if found:
            failed += 1
            print(f"MISMATCH {family}: {text}")
            for line in found:
                print(f"    {line}")
    for family, counts in stats.items():
        print(f"{family:28} " + " ".join(
            f"{key}={value}" for key, value in sorted(counts.items())))
    print(f"{sum(c['texts'] for c in stats.values())} texts, {failed} "
          f"differ, {time.perf_counter() - started:.1f} s")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
