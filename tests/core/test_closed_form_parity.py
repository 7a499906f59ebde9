"""The closed-form compile against the oracle compile on a fixed sample
of the perfbench corpus (``scripts/closed_form_parity.py`` checks the
whole corpus in its own CI step)."""

from __future__ import annotations

import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
sys.path.insert(0, os.path.join(ROOT, "scripts"))
import closed_form_parity  # noqa: E402

sys.path.pop(0)


@pytest.fixture(scope="module")
def registry():
    return closed_form_parity.registry()


@pytest.mark.parametrize("family,text", closed_form_parity.corpus(sample=3))
def test_sample_compiles_alike(registry, family, text):
    found, _ = closed_form_parity.differences(registry, text)
    assert not found, f"{family}: {text}"


def test_every_family_is_sampled():
    families = {family for family, _ in closed_form_parity.corpus(1)}
    assert families >= {"dbcron.mix", "dbcron.cold_union",
                        "dbcron.cold_anchor", "calendar.hot",
                        "query.catalog"}
    assert len(families) == len(closed_form_parity.families())
