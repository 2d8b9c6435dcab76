"""Acceptance gate: every stated criterion at its stated scale and budget.

One test per criterion; each prints a single pass/fail line.  Run with
``pytest -s tests/test_acceptance.py`` to see the lines live, or use
``pgtool suite --all`` for the same checks from the command line.  The
suites run once, in one ``run_suite("all")`` pass, and a last test pins
the bytes of the comparable report body that ``pgtool suite --all
--json`` writes.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from pgtool.suites import BUDGETS, SUITE_ORDER, run_suite

_CRITERION = {suite_id: idx + 1 for idx, suite_id in enumerate(SUITE_ORDER)}
_PINNED_DIGEST = Path(__file__).resolve().parents[1] / "perfbench" / "suite_all.sha256"


@pytest.fixture(scope="module")
def results():
    return run_suite("all")


@pytest.mark.parametrize("suite_id", SUITE_ORDER)
def test_criterion(results, suite_id):
    result = results[SUITE_ORDER.index(suite_id)]
    assert result.suite == suite_id
    status = "PASS" if result.passed else "FAIL"
    print(
        f"[acceptance] {status} criterion {_CRITERION[suite_id]:2d} "
        f"{suite_id} ({result.seconds:.2f}s, budget {BUDGETS[suite_id]:.0f}s)"
    )
    assert result.passed, result.witnesses[:3]
    assert result.seconds < BUDGETS[suite_id], (
        f"{suite_id} took {result.seconds:.2f}s, over its {BUDGETS[suite_id]:.0f}s budget"
    )


def test_suite_body_matches_pinned_digest(results):
    body = json.dumps([r.body() for r in results], indent=2, sort_keys=True) + "\n"
    digest = hashlib.sha256(body.encode()).hexdigest()
    assert digest == _PINNED_DIGEST.read_text().split()[0]
