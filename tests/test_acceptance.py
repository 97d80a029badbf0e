"""Acceptance gate: every shipped claim, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` (or ``crossdiff
selftest``) to see the per-criterion lines.
"""

from __future__ import annotations

import pytest

from crossdiff import acceptance, pde_solver
from crossdiff.acceptance import _CRITERIA


def test_the_suite_runs_nine_criteria_in_order():
    # A rewritten criterion must not drop out of the suite silently.
    assert [fn.__name__ for fn in _CRITERIA] == [f"criterion_{k}" for k in range(1, 10)]


@pytest.mark.parametrize("criterion", _CRITERIA, ids=[f.__name__ for f in _CRITERIA])
def test_criterion(criterion):
    result = criterion()
    status = "PASS" if result.passed else "FAIL"
    print(f"{status} criterion {result.number}: {result.name} ({result.detail})")
    assert result.passed, f"criterion {result.number} {result.name}: {result.detail}"


def test_criterion_8_fails_when_a_solve_does_not_converge(monkeypatch):
    # No factorization allowed: every solve stops at its seed.
    monkeypatch.setattr(pde_solver, "MAX_FACTORIZATIONS", 0)
    result = acceptance.criterion_8()
    assert not result.passed
    assert result.detail.startswith("no convergence on the 32-cell grid: no convergence within 0")
