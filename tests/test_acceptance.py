"""Acceptance gate: every shipped claim, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` (or ``crossdiff
selftest``) to see the per-criterion lines.
"""

from __future__ import annotations

import pytest

from crossdiff import acceptance
from crossdiff.acceptance import _CRITERIA


@pytest.mark.parametrize("criterion", _CRITERIA, ids=[f.__name__ for f in _CRITERIA])
def test_criterion(criterion):
    result = criterion()
    status = "PASS" if result.passed else "FAIL"
    print(f"{status} criterion {result.number}: {result.name} ({result.detail})")
    assert result.passed, f"criterion {result.number} {result.name}: {result.detail}"


def test_criterion_8_fails_when_a_solve_does_not_converge(monkeypatch):
    # No factorization allowed: every solve stops at its seed.
    solve = acceptance.newton_solve
    monkeypatch.setattr(
        acceptance, "newton_solve", lambda *args, **kwargs: solve(*args, max_iter=0, **kwargs)
    )
    result = acceptance.criterion_8()
    assert not result.passed
    assert result.detail.startswith("no convergence on the 32-cell grid: no convergence within 0")
