"""Exhaustive constant-state enumeration and root polishing."""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crossdiff import (
    EnumerationError,
    ModelError,
    build_model,
    find_constant_states,
    refine_root,
)


def lv_model(r=(1.0, 1.0), c=((1.0, 0.5), (0.3, 1.0)), m=2, d=None, alpha=None):
    d = list(d) if d is not None else [1.0] * m
    alpha = alpha if alpha is not None else [[0.0] * m for _ in range(m)]
    return build_model(
        {
            "m": m,
            "d": d,
            "alpha": alpha,
            "r": list(r),
            "c": [list(row) for row in c],
            "domain": {"kind": "interval", "lengths": [np.pi]},
            "bc": "neumann",
        }
    )


def test_weak_competition_enumeration():
    states = find_constant_states(lv_model())
    points = {tuple(np.round(s.u_star, 12)) for s in states}
    # Coexistence solves u1 + 0.5 u2 = 1, 0.3 u1 + u2 = 1: exact
    # elimination gives u1 = 10/17, u2 = 14/17.
    coexist = (float(Fraction(10, 17)), float(Fraction(14, 17)))
    expected = {(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), tuple(np.round(coexist, 12))}
    assert points == expected
    nontrivial = states.by_classification("nontrivial")[0]
    np.testing.assert_allclose(nontrivial.u_star, coexist, atol=1e-14)


def test_decoupled_logistic_enumeration():
    states = find_constant_states(lv_model(c=((1.0, 0.0), (0.0, 1.0))))
    points = {tuple(s.u_star) for s in states}
    assert points == {(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0)}


def test_singular_subset_flagged_not_fatal():
    states = find_constant_states(lv_model(c=((1.0, 1.0), (1.0, 1.0))))
    assert (0, 1) in [tuple(s) for s in states.degenerate_subsets]
    assert states.by_classification("nontrivial") == []
    assert len(states) == 3  # trivial + two semitrivial


def test_trivial_state_always_present_and_first():
    states = find_constant_states(lv_model(r=(-1.0, -1.0)))
    assert states[0].classification == "trivial"
    np.testing.assert_array_equal(states[0].u_star, np.zeros(2))


def test_classification_and_support_consistency():
    for state in find_constant_states(lv_model()):
        outside = state.u_star[[not s for s in state.support]]
        np.testing.assert_array_equal(outside, np.zeros_like(outside))
        n_support = sum(state.support)
        if n_support == 0:
            assert state.classification == "trivial"
        elif n_support == 2:
            assert state.classification == "nontrivial"
        else:
            assert state.classification == "semitrivial"


def test_residual_bound_on_every_state():
    model = lv_model(c=((1.0, 0.4), (0.6, 1.0)), r=(0.9, 1.1))
    for state in find_constant_states(model):
        assert state.residual <= 1e-12
        assert np.abs(model.f(state.u_star)).max() <= 1e-12


def test_canonical_support_order():
    states = find_constant_states(lv_model())
    masks = [s.mask for s in states]
    assert masks == sorted(masks)


@given(
    st.integers(1, 3),
    st.integers(0, 2**31 - 1),
)
@settings(max_examples=40, deadline=None)
def test_enumeration_matches_brute_force(m, seed):
    # Independent oracle: solve every support subset directly here and
    # keep the strictly positive solutions.
    rng = np.random.default_rng(seed)
    r = rng.uniform(-1.5, 1.5, m)
    c = rng.uniform(-1.0, 1.5, (m, m))
    model = lv_model(r=r, c=c, m=m)
    states = find_constant_states(model)
    got = {tuple(np.round(s.u_star, 9)) for s in states}

    expected = {tuple([0.0] * m)}
    degenerate = False
    for size in range(1, m + 1):
        for S in combinations(range(m), size):
            cS = c[np.ix_(S, S)]
            if abs(np.linalg.det(cS)) <= 1e-12 * max(
                np.prod(np.abs(cS).sum(axis=1)), 1e-300
            ):
                degenerate = True
                continue
            uS = np.linalg.solve(cS, r[list(S)])
            if np.all(uS > 1e-9 * (1.0 + np.abs(uS).max())):
                u = np.zeros(m)
                u[list(S)] = uS
                expected.add(tuple(np.round(u, 9)))
    if not degenerate:
        assert got == expected
    else:
        assert len(states.degenerate_subsets) > 0


def test_refine_root_reaches_coexistence():
    model = lv_model()
    state = refine_root(model, (True, True), np.array([0.6, 0.8]))
    np.testing.assert_allclose(
        state.u_star, [10.0 / 17.0, 14.0 / 17.0], atol=1e-12
    )
    assert state.residual <= 1e-12


def test_refine_root_fixed_point_unchanged():
    model = lv_model()
    state = refine_root(model, (True, False), np.array([1.0, 0.0]))
    np.testing.assert_allclose(state.u_star, [1.0, 0.0], atol=1e-14)


def test_refine_root_singular_jacobian_errors():
    # g = 1 - u1 - u2 for both species: the restricted Jacobian -c is
    # singular everywhere, and (0.2, 0.2) is not a root.
    model = lv_model(c=((1.0, 1.0), (1.0, 1.0)))
    with pytest.raises(EnumerationError, match="no convergence"):
        refine_root(model, (True, True), np.array([0.2, 0.2]))


def test_refine_root_rejects_support_violating_start():
    model = lv_model()
    with pytest.raises(ModelError, match="support"):
        refine_root(model, (True, False), np.array([0.5, 0.5]))


def test_species_count_cap():
    m = 13
    with pytest.raises(EnumerationError, match="12"):
        find_constant_states(
            lv_model(
                r=[1.0] * m,
                c=np.eye(m),
                m=m,
            )
        )
