"""Exhaustive constant-state enumeration."""

from __future__ import annotations

import dataclasses
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crossdiff import (
    EnumerationError,
    build_model,
    existence_verdict,
    find_constant_states,
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


def test_enumeration_is_a_frozen_record():
    model = lv_model(c=((1.0, 1.0), (1.0, 1.0)))
    states = find_constant_states(model)
    assert [s.mask for s in states.states] == [0, 1, 2]
    assert states.degenerate_subsets == ((0, 1),)
    with pytest.raises(dataclasses.FrozenInstanceError):
        states.states = ()
    # The cause names the supports as a list, as analyze reports write it.
    assert "on supports [(0, 1)];" in existence_verdict(model, states).cause


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


def assert_roots_are_the_support_solves(model, states):
    for state in states:
        idx = np.array(state.support_indices, dtype=int)
        if idx.size:
            solve = np.linalg.solve(model.c[np.ix_(idx, idx)], model.r[idx])
            np.testing.assert_array_equal(state.u_star[idx], solve, strict=True)


def test_large_root_against_growth_is_the_solve():
    # Mutualism with c_12 c_21 = 0.999995: the positive state, about
    # (3e4, 6e4), is large against r = 0.1.  The solve leaves max |g|
    # near 3e-12, inside its rounding floor eps |c| |u| (about 3e-11), so
    # no Newton step brings it below 1e-12 (1 + max |r|).
    model = lv_model(r=(0.1, 0.1), c=((1.0, -0.5), (-1.99999, 1.0)))
    states = find_constant_states(model)
    assert len(states) == 4
    (positive,) = states.by_classification("nontrivial")
    np.testing.assert_array_equal(positive.u_star, np.linalg.solve(model.c, model.r), strict=True)
    assert_roots_are_the_support_solves(model, states)


def near_singular_model(rng):
    """LV kinetics with c v = delta M v for a positive v, and r = c (U v):
    the positive root U v is large and its support nearly singular."""
    m = int(rng.integers(2, 4))
    M = rng.uniform(-1.0, 2.0, (m, m)) + m * np.eye(m)
    v = rng.uniform(0.5, 2.0, m)
    w = rng.uniform(0.5, 2.0, m)
    delta = 10.0 ** rng.uniform(-10, -4)
    U = 10.0 ** rng.uniform(0, 10)
    c = M - (1.0 - delta) * np.outer(M @ v, w) / (w @ v)
    return lv_model(r=c @ (U * v), c=c, m=m)


def test_near_singular_roots_are_the_support_solves():
    # Each state is its support's one solve, bit for bit, and nothing
    # raises: whether a root is accurate enough for an index is the
    # verdict's question, answered or left inconclusive with a cause.
    rng = np.random.default_rng(7)
    for _ in range(240):
        model = near_singular_model(rng)
        states = find_constant_states(model)
        assert_roots_are_the_support_solves(model, states)
        verdict = existence_verdict(model, states)
        assert verdict.inconclusive == (verdict.total is None)
        assert verdict.inconclusive == bool(verdict.cause)
        # A root is never refused for max |g| within its rounding floor.
        assert "not a constant steady state" not in (verdict.cause or "")


def test_root_within_its_rounding_floor_carries_an_index():
    # The positive root, about (2.42e9, 2.15e9), leaves max |g| = 3.84e-7:
    # above the absolute bound 1e-8 (1 + max |r|) = 3.12e-7, below the
    # rounding floor eps |c| |u| = 1.37e-6 of evaluating g = r - c u there.
    model = build_model({
        "m": 2, "d": [1.0, 1.0], "alpha": [[0.0, 0.0], [0.0, 0.0]],
        "r": [14.89770399764403, 30.221546744310924],
        "c": [[1.1924174829780863, -1.345294887118098],
              [0.017197346286152104, -0.019402168869787628]],
        "domain": {"kind": "interval", "lengths": [3.0]}, "bc": "neumann",
    })
    (positive,) = find_constant_states(model).by_classification("nontrivial")
    g_res = np.abs(model.g(positive.u_star)).max()
    assert 1e-8 * (1.0 + np.abs(model.r).max()) < g_res
    assert g_res < np.finfo(float).eps * np.abs(model.c).sum(axis=1).max() * positive.u_star.max()
    verdict = existence_verdict(model)
    assert (verdict.total, verdict.inconclusive, verdict.cause) == (1, False, None)


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
