"""Root-count index formula, boundary-state stability, existence verdicts."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crossdiff import (
    ConfigError,
    ModelError,
    build_model,
    constant_state_index,
    existence_verdict,
    find_constant_states,
    nonexistence_threshold,
    semitrivial_stability,
)
from crossdiff.index_theory import verdict_table
from crossdiff.model import replace_entries
from crossdiff.spectral import mode
from test_spectral import brute_force_spectrum

PI = np.pi


def interval_model(m, d, r, c, alpha=None, length=PI):
    alpha = alpha if alpha is not None else [[0.0] * m for _ in range(m)]
    return build_model(
        {
            "m": m,
            "d": list(d),
            "alpha": [list(row) for row in alpha],
            "r": list(r),
            "c": [list(row) for row in c],
            "domain": {"kind": "interval", "lengths": [length]},
            "bc": "neumann",
        }
    )


def worked_diag_model(length=PI):
    # u* = (1,1) with A(u*) = I and reaction Jacobian diag(2, -1):
    # c = -J, r = c @ u*.
    return interval_model(
        2, (1.0, 1.0), (-2.0, 1.0), ((-2.0, 0.0), (0.0, 1.0)), length=length
    )


def turing_model(d=(0.4, 7.0)):
    # Coexistence u* = (1,1), J = [[1,-2],[3,-4]] (stable kinetics,
    # diffusion-driven instability for disparate d).
    return interval_model(2, d, (1.0, 1.0), ((-1.0, 2.0), (-3.0, 4.0)))


def first_mode_matrix(model):
    """``A(u*) - J(u*) / lambda_hat`` at the first nonzero mode, ``u* = (1, 1)``."""
    u = np.ones(2)
    lambda_hat = mode(model.domain, 1)[0]
    return lambda_hat, model.A(u) - model.jacobian_f(u) / lambda_hat


def negative_intervals(report):
    """``(first_mode, modes)`` of each interval where ``p < 0``."""
    return [(int(r["first_mode"]), int(r["modes"])) for r in report.negative]


def reference_count(d_A, Ai):
    """``(N, degenerate)`` of ``diag(d_A)^{-1} Ai``: its real eigenvalues
    below ``-1e-8`` times its 2-norm, and whether an eigenvalue's real
    part lies within that of 0."""
    M = Ai / d_A[:, None]
    scale = max(float(np.linalg.norm(M, 2)), 1e-300)
    eigs = np.linalg.eig(M)[0]
    neg = (np.abs(eigs.imag) <= 1e-10 * scale) & (eigs.real < -1e-8 * scale)
    return int(neg.sum()), bool(np.abs(eigs.real).min() <= 1e-8 * scale)


def test_mode_matrix_worked_case():
    # The first mode matrix counts one negative eigenvalue, so p(1) < 0:
    # mode 1 lies in the report's interval where p < 0, after the
    # constant mode (det(-J) = -2 < 0).
    model = worked_diag_model()
    lambda_hat, A_i = first_mode_matrix(model)
    assert lambda_hat == 1.0
    np.testing.assert_allclose(A_i, np.diag([-1.0, 2.0]), atol=1e-14)
    assert reference_count(np.ones(2), A_i) == (1, False)
    assert np.linalg.det(lambda_hat * model.A(np.ones(2)) - model.jacobian_f(np.ones(2))) < 0
    assert negative_intervals(constant_state_index(model, np.ones(2))) == [(0, 2)]


def test_mode_matrix_vanishing_perturbation():
    # On (0, pi / sqrt(1e9)) the first mode sits at lambda_hat = 1e9, far
    # past both roots (-1 and 2): its matrix is A(u*) up to 1e-9 and counts
    # nothing, and the interval where p < 0 holds the constant mode alone.
    model = worked_diag_model(length=PI / np.sqrt(1e9))
    lambda_hat, A_i = first_mode_matrix(model)
    assert lambda_hat == pytest.approx(1e9)
    np.testing.assert_allclose(A_i, model.A(np.ones(2)), atol=1e-8)
    assert reference_count(np.ones(2), A_i) == (0, False)
    assert negative_intervals(constant_state_index(model, np.ones(2))) == [(0, 1)]


def test_negative_count_examples():
    assert reference_count(np.ones(2), np.diag([-1.0, 2.0])) == (1, False)
    assert reference_count(np.ones(2), np.diag([0.5, 2.0])) == (0, False)
    spd = np.array([[2.0, 0.3], [0.3, 1.0]])
    assert reference_count(np.array([0.5, 2.0]), spd) == (0, False)


@given(
    st.floats(-3.0, 3.0),
    st.floats(-3.0, 3.0),
    st.floats(0.1, 2.0),
    st.floats(0.1, 2.0),
    st.integers(0, 2**31 - 1),
)
@settings(max_examples=60)
def test_negative_determinant_forces_single_crossing(l1, l2, d1, d2, seed):
    # 2x2 with real spectrum: det(d_A^{-1} Ai) < 0 <=> exactly one
    # negative eigenvalue.
    rng = np.random.default_rng(seed)
    V = rng.uniform(-1.0, 1.0, (2, 2))
    if abs(np.linalg.det(V)) < 0.1 or min(abs(l1), abs(l2)) < 1e-3:
        return
    Ai = V @ np.diag([l1, l2]) @ np.linalg.inv(V)
    d_A = np.array([d1, d2])
    N, degenerate = reference_count(d_A, Ai)
    if degenerate:
        return
    det = np.linalg.det(Ai / d_A[:, None])
    if det < -1e-8:
        assert N == 1
    elif det > 1e-8:
        assert N in (0, 2)


def brute_force_counts(model, u, modes):
    """``N_k`` of the first ``modes`` nonzero interval modes ``k^2 (pi/L)^2``."""
    lam = (np.arange(1.0, modes + 1.0) * PI / model.domain.lengths[0]) ** 2
    A, J, d_A = model.A(u), model.jacobian_f(u), model.d_A(u)
    return lam, np.array([reference_count(d_A, A - J / value)[0] for value in lam])


def test_mode_cutoff_worked_case():
    # The cutoff past which no mode counts is the largest real root of p:
    # det A(u*) > 0 makes p > 0 past it.  Here the roots are -1 and 2.
    model = worked_diag_model()
    report = constant_state_index(model, np.ones(2))
    assert report.roots["mu"].tolist() == [-1.0, 2.0]
    assert report.roots["real"].all()
    assert report.negative["hi"].max() == 2.0
    lam, N = brute_force_counts(model, np.ones(2), 40)
    assert lam[N > 0].tolist() == [1.0]


def test_mode_cutoff_no_reaction_means_no_modes():
    # J(u*) = 0: every root is 0, so no mode counts and p(0) = det(-J) = 0
    # makes the state degenerate.
    model = interval_model(2, (1.0, 2.0), (0.0, 0.0), ((0.0, 0.0), (0.0, 0.0)))
    report = constant_state_index(model, np.ones(2))
    assert report.roots["mu"].tolist() == [0.0, 0.0]
    assert report.sigma == 0 and report.negative.size == 0
    assert not report.nondegenerate and report.index is None


@pytest.mark.parametrize(
    "u, c, d, alpha_12",
    [
        ((66.2, 1.0), ((0.86, 0.98), (1.95, 1.55)), (0.29, 0.25), 3.8),
        ((19.5, 1.0), ((1.82, 0.09), (1.65, 0.83)), (1.76, 0.1), 2.1),
        ((98.3, 1.0), ((0.99, 1.06), (1.57, 0.83)), (1.26, 1.17), 4.7),
        ((159.8, 1.0), ((1.08, 0.6), (0.85, 0.06)), (0.15, 1.01), 3.4),
    ],
)
def test_no_counted_mode_lies_past_the_certified_bound(u, c, d, alpha_12):
    # One-sided cross-diffusion at a lopsided state makes d_A^{-1} A(u*)
    # unit-triangular with a large off-diagonal entry: defective and far
    # from normal.  Brute force over the first 2,999 interval modes: the
    # modes that count are exactly those in the report's intervals where
    # p < 0, all below the largest root, and there are many of them.
    u, c = np.array(u), np.array(c)
    model = interval_model(2, d, c @ u, c, alpha=[[0.0, alpha_12], [0.0, 0.0]])
    report = constant_state_index(model, u)
    lam, N = brute_force_counts(model, u, 2999)
    counted = lam[N > 0]
    assert counted.size >= 8 and counted.max() <= report.roots["mu"].max()
    inside = np.zeros(lam.size, dtype=bool)
    for r in report.negative:
        inside |= (lam > r["lo"]) & (lam < r["hi"])
    assert (inside == (N % 2 == 1)).all()
    assert report.index == (-1) ** int(np.sum(N)) * np.sign(np.linalg.det(-model.jacobian_f(u)))


def test_mode_cutoff_scans_past_the_bound():
    # Scanned past the largest root, 2, on the worked case: the modes
    # there count nothing, and p > 0 at each of them.
    model = worked_diag_model()
    u = np.ones(2)
    lam, N = brute_force_counts(model, u, 12)
    past = lam > constant_state_index(model, u).roots["mu"].max()
    assert past.sum() == 11 and not N[past].any()
    for value in lam[past]:
        assert np.linalg.det(value * model.A(u) - model.jacobian_f(u)) > 0


def nondegeneracy(model):
    """Whether the state ``u* = (1, 1)`` is nondegenerate, and its roots."""
    report = constant_state_index(model, np.ones(2))
    return report.nondegenerate, report.roots


def test_nondegeneracy_worked_case_true_on_pi_interval():
    # The roots -1 and 2 lie 1 from the eigenvalues 0 and 1 (and 2 from
    # 4): relative to the largest root, both gaps are 1/2.
    ok, roots = nondegeneracy(worked_diag_model())
    assert ok
    assert roots["gap"].tolist() == [0.5, 0.5]


def test_nondegeneracy_fails_on_resonant_interval():
    # L = pi/sqrt(2) scales the spectrum to 2k^2, so lambda_hat = 2
    # collides with the positive root: p(2) = 0.
    ok, roots = nondegeneracy(worked_diag_model(length=PI / np.sqrt(2.0)))
    assert not ok
    bad = roots[roots["gap"] <= 1e-8]
    assert bad["mu"].tolist() == [2.0]


def test_nondegeneracy_fails_on_singular_reaction_jacobian():
    # u* = (1,1) with J singular: c = [[1,1],[1,1]] has det J = 0, so 0 is
    # a root and the constant mode is degenerate.
    model = interval_model(2, (1.0, 1.0), (2.0, 2.0), ((1.0, 1.0), (1.0, 1.0)))
    ok, roots = nondegeneracy(model)
    assert not ok
    assert any(abs(r["mu"]) < 1e-12 and r["gap"] <= 1e-8 for r in roots)


def test_scalar_logistic_index():
    model = interval_model(1, (1.0,), (1.0,), ((1.0,),))
    report = constant_state_index(model, np.ones(1))
    assert report.sigma == 0
    assert report.negative.size == 0
    assert report.index == 1
    assert report.nondegenerate


def test_worked_diagonal_index():
    # The root 2 has the eigenvalues 0 and 1 below it, the root -1 none:
    # sigma = 2.  p < 0 on [0, 2), at the constant mode (det(-J) = -2) and
    # at mode 1 alone, and the index is +1.
    report = constant_state_index(worked_diag_model(), np.ones(2))
    assert report.roots["count"].tolist() == [0, 2]
    assert report.sigma == 2
    assert report.index == 1
    assert negative_intervals(report) == [(0, 2)]
    assert report.negative["lo"].tolist() == [0.0]
    assert report.negative["hi"].tolist() == [2.0]


def test_bistable_saddle_index_counts_the_constant_mode():
    # Strong competition: u* = (1/3, 1/3) is a saddle of the kinetics,
    # det(-J(u*)) = -1/3 < 0.  At d = 100 the roots are -1/100 and 1/300:
    # only the constant mode lies below the positive one, so the index is
    # the constant mode's factor alone.
    model = interval_model(2, (100.0, 100.0), (1.0, 1.0), ((1.0, 2.0), (2.0, 1.0)))
    report = constant_state_index(model, np.full(2, 1.0 / 3.0))
    assert report.sigma == 1
    assert negative_intervals(report) == [(0, 1)]
    assert report.index == -1
    assert any(w.startswith("constant mode: det(-J(u_star))") for w in report.warnings)
    stable = constant_state_index(turing_model(), np.ones(2))
    assert not any("constant mode" in w for w in stable.warnings)


def test_turing_index_against_eigendecomposition_oracle():
    # Oracle: per mode, count negative eigenvalues of I - (1/lambda) D^{-1} J
    # directly, over the analytic spectrum with multiplicities.
    d = (0.05, 1.0)
    model = turing_model(d=d)
    u_star = np.ones(2)
    J = model.jacobian_f(u_star)
    D_inv = np.diag(1.0 / np.array(d))
    counts = []
    for k in range(1, 200):
        lam = float(k * k)
        eigs = np.linalg.eigvals(np.eye(2) - D_inv @ J / lam)
        real = eigs[np.abs(eigs.imag) < 1e-12].real
        counts.append(int(np.sum(real < -1e-12)))
    report = constant_state_index(model, u_star)
    # Mode 1 counts two eigenvalues, so p(1) > 0; modes 2 and 3 count one
    # each and lie in the one interval where p < 0, (3.1, 12.9).
    assert counts[:4] == [2, 1, 1, 0] and sum(counts) == 4
    assert negative_intervals(report) == [(2, 2)]
    assert report.sigma % 2 == sum(counts) % 2
    assert report.index == +1


def test_index_refuses_boundary_state():
    model = turing_model()
    with pytest.raises(ModelError):
        constant_state_index(model, np.array([1.0, 0.0]))


def test_index_refuses_non_root():
    model = turing_model()
    with pytest.raises(ModelError):
        constant_state_index(model, np.array([2.0, 2.0]))


def test_degenerate_mode_suppresses_index_claim():
    report = constant_state_index(
        worked_diag_model(length=PI / np.sqrt(2.0)), np.ones(2)
    )
    assert not report.nondegenerate
    assert report.index is None


def test_zero_mode_warning_for_unstable_kinetics():
    # J = diag(2,-1) has an unstable constant direction: the report must
    # say the shifted solution-map parity differs.
    report = constant_state_index(worked_diag_model(), np.ones(2))
    assert any("constant mode" in w or "parity" in w for w in report.warnings)


def test_semitrivial_stability_signs():
    model = interval_model(
        2, (1.0, 1.0), (1.0, 1.0), ((1.0, 0.5), (0.3, 1.0))
    )
    states = {tuple(s.u_star): s for s in find_constant_states(model)}
    sv10 = semitrivial_stability(model, states[(1.0, 0.0)])
    assert sv10.v_class == "v-unstable"
    assert sv10.complement_signs[0][1] == pytest.approx(0.7)
    sv01 = semitrivial_stability(model, states[(0.0, 1.0)])
    assert sv01.v_class == "v-unstable"
    assert sv01.complement_signs[0][1] == pytest.approx(0.5)


def test_trivial_state_stable_for_negative_rates():
    model = interval_model(2, (1.0, 1.0), (-1.0, -1.0), np.eye(2))
    states = find_constant_states(model)
    sv = semitrivial_stability(model, states[0])
    assert sv.v_class == "v-stable"


def test_weak_competition_verdict():
    model = interval_model(
        2, (1.0, 1.0), (1.0, 1.0), ((1.0, 0.5), (0.3, 1.0))
    )
    verdict = existence_verdict(model)
    assert verdict.case_label == "a"
    assert verdict.sum_of_boundary_indices == 0
    assert verdict.total == 1
    assert verdict.predicts_nonconstant is False
    assert not verdict.inconclusive
    assert any("semitrivial" in a for a in verdict.assumptions)


def test_turing_verdict_predicts_pattern():
    verdict = existence_verdict(turing_model())
    assert verdict.total == -1
    assert verdict.predicts_nonconstant is True


def test_decaying_system_makes_no_prediction():
    model = interval_model(2, (1.0, 1.0), (-1.0, -1.0), np.eye(2))
    verdict = existence_verdict(model)
    assert verdict.total == 1
    assert verdict.predicts_nonconstant is False


def test_index_never_forces_what_the_nonexistence_threshold_forbids():
    # With alpha = 0 and competition (c >= 0, c_ii > 0) the maximum
    # principle bounds every positive solution by r_i / c_ii.  Where min d
    # exceeds nonexistence_threshold on that box every solution is
    # constant, so a verdict predicting a nonconstant solution there would
    # contradict a proof.  The family mixes stable coexistence, saddles
    # (det(-J(u*)) < 0) and states the ledger finds degenerate.
    rng = np.random.default_rng(7)
    models = [interval_model(2, (100.0, 100.0), (1.0, 1.0), ((1.0, 2.0), (2.0, 1.0)))]
    for _ in range(400):
        c = rng.uniform(0.0, 3.0, (2, 2))
        c[[0, 1], [0, 1]] = rng.uniform(0.2, 2.0, 2)
        d = 10.0 ** rng.uniform(0.0, 3.5, 2)
        models.append(
            interval_model(2, d, rng.uniform(0.2, 2.0, 2), c, length=rng.uniform(0.5, 4.0))
        )
    proven = [
        model for model in models
        if model.d.min() > nonexistence_threshold(
            model, [[0.0, r / c] for r, c in zip(model.r, np.diag(model.c))]
        )
    ]
    assert proven[0] is models[0]
    verdicts = [existence_verdict(model) for model in proven]
    for model, verdict in zip(proven, verdicts):
        assert verdict.predicts_nonconstant is not True, (model.d, model.r, model.c)
    # Not vacuous: most proven models get a verdict, and among them are
    # saddles, whose constant-mode factor keeps the total at 1.
    decided = [v for v in verdicts if not v.inconclusive]
    assert len(proven) >= 300 and len(decided) >= 0.9 * len(proven)
    saddles = [v for v in decided if -1 in (i for _, i in v.nontrivial_constant_indices)]
    assert len(saddles) >= 50
    assert all(v.total == 1 for v in decided)


def test_degenerate_subset_verdict_inconclusive():
    model = interval_model(2, (1.0, 1.0), (1.0, 1.0), ((1.0, 1.0), (1.0, 1.0)))
    verdict = existence_verdict(model)
    assert verdict.inconclusive
    assert verdict.total is None
    assert verdict.predicts_nonconstant is None
    assert "degenerate-subset" in (verdict.cause or "")


def test_tiny_interval_is_decided_without_overflow():
    # On an interval of length 1e-150 the first mode has lambda_hat ~ 1e301,
    # where det(lambda_hat A - J) overflows.  No determinant is taken: both
    # roots lie below that mode, so only the constant mode counts for each.
    model = interval_model(
        2, (0.4, 7.0), (1.0, 1.0), ((-1.0, 2.0), (-3.0, 4.0)),
        alpha=((0.0, 0.0), (0.1, 0.0)), length=1e-150,
    )
    report = constant_state_index(model, np.ones(2))
    assert report.roots["count"].tolist() == [1, 1]
    assert report.index == 1
    assert negative_intervals(report) == [(1, 0)]
    verdict = existence_verdict(model)
    assert not verdict.inconclusive and verdict.total == 1


@given(st.floats(0.1, 10.0))
@settings(max_examples=20, deadline=None)
def test_index_invariant_under_joint_scaling(s):
    base = constant_state_index(turing_model(), np.ones(2))
    scaled_model = interval_model(
        2,
        (0.4 * s, 7.0 * s),
        (s, s),
        ((-s, 2 * s), (-3 * s, 4 * s)),
    )
    scaled = constant_state_index(scaled_model, np.ones(2))
    assert scaled.sigma == base.sigma
    assert scaled.index == base.index


@given(
    st.floats(0.2, 5.0),
    st.floats(0.2, 5.0),
    st.floats(-4.0, 4.0),
    st.floats(-4.0, 4.0),
)
@settings(max_examples=40, deadline=None)
def test_diagonal_consistency(d1, d2, j1, j2):
    # Fully diagonal data: N_i is the count of negative entries of
    # diag(d_A)^{-1} (A - J/lambda) in closed form.
    d_A = np.array([d1, d2])
    J = np.diag([j1, j2])
    for lam in (1.0, 4.0, 9.0):
        Ai = np.diag(d_A) - J / lam
        diag_vals = np.diag(Ai) / d_A
        if np.abs(diag_vals).min() <= 1e-8:
            continue
        N, _ = reference_count(d_A, Ai)
        assert N == int(np.sum(diag_vals < 0))


def test_rectangle_multiplicities_enter_parity():
    # On the pi x pi square the lambda = 1 mode has multiplicity 2, so a
    # single unstable direction there contributes 2 to the count.
    cfg_model = build_model(
        {
            "m": 2,
            "d": [0.4, 7.0],
            "alpha": [[0.0, 0.0], [0.0, 0.0]],
            "r": [1.0, 1.0],
            "c": [[-1.0, 2.0], [-3.0, 4.0]],
            "domain": {"kind": "rectangle", "lengths": [PI, PI]},
            "bc": "neumann",
        }
    )
    interval_report = constant_state_index(turing_model(), np.ones(2))
    square_report = constant_state_index(cfg_model, np.ones(2))
    # p < 0 on (1/2, 10/7), which holds lambda = 1 alone.  Square spectrum
    # {0, 1: M=2, 2, ...}: the root 10/7 has 3 eigenvalues below it, the
    # interval two modes, and the index flips.
    assert negative_intervals(interval_report) == [(1, 1)]
    assert negative_intervals(square_report) == [(1, 2)]
    assert interval_report.roots["count"].tolist() == [1, 2]
    assert square_report.roots["count"].tolist() == [1, 3]
    assert (interval_report.index, square_report.index) == (-1, 1)


def sweep_point(alpha_01):
    # The verdict sweep's model: the README Turing kinetics with d_1 = 0.3
    # and the one-way cross-diffusion alpha_21 = 0.1.
    return interval_model(
        2,
        (0.3, 7.0),
        (1.0, 1.0),
        ((-1.0, 2.0), (-3.0, 4.0)),
        alpha=[[0.0, alpha_01], [0.1, 0.0]],
    )


def long_interval_model():
    # The README model on (0, 1e5): about 60,000 modes lie below its roots.
    return interval_model(2, (0.4, 7.0), (1.0, 1.0), ((-1.0, 2.0), (-3.0, 4.0)), length=1e5)


def test_long_interval_is_decided_without_a_spectrum(monkeypatch):
    # The roots 1/2 and 10/7 have ceil(1e5 sqrt(mu) / pi) = 22,508 and
    # 38,046 eigenvalues below them; no mode is looked up to count them.
    from crossdiff import spectral

    def no_mode(*args, **kwargs):
        raise AssertionError("a mode was looked up")

    monkeypatch.setattr(spectral, "mode", no_mode)
    verdict = existence_verdict(long_interval_model())
    assert not verdict.inconclusive and verdict.total == 1
    (report,) = verdict.index_reports
    assert report.roots["count"].tolist() == [22508, 38046]
    assert report.sigma == 60554 and report.index == 1
    assert negative_intervals(report) == [(22508, 38046 - 22508)]


def test_one_sided_point_is_conclusive_and_matches_index_oracle():
    # alpha_12 = 0 makes d_A^{-1} A(u*) unit-triangular and defective,
    # which the roots of p do not see: the index agrees with the discrete
    # oracle.
    from crossdiff.verification import index_oracle

    model = sweep_point(0.0)
    verdict = existence_verdict(model)
    assert not verdict.inconclusive
    (report,) = verdict.index_reports
    assert index_oracle(model, report.u_star) == report.index


def counted_eigvals(monkeypatch):
    """The shape of every stack ``np.linalg.eigvals`` gets, in call order."""
    shapes = []
    eigvals = np.linalg.eigvals

    def counted(stack):
        shapes.append(np.shape(stack))
        return eigvals(stack)

    monkeypatch.setattr(np.linalg, "eigvals", counted)
    return shapes


def counted_enumerations(monkeypatch):
    """The models whose constant states the verdicts enumerate, in call order."""
    from crossdiff import index_theory

    models = []
    enumerate_ = index_theory.find_constant_states

    def counted(model):
        models.append(model)
        return enumerate_(model)

    monkeypatch.setattr(index_theory, "find_constant_states", counted)
    return models


def d0_batch(model):
    """``model`` at three values of ``d.0``: its own, half and twice."""
    return replace_entries(model, [("d", 0)], [(s * model.d[0],) for s in (1.0, 0.5, 2.0)])


def test_kernel_calls_one_eigvals_pair_per_species_count(monkeypatch):
    # One model: one eigvals for ellipticity and one for the roots.  Each
    # batch_models() case at three d.0 points, one kinetics: one
    # enumeration, and one eigvals pair per species count among the states
    # that need the kernel, restricted subsystems included, each over the
    # stack of every such state of that count at all three points.
    shapes = counted_eigvals(monkeypatch)
    enumerated = counted_enumerations(monkeypatch)
    verdict = existence_verdict(sweep_point(0.5))
    assert not verdict.inconclusive
    assert shapes == [(1, 2, 2), (1, 2, 2)]
    species = set()
    for name, model in batch_models().items():
        shapes.clear()
        enumerated.clear()
        with np.errstate(over="ignore", invalid="ignore"):
            table = verdict_table(d0_batch(model))
        assert len(enumerated) == 1, name
        assert shapes[::2] == shapes[1::2], name
        rows: dict[int, int] = {}
        for pos in table.members[0][0].positive:
            if pos.error is None:
                rows[len(pos.u)] = rows.get(len(pos.u), 0) + 3
        assert [shape[:2] for shape in shapes[::2]] == [(n, m) for m, n in rows.items()], name
        species |= set(rows)
        if name == "bistable saddle, v-stable boundary":
            # The two v-stable boundary states' restricted rows come first.
            assert shapes == [(6, 1, 1), (6, 1, 1), (3, 2, 2), (3, 2, 2)]
    assert species == {1, 2, 3}


def assert_identical(a, b, where="verdict"):
    """``a`` and ``b`` agree field by field, to the bit and the type."""
    assert type(a) is type(b), where
    if dataclasses.is_dataclass(a):
        for f in dataclasses.fields(a):
            assert_identical(getattr(a, f.name), getattr(b, f.name), f"{where}.{f.name}")
    elif isinstance(a, np.ndarray):
        assert (a.dtype, a.shape) == (b.dtype, b.shape), where
        assert a.tobytes() == b.tobytes(), where
    elif isinstance(a, (float, np.floating)):
        assert np.float64(a).tobytes() == np.float64(b).tobytes(), where
    elif isinstance(a, (tuple, list)):
        assert len(a) == len(b), where
        for k, (x, y) in enumerate(zip(a, b)):
            assert_identical(x, y, f"{where}[{k}]")
    elif isinstance(a, dict):
        assert list(a) == list(b), where
        for k in a:
            assert_identical(a[k], b[k], f"{where}[{k!r}]")
    else:
        assert a == b, where


def batch_models():
    """One model per path through the ledger, named by what it exercises."""
    square = build_model(
        {
            "m": 2,
            "d": [0.4, 7.0],
            "alpha": [[0.0, 0.0], [0.0, 0.0]],
            "r": [1.0, 1.0],
            "c": [[-1.0, 2.0], [-3.0, 4.0]],
            "domain": {"kind": "rectangle", "lengths": [PI, PI]},
            "bc": "neumann",
        }
    )
    skt = build_model(
        {
            "m": 2,
            "d": [0.05, 1.0],
            "alpha": [[0.1, 3.0], [0.5, 0.2]],
            "r": [1.0, 1.0],
            "c": [[1.0, 0.5], [0.3, 1.0]],
            "domain": {"kind": "rectangle", "lengths": [3.0, 3.0]},
            "bc": "neumann",
        }
    )
    return {
        "m = 1": interval_model(1, (1.0,), (1.0,), ((1.0,),)),
        "m = 2": sweep_point(0.5),
        "m = 3": interval_model(
            3, (0.3, 1.0, 2.0), (1.0, 0.8, 0.9),
            ((1.0, 0.3, 0.2), (0.25, 1.0, 0.3), (0.1, 0.2, 1.0)),
            alpha=((0.1, 0.5, 0.0), (0.2, 0.0, 0.6), (0.0, 0.4, 0.1)), length=5.0,
        ),
        "m = 3, cyclic: complex d_A^{-1} A(u*) spectrum": interval_model(
            3, (0.3, 1.0, 2.0), (1.0, 1.0, 1.0),
            ((1.0, 0.3, 0.2), (0.25, 1.0, 0.3), (0.1, 0.2, 1.0)),
            alpha=((0.0, 3.0, 0.0), (0.0, 0.0, 3.0), (3.0, 0.0, 0.0)), length=5.0,
        ),
        "README model": turing_model(),
        "2D SKT, complex spectrum": skt,
        "square, double mode": square,
        "one-sided alpha": sweep_point(0.0),
        "long interval": long_interval_model(),
        "degenerate subset": interval_model(
            2, (1.0, 1.0), (1.0, 1.0), ((1.0, 1.0), (1.0, 1.0))
        ),
        "bistable saddle, v-stable boundary": interval_model(
            2, (100.0, 100.0), (1.0, 1.0), ((1.0, 2.0), (2.0, 1.0))
        ),
        # lambda_hat ~ 1e301 on (0, 1e-150): det(lambda_hat A - J) would
        # overflow there, but both roots lie below it.
        "tiny interval": interval_model(
            2, (0.4, 7.0), (1.0, 1.0), ((-1.0, 2.0), (-3.0, 4.0)),
            alpha=((0.0, 0.0), (0.1, 0.0)), length=1e-150,
        ),
        "resonant: a root at a Neumann eigenvalue": worked_diag_model(length=PI / np.sqrt(2.0)),
        "a root with too many modes below it": interval_model(
            2, (1e-100, 7.0), (1.0, 1.0), ((-1.0, 2.0), (-3.0, 4.0)),
            alpha=((0.0, 0.0), (0.1, 0.0)),
        ),
        "m = 1, A(u*)^{-1} J(u*) overflows": interval_model(
            1, (1e-300,), (1e10,), ((1e10,),)
        ),
        "m = 1, spectrum overflows a float": interval_model(
            1, (1e-300,), (1e8,), ((1e8,),), length=1e-153
        ),
        # About 40,000 lattice points lie below the lower root, 1/2: its
        # interval's first mode is N(1/2), mode 40,022.
        "large square": build_model(
            {**turing_model().to_config(), "domain": {"kind": "rectangle", "lengths": [1e3, 1e3]}}
        ),
    }


def test_batch_verdicts_equal_one_model_verdicts():
    # Each batch_models() case at three d.0 points: every row of the
    # batch's table equals the verdict of the model its point builds,
    # decided alone.
    models = batch_models()
    rows = []
    for name, model in models.items():
        batch = d0_batch(model)
        with np.errstate(over="ignore", invalid="ignore"):
            table = verdict_table(batch)
            for k in range(3):
                verdict = table.verdict(k)
                assert_identical(verdict, existence_verdict(batch.model(k)), f"{name}[{k}]")
                rows.append((batch.model(k), verdict))
            assert_identical(table.verdict(0), existence_verdict(model), name)
    # The cases cover the kernel's outcomes: claimed indices, restricted
    # boundary indices and per-model causes.  The three-species cases
    # have a real and a complex d_A^{-1} A(u*) spectrum, and the square
    # puts a double mode first.
    batch = [verdict for _, verdict in rows[::3]]
    verdicts = dict(zip(models, batch))
    causes = {name: v.cause or "" for name, v in verdicts.items()}
    assert "degenerate-subset" in causes["degenerate subset"]
    assert causes["resonant: a root at a Neumann eigenvalue"] == (
        "state (1.0, 1.0): degenerate mode, no index"
    )
    assert "requires too many modes" in causes["a root with too many modes below it"]
    assert causes["m = 1, A(u*)^{-1} J(u*) overflows"] == (
        "state (1.0,): index undefined: A(u*)^{-1}J(u*) is not finite"
    )
    for name in ("tiny interval", "m = 1, spectrum overflows a float", "long interval"):
        assert not verdicts[name].inconclusive, name
    assert any(b.report is not None for v in batch for b in v.boundary)
    kinds = []
    for model, verdict in zip(models.values(), batch):
        if model.m == 3:
            (rep,) = verdict.index_reports
            u = rep.u_star
            _, V = np.linalg.eig(model.A(u) / model.d_A(u)[:, None])
            kinds.append(V.dtype.kind)
    assert kinds == ["f", "c"]
    assert negative_intervals(verdicts["square, double mode"].index_reports[0]) == [(1, 2)]
    large = verdicts["large square"].index_reports[0]
    assert large.negative["first_mode"].tolist() == [large.roots["count"][0]] == [40022]
    # The stacked roots are those of each state's own matrices, to the bit.
    for model, verdict in rows:
        for rep in verdict.index_reports:
            u = rep.u_star
            mu = np.linalg.eigvals(np.linalg.solve(model.A(u), model.jacobian_f(u)))
            mu = mu.astype(complex)[np.lexsort((mu.imag, mu.real))]
            assert rep.roots["mu"].tobytes() == mu.real.tobytes()
            assert rep.roots["imag"].tobytes() == mu.imag.tobytes()


def test_nonfinite_matrices_fail_only_their_own_model():
    # One non-finite matrix would make a stacked eigvals raise for the
    # whole batch, so its point alone becomes inconclusive and the others
    # keep their verdicts.  alpha_11 = 1e308 overflows A(u*); in the
    # scalar model at d = 1e-300, r = c = 1e10, A(u*) = 1e-300 and
    # J(u*) = -1e10 are finite, but A(u*)^{-1} J(u*) overflows.
    cases = [
        (
            sweep_point(0.5), [("alpha", 0, 0)], [(1e308,), (0.0,), (1e308,), (0.0,)],
            "state (1.0, 1.0): index undefined: d_A^{-1}A(u*) is not finite",
        ),
        (
            interval_model(1, (1.0,), (1.0,), ((1.0,),)), [("d", 0), ("r", 0), ("c", 0, 0)],
            [(1e-300, 1e10, 1e10), (1.0, 1.0, 1.0), (1e-300, 1e10, 1e10), (1.0, 1.0, 1.0)],
            "state (1.0,): index undefined: A(u*)^{-1}J(u*) is not finite",
        ),
    ]
    for model, keys, points, cause in cases:
        batch = replace_entries(model, keys, points)
        with np.errstate(over="ignore", invalid="ignore"):
            table = verdict_table(batch)
        assert table.cause.tolist()[::2] == [cause, cause]
        for k in (1, 3):
            assert_identical(table.verdict(k), existence_verdict(batch.model(k)))
            assert_identical(table.verdict(k), existence_verdict(model))


def test_batch_shares_kinetics_and_stacks_items(monkeypatch):
    # Twelve points with one kinetics: one enumeration, and one stacked
    # pair of eigvals over every point's positive state.
    enumerated = counted_enumerations(monkeypatch)
    shapes = counted_eigvals(monkeypatch)
    points = [(a,) for a in np.linspace(0.25, 2.0, 12)]
    table = verdict_table(replace_entries(sweep_point(0.0), [("alpha", 0, 1)], points))
    assert len(enumerated) == 1
    assert sum(len(table.verdict(k).index_reports) for k in range(12)) == 12
    assert shapes == [(12, 2, 2), (12, 2, 2)]


TABLE_COLUMNS = ("n_states", "case_label", "total", "predicts_nonconstant", "inconclusive", "cause")


def verdict_row(verdict):
    """A verdict's fields in the order of :data:`TABLE_COLUMNS`."""
    return (
        len(verdict.boundary) + len(verdict.nontrivial_constant_indices),
        verdict.case_label, verdict.total, verdict.predicts_nonconstant,
        verdict.inconclusive, verdict.cause,
    )


def assert_rows_equal_the_verdicts(table, models, where):
    """Row ``k`` of ``table`` equals the row of the verdict of
    ``models[k]``, by value and by type."""
    assert len(table.members) == len(models), where
    for k, model in enumerate(models):
        row = tuple(getattr(table, column).tolist()[k] for column in TABLE_COLUMNS)
        with np.errstate(over="ignore", invalid="ignore"):
            expected = verdict_row(existence_verdict(model))
        assert [type(v) for v in row] == [type(v) for v in expected], f"{where}[{k}]"
        assert row == expected, f"{where}[{k}]"


def test_table_columns_equal_the_verdicts():
    # Every model of batch_models() and one with causes at a boundary and
    # at the nontrivial state, each at three d.0 values and, interleaved
    # with them, two r.0 values: each of two kinetics is shared by three
    # rows that are not adjacent.  Every table row equals the row of its
    # model's own verdict, cause byte for byte, and the causes come in
    # order: the kinetics', then the boundary states', then the
    # nontrivial states'.
    named = {
        **batch_models(),
        "boundary and nontrivial causes": interval_model(
            2, (1e-300, 1.0), (1e10, 1.0), ((1e10, 2e10), (2.0, 1.0))
        ),
    }
    causes = {}
    for name, model in named.items():
        d, r = model.d[0], model.r[0]
        points = [(s * d, t * r) for s in (1.0, 0.5, 2.0) for t in (1.0, 0.5)]
        batch = replace_entries(model, [("d", 0), ("r", 0)], points)
        with np.errstate(over="ignore", invalid="ignore"):
            table = verdict_table(batch)
        assert len({id(kinetics) for kinetics, _ in table.members}) == 2, name
        assert_rows_equal_the_verdicts(table, [batch.model(k) for k in range(6)], name)
        causes[name] = table.cause.tolist()[0]
    assert causes["degenerate subset"] == (
        "degenerate-subset: singular interaction matrix on supports [(0, 1)]; "
        "enumeration may be incomplete; state (1.0, 0.0): growth sign vanishes within "
        "tolerance (degenerate boundary state); state (0.0, 1.0): growth sign vanishes "
        "within tolerance (degenerate boundary state)"
    )
    assert causes["boundary and nontrivial causes"] == (
        "state (1.0, 0.0): index undefined: A(u*)^{-1}J(u*) is not finite; "
        "state (0.33333333333333337, 0.3333333333333333): index undefined: "
        "A(u*)^{-1}J(u*) is not finite"
    )


def test_batch_table_equals_the_table_of_its_models():
    # A ModelBatch is decided from its stacks, with no model per point:
    # its rows are its points not in error, and each must equal the row
    # of the verdict of the model that point builds.  The points share two
    # kinetics and two rectangles, one of them the square; d.0 = -0.1 is
    # in error.
    base = batch_models()["square, double mode"]
    keys = [("d", 0), ("r", 0), ("domain", "lengths", 1)]
    points = [(d, r, L) for d in (-0.1, 0.4, 0.2) for r in (1.0, 0.5) for L in (PI, 2.0)]
    batch = replace_entries(base, keys, points)
    valid = [k for k, error in enumerate(batch.errors) if error is None]
    assert len(valid) == 8
    models = [batch.model(k) for k in valid]
    states = [find_constant_states(model) for model in models]
    for table in (verdict_table(batch), verdict_table(batch, states)):
        assert_rows_equal_the_verdicts(table, models, "square batch")
        assert [table.verdict(i).total for i in range(8)] == table.total.tolist()
        assert len(set(table.total.tolist())) > 1
    # A batch with no point, or none that builds, has no rows.
    for points in ([], [(-0.1, 1.0, PI)]):
        assert verdict_table(replace_entries(base, keys, points)).n_states.tolist() == []


def random_model(rng, m, kind):
    """A model whose constant state ``u*`` is drawn first: ``r = c u*``."""
    u = rng.uniform(0.3, 2.0, m)
    c = rng.uniform(-2.0, 2.0, (m, m))
    alpha = rng.uniform(0.0, 1.5, (m, m)) * (rng.random((m, m)) < 0.5)
    if kind == "interval":
        lengths = [rng.uniform(0.5, 8.0)]
    elif kind == "rectangle":
        lengths = rng.uniform(0.5, 5.0, 2).tolist()
    else:
        lengths = [PI if rng.random() < 0.3 else rng.uniform(1.0, 5.0)] * 2
    model = build_model(
        {
            "m": m,
            "d": (10.0 ** rng.uniform(-1.5, 0.5, m)).tolist(),
            "alpha": alpha.tolist(),
            "r": (c @ u).tolist(),
            "c": c.tolist(),
            "domain": {"kind": "interval" if kind == "interval" else "rectangle",
                       "lengths": lengths},
            "bc": "neumann",
        }
    )
    return model, u


def test_index_equals_the_brute_force_sign_product_on_random_models():
    # An independent route to the index: the product of sign p(lambda_k)
    # over the Neumann modes of a brute-force lattice loop, one factor per
    # mode, through past the largest root, with the roots from a QZ solve
    # of the pencil (J, A).  Also brute force: sigma, and the modes where
    # p < 0 against the report's intervals.
    import scipy.linalg

    rng = np.random.default_rng(20240521)
    seen = {"decided": 0, "index -1": 0, "double mode in p < 0": 0, "complex": 0,
            "odd positive roots": 0, "rectangle": 0}
    for trial in range(480):
        kind = ("interval", "rectangle", "square")[trial % 3]
        model, u = random_model(rng, 2 + (trial // 3) % 2, kind)
        report = constant_state_index(model, u)
        A, J = model.A(u), model.jacobian_f(u)
        mu = scipy.linalg.eig(J, A, right=False)
        real = mu.real[np.abs(mu.imag) <= 1e-9 * np.abs(mu).max()]
        bound = max(real.max(initial=0.0), 0.0) * 1.1 + 1.0
        values = np.array([v for v, _ in brute_force_spectrum(model.domain.lengths, bound)])
        p = np.linalg.det(values[:, None, None] * A - J)
        where = (model.m, model.domain.lengths, model.d.tolist())
        # Every count with multiplicity, the constant mode included.
        sigma = sum(int((values < v).sum()) for v in real)
        assert report.sigma == sigma, where
        if not report.nondegenerate:
            continue
        assert report.index == int(np.prod(np.sign(p))), where
        inside = np.zeros(len(values), dtype=bool)
        for r in report.negative:
            held = (values > r["lo"]) & (values < r["hi"])
            if r["lo"] == 0.0 and r["first_mode"] == 0:
                held[0] = True
            assert np.flatnonzero(held).tolist() == list(
                range(r["first_mode"], r["first_mode"] + r["modes"])
            ), where
            inside |= held
        assert ((p < 0) == inside).all(), where
        seen["decided"] += 1
        seen["index -1"] += report.index == -1
        seen["double mode in p < 0"] += bool((np.diff(values[inside]) == 0).any())
        seen["complex"] += bool((~report.roots["real"]).any())
        seen["odd positive roots"] += int((real > 0).sum()) % 2
        seen["rectangle"] += kind != "interval"
    # Not vacuous: most states are decided, with both indices, complex
    # roots, saddles, and squares whose double modes are factors -1.
    assert seen["decided"] >= 450, seen
    assert min(seen.values()) >= 40, seen


def test_negative_records_number_the_modes_inside_their_intervals():
    # On rectangles and squares, the modes first_mode to first_mode +
    # modes - 1 of each interval where p < 0, numbered as --seed-mode K
    # numbers them, are the modes strictly inside it; every mode before
    # them and the one after lie outside.  A reported lo of 0 stands for a
    # lower end below 0: the interval holds the constant mode.
    rng = np.random.default_rng(20261019)
    seen = {"records": 0, "square": 0, "after a double mode": 0}
    for trial in range(240):
        kind = ("rectangle", "square")[trial % 2]
        model, u = random_model(rng, 2 + (trial // 2) % 2, kind)
        report = constant_state_index(model, u)
        if not report.nondegenerate:
            continue
        for r in report.negative:
            first, modes = int(r["first_mode"]), int(r["modes"])
            values = np.array([mode(model.domain, K)[0] for K in range(first + modes + 1)])
            lo = -np.inf if r["lo"] == 0.0 else r["lo"]
            where = (model.domain.lengths, r)
            assert ((lo < values) & (values < r["hi"])).tolist() == (
                [False] * first + [True] * modes + [False]
            ), where
            seen["records"] += 1
            seen["after a double mode"] += bool((np.diff(values[:first]) == 0).any())
            seen["square"] += kind == "square"
    # Not vacuous: most records are checked, many on squares, and some
    # start past a double mode, which counts twice below them.
    assert seen["records"] >= 150 and seen["square"] >= 40, seen
    assert seen["after a double mode"] >= 1, seen
