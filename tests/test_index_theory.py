"""Mode-wise index formula, boundary-state stability, existence verdicts."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crossdiff import (
    ModelError,
    build_model,
    constant_state_index,
    existence_verdict,
    existence_verdicts,
    find_constant_states,
    negative_counts,
    semitrivial_stability,
)

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
    decisions = constant_state_index(model, np.ones(2)).mode_decisions
    return decisions.modes.values[0], decisions.A_i[0]


def negative_count(d_A, Ai):
    """``(N, degenerate)`` of ``diag(d_A)^{-1} Ai``, from a stack of one."""
    counts = negative_counts((np.asarray(Ai, dtype=float) / d_A[:, None])[None])
    return int(counts.N[0]), bool(counts.degenerate[0])


def test_mode_matrix_worked_case():
    lambda_hat, A_i = first_mode_matrix(worked_diag_model())
    assert lambda_hat == 1.0
    np.testing.assert_allclose(A_i, np.diag([-1.0, 2.0]), atol=1e-14)


def test_mode_matrix_vanishing_perturbation():
    # On (0, pi / sqrt(1e9)) the first mode sits at lambda_hat = 1e9.
    model = worked_diag_model(length=PI / np.sqrt(1e9))
    lambda_hat, A_i = first_mode_matrix(model)
    assert lambda_hat == pytest.approx(1e9)
    np.testing.assert_allclose(A_i, model.A(np.ones(2)), atol=1e-8)


def test_negative_count_examples():
    assert negative_count(np.ones(2), np.diag([-1.0, 2.0])) == (1, False)
    assert negative_count(np.ones(2), np.diag([0.5, 2.0])) == (0, False)
    spd = np.array([[2.0, 0.3], [0.3, 1.0]])
    assert negative_count(np.array([0.5, 2.0]), spd) == (0, False)


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
    N, degenerate = negative_count(d_A, Ai)
    if degenerate:
        return
    det = np.linalg.det(Ai / d_A[:, None])
    if det < -1e-8:
        assert N == 1
    elif det > 1e-8:
        assert N in (0, 2)


def cutoff(model):
    """The certified cutoff ``L0`` and certificate at ``u* = (1, 1)``."""
    report = constant_state_index(model, np.ones(2))
    return report.L0, report.certificate


def test_mode_cutoff_worked_case():
    model = worked_diag_model()
    L0, cert = cutoff(model)
    assert L0 == 1
    assert cert["rho"] == pytest.approx(1.0)
    assert cert["kappa_V"] == pytest.approx(1.0)
    assert cert["bound"] == pytest.approx(2.0)


def test_mode_cutoff_no_reaction_means_no_modes():
    model = interval_model(2, (1.0, 2.0), (0.0, 0.0), ((0.0, 0.0), (0.0, 0.0)))
    L0, _ = cutoff(model)
    assert L0 == 0


def test_mode_cutoff_nonnormal_inflates_condition_number():
    # Lopsided two-way coupling makes the flux eigenbasis oblique; the
    # certificate widens (kappa_V > 1) but still terminates.
    model = interval_model(
        2,
        (1.0, 1.0),
        (-2.0, 1.0),
        ((-2.0, 0.0), (0.0, 1.0)),
        alpha=[[0.0, 3.0], [0.1, 0.0]],
    )
    L0, cert = cutoff(model)
    assert cert["kappa_V"] > 2.0
    assert L0 >= 1
    assert cert["bound"] > 2.0


def test_mode_cutoff_scans_past_the_bound():
    # The certificate records a few modes past the cutoff, each verified
    # stable, and they all sit strictly above the certified bound.
    model = worked_diag_model()
    L0, cert = cutoff(model)
    assert len(cert["scanned_modes"]) == 3
    assert all(lam > cert["bound"] for lam in cert["scanned_modes"])


def nondegeneracy(model):
    """The determinant test's verdict and details at ``u* = (1, 1)``."""
    details = constant_state_index(model, np.ones(2)).certificate["nondegeneracy"]
    return all(d["ok"] for d in details), details


def test_nondegeneracy_worked_case_true_on_pi_interval():
    ok, details = nondegeneracy(worked_diag_model())
    assert ok
    assert [d["lambda_hat"] for d in details] == [0.0, 1.0, 4.0, 9.0, 16.0]


def test_nondegeneracy_fails_on_resonant_interval():
    # L = pi/sqrt(2) scales the spectrum to 2k^2, so lambda_hat = 2
    # collides with the positive reaction eigenvalue: det = 0.
    ok, details = nondegeneracy(worked_diag_model(length=PI / np.sqrt(2.0)))
    assert not ok
    bad = [d for d in details if not d["ok"]]
    assert any(abs(d["lambda_hat"] - 2.0) < 1e-9 for d in bad)


def test_nondegeneracy_fails_on_singular_reaction_jacobian():
    # u* = (1,1) with J singular: c = [[1,1],[1,1]] has det J = 0.
    model = interval_model(2, (1.0, 1.0), (2.0, 2.0), ((1.0, 1.0), (1.0, 1.0)))
    ok, details = nondegeneracy(model)
    assert not ok
    assert any(d["lambda_hat"] == 0.0 and not d["ok"] for d in details)


def test_scalar_logistic_index():
    model = interval_model(1, (1.0,), (1.0,), ((1.0,),))
    report = constant_state_index(model, np.ones(1))
    assert report.gamma == 0
    assert report.index == 1
    assert report.nondegenerate


def test_worked_diagonal_index():
    report = constant_state_index(worked_diag_model(), np.ones(2))
    assert report.gamma == 1
    assert report.index == -1
    decisions = report.mode_decisions
    decisions = dict(zip(decisions.modes.values.tolist(), decisions.N.tolist()))
    assert decisions[1.0] == 1
    assert all(n == 0 for lam, n in decisions.items() if lam != 1.0)


def test_turing_index_against_eigendecomposition_oracle():
    # Oracle: per mode, count negative eigenvalues of I - (1/lambda) D^{-1} J
    # directly, over the analytic spectrum with multiplicities.
    d = (0.05, 1.0)
    model = turing_model(d=d)
    u_star = np.ones(2)
    J = model.jacobian_f(u_star)
    D_inv = np.diag(1.0 / np.array(d))
    gamma_oracle = 0
    for k in range(1, 200):
        lam = float(k * k)
        eigs = np.linalg.eigvals(np.eye(2) - D_inv @ J / lam)
        real = eigs[np.abs(eigs.imag) < 1e-12].real
        gamma_oracle += int(np.sum(real < -1e-12))
    report = constant_state_index(model, u_star)
    assert report.gamma == gamma_oracle
    assert report.gamma == 4
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
    sv = semitrivial_stability(model, states.trivial)
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


def test_degenerate_subset_verdict_inconclusive():
    model = interval_model(2, (1.0, 1.0), (1.0, 1.0), ((1.0, 1.0), (1.0, 1.0)))
    verdict = existence_verdict(model)
    assert verdict.inconclusive
    assert verdict.total is None
    assert verdict.predicts_nonconstant is None
    assert "degenerate-subset" in (verdict.cause or "")


def test_overflowing_nondegeneracy_test_is_inconclusive_not_degenerate():
    # On an interval of length 1e-150 the first mode has lambda_hat ~ 1e301:
    # det(lambda_hat A - J) and its row-norm scale overflow to inf, and a
    # comparison of infinities must not pass for a degenerate mode.
    model = interval_model(
        2, (0.4, 7.0), (1.0, 1.0), ((-1.0, 2.0), (-3.0, 4.0)),
        alpha=((0.0, 0.0), (0.1, 0.0)), length=1e-150,
    )
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ModelError, match="overflows"):
            constant_state_index(model, np.ones(2))
        verdict = existence_verdict(model)
    assert verdict.inconclusive
    assert verdict.total is None
    assert verdict.cause.startswith("state (1.0, 1.0): nondegeneracy determinant")
    assert "overflows" in verdict.cause
    assert "degenerate mode" not in verdict.cause


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
    assert scaled.gamma == base.gamma
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
        N, _ = negative_count(d_A, Ai)
        assert N == int(np.sum(diag_vals < 0))


def test_rectangle_multiplicities_enter_parity():
    # On the pi x pi square the lambda = 1 mode has multiplicity 2, so a
    # single unstable direction there contributes 2 to gamma.
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
    assert interval_report.gamma == 1
    # Square spectrum {1: M=2, 2: M=1, ...}: the lambda=1 instability
    # doubles and lambda=2 contributes whatever its own count is.
    modes = square_report.mode_decisions.modes
    assert modes.M[modes.values == 1.0].tolist() == [2]
    assert square_report.gamma >= 2


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


def test_one_sided_point_is_inconclusive_before_any_spectrum(monkeypatch):
    # alpha_12 = 0 makes d_A^{-1} A(u*) unit-triangular and defective, so
    # the certified bound (~1e15) needs more modes than the enumeration
    # allows; the limit is checked before any lattice array is built.
    from crossdiff import index_theory, spectral

    def no_spectrum(*args, **kwargs):
        raise AssertionError("a spectrum was built")

    monkeypatch.setattr(index_theory, "spectrum_through", no_spectrum)
    monkeypatch.setattr(spectral, "ModeSpectrum", no_spectrum)
    verdict = existence_verdict(sweep_point(0.0))
    assert verdict.inconclusive
    assert "requires too many modes" in verdict.cause


def test_ledger_enumerates_once_and_decides_each_mode_once(monkeypatch):
    # One spectrum and one stacked count per state: the seven modes
    # (L0 = 4 plus the three scanned past the cutoff) are decided together.
    from crossdiff import index_theory

    calls = {"negative_counts": [], "spectrum_through": []}

    def counted(name):
        original = getattr(index_theory, name)

        def wrapper(*args, **kwargs):
            calls[name].append(args)
            return original(*args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(index_theory, name, counted(name))
    verdict = existence_verdict(sweep_point(0.5))
    assert not verdict.inconclusive
    (report,) = verdict.index_reports
    assert len(report.mode_decisions.N) == report.L0 + 3 == 7
    assert len(calls["spectrum_through"]) == 1
    ((stack,),) = calls["negative_counts"]
    assert stack.shape == (7, 2, 2)


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
        "degenerate subset": interval_model(
            2, (1.0, 1.0), (1.0, 1.0), ((1.0, 1.0), (1.0, 1.0))
        ),
        "bistable saddle, v-stable boundary": interval_model(
            2, (100.0, 100.0), (1.0, 1.0), ((1.0, 2.0), (2.0, 1.0))
        ),
        "overflowing determinant": interval_model(
            2, (0.4, 7.0), (1.0, 1.0), ((-1.0, 2.0), (-3.0, 4.0)),
            alpha=((0.0, 0.0), (0.1, 0.0)), length=1e-150,
        ),
        # On (0, 1e-153) the fifth axis value is past the float limit: a
        # bound of 1 needs the first four, and a bound of 1e308 the first
        # seven.  The first item gets its spectrum and then fails on its
        # determinant, which overflows there for any model.
        "m = 1, near the float limit": interval_model(
            1, (1.0,), (1.0,), ((1.0,),), length=1e-153
        ),
        "m = 1, spectrum overflows a float": interval_model(
            1, (1e-300,), (1e8,), ((1e8,),), length=1e-153
        ),
    }


def test_batch_verdicts_equal_one_model_verdicts(monkeypatch):
    from crossdiff import index_theory

    models = batch_models()
    enumerated = []
    spectrum_through = index_theory.spectrum_through

    def counted(domain, *args, **kwargs):
        enumerated.append(domain)
        return spectrum_through(domain, *args, **kwargs)

    monkeypatch.setattr(index_theory, "spectrum_through", counted)
    batch = existence_verdicts(list(models.values()))
    # Four interval lengths and two rectangles, each enumerated once; the
    # items past the size limit do not keep their domain from the others.
    assert len(enumerated) == len(set(enumerated)) == 6
    assert set(enumerated) == {model.domain for model in models.values()}
    assert len(batch) == len(models)
    for (name, model), verdict in zip(models.items(), batch):
        assert_identical(verdict, existence_verdict(model), name)
    # The batch covers the ledger's outcomes: claimed indices, restricted
    # boundary indices and per-model causes.  Its three-species stack
    # mixes a real and a complex d_A^{-1} A(u*) spectrum, and the square
    # puts a double mode first.
    causes = " ".join(v.cause or "" for v in batch)
    for part in ("too many modes", "degenerate-subset", "overflows", "overflow a float"):
        assert part in causes
    assert any(b.report is not None for v in batch for b in v.boundary)
    # Every report holds its own prefix: the modes through its bound and
    # three more, on top of the constant mode.
    reports = [r for v in batch for r in v.index_reports]
    reports += [b.report for v in batch for b in v.boundary if b.report is not None]
    for rep in reports:
        assert len(rep.mode_decisions.N) == rep.L0 + 3
        assert len(rep.certificate["nondegeneracy"]) == rep.L0 + 4
    assert "nondegeneracy determinant" in batch[-2].cause
    assert "overflow a float" in batch[-1].cause
    kinds = []
    for model, verdict in zip(models.values(), batch):
        if model.m == 3:
            (rep,) = verdict.index_reports
            u = rep.u_star
            _, V = np.linalg.eig(model.A(u) / model.d_A(u)[:, None])
            kinds.append(V.dtype.kind)
    assert kinds == ["f", "c"]
    # The real item's kappa_V changes if its V is taken complex, as the
    # stacked eig returns it, so the comparison above sees the dtype rule.
    u = batch[2].index_reports[0].u_star
    _, V = np.linalg.eig(models["m = 3"].A(u) / models["m = 3"].d_A(u)[:, None])
    assert np.linalg.cond(V, 2) != np.linalg.cond(V.astype(complex), 2)
    assert batch[6].index_reports[0].mode_decisions.modes.M[0] == 2
    # The stacked flux matrices are Model.A to the bit.
    for model, verdict in zip(models.values(), batch):
        for rep in verdict.index_reports:
            lam = rep.mode_decisions.modes.values
            stacked = rep.mode_decisions.A_i
            u = rep.u_star
            reference = model.A(u) - model.jacobian_f(u) / lam[:, None, None]
            assert stacked.tobytes() == reference.tobytes()


def test_nonfinite_matrices_fail_only_their_own_model():
    # One non-finite matrix would make a stacked eig raise for the whole
    # batch, so its model alone becomes inconclusive and the others keep
    # their verdicts.  alpha_11 = 1e308 overflows A(u*); in the scalar
    # model A(u*) = 1.4e308 and J(u*) = -1e308 are finite, but the mode
    # matrix A - J / 1 overflows.
    bad_flux = interval_model(
        2, (0.3, 7.0), (1.0, 1.0), ((-1.0, 2.0), (-3.0, 4.0)),
        alpha=((1e308, 0.5), (0.1, 0.0)),
    )
    bad_modes = interval_model(1, (1.0,), (1e308,), ((1e308,),), alpha=((0.7e308,),))
    good = [sweep_point(0.5), interval_model(1, (1.0,), (1.0,), ((1.0,),))]
    with np.errstate(over="ignore", invalid="ignore"):
        verdicts = existence_verdicts([bad_flux, good[0], bad_modes, good[1]])
    assert [v.cause for v in verdicts[::2]] == [
        "state (1.0, 1.0): cutoff uncertifiable: d_A^{-1}A(u*) is not finite",
        "state (1.0,): mode matrix d_A^{-1}(A(u*) - J(u*)/lambda_hat) is not finite",
    ]
    for verdict, model in zip(verdicts[1::2], good):
        assert_identical(verdict, existence_verdict(model))


def test_batch_shares_kinetics_and_stacks_items(monkeypatch):
    # Twelve models with one kinetics: one enumeration, and one stacked
    # count over every model's modes.
    from crossdiff import index_theory

    calls = {"find_constant_states": 0, "negative_counts": []}
    enumerate_ = index_theory.find_constant_states
    count = index_theory.negative_counts

    def counted_enumeration(model):
        calls["find_constant_states"] += 1
        return enumerate_(model)

    def counted_count(stack, *args):
        calls["negative_counts"].append(stack.shape)
        return count(stack, *args)

    monkeypatch.setattr(index_theory, "find_constant_states", counted_enumeration)
    monkeypatch.setattr(index_theory, "negative_counts", counted_count)
    models = [sweep_point(a) for a in np.linspace(0.25, 2.0, 12)]
    verdicts = existence_verdicts(models)
    assert calls["find_constant_states"] == 1
    modes = sum(len(r.mode_decisions.N) for v in verdicts for r in v.index_reports)
    assert calls["negative_counts"] == [(modes, 2, 2)]


def reference_count(d_A, Ai, tol=1e-8):
    """The count of one matrix with numpy's one-matrix ``eig``."""
    M = Ai / d_A[:, None]
    m = M.shape[0]
    scale = max(float(np.linalg.norm(M, 2)), 1e-300)
    eigs = np.linalg.eig(M)[0]
    eigs = eigs[np.lexsort((eigs.imag, eigs.real))]
    neg = (np.abs(eigs.imag) <= 1e-10 * scale) & (eigs.real < -tol * scale)
    margin = float(np.abs(eigs.real).min())
    warnings = []
    clusters = []
    for v in np.sort(eigs.real[neg]):
        if clusters and v - clusters[-1][-1] <= 1e-6 * scale:
            clusters[-1].append(v)
        else:
            clusters.append([v])
    for cluster in clusters:
        lam = float(np.mean(cluster))
        geo = m - np.linalg.matrix_rank(M - lam * np.eye(m), tol=1e-8 * scale)
        if len(cluster) > 1 and geo < len(cluster):
            warnings.append(
                f"defective eigenvalue {lam:.6g}: algebraic multiplicity "
                f"{len(cluster)}, geometric {geo}; algebraic multiplicity counted"
            )
    return int(neg.sum()), eigs, margin, margin <= tol * scale, tuple(warnings)


def mixed_stack(rng, d_A, k):
    """``k`` mode matrices whose ``diag(d_A)^{-1} Ai`` cycle through a real
    spectrum, a complex pair and a defective negative cluster (a Jordan
    block at -1)."""
    m = len(d_A)
    stack = []
    for i in range(k):
        V = rng.uniform(-1.0, 1.0, (m, m)) + 2.0 * np.eye(m)
        T = np.diag(rng.uniform(-2.0, 2.0, m))
        kind = i % 3
        if kind == 1:
            a, b = rng.uniform(-1.0, 1.0), rng.uniform(0.5, 1.5)
            T[:2, :2] = [[a, -b], [b, a]]
        if kind == 2:
            T = np.triu(T)
            T[:2, :2] = [[-1.0, 1.0], [0.0, -1.0]]
            V = np.eye(m)
        stack.append(d_A[:, None] * (V @ T @ np.linalg.inv(V)))
    return np.array(stack)


@pytest.mark.parametrize("m", [2, 3, 4])
@pytest.mark.parametrize("seed", range(4))
def test_stacked_count_matches_one_matrix_reference(m, seed):
    rng = np.random.default_rng(seed)
    d_A = rng.uniform(0.2, 3.0, m)
    stack = mixed_stack(rng, d_A, 9)
    counts = negative_counts(stack / d_A[:, None])
    assert len(counts.N) == len(counts.warnings) == len(stack)
    kinds = set()
    for k, Ai in enumerate(stack):
        N, eigs, margin, degenerate, warnings = reference_count(d_A, Ai)
        kinds.add((eigs.dtype.kind, bool(warnings)))
        # A row with no imaginary part is the real array a one-matrix eig gives.
        row = counts.eigs[k] if counts.eigs[k].imag.any() else counts.eigs[k].real
        assert row.dtype == eigs.dtype
        assert row.tobytes() == eigs.tobytes()
        got = (counts.N[k], counts.margin[k], counts.degenerate[k], counts.warnings[k])
        assert got == (N, margin, degenerate, warnings)
    # Each stack mixes real and complex spectra and holds a defective cluster.
    assert {"f", "c"} <= {kind for kind, _ in kinds}
    assert any(defective for _, defective in kinds)
