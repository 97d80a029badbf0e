"""Discrete solution-map and pencil oracles used to verify the index formula."""

from __future__ import annotations

import numpy as np
import pytest

from crossdiff import build_model, constant_state_index, discrete_laplacian_spectrum
from crossdiff.verification import (
    count_mu_above_one,
    dense_pencil_mu,
    discrete_mode_mu,
    ev1_mu_for_mode,
    fd_neumann_matrix,
    oracle_grid,
    parity_oracle,
    reaction_unstable_count,
    solution_map_matrix,
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


def assert_multiset_close(a, b, tol):
    # Conjugate pairs sort unstably when real parts agree only to
    # rounding, so compare as multisets via nearest-neighbour matching.
    a = np.asarray(a)
    remaining = list(np.asarray(b))
    assert a.shape[0] == len(remaining)
    for z in a:
        dist = [abs(z - w) for w in remaining]
        j = int(np.argmin(dist))
        assert dist[j] < tol, f"no partner for {z} within {tol}"
        remaining.pop(j)


def test_fd_neumann_matrix_structure():
    K = fd_neumann_matrix(16, PI)
    np.testing.assert_allclose(K, K.T, atol=0.0)
    np.testing.assert_allclose(K @ np.ones(16), np.zeros(16), atol=1e-12)
    h = PI / 16
    assert K[0, 0] == pytest.approx(1.0 / h**2)
    assert K[1, 1] == pytest.approx(2.0 / h**2)


def test_fd_matrix_spectrum_matches_spectral_module():
    n = 64
    domain = {"kind": "interval", "lengths": [PI]}
    model = interval_model(1, (1.0,), (0.0,), ((0.0,),))
    vals = np.sort(np.linalg.eigvalsh(fd_neumann_matrix(n, PI)))
    spec = discrete_laplacian_spectrum(model.domain, n, bc="neumann")
    np.testing.assert_allclose(vals[:8], spec[:8], rtol=1e-10, atol=1e-10)


def test_count_mu_above_one():
    count, mu = count_mu_above_one(np.diag([0.5, 2.0, 3.0]))
    assert count == 2
    # Complex pair with modulus > 1 but off the real axis: not counted.
    rot = 1.8 * np.array([[np.cos(1.0), -np.sin(1.0)], [np.sin(1.0), np.cos(1.0)]])
    count, mu = count_mu_above_one(rot)
    assert count == 0


def test_solution_map_pure_diffusion_has_no_crossing():
    # A = I, J = 0: mu = k/(lambda_h + k) <= 1 for every mode.
    M = solution_map_matrix(np.eye(2), np.zeros((2, 2)), 48, PI, k=3.0)
    count, mu = count_mu_above_one(M)
    assert count == 0
    assert mu.real.max() <= 1.0 + 1e-10


def test_solution_map_constant_mode_eigenvalues():
    # The constant mode passes through untouched by diffusion, so it
    # contributes mu = 1 + eig(J)/k exactly.
    J = np.diag([2.0, -1.0])
    k = 4.0
    M = solution_map_matrix(np.eye(2), J, 48, PI, k=k)
    mu = np.linalg.eigvals(M)
    for target in (1.0 + 2.0 / k, 1.0 - 1.0 / k):
        assert np.min(np.abs(mu - target)) < 1e-10


def test_parity_counts_constant_mode_separately():
    # Worked diagonal case: p < 0 at the first nonconstant mode and at the
    # constant mode, whose unstable direction (J has eigenvalue +2) the
    # discrete count includes: the raw count is 2, the report's modes
    # where p < 0.
    model = interval_model(2, (1.0, 1.0), (-2.0, 1.0), ((-2.0, 0.0), (0.0, 1.0)))
    u_star = np.ones(2)
    count, parity = parity_oracle(model, u_star, n=192)
    n_plus = reaction_unstable_count(model, u_star)
    report = constant_state_index(model, u_star)
    assert n_plus == 1
    assert report.negative["first_mode"].tolist() == [0]
    assert count == report.negative["modes"].sum() == 2
    assert parity == (-1) ** report.sigma == report.index


def test_parity_matches_index_for_stable_kinetics():
    # Hurwitz J: no constant-mode crossings, so the oracle parity IS the
    # index, and it is insensitive to the shift k.
    model = interval_model(2, (0.4, 7.0), (1.0, 1.0), ((-1.0, 2.0), (-3.0, 4.0)))
    u_star = np.ones(2)
    assert reaction_unstable_count(model, u_star) == 0
    report = constant_state_index(model, u_star)
    for k in (None, 11.3):
        count, parity = parity_oracle(model, u_star, n=192, k=k)
        assert count == report.negative["modes"].sum() == 1
        assert parity == report.index == -1


def test_ev1_mu_diagonal_closed_form():
    # Diagonal data decouples: mu_i = j_i / (lambda_hat a_i).
    mu = ev1_mu_for_mode(np.eye(2), np.ones(2), np.diag([2.0, -1.0]), 1.0)
    np.testing.assert_allclose(mu, [-1.0, 2.0], atol=1e-12)
    mu = ev1_mu_for_mode(np.eye(2), np.ones(2), np.diag([2.0, -1.0]), 4.0)
    np.testing.assert_allclose(mu, [-0.25, 0.5], atol=1e-12)


def test_ev1_mu_rejects_constant_mode():
    with pytest.raises(ValueError):
        ev1_mu_for_mode(np.eye(2), np.ones(2), np.zeros((2, 2)), 0.0)


def test_discrete_mode_mu_approaches_analytic():
    model = interval_model(2, (0.4, 7.0), (1.0, 1.0), ((-1.0, 2.0), (-3.0, 4.0)))
    u_star = np.ones(2)
    A = model.A(u_star)
    J = model.jacobian_f(u_star)
    modes = discrete_mode_mu(model, u_star, n=512, n_modes=4)
    for j, (lam_h, mu_h) in enumerate(modes, start=1):
        assert lam_h == pytest.approx(j**2, rel=1e-3)
        mu_exact = ev1_mu_for_mode(A, np.diag(A), J, float(j**2))
        np.testing.assert_allclose(mu_h, mu_exact, rtol=2e-3, atol=2e-3)


def test_dense_pencil_agrees_with_blockwise_modes():
    # The full QZ pencil (no Kronecker shortcut) must reproduce the
    # per-mode eigenvalues: same multiset of finite mu.
    n = 48
    model = interval_model(2, (0.4, 7.0), (1.0, 1.0), ((-1.0, 2.0), (-3.0, 4.0)))
    u_star = np.ones(2)
    dense = dense_pencil_mu(model, u_star, n)
    blocks = discrete_mode_mu(model, u_star, n, n_modes=n - 1)
    assert len(blocks) == n - 1
    stacked = np.sort_complex(np.concatenate([mu for _, mu in blocks]))
    assert dense.shape == stacked.shape
    assert_multiset_close(dense, stacked, tol=1e-7)


def test_dense_pencil_with_cross_diffusion():
    # Same agreement when A(u*) has genuine off-diagonal flux coupling.
    n = 32
    model = interval_model(
        2,
        (0.5, 1.0),
        (1.0, 1.0),
        ((-1.0, 2.0), (-3.0, 4.0)),
        alpha=[[0.1, 1.5], [0.7, 0.0]],
    )
    u_star = np.ones(2)
    dense = dense_pencil_mu(model, u_star, n)
    blocks = discrete_mode_mu(model, u_star, n, n_modes=n - 1)
    stacked = np.sort_complex(np.concatenate([mu for _, mu in blocks]))
    assert_multiset_close(dense, stacked, tol=1e-6)


def test_reaction_unstable_count_examples():
    model = interval_model(2, (1.0, 1.0), (-2.0, 1.0), ((-2.0, 0.0), (0.0, 1.0)))
    assert reaction_unstable_count(model, np.ones(2)) == 1
    turing = interval_model(2, (0.4, 7.0), (1.0, 1.0), ((-1.0, 2.0), (-3.0, 4.0)))
    assert reaction_unstable_count(turing, np.ones(2)) == 0


def test_oracles_reject_rectangles():
    model = build_model(
        {
            "m": 1,
            "d": [1.0],
            "alpha": [[0.0]],
            "r": [1.0],
            "c": [[1.0]],
            "domain": {"kind": "rectangle", "lengths": [PI, PI]},
            "bc": "neumann",
        }
    )
    with pytest.raises(ValueError, match="interval"):
        parity_oracle(model, np.ones(1))
    with pytest.raises(ValueError, match="interval"):
        discrete_mode_mu(model, np.ones(1), 32, 3)
    with pytest.raises(ValueError, match="interval"):
        dense_pencil_mu(model, np.ones(1), 32)


def readme_on(length, d1, alpha_21):
    """The README model on ``(0, length)`` with ``d_1`` and ``alpha_21`` set."""
    return interval_model(
        2, (d1, 7.0), (1.0, 1.0), ((-1.0, 2.0), (-3.0, 4.0)),
        alpha=((0.0, 0.0), (alpha_21, 0.0)), length=length,
    )


@pytest.mark.parametrize(
    "length, d1, alpha_21",
    [
        (19.743589743589745, 0.05, 0.1),
        (20.756410256410255, 0.05, 0.0),
        (26.833333333333332, 0.23333333333333334, 0.1),
        (28.858974358974358, 0.41666666666666663, 0.1),
    ],
)
def test_parity_oracle_picks_a_grid_that_resolves_the_roots(length, d1, alpha_21):
    # Rows of the sweep-lengths golden sweep where a fixed n = 256 gives
    # the wrong parity: an FD eigenvalue (2n/L)^2 sin^2(k pi / 2n) falls
    # below a root that the exact one lies above.  The oracle's own grid
    # resolves them at n = 512, and its parity is the index.
    model = readme_on(length, d1, alpha_21)
    u_star = np.ones(2)
    report = constant_state_index(model, u_star)
    assert parity_oracle(model, u_star, n=256)[1] != report.index
    assert oracle_grid(model, u_star) == 512
    assert parity_oracle(model, u_star)[1] == report.index


def test_parity_oracle_names_the_grid_a_long_interval_needs():
    # The README model on (0, 1e5) has ~60,000 eigenvalues below its roots.
    model = readme_on(1e5, 0.4, 0.0)
    with pytest.raises(ValueError, match=r"needs n = 8388608 .* largest grid, n = 1024"):
        parity_oracle(model, np.ones(2))
