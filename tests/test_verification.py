"""Discrete determinant oracle used to verify the index formula."""

from __future__ import annotations

import ast
import csv
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg

from crossdiff import Domain, build_model, constant_state_index
from crossdiff import verification
from crossdiff.verification import (
    fd_neumann_matrix,
    index_oracle,
    linearization,
    lu_det_sign,
    oracle_grid,
    reaction_unstable_count,
)
from crossdiff.spectral import mode

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


def test_fd_neumann_matrix_structure():
    K = fd_neumann_matrix(16, PI).toarray()
    np.testing.assert_allclose(K, K.T, atol=0.0)
    np.testing.assert_allclose(K @ np.ones(16), np.zeros(16), atol=1e-12)
    h = PI / 16
    assert K[0, 0] == pytest.approx(1.0 / h**2)
    assert K[1, 1] == pytest.approx(2.0 / h**2)


def fd_eigenvalues(n, L):
    """Closed form of the FD Neumann spectrum on ``(0, L)``, ascending:
    ``(2n / L)^2 sin^2(k pi / 2n)`` for ``k = 0..n-1``."""
    return (2 * n / L) ** 2 * np.sin(np.arange(n) * PI / (2 * n)) ** 2


def test_fd_matrix_spectrum_matches_the_closed_form():
    n = 64
    vals = np.linalg.eigvalsh(fd_neumann_matrix(n, PI).toarray())
    np.testing.assert_allclose(vals, fd_eigenvalues(n, PI), rtol=1e-10, atol=1e-10)


def test_fd_matrix_spectrum_matches_spectral_module():
    # The first eight FD eigenvalues are mode()'s, with multiplicity, to
    # the O(h^2) of the stencil: the square's double 1, and 4 twice on
    # pi x pi/2.
    n = 24
    for lengths in [(PI, PI), (PI, PI / 2)]:
        vals = np.linalg.eigvalsh(fd_neumann_matrix(n, *lengths).toarray())[:8]
        exact = [mode(Domain(kind="rectangle", lengths=lengths), K)[0] for K in range(8)]
        np.testing.assert_allclose(vals, exact, rtol=2e-2, atol=1e-9)


def test_fd_matrix_on_a_rectangle_is_the_kronecker_sum():
    # Its spectrum is every pairwise sum of the two axis spectra.
    vals = np.linalg.eigvalsh(fd_neumann_matrix(12, 3.0, 2.0).toarray())
    sums = fd_eigenvalues(12, 3.0)[:, None] + fd_eigenvalues(12, 2.0)[None, :]
    np.testing.assert_allclose(vals, np.sort(sums.ravel()), rtol=1e-10, atol=1e-10)


def random_sparse(rng):
    """A random nonsingular sparse matrix, 2 to 40 rows, and its dense
    determinant."""
    size = int(rng.integers(2, 41))
    while True:
        M = sp.random(size, size, density=rng.uniform(0.1, 0.5), random_state=rng)
        M = (M + sp.diags(rng.normal(size=size) * rng.integers(0, 2, size))).tocsc()
        det = np.linalg.det(M.toarray())
        if abs(det) > 1e-8:
            return M, det


def test_lu_det_sign_matches_the_dense_determinant():
    # 300 random matrices, each factored under two column orderings: the
    # sign must not depend on the permutations SuperLU chose.
    rng = np.random.default_rng(20261020)
    odd = 0
    for _ in range(300):
        M, det = random_sparse(rng)
        for spec in ("COLAMD", "MMD_AT_PLUS_A"):
            lu = scipy.sparse.linalg.splu(M, permc_spec=spec)
            assert lu_det_sign(lu) == np.sign(det)
            odd += verification._parity(lu.perm_r) * verification._parity(lu.perm_c) < 0
    # Not vacuous: many factorizations carry odd permutations.
    assert odd > 100


def test_index_oracle_counts_the_constant_mode():
    # Worked diagonal case: p < 0 at the constant mode, whose unstable
    # direction (J has eigenvalue +2) the determinant holds in its
    # det(-J) block, and at the first nonconstant mode: sigma = 2.
    model = interval_model(2, (1.0, 1.0), (-2.0, 1.0), ((-2.0, 0.0), (0.0, 1.0)))
    u_star = np.ones(2)
    report = constant_state_index(model, u_star)
    assert reaction_unstable_count(model, u_star) == 1
    assert report.negative["first_mode"].tolist() == [0]
    assert report.negative["modes"].sum() == report.sigma == 2
    assert index_oracle(model, u_star, n=192) == index_oracle(model, u_star) == report.index == 1


def test_index_oracle_matches_index_for_stable_kinetics():
    # Hurwitz J: no constant-mode crossing, one mode with p < 0.
    model = interval_model(2, (0.4, 7.0), (1.0, 1.0), ((-1.0, 2.0), (-3.0, 4.0)))
    u_star = np.ones(2)
    assert reaction_unstable_count(model, u_star) == 0
    report = constant_state_index(model, u_star)
    assert report.negative["modes"].sum() == 1
    assert index_oracle(model, u_star, n=192) == index_oracle(model, u_star) == report.index == -1


def test_index_oracle_refuses_a_non_elliptic_state():
    # A(u) = d + 2 alpha u is -1 at u = -1.
    model = interval_model(1, (1.0,), (1.0,), ((1.0,),), alpha=((1.0,),))
    with pytest.raises(ValueError, match=r"A\(u\*\) has an eigenvalue of real part -1\.000e\+00 <= 0"):
        index_oracle(model, np.array([-1.0]))


@pytest.mark.parametrize("n", [32, 33, 100])
def test_index_oracle_refuses_a_singular_matrix(n):
    # Logistic growth at u = 1/2: J = 0, so the constant mode's block is 0.
    # At n = 33 rounding leaves a pivot of ~3e-14 instead of 0.
    model = interval_model(1, (1.0,), (1.0,), ((1.0,),))
    with pytest.raises(ValueError, match=f"singular at n = {n}"):
        index_oracle(model, np.array([0.5]), n=n)


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


def blockwise_eigenvalues(model, u_star, n):
    """Eigenvalues of ``lambda_h A(u*) - J(u*)`` over the closed-form FD
    spectrum, one ``m x m`` block per mode."""
    A, J = model.A(u_star), model.jacobian_f(u_star)
    return np.concatenate(
        [np.linalg.eigvals(lam * A - J) for lam in fd_eigenvalues(n, model.domain.lengths[0])]
    )


def test_dense_pencil_agrees_with_blockwise_modes():
    # The whole linearization, eigenvalues from the dense matrix (no
    # Kronecker shortcut), is the union of the per-mode blocks.
    n = 48
    model = interval_model(2, (0.4, 7.0), (1.0, 1.0), ((-1.0, 2.0), (-3.0, 4.0)))
    u_star = np.ones(2)
    dense = np.linalg.eigvals(linearization(model, u_star, n).toarray())
    blocks = blockwise_eigenvalues(model, u_star, n)
    assert dense.shape == blocks.shape == (2 * n,)
    assert_multiset_close(dense, blocks, tol=1e-9 * np.abs(blocks).max())


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
    A = model.A(u_star)
    assert A[0, 1] != 0.0 and A[1, 0] != 0.0
    dense = np.linalg.eigvals(linearization(model, u_star, n).toarray())
    blocks = blockwise_eigenvalues(model, u_star, n)
    assert_multiset_close(dense, blocks, tol=1e-9 * np.abs(blocks).max())


def test_reaction_unstable_count_examples():
    model = interval_model(2, (1.0, 1.0), (-2.0, 1.0), ((-2.0, 0.0), (0.0, 1.0)))
    assert reaction_unstable_count(model, np.ones(2)) == 1
    turing = interval_model(2, (0.4, 7.0), (1.0, 1.0), ((-1.0, 2.0), (-3.0, 4.0)))
    assert reaction_unstable_count(turing, np.ones(2)) == 0


def readme_on(lengths, d1, alpha_21):
    """The README model on the interval or rectangle with sides ``lengths``,
    with ``d_1`` and ``alpha_21`` set."""
    return build_model(
        {
            "m": 2,
            "d": [d1, 7.0],
            "alpha": [[0.0, 0.0], [alpha_21, 0.0]],
            "r": [1.0, 1.0],
            "c": [[-1.0, 2.0], [-3.0, 4.0]],
            "domain": {"kind": "interval" if len(lengths) == 1 else "rectangle",
                       "lengths": list(lengths)},
            "bc": "neumann",
        }
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
def test_index_oracle_picks_a_grid_that_resolves_the_roots(length, d1, alpha_21):
    # Rows of the sweep-lengths golden sweep where a fixed n = 256 gives
    # the wrong sign: an FD eigenvalue (2n/L)^2 sin^2(k pi / 2n) falls
    # below a root that the exact one lies above.  The oracle's own grid
    # resolves them at n = 512, and its sign is the index.
    model = readme_on((length,), d1, alpha_21)
    u_star = np.ones(2)
    report = constant_state_index(model, u_star)
    assert index_oracle(model, u_star, n=256) != report.index
    assert oracle_grid(model, u_star) == 512
    assert index_oracle(model, u_star) == report.index


def test_index_oracle_names_the_grid_a_long_interval_needs():
    # The README model on (0, 1e5) has ~60,000 eigenvalues below its roots.
    model = readme_on((1e5,), 0.4, 0.0)
    with pytest.raises(
        ValueError, match=r"needs n = 8388608 cells per axis .* past its cap of 16384 nodes"
    ):
        index_oracle(model, np.ones(2))


def test_index_oracle_matches_the_index_on_every_sweep_lengths_row():
    # All 320 rows of the golden sweep, 40 lengths from 0.5 to 40: the
    # grids run from 32 to 4096 cells.
    path = Path(__file__).resolve().parent / "golden" / "sweep-lengths.csv"
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 320
    grids = set()
    for row in rows:
        model = readme_on(
            (float(row["domain.lengths.0"]),), float(row["d.0"]), float(row["alpha.1.0"])
        )
        grids.add(oracle_grid(model, np.ones(2)))
        assert index_oracle(model, np.ones(2)) == constant_state_index(model, np.ones(2)).index
    assert grids == {32, 64, 128, 256, 512, 1024, 4096}


@pytest.mark.parametrize(
    "lengths, d1, alpha_21, sigma",
    [
        # Double modes of the square: sigma counts lambda = 1, 4 and 5 twice.
        ((PI, PI), 0.3, 0.0, 5),
        ((3.0, 3.0), 0.05, 0.1, 20),
        ((PI, PI / 2.0), 0.2, 0.1, 5),
        ((3.0, 2.0), 0.3, 0.1, 4),
    ],
)
def test_index_oracle_matches_the_index_on_rectangles(lengths, d1, alpha_21, sigma):
    model = readme_on(lengths, d1, alpha_21)
    report = constant_state_index(model, np.ones(2))
    assert report.sigma == sigma
    assert index_oracle(model, np.ones(2)) == report.index == (-1) ** sigma


def test_verification_imports_none_of_the_code_it_checks():
    # The oracles stay independent of the modules they verify.
    tree = ast.parse(Path(verification.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.add((node.module or "").rsplit(".", 1)[-1])
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(alias.name.rsplit(".", 1)[-1] for alias in node.names)
    assert imported & {"index_theory", "spectral", "steady_states", "pde_solver"} == set()
    assert "model" in imported
