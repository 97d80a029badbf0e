"""Finite-difference discretization, Newton and continuation solvers."""

from __future__ import annotations

import dataclasses
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import SuperLU, splu

from crossdiff import (
    ConfigError,
    DiscreteField,
    ModelError,
    build_model,
    classify_field,
    constant_field,
    constant_state_index,
    continuation_solve,
    discretize,
    make_grid,
    newton_solve,
    norms,
    pde_solver,
    random_field,
    seed_from_mode,
)
from test_spectral import brute_force_spectrum

PI = np.pi


def interval_model(m, d, r, c, alpha=None, bc="neumann", length=PI):
    alpha = alpha if alpha is not None else [[0.0] * m for _ in range(m)]
    return build_model(
        {
            "m": m,
            "d": list(d),
            "alpha": [list(row) for row in alpha],
            "r": list(r),
            "c": [list(row) for row in c],
            "domain": {"kind": "interval", "lengths": [length]},
            "bc": bc,
        }
    )


def weak_lv():
    return interval_model(2, (1.0, 1.0), (1.0, 1.0), ((1.0, 0.5), (0.3, 1.0)))


def turing():
    return interval_model(2, (0.4, 7.0), (1.0, 1.0), ((-1.0, 2.0), (-3.0, 4.0)))


COEX = np.array([10.0 / 17.0, 14.0 / 17.0])


# -- grids and fields -------------------------------------------------------


def test_make_grid_cell_centers():
    model = weak_lv()
    grid = make_grid(model.domain, 8)
    h = PI / 8
    assert grid.shape == (8,)
    np.testing.assert_allclose(grid.h, [h])
    pts = grid.points()
    assert pts.shape == (8, 1)
    np.testing.assert_allclose(pts[0, 0], h / 2)
    np.testing.assert_allclose(pts[-1, 0], PI - h / 2)


def test_make_grid_rejects_coarse_grids():
    model = weak_lv()
    with pytest.raises(ConfigError, match="too coarse"):
        make_grid(model.domain, 4)


def test_rectangle_grid_shape():
    model = build_model(
        {
            "m": 1,
            "d": [1.0],
            "alpha": [[0.0]],
            "r": [1.0],
            "c": [[1.0]],
            "domain": {"kind": "rectangle", "lengths": [2.0, 1.0]},
            "bc": "neumann",
        }
    )
    grid = make_grid(model.domain, (16, 8))
    assert grid.shape == (16, 8)
    np.testing.assert_allclose(grid.h, [2.0 / 16, 1.0 / 8])
    assert grid.points().shape == (16, 8, 2)


def test_discrete_field_validation():
    grid = make_grid(weak_lv().domain, 8)
    with pytest.raises(ModelError, match="shape"):
        DiscreteField(grid=grid, values=np.zeros((7, 2)))
    bad = np.zeros((8, 2))
    bad[3, 1] = np.nan
    with pytest.raises(ModelError, match="finite"):
        DiscreteField(grid=grid, values=bad)


def test_random_field_determinism():
    grid = make_grid(weak_lv().domain, 16)
    f1 = random_field(grid, [0.0, 0.0], [2.0, 2.0], seed=7)
    f2 = random_field(grid, [0.0, 0.0], [2.0, 2.0], seed=7)
    f3 = random_field(grid, [0.0, 0.0], [2.0, 2.0], seed=8)
    np.testing.assert_array_equal(f1.values, f2.values)
    assert np.abs(f1.values - f3.values).max() > 1e-3
    assert f1.values.min() >= 0.0 and f1.values.max() <= 2.0
    with pytest.raises(ModelError, match="matching"):
        random_field(grid, [0.0], [1.0, 2.0])


# -- residual and Jacobian --------------------------------------------------


def test_residual_exactly_zero_at_constant_root():
    # Constant differences vanish exactly and f(1,1) evaluates to 0 in
    # floating point, so the residual is identically zero — no tolerance.
    model = turing()
    grid = make_grid(model.domain, 32)
    system = discretize(model, grid)
    R = system.residual(constant_field(grid, [1.0, 1.0]).values)
    assert np.all(R == 0.0)


def test_linear_profile_under_dirichlet_walls():
    # u(x) = x solves the interior equation and the left wall (the
    # reflected ghost -u_1 reproduces the exact flux there), but violates
    # the right Dirichlet condition, so only the last row is nonzero.
    model = interval_model(1, (1.0,), (0.0,), ((0.0,),), bc="dirichlet")
    grid = make_grid(model.domain, 32)
    u = grid.points()[:, 0:1].copy()
    R = discretize(model, grid).residual(u)
    np.testing.assert_allclose(R[:-1, 0], 0.0, atol=1e-10)
    assert abs(R[-1, 0]) > 1.0


def test_forced_residual_is_second_order():
    # u = cos(x) with matching forcing: the sampled exact solution leaves
    # a pure truncation residual that shrinks by 4x per grid doubling.
    model = interval_model(1, (1.0,), (0.0,), ((0.0,),))
    norms = []
    for n in (32, 64, 128):
        grid = make_grid(model.domain, n)
        x = grid.points()[:, 0]
        u = np.cos(x)[:, None]
        forcing = np.cos(x)[:, None]
        R = discretize(model, grid, forcing=forcing).residual(u)
        norms.append(np.abs(R).max())
    assert norms[0] / norms[1] == pytest.approx(4.0, rel=0.15)
    assert norms[1] / norms[2] == pytest.approx(4.0, rel=0.15)


def test_forcing_shape_checked():
    model = weak_lv()
    grid = make_grid(model.domain, 8)
    with pytest.raises(ModelError, match="forcing"):
        discretize(model, grid, forcing=np.zeros((8, 1)))


def reference_residual(model, grid, values):
    # Face by face in plain Python, from Model.A alone: the face flux is
    # A(mean) (u_q - u_p)/h, and a Dirichlet wall face sees the ghost
    # -u_w, so its jump is 2 u_w/h at the pinned value A(0).
    R = -model.f(values)
    A0 = model.A(np.zeros(model.m))
    for node in np.ndindex(grid.shape):
        for axis, h in enumerate(grid.h):
            nbr = list(node)
            nbr[axis] += 1
            nbr = tuple(nbr)
            if nbr[axis] < grid.shape[axis]:
                u_p, u_q = values[node], values[nbr]
                flux = model.A(0.5 * (u_p + u_q)) @ (u_q - u_p) / h
                R[node] -= flux / h
                R[nbr] += flux / h
            if model.bc.kind == "dirichlet" and node[axis] in (0, grid.shape[axis] - 1):
                R[node] += A0 @ (2.0 * values[node] / h) / h
    return R


def coupled_model(kind, bc, t):
    # A cross-diffusing model scaled to stage t of the continuation path.
    return build_model(
        {
            "m": 2,
            "d": [0.6, 1.1],
            "alpha": [[0.2 * t, 1.3 * t], [0.8 * t, 0.1 * t]],
            "r": [1.0, 0.5],
            "c": [[1.0, 0.4], [-0.3, 0.9]],
            "domain": {"kind": kind, "lengths": [PI] if kind == "interval" else [PI, 2.0]},
            "bc": bc,
        }
    )


@pytest.mark.parametrize("t", [1.0, 0.35])
@pytest.mark.parametrize("bc", ["neumann", "dirichlet"])
@pytest.mark.parametrize("kind", ["interval", "rectangle"])
def test_residual_matches_face_loop_reference(kind, bc, t):
    model = coupled_model(kind, bc, t)
    grid = make_grid(model.domain, 40 if kind == "interval" else (12, 10))
    field = random_field(grid, [0.2, 0.2], [1.8, 1.8], seed=5)
    R = discretize(model, grid).residual(field.values)
    expected = reference_residual(model, grid, field.values)
    np.testing.assert_allclose(R, expected, rtol=1e-12)


def fd_jacobian(system, values, eps=1e-6):
    base = values.reshape(-1)
    n = base.size
    J = np.zeros((n, n))
    for j in range(n):
        e = np.zeros(n)
        e[j] = eps
        Rp = system.residual((base + e).reshape(values.shape)).reshape(-1)
        Rm = system.residual((base - e).reshape(values.shape)).reshape(-1)
        J[:, j] = (Rp - Rm) / (2.0 * eps)
    return J


@pytest.mark.parametrize(
    "kind,bc,t",
    [
        ("interval", "neumann", 0.7),
        ("interval", "dirichlet", 1.0),
        ("rectangle", "neumann", 0.7),
        ("rectangle", "dirichlet", 0.55),
    ],
)
def test_jacobian_matches_finite_differences(kind, bc, t):
    model = coupled_model(kind, bc, t)
    grid = make_grid(model.domain, 8 if kind == "interval" else (8, 8))
    field = random_field(grid, [0.4, 0.4], [1.6, 1.6], seed=3)
    system = discretize(model, grid)
    J = system.jacobian(field.values).toarray()
    J_fd = fd_jacobian(system, field.values)
    scale = np.abs(J).max()
    np.testing.assert_allclose(J, J_fd, atol=1e-6 * scale)


def three_species_model(kind, bc, t):
    return build_model(
        {
            "m": 3,
            "d": [0.6, 1.1, 0.8],
            "alpha": [
                [0.2 * t, 1.3 * t, 0.4 * t],
                [0.8 * t, 0.1 * t, 0.5 * t],
                [0.3 * t, 0.7 * t, 0.2 * t],
            ],
            "r": [1.0, 0.5, 0.7],
            "c": [[1.0, 0.4, 0.2], [-0.3, 0.9, 0.1], [0.2, 0.3, 1.2]],
            "domain": {"kind": kind, "lengths": [PI] if kind == "interval" else [PI, 2.0]},
            "bc": bc,
        }
    )


def reference_jacobian(model, grid, values):
    # Node by node in plain Python: a COO list of m x m blocks that
    # scipy sums into CSC.  A face flux F = A(v) (u_q - u_p)/h with
    # v = (u_p + u_q)/2 has dF_i/dv_j = alpha_ij du_i + delta_ij
    # (alpha du)_i, so dF/du_{p,q} = dF/dv / 2 -/+ A(v)/h.
    m = model.m
    rows, cols, data = [], [], []

    def add(r_node, c_node, block):
        r0 = np.ravel_multi_index(r_node, grid.shape) * m
        c0 = np.ravel_multi_index(c_node, grid.shape) * m
        for i in range(m):
            for j in range(m):
                rows.append(r0 + i)
                cols.append(c0 + j)
                data.append(block[i, j])

    for node in np.ndindex(grid.shape):
        add(node, node, -model.jacobian_f(values[node]))
        for axis, h in enumerate(grid.h):
            if model.bc.kind == "dirichlet" and node[axis] in (0, grid.shape[axis] - 1):
                add(node, node, np.diag(2.0 * model.d / h**2))
            nbr = list(node)
            nbr[axis] += 1
            nbr = tuple(nbr)
            if nbr[axis] == grid.shape[axis]:
                continue
            u_p, u_q = values[node], values[nbr]
            du = (u_q - u_p) / h
            dF_dv = model.alpha * du[:, None] + np.diag(model.alpha @ du)
            A = model.A(0.5 * (u_p + u_q))
            dF_dp = 0.5 * dF_dv - A / h
            dF_dq = 0.5 * dF_dv + A / h
            add(node, node, -dF_dp / h)
            add(node, nbr, -dF_dq / h)
            add(nbr, node, dF_dp / h)
            add(nbr, nbr, dF_dq / h)
    n = grid.n_nodes * m
    ref = sp.coo_matrix((data, (rows, cols)), shape=(n, n)).tocsc()
    ref.sum_duplicates()
    ref.sort_indices()
    return ref


@pytest.mark.parametrize("t", [1.0, 0.35])
@pytest.mark.parametrize("m", [2, 3])
@pytest.mark.parametrize("bc", ["neumann", "dirichlet"])
@pytest.mark.parametrize("kind", ["interval", "rectangle"])
def test_jacobian_pattern_refill_matches_coo_assembly(kind, bc, m, t):
    model = (coupled_model if m == 2 else three_species_model)(kind, bc, t)
    grid = make_grid(model.domain, 12 if kind == "interval" else (9, 8))
    field = random_field(grid, [0.3] * m, [1.7] * m, seed=7)
    J = discretize(model, grid).jacobian(field.values)
    ref = reference_jacobian(model, grid, field.values)
    assert J.format == "csc"
    np.testing.assert_array_equal(J.indptr, ref.indptr)
    np.testing.assert_array_equal(J.indices, ref.indices)
    row_scale = np.asarray(abs(ref).sum(axis=1)).ravel()
    err = np.abs(J.data - ref.data) / row_scale[ref.indices]
    assert err.max() <= 1e-14


@pytest.mark.parametrize("t", [0.0, 0.37, 1.0])
@pytest.mark.parametrize("m", [2, 3])
@pytest.mark.parametrize("bc", ["neumann", "dirichlet"])
@pytest.mark.parametrize("kind", ["interval", "rectangle"])
def test_stage_alpha_on_a_system_matches_a_model_with_that_alpha(kind, bc, m, t):
    # A homotopy stage sets t * alpha on its grid's one system; residual and
    # Jacobian must be those of a system built from the model at stage t.
    model = (coupled_model if m == 2 else three_species_model)(kind, bc, 1.0)
    grid = make_grid(model.domain, 12 if kind == "interval" else (9, 8))
    values = random_field(grid, [0.3] * m, [1.7] * m, seed=11).values
    stage = pde_solver.DiscreteSystem(model, grid)
    stage.alpha = t * model.alpha
    built = pde_solver.DiscreteSystem(dataclasses.replace(model, alpha=t * model.alpha), grid)
    np.testing.assert_array_equal(stage.residual(values), built.residual(values))
    J, J_built = stage.jacobian(values), built.jacobian(values)
    for name in ("data", "indices", "indptr"):
        np.testing.assert_array_equal(getattr(J, name), getattr(J_built, name))


def cross_diffusing_model(kind, bc, m):
    if m == 1:
        return build_model(
            {
                "m": 1, "d": [0.7], "alpha": [[0.4]], "r": [1.0], "c": [[1.0]],
                "domain": {"kind": kind, "lengths": [PI] if kind == "interval" else [PI, 2.0]},
                "bc": bc,
            }
        )
    return (coupled_model if m == 2 else three_species_model)(kind, bc, 1.0)


NARROW_GRIDS = [24, (9, 8), (8, 9), (16, 16)]


@pytest.mark.parametrize("cells", NARROW_GRIDS, ids=str)
@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("bc", ["neumann", "dirichlet"])
def test_banded_factor_solves_as_superlu_on_a_narrow_band(bc, m, cells):
    # Intervals and narrow rectangles: kl = m n_2 + m - 1 is at most 50.
    model = cross_diffusing_model("interval" if cells == 24 else "rectangle", bc, m)
    grid = make_grid(model.domain, cells)
    system = discretize(model, grid)
    J = system.jacobian(random_field(grid, [0.3] * m, [1.7] * m, seed=4).values)
    lu = pde_solver._factor(system, J)
    assert isinstance(lu, pde_solver._BandLU)
    b = np.random.default_rng(5).standard_normal(J.shape[0])
    expected = splu(J, permc_spec="MMD_AT_PLUS_A").solve(b)
    x = lu.solve(b)
    assert np.linalg.norm(x - expected) <= 1e-10 * np.linalg.norm(expected)


@pytest.mark.parametrize("cells", NARROW_GRIDS + [(10, 13), "widest"], ids=str)
@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("bc", ["neumann", "dirichlet"])
def test_band_map_places_every_slot_in_the_lapack_band(bc, m, cells):
    if cells == "widest":
        cells = (8, (pde_solver.MAX_BAND + 1 - m) // m)
    model = cross_diffusing_model("interval" if cells == 24 else "rectangle", bc, m)
    grid = make_grid(model.domain, cells)
    J = discretize(model, grid).jacobian(random_field(grid, [0.3] * m, [1.7] * m, seed=6).values)
    pattern = pde_solver._jacobian_pattern(grid.shape, m, model.bc.kind == "dirichlet")
    kl, n = pattern.kl, J.shape[0]
    cols = np.repeat(np.arange(n), np.diff(J.indptr))
    assert kl == np.max(np.abs(J.indices - cols)) <= pde_solver.MAX_BAND
    # Distinct cells in rows kl ... 3 kl of the (3 kl + 1) x n band array;
    # the top kl rows are the pivoting's fill room.
    assert np.unique(pattern.band).size == pattern.band.size
    rows = pattern.band % (3 * kl + 1)
    assert np.all((kl <= rows) & (rows <= 3 * kl))
    ab = np.zeros(n * (3 * kl + 1))
    ab[pattern.band] = J.data
    ab = ab.reshape(n, 3 * kl + 1).T
    dense = np.zeros((n, n))
    for j in range(n):
        i = np.arange(max(0, j - kl), min(n, j + kl + 1))
        dense[i, j] = ab[2 * kl + i - j, j]
    np.testing.assert_array_equal(dense, J.toarray())


@pytest.mark.parametrize("kind", ["interval", "rectangle"])
def test_banded_factor_of_a_singular_jacobian_raises_superlus_error(kind):
    # The logistic Jacobian at u = 1/2 is the bare Neumann operator.  On an
    # interval its banded elimination ends in an exact zero pivot; on a
    # rectangle both factors end in a rounding-sized one, so one node's
    # column is zeroed to make the matrix exactly singular.
    model = build_model(
        {
            "m": 1, "d": [1.0], "alpha": [[0.0]], "r": [1.0], "c": [[1.0]],
            "domain": {"kind": kind, "lengths": [PI] if kind == "interval" else [PI, 2.0]},
            "bc": "neumann",
        }
    )
    grid = make_grid(model.domain, 32 if kind == "interval" else (9, 8))
    system = discretize(model, grid)
    J = system.jacobian(constant_field(grid, [0.5]).values)
    if kind == "rectangle":
        J.data[J.indptr[40] : J.indptr[41]] = 0.0
    with pytest.raises(RuntimeError, match="^Factor is exactly singular$"):
        splu(J, permc_spec="MMD_AT_PLUS_A")
    with pytest.raises(RuntimeError, match="^Factor is exactly singular$"):
        pde_solver._factor(system, J)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_factor_is_chosen_by_bandwidth(m):
    # The widest fast axis whose kl = m n_2 + m - 1 is within MAX_BAND is
    # banded (for m = 1, kl equals the limit); one more cell on that axis
    # goes to SuperLU, and so does 64 x 64 with m = 2 (kl = 129).
    model = cross_diffusing_model("rectangle", "neumann", m)
    widest = (pde_solver.MAX_BAND + 1 - m) // m
    for cells, kind in (((8, widest), pde_solver._BandLU), ((8, widest + 1), SuperLU)):
        grid = make_grid(model.domain, cells)
        system = discretize(model, grid)
        pattern = pde_solver._jacobian_pattern(grid.shape, m, False)
        assert pattern.kl == m * cells[1] + m - 1
        assert (pattern.band is None) == (pattern.kl > pde_solver.MAX_BAND)
        J = system.jacobian(random_field(grid, [0.3] * m, [1.7] * m, seed=4).values)
        assert isinstance(pde_solver._factor(system, J), kind)
    if m == 1:
        assert widest == pde_solver.MAX_BAND
    if m == 2:
        grid = make_grid(model.domain, 64)
        system = discretize(model, grid)
        J = system.jacobian(random_field(grid, [0.3] * m, [1.7] * m, seed=4).values)
        assert isinstance(pde_solver._factor(system, J), SuperLU)


# -- Newton -----------------------------------------------------------------


def factor_calls(monkeypatch):
    """Record every factorization the solver makes, failed ones included:
    the calls of its one factor seam, banded or SuperLU."""
    calls = []
    factor = pde_solver._factor

    def recording(*args, **kwargs):
        calls.append(1)
        return factor(*args, **kwargs)

    monkeypatch.setattr(pde_solver, "_factor", recording)
    return calls


def test_newton_finds_coexistence_from_nearby_constant():
    model = weak_lv()
    grid = make_grid(model.domain, 64)
    result = newton_solve(model, grid, constant_field(grid, [0.6, 0.8]))
    assert result.converged
    assert result.classification == "nontrivial-constant"
    assert norms(result.field)[1] < 1e-10
    np.testing.assert_allclose(
        result.field.values.reshape(-1, 2).mean(axis=0), COEX, atol=1e-9
    )
    assert result.residual_history[-1] <= result.residual_history[0]
    assert result.warnings == ()


def test_newton_from_random_seed_lands_on_a_constant_branch():
    model = interval_model(1, (1.0,), (1.0,), ((1.0,),))
    grid = make_grid(model.domain, 64)
    result = newton_solve(model, grid, random_field(grid, [0.5], [1.5], seed=2))
    assert result.converged
    assert result.classification in ("trivial", "nontrivial-constant")


def test_newton_rejects_bad_seed_shape():
    model = weak_lv()
    grid = make_grid(model.domain, 16)
    with pytest.raises(ModelError, match="seed shape"):
        newton_solve(model, grid, np.zeros((16, 3)))


@pytest.mark.parametrize("solve", [newton_solve, continuation_solve], ids=["newton", "continuation"])
def test_solvers_reject_a_seed_whose_residual_overflows(monkeypatch, solve):
    # The seed 1e200 is finite, but the logistic term u^2 overflows.
    model = interval_model(1, (1.0,), (1.0,), ((1.0,),))
    grid = make_grid(model.domain, 32)
    calls = factor_calls(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ModelError, match="the residual at the seed overflows a float"):
            solve(model, grid, constant_field(grid, [1e200]))
    assert calls == []


def test_newton_singular_jacobian_raises_convergence_error(monkeypatch):
    # u = 1/2 zeroes the logistic derivative pointwise, so the Jacobian
    # is the bare Neumann operator — exactly singular.  The failed
    # factorization still counts.
    model = interval_model(1, (1.0,), (1.0,), ((1.0,),))
    grid = make_grid(model.domain, 32)
    seed = constant_field(grid, [0.5])
    calls = factor_calls(monkeypatch)
    monkeypatch.setattr(pde_solver, "MAX_FACTORIZATIONS", 3)
    soft = newton_solve(model, grid, seed)
    assert not soft.converged
    assert soft.warnings
    assert soft.factorizations == len(calls) == 1


def test_failed_soft_newton_reports_its_last_iterate(monkeypatch):
    # Two factorizations from a random field around u* = (1, 1) pay for
    # two Newton steps and one chord step, which leave a residual of
    # 0.4868: the result is that iterate, not the seed.
    model = turing()
    grid = make_grid(model.domain, 64)
    seed = random_field(grid, [0.5, 0.5], [1.5, 1.5], seed=0)
    full = newton_solve(model, grid, seed)
    monkeypatch.setattr(pde_solver, "MAX_FACTORIZATIONS", 2)
    soft = newton_solve(model, grid, seed)
    assert not soft.converged
    assert "no convergence within 2 factorizations" in soft.warnings[0]
    assert soft.iterations == 3
    assert soft.factorizations == 2
    assert soft.residual_history == full.residual_history[:4]
    assert soft.residual_norm == soft.residual_history[-1]
    assert soft.residual_norm == pytest.approx(0.4868, rel=1e-3)
    residual = discretize(model, grid).residual(soft.field.values)
    assert float(np.linalg.norm(residual)) == soft.residual_norm
    assert not np.array_equal(soft.field.values, seed.values)


def test_newton_warns_when_a_species_vanishes():
    # From a small positive constant the kinetics contract onto u = 0:
    # a converged answer, but one that lost both species of the seed.
    model = weak_lv()
    grid = make_grid(model.domain, 16)
    result = newton_solve(model, grid, constant_field(grid, [1e-3, 1e-3]))
    assert result.converged
    assert result.classification == "trivial"
    for i in (1, 2):
        assert f"species {i} present in the seed vanished from the solution" in result.warnings


def test_newton_warns_when_a_species_appears():
    # A source of species 1 (the forcing that makes u = (0.3, 0.6) a
    # solution) moves the answer off the face u_1 = 0 that holds the seed.
    model = weak_lv()
    grid = make_grid(model.domain, 16)
    target = np.array([0.3, 0.6])
    forcing = np.broadcast_to(-model.f(target), grid.shape + (2,)).copy()
    seed = constant_field(grid, [1e-9, 1.0])
    result = newton_solve(model, grid, seed, forcing=forcing)
    assert result.converged
    np.testing.assert_allclose(result.field.values, np.broadcast_to(target, seed.values.shape))
    assert result.warnings == ("species 1 absent from the seed is present in the solution",)


# -- continuation -----------------------------------------------------------


def test_continuation_agrees_with_direct_newton():
    # Every constant state is a root of every stage, so the path keeps
    # the branch the seed is near: both routes land on u = 1.
    model = interval_model(1, (35.0,), (1.0,), ((1.0,),))
    grid = make_grid(model.domain, 64)
    seed = constant_field(grid, [0.7])
    direct = newton_solve(model, grid, seed)
    cont = continuation_solve(model, grid, seed)
    for result in (direct, cont):
        assert result.converged
        assert result.classification == "nontrivial-constant"
        np.testing.assert_allclose(result.field.values, 1.0, atol=1e-8)
    assert direct.t_path == (1.0,)
    assert cont.t_path == tuple(np.linspace(0.0, 1.0, 9))


def followed_turing_pattern(n_cells):
    """A Turing pattern at ``alpha = 0`` and the model that switches on
    ``alpha_22 = 0.2``: the start and target of a continuation."""
    base = turing()
    grid = make_grid(base.domain, n_cells)
    seed = seed_from_mode(base, np.ones(2), unstable_mode(base), 1.5, grid)
    pattern = newton_solve(base, grid, seed)
    assert pattern.converged
    assert pattern.classification == "nonconstant"
    model = interval_model(
        2, (0.4, 7.0), (1.0, 1.0), ((-1.0, 2.0), (-3.0, 4.0)),
        alpha=((0.0, 0.0), (0.0, 0.2)),
    )
    return model, grid, pattern


def test_continuation_ends_its_attempt_at_the_first_failed_stage(monkeypatch):
    # Follow a Turing pattern as cross-diffusion is switched on.  One
    # factorization per stage crosses from t = 0 to t = 0.5 but not on
    # to t = 1: that stage fails, and no stage runs between the requested
    # ones.  The answer is the t = 0.5 stage's field, and the failed
    # stage's factorization is counted too.  An odd cell count keeps the
    # stages on this grid.
    model, grid, pattern = followed_turing_pattern(63)
    calls = factor_calls(monkeypatch)
    monkeypatch.setattr(pde_solver, "HOMOTOPY_STEPS", 2)
    monkeypatch.setattr(pde_solver, "MAX_FACTORIZATIONS", 1)
    runs = []
    finalize = pde_solver._finalize

    def recording(system, seed, tol, solve_runs):
        runs.extend(solve_runs)
        return finalize(system, seed, tol, solve_runs)

    monkeypatch.setattr(pde_solver, "_finalize", recording)
    result = continuation_solve(model, grid, pattern.field)
    converged = [(t, run.failure is None) for t, run in runs]
    assert converged == [(0.0, True), (0.5, True), (1.0, False)]
    assert not result.converged
    assert result.factorizations == len(calls) == 3
    assert result.t_path == (0.0, 0.5)
    assert result.warnings[0].startswith("homotopy stage t = 1 failed: no convergence")
    np.testing.assert_array_equal(result.field.values, runs[1][1].values)
    assert result.classification == "nonconstant"


def skt_2d():
    return build_model(
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


def test_first_factorization_fill_uses_a_fill_reducing_ordering(monkeypatch):
    # On the 48 x 48 SKT Jacobian, COLAMD fills L + U with about 423k
    # entries and the minimum-degree ordering on A + A^T with about 240k.
    # A direct Newton solve factors that matrix; the continuation would
    # factor the 24 x 24 one.
    model = skt_2d()
    grid = make_grid(model.domain, 48)
    fills = []
    factor = pde_solver.splu

    def recording(*args, **kwargs):
        lu = factor(*args, **kwargs)
        fills.append(lu.L.nnz + lu.U.nnz)
        return lu

    monkeypatch.setattr(pde_solver, "splu", recording)
    seed = random_field(grid, 0.5 * COEX, 1.5 * COEX, seed=0)
    result = newton_solve(model, grid, seed)
    assert result.converged
    assert fills and fills[0] < 300_000


def test_skt_continuation_keeps_one_factorization_per_stage_that_needs_one(monkeypatch):
    # The t = 0 stage runs its chord steps on one LU and the t = 0.125
    # stage needs one more; the other stages start converged.  Plain
    # Newton factored once per iteration: 5 times.
    model = skt_2d()
    grid = make_grid(model.domain, 48)
    calls = factor_calls(monkeypatch)
    seed = random_field(grid, 0.5 * COEX, 1.5 * COEX, seed=0)
    result = continuation_solve(model, grid, seed)
    assert result.converged
    assert result.factorizations == len(calls) <= 2
    assert result.iterations > result.factorizations


def test_chord_steps_refactor_when_they_stall(monkeypatch):
    # From a random field the Turing model needs several factorizations:
    # chord steps from a stale LU carry most iterations, and a step that
    # does not halve the residual makes the solve refactor.  Only a
    # Newton step, which costs one factorization, may cut the residual
    # by less than CHORD_CONTRACTION.
    model = turing()
    grid = make_grid(model.domain, 64)
    calls = factor_calls(monkeypatch)
    result = newton_solve(model, grid, random_field(grid, [0.5, 0.5], [1.5, 1.5], seed=0))
    assert result.converged
    assert result.factorizations == len(calls)
    assert 2 <= result.factorizations < result.iterations
    history = np.array(result.residual_history)
    assert np.all(history[1:] < history[:-1])
    slow = history[1:] > pde_solver.CHORD_CONTRACTION * history[:-1]
    assert 1 <= np.count_nonzero(slow) <= result.factorizations
    residual = discretize(model, grid).residual(result.field.values)
    assert np.linalg.norm(residual) <= result.tolerance


# The answers of plain Newton (one LU per iteration) before chord steps:
# classification, min, mean and grad_l2 of the converged field.  A
# constant answer's grad_l2 is 0 up to the solve tolerance, so grad_l2 is
# compared on the field's scale (about 1) as well.
TURING_512_PLAIN_NEWTON = [
    (1.27, "nonconstant", 0.35637115116108087, 1.139319152074372, 1.3586101802163855),
    (1.62, "nontrivial-constant", 0.9999999999999989, 0.9999999999999999, 2.3874763111823764e-14),
    (1.91, "nonconstant", 0.35637115116487733, 1.1393191520754464, 1.358610180213875),
]
SKT_48_PLAIN_NEWTON = [
    (0, "nontrivial-constant", 0.5882352941176471, 0.7058823529411763, 0.0),
    (1, "nontrivial-constant", 0.5882352941176471, 0.7058823529411763, 0.0),
]


def assert_same_answer(result, classification, vmin, mean, grad_l2):
    assert result.converged
    assert result.classification == classification
    assert float(result.field.values.min()) == pytest.approx(vmin, rel=1e-8)
    assert float(result.field.values.mean()) == pytest.approx(mean, rel=1e-8)
    assert norms(result.field)[1] == pytest.approx(grad_l2, rel=1e-8, abs=1e-8)


@pytest.mark.parametrize("amp, classification, vmin, mean, grad_l2", TURING_512_PLAIN_NEWTON)
def test_mode_seeded_turing_solve_matches_plain_newton(amp, classification, vmin, mean, grad_l2):
    model = turing()
    grid = make_grid(model.domain, 512)
    seed = seed_from_mode(model, np.ones(2), unstable_mode(model), amp, grid)
    result = newton_solve(model, grid, seed)
    assert_same_answer(result, classification, vmin, mean, grad_l2)


@pytest.mark.parametrize("seed, classification, vmin, mean, grad_l2", SKT_48_PLAIN_NEWTON)
def test_skt_continuation_matches_plain_newton(seed, classification, vmin, mean, grad_l2):
    model = skt_2d()
    grid = make_grid(model.domain, 48)
    result = continuation_solve(model, grid, random_field(grid, 0.5 * COEX, 1.5 * COEX, seed=seed))
    assert_same_answer(result, classification, vmin, mean, grad_l2)


def test_continuation_builds_the_jacobian_pattern_once(monkeypatch):
    # An odd cell count keeps every stage on this one grid, which has one
    # system: the stages set its alpha.
    model = skt_2d()
    grid = make_grid(model.domain, 15)
    systems = set()
    assemble = pde_solver.DiscreteSystem.jacobian

    def recording(self, values):
        systems.add(id(self))
        return assemble(self, values)

    monkeypatch.setattr(pde_solver.DiscreteSystem, "jacobian", recording)
    pde_solver._jacobian_pattern.cache_clear()
    seed = random_field(grid, 0.5 * COEX, 1.5 * COEX, seed=0)
    result = continuation_solve(model, grid, seed)
    assert result.converged and len(result.t_path) > 1
    assert len(systems) == 1
    assert pde_solver._jacobian_pattern.cache_info().misses == 1


def test_continuation_stages_run_no_model_checks(monkeypatch):
    # A stage sets t * alpha on its grid's system: no Model is built,
    # so Model.__post_init__ never runs.
    from crossdiff.model import Model

    model = skt_2d()
    grid = make_grid(model.domain, 15)
    calls = []
    post_init = Model.__post_init__

    def counted(self):
        calls.append(self.m)
        post_init(self)

    monkeypatch.setattr(Model, "__post_init__", counted)
    seed = random_field(grid, 0.5 * COEX, 1.5 * COEX, seed=0)
    result = continuation_solve(model, grid, seed)
    assert result.converged and len(result.t_path) > 1
    assert calls == []


def test_continuation_failed_first_stage_reports_partial_result(monkeypatch):
    # One factorization can never reach tolerance from this seed, so the
    # t = 0 stage fails and ends the attempt.  The failed stage's
    # factorization is counted.  An odd cell count keeps the
    # stages on this grid.  With no stage converged the result is the
    # seed, with its residual norm at t = 1.
    model = weak_lv()
    grid = make_grid(model.domain, 15)
    seed = constant_field(grid, [0.37, 0.41])
    calls = factor_calls(monkeypatch)
    monkeypatch.setattr(pde_solver, "MAX_FACTORIZATIONS", 1)
    soft = continuation_solve(model, grid, seed)
    assert not soft.converged
    assert soft.factorizations == len(calls) == 1
    assert any(w.startswith("homotopy stage t = 0 failed") for w in soft.warnings)
    assert soft.t_path == () and soft.iterations == 0
    np.testing.assert_array_equal(soft.field.values, seed.values)
    assert soft.residual_norm == float(np.linalg.norm(discretize(model, grid).residual(seed.values)))


def test_failed_continuation_reports_the_target_residual_of_its_answer(monkeypatch):
    # Every stage with cross-diffusion fails, so only the t = 0 stage
    # converges and the stage after it ends the attempt: the result is
    # the t = 0 stage's field.  Its residual norm is the target's, at t = 1,
    # not the t = 0 stage's.
    model, grid, pattern = followed_turing_pattern(63)
    core = pde_solver._newton_core

    def no_cross_diffusion(system, values, tol):
        if system.alpha.any():
            return pde_solver._Run(values, [], 0, "forced failure")
        return core(system, values, tol)

    monkeypatch.setattr(pde_solver, "_newton_core", no_cross_diffusion)
    soft = continuation_solve(model, grid, pattern.field)
    assert not soft.converged and soft.t_path == (0.0,)
    assert soft.residual_history[-1] < 1e-8
    residual = float(np.linalg.norm(discretize(model, grid).residual(soft.field.values)))
    assert soft.residual_norm == residual > 1e-3


@pytest.mark.parametrize("steps, budget, stages, factorizations", [(2, 3, 3, 4), (1, 2, 2, 3)])
def test_iteration_budget_counts_factorizations_only(monkeypatch, steps, budget, stages, factorizations):
    # Chord steps that halve the residual are free.  Counted against the
    # budget they made a stage of these schedules fail, and the solve
    # with it.
    model, grid, pattern = followed_turing_pattern(63)
    calls = factor_calls(monkeypatch)
    monkeypatch.setattr(pde_solver, "HOMOTOPY_STEPS", steps)
    monkeypatch.setattr(pde_solver, "MAX_FACTORIZATIONS", budget)
    result = continuation_solve(model, grid, pattern.field)
    assert result.converged
    assert len(result.t_path) == stages
    assert result.factorizations == len(calls) == factorizations
    assert result.iterations > result.factorizations


# -- grid sequencing --------------------------------------------------------


def test_half_grid_needs_even_axes_of_min_cells():
    domain = skt_2d().domain
    assert pde_solver.half_grid(make_grid(domain, (48, 16))).shape == (24, 8)
    assert pde_solver.half_grid(make_grid(domain, (48, 15))) is None
    assert pde_solver.half_grid(make_grid(domain, (48, 14))) is None


@pytest.mark.parametrize("shape", [(32,), (16, 12)], ids=str)
def test_restriction_and_prolongation_keep_a_constant_bit_for_bit(shape):
    state = np.array([0.1, 10.0 / 17.0, 7e-5 / 3.0])
    fine = np.broadcast_to(state, shape + (3,)).copy()
    coarse = pde_solver.restrict(fine)
    assert coarse.shape == tuple(n // 2 for n in shape) + (3,)
    assert np.all(coarse == state)
    assert np.array_equal(pde_solver.prolong(coarse, dirichlet=False), fine)


def linear_profile(grid):
    # Two components, each affine in the coordinates.
    return 1.5 + grid.points() @ np.array([[0.3, -1.2], [2.0, 0.7]])[: grid.ndim]


@pytest.mark.parametrize("dirichlet", [False, True])
@pytest.mark.parametrize("kind", ["interval", "rectangle"])
def test_prolongation_is_exact_on_a_linear_profile_inside(kind, dirichlet):
    domain = coupled_model(kind, "neumann", 1.0).domain
    cells = (16,) if kind == "interval" else (16, 20)
    coarse, fine = make_grid(domain, tuple(n // 2 for n in cells)), make_grid(domain, cells)
    prolonged = pde_solver.prolong(linear_profile(coarse), dirichlet)
    inside = (slice(1, -1),) * fine.ndim
    np.testing.assert_allclose(prolonged[inside], linear_profile(fine)[inside], rtol=0, atol=1e-13)
    # The two children of a coarse cell are symmetric about it, so
    # averaging them back is exact too.
    np.testing.assert_allclose(
        pde_solver.restrict(linear_profile(fine)), linear_profile(coarse), rtol=0, atol=1e-13
    )


def test_prolongation_walls():
    # u = x on (0, pi): a Neumann wall repeats the wall cell; a Dirichlet
    # wall interpolates towards 0 on the wall, which u = x meets at x = 0.
    domain = weak_lv().domain
    coarse, fine = make_grid(domain, 8), make_grid(domain, 16)
    u = coarse.points()
    neumann = pde_solver.prolong(u, dirichlet=False)
    dirichlet = pde_solver.prolong(u, dirichlet=True)
    assert neumann[0, 0] == u[0, 0] and neumann[-1, 0] == u[-1, 0]
    assert dirichlet[0, 0] == 0.5 * u[0, 0] and dirichlet[-1, 0] == 0.5 * u[-1, 0]
    assert dirichlet[0, 0] == pytest.approx(fine.points()[0, 0], rel=1e-15)
    np.testing.assert_array_equal(neumann[1:-1], dirichlet[1:-1])


def single_grid(monkeypatch):
    """Make ``continuation_solve`` run its stages on the grid it is given."""
    monkeypatch.setattr(pde_solver, "half_grid", lambda grid: None)


def test_skt_sequenced_continuation_factors_only_the_half_grid(monkeypatch):
    # The stages run at 24 x 24 (1,152 unknowns); at 48 x 48 the prolonged
    # coexistence state already meets the tolerance.
    model = skt_2d()
    grid = make_grid(model.domain, 48)
    shapes = []
    factor = pde_solver._factor

    def recording(system, J):
        shapes.append(system.grid.shape)
        return factor(system, J)

    monkeypatch.setattr(pde_solver, "_factor", recording)
    result = continuation_solve(model, grid, random_field(grid, 0.5 * COEX, 1.5 * COEX, seed=0))
    assert result.converged
    assert 1 <= len(shapes) <= 2 and set(shapes) == {(24, 24)}
    assert result.factorizations == len(shapes)
    assert result.t_path == tuple(np.linspace(0.0, 1.0, 9))
    assert result.refinement.coarse_grid == (24, 24)
    assert result.refinement.coarse_classification == "nontrivial-constant"
    assert result.refinement.prolongation_gap <= 1e-12


def dirichlet_skt():
    model = skt_2d()
    return dataclasses.replace(model, bc=dataclasses.replace(model.bc, kind="dirichlet"))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_sequenced_dirichlet_skt_matches_the_single_grid_solve(monkeypatch, seed):
    # Zero walls admit no positive constant state: both routes find the
    # same nonconstant solution.  The coarse answer differs from it by
    # the discretization error, O(h^2), which is what a wrong
    # prolongation spoils.
    model = dirichlet_skt()
    grid = make_grid(model.domain, 32)
    seed_field = random_field(grid, 0.5 * COEX, 1.5 * COEX, seed=seed)
    sequenced = continuation_solve(model, grid, seed_field)
    single_grid(monkeypatch)
    direct = continuation_solve(model, grid, seed_field)
    assert sequenced.converged and direct.converged
    assert sequenced.classification == direct.classification == "nonconstant"
    np.testing.assert_allclose(sequenced.field.values, direct.field.values, rtol=0, atol=1e-8)
    assert direct.refinement is None
    refinement = sequenced.refinement
    assert refinement.coarse_grid == (16, 16)
    assert refinement.coarse_classification == "nonconstant"
    assert 0.0 < refinement.prolongation_gap < 0.1


def test_failed_fine_newton_falls_back_to_the_single_grid_stages(monkeypatch):
    model = skt_2d()
    grid = make_grid(model.domain, 16)
    seed = random_field(grid, 0.5 * COEX, 1.5 * COEX, seed=0)
    calls = factor_calls(monkeypatch)
    core = pde_solver._newton_core
    forced = []

    def failing_first_fine_run(system, values, tol):
        # The first Newton run on the full grid factors once and fails.
        if system.grid.shape == grid.shape and not forced:
            forced.append(values)
            pde_solver._factor(system, system.jacobian(values))
            return pde_solver._Run(values, [], 1, "forced failure")
        return core(system, values, tol)

    monkeypatch.setattr(pde_solver, "_newton_core", failing_first_fine_run)
    result = continuation_solve(model, grid, seed)
    assert forced
    assert result.factorizations == len(calls)
    sequenced_calls = len(calls)
    calls.clear()
    single_grid(monkeypatch)
    direct = continuation_solve(model, grid, seed)
    np.testing.assert_array_equal(result.field.values, direct.field.values)
    assert (result.converged, result.classification, result.t_path) == (
        direct.converged, direct.classification, direct.t_path,
    )
    assert (result.residual_norm, result.tolerance) == (direct.residual_norm, direct.tolerance)
    assert direct.factorizations == len(calls) < sequenced_calls
    assert result.iterations > direct.iterations
    # The coarse answer is still there as refinement evidence.
    assert result.refinement.coarse_grid == (8, 8)


def test_failed_coarse_stages_fall_back_to_the_single_grid_stages(monkeypatch):
    # As in the failed-first-stage test, on a grid that can be halved: the
    # coarse stages fail first, then the full-grid ones; both
    # factorizations count.
    model = weak_lv()
    grid = make_grid(model.domain, 16)
    calls = factor_calls(monkeypatch)
    monkeypatch.setattr(pde_solver, "MAX_FACTORIZATIONS", 1)
    soft = continuation_solve(model, grid, constant_field(grid, [0.37, 0.41]))
    assert not soft.converged
    assert soft.factorizations == len(calls) == 2
    assert soft.refinement is None
    assert any(w.startswith("homotopy stage t = 0 failed") for w in soft.warnings)


# -- mode seeding -----------------------------------------------------------


def mode_counts(model, count=5):
    """``N`` of modes 1 to ``count`` at ``u* = (1, 1)``, the count
    :func:`seed_from_mode` checks: the real eigenvalues of each mode's
    ``d_A^{-1} A_k`` below ``-1e-8`` times its 2-norm.  Entry ``k - 1``
    belongs to mode ``k``; the modes come from a brute-force lattice loop,
    whose limit puts the longest side's first ``count + 1`` modes below it."""
    u = np.ones(2)
    lengths = model.domain.lengths
    modes = brute_force_spectrum(lengths, ((count + 1) * np.pi / max(lengths)) ** 2)
    lam = np.array([v for v, _ in modes[1 : count + 1]])
    stack = (model.A(u) - model.jacobian_f(u) / lam[:, None, None]) / model.d_A(u)[:, None]
    scale = np.linalg.norm(stack, 2, axis=(-2, -1))[:, None]
    eigs = np.linalg.eigvals(stack)
    return ((np.abs(eigs.imag) <= 1e-10 * scale) & (eigs.real < -1e-8 * scale)).sum(axis=1)


def unstable_mode(model):
    """The first nonconstant mode of the index report's ``p < 0`` intervals."""
    negative = constant_state_index(model, np.ones(2)).negative
    return next(int(r["first_mode"]) for r in negative if r["first_mode"] >= 1 and r["modes"])


def stable_mode(model):
    return 1 + int(np.flatnonzero(mode_counts(model) == 0)[0])


def test_seed_from_mode_is_cosine_profile():
    model = turing()
    grid = make_grid(model.domain, 64)
    assert unstable_mode(model) == 1
    seed = seed_from_mode(model, np.ones(2), 1, amplitude=0.05, grid=grid)
    x = grid.points()[:, 0]
    psi = np.cos(x)
    dev = seed.values - 1.0
    # Each component must be exactly proportional to the eigenfunction,
    # with coefficient vector of length = amplitude.
    coeff = dev.T @ psi / (psi @ psi)
    np.testing.assert_allclose(dev, psi[:, None] * coeff, atol=1e-12)
    assert np.linalg.norm(coeff) == pytest.approx(0.05, rel=1e-10)
    np.testing.assert_allclose(dev.mean(axis=0), 0.0, atol=1e-12)


def test_seed_from_mode_numbers_square_modes_with_multiplicity():
    # On the pi x pi square lambda_hat = 1 is double: mode 1 is the lattice
    # point (0, 1), cos y, and mode 2 the point (1, 0), cos x.
    config = {**turing().to_config(), "domain": {"kind": "rectangle", "lengths": [PI, PI]}}
    model = build_model(config)
    grid = make_grid(model.domain, 16)
    points = grid.points()
    for k, psi in ((1, np.cos(points[..., 1])), (2, np.cos(points[..., 0]))):
        dev = seed_from_mode(model, np.ones(2), k, amplitude=0.05, grid=grid).values - 1.0
        coeff = np.tensordot(psi, dev, psi.ndim) / np.sum(psi**2)
        np.testing.assert_allclose(dev, psi[..., None] * coeff, atol=1e-12)
        assert np.linalg.norm(coeff) == pytest.approx(0.05, rel=1e-10)


def test_seed_from_mode_zero_amplitude_is_constant():
    model = turing()
    grid = make_grid(model.domain, 32)
    seed = seed_from_mode(model, np.ones(2), unstable_mode(model), 0.0, grid)
    np.testing.assert_array_equal(seed.values, np.ones((32, 2)))


def test_seed_from_mode_warns_on_stable_mode():
    model = turing()
    grid = make_grid(model.domain, 32)
    with pytest.warns(RuntimeWarning, match="not unstable"):
        seed_from_mode(model, np.ones(2), stable_mode(model), 0.1, grid)


def test_seed_from_mode_warns_exactly_on_modes_without_a_negative_count():
    # The README model: mode 1 (lambda_hat = 1) is the only unstable one.
    model = turing()
    grid = make_grid(model.domain, 32)
    counts = mode_counts(model)
    assert counts.tolist() == [1, 0, 0, 0, 0]
    assert unstable_mode(model) == 1
    for k, N in enumerate(counts.tolist(), start=1):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            seed_from_mode(model, np.ones(2), k, 0.1, grid)
        messages = [str(w.message) for w in caught]
        assert messages == ([] if N else [
            f"mode lambda_hat={k * k} is not unstable (N=0); "
            "seeding along its least stable direction anyway"
        ])


@pytest.mark.parametrize("k", [0, -1])
def test_seed_from_mode_rejects_mode_numbers_below_one(k):
    model = turing()
    with pytest.raises(ConfigError, match="mode number must be >= 1"):
        seed_from_mode(model, np.ones(2), k, 0.1, make_grid(model.domain, 32))


def test_seed_from_mode_floors_at_positive_values():
    model = turing()
    grid = make_grid(model.domain, 64)
    seed = seed_from_mode(model, np.ones(2), unstable_mode(model), 50.0, grid)
    assert seed.values.min() > 0.0


def test_seed_from_mode_requires_neumann():
    model = interval_model(
        2, (0.4, 7.0), (1.0, 1.0), ((-1.0, 2.0), (-3.0, 4.0)), bc="dirichlet"
    )
    grid = make_grid(model.domain, 32)
    with pytest.raises(ModelError, match="[Nn]eumann"):
        seed_from_mode(model, np.ones(2), 1, 0.1, grid)


# -- classification ---------------------------------------------------------


def test_classify_field_taxonomy():
    model = weak_lv()
    grid = make_grid(model.domain, 32)
    z = np.zeros((32, 2))
    assert classify_field(model, z) == "trivial"
    semi = constant_field(grid, [1.0, 0.0]).values
    assert classify_field(model, semi) == "semitrivial-constant"
    full = constant_field(grid, [1.0, 1.0]).values
    assert classify_field(model, full) == "nontrivial-constant"
    x = grid.points()[:, 0]
    wavy = full + 0.1 * np.cos(x)[:, None]
    assert classify_field(model, wavy) == "nonconstant"
    # Any component below -TOL_ZERO at any node: outside the positive
    # cone, whether the field is constant or not.
    assert classify_field(model, constant_field(grid, [-1.0, 0.0]).values) == "negative"
    assert classify_field(model, wavy - 1.81) == "negative"  # min -0.91
    assert classify_field(model, full - np.where(x < 1.0, 1.0 + 2e-8, 0.0)[:, None]) == "negative"
    # A wall value of -4.7e-28 (the Dirichlet golden's minimum) is zero.
    assert classify_field(model, wavy * (x > 0.1)[:, None] - 4.7e-28) == "nonconstant"
