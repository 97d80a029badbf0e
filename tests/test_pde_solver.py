"""Finite-difference discretization, Newton and continuation solvers."""

from __future__ import annotations

import dataclasses
import warnings

import numpy as np
import pytest
import scipy.sparse as sp

from crossdiff import (
    ConfigError,
    ConvergenceError,
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
    pde_solver,
    random_field,
    seed_from_mode,
)

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


# -- Newton -----------------------------------------------------------------


def splu_calls(monkeypatch):
    """Record every ``splu`` call the solver makes, failed ones included."""
    calls = []
    factor = pde_solver.splu

    def recording(*args, **kwargs):
        calls.append(1)
        return factor(*args, **kwargs)

    monkeypatch.setattr(pde_solver, "splu", recording)
    return calls


def test_newton_finds_coexistence_from_nearby_constant():
    model = weak_lv()
    grid = make_grid(model.domain, 64)
    result = newton_solve(model, grid, constant_field(grid, [0.6, 0.8]))
    assert result.converged
    assert result.classification == "nontrivial-constant"
    assert result.grad_l2 < 1e-10
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


def test_newton_singular_jacobian_raises_convergence_error(monkeypatch):
    # u = 1/2 zeroes the logistic derivative pointwise, so the Jacobian
    # is the bare Neumann operator — exactly singular.  The failed
    # factorization still counts.
    model = interval_model(1, (1.0,), (1.0,), ((1.0,),))
    grid = make_grid(model.domain, 32)
    seed = constant_field(grid, [0.5])
    with pytest.raises(ConvergenceError):
        newton_solve(model, grid, seed, max_iter=3)
    calls = splu_calls(monkeypatch)
    soft = newton_solve(model, grid, seed, max_iter=3, strict=False)
    assert not soft.converged
    assert soft.warnings
    assert soft.factorizations == len(calls) == 1


def test_failed_soft_newton_reports_its_last_iterate():
    # Two factorizations from a random field around u* = (1, 1) pay for
    # two Newton steps and one chord step, which leave a residual of
    # 0.4868: the result is that iterate, not the seed.
    model = turing()
    grid = make_grid(model.domain, 64)
    seed = random_field(grid, [0.5, 0.5], [1.5, 1.5], seed=0)
    full = newton_solve(model, grid, seed)
    soft = newton_solve(model, grid, seed, max_iter=2, strict=False)
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
    assert pattern.classification == "nonconstant"
    model = interval_model(
        2, (0.4, 7.0), (1.0, 1.0), ((-1.0, 2.0), (-3.0, 4.0)),
        alpha=((0.0, 0.0), (0.0, 0.2)),
    )
    return model, grid, pattern


def test_continuation_bisects_on_stage_failure(monkeypatch):
    # Follow a Turing pattern as cross-diffusion is switched on.  One
    # factorization per stage cannot cross half the path in one step, so
    # the solver must insert midpoints that are not on the requested
    # grid.  The factorizations of the failed stages are counted too.
    # An odd cell count keeps the stages on this grid.
    model, grid, pattern = followed_turing_pattern(63)
    calls = splu_calls(monkeypatch)
    result = continuation_solve(model, grid, pattern.field, steps=2, max_iter=1)
    assert result.converged
    assert result.factorizations == len(calls)
    assert result.classification == "nonconstant"
    assert result.t_path[0] == 0.0 and result.t_path[-1] == 1.0
    assert all(b > a for a, b in zip(result.t_path, result.t_path[1:]))
    assert any(t not in (0.0, 0.5, 1.0) for t in result.t_path)
    residual = discretize(model, grid).residual(result.field.values)
    assert np.linalg.norm(residual) <= result.tolerance


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
    calls = splu_calls(monkeypatch)
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
    calls = splu_calls(monkeypatch)
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
    assert result.grad_l2 == pytest.approx(grad_l2, rel=1e-8, abs=1e-8)


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
    # An odd cell count keeps every stage on this one grid.
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
    assert result.converged
    assert len(systems) > 1
    assert pde_solver._jacobian_pattern.cache_info().misses == 1


def test_continuation_schedule_validation():
    model = weak_lv()
    grid = make_grid(model.domain, 16)
    seed = constant_field(grid, [0.6, 0.8])
    with pytest.raises(ModelError, match="steps"):
        continuation_solve(model, grid, seed, steps=0)


def test_continuation_underflow_reports_partial_result(monkeypatch):
    # One factorization can never reach tolerance from this seed, so the
    # t = 0 stage fails and the homotopy step underflows.  The failed
    # stage's factorization is counted.  An odd cell count keeps the
    # stages on this grid.
    model = weak_lv()
    grid = make_grid(model.domain, 15)
    seed = constant_field(grid, [0.37, 0.41])
    calls = splu_calls(monkeypatch)
    with pytest.raises(ConvergenceError, match="underflow") as excinfo:
        continuation_solve(model, grid, seed, max_iter=1)
    assert excinfo.value.result is not None
    assert not excinfo.value.result.converged
    calls.clear()
    soft = continuation_solve(model, grid, seed, max_iter=1, strict=False)
    assert not soft.converged
    assert soft.factorizations == len(calls) == 1
    assert any("underflow" in w for w in soft.warnings)


@pytest.mark.parametrize("steps, max_iter, stages, factorizations", [(2, 3, 3, 4), (1, 2, 2, 3)])
def test_iteration_budget_counts_factorizations_only(monkeypatch, steps, max_iter, stages, factorizations):
    # Chord steps that halve the residual are free.  Counted against the
    # budget they made these schedules bisect: (2, 3) took 408 stages and
    # 814 factorizations, (1, 2) took 2,724 stages and 5,448.
    model, grid, pattern = followed_turing_pattern(63)
    calls = splu_calls(monkeypatch)
    result = continuation_solve(model, grid, pattern.field, steps=steps, max_iter=max_iter)
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
    rows = []
    factor = pde_solver.splu

    def recording(J, **kwargs):
        rows.append(J.shape[0])
        return factor(J, **kwargs)

    monkeypatch.setattr(pde_solver, "splu", recording)
    result = continuation_solve(model, grid, random_field(grid, 0.5 * COEX, 1.5 * COEX, seed=0))
    assert result.converged
    assert 1 <= len(rows) <= 2 and set(rows) == {2 * 24 * 24}
    assert result.factorizations == len(rows)
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
    calls = splu_calls(monkeypatch)
    core = pde_solver._newton_core
    forced = []

    def failing_first_fine_run(system, values, tol, max_iter):
        # The first Newton run on the full grid factors once and fails.
        if system.grid.shape == grid.shape and not forced:
            forced.append(values)
            pde_solver.splu(system.jacobian(values), permc_spec="MMD_AT_PLUS_A")
            raise pde_solver._NewtonFailure("forced failure", values, [], 1)
        return core(system, values, tol, max_iter)

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
    # As in the underflow test, on a grid that can be halved: the coarse
    # stages fail first, then the full-grid ones; both factorizations count.
    model = weak_lv()
    grid = make_grid(model.domain, 16)
    calls = splu_calls(monkeypatch)
    soft = continuation_solve(model, grid, constant_field(grid, [0.37, 0.41]), max_iter=1, strict=False)
    assert not soft.converged
    assert soft.factorizations == len(calls) == 2
    assert soft.refinement is None
    assert any("underflow" in w for w in soft.warnings)


# -- mode seeding -----------------------------------------------------------


def mode_counts(model):
    """``N`` of every mode the ledger decides at ``u* = (1, 1)``; entry
    ``k - 1`` belongs to mode number ``k``."""
    return constant_state_index(model, np.ones(2)).mode_decisions.N


def unstable_mode(model):
    return 1 + int(np.flatnonzero(mode_counts(model) >= 1)[0])


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
