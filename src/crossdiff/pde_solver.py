"""Finite-difference solver for the cross-diffusion steady-state system.

Cell-centered grids on intervals/rectangles; face fluxes use the
arithmetic mean of adjacent states inside ``A``; the Jacobian is
assembled analytically (flux blocks plus reaction blocks) into a CSC
sparsity pattern that is built once per ``(grid shape, m, boundary
kind)`` and shared by every system on that grid: each call computes
only the block values and sums them into their slots with
``np.bincount``, in assembly order (faces axis by axis, Dirichlet
walls after each axis's faces, reaction blocks last).  Newton factors
it with SuperLU under the minimum-degree ordering on the pattern of
``J + J^T`` (``permc_spec="MMD_AT_PLUS_A"``), which suits this
structurally symmetric stencil matrix.  Solvers:
damped Newton, and homotopy continuation in the cross-diffusion
strength (``alpha -> t * alpha`` for ``t`` from 0 to 1), the
deformation to the weakly coupled system that the degree argument
uses: every constant state is a root of every member of the family.

Newton reuses a factorization while it pays (a chord step, as in
Deuflhard's *Newton Methods for Nonlinear Problems*): once a Newton run
holds an LU, each iteration first takes the full step from that stale
factor and keeps it when the residual norm contracts by at least
``CHORD_CONTRACTION = 0.5``; otherwise the factor is dropped and the
iteration refactors at the current iterate and takes the damped Newton
step.  The factor never outlives one Newton run, i.e. one
continuation stage.  A run's ``max_iter`` budget bounds its
factorizations: a chord step that halves the residual is free.

The continuation is grid-sequenced (mesh sequencing, a Newton globalizer
in Knoll & Keyes, *J. Comput. Phys.* 193, 2004).  When every axis has an
even cell count and half of it is at least ``MIN_CELLS``, the homotopy
stages run on the grid with half the cells, from the seed averaged over
each block of ``2^d`` children; one Newton run at ``t = 1`` then solves
on the full grid from the coarse answer, prolonged by cell-centred
linear interpolation.  The coarse answer is reported as refinement
evidence: its classification and ``max |u_h - P u_2h|``.  When the
coarse stages or the fine run fail, the stages run again on the full
grid from the original seed.

The flux convention: on a cell-centered grid the face flux between
neighbours ``p`` and ``q`` is ``A((u_p + u_q)/2) (u_q - u_p)/h`` and
the residual is ``-(flux divergence) - f(u)``.  Neumann walls carry
zero flux; Dirichlet walls reflect the ghost state (``u_ghost =
-u_wall``) so the face value is pinned at 0 and the wall coefficient is
``A(0) = diag(d)``.
"""

from __future__ import annotations

import dataclasses
import functools
import warnings as _warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np
import scipy.sparse as sp
from numpy.typing import NDArray
from scipy.sparse.linalg import splu

from .index_theory import negative_counts
from .model import ConfigError, Domain, Model, ModelError
from .spectral import eigenfunction, neumann_eigenvalues

TOL_NEWTON = 1e-10
TOL_ZERO = 1e-8
TOL_CONST = 1e-6
MIN_STEP = 1e-4
MIN_CELLS = 8
# A chord step from a stale LU is kept when it cuts the residual norm by
# at least this factor; otherwise the Jacobian is refactored.
CHORD_CONTRACTION = 0.5


class ConvergenceError(RuntimeError):
    """Solver failed: stagnation, divergence, or iteration budget hit."""

    def __init__(self, message: str, result: "SolveResult | None" = None) -> None:
        super().__init__(message)
        self.result = result


class _NewtonFailure(ConvergenceError):
    """A Newton run that stopped short, with its last iterate, the
    residual norms of every iterate up to it (empty when the seed's
    residual is not finite) and the number of ``splu`` calls it made."""

    def __init__(
        self,
        message: str,
        values: NDArray[np.float64],
        history: list[float],
        factorizations: int,
    ) -> None:
        super().__init__(message)
        self.values = values
        self.history = history
        self.factorizations = factorizations


@dataclass(frozen=True)
class Grid:
    """Cell-centered tensor grid over an interval or rectangle."""

    domain: Domain
    n_cells: tuple[int, ...]
    h: tuple[float, ...]
    coords: tuple[NDArray[np.float64], ...]

    @property
    def ndim(self) -> int:
        return len(self.n_cells)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.n_cells

    @property
    def n_nodes(self) -> int:
        out = 1
        for n in self.n_cells:
            out *= n
        return out

    @property
    def cell_volume(self) -> float:
        out = 1.0
        for h in self.h:
            out *= h
        return out

    def points(self) -> NDArray[np.float64]:
        """Node coordinates, shape ``grid.shape + (ndim,)``."""
        mesh = np.meshgrid(*self.coords, indexing="ij")
        return np.stack(mesh, axis=-1)


def make_grid(domain: Domain, n_cells: int | Sequence[int]) -> Grid:
    """Build a cell-centered grid with at least 8 cells per axis."""
    if isinstance(n_cells, (int, np.integer)):
        ns = (int(n_cells),) * domain.dimension
    else:
        ns = tuple(int(n) for n in n_cells)
    if len(ns) != domain.dimension:
        raise ConfigError(f"n_cells needs {domain.dimension} entries, got {len(ns)}")
    if any(n < MIN_CELLS for n in ns):
        raise ConfigError(f"grid too coarse (min {MIN_CELLS} cells per axis): {ns}")
    hs = tuple(L / n for L, n in zip(domain.lengths, ns))
    coords = tuple(
        (np.arange(n) + 0.5) * h for n, h in zip(ns, hs)
    )
    return Grid(domain=domain, n_cells=ns, h=hs, coords=coords)


@dataclass
class DiscreteField:
    """Vector field sampled at grid nodes, shape ``grid.shape + (m,)``."""

    grid: Grid
    values: NDArray[np.float64]

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape[:-1] != self.grid.shape:
            raise ModelError(
                f"values shape {self.values.shape} does not match grid "
                f"{self.grid.shape} + (m,)"
            )
        if not np.all(np.isfinite(self.values)):
            raise ModelError("field contains non-finite values")

    @property
    def m(self) -> int:
        return self.values.shape[-1]

    def component(self, i: int) -> NDArray[np.float64]:
        return self.values[..., i]

    def copy(self) -> "DiscreteField":
        return DiscreteField(grid=self.grid, values=self.values.copy())


def constant_field(grid: Grid, u0: Sequence[float]) -> DiscreteField:
    u0 = np.asarray(u0, dtype=float)
    values = np.broadcast_to(u0, grid.shape + u0.shape).copy()
    return DiscreteField(grid=grid, values=values)


def random_field(
    grid: Grid,
    low: Sequence[float],
    high: Sequence[float],
    seed: int = 0,
) -> DiscreteField:
    """Componentwise-uniform random field with a deterministic seed."""
    low = np.atleast_1d(np.asarray(low, dtype=float))
    high = np.atleast_1d(np.asarray(high, dtype=float))
    if low.shape != high.shape:
        raise ModelError("low and high must have matching shapes")
    rng = np.random.default_rng(seed)
    values = low + rng.random(grid.shape + low.shape) * (high - low)
    return DiscreteField(grid=grid, values=values)


def _node_ids(shape: tuple[int, ...]) -> NDArray[np.intp]:
    return np.arange(int(np.prod(shape))).reshape(shape)


def axis_slices(ndim: int, axis: int) -> tuple[tuple, tuple, tuple[tuple, tuple]]:
    """Index tuples along ``axis`` of an array shaped like the grid.

    Returns ``(p, q, (low, high))``: ``p`` and ``q`` select the two cells
    on either side of every interior face normal to ``axis``, and
    ``low``/``high`` the cell layers at its two walls.  Trailing
    component axes pass through untouched.
    """

    return (
        _at(ndim, axis, slice(None, -1)),
        _at(ndim, axis, slice(1, None)),
        (_at(ndim, axis, 0), _at(ndim, axis, -1)),
    )


def _at(ndim: int, axis: int, index: slice | int) -> tuple:
    """Index tuple that applies ``index`` along ``axis`` of an
    ``ndim``-axis array and passes the other axes through."""
    sl: list[slice | int] = [slice(None)] * ndim
    sl[axis] = index
    return tuple(sl)


class DiscreteSystem:
    """Residual and Jacobian of the discretized system.

    ``residual(values)`` returns ``-(flux divergence) - f(u)`` minus any
    forcing; ``jacobian(values)`` the sparse analytic derivative.
    """

    def __init__(
        self,
        model: Model,
        grid: Grid,
        forcing: NDArray[np.float64] | None = None,
    ) -> None:
        if grid.domain.dimension != model.domain.dimension:
            raise ModelError("grid and model domains have different dimensions")
        self.model = model
        self.grid = grid
        self.dirichlet = model.bc.kind == "dirichlet"
        if forcing is not None:
            forcing = np.asarray(forcing, dtype=float)
            if forcing.shape != grid.shape + (model.m,):
                raise ModelError(
                    f"forcing shape {forcing.shape} does not match field shape"
                )
        self.forcing = forcing
        self.n_dof = grid.n_nodes * model.m

    # -- residual ---------------------------------------------------------

    def residual(self, values: NDArray[np.float64]) -> NDArray[np.float64]:
        model = self.model
        ndim = self.grid.ndim
        R = -model.f(values)
        for axis, h in enumerate(self.grid.h):
            p, q, _ = axis_slices(ndim, axis)
            u_p = values[p]
            u_q = values[q]
            v = 0.5 * (u_p + u_q)
            du = (u_q - u_p) / h
            flux = (model.d + v @ model.alpha.T) * du + v * (du @ model.alpha.T)
            R[p] -= flux / h
            R[q] += flux / h
        # Walls after all faces: the order fixes the corner cells' bits.
        if self.dirichlet:
            for axis, h in enumerate(self.grid.h):
                for wall in axis_slices(ndim, axis)[2]:
                    R[wall] += 2.0 * model.d * values[wall] / h**2
        if self.forcing is not None:
            R = R - self.forcing
        return R

    # -- Jacobian ---------------------------------------------------------

    def jacobian(self, values: NDArray[np.float64]) -> sp.csc_matrix:
        """Sparse analytic Jacobian in CSC form on the grid's shared pattern.

        The m x m blocks are listed axis by axis (``(p,p)``, ``(p,q)``,
        ``(q,p)``, ``(q,q)`` per face, then the Dirichlet wall diagonal),
        then the reaction blocks; ``np.bincount`` sums them into their
        CSC slots in that order.
        """
        model = self.model
        m = model.m
        ndim = self.grid.ndim
        pattern = _jacobian_pattern(self.grid.shape, m, self.dirichlet)
        blocks: list[NDArray[np.float64]] = []
        idx = np.arange(m)
        for axis, h in enumerate(self.grid.h):
            sl_p, sl_q, _ = axis_slices(ndim, axis)
            u_p = values[sl_p].reshape(-1, m)
            u_q = values[sl_q].reshape(-1, m)
            K = model.A(0.5 * (u_p + u_q)) / h**2
            du = (u_q - u_p) / h
            G = model.alpha[None, :, :] * du[:, :, None]
            G[:, idx, idx] += du @ model.alpha.T
            S = (1.0 / (2.0 * h)) * G
            blocks += [K - S, -K - S, -K + S, K + S]
            if self.dirichlet:
                n_wall = 2 * (self.grid.n_nodes // self.grid.shape[axis])
                blocks.append(np.tile(2.0 * model.d / h**2, n_wall))
        blocks.append(-model.jacobian_f(values.reshape(-1, m)))
        data = np.bincount(
            pattern.slots,
            weights=np.concatenate([b.reshape(-1) for b in blocks]),
            minlength=pattern.indices.size,
        )
        return sp.csc_matrix(
            (data, pattern.indices, pattern.indptr), shape=(self.n_dof, self.n_dof)
        )


@dataclass(frozen=True)
class _JacobianPattern:
    """CSC structure of the Jacobian on one grid.

    ``slots[k]`` is the position in ``data`` of the k-th entry that
    :meth:`DiscreteSystem.jacobian` assembles, in its order.
    """

    indptr: NDArray[np.int32]
    indices: NDArray[np.int32]
    slots: NDArray[np.intp]


@functools.lru_cache(maxsize=4)
def _jacobian_pattern(
    shape: tuple[int, ...], m: int, dirichlet: bool
) -> _JacobianPattern:
    """Sparsity pattern of the Jacobian, built once per grid and shared.

    Column ``node*m + b`` holds the rows of the node's stencil in
    ascending order: its lower neighbours along axes 0, 1, ..., itself,
    then its upper neighbours along axes ..., 1, 0 (axis 0 has the
    largest stride), each as ``m`` consecutive component rows.  Every
    slot follows from that layout in closed form, without a sort.
    """
    ndim = len(shape)
    ids = _node_ids(shape)
    width = 2 * ndim + 1  # stencil positions; position ndim is the node
    present = np.ones(shape + (width,), dtype=np.intp)
    for axis in range(ndim):
        _, _, (low, high) = axis_slices(ndim, axis)
        present[low + (axis,)] = 0
        present[high + (width - 1 - axis,)] = 0
    present = present.reshape(ids.size, width)
    col_len = m * present.sum(axis=1)
    indptr = np.zeros(ids.size * m + 1, dtype=np.intp)
    np.cumsum(np.repeat(col_len, m), out=indptr[1:])
    # Slot of row component 0 at each stencil position of column ``node*m``.
    first = indptr[:-1:m, None] + m * (np.cumsum(present, axis=1) - present)
    indices = np.empty(indptr[-1], dtype=np.int32)

    def entries(rows, cols, pos) -> NDArray[np.intp]:
        # Slots of the m x m blocks at node pairs (rows, cols), listed
        # [pair, a, b]; records their row indices.
        base = first[cols, pos]
        out = np.empty((cols.size, m, m), dtype=np.intp)
        for a in range(m):
            for b in range(m):
                np.add(base, b * col_len[cols] + a, out=out[:, a, b])
                indices[out[:, a, b]] = rows * m + a
        return out.reshape(-1)

    slots = []
    for axis in range(ndim):
        sl_p, sl_q, (low, high) = axis_slices(ndim, axis)
        p = ids[sl_p].ravel()
        q = ids[sl_q].ravel()
        pos = np.repeat([ndim, axis, width - 1 - axis, ndim], p.size)
        rows, cols = np.concatenate([p, p, q, q]), np.concatenate([p, q, p, q])
        slots.append(entries(rows, cols, pos))
        if dirichlet:
            # The wall diagonal lies in the node's own block.
            w = np.concatenate([ids[low].ravel(), ids[high].ravel()])
            diag = first[w, ndim][:, None] + np.arange(m) * (col_len[w][:, None] + 1)
            slots.append(diag.reshape(-1))
    nodes = ids.ravel()
    slots.append(entries(nodes, nodes, ndim))
    slots = np.concatenate(slots)
    # An unfilled slot would hand uninitialised row indices to SuperLU.
    if np.bincount(slots, minlength=indices.size).min() == 0:
        raise RuntimeError(f"Jacobian pattern on {shape} leaves a slot empty")
    pattern = _JacobianPattern(indptr.astype(np.int32), indices, slots)
    for arr in (pattern.indptr, pattern.indices, pattern.slots):
        arr.flags.writeable = False
    return pattern


def discretize(
    model: Model,
    grid: Grid,
    forcing: NDArray[np.float64] | None = None,
) -> DiscreteSystem:
    """Residual operator and Jacobian assembler on the given grid."""
    return DiscreteSystem(model, grid, forcing=forcing)


@dataclass(frozen=True)
class Refinement:
    """The coarse-grid answer of a grid-sequenced solve, as evidence.

    ``prolongation_gap`` is ``max |u_h - P u_2h|``, the largest
    difference between the fine answer and the prolonged coarse one.
    """

    coarse_grid: tuple[int, ...]
    coarse_classification: str
    prolongation_gap: float


@dataclass(frozen=True)
class SolveResult:
    """Outcome of one nonlinear solve (possibly through a homotopy path).

    ``iterations`` counts the accepted steps, chord and Newton, of the
    stages that converged; ``factorizations`` counts every ``splu``
    call of the solve, failed and bisected stages included.
    ``refinement`` holds the coarse answer of a grid-sequenced
    continuation, ``None`` for a solve on one grid.
    """

    field: DiscreteField
    converged: bool
    residual_norm: float
    iterations: int
    factorizations: int
    t_path: tuple[float, ...]
    classification: str
    grad_l2: float
    tolerance: float
    warnings: tuple[str, ...] = ()
    residual_history: tuple[float, ...] = ()
    refinement: Refinement | None = None


def classify_field(
    model: Model,
    values: NDArray[np.float64],
    tol_zero: float = TOL_ZERO,
    tol_const: float = TOL_CONST,
) -> str:
    """Constant/zero taxonomy of a field: trivial, semitrivial-constant,
    nontrivial-constant, or nonconstant."""
    flat = values.reshape(-1, model.m)
    comp_max = np.abs(flat).max(axis=0)
    means = flat.mean(axis=0)
    dev = np.abs(flat - means).max(axis=0)
    if np.any(dev >= tol_const * (1.0 + np.abs(means))):
        return "nonconstant"
    zero = comp_max < tol_zero
    if zero.all():
        return "trivial"
    if zero.any():
        return "semitrivial-constant"
    return "nontrivial-constant"


def _grad_l2(grid: Grid, values: NDArray[np.float64]) -> float:
    from .diagnostics import norms as _norms

    return _norms(DiscreteField(grid=grid, values=values))[1]


def _finalize(
    model: Model,
    grid: Grid,
    seed: NDArray[np.float64],
    values: NDArray[np.float64],
    converged: bool,
    residual_norm: float,
    iterations: int,
    factorizations: int,
    t_path: tuple[float, ...],
    tolerance: float,
    history: Sequence[float],
    extra_warnings: Sequence[str] = (),
    coarse: tuple[Grid, NDArray[np.float64]] | None = None,
) -> SolveResult:
    warns = list(extra_warnings)
    classification = classify_field(model, values)
    refinement = None
    if coarse is not None:
        coarse_grid, coarse_values = coarse
        refinement = Refinement(
            coarse_grid=coarse_grid.n_cells,
            coarse_classification=classify_field(model, coarse_values),
            prolongation_gap=float(
                np.abs(values - prolong(coarse_values, model.bc.kind == "dirichlet")).max()
            ),
        )
        if refinement.coarse_classification != classification:
            warns.append(
                f"classification changes on refinement: {refinement.coarse_classification} "
                f"on the {'x'.join(map(str, coarse_grid.n_cells))} grid, "
                f"{classification} on the {'x'.join(map(str, grid.n_cells))} grid"
            )
    vmin = float(values.min())
    if vmin < -TOL_ZERO:
        warns.append(
            f"positivity violated: minimum component value {vmin:.3e} "
            "(reported, not clipped)"
        )
    seed_max = np.abs(seed.reshape(-1, model.m)).max(axis=0)
    comp_max = np.abs(values.reshape(-1, model.m)).max(axis=0)
    for i in np.flatnonzero((seed_max >= TOL_ZERO) & (comp_max < TOL_ZERO)):
        warns.append(f"species {i + 1} present in the seed vanished from the solution")
    return SolveResult(
        field=DiscreteField(grid=grid, values=values),
        converged=converged,
        residual_norm=residual_norm,
        iterations=iterations,
        factorizations=factorizations,
        t_path=t_path,
        classification=classification,
        grad_l2=_grad_l2(grid, values),
        tolerance=tolerance,
        warnings=tuple(warns),
        residual_history=tuple(history),
        refinement=refinement,
    )


def _seed_values(seed: DiscreteField | NDArray[np.float64], grid: Grid, m: int) -> NDArray[np.float64]:
    values = seed.values if isinstance(seed, DiscreteField) else np.asarray(seed, dtype=float)
    if values.shape != grid.shape + (m,):
        raise ModelError(
            f"seed shape {values.shape} does not match grid shape {grid.shape + (m,)}"
        )
    if not np.all(np.isfinite(values)):
        raise ModelError("seed contains non-finite values")
    return values.astype(float).copy()


def _newton_core(
    system: DiscreteSystem,
    values: NDArray[np.float64],
    tol: float,
    max_iter: int,
) -> tuple[NDArray[np.float64], float, float, int, list[float], int]:
    """Chord-accelerated damped Newton.

    Returns ``(values, residual_norm, abs_tol, iterations, history,
    factorizations)``.  A Newton step assembles the Jacobian on the
    grid's shared CSC pattern (duplicates summed in assembly order),
    factors it with ``splu`` under the ``MMD_AT_PLUS_A`` column ordering
    and takes a damped step.  Once the run holds a factorization, each
    iteration first tries the full chord step ``lu.solve(-R)`` from that
    stale factor and keeps it when ``||R(u + delta)|| <= CHORD_CONTRACTION
    * ||R(u)||``; otherwise it drops the factor and takes a Newton step
    at the current iterate.  Both kinds of step count as iterations;
    ``max_iter`` bounds the factorizations, so a chord step that keeps
    halving the residual is free.  A run that stops short raises
    :class:`_NewtonFailure` with its last iterate and its factorization
    count.
    """
    R = system.residual(values)
    rn = float(np.linalg.norm(R))
    if not np.isfinite(rn):
        raise _NewtonFailure("NaN in residual at the seed", values, [], 0)
    history = [rn]
    factorizations = 0

    def failure(message: str) -> _NewtonFailure:
        return _NewtonFailure(message, values, history, factorizations)

    # Relative convergence test: flux cancellations floor the achievable
    # absolute residual at roughly eps * ||A|| * ||u|| / h^2.
    abs_tol = tol * (1.0 + rn)
    lu = None
    while rn > abs_tol:
        if lu is not None:
            delta = lu.solve(-R.reshape(-1)).reshape(values.shape)
            if np.all(np.isfinite(delta)):
                trial = values + delta
                R_try = system.residual(trial)
                rt = float(np.linalg.norm(R_try))
                if rt <= CHORD_CONTRACTION * rn:
                    values, R, rn = trial, R_try, rt
                    history.append(rn)
                    continue
            # Release the stale factor first: two L + U never coexist.
            lu = None
        if factorizations == max_iter:
            raise failure(
                f"no convergence within {max_iter} factorizations (residual "
                f"{rn:.3e}, target {abs_tol:.3e})"
            )
        J = system.jacobian(values)
        factorizations += 1
        try:
            lu = splu(J, permc_spec="MMD_AT_PLUS_A")
            delta = lu.solve(-R.reshape(-1))
        except RuntimeError as exc:
            raise failure(f"linear solve failed: {exc}") from exc
        if not np.all(np.isfinite(delta)):
            raise failure("non-finite Newton step (singular Jacobian)")
        delta = delta.reshape(values.shape)
        alpha = 1.0
        while True:
            trial = values + alpha * delta
            R_try = system.residual(trial)
            rt = float(np.linalg.norm(R_try))
            if np.isfinite(rt) and rt <= (1.0 - 1e-4 * alpha) * rn:
                break
            alpha *= 0.5
            if alpha < 1e-12:
                raise failure(
                    f"line search stagnates at iteration {len(history)} "
                    f"(residual {rn:.3e})"
                )
        values, R, rn = trial, R_try, rt
        history.append(rn)
    return values, rn, abs_tol, len(history) - 1, history, factorizations


def newton_solve(
    model: Model,
    grid: Grid,
    seed: DiscreteField | NDArray[np.float64],
    tol: float = TOL_NEWTON,
    max_iter: int = 100,
    forcing: NDArray[np.float64] | None = None,
    strict: bool = True,
) -> SolveResult:
    """Damped-Newton solve, with chord steps, from a seed field.

    With ``strict`` (default) solver failures raise
    :class:`ConvergenceError`; otherwise a non-converged
    :class:`SolveResult` is returned with the failure reason attached.
    It holds the last iterate, its residual norm, the steps taken (chord
    and Newton), the factorizations made and the residual history.
    ``max_iter`` bounds the factorizations.
    """
    start = _seed_values(seed, grid, model.m)
    system = discretize(model, grid, forcing=forcing)
    try:
        values, rn, abs_tol, its, history, lus = _newton_core(
            system, start, tol, max_iter
        )
    except _NewtonFailure as exc:
        if strict:
            raise
        return _finalize(
            model, grid, start, exc.values, False,
            exc.history[-1] if exc.history else float("nan"),
            max(len(exc.history) - 1, 0), exc.factorizations, (1.0,), tol,
            exc.history, extra_warnings=(str(exc),),
        )
    return _finalize(
        model, grid, start, values, True, rn, its, lus, (1.0,), abs_tol, history
    )


def half_grid(grid: Grid) -> Grid | None:
    """The grid with half the cells per axis, or ``None`` when an axis
    has an odd cell count or would fall below ``MIN_CELLS``."""
    if any(n % 2 or n // 2 < MIN_CELLS for n in grid.n_cells):
        return None
    return make_grid(grid.domain, tuple(n // 2 for n in grid.n_cells))


def restrict(values: NDArray[np.float64]) -> NDArray[np.float64]:
    """Average each block of ``2^d`` fine cells onto its coarse parent.

    ``values`` has shape ``grid.shape + (m,)`` with every axis even.
    The average is taken in pairs, axis by axis, so a constant field
    restricts to itself bit for bit.
    """
    ndim = values.ndim
    for axis in range(ndim - 1):
        even = values[_at(ndim, axis, slice(0, None, 2))]
        odd = values[_at(ndim, axis, slice(1, None, 2))]
        values = 0.5 * (even + odd)
    return values


def prolong(values: NDArray[np.float64], dirichlet: bool) -> NDArray[np.float64]:
    """Cell-centred linear interpolation onto the grid with twice the cells.

    Along each axis, in turn, a coarse cell ``u`` hands each of its two
    children ``u + 0.25 (u_nb - u)``, with ``u_nb`` the coarse neighbour
    on that child's side, so a constant field prolongs to itself bit for
    bit.  Past a wall the neighbour is a ghost: the wall cell itself
    under Neumann walls, its negative under Dirichlet walls (the value
    0 pinned on the wall).
    """
    sign = -1.0 if dirichlet else 1.0
    ndim = values.ndim
    for axis in range(ndim - 1):
        padded = np.concatenate(
            [
                sign * values[_at(ndim, axis, slice(0, 1))],
                values,
                sign * values[_at(ndim, axis, slice(-1, None))],
            ],
            axis=axis,
        )
        below = padded[_at(ndim, axis, slice(None, -2))]
        above = padded[_at(ndim, axis, slice(2, None))]
        children = np.stack(
            [values + 0.25 * (below - values), values + 0.25 * (above - values)],
            axis=axis + 1,
        )
        n = values.shape[axis]
        values = children.reshape(values.shape[:axis] + (2 * n,) + values.shape[axis + 1 :])
    return values


@dataclass(frozen=True)
class _Stages:
    """Outcome of one homotopy stage loop on one grid.

    ``values`` is the answer at ``t = 1``, or the last converged stage's
    field when ``failure`` is set; ``iterations`` counts the steps of the
    converged stages, ``factorizations`` every ``splu`` call.
    """

    values: NDArray[np.float64]
    residual_norm: float
    tolerance: float
    iterations: int
    factorizations: int
    t_path: tuple[float, ...]
    history: list[float]
    failure: _NewtonFailure | None = None
    message: str = ""


def _stage_loop(
    model: Model,
    grid: Grid,
    values: NDArray[np.float64],
    steps: int,
    tol: float,
    max_iter: int,
) -> _Stages:
    """Homotopy stages ``t * alpha`` on one grid, each warm-started from
    the previous one; a failed step is bisected down to ``MIN_STEP``."""
    path: list[float] = []
    total_iters = 0
    total_lus = 0
    history: list[float] = []
    rn = float("nan")
    abs_tol = tol
    t_prev = 0.0
    queue = [float(t) for t in np.linspace(0.0, 1.0, steps + 1)]
    while queue:
        t = queue[0]
        system = discretize(dataclasses.replace(model, alpha=t * model.alpha), grid)
        try:
            values_new, rn, abs_tol, its, history, lus = _newton_core(
                system, values, tol, max_iter
            )
        except _NewtonFailure as exc:
            total_lus += exc.factorizations
            mid = 0.5 * (t_prev + t)
            if t - mid < MIN_STEP:
                message = (
                    f"homotopy step underflow below {MIN_STEP} near "
                    f"t = {t:.6g}: {exc}"
                )
                return _Stages(
                    values, rn, tol, total_iters, total_lus, tuple(path), history,
                    exc, message,
                )
            queue.insert(0, mid)
            continue
        values = values_new
        total_iters += its
        total_lus += lus
        path.append(t)
        t_prev = t
        queue.pop(0)
    return _Stages(values, rn, abs_tol, total_iters, total_lus, tuple(path), history)


def continuation_solve(
    model: Model,
    grid: Grid,
    seed: DiscreteField | NDArray[np.float64],
    steps: int = 8,
    tol: float = TOL_NEWTON,
    max_iter: int = 100,
    strict: bool = True,
) -> SolveResult:
    """Homotopy continuation in the cross-diffusion strength, grid-sequenced.

    Solves the family with cross-diffusion ``t * alpha`` for ``t`` over
    ``linspace(0, 1, steps + 1)``, warm-starting each stage from the
    previous solution and bisecting a failed step down to ``MIN_STEP``.
    Every constant state is a root of every member, so the path keeps
    the branch of a seed near one.  The ``t = 0`` member is the
    semilinear system ``-Div(d Du) = f(u)``, whose Newton matrix at a
    generic seed is nonsingular; the ``t = 1`` member is the target.

    When :func:`half_grid` can halve the grid, the stages run there,
    from the :func:`restrict`-ed seed, and one Newton run at ``t = 1``
    on the full grid polishes the :func:`prolong`-ed answer (mesh
    sequencing).  The coarse answer is kept as ``refinement``.  If the
    coarse stages or the fine run fail, the stages run again on the full
    grid from the original seed.  ``iterations`` and ``factorizations``
    count both attempts; ``t_path`` is the path of the attempt that gave
    the answer.
    """
    if steps < 1:
        raise ModelError("steps must be >= 1")
    start = _seed_values(seed, grid, model.m)
    spent_iters = spent_lus = 0
    coarse_answer = None
    coarse = half_grid(grid)
    if coarse is not None:
        stages = _stage_loop(model, coarse, restrict(start), steps, tol, max_iter)
        spent_iters, spent_lus = stages.iterations, stages.factorizations
        if stages.failure is None:
            coarse_answer = (coarse, stages.values)
            fine = prolong(stages.values, model.bc.kind == "dirichlet")
            try:
                values, rn, abs_tol, its, history, lus = _newton_core(
                    discretize(model, grid), fine, tol, max_iter
                )
            except _NewtonFailure as exc:
                spent_lus += exc.factorizations
            else:
                return _finalize(
                    model, grid, start, values, True, rn, spent_iters + its,
                    spent_lus + lus, stages.t_path, abs_tol, history,
                    coarse=coarse_answer,
                )
    stages = _stage_loop(model, grid, start, steps, tol, max_iter)
    iterations = spent_iters + stages.iterations
    factorizations = spent_lus + stages.factorizations
    if stages.failure is not None:
        partial = _finalize(
            model, grid, start, stages.values, False, stages.residual_norm,
            iterations, factorizations, stages.t_path, tol, stages.history,
            extra_warnings=(stages.message,), coarse=coarse_answer,
        )
        if strict:
            raise ConvergenceError(stages.message, result=partial) from stages.failure
        return partial
    return _finalize(
        model, grid, start, stages.values, True, stages.residual_norm, iterations,
        factorizations, stages.t_path, stages.tolerance, stages.history,
        coarse=coarse_answer,
    )


def seed_from_mode(
    model: Model,
    u_star: NDArray[np.float64],
    k: int,
    amplitude: float,
    grid: Grid,
) -> DiscreteField:
    """Perturb a constant state along the ``k``-th Neumann mode.

    ``k >= 1`` numbers the distinct nonzero eigenvalues ``lambda_hat_k``
    in ascending order, as ``--seed-mode K`` does (row ``k - 1`` of an
    :class:`~crossdiff.index_theory.IndexReport`'s ``mode_decisions``).
    ``u(x) = u* + amplitude * c * psi(x)`` with ``c`` the (real, unit)
    eigenvector of ``d_A^{-1} A_k``, ``A_k = A(u*) - J(u*) / lambda_hat_k``,
    at its most negative real eigenvalue and ``psi`` the eigenfunction of
    the mode's first lattice point.  A mode with no negative count
    (``N = 0``) gives a ``RuntimeWarning``.  When ``u*`` is positive the
    field is floored at a small positive fraction of ``min(u*)`` so the
    seed stays in the positive cone.
    """
    if model.bc.kind != "neumann":
        raise ModelError("mode seeding uses Neumann eigenfunctions")
    if k < 1:
        raise ConfigError(f"mode number must be >= 1, got {k}")
    u_star = np.asarray(u_star, dtype=float)
    # Value 0 is the constant mode.
    mode = neumann_eigenvalues(model.domain, k + 1)[k:]
    lambda_hat = mode.values[0]
    dvec = model.d_A(u_star)
    M = (model.A(u_star) - model.jacobian_f(u_star) / lambda_hat) / dvec[:, None]
    if negative_counts(M[None]).N[0] < 1:
        _warnings.warn(
            f"mode lambda_hat={lambda_hat:.6g} is not unstable (N=0); "
            "seeding along its least stable direction anyway",
            RuntimeWarning,
        )
    w, V = np.linalg.eig(M)
    real = np.abs(w.imag) <= 1e-10 * max(1.0, float(np.abs(w).max()))
    if real.any():
        pick = np.where(real)[0][np.argmin(w.real[real])]
    else:
        pick = int(np.argmin(w.real))
    c = np.real(V[:, pick])
    norm_c = float(np.linalg.norm(c))
    if norm_c == 0.0:
        raise ModelError("mode eigenvector degenerated to zero")
    c = c / norm_c
    if c[np.argmax(np.abs(c))] < 0:
        c = -c
    psi = eigenfunction(model.domain, mode.points[0].tolist(), grid.points())
    values = u_star + amplitude * psi[..., None] * c
    if np.all(u_star > 0.0):
        floor = 1e-3 * float(u_star.min())
        values = np.maximum(values, floor)
    return DiscreteField(grid=grid, values=values)
