"""Finite-difference solver for the cross-diffusion steady-state system.

Cell-centered grids on intervals/rectangles; face fluxes use the
arithmetic mean of adjacent states inside ``A``; the Jacobian is
assembled analytically (flux blocks plus reaction blocks) into a CSC
sparsity pattern that is built once per ``(grid shape, m, boundary
kind)`` and shared by every system on that grid: each call computes
only the block values and sums them into their slots with
``np.bincount``, in assembly order (faces axis by axis, Dirichlet
walls after each axis's faces, reaction blocks last).  Newton factors
it through one seam, :func:`_factor`, chosen by the pattern's bandwidth.
The node-major Jacobian is banded, ``kl = ku = m (n_2 ... n_d) + m - 1``
(``2m - 1`` on an interval).  Up to ``kl = MAX_BAND`` LAPACK's
partial-pivoting banded LU (``dgbtrf``/``dgbtrs``) factors it from a
band array filled through a slot map the pattern holds.  A wider band
goes to SuperLU under the minimum-degree ordering on the pattern of
``J + J^T`` (``permc_spec="MMD_AT_PLUS_A"``), which suits this
structurally symmetric stencil matrix.  The residual and the
Jacobian read their face states from one face loop.  Solvers:
damped Newton, and homotopy continuation in the cross-diffusion
strength (``alpha -> t * alpha`` for ``t`` from 0 to 1 in
``HOMOTOPY_STEPS = 8`` steps; the first stage that fails ends the
attempt), the deformation to the weakly coupled system that the degree
argument uses: every constant state is a root of every member of the
family.  A stage sets ``t * alpha`` on its attempt's own
:class:`DiscreteSystem`; it builds no model.
Both return a :class:`SolveResult`; a solve that stops short has
``converged=False`` and the reason in ``warnings``.  Inside, each Newton
run yields one ``_Run`` record (last iterate, residual history,
factorizations, failure); a solve keeps every run it makes, and
``_finalize`` reads its result from them.

Newton reuses a factorization while it pays (a chord step, as in
Deuflhard's *Newton Methods for Nonlinear Problems*): once a Newton run
holds an LU, each iteration first takes the full step from that stale
factor and keeps it when the residual norm contracts by at least
``CHORD_CONTRACTION = 0.5``; otherwise the factor is dropped and the
iteration refactors at the current iterate and takes the damped Newton
step.  The factor never outlives one Newton run, i.e. one
continuation stage.  ``MAX_FACTORIZATIONS = 100`` bounds a run's
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

import functools
import warnings as _warnings
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np
import scipy.sparse as sp
from numpy.typing import NDArray
from scipy.linalg.lapack import dgbtrf, dgbtrs
from scipy.sparse.linalg import splu

from .model import ConfigError, Domain, Model, ModelError, flux_matrix
from .spectral import eigenfunction, mode
from .steady_states import TOL_DEGENERATE, TOL_SIGN

TOL_NEWTON = 1e-10
TOL_ZERO = 1e-8
TOL_CONST = 1e-6
MIN_CELLS = 8
# A chord step from a stale LU is kept when it cuts the residual norm by
# at least this factor; otherwise the Jacobian is refactored.
CHORD_CONTRACTION = 0.5
# Each Newton run may factor its Jacobian at most this many times.
MAX_FACTORIZATIONS = 100
# A continuation's stages: t over linspace(0, 1, HOMOTOPY_STEPS + 1).
HOMOTOPY_STEPS = 8
# The widest node-major band (kl = ku) given to the banded LU; a wider one
# goes to SuperLU.  A banded factor and five solves beat SuperLU's up to
# kl = 64 with m = 1 (not at 72), and up to 80 with m = 2 and 3.
MAX_BAND = 64


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
    forcing; ``jacobian(values)`` the sparse analytic derivative.  ``d``
    and ``alpha`` are the system's own, taken from the model once; a
    homotopy stage sets ``alpha`` to ``t * model.alpha``.
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
        self.d = model.d
        self.alpha = model.alpha
        self.dirichlet = model.bc.kind == "dirichlet"
        if forcing is not None:
            forcing = np.asarray(forcing, dtype=float)
            if forcing.shape != grid.shape + (model.m,):
                raise ModelError(
                    f"forcing shape {forcing.shape} does not match field shape"
                )
        self.forcing = forcing
        self.n_dof = grid.n_nodes * model.m

    def _faces(self, values: NDArray[np.float64]) -> Iterator[tuple]:
        """Per axis: ``h``, the index tuples ``p`` and ``q`` of the cells on
        either side of its interior faces, and at the faces the mean state
        ``v`` and the difference quotient ``du``, shaped like ``values[p]``."""
        for axis, h in enumerate(self.grid.h):
            p, q, _ = axis_slices(self.grid.ndim, axis)
            u_p, u_q = values[p], values[q]
            yield h, p, q, 0.5 * (u_p + u_q), (u_q - u_p) / h

    # -- residual ---------------------------------------------------------

    def residual(self, values: NDArray[np.float64]) -> NDArray[np.float64]:
        d, alpha = self.d, self.alpha
        R = -self.model.f(values)
        for h, p, q, v, du in self._faces(values):
            flux = (d + v @ alpha.T) * du + v * (du @ alpha.T)
            R[p] -= flux / h
            R[q] += flux / h
        # Walls after all faces: the order fixes the corner cells' bits.
        if self.dirichlet:
            for axis, h in enumerate(self.grid.h):
                for wall in axis_slices(self.grid.ndim, axis)[2]:
                    R[wall] += 2.0 * d * values[wall] / h**2
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
        d, alpha, m = self.d, self.alpha, self.model.m
        pattern = _jacobian_pattern(self.grid.shape, m, self.dirichlet)
        blocks: list[NDArray[np.float64]] = []
        idx = np.arange(m)
        for axis, (h, _, _, v, du) in enumerate(self._faces(values)):
            K = flux_matrix(v.reshape(-1, m), d, alpha) / h**2
            du = du.reshape(-1, m)
            G = alpha[None, :, :] * du[:, :, None]
            G[:, idx, idx] += du @ alpha.T
            S = (1.0 / (2.0 * h)) * G
            blocks += [K - S, -K - S, -K + S, K + S]
            if self.dirichlet:
                n_wall = 2 * (self.grid.n_nodes // self.grid.shape[axis])
                blocks.append(np.tile(2.0 * d / h**2, n_wall))
        blocks.append(-self.model.jacobian_f(values.reshape(-1, m)))
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
    :meth:`DiscreteSystem.jacobian` assembles, in its order.  ``kl`` is
    the node-major bandwidth, ``kl = ku = m (n_2 ... n_d) + m - 1``.  When
    ``kl <= MAX_BAND``, ``band[k]`` is the position of ``data[k]`` in the
    flattened ``(n, 3 kl + 1)`` array whose transpose is the LAPACK band
    storage that ``dgbtrf`` factors; on a wider band it is ``None``.
    """

    indptr: NDArray[np.int32]
    indices: NDArray[np.int32]
    slots: NDArray[np.intp]
    kl: int
    band: NDArray[np.intp] | None


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
    # An unfilled slot would hand uninitialised row indices to the LU.
    if np.bincount(slots, minlength=indices.size).min() == 0:
        raise RuntimeError(f"Jacobian pattern on {shape} leaves a slot empty")
    kl = m * (ids.size // shape[0]) + m - 1
    band = None
    if kl <= MAX_BAND:
        # Entry (i, j) sits in row kl + ku + i - j of band column j; the
        # top kl rows are room for the pivoting's fill.
        cols = np.repeat(np.arange(ids.size * m), np.diff(indptr))
        band = cols * (3 * kl + 1) + 2 * kl + indices - cols
    pattern = _JacobianPattern(indptr.astype(np.int32), indices, slots, kl, band)
    for arr in (pattern.indptr, pattern.indices, pattern.slots, pattern.band):
        if arr is not None:
            arr.flags.writeable = False
    return pattern


class _BandLU:
    """Partial-pivoting LU of a banded matrix with ``kl = ku``, by LAPACK's
    ``dgbtrf``; ``solve(b)`` is ``dgbtrs``, as SuperLU's ``solve``."""

    def __init__(self, J: sp.csc_matrix, band: NDArray[np.intp], kl: int) -> None:
        ab = np.zeros((J.shape[0], 3 * kl + 1))
        ab.reshape(-1)[band] = J.data
        self.kl = kl
        self.lu, self.piv, info = dgbtrf(ab.T, kl, kl, overwrite_ab=True)
        if info > 0:
            raise RuntimeError("Factor is exactly singular")  # SuperLU's words
        if info < 0:
            raise ValueError(f"dgbtrf: illegal argument {-info}")

    def solve(self, b: NDArray[np.float64]) -> NDArray[np.float64]:
        x, info = dgbtrs(self.lu, self.kl, self.kl, b, self.piv)
        if info < 0:
            raise ValueError(f"dgbtrs: illegal argument {-info}")
        return x


def _factor(system: DiscreteSystem, J: sp.csc_matrix):
    """LU factor, with ``solve(b)``, of ``J`` as ``system.jacobian``
    returns it, on the grid's shared pattern.

    The pattern's bandwidth chooses: up to ``kl = MAX_BAND`` a
    :class:`_BandLU` (LAPACK's banded LU), past it SuperLU under
    ``permc_spec="MMD_AT_PLUS_A"``.  A singular factor raises
    ``RuntimeError("Factor is exactly singular")`` on both.
    """
    pattern = _jacobian_pattern(system.grid.shape, system.model.m, system.dirichlet)
    if pattern.band is None:
        return splu(J, permc_spec="MMD_AT_PLUS_A")
    return _BandLU(J, pattern.band, pattern.kl)


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

    It is read from every Newton run of the solve, one rule per field:

    - ``field``: a direct solve's last iterate, even when it failed; a
      continuation's fine run if it converged, else its last converged
      full-grid stage, else the seed;
    - ``converged``: the last run converged;
    - ``residual_norm``: ``||R(field)||`` of the target system (``t = 1``,
      full grid): the answer's run's last residual when converged,
      recomputed when failed (the answer may be a stage's or the seed);
    - ``residual_history``: the answer's run's residual norms, empty for
      the seed;
    - ``iterations``: the accepted steps, chord and Newton, of every run
      that converged, plus those of the answer's own run;
    - ``factorizations``: the LU factorizations of every run, failed
      stages included (LAPACK's banded LU up to ``kl = MAX_BAND``,
      SuperLU under ``MMD_AT_PLUS_A`` on a wider band);
    - ``t_path``: ``(1.0,)`` for a direct solve, else the ``t`` of each
      converged stage of the attempt that gave the answer;
    - ``tolerance``: when converged, the answer's run's target
      ``tol * (1 + ||R(start)||)``; when failed, ``tol``;
    - ``refinement``: the coarse stages' answer when a fine run followed
      them, else ``None``.

    Norms of the field and its positivity are facts of
    :mod:`crossdiff.diagnostics`, not of the solve.
    """

    field: DiscreteField
    converged: bool
    residual_norm: float
    iterations: int
    factorizations: int
    t_path: tuple[float, ...]
    classification: str
    tolerance: float
    warnings: tuple[str, ...] = ()
    residual_history: tuple[float, ...] = ()
    refinement: Refinement | None = None


def classify_field(model: Model, values: NDArray[np.float64]) -> str:
    """Taxonomy of a field: negative (a component below ``-TOL_ZERO`` at
    some node), else trivial, semitrivial-constant, nontrivial-constant,
    or nonconstant."""
    flat = values.reshape(-1, model.m)
    if flat.min() < -TOL_ZERO:
        return "negative"
    comp_max = np.abs(flat).max(axis=0)
    means = flat.mean(axis=0)
    dev = np.abs(flat - means).max(axis=0)
    if np.any(dev >= TOL_CONST * (1.0 + np.abs(means))):
        return "nonconstant"
    zero = comp_max < TOL_ZERO
    if zero.all():
        return "trivial"
    if zero.any():
        return "semitrivial-constant"
    return "nontrivial-constant"


@dataclass(frozen=True)
class _Run:
    """One Newton run: its last iterate, the residual norms of every
    iterate up to it (empty when the start's residual is not finite),
    its factorizations, and why it stopped short (``None`` when it
    converged)."""

    values: NDArray[np.float64]
    history: list[float]
    factorizations: int
    failure: str | None = None

    @property
    def steps(self) -> int:
        """Accepted steps, chord and Newton."""
        return max(len(self.history) - 1, 0)


def _finalize(
    system: DiscreteSystem,
    seed: NDArray[np.float64],
    tol: float,
    runs: list[tuple[float | None, _Run]],
) -> SolveResult:
    """Read a solve's :class:`SolveResult`, by the rules stated there,
    from every Newton run it made.  ``runs`` holds them in order as
    ``(t, run)``: a homotopy stage with its ``t``, and a run on the
    target system itself, the direct run of :func:`newton_solve` or the
    fine run of a grid-sequenced continuation, with ``t = None``."""
    model, grid = system.model, system.grid
    stages = [(t, run) for t, run in runs if t is not None]
    target = next((run for t, run in runs if t is None), None)
    if not stages:
        answer, path = target, [1.0]
    elif target is not None and target.failure is None:
        # No full-grid stage runs after a converged fine run.
        answer, path = target, [t for t, run in stages if run.failure is None]
    else:
        done = [(t, run) for t, run in stages
                if run.failure is None and run.values.shape == seed.shape]
        answer = done[-1][1] if done else None
        path = [t for t, _ in done]
    last_t, last = runs[-1]
    converged = last.failure is None
    values, history = (seed, []) if answer is None else (answer.values, answer.history)
    residual_norm = history[-1] if converged else float(np.linalg.norm(system.residual(values)))
    if converged:
        warns = []
    elif last_t is None:  # the direct run: a failed fine run is never the last
        warns = [last.failure]
    else:
        warns = [f"homotopy stage t = {last_t:.6g} failed: {last.failure}"]
    classification = classify_field(model, values)
    refinement = None
    if stages and target is not None:
        coarse_values = [run for _, run in stages if run.values.shape != seed.shape][-1].values
        refinement = Refinement(
            coarse_grid=coarse_values.shape[:-1],
            coarse_classification=classify_field(model, coarse_values),
            prolongation_gap=float(
                np.abs(values - prolong(coarse_values, system.dirichlet)).max()
            ),
        )
        if refinement.coarse_classification != classification:
            warns.append(
                f"classification changes on refinement: {refinement.coarse_classification} "
                f"on the {'x'.join(map(str, refinement.coarse_grid))} grid, "
                f"{classification} on the {'x'.join(map(str, grid.n_cells))} grid"
            )
    seed_max = np.abs(seed.reshape(-1, model.m)).max(axis=0)
    comp_max = np.abs(values.reshape(-1, model.m)).max(axis=0)
    for i in np.flatnonzero((seed_max >= TOL_ZERO) & (comp_max < TOL_ZERO)):
        warns.append(f"species {i + 1} present in the seed vanished from the solution")
    for i in np.flatnonzero((seed_max < TOL_ZERO) & (comp_max >= TOL_ZERO)):
        warns.append(f"species {i + 1} absent from the seed is present in the solution")
    if model.bc.kind == "neumann" and classification in ("trivial", "semitrivial-constant"):
        # The growth sign semitrivial_stability reads: an absent species
        # that grows at the answer invades it.
        growth = model.g(values.reshape(-1, model.m).mean(axis=0))
        for i in np.flatnonzero((comp_max < TOL_ZERO) & (growth > TOL_SIGN)):
            warns.append(
                f"species {i + 1} absent from the solution can invade it: "
                f"g_{i + 1} = {growth[i]:.3e} > 0 at its mean"
            )
    return SolveResult(
        field=DiscreteField(grid=grid, values=values),
        converged=converged,
        residual_norm=residual_norm,
        iterations=sum(run.steps for _, run in runs if run.failure is None or run is answer),
        factorizations=sum(run.factorizations for _, run in runs),
        t_path=tuple(path),
        classification=classification,
        tolerance=tol * (1.0 + history[0]) if converged else tol,
        warnings=tuple(warns),
        residual_history=tuple(history),
        refinement=refinement,
    )


def _seed_values(
    seed: DiscreteField | NDArray[np.float64], system: DiscreteSystem
) -> NDArray[np.float64]:
    """A copy of the seed's values, checked as input: the shape of a
    field on ``system``'s grid, finite, and with a finite residual."""
    shape = system.grid.shape + (system.model.m,)
    values = seed.values if isinstance(seed, DiscreteField) else np.asarray(seed, dtype=float)
    if values.shape != shape:
        raise ModelError(f"seed shape {values.shape} does not match grid shape {shape}")
    if not np.all(np.isfinite(values)):
        raise ModelError("seed contains non-finite values")
    with np.errstate(over="ignore", invalid="ignore"):
        residual_finite = np.isfinite(system.residual(values)).all()
    if not residual_finite:
        raise ModelError(
            "the residual at the seed overflows a float "
            f"(largest seed value {float(np.abs(values).max()):.3e}); "
            "choose a smaller seed"
        )
    return values.astype(float).copy()


def _newton_core(
    system: DiscreteSystem,
    values: NDArray[np.float64],
    tol: float,
) -> _Run:
    """Chord-accelerated damped Newton, as one :class:`_Run`.

    A Newton step assembles the Jacobian on the grid's shared CSC
    pattern (duplicates summed in assembly order), factors it through
    :func:`_factor` (LAPACK's banded LU up to ``kl = MAX_BAND``, SuperLU
    under the ``MMD_AT_PLUS_A`` column ordering on a wider band) and takes a
    damped step.  Once the run holds a factorization, each
    iteration first tries the full chord step ``lu.solve(-R)`` from that
    stale factor and keeps it when ``||R(u + delta)|| <= CHORD_CONTRACTION
    * ||R(u)||``; otherwise it drops the factor and takes a Newton step
    at the current iterate.  Both kinds of step count as iterations;
    ``MAX_FACTORIZATIONS`` bounds the factorizations, so a chord step
    that keeps halving the residual is free.  A run that stops short
    returns its last iterate with ``failure`` set.
    """
    R = system.residual(values)
    rn = float(np.linalg.norm(R))
    if not np.isfinite(rn):
        # A solver's seed is checked on entry (_seed_values); this stops a
        # continuation stage whose warm start overflows, which would
        # otherwise pass the convergence test (inf > inf is false).
        return _Run(values, [], 0, "non-finite residual at the seed")
    history = [rn]
    factorizations = 0

    def stop(message: str) -> _Run:
        return _Run(values, history, factorizations, message)

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
        if factorizations == MAX_FACTORIZATIONS:
            return stop(
                f"no convergence within {MAX_FACTORIZATIONS} factorizations (residual "
                f"{rn:.3e}, target {abs_tol:.3e})"
            )
        J = system.jacobian(values)
        factorizations += 1
        try:
            lu = _factor(system, J)
            delta = lu.solve(-R.reshape(-1))
        except RuntimeError as exc:
            return stop(f"linear solve failed: {exc}")
        if not np.all(np.isfinite(delta)):
            return stop("non-finite Newton step (singular Jacobian)")
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
                return stop(
                    f"line search stagnates at iteration {len(history)} "
                    f"(residual {rn:.3e})"
                )
        values, R, rn = trial, R_try, rt
        history.append(rn)
    return _Run(values, history, factorizations)


def newton_solve(
    model: Model,
    grid: Grid,
    seed: DiscreteField | NDArray[np.float64],
    tol: float = TOL_NEWTON,
    forcing: NDArray[np.float64] | None = None,
) -> SolveResult:
    """Damped-Newton solve, with chord steps, from a seed field.

    The result holds the last iterate, its residual norm, the steps
    taken (chord and Newton), the factorizations made and the residual
    history.  ``MAX_FACTORIZATIONS`` bounds the factorizations.  A run
    that stops short (budget spent, failed linear solve, stagnating line
    search) returns ``converged=False`` with the reason in ``warnings``.
    """
    system = discretize(model, grid, forcing=forcing)
    start = _seed_values(seed, system)
    return _finalize(system, start, tol, [(None, _newton_core(system, start, tol))])


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


def _stage_loop(
    system: DiscreteSystem,
    values: NDArray[np.float64],
    tol: float,
    runs: list[tuple[float | None, _Run]],
) -> bool:
    """Homotopy stages at ``t`` in ``linspace(0, 1, HOMOTOPY_STEPS + 1)``
    on one grid's one system: each stage sets its ``alpha`` to
    ``t * system.model.alpha`` and is warm-started from the previous
    one.  The first stage that fails ends the loop.

    Appends every stage it runs, the failed one included, to ``runs``
    as ``(t, run)``, and says whether the stages reached ``t = 1``.
    """
    for t in np.linspace(0.0, 1.0, HOMOTOPY_STEPS + 1).tolist():
        system.alpha = t * system.model.alpha
        run = _newton_core(system, values, tol)
        runs.append((t, run))
        if run.failure is not None:
            return False
        values = run.values
    return True


def continuation_solve(
    model: Model,
    grid: Grid,
    seed: DiscreteField | NDArray[np.float64],
    tol: float = TOL_NEWTON,
) -> SolveResult:
    """Homotopy continuation in the cross-diffusion strength, grid-sequenced.

    Solves the family with cross-diffusion ``t * alpha`` for ``t`` over
    ``linspace(0, 1, HOMOTOPY_STEPS + 1)``, warm-starting each stage from
    the previous solution; the first stage that fails ends the attempt.
    Every constant state is a root of every member, so the
    path keeps the branch of a seed near one.  The ``t = 0`` member is
    the semilinear system ``-Div(d Du) = f(u)``, whose Newton matrix at a
    generic seed is nonsingular; the ``t = 1`` member is the target.

    When :func:`half_grid` can halve the grid, the stages run there,
    from the :func:`restrict`-ed seed, and one Newton run at ``t = 1``
    on the full grid polishes the :func:`prolong`-ed answer (mesh
    sequencing).  The coarse answer is kept as ``refinement``.  If the
    coarse stages or the fine run fail, the stages run again on the full
    grid from the original seed, on a system of their own, so the target
    system the result is read against keeps ``model.alpha``.  The result
    is read from every run of both attempts, by the rules of
    :class:`SolveResult`.
    """
    system = discretize(model, grid)
    start = _seed_values(seed, system)
    runs: list[tuple[float | None, _Run]] = []
    coarse = half_grid(grid)
    if coarse is not None and _stage_loop(DiscreteSystem(model, coarse), restrict(start), tol, runs):
        fine = _newton_core(system, prolong(runs[-1][1].values, system.dirichlet), tol)
        runs.append((None, fine))
        if fine.failure is None:
            return _finalize(system, start, tol, runs)
    _stage_loop(DiscreteSystem(model, grid), start, tol, runs)
    return _finalize(system, start, tol, runs)


def seed_from_mode(
    model: Model,
    u_star: NDArray[np.float64],
    k: int,
    amplitude: float,
    grid: Grid,
) -> DiscreteField:
    """Perturb a constant state along the ``k``-th Neumann mode.

    ``k >= 1`` is a mode number of :func:`crossdiff.spectral.mode`, the
    numbering of ``--seed-mode K`` and of an
    :class:`~crossdiff.index_theory.IndexReport`'s ``first_mode``: on the
    square ``(0, pi)^2`` mode 1 is ``cos y``, mode 2 ``cos x`` and mode 3
    ``cos x cos y``.  A mode whose lattice point has ``k_a >= n_a`` on an
    axis of ``n_a`` cells is a :class:`ConfigError`: the grid samples its
    cosine as zero or as a lower mode.
    ``u(x) = u* + amplitude * c * psi(x)`` with ``c`` the (real, unit)
    eigenvector of ``d_A^{-1} A_k``, ``A_k = A(u*) - J(u*) / lambda_hat_k``,
    at its most negative real eigenvalue and ``psi`` the mode's
    eigenfunction.  A mode whose matrix has no real
    eigenvalue below ``-TOL_DEGENERATE`` times its 2-norm (``N = 0``)
    gives a ``RuntimeWarning``.  When ``u*`` is positive the
    field is floored at a small positive fraction of ``min(u*)`` so the
    seed stays in the positive cone.
    """
    if model.bc.kind != "neumann":
        raise ModelError("mode seeding uses Neumann eigenfunctions")
    if k < 1:
        raise ConfigError(f"mode number must be >= 1, got {k}")
    lambda_hat, point = mode(model.domain, k)
    if any(k_a >= n_a for k_a, n_a in zip(point, grid.n_cells)):
        raise ConfigError(f"mode {k} is the lattice point {point}: {grid.n_cells} cells "
                          "cannot resolve it")
    u_star = np.asarray(u_star, dtype=float)
    dvec = model.d_A(u_star)
    M = (model.A(u_star) - model.jacobian_f(u_star) / lambda_hat) / dvec[:, None]
    w, V = np.linalg.eig(M)
    scale = max(float(np.linalg.norm(M, 2)), 1e-300)
    if not np.any((np.abs(w.imag) <= 1e-10 * scale) & (w.real < -TOL_DEGENERATE * scale)):
        _warnings.warn(
            f"mode lambda_hat={lambda_hat:.6g} is not unstable (N=0); "
            "seeding along its least stable direction anyway",
            RuntimeWarning,
        )
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
    psi = eigenfunction(model.domain, point, grid.points())
    values = u_star + amplitude * psi[..., None] * c
    if np.all(u_star > 0.0):
        floor = 1e-3 * float(u_star.min())
        values = np.maximum(values, floor)
    return DiscreteField(grid=grid, values=values)
