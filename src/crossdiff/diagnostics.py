"""Norm, oscillation, and identity diagnostics on discrete fields.

These are the a-priori quantities controlling solution regularity: the
``L1`` size, gradient norms, the ball mean-oscillation supremum, exact
weak-form identities satisfied by converged Neumann solutions (mass and
energy), and the explicit diffusion threshold above which only constant
solutions can exist.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from numpy.typing import NDArray

from .model import Model, ModelError
from .pde_solver import DiscreteField, Grid, axis_slices, discretize

NOT_A_SOLUTION_RTOL = 1e-6
BALL_RTOL = 1e-12
# Distance terms per chunk when evaluating chosen balls.
GATHER_TERMS = 1 << 16


@dataclass(frozen=True)
class DiagnosticsReport:
    """Field diagnostics; identity residuals are only meaningful for
    converged Neumann solutions (otherwise the report carries a flag)."""

    l1_norm: float
    grad_l2: float
    grad_ln: float
    bmo_sup: float
    bmo_radius: float
    identity_residuals: tuple[float, float]
    positivity_min: float
    warnings: tuple[str, ...] = ()


def _gradient(field: DiscreteField) -> list[NDArray[np.float64]]:
    """Per-axis derivative arrays (central interior, one-sided walls)."""
    grid = field.grid
    return [
        np.gradient(field.values, grid.coords[axis], axis=axis)
        for axis in range(grid.ndim)
    ]


def norms(field: DiscreteField) -> tuple[float, float, float]:
    """Midpoint-quadrature ``(L1, grad_L2, grad_Ln)`` with ``n = dim``."""
    grid = field.grid
    vol = grid.cell_volume
    l1 = float(np.linalg.norm(field.values, axis=-1).sum() * vol)
    grads = _gradient(field)
    # |Du|^2 sums the squares over components and axes.
    sq = sum((g**2).sum(axis=-1) for g in grads)
    grad_l2 = float(math.sqrt(sq.sum() * vol))
    n = grid.ndim
    grad_ln = float((np.sqrt(sq) ** n).sum() * vol) ** (1.0 / n)
    return l1, grad_l2, grad_ln


def _ball_bound(radius: float) -> float:
    """Squared-distance bound of the closed ball, forgiving the rounding
    of ``radius**2``: a node at distance exactly ``radius`` is inside."""
    return radius * radius * (1.0 + BALL_RTOL)


def ball_radii(grid: Grid, radius: float) -> list[float]:
    """The radii ``2h, 4h, ..., radius`` that ``bmo_seminorm`` scans.

    ``h`` is the largest spacing; ``radius`` itself is appended when it
    is off that ladder.  The ladder stops at the first radius whose
    ball holds the whole grid from every center: larger balls are the
    same set of nodes.  Raises ``ModelError`` for a non-finite radius or
    one below ``2h``.
    """
    h = max(grid.h)
    if not math.isfinite(radius):
        raise ModelError(f"ball radius must be finite, got {radius}")
    if radius < 2.0 * h - 1e-12:
        raise ModelError(
            f"unresolvable ball: radius {radius:.4g} < 2h = {2 * h:.4g}"
        )
    span2 = sum(((n - 1) * hh) ** 2 for n, hh in zip(grid.n_cells, grid.h))
    radii: list[float] = []
    for j in range(1, int(radius / (2.0 * h)) + 1):
        radii.append(2.0 * h * j)
        if span2 <= _ball_bound(radii[-1]):
            return radii
    if not radii or radius - radii[-1] > 1e-12 * max(1.0, radius):
        radii.append(radius)
    return radii


def _shifted(n_cells: tuple[int, ...], offset: Sequence[int]):
    """Slices ``(centers, nodes)`` pairing each center ``c`` whose
    neighbour ``c + offset`` lies in the grid with that neighbour."""
    pairs = list(zip(n_cells, offset))
    centers = tuple(slice(max(0, -o), n - max(0, o)) for n, o in pairs)
    nodes = tuple(slice(max(0, o), n + min(0, o)) for n, o in pairs)
    return centers, nodes


def _max_oscillation(
    centred: NDArray[np.float64],
    means: NDArray[np.float64],
    counts: NDArray[np.float64],
    shape: tuple[int, ...],
    offsets: NDArray[np.intp],
    first: NDArray[np.intp],
    balls: NDArray[np.bool_],
) -> float:
    """Largest mean oscillation among the ``balls`` marked in a
    ``(radius, node)`` mask, each to the bit as an offset-by-offset scan
    over every ball computes it.

    A ball of radius index ``r`` holds the ``offsets`` with ``first <=
    r``.  Its distances from the ball mean are summed from ``0.0`` in
    offset order; an offset that leaves the grid adds ``0.0``, which
    changes no sum.  ``means`` and ``counts`` are flat over the nodes.
    """
    m = centred.shape[1]
    # Pad the grid by the stencil's reach, so that every offset of every
    # ball lands in it: a node's flat index is its center's plus a shift.
    reach = np.abs(offsets).max(axis=0)
    padded = tuple(int(n + 2 * k) for n, k in zip(shape, reach))
    window = tuple(slice(k, k + n) for k, n in zip(reach, shape))
    slots = np.zeros((m,) + padded)
    slots[(slice(None),) + window] = centred.T.reshape((m,) + shape)
    slots = slots.reshape(m, -1)
    in_grid = np.zeros(padded, dtype=bool)
    in_grid[window] = True
    in_grid = in_grid.ravel()
    steps = np.array([math.prod(padded[a + 1 :]) for a in range(len(padded))])
    shifts = offsets @ steps
    homes = (np.indices(shape).reshape(len(shape), -1).T + reach) @ steps

    found = []
    for r in np.flatnonzero(balls.any(axis=1)):
        ball = shifts[first <= r]
        todo = np.flatnonzero(balls[r])
        step = max(1, GATHER_TERMS // len(ball))
        for lo in range(0, len(todo), step):
            centers = todo[lo : lo + step]
            nodes = ball[:, None] + homes[centers]
            diff = np.take(slots, nodes, axis=1)
            diff -= means[r, centers].T[:, None, :]
            dist = np.square(diff, out=diff).sum(axis=0)
            dist = np.where(np.take(in_grid, nodes), np.sqrt(dist, out=dist), 0.0)
            total = np.cumsum(dist, axis=0, out=dist)[-1]
            found.append((total / counts[r, centers]).max())
    return float(np.max(found))


def bmo_seminorm(field: DiscreteField, radius: float) -> float:
    """Supremum over node-centered balls of the mean oscillation.

    Balls of radii ``ball_radii(grid, radius)`` around every node are
    scanned.  A ball is closed: it holds the nodes at integer offset
    ``o`` from its center with ``sum_a (o_a h_a)^2 <= r^2`` (up to a
    relative ``1e-12`` on ``r^2``), clipped at the walls.  The
    oscillation of a vector field is the Euclidean norm of the
    componentwise deviation from the ball mean, averaged over the ball.

    On the uniform grid a ball is the same offset set at every center,
    so one loop over the offsets of the largest ball, each vectorised
    over all centers, gives every ball's sums of ``v``, ``|v|^2`` and
    ``1`` (nested radii share the offset list).  By Cauchy-Schwarz a
    ball's oscillation is at most ``U = sqrt(mean |v|^2 - |mean v|^2)``,
    which is padded by a rounding slack so that the computed ``U`` is
    never below the computed oscillation.  The balls of largest ``U``
    are evaluated first; after them only the balls whose ``U`` exceeds
    the best oscillation found, since no other ball can hold the
    supremum.  An evaluated ball sums its distances in the order of a
    scan over every ball, so the supremum is that scan's to the bit.

    Cost: ``O(N |B|)`` time and ``O(R N m)`` memory for the sums, with
    ``N`` nodes, ``R`` radii, ``m`` components and ``|B|`` offsets in
    the largest ball, plus ``O(|B| m)`` per evaluated ball: a few percent
    of the ``R N`` balls on the fields tried (smooth patterns, noise),
    every ball at worst.  A constant field returns ``0.0`` at once.
    """
    grid = field.grid
    radii = ball_radii(grid, radius)
    shape = grid.shape
    m = field.m
    flat = field.values.reshape(-1, m)
    if (flat == flat[0]).all():
        return 0.0

    # Offsets of the largest ball, each tagged with the first radius
    # whose ball holds it.
    reach = [min(n - 1, int(radii[-1] / hh) + 1) for n, hh in zip(shape, grid.h)]
    offsets = np.stack(
        np.meshgrid(*[np.arange(-k, k + 1) for k in reach], indexing="ij"), axis=-1
    ).reshape(-1, grid.ndim)
    dist2 = sum((offsets[:, a] * hh) ** 2 for a, hh in enumerate(grid.h))
    first = np.searchsorted([_ball_bound(r) for r in radii], dist2)
    inside = first < len(radii)
    offsets, first = offsets[inside], first[inside]

    # The oscillation is shift invariant; centring keeps the sums small.
    centred = flat - flat.mean(axis=0)

    # Per-radius ball sums of v, |v|^2 and 1, channels last so that each
    # offset adds contiguous rows.
    augmented = np.concatenate(
        [centred, np.square(centred).sum(axis=1, keepdims=True), np.ones((len(flat), 1))],
        axis=1,
    ).reshape(shape + (m + 2,))
    sums = np.zeros((len(radii),) + shape + (m + 2,))
    for off, k in zip(offsets.tolist(), first.tolist()):
        centers, nodes = _shifted(shape, off)
        sums[(k,) + centers] += augmented[nodes]
    for k in range(1, len(radii)):
        sums[k] += sums[k - 1]
    sums = sums.reshape(len(radii), -1, m + 2)
    counts = sums[..., m + 1]
    means = sums[..., :m] / counts[..., None]

    # The bound.  The ball sums, the subtraction below and the computed
    # oscillation each carry a relative rounding error of at most about
    # (|B| + m) 2^-53; the slack is 8 times that, plus 2^-500 for
    # underflow in the squares.  Past 2^400 a square may overflow, so
    # then every ball is evaluated.
    mean_sq = sums[..., m] / counts
    variance = mean_sq - sum(np.square(means[..., j]) for j in range(m))
    slack = 8.0 * (len(offsets) + m + 8) * 2.0**-53
    bound = np.sqrt(np.maximum(variance, 0.0) + slack * mean_sq)
    bound *= 1.0 + slack
    bound += 2.0**-500
    if not np.abs(centred).max() <= 2.0**400:
        bound.fill(np.inf)

    # Seed with the balls of largest bound; then no ball whose bound is
    # at most the best oscillation found can hold the supremum.
    scan = (centred, means, counts, shape, offsets, first)
    top = bound == bound.max()
    best = _max_oscillation(*scan, top)
    rest = (bound > best) & ~top
    if rest.any():
        best = max(best, _max_oscillation(*scan, rest))
    return best


def identity_residuals(
    model: Model,
    field: DiscreteField,
    forcing: NDArray[np.float64] | None = None,
) -> tuple[float, float]:
    """Weak-form identity residuals ``(mass, energy)``.

    mass: ``max_i |integral of f_i(u)|`` — converged Neumann solutions
    satisfy it to solver tolerance (test the system with the constant 1).
    energy: ``|integral <A(u)Du, Du> - integral <f(u), u>|`` with the
    flux term quadratured face-by-face, consistent with the
    discretization (test the system with ``u``).

    ``forcing`` is added to the reaction before testing, matching the
    forced system whose solutions satisfy the identities.
    """
    grid = field.grid
    u = field.values
    vol = grid.cell_volume
    f_vals = model.f(u)
    if forcing is not None:
        f_vals = f_vals + np.asarray(forcing, dtype=float)
    mass = float(np.abs(f_vals.reshape(-1, model.m).sum(axis=0) * vol).max())

    energy_flux = 0.0
    for axis, h in enumerate(grid.h):
        sl_p, sl_q, walls = axis_slices(grid.ndim, axis)
        u_p = u[sl_p]
        u_q = u[sl_q]
        ubar = 0.5 * (u_p + u_q)
        du = (u_q - u_p) / h
        A = model.A(ubar)
        Adu = np.einsum("...ij,...j->...i", A, du)
        energy_flux += float((Adu * du).sum() * vol)
        if model.bc.kind == "dirichlet":
            # Wall faces: ghost reflection doubles the one-sided jump.
            for wall in walls:
                u_w = u[wall]
                jump = 2.0 * u_w / h
                A0 = model.A(np.zeros_like(u_w))
                Aj = np.einsum("...ij,...j->...i", A0, jump)
                energy_flux += float((Aj * u_w).sum() * vol / h)

    reaction = float((f_vals * u).sum() * vol)
    energy = abs(energy_flux - reaction)
    return mass, energy


def nonexistence_threshold(
    model: Model,
    solution_box: Sequence[Sequence[float]],
    samples: int = 2048,
    seed: int = 0,
) -> float:
    """Diffusion threshold above which no nonconstant solution exists.

    ``F_* = max ||J_f(u)||_2`` over the box of plausible solution values
    and ``threshold = F_* diam(Omega)^2`` (the model family carries no
    gradient term, so its bound contributes nothing).  If the ellipticity
    floor of ``A`` exceeds the threshold, every solution is constant.
    Since ``J_f`` is affine in ``u``, the spectral norm is convex and its
    box maximum sits at a vertex; vertices are enumerated exactly (up to
    ``2^m``) alongside a random sample as a cross-check.
    """
    box = np.asarray(solution_box, dtype=float)
    if box.shape != (model.m, 2):
        raise ModelError(f"box must have shape ({model.m}, 2), got {box.shape}")
    if np.any(box[:, 1] < box[:, 0]):
        raise ModelError("empty box: upper bound below lower bound")

    corners = np.array(list(itertools.product(*box)), dtype=float)
    rng = np.random.default_rng(seed)
    sample = box[:, 0] + rng.random((samples, model.m)) * (box[:, 1] - box[:, 0])
    u = np.vstack([corners, sample])
    J = model.jacobian_f(u)
    F_star = float(np.linalg.norm(J, ord=2, axis=(-2, -1)).max())
    B_star = 0.0
    diam = model.domain.diameter
    return F_star * diam**2 + B_star * diam


def diagnostics_report(
    model: Model,
    field: DiscreteField,
    radius: float | None = None,
) -> DiagnosticsReport:
    """Assemble the full diagnostics for a field.

    The identity residuals presume a converged Neumann solution; a large
    discrete residual flags the field as not a solution instead of
    letting meaningless identities pass silently.
    """
    grid = field.grid
    if radius is None:
        radius = max(2.0 * max(grid.h), min(grid.domain.lengths) / 4.0)
    l1, grad_l2, grad_ln = norms(field)
    bmo = bmo_seminorm(field, radius)
    mass, energy = identity_residuals(model, field)
    pos_min = float(field.values.min())
    warnings: list[str] = []
    res = discretize(model, grid).residual(field.values)
    rn = float(np.linalg.norm(res))
    scale = 1.0 + float(np.linalg.norm(field.values))
    if rn > NOT_A_SOLUTION_RTOL * scale:
        warnings.append(
            f"not a solution: discrete residual {rn:.3e} exceeds "
            f"{NOT_A_SOLUTION_RTOL:.0e} relative; identity residuals are "
            "not meaningful"
        )
    if pos_min < -1e-8:
        warnings.append(f"positivity violated: min component {pos_min:.3e}")
    return DiagnosticsReport(
        l1_norm=l1,
        grad_l2=grad_l2,
        grad_ln=grad_ln,
        bmo_sup=bmo,
        bmo_radius=float(radius),
        identity_residuals=(mass, energy),
        positivity_min=pos_min,
        warnings=tuple(warnings),
    )
