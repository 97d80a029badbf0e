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


def bmo_seminorm(field: DiscreteField, radius: float) -> float:
    """Supremum over node-centered balls of the mean oscillation.

    Balls of radii ``ball_radii(grid, radius)`` around every node are
    scanned.  A ball is closed: it holds the nodes at integer offset
    ``o`` from its center with ``sum_a (o_a h_a)^2 <= r^2`` (up to a
    relative ``1e-12`` on ``r^2``), clipped at the walls.  The
    oscillation of a vector field is the Euclidean norm of the
    componentwise deviation from the ball mean, averaged over the ball.

    On the uniform grid a ball is the same offset set at every center,
    so the scan loops over the offsets of the largest ball, each
    vectorised over all centers, in two passes: ball sums and counts,
    then deviations from the ball means.  Nested radii share the offset
    list.  Cost: ``O(N sum_r |ball_r|)`` time and ``O(R N m)`` memory
    for ``N`` nodes, ``R`` radii and ``m`` components.
    """
    grid = field.grid
    radii = ball_radii(grid, radius)
    shape = grid.shape
    m = field.m

    # Offsets of the largest ball, each tagged with the first radius
    # whose ball holds it.
    reach = [min(n - 1, int(radii[-1] / hh) + 1) for n, hh in zip(shape, grid.h)]
    offsets = np.stack(
        np.meshgrid(*[np.arange(-k, k + 1) for k in reach], indexing="ij"), axis=-1
    ).reshape(-1, grid.ndim)
    dist2 = sum((offsets[:, a] * hh) ** 2 for a, hh in enumerate(grid.h))
    first = np.searchsorted([_ball_bound(r) for r in radii], dist2)
    inside = first < len(radii)
    stencil = [
        (tuple(int(o) for o in off), int(k))
        for off, k in zip(offsets[inside], first[inside])
    ]

    # The oscillation is shift invariant; centring keeps the sums small.
    # Components lead, so the norm over them adds whole arrays.
    centred = field.values - field.values.reshape(-1, m).mean(axis=0)
    vals = np.moveaxis(centred, -1, 0)
    each = (slice(None),)

    # Pass 1: per-radius ball sums, with a row of ones for the counts.
    sums = np.zeros((m + 1, len(radii)) + shape)
    augmented = np.concatenate([vals, np.ones((1,) + shape)])
    for off, k in stencil:
        centers, nodes = _shifted(shape, off)
        sums[each + (k,) + centers] += augmented[each + nodes]
    np.cumsum(sums, axis=1, out=sums)
    counts = sums[m]
    means = sums[:m]
    means /= counts

    # Pass 2: summed distances from the ball means (in place, so the
    # temporaries stay within one radius stack).
    dev = np.zeros((len(radii),) + shape)
    for off, k in stencil:
        centers, nodes = _shifted(shape, off)
        at = (slice(k, None),) + centers
        diff = vals[each + (None,) + nodes] - means[each + at]
        dist = np.square(diff, out=diff).sum(axis=0)
        dev[at] += np.sqrt(dist, out=dist)
    dev /= counts
    return float(dev.max())


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
