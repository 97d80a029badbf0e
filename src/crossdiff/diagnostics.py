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
from .pde_solver import TOL_ZERO, DiscreteField, Grid, discretize

NOT_A_SOLUTION_RTOL = 1e-6
BALL_RTOL = 1e-12
# A field whose every component stays within this many ulps of its
# value at the first node is constant up to round-off: its oscillation
# is 0.
CONST_ULPS = 2
# Distance terms per chunk when evaluating chosen balls.
GATHER_TERMS = 1 << 14
# Groups of consecutive shells in a ball's second, per-piece bound.
PIECES = 8
# A centred field whose largest component lies outside
# [2^-RESCALE_EXP, 2^RESCALE_EXP] is scanned scaled by a power of two.
RESCALE_EXP = 400


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
    one below ``2h``.  Both comparisons forgive a relative ``BALL_RTOL``,
    so the ladder in units of ``h`` does not depend on the unit of length.
    """
    h = max(grid.h)
    if not math.isfinite(radius):
        raise ModelError(f"ball radius must be finite, got {radius}")
    if radius < 2.0 * h * (1.0 - BALL_RTOL):
        raise ModelError(
            f"unresolvable ball: radius {radius:.4g} < 2h = {2 * h:.4g}"
        )
    span2 = sum(((n - 1) * hh) ** 2 for n, hh in zip(grid.n_cells, grid.h))
    # The first covering radius is at most one step past the span, so a
    # huge radius does not overflow the loop bound.
    stop = min(radius, math.sqrt(span2) + 2.0 * h)
    radii: list[float] = []
    for j in range(1, int(stop / (2.0 * h)) + 1):
        radii.append(2.0 * h * j)
        if span2 <= _ball_bound(radii[-1]):
            return radii
    if not radii or radius - radii[-1] > BALL_RTOL * radius:
        radii.append(radius)
    return radii


def _ball_sums(
    rows: NDArray[np.float64],
    shifts: NDArray[np.intp],
    first: NDArray[np.intp],
    n_radii: int,
    span: int,
) -> NDArray[np.float64]:
    """Sums of the channels of ``rows`` over every ball, as ``(radius,
    center, channel)``.

    ``rows`` holds each node of the padded grid, zero outside the grid;
    center ``p``'s neighbour at an offset is row ``p + shift`` for that
    offset's ``shift``.  Each offset adds ``span`` contiguous rows to the
    shell of its ``first`` radius, in offset order from ``0.0``; nested
    balls are then the running sums of the shells, as the scan over
    every ball adds them.
    """
    # Zeroed by a write, not by calloc: each fresh page then faults once,
    # not once on the first read and again on the first write.
    sums = np.empty((n_radii, span, rows.shape[1]))
    sums.fill(0.0)
    shells = list(sums)
    for shift, k in zip(shifts.tolist(), first.tolist()):
        shells[k] += rows[shift : shift + span]
    for k in range(1, n_radii):
        sums[k] += sums[k - 1]
    return sums


def _piece_bounds(
    sums: NDArray[np.float64],
    homes: NDArray[np.intp],
    balls: NDArray[np.bool_],
    slack: float,
) -> NDArray[np.float64]:
    """Bound on the oscillation of each ball marked in a ``(radius,
    node)`` mask, in the mask's row-major order, never below the
    oscillation that ``_max_oscillation`` computes for it.

    Shell ``k`` of a ball holds the offsets whose first radius index is
    ``k``.  Piece ``g = 1 .. PIECES`` of a ball of radius index ``r`` is
    its shells ``(b_{g-1}, b_g]``, ``b_g = floor(g (r + 1) / PIECES) -
    1``, so that each shell is a piece of its own in a ball of at most
    ``PIECES`` shells.  With ``mu`` the ball's mean, ``Q_g = S2_g - 2
    mu.S1_g + n_g |mu|^2`` is the piece's sum of ``|v_j - mu|^2`` over
    its ``n_g`` nodes, and Cauchy-Schwarz on each piece bounds the
    oscillation by ``(1/|B|) sum_g sqrt(n_g Q_g)``.  The piece sums
    ``S1_g``, ``S2_g`` and ``n_g`` are differences of the running
    ``_ball_sums`` ``sums`` at the shell ends, so no offset is visited
    again.
    """
    m = sums.shape[-1] - 2
    n_radii, span = sums.shape[:2]
    radius, node = np.divmod(np.flatnonzero(balls), balls.shape[1])
    # The sums' rows at b_1 .. b_PIECES for every ball; b_PIECES = r is
    # the ball itself.  An end of -1 is read at shell 0, which gives the
    # same pieces: the empty ones come after shell 0 instead of before.
    ends = np.arange(1, PIECES + 1)[:, None] * np.arange(1, n_radii + 1) // PIECES - 1
    rows = (np.maximum(ends, 0) * span)[:, radius]
    rows += homes[node] - homes[0]
    part = np.take(sums.reshape(-1, m + 2), rows, axis=0)
    ball = part[-1]
    # The mean that _max_oscillation takes, so that Q_g sums the very
    # distances it evaluates.  W = S2 - 2 mu.S1 + n |mu|^2 at each end is
    # the sum of |v_j - mu|^2 over the ball up to that end, and Q_g the
    # difference of W at consecutive ends.
    mean = ball[:, :m] / ball[:, m + 1 :]
    q = part[..., m] + part[..., m + 1] * np.square(mean).sum(axis=1)
    for j in range(m):
        q -= part[..., j] * (2.0 * mean[:, j])
    q[1:] -= q[:-1]
    counts = part[..., m + 1].copy()
    counts[1:] -= counts[:-1]
    # Rounding.  The running sums at an end are off by at most about |B|
    # 2^-53 times S2, the ball's sum of |v|^2, in the |v|^2 channel, and
    # times sum_j |v_j| in a v channel, where |mu| sum_j |v_j| <= |mu|
    # sqrt(|B| S2) <= S2 since |B| |mu|^2 <= S2.  A computed Q_g is then
    # off by at most about (6 |B| + 10 m + 21) 2^-53 S2, which twice the
    # slack covers inside each root; the factor 1 + slack covers the
    # roots, the sum over the pieces and the computed oscillation, as in
    # the first bound.
    q += 2.0 * slack * ball[:, m]
    np.maximum(q, 0.0, out=q)
    q *= counts
    bound = np.sqrt(q, out=q).sum(axis=0)
    bound /= ball[:, m + 1]
    bound *= 1.0 + slack
    bound += 2.0**-500
    return bound


def _max_oscillation(
    vals: NDArray[np.float64],
    homes: NDArray[np.intp],
    shifts: NDArray[np.intp],
    first: NDArray[np.intp],
    sums: NDArray[np.float64],
    balls: NDArray[np.bool_],
) -> float:
    """Largest mean oscillation among the ``balls`` marked in a
    ``(radius, node)`` mask, each to the bit as an offset-by-offset scan
    over every ball computes it.

    ``vals`` holds the ``m`` channels of the padded grid, NaN outside
    the grid, and ``homes`` the padded position of each node.  A ball of
    radius index ``r`` holds the ``shifts`` with ``first <= r``; its mean
    is its row of the ``_ball_sums`` ``sums`` (``homes[0]`` is that
    array's center 0), and its distances from the mean are summed from
    ``0.0`` in offset order.  In a ball that meets a wall, with fewer
    nodes than offsets, an out-of-grid node's distance is NaN and is
    turned into ``0.0``, which changes no sum.
    """
    m = len(vals)
    # Buffers for GATHER_TERMS terms, or for all the balls if they need
    # fewer, and for one largest ball at least.
    size = max(min(GATHER_TERMS, int(balls.sum()) * len(shifts)), len(shifts))
    node_buf = np.empty(size, dtype=np.intp)
    diff_buf = np.empty(m * size)
    dist_buf = np.empty(size)
    best = 0.0
    for r in np.flatnonzero(balls.any(axis=1)):
        ball = shifts[first <= r]
        todo = homes[balls[r]]
        step = size // len(ball)
        for lo in range(0, len(todo), step):
            centers = todo[lo : lo + step]
            own = sums[r, centers - homes[0]]
            terms = (len(ball), len(centers))
            n = len(ball) * len(centers)
            nodes = np.add.outer(ball, centers, out=node_buf[:n].reshape(terms))
            # Every node lies in the padded grid; "clip" writes straight
            # into the buffer, where the default mode would check through a copy.
            diff = diff_buf[: m * n].reshape((m,) + terms)
            np.take(vals, nodes, axis=1, out=diff, mode="clip")
            diff -= (own[:, :m] / own[:, m + 1 :]).T[:, None, :]
            dist = np.square(diff, out=diff).sum(axis=0, out=dist_buf[:n].reshape(terms))
            np.sqrt(dist, out=dist)
            if (own[:, m + 1] < len(ball)).any():
                np.fmax(dist, 0.0, out=dist)
            # A reduction over rows adds them in order, but a single
            # column would be summed pairwise.
            total = np.add.reduce(dist) if len(centers) > 1 else np.cumsum(dist)[-1]
            best = max(best, float((total / own[:, m + 1]).max()))
    return best


def _slack(offsets: int, m: int) -> float:
    """Relative rounding slack of the oscillation bounds of balls of at
    most ``offsets`` offsets and ``m`` components.

    The ball sums, the subtraction in the bound and the computed
    oscillation each carry a relative rounding error of at most about
    ``(|B| + m) 2^-53``; the slack is 8 times that.
    """
    return 8.0 * (offsets + m + 8) * 2.0**-53


def _constant_to_round_off(flat: NDArray[np.float64]) -> bool:
    """Whether every row of ``flat`` lies within ``CONST_ULPS`` ulps of
    the first row, componentwise."""
    with np.errstate(over="ignore"):
        dev = np.abs(flat - flat[0])
    return bool((dev <= CONST_ULPS * np.spacing(np.abs(flat[0]))).all())


def bmo_seminorm(field: DiscreteField, radius: float) -> float:
    """Supremum over node-centered balls of the mean oscillation.

    Balls of radii ``ball_radii(grid, radius)`` around every node are
    scanned.  A ball is closed: it holds the nodes at integer offset
    ``o`` from its center with ``sum_a (o_a h_a)^2 <= r^2`` (up to a
    relative ``1e-12`` on ``r^2``), clipped at the walls.  The
    oscillation of a vector field is the Euclidean norm of the
    componentwise deviation from the ball mean, averaged over the ball.

    On the uniform grid a ball is the same offset set at every center.
    The field is laid out row-major on the grid padded by the largest
    ball's reach, so an offset is one shift of the flat index and adds
    one contiguous block of rows to every center at once.  One loop over
    the offsets of the largest ball gives every ball's sums of ``v``,
    ``|v|^2`` and ``1`` (nested radii share the offset list).  By
    Cauchy-Schwarz a ball's oscillation is at most ``U = sqrt(mean |v|^2
    - |mean v|^2)``, which is padded by a rounding slack so that the
    computed ``U`` is never below the computed oscillation.  The balls
    of largest ``U``, up to that slack, are evaluated first.  No other
    ball whose ``U`` is at most the best oscillation found can hold the
    supremum.  Each of the rest gets a second, tighter bound from the
    same sums: Cauchy-Schwarz on each of ``PIECES`` groups of its
    consecutive shells (see ``_piece_bounds``), padded likewise, and
    only the balls whose piece bound still exceeds the best are
    evaluated.  An evaluated ball sums its distances in the order of a
    scan over every ball, so the supremum is that scan's to the bit.

    The centred field is scanned as it is when its largest component
    lies in ``[2^-400, 2^400]``.  Outside, where squares could overflow
    or underflow, it is scaled by a power of two into ``[1/2, 1)`` and
    the supremum scaled back, which is exact: the supremum of
    ``2^k v`` is ``2^k`` times that of ``v``.

    Cost: ``O(N |B|)`` time and ``O(R N m)`` memory for the sums, with
    ``N`` nodes, ``R`` radii, ``m`` components and ``|B|`` offsets in
    the largest ball, plus ``O(PIECES m)`` per ball given a piece bound
    and ``O(|B| m)`` per evaluated ball.  The first bound leaves a few
    percent of the ``R N`` balls on the fields tried (smooth patterns,
    noise), every ball at worst; the piece bound prunes 97% of those on
    the 512-cell Turing pattern, where 27 of 32,768 balls are evaluated,
    and little where Cauchy-Schwarz is nearly tight, as on noise or on
    unit vectors turning at a constant rate.  A field that is constant
    up to round-off (each component within ``CONST_ULPS`` ulps of its
    value at the first node) returns ``0.0`` at once.
    """
    grid = field.grid
    radii = ball_radii(grid, radius)
    shape = grid.shape
    m = field.m
    flat = field.values.reshape(-1, m)
    if _constant_to_round_off(flat):
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
    exponent = 0
    largest = float(np.abs(centred).max())
    if not 2.0**-RESCALE_EXP <= largest <= 2.0**RESCALE_EXP:
        exponent = math.frexp(largest)[1]
        centred = np.ldexp(centred, -exponent)

    # The padded grid has one more row on the first axis, so that the
    # centers span ``shape[0]`` whole padded rows from the first node's.
    reach = np.abs(offsets).max(axis=0)
    padded = tuple(int(n + 2 * k + (a == 0)) for a, (n, k) in enumerate(zip(shape, reach)))
    steps = np.array([math.prod(padded[a + 1 :]) for a in range(len(padded))])
    inner = tuple(slice(k, k + n) for k, n in zip(reach, shape))
    shifts = offsets @ steps
    homes = np.indices(shape).reshape(len(shape), -1).T @ steps + int(reach @ steps)

    # Channels v, |v|^2 and 1, last, so that each offset adds whole rows.
    rows = np.zeros(padded + (m + 2,))
    rows[inner] = np.concatenate(
        [centred, np.square(centred).sum(axis=1, keepdims=True), np.ones((len(flat), 1))],
        axis=1,
    ).reshape(shape + (m + 2,))
    span = shape[0] * int(steps[0])
    sums = _ball_sums(rows.reshape(-1, m + 2), shifts + homes[0], first, len(radii), span)
    own = sums.reshape((len(radii), shape[0]) + padded[1:] + (m + 2,))
    own = own[(slice(None), slice(None)) + tuple(slice(n) for n in shape[1:])]

    # The bound, padded by the slack and by 2^-500 for underflow in the
    # squares.
    counts = own[..., m + 1]
    mean = np.divide(own[..., 0], counts)
    norm_sq = np.square(mean)
    for j in range(1, m):
        np.divide(own[..., j], counts, out=mean)
        norm_sq += np.square(mean, out=mean)
    mean_sq = np.divide(own[..., m], counts, out=mean)
    bound = np.subtract(mean_sq, norm_sq, out=norm_sq)
    np.maximum(bound, 0.0, out=bound)
    slack = _slack(len(offsets), m)
    mean_sq *= slack
    bound += mean_sq
    np.sqrt(bound, out=bound)
    bound *= 1.0 + slack
    bound += 2.0**-500
    bound = bound.reshape(len(radii), -1)

    # Seed with the balls of largest bound, up to the slack: bounds that
    # close are tied to rounding, and where Cauchy-Schwarz is tight each
    # of those balls may hold the supremum, which no finer bound can rule
    # out.  Then no ball whose bound is at most the best oscillation
    # found can hold the supremum, and of the others only those whose
    # piece bound beats it.
    vals = np.full((m,) + padded, np.nan)
    vals[(slice(None),) + inner] = np.moveaxis(centred.reshape(shape + (m,)), -1, 0)
    scan = (vals.reshape(m, -1), homes, shifts, first, sums)
    top = bound >= bound.max() * (1.0 - slack)
    best = _max_oscillation(*scan, top)
    rest = (bound > best) & ~top
    if rest.any():
        rest[rest] = _piece_bounds(sums, homes, rest, slack) > best
        best = max(best, _max_oscillation(*scan, rest))
    return float(np.ldexp(best, exponent))


def identity_residuals(
    model: Model,
    field: DiscreteField,
    forcing: NDArray[np.float64] | None = None,
) -> tuple[float, float]:
    """Weak-form identity residuals ``(mass, energy)``.

    mass: ``max_i |integral of f_i(u)|`` — converged Neumann solutions
    satisfy it to solver tolerance (test the system with the constant 1).
    energy: ``|sum_nodes <R(u), u>| * cell volume``, the discrete system
    ``R`` of :func:`discretize` tested with ``u``.  Summed by parts, that
    is ``|integral <A(u)Du, Du> - integral <f(u), u>|`` with the flux term
    quadratured face by face, Dirichlet wall faces included.

    ``forcing`` is added to the reaction before testing, matching the
    forced system whose solutions satisfy the identities.
    """
    return _identities(model, field, forcing)[:2]


def _identities(
    model: Model, field: DiscreteField, forcing: NDArray[np.float64] | None = None
) -> tuple[float, float, NDArray[np.float64]]:
    """:func:`identity_residuals` and the discrete residual they test."""
    u = field.values
    vol = field.grid.cell_volume
    f_vals = model.f(u)
    if forcing is not None:
        f_vals = f_vals + np.asarray(forcing, dtype=float)
    mass = float(np.abs(f_vals.reshape(-1, model.m).sum(axis=0) * vol).max())
    residual = discretize(model, field.grid, forcing).residual(u)
    energy = abs(float((residual * u).sum())) * vol
    return mass, energy, residual


def nonexistence_threshold(model: Model, solution_box: Sequence[Sequence[float]]) -> float:
    """Diffusion threshold above which no nonconstant solution exists.

    ``F_* = max ||J_f(u)||_2`` over the box of plausible solution values
    and ``threshold = F_* diam(Omega)^2 / pi^2 >= F_* / lambda_1``: on a
    convex domain the first nonzero Neumann eigenvalue is at least
    ``pi^2 / diam^2`` (Payne-Weinberger), with equality on an interval.
    If the ellipticity floor of ``A`` exceeds the threshold, the energy
    estimate against the Poincare inequality leaves every solution
    constant (the model family carries no gradient term).  Since ``J_f``
    is affine in ``u``, the spectral norm is convex and its box maximum
    sits at one of the ``2^m`` vertices, which are enumerated exactly.
    """
    box = np.asarray(solution_box, dtype=float)
    if box.shape != (model.m, 2):
        raise ModelError(f"box must have shape ({model.m}, 2), got {box.shape}")
    if np.any(box[:, 1] < box[:, 0]):
        raise ModelError("empty box: upper bound below lower bound")

    corners = np.array(list(itertools.product(*box)), dtype=float)
    J = model.jacobian_f(corners)
    F_star = float(np.linalg.norm(J, ord=2, axis=(-2, -1)).max())
    return F_star * (model.domain.diameter / math.pi) ** 2


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
    mass, energy, res = _identities(model, field)
    pos_min = float(field.values.min())
    warnings: list[str] = []
    rn = float(np.linalg.norm(res))
    scale = 1.0 + float(np.linalg.norm(field.values))
    if rn > NOT_A_SOLUTION_RTOL * scale:
        warnings.append(
            f"not a solution: discrete residual {rn:.3e} exceeds "
            f"{NOT_A_SOLUTION_RTOL:.0e} relative; identity residuals are "
            "not meaningful"
        )
    if pos_min < -TOL_ZERO:
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
