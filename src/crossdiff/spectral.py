"""Neumann Laplacian spectra on intervals and rectangles.

Analytic eigenvalues with exact multiplicities (collisions detected, not
split), held as arrays: :class:`ModeSpectrum` lists the distinct values
in ascending order with the lattice points of each.  A finite-difference
discrete spectrum serves as an independent cross-check and the
verification oracles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from numpy.typing import NDArray

from .model import ConfigError, Domain

TOL_COLLIDE = 1e-9
# Most lattice points a spectrum may need, so an interval returns at most
# this many modes.
_MAX_LATTICE = 32767


@dataclass(frozen=True, eq=False)
class ModeSpectrum:
    """Ascending distinct eigenvalues of the Neumann Laplacian on ``domain``.

    ``values[i]`` has multiplicity ``M[i]``: its eigenspace is spanned by
    the separated cosine products of the integer lattice points
    ``points[offsets[i]:offsets[i + 1]]``, rows ``(k,)`` or ``(k1, k2)``
    in lexicographic order.  ``spectrum[a:b]`` is again a spectrum, of
    the values ``a`` to ``b``.
    """

    values: NDArray[np.float64]
    points: NDArray[np.intp]
    offsets: NDArray[np.intp]
    domain: Domain

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, index: slice) -> ModeSpectrum:
        start, stop, step = index.indices(len(self))
        if step != 1:
            raise ValueError("a spectrum slice takes consecutive values")
        offsets = self.offsets[start : max(start, stop) + 1]
        return ModeSpectrum(
            self.values[start:stop],
            self.points[offsets[0] : offsets[-1]],
            offsets - offsets[0],
            self.domain,
        )

    @property
    def M(self) -> NDArray[np.intp]:
        return self.offsets[1:] - self.offsets[:-1]

    def mode_indices(self) -> list[tuple[tuple[int, ...], ...]]:
        """The lattice points of each value, as tuples of ints."""
        points = [tuple(k) for k in self.points.tolist()]
        ends = self.offsets.tolist()
        return [tuple(points[a:b]) for a, b in zip(ends, ends[1:])]


def _group_starts(values: NDArray[np.float64]) -> NDArray[np.bool_]:
    """Where the collision groups of the ascending ``values`` start.

    A value joins the current group when it lies within
    ``TOL_COLLIDE * |value|`` of the group's first value, not of the
    value before it.  The tolerance is relative because the spectrum's
    scale is set by the domain: on a long interval ``(pi / L)^2`` may be
    far below any absolute tolerance, and the constant mode's value 0
    groups only with itself.  A gap above that tolerance starts a group
    whatever the group's first value; within a run of smaller gaps, each
    pass starts a new group at the first value too far from its group's
    first, which is where a walk from the bottom would start it.
    """
    tol = TOL_COLLIDE * np.abs(values)
    starts = np.ones(len(values), dtype=bool)
    starts[1:] = np.diff(values) > tol[1:]
    position = np.arange(len(values))
    while True:
        first = np.maximum.accumulate(np.where(starts, position, 0))
        late = np.flatnonzero(values - values[first] > tol)
        if late.size == 0:
            return starts
        starts[late[np.r_[True, np.diff(first[late]) > 0]]] = True


def _axis_value(k: int, L: float) -> float:
    return (k * math.pi / L) ** 2


def _widen(x: float) -> float:
    """``x`` plus twice the collision tolerance: every value that can
    join a collision group starting at or below ``x`` is within it."""
    return x + 2.0 * TOL_COLLIDE * abs(x)


def _axis_top(L: float, x: float) -> int:
    """Largest ``k >= 0`` whose axis value ``(k pi / L)^2`` is at most ``x``."""
    k = int(math.sqrt(max(x, 0.0)) * L / math.pi)
    while _axis_value(k + 1, L) <= x:
        k += 1
    while k > 0 and _axis_value(k, L) > x:
        k -= 1
    return k


def lattice_edge(domain: Domain, bound: float, extra: int = 0) -> tuple[float, list[int]]:
    """What :func:`spectrum_through` lists, decided before any array is built.

    Returns the largest value it lists and, per axis, the largest ``k``
    that value needs.  The axis modes ``(k, 0, ...)`` of the longest side
    have distinct values, so a reach raised to the ``extra``-th of them
    above ``bound`` holds at least ``extra`` values past it.  Raises
    :class:`ConfigError` when the lattice points up to the reach number
    more than ``_MAX_LATTICE`` or their values overflow a float.
    """
    L_max = max(domain.lengths)

    def reach(x: float) -> float:
        return max(bound, _axis_value(_axis_top(L_max, x) + extra, L_max))

    # The longest axis alone needs floor(sqrt(bound) L_max / pi) + 1 + extra
    # points.  Deciding that in closed form first keeps ``_axis_top`` from
    # walking toward a top that no float step of one can reach; one point
    # of slack covers a floor that rounds up, and the exact count decides
    # the rest.
    too_many = ConfigError(f"spectral bound {bound:.3e} requires too many modes")
    if (
        not math.isfinite(bound)
        or math.sqrt(max(bound, 0.0)) * L_max / math.pi + extra >= _MAX_LATTICE + 1
    ):
        raise too_many
    try:
        points = math.prod(_axis_top(L, reach(bound)) + 1 for L in domain.lengths)
        if points > _MAX_LATTICE:
            raise too_many
        # Widened twice, so that a collision group straddling ``bound`` or
        # the reach is counted once and listed whole.
        edge = _widen(reach(_widen(bound)))
        return edge, [_axis_top(L, edge) for L in domain.lengths]
    except OverflowError:
        raise ConfigError(
            f"Neumann eigenvalues on lengths {domain.lengths} overflow a float"
        ) from None


def spectrum_through(domain: Domain, bound: float, extra: int = 0) -> ModeSpectrum:
    """All distinct eigenvalues with ``lambda_hat <= bound``, plus ``extra`` more.

    Every lattice point ``k`` with ``sum_a (k_a pi / L_a)^2`` up to the
    edge of :func:`lattice_edge` is listed and collisions are grouped, so
    each eigenvalue carries its full multiplicity.  On an interval of
    ordinary length the values are distinct and every group has one
    point.  A prefix of the spectrum through a larger bound is the
    spectrum through a smaller one.
    """
    edge, tops = lattice_edge(domain, bound, extra)
    axes = [
        np.array([_axis_value(k, L) for k in range(top + 1)])
        for L, top in zip(domain.lengths, tops)
    ]
    values = sum(np.ix_(*axes))
    inside = values <= edge
    points = np.argwhere(inside)
    values = values[inside]
    order = np.argsort(values, kind="stable")
    values = values[order]
    starts = _group_starts(values)
    # ``argwhere`` lists the points lexicographically: sorting a group by
    # list position sorts its points.
    points = points[order[np.lexsort((order, np.cumsum(starts)))]]
    offsets = np.append(np.flatnonzero(starts), len(values))
    spectrum = ModeSpectrum(values[starts], points, offsets, domain)
    return spectrum[: int(np.searchsorted(spectrum.values, bound, side="right")) + extra]


def neumann_eigenvalues(domain: Domain, count: int) -> ModeSpectrum:
    """First ``count`` distinct Neumann eigenvalues of ``-Laplace``.

    Interval ``(0, L)``: ``lambda_k = (k pi / L)^2`` with eigenfunction
    ``cos(k pi x / L)``, all simple.  Rectangle: sums over both axes,
    with multiplicities from exact value collisions.  The axis modes of
    the longest side put ``count`` distinct values at or below
    ``((count - 1) pi / L_max)^2``.
    """
    if count < 1:
        raise ConfigError(f"count must be >= 1, got {count}")
    bound = _axis_value(count - 1, max(domain.lengths))
    return spectrum_through(domain, bound)[:count]


def eigenfunction(
    domain: Domain, mode_index: Sequence[int], points: NDArray[np.float64]
) -> NDArray[np.float64]:
    """Neumann eigenfunction ``prod_a cos(k_a pi x_a / L_a)`` at points.

    ``points`` has shape ``(..., dim)`` (or ``(...,)`` for intervals).
    """
    pts = np.asarray(points, dtype=float)
    if domain.dimension == 1:
        x = pts[..., 0] if pts.ndim > 1 and pts.shape[-1] == 1 else pts
        return np.cos(mode_index[0] * math.pi * x / domain.lengths[0])
    out = np.ones(pts.shape[:-1])
    for axis, (k, L) in enumerate(zip(mode_index, domain.lengths)):
        out = out * np.cos(k * math.pi * pts[..., axis] / L)
    return out


def _fd_eigs_1d(n: int, L: float, bc: str) -> NDArray[np.float64]:
    """Eigenvalues of the cell-centered FD ``-d2/dx2`` on ``(0, L)``.

    Closed form, ascending: ``4/h^2 sin^2(k pi / 2n)`` under Neumann
    (``k = 0`` is the exact zero mode) and ``4/h^2 sin^2((k+1) pi / 2n)``
    under Dirichlet, for ``k = 0..n-1``.
    """
    h = L / n
    k = np.arange(n, dtype=float)
    if bc == "dirichlet":
        k += 1.0
    elif bc != "neumann":
        raise ConfigError(f"unknown boundary condition {bc!r}")
    return 4.0 / h**2 * np.sin(k * np.pi / (2 * n)) ** 2


def discrete_laplacian_spectrum(
    domain: Domain, grid_n: int | Sequence[int], bc: str = "neumann"
) -> NDArray[np.float64]:
    """Sorted eigenvalues of the finite-difference ``-Laplace`` operator.

    Cell-centered grid; Neumann by ghost reflection, Dirichlet by
    zero-pinning at the wall.  On rectangles the operator is a Kronecker
    sum, so eigenvalues are all pairwise sums of the 1D spectra.
    """
    if isinstance(grid_n, int):
        ns = (grid_n,) * domain.dimension
    else:
        ns = tuple(int(n) for n in grid_n)
    if len(ns) != domain.dimension:
        raise ConfigError(
            f"grid_n needs {domain.dimension} entries, got {len(ns)}"
        )
    if any(n < 3 for n in ns):
        raise ConfigError(f"grid_n must be >= 3 per axis, got {ns}")
    spectra = [_fd_eigs_1d(n, L, bc) for n, L in zip(ns, domain.lengths)]
    if domain.dimension == 1:
        vals = spectra[0]
    else:
        vals = (spectra[0][:, None] + spectra[1][None, :]).ravel()
    return np.sort(vals)
