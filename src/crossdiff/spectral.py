"""Neumann Laplacian spectra on intervals and rectangles.

Analytic eigenvalues with exact multiplicities (collisions detected, not
split), plus a finite-difference discrete spectrum used as an
independent cross-check and by the verification oracles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np
from numpy.typing import NDArray

from .model import ConfigError, Domain

TOL_COLLIDE = 1e-9
# Most lattice points a spectrum may need, so an interval returns at most
# this many modes.
_MAX_LATTICE = 32767


@dataclass(frozen=True)
class SpectrumEntry:
    """One distinct Laplacian eigenvalue with its multiplicity.

    ``mode_indices`` lists the integer lattice tuples ``(k,)`` or
    ``(k1, k2)`` whose separated cosine products span the eigenspace.
    """

    lambda_hat: float
    M: int
    mode_indices: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class ModeSpectrum:
    """Ordered distinct eigenvalues of the Neumann Laplacian."""

    entries: tuple[SpectrumEntry, ...]
    domain: Domain

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[SpectrumEntry]:
        return iter(self.entries)

    def __getitem__(self, i: int) -> SpectrumEntry:
        return self.entries[i]

    @property
    def values(self) -> NDArray[np.float64]:
        return np.array([e.lambda_hat for e in self.entries])

    def nonzero(self) -> tuple[SpectrumEntry, ...]:
        """Entries with positive eigenvalue (drops the constant mode)."""
        return tuple(e for e in self.entries if e.lambda_hat > 0.0)


def _group_by_collision(
    values: NDArray[np.float64], indices: list[tuple[int, ...]]
) -> list[SpectrumEntry]:
    order = np.argsort(values, kind="stable")
    entries: list[SpectrumEntry] = []
    cur_val: float | None = None
    cur_idx: list[tuple[int, ...]] = []
    for pos in order:
        v = float(values[pos])
        if cur_val is None or v - cur_val > TOL_COLLIDE * max(1.0, abs(v)):
            if cur_val is not None:
                entries.append(
                    SpectrumEntry(cur_val, len(cur_idx), tuple(sorted(cur_idx)))
                )
            cur_val = v
            cur_idx = [indices[pos]]
        else:
            cur_idx.append(indices[pos])
    if cur_val is not None:
        entries.append(SpectrumEntry(cur_val, len(cur_idx), tuple(sorted(cur_idx))))
    return entries


def _axis_value(k: int, L: float) -> float:
    return (k * math.pi / L) ** 2


def _widen(x: float) -> float:
    """``x`` plus twice the collision tolerance: every value that can
    join a collision group starting at or below ``x`` is within it."""
    return x + 2.0 * TOL_COLLIDE * max(1.0, x)


def _axis_top(L: float, x: float) -> int:
    """Largest ``k >= 0`` whose axis value ``(k pi / L)^2`` is at most ``x``."""
    k = int(math.sqrt(max(x, 0.0)) * L / math.pi)
    while _axis_value(k + 1, L) <= x:
        k += 1
    while k > 0 and _axis_value(k, L) > x:
        k -= 1
    return k


def _lattice(domain: Domain, bound: float, extra: int) -> tuple[SpectrumEntry, ...]:
    """Distinct eigenvalues ``<= bound`` and the next ``extra``, in one pass.

    The axis modes ``(k, 0, ...)`` of the longest side have distinct
    values, so a reach raised to the ``extra``-th of them above ``bound``
    holds at least ``extra`` entries past it.  Every lattice point ``k``
    with ``sum_a (k_a pi / L_a)^2`` up to the reach is listed and
    collisions are grouped, so each eigenvalue carries its full
    multiplicity.  The points the result needs are counted before any
    array is built; on an interval that count is the number of entries
    returned.
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
        axes = [
            np.array([_axis_value(k, L) for k in range(_axis_top(L, edge) + 1)])
            for L in domain.lengths
        ]
    except OverflowError:
        raise ConfigError(
            f"Neumann eigenvalues on lengths {domain.lengths} overflow a float"
        ) from None
    values = sum(np.ix_(*axes))
    inside = values <= edge
    indices = [tuple(k) for k in np.argwhere(inside).tolist()]
    entries = _group_by_collision(values[inside], indices)
    below = sum(1 for e in entries if e.lambda_hat <= bound)
    return tuple(entries[: below + extra])


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
    return ModeSpectrum(entries=_lattice(domain, bound, 0)[:count], domain=domain)


def spectrum_through(domain: Domain, bound: float, extra: int = 0) -> ModeSpectrum:
    """All distinct eigenvalues with ``lambda_hat <= bound``, plus ``extra`` more."""
    return ModeSpectrum(entries=_lattice(domain, bound, extra), domain=domain)


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
