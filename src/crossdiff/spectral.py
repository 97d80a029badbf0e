"""Neumann Laplacian spectra on intervals and rectangles.

Analytic eigenvalues held as arrays: :class:`ModeSpectrum` lists the
modes, one integer lattice point each, in ascending order of eigenvalue,
so an eigenvalue of multiplicity ``M`` takes ``M`` consecutive rows.
Mode ``K`` is row ``K`` of that list, mode 0 the constant mode: the
numbering of ``--seed-mode K`` and of an index report's ``first_mode``.
A finite-difference discrete spectrum serves as an independent
cross-check and the verification oracles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from numpy.typing import NDArray

from .model import ConfigError, Domain

# Most lattice points a spectrum may need, so an interval returns at most
# this many modes.
_MAX_LATTICE = 32767


@dataclass(frozen=True, eq=False)
class ModeSpectrum:
    """Neumann modes on ``domain`` in ascending order of eigenvalue.

    Row ``K`` is mode ``K``: its eigenvalue ``values[K]`` and its lattice
    point ``points[K]``, a row ``(k,)`` or ``(k1, k2)`` whose separated
    cosine product is the eigenfunction.  An eigenvalue of multiplicity
    ``M`` takes ``M`` rows, its points in lexicographic order.
    ``spectrum[a:b]`` is again a spectrum, of the modes ``a`` to ``b``.
    """

    values: NDArray[np.float64]
    points: NDArray[np.intp]
    domain: Domain

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, index: slice) -> ModeSpectrum:
        return ModeSpectrum(self.values[index], self.points[index], self.domain)


def _axis_value(k: int, L: float) -> float:
    return (k * math.pi / L) ** 2


def _axis_top(L: float, x: float) -> int:
    """Largest ``k >= 0`` whose axis value ``(k pi / L)^2`` is at most ``x``."""
    k = int(math.sqrt(max(x, 0.0)) * L / math.pi)
    while _axis_value(k + 1, L) <= x:
        k += 1
    while k > 0 and _axis_value(k, L) > x:
        k -= 1
    return k


def spectrum_through(domain: Domain, bound: float) -> ModeSpectrum:
    """Every mode with ``lambda_hat <= bound``.

    Each lattice point ``k`` with ``sum_a (k_a pi / L_a)^2 <= bound`` is
    one mode.  The modes are sorted by value with a stable sort over
    ``argwhere``'s lexicographic order and no tolerance, so points with
    bit-equal values stay in lexicographic order.  A prefix of the
    spectrum through a larger bound is the spectrum through a smaller
    one.  Raises :class:`ConfigError` when the lattice points up to
    ``bound`` number more than ``_MAX_LATTICE`` or their values overflow
    a float.
    """
    # The longest axis alone needs floor(sqrt(bound) L_max / pi) + 1
    # points.  Deciding that in closed form first keeps ``_axis_top`` from
    # walking toward a top that no float step of one can reach; one point
    # of slack covers a floor that rounds up, and the exact count decides
    # the rest.
    too_many = ConfigError(f"spectral bound {bound:.3e} requires too many modes")
    if (
        not math.isfinite(bound)
        or math.sqrt(max(bound, 0.0)) * max(domain.lengths) / math.pi >= _MAX_LATTICE + 1
    ):
        raise too_many
    try:
        tops = [_axis_top(L, bound) for L in domain.lengths]
    except OverflowError:
        raise ConfigError(
            f"Neumann eigenvalues on lengths {domain.lengths} overflow a float"
        ) from None
    if math.prod(top + 1 for top in tops) > _MAX_LATTICE:
        raise too_many
    axes = [
        np.array([_axis_value(k, L) for k in range(top + 1)])
        for L, top in zip(domain.lengths, tops)
    ]
    values = sum(np.ix_(*axes))
    inside = values <= bound
    values = values[inside]
    order = np.argsort(values, kind="stable")
    return ModeSpectrum(values[order], np.argwhere(inside)[order], domain)


def neumann_eigenvalues(domain: Domain, count: int) -> ModeSpectrum:
    """The first ``count`` Neumann modes of ``-Laplace``.

    Interval ``(0, L)``: ``lambda_k = (k pi / L)^2`` with eigenfunction
    ``cos(k pi x / L)``, all simple.  Rectangle: sums over both axes, an
    eigenvalue of multiplicity ``M`` taking ``M`` modes.  The axis modes
    of the longest side put ``count`` modes at or below
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
