"""Neumann Laplacian spectra on intervals and rectangles.

A Neumann mode is a lattice point ``k >= 0`` with eigenvalue ``sum_a
(k_a pi / L_a)^2`` and eigenfunction ``prod_a cos(k_a pi x_a / L_a)``.
Modes are numbered in ascending order of eigenvalue from mode 0, the
constant mode, bit-equal values in lexicographic order of their points:
the numbering of ``--seed-mode K`` and of an index report's
``first_mode``.  :func:`mode` looks up mode ``K`` and :func:`_weyl`
counts the modes below a value, neither listing the modes before.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np
from numpy.typing import NDArray

from .model import ConfigError, Domain
from .steady_states import TOL_DEGENERATE

# Most Neumann eigenvalues that may lie below a root, and the largest
# mode number.  On an interval the eigenvalues near mu with N below it
# are about 2 mu / N apart, so past 1 / TOL_DEGENERATE every root lies
# within the degeneracy gap of one, and a rectangle's lattice is denser
# still.  The counts also stay exact integers.
MAX_COUNT = round(1 / TOL_DEGENERATE)


def _axis(s: NDArray[np.float64], L: NDArray[np.float64]) -> tuple[NDArray, NDArray]:
    """Per entry: how many axis values ``(k pi / L)^2``, ``k >= 0``, lie
    below ``s``, and the distance from ``s`` to the nearest one."""
    t = L * np.sqrt(np.maximum(s, 0.0)) / np.pi
    k = np.floor(t)
    return np.ceil(t), np.minimum(
        np.abs(s - (k * np.pi / L) ** 2), np.abs(s - ((k + 1.0) * np.pi / L) ** 2)
    )


def _weyl(
    x: NDArray[np.float64], lengths: NDArray[np.float64]
) -> tuple[NDArray[np.int64], NDArray[np.float64]]:
    """``N(x)`` and the distance from ``x`` to the nearest Neumann eigenvalue.

    Row ``i`` of ``x`` lives on the domain with sides ``lengths[i]``, all
    of one dimension.  On an interval that is :func:`_axis`.  On a
    rectangle it is :func:`_axis` along the longer side in every column
    ``k`` of the shorter one, at ``x - (k pi / L_short)^2``: the columns
    below ``x`` and one more, which holds the nearest eigenvalue above
    ``x`` on the short axis.
    """
    if lengths.shape[1] == 1:
        count, dist = _axis(x, lengths)
        return count.astype(np.int64), dist
    shape, x = x.shape, x.ravel()
    short = np.repeat(lengths.min(axis=1), shape[1])
    long = np.repeat(lengths.max(axis=1), shape[1])
    cols = np.floor(short * np.sqrt(np.maximum(x, 0.0)) / np.pi).astype(np.intp) + 2
    owner = np.repeat(np.arange(len(x)), cols)
    starts = np.cumsum(cols) - cols
    k = np.arange(owner.size) - starts[owner]
    count, dist = _axis(x[owner] - (k * np.pi / short[owner]) ** 2, long[owner])
    return (
        np.bincount(owner, count, len(x)).astype(np.int64).reshape(shape),
        np.minimum.reduceat(dist, starts).reshape(shape),
    )


def _axis_value(k: int, L: float) -> float:
    return (k * math.pi / L) ** 2


def mode(domain: Domain, K: int) -> tuple[float, tuple[int, ...]]:
    """Mode ``K``: its eigenvalue, summed per axis in Python floats, and
    its lattice point.  On an interval that is ``(K,)``; on a rectangle
    the lookup costs O(columns), not O(K).  Raises :class:`ConfigError`
    when ``K`` is negative or above :data:`MAX_COUNT`, or the eigenvalue
    overflows a float.
    """
    if K < 0:
        raise ConfigError(f"mode number must be >= 0, got {K}")
    if K > MAX_COUNT:
        raise ConfigError(
            f"mode {K} requires too many modes: at most {MAX_COUNT:.0e} are numbered"
        )
    try:
        if domain.dimension == 1:
            return _axis_value(K, domain.lengths[0]), (K,)
        return _rectangle_mode(domain.lengths, K)
    except OverflowError:
        raise ConfigError(
            f"Neumann eigenvalues on lengths {domain.lengths} overflow a float"
        ) from None


def _columns_below(x: float, short: float, long: float) -> list[int]:
    """Per column ``c`` whose first point lies below ``x``: how many of its
    points ``k`` have ``(c pi / short)^2 + (k pi / long)^2 < x``, each
    value summed in Python floats as :func:`mode` sums it."""
    out: list[int] = []
    while (a := _axis_value(len(out), short)) < x:
        # The closed form is off by one where rounding puts x on a value.
        k = math.ceil(math.sqrt(x - a) * long / math.pi)
        while k > 0 and a + _axis_value(k - 1, long) >= x:
            k -= 1
        while a + _axis_value(k, long) < x:
            k += 1
        out.append(k)
    return out


def _rectangle_mode(lengths: tuple[float, ...], K: int) -> tuple[float, tuple[int, int]]:
    """Mode ``K`` on a rectangle: exact column counts bracket it between
    two values, from a guess of the count, and only the points between
    them are listed and sorted.  Columns run along the shorter side, so
    column ``c`` holds the points ``(c, k)``, or ``(k, c)`` when
    ``swap``."""
    swap = lengths[1] < lengths[0]
    short, long = sorted(lengths)
    # About A s^2 + B s points lie below (pi s)^2: the quarter ellipse's
    # area and half the points on its two semi-axes.  guess(n) is the
    # value with about n points below it.
    A, B = math.pi * short * long / 4.0, (short + long) / 2.0

    def guess(n: int) -> float:
        return (2.0 * math.pi * n / (B + math.sqrt(B * B + 4.0 * A * n))) ** 2

    lo, hi = guess(max(K - 8, 0)), guess(K + 8)
    below, above = _columns_below(lo, short, long), _columns_below(hi, short, long)
    while sum(below) > K:
        lo /= 4.0
        below = _columns_below(lo, short, long)
    while sum(above) <= K:
        hi *= 4.0
        above = _columns_below(hi, short, long)
    # Halve the bracket until it holds at most 64 points, or ties fill it.
    while sum(above) - sum(below) > 64 and lo < (mid := lo + (hi - lo) / 2.0) < hi:
        if sum(t := _columns_below(mid, short, long)) <= K:
            lo, below = mid, t
        else:
            hi, above = mid, t
    band = []
    for c, top in enumerate(above):
        a = _axis_value(c, short)
        for k in range(below[c] if c < len(below) else 0, top):
            band.append((a + _axis_value(k, long), (k, c) if swap else (c, k)))
    band.sort()
    value, point = band[K - sum(below)]
    if not math.isfinite(value):  # two finite axis values can sum to inf
        raise OverflowError
    return value, point


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
