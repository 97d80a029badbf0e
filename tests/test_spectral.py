"""Zero-flux Laplacian spectra: analytic enumeration and the discrete check."""

from __future__ import annotations

import itertools
import math
import signal

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from crossdiff import (
    ConfigError,
    Domain,
    discrete_laplacian_spectrum,
    eigenfunction,
    neumann_eigenvalues,
    spectrum_through,
)
from crossdiff.spectral import _group_starts

PI = np.pi


def test_interval_modes_are_squares():
    spectrum = neumann_eigenvalues(Domain(kind="interval", lengths=(PI,)), 4)
    got = list(zip(spectrum.values.tolist(), spectrum.M.tolist()))
    assert got == [(0.0, 1), (1.0, 1), (4.0, 1), (9.0, 1)]


def test_square_first_nonzero_mode_is_double():
    spectrum = neumann_eigenvalues(Domain(kind="rectangle", lengths=(PI, PI)), 3)
    assert spectrum.values[1] == pytest.approx(1.0)
    assert spectrum.M[1] == 2
    assert set(spectrum.mode_indices()[1]) == {(1, 0), (0, 1)}


def test_half_height_rectangle_values():
    # (0,pi) x (0,pi/2): eigenvalues are k1^2 + 4 k2^2.
    spectrum = neumann_eigenvalues(
        Domain(kind="rectangle", lengths=(PI, PI / 2)), 6
    )
    pairs = [(k1, k2) for k1 in range(6) for k2 in range(6)]
    exact = sorted({k1**2 + 4 * k2**2 for k1, k2 in pairs})[:6]
    np.testing.assert_allclose(spectrum.values[:6], exact, rtol=1e-12)
    # 4 = 2^2 + 0 = 0 + 4*1^2: an honest collision.
    assert spectrum.M[np.isclose(spectrum.values, 4.0)].tolist() == [2]


def test_entries_strictly_increasing_and_first_is_constant_mode():
    for lengths in [(PI,), (2.0, 3.0)]:
        kind = "interval" if len(lengths) == 1 else "rectangle"
        spectrum = neumann_eigenvalues(Domain(kind=kind, lengths=lengths), 8)
        values = spectrum.values
        assert values[0] == 0.0
        assert spectrum.M[0] == 1
        assert np.all(np.diff(values) > 0)


@given(st.floats(0.3, 4.0), st.integers(1, 6))
def test_interval_scaling_law(s, k):
    base = neumann_eigenvalues(Domain(kind="interval", lengths=(PI,)), 8)
    scaled = neumann_eigenvalues(Domain(kind="interval", lengths=(s * PI,)), 8)
    assert scaled.values[k] == pytest.approx(base.values[k] / s**2, rel=1e-12)


def test_spectrum_through_bound_is_inclusive_cover():
    domain = Domain(kind="interval", lengths=(PI,))
    spectrum = spectrum_through(domain, 10.0)
    assert spectrum.values.tolist() == [0.0, 1.0, 4.0, 9.0]
    with_extra = spectrum_through(domain, 10.0, extra=2)
    assert with_extra.values[-2:].tolist() == [16.0, 25.0]


def test_collision_groups_compare_with_the_first_value():
    # Each gap is below the tolerance, but the third value is past it from
    # the first: two groups, where chaining from the previous value gives one.
    run = np.array([1.0, 1.0 + 0.6e-9, 1.0 + 1.2e-9])
    assert _group_starts(run).tolist() == [True, False, True]
    assert _group_starts(run[:2]).tolist() == [True, False]


@pytest.mark.parametrize("lengths", [(2e5,), (2e5, 1.0)], ids=str)
def test_long_sides_keep_their_first_modes_apart(lengths):
    # On a side of 2e5 the axis values (k pi / L)^2 start at 2.5e-10, below
    # an absolute collision tolerance of 1e-9: only a relative tolerance
    # keeps modes 1 and 2 out of the constant mode's group.
    kind = "interval" if len(lengths) == 1 else "rectangle"
    spectrum = spectrum_through(Domain(kind=kind, lengths=lengths), 1e-7)
    rest = (0,) * (len(lengths) - 1)
    assert spectrum.M[:4].tolist() == [1, 1, 1, 1]
    assert list(spectrum.mode_indices()[:4]) == [((k,) + rest,) for k in range(4)]
    np.testing.assert_allclose(
        spectrum.values[:4], (np.arange(4) * PI / 2e5) ** 2, rtol=1e-12
    )


@pytest.mark.parametrize("lengths", [(PI,), (PI, PI), (PI, PI / 2)], ids=str)
def test_slice_is_the_spectrum_of_its_values(lengths):
    kind = "interval" if len(lengths) == 1 else "rectangle"
    spectrum = neumann_eigenvalues(Domain(kind=kind, lengths=lengths), 12)
    triples = as_triples(spectrum)
    for a, b in [(0, 12), (1, 12), (2, 5), (4, 4), (11, 20), (0, 1)]:
        part = spectrum[a:b]
        assert as_triples(part) == triples[a:b]
        assert part.offsets[0] == 0 and part.offsets[-1] == len(part.points)


ORACLE_DOMAINS = [
    (PI,),
    (1.0,),
    (3.7,),
    (PI, PI),
    (3.0, 3.0),
    (PI, PI / 2),
    (2.0, 3.0),
    (3.0, 2.0),
    (1.0, math.sqrt(2.0)),
    (PI, PI / 100),
    (2e5,),
    (2e5, 1.0),
]


def brute_force_spectrum(lengths, limit):
    """Distinct ``(lambda_hat, M, mode_indices)`` from a plain loop over ``k``.

    Every ``k`` with ``k_a pi / L_a <= sqrt(limit)`` is listed, values are
    ``sum_a (k_a pi / L_a)^2`` and a value joins the group of the smallest
    value below it when within ``1e-9 value``; only groups that
    start at or below ``limit / 2`` are sure to be whole and are returned.
    """
    tops = [int(math.sqrt(limit) * L / math.pi) + 2 for L in lengths]
    points = []
    for ks in itertools.product(*(range(top) for top in tops)):
        points.append((sum((k * math.pi / L) ** 2 for k, L in zip(ks, lengths)), ks))
    points.sort()
    groups = []
    for value, ks in points:
        if groups and value - groups[-1][0] <= 1e-9 * value:
            groups[-1][1].append(ks)
        else:
            groups.append((value, [ks]))
    return [(v, len(ks), tuple(sorted(ks))) for v, ks in groups if v <= limit / 2]


def as_triples(spectrum):
    return list(zip(spectrum.values.tolist(), spectrum.M.tolist(), spectrum.mode_indices()))


@pytest.mark.parametrize("lengths", ORACLE_DOMAINS, ids=str)
def test_enumeration_matches_brute_force_lattice(lengths):
    kind = "interval" if len(lengths) == 1 else "rectangle"
    domain = Domain(kind=kind, lengths=lengths)
    step = math.pi / max(lengths)
    oracle = brute_force_spectrum(lengths, 2.0 * ((40 + 4) * step) ** 2)
    assert len(oracle) > 44
    for count in range(1, 41):
        assert as_triples(neumann_eigenvalues(domain, count)) == oracle[:count]
    values = [v for v, _, _ in oracle[:41]]
    on = values + [math.nextafter(v, 0.0) for v in values[1:]]
    between = [(a + b) / 2 for a, b in zip(values, values[1:])]
    for bound in on + between:
        below = sum(1 for v in values if v <= bound)
        for extra in (0, 1, 3):
            got = as_triples(spectrum_through(domain, bound, extra))
            assert got == oracle[: below + extra], (bound, extra)


def test_interval_size_limit_edge():
    # At most 32,767 modes are returned; one more raises.  The bounds on
    # eigenvalues are placed where the square root rounds either way:
    # (32764 pi / pi)^2 lies above 32764^2, and sqrt((32758 pi / pi)^2)
    # rounds below 32758.
    domain = Domain(kind="interval", lengths=(PI,))
    on = (32758 * PI / PI) ** 2
    for bound, extra in [(32766.5**2, 0), (32763.5**2, 3), (32764.0**2, 3), (on, 8)]:
        assert len(spectrum_through(domain, bound, extra)) == 32767
    assert len(neumann_eigenvalues(domain, 32767)) == 32767
    for bound, extra in [(32767.5**2, 0), (32764.5**2, 3), (32765.0**2, 3), (on, 9)]:
        with pytest.raises(ConfigError, match="requires too many modes"):
            spectrum_through(domain, bound, extra)
    with pytest.raises(ConfigError, match=r"spectral bound 1\.074e\+09 requires too many"):
        neumann_eigenvalues(domain, 32768)


@pytest.mark.parametrize("bound", [math.inf, math.nan])
def test_non_finite_bound_raises(bound):
    domain = Domain(kind="interval", lengths=(PI,))
    with pytest.raises(ConfigError, match="requires too many modes"):
        spectrum_through(domain, bound, extra=3)


def _timeout(signum, frame):
    raise TimeoutError("the lattice walk did not end")


@pytest.mark.parametrize(
    "length, bound, message",
    [
        # sqrt(bound) L / pi is past 2^53, where k + 1 rounds back to k.
        (PI, 1e114, "requires too many modes"),
        (1e300, 1.0, "requires too many modes"),
        # (pi / L)^2 is a float, but the next axis values overflow.
        (2.5e-154, 1.0, "overflow a float"),
    ],
)
def test_lattice_limit_decided_before_the_walk(length, bound, message):
    domain = Domain(kind="interval", lengths=(length,))
    previous = signal.signal(signal.SIGALRM, _timeout)
    signal.alarm(30)
    try:
        with pytest.raises(ConfigError, match=message):
            spectrum_through(domain, bound, extra=3)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("lengths", [(1e-300,), (PI, 1e-160)])
def test_domain_rejects_lengths_whose_first_eigenvalue_overflows(lengths):
    kind = "interval" if len(lengths) == 1 else "rectangle"
    with pytest.raises(ConfigError, match="too small for the spectrum"):
        Domain(kind=kind, lengths=lengths)


def test_eigenfunction_interval_and_square():
    domain = Domain(kind="interval", lengths=(PI,))
    x = np.linspace(0.0, PI, 7)
    np.testing.assert_allclose(eigenfunction(domain, (2,), x), np.cos(2 * x))
    square = Domain(kind="rectangle", lengths=(PI, PI))
    pts = np.array([[0.3, 1.1], [2.0, 0.4]])
    expected = np.cos(pts[:, 0]) * np.cos(2 * pts[:, 1])
    np.testing.assert_allclose(eigenfunction(square, (1, 2), pts), expected)
    np.testing.assert_allclose(eigenfunction(square, (0, 0), pts), [1.0, 1.0])


def test_discrete_interval_spectrum_converges():
    domain = Domain(kind="interval", lengths=(PI,))
    vals = discrete_laplacian_spectrum(domain, 256)
    exact = np.array([0.0, 1.0, 4.0, 9.0, 16.0])
    h = PI / 256
    assert vals[0] == 0.0
    # Second-order accuracy: |lambda_h - k^2| <= k^4 h^2 / 12 roughly.
    np.testing.assert_allclose(vals[:5], exact, atol=30 * h**2)


def test_discrete_dirichlet_spectrum_near_squares():
    domain = Domain(kind="interval", lengths=(PI,))
    vals = discrete_laplacian_spectrum(domain, 512, bc="dirichlet")
    np.testing.assert_allclose(vals[:3], [1.0, 4.0, 9.0], rtol=1e-3)


def test_discrete_minimum_grid():
    domain = Domain(kind="interval", lengths=(PI,))
    vals = discrete_laplacian_spectrum(domain, 3)
    assert len(vals) == 3
    assert vals[0] == 0.0
    with pytest.raises(ConfigError):
        discrete_laplacian_spectrum(domain, 2)


def test_discrete_matches_dense_assembly():
    # Dual route: closed-form eigenvalues against a
    # dense matrix assembled here from scratch.
    n, L = 24, PI
    h = L / n
    dense = np.zeros((n, n))
    for i in range(n):
        dense[i, i] = 2.0
        if i > 0:
            dense[i, i - 1] = -1.0
        if i < n - 1:
            dense[i, i + 1] = -1.0
    dense[0, 0] = 1.0
    dense[-1, -1] = 1.0
    dense /= h**2
    expected = np.sort(np.linalg.eigvalsh(dense))
    got = discrete_laplacian_spectrum(Domain(kind="interval", lengths=(L,)), n)
    np.testing.assert_allclose(got[1:], expected[1:], rtol=1e-10)
    assert got[0] == 0.0


def test_discrete_rectangle_is_pairwise_sum():
    domain = Domain(kind="rectangle", lengths=(PI, 2.0))
    vals = discrete_laplacian_spectrum(domain, (8, 12))
    a = discrete_laplacian_spectrum(Domain(kind="interval", lengths=(PI,)), 8)
    b = discrete_laplacian_spectrum(Domain(kind="interval", lengths=(2.0,)), 12)
    expected = np.sort((a[:, None] + b[None, :]).ravel())
    expected[0] = 0.0
    np.testing.assert_allclose(vals, expected, atol=1e-12)
