"""Zero-flux Laplacian spectra: mode numbering, lookup and eigenfunctions,
and the discrete Laplacians of the solver and of the index oracle."""

from __future__ import annotations

import collections
import itertools
import math
import signal

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from crossdiff import ConfigError, Domain, build_model, discretize, eigenfunction, make_grid
from crossdiff.spectral import MAX_COUNT, _columns_below, mode
from crossdiff.verification import fd_neumann_matrix

PI = np.pi


def modes(domain, stop, start=0):
    """``(lambda_hat, k)`` of modes ``start`` to ``stop - 1``."""
    return [mode(domain, K) for K in range(start, stop)]


def test_interval_modes_are_squares():
    spectrum = modes(Domain(kind="interval", lengths=(PI,)), 4)
    assert spectrum == [(0.0, (0,)), (1.0, (1,)), (4.0, (2,)), (9.0, (3,))]


def test_square_first_nonzero_mode_is_double():
    spectrum = modes(Domain(kind="rectangle", lengths=(PI, PI)), 3)
    assert spectrum == [(0.0, (0, 0)), (1.0, (0, 1)), (1.0, (1, 0))]


def test_square_modes_in_value_then_lattice_order():
    # Bit-equal values keep the lexicographic order of their points.
    spectrum = modes(Domain(kind="rectangle", lengths=(PI, PI)), 6)
    assert spectrum == [
        (0.0, (0, 0)), (1.0, (0, 1)), (1.0, (1, 0)),
        (2.0, (1, 1)), (4.0, (0, 2)), (4.0, (2, 0)),
    ]


def test_half_height_rectangle_values():
    # (0,pi) x (0,pi/2): eigenvalues are k1^2 + 4 k2^2, with multiplicity.
    values = [v for v, _ in modes(Domain(kind="rectangle", lengths=(PI, PI / 2)), 6)]
    pairs = [(k1, k2) for k1 in range(6) for k2 in range(6)]
    exact = sorted(k1**2 + 4 * k2**2 for k1, k2 in pairs)[:6]
    np.testing.assert_allclose(values, exact, rtol=1e-12)
    # 4 = 2^2 + 0 = 0 + 4*1^2: an honest collision, two modes.
    assert int(np.isclose(values, 4.0).sum()) == 2


def test_entries_ascending_and_first_is_constant_mode():
    for lengths in [(PI,), (2.0, 3.0)]:
        kind = "interval" if len(lengths) == 1 else "rectangle"
        spectrum = modes(Domain(kind=kind, lengths=lengths), 8)
        values = [v for v, _ in spectrum]
        assert values[0] == 0.0 and not any(spectrum[0][1])
        assert values[1] > 0.0
        assert np.all(np.diff(values) >= 0)


@given(st.floats(0.3, 4.0), st.integers(1, 6))
def test_interval_scaling_law(s, k):
    base = mode(Domain(kind="interval", lengths=(PI,)), k)[0]
    scaled = mode(Domain(kind="interval", lengths=(s * PI,)), k)[0]
    assert scaled == pytest.approx(base / s**2, rel=1e-12)


@pytest.mark.parametrize("lengths", [(2e5,), (2e5, 1.0)], ids=str)
def test_long_sides_keep_their_first_modes_apart(lengths):
    # On a side of 2e5 the axis values (k pi / L)^2 start at 2.5e-10: the
    # first modes are the long side's, each with its own value.
    kind = "interval" if len(lengths) == 1 else "rectangle"
    spectrum = modes(Domain(kind=kind, lengths=lengths), 4)
    rest = (0,) * (len(lengths) - 1)
    assert [k for _, k in spectrum] == [(k,) + rest for k in range(4)]
    np.testing.assert_allclose(
        [v for v, _ in spectrum], (np.arange(4) * PI / 2e5) ** 2, rtol=1e-12
    )


@pytest.mark.parametrize("lengths", [(PI,), (PI, PI), (PI, PI / 2)], ids=str)
def test_slice_is_the_spectrum_of_its_values(lengths):
    # Each run of modes a to b - 1 ascends strictly in (value, point), and
    # each value is the sum of its point's axis values, to the bit.
    kind = "interval" if len(lengths) == 1 else "rectangle"
    domain = Domain(kind=kind, lengths=lengths)
    for a, b in [(0, 12), (2, 5), (11, 20), (150, 190)]:
        run = modes(domain, b, a)
        assert run == sorted(set(run))
        for value, point in run:
            assert value == sum((k * math.pi / L) ** 2 for k, L in zip(point, lengths))


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
    """``(lambda_hat, k)`` of every mode up to ``limit``, from a plain loop.

    Every lattice point ``k`` with ``k_a pi / L_a <= sqrt(limit)`` is
    visited, its value is ``sum_a (k_a pi / L_a)^2``, and the points with
    values up to ``limit`` are sorted by ``(value, k)``.
    """
    tops = [int(math.sqrt(limit) * L / math.pi) + 2 for L in lengths]
    found = []
    for ks in itertools.product(*(range(top) for top in tops)):
        value = sum((k * math.pi / L) ** 2 for k, L in zip(ks, lengths))
        if value <= limit:
            found.append((value, ks))
    return sorted(found)


@pytest.mark.parametrize("lengths", ORACLE_DOMAINS, ids=str)
def test_enumeration_matches_brute_force_lattice(lengths):
    kind = "interval" if len(lengths) == 1 else "rectangle"
    domain = Domain(kind=kind, lengths=lengths)
    step = math.pi / max(lengths)
    oracle = brute_force_spectrum(lengths, ((200 + 4) * step) ** 2)
    assert len(oracle) > 201
    assert modes(domain, 201) == oracle[:201]


@pytest.mark.parametrize("lengths", [L for L in ORACLE_DOMAINS if len(L) == 2], ids=str)
def test_column_counts_are_exact_at_and_beside_lattice_values(lengths):
    # At each of the first 200 values, and one float to either side, each
    # column holds as many points below x as the brute-force loop puts
    # there: the closed form's rounding at x on a value is corrected.
    short, long = sorted(lengths)
    column = 1 if lengths[1] < lengths[0] else 0
    limit = 1e-12
    while len(oracle := brute_force_spectrum(lengths, limit)) <= 200:
        limit *= 2.0
    for v, _ in oracle[:200]:
        for x in (math.nextafter(v, 0.0), v, math.nextafter(v, math.inf)):
            counts = collections.Counter(k[column] for value, k in oracle if value < x)
            assert _columns_below(x, short, long) == [counts[c] for c in range(len(counts))]


def test_mode_matches_brute_force_on_seeded_rectangles():
    # 240 rectangles and squares, some of side pi whose values are
    # integers with many ties: modes 0 to 79 are the oracle's first rows.
    rng = np.random.default_rng(20261019)
    for trial in range(240):
        if trial % 2:
            lengths = (PI if rng.random() < 0.3 else rng.uniform(0.5, 6.0),) * 2
        else:
            lengths = tuple(rng.uniform(0.2, 6.0, 2).tolist())
        domain = Domain(kind="rectangle", lengths=lengths)
        limit = 1.0
        while len(oracle := brute_force_spectrum(lengths, limit)) < 80:
            limit *= 2.0
        assert modes(domain, 80) == oracle[:80], lengths


@pytest.mark.parametrize(
    "lengths, limit, first, count",
    [
        # Past the 32,767 lattice points a spectrum listing once allowed.
        ((3.0, 3.0), 900.0, 170, 400),
        ((PI,), 32785.0**2, 32760, 20),
        # Around the large square's first negative mode, N(1/2) = 40,022.
        ((1e3, 1e3), 0.51, 40000, 40),
    ],
    ids=str,
)
def test_mode_matches_brute_force_at_large_numbers(lengths, limit, first, count):
    kind = "interval" if len(lengths) == 1 else "rectangle"
    oracle = brute_force_spectrum(lengths, limit)
    assert len(oracle) >= first + count
    run = modes(Domain(kind=kind, lengths=lengths), first + count, first)
    assert run == oracle[first : first + count]


def test_mode_numbers_the_first_modes_of_the_report_records():
    # Mode 181 on the 3x3 square, which a spectrum listing could not
    # reach, and the large square's mode 40,022, inside its p < 0
    # interval (1/2, 10/7).
    assert mode(Domain(kind="rectangle", lengths=(3.0, 3.0)), 181)[1] == (4, 14)
    value, point = mode(Domain(kind="rectangle", lengths=(1e3, 1e3)), 40022)
    assert point == (6, 225) and 0.5 < value < 10 / 7


def test_interval_size_limit_edge():
    # Mode numbers run to MAX_COUNT = 1 / TOL_DEGENERATE; one more raises
    # before any mode is looked up.
    domain = Domain(kind="interval", lengths=(PI,))
    assert MAX_COUNT == 10**8
    assert mode(domain, MAX_COUNT) == ((MAX_COUNT * PI / PI) ** 2, (MAX_COUNT,))
    square = Domain(kind="rectangle", lengths=(PI, PI))
    for K in (MAX_COUNT + 1, 10**57):
        for where in (domain, square):
            with pytest.raises(ConfigError, match=f"mode {K} requires too many modes"):
                mode(where, K)
    with pytest.raises(ConfigError, match="mode number must be >= 0"):
        mode(domain, -1)


def _timeout(signum, frame):
    raise TimeoutError("the mode lookup did not end")


@pytest.mark.parametrize(
    "length, bound, message",
    [
        # sqrt(bound) L / pi is past 2^53, where k + 1 rounds back to k.
        (PI, 1e114, "requires too many modes"),
        (1e300, 1.0, "requires too many modes"),
    ],
)
def test_lattice_limit_decided_before_the_walk(length, bound, message):
    # The first mode at or above the bound is numbered by the closed-form
    # count below it; its lookup raises before any mode is listed.
    domain = Domain(kind="interval", lengths=(length,))
    K = math.ceil(length * math.sqrt(bound) / math.pi)
    previous = signal.signal(signal.SIGALRM, _timeout)
    signal.alarm(30)
    try:
        with pytest.raises(ConfigError, match=message):
            mode(domain, K)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize(
    "lengths, K", [((2.5e-154,), 2), ((2.5e-154, 2.5e-154), 3)], ids=str
)
def test_mode_values_that_overflow_a_float_raise(lengths, K):
    # (pi / L)^2 is a float, but a later value overflows.
    kind = "interval" if len(lengths) == 1 else "rectangle"
    with pytest.raises(ConfigError, match="overflow a float"):
        mode(Domain(kind=kind, lengths=lengths), K)


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


def solver_laplacian(lengths, n_cells, bc="neumann"):
    """The solver's ``-Laplace``, dense: the Jacobian of one species with
    ``d = 1`` and no kinetics at the zero state."""
    kind = "interval" if len(lengths) == 1 else "rectangle"
    model = build_model(
        {
            "m": 1,
            "d": [1.0],
            "alpha": [[0.0]],
            "r": [0.0],
            "c": [[0.0]],
            "domain": {"kind": kind, "lengths": list(lengths)},
            "bc": bc,
        }
    )
    grid = make_grid(model.domain, n_cells)
    system = discretize(model, grid)
    return system.jacobian(np.zeros(grid.shape + (1,))).toarray()


def test_discrete_interval_spectrum_converges():
    # The oracle's FD spectrum tends to mode()'s k^2 at second order:
    # |lambda_h - k^2| <= k^4 h^2 / 12 roughly.
    domain = Domain(kind="interval", lengths=(PI,))
    vals = np.linalg.eigvalsh(fd_neumann_matrix(256, PI).toarray())
    exact = [value for value, _ in modes(domain, 5)]
    assert exact == [0.0, 1.0, 4.0, 9.0, 16.0]
    h = PI / 256
    assert abs(vals[0]) < 1e-9
    np.testing.assert_allclose(vals[:5], exact, atol=30 * h**2)


def test_discrete_dirichlet_spectrum_near_squares():
    # The solver's Dirichlet walls: eigenvalues near k^2, k >= 1, on (0, pi).
    vals = np.linalg.eigvalsh(solver_laplacian((PI,), 512, bc="dirichlet"))
    np.testing.assert_allclose(vals[:3], [1.0, 4.0, 9.0], rtol=1e-3)


def test_discrete_minimum_grid():
    # On the coarsest grid make_grid accepts, the solver's Neumann
    # Laplacian is the oracle's FD matrix entry by entry.
    K = solver_laplacian((PI,), 8)
    np.testing.assert_allclose(K, fd_neumann_matrix(8, PI).toarray(), rtol=1e-14, atol=0.0)
    vals = np.linalg.eigvalsh(K)
    assert len(vals) == 8
    assert abs(vals[0]) < 1e-12 and vals[1] > 0.5
    with pytest.raises(ConfigError, match="too coarse"):
        make_grid(Domain(kind="interval", lengths=(PI,)), 7)


def test_discrete_matches_dense_assembly():
    # Dual route: the oracle's sparse FD matrix against a dense matrix
    # assembled here from scratch, entries and eigenvalues.
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
    K = fd_neumann_matrix(n, L).toarray()
    np.testing.assert_allclose(K, dense, rtol=1e-14, atol=0.0)
    expected = np.sort(np.linalg.eigvalsh(dense))
    got = np.linalg.eigvalsh(K)
    np.testing.assert_allclose(got[1:], expected[1:], rtol=1e-10)
    assert abs(got[0]) < 1e-9


def test_discrete_rectangle_is_pairwise_sum():
    # The solver's Neumann Laplacian on an 8 x 12 grid of the pi x 2
    # rectangle: its spectrum is every pairwise sum of the two axis ones.
    vals = np.linalg.eigvalsh(solver_laplacian((PI, 2.0), (8, 12)))
    a = np.linalg.eigvalsh(solver_laplacian((PI,), 8))
    b = np.linalg.eigvalsh(solver_laplacian((2.0,), 12))
    expected = np.sort((a[:, None] + b[None, :]).ravel())
    np.testing.assert_allclose(vals, expected, atol=1e-10)
