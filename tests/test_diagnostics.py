"""Norms, ball mean-oscillation, weak identities, nonexistence threshold."""

from __future__ import annotations

import math
import re
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crossdiff import (
    DiscreteField,
    Domain,
    ModelError,
    bmo_seminorm,
    build_model,
    classify_field,
    constant_field,
    diagnostics_report,
    existence_verdict,
    identity_residuals,
    make_grid,
    newton_solve,
    nonexistence_threshold,
    norms,
    seed_from_mode,
)
from crossdiff import diagnostics
from crossdiff.diagnostics import _ball_bound, ball_radii

PI = np.pi
README = Path(__file__).resolve().parents[1] / "README.md"


def scalar_logistic(d=1.0, length=PI):
    return build_model(
        {
            "m": 1,
            "d": [d],
            "alpha": [[0.0]],
            "r": [1.0],
            "c": [[1.0]],
            "domain": {"kind": "interval", "lengths": [length]},
            "bc": "neumann",
        }
    )


def turing_model():
    return build_model(
        {
            "m": 2,
            "d": [0.4, 7.0],
            "alpha": [[0.0, 0.0], [0.0, 0.0]],
            "r": [1.0, 1.0],
            "c": [[-1.0, 2.0], [-3.0, 4.0]],
            "domain": {"kind": "interval", "lengths": [PI]},
            "bc": "neumann",
        }
    )


def cosine_field(n=256):
    model = scalar_logistic()
    grid = make_grid(model.domain, n)
    x = grid.points()[:, 0]
    return model, DiscreteField(grid=grid, values=np.cos(x)[:, None])


# -- norms --------------------------------------------------------------------


def test_norms_constant_field():
    model = turing_model()
    grid = make_grid(model.domain, 32)
    l1, grad_l2, grad_ln = norms(constant_field(grid, [3.0, 4.0]))
    assert l1 == pytest.approx(5.0 * PI, rel=1e-12)
    # np.gradient's nonuniform-spacing weights leave rounding residue.
    assert grad_l2 == pytest.approx(0.0, abs=1e-12)
    assert grad_ln == pytest.approx(0.0, abs=1e-12)


def test_norms_cosine_closed_forms():
    # integral |cos| = 2, integral sin^2 = pi/2, integral |sin| = 2.
    _, field = cosine_field(256)
    l1, grad_l2, grad_ln = norms(field)
    assert l1 == pytest.approx(2.0, rel=1e-3)
    assert grad_l2**2 == pytest.approx(PI / 2.0, rel=1e-3)
    assert grad_ln == pytest.approx(2.0, rel=1e-3)


def test_norm_quadrature_is_second_order():
    errs = []
    for n in (64, 128, 256):
        _, field = cosine_field(n)
        errs.append(abs(norms(field)[1] ** 2 - PI / 2.0))
    assert 3.0 < errs[0] / errs[1] < 5.0
    assert 3.0 < errs[1] / errs[2] < 5.0


def test_norms_product_cosine_on_rectangle():
    model = build_model(
        {
            "m": 1,
            "d": [1.0],
            "alpha": [[0.0]],
            "r": [0.0],
            "c": [[0.0]],
            "domain": {"kind": "rectangle", "lengths": [PI, PI]},
            "bc": "neumann",
        }
    )
    grid = make_grid(model.domain, (128, 128))
    pts = grid.points()
    vals = (np.cos(pts[..., 0]) * np.cos(pts[..., 1]))[..., None]
    _, grad_l2, _ = norms(DiscreteField(grid=grid, values=vals))
    # integral |D(cos x cos y)|^2 = pi^2 / 2.
    assert grad_l2**2 == pytest.approx(PI**2 / 2.0, rel=1e-3)


# -- ball mean oscillation ------------------------------------------------------


def test_bmo_constant_is_zero():
    grid = make_grid(turing_model().domain, 32)
    assert bmo_seminorm(constant_field(grid, [2.0, 5.0]), 1.0) == 0.0


def test_bmo_step_profile():
    model = scalar_logistic()
    grid = make_grid(model.domain, 128)
    x = grid.points()[:, 0]
    step = DiscreteField(grid=grid, values=(x > PI / 2).astype(float)[:, None])
    assert bmo_seminorm(step, PI / 4.0) == pytest.approx(0.5, abs=0.05)


def test_bmo_unresolvable_radius():
    grid = make_grid(scalar_logistic().domain, 16)
    field = constant_field(grid, [1.0])
    with pytest.raises(ModelError, match="unresolvable"):
        bmo_seminorm(field, 0.1)


def test_bmo_non_finite_radius():
    grid = make_grid(scalar_logistic().domain, 16)
    field = constant_field(grid, [1.0])
    for radius in (float("inf"), float("nan")):
        with pytest.raises(ModelError, match="finite"):
            bmo_seminorm(field, radius)


@pytest.mark.parametrize("j", [100, 101, 200, 257, 300, 411])
def test_bmo_ball_is_closed(j):
    # Every interior ball of radius 2h holds the 5 nodes at offsets
    # -2..2, the outer two at distance exactly 2h.  A unit spike gives
    # mean 1/5 and oscillation (1 - 1/5 + 4/5) / 5 = 0.32.
    grid = make_grid(scalar_logistic().domain, 512)
    vals = np.zeros((512, 1))
    vals[j] = 1.0
    field = DiscreteField(grid=grid, values=vals)
    assert bmo_seminorm(field, 2.0 * grid.h[0]) == pytest.approx(0.32, rel=1e-14)


@pytest.mark.parametrize("length", [1.0, 1e-13])
def test_ball_ladder_does_not_depend_on_the_unit_of_length(length):
    # The same 64-cell ladder in units of h on (0, 1) and on (0, 1e-13):
    # a radius of 7.5h is off the ladder and is appended, and 0.8 * 2h
    # cannot be resolved.
    grid = make_grid(Domain(kind="interval", lengths=(length,)), 64)
    h = grid.h[0]
    assert np.array(ball_radii(grid, 7.5 * h)) / h == pytest.approx([2.0, 4.0, 6.0, 7.5], rel=1e-12)
    with pytest.raises(ModelError, match="unresolvable"):
        ball_radii(grid, 0.8 * 2.0 * h)


@pytest.mark.parametrize(
    "kind, lengths, n", [("interval", (1e-13,), 512), ("rectangle", (3.0, 2.0), 48)]
)
def test_a_huge_radius_gives_the_covering_ladder(kind, lengths, n):
    # 1e308 / 2h overflows a float; the ladder still stops at the first
    # ball that holds the whole grid, as at any radius past it.
    grid = make_grid(Domain(kind=kind, lengths=lengths), n)
    h = max(grid.h)
    span2 = sum(((k - 1) * hh) ** 2 for k, hh in zip(grid.n_cells, grid.h))
    ladder = ball_radii(grid, 1e308)
    assert ladder == [2.0 * h * j for j in range(1, len(ladder) + 1)]
    assert _ball_bound(ladder[-2]) < span2 <= _ball_bound(ladder[-1])
    assert ladder == ball_radii(grid, 4.0 * math.sqrt(span2))


def brute_force_bmo(field, radius):
    """Per-center scan of closed balls ``|o h| <= r`` at radii 2h, 4h, ...
    and ``radius`` itself when it is off that ladder."""
    grid = field.grid
    h = max(grid.h)
    radii = [2.0 * h * j for j in range(1, int(radius / (2.0 * h)) + 1)]
    if not radii or radius - radii[-1] > 1e-12 * radius:
        radii.append(radius)
    index = np.indices(grid.shape).reshape(grid.ndim, -1).T
    vals = field.values.reshape(-1, field.m)
    sup = 0.0
    for center in index:
        dist2 = (((index - center) * np.array(grid.h)) ** 2).sum(axis=1)
        for r in radii:
            ball = vals[dist2 <= r * r * (1.0 + 1e-12)]
            osc = np.linalg.norm(ball - ball.mean(axis=0), axis=1).mean()
            sup = max(sup, float(osc))
    return sup


BRUTE_FORCE_GRIDS = {
    "interval": (("interval", [PI]), 64, (0.3, 2.0)),
    "square": (("rectangle", [3.0, 3.0]), 16, (0.5, 2.0)),
    "rectangle": (("rectangle", [3.0, 2.0]), (40, 28), (0.4, 1.7)),
}
ORACLE_CASES = [
    (domain, which, m)
    for domain in sorted(BRUTE_FORCE_GRIDS)
    for which in ("2h", "off-ladder", "wide")
    for m in (1, 2, 3)
] + [("multi-peak", "default", 2)]


def square_48():
    return make_grid(Domain(kind="rectangle", lengths=(3.0, 3.0)), 48)


def single_peak_field():
    grid = square_48()
    x, y = np.moveaxis(grid.points(), -1, 0)
    r2 = (x - 1.2) ** 2 + (y - 1.7) ** 2
    vals = np.stack([1.0 + np.exp(-r2 / 0.1), 2.0 - 0.5 * np.exp(-r2 / 0.3)], axis=-1)
    return DiscreteField(grid=grid, values=vals)


def multi_peak_field():
    # Equal peaks all over the square: the balls that could hold the
    # supremum are scattered, not in one window.
    grid = square_48()
    x, y = np.moveaxis(grid.points(), -1, 0)
    vals = np.stack(
        [
            1.0 + 0.5 * np.cos(PI * x) * np.cos(2.0 * PI * y / 3.0),
            2.0 + 0.3 * np.cos(4.0 * PI * x / 3.0) * np.cos(PI * y),
        ],
        axis=-1,
    )
    return DiscreteField(grid=grid, values=vals)


def oracle_case(domain, which, m):
    """``(field, radius)`` of one brute-force case."""
    if domain == "multi-peak":
        return multi_peak_field(), 0.75
    (kind, lengths), cells, (off_ladder, wide) = BRUTE_FORCE_GRIDS[domain]
    grid = make_grid(Domain(kind=kind, lengths=tuple(lengths)), cells)
    radius = {"2h": 2.0 * max(grid.h), "off-ladder": off_ladder, "wide": wide}[which]
    # A random slope plus noise: the largest ball oscillates most, and
    # every ball near a wall is clipped.
    rng = np.random.default_rng(7 * m + len(which))
    slope = rng.normal(size=(grid.ndim, m))
    noise = rng.uniform(-0.1, 0.1, grid.shape + (m,))
    vals = 5.0 + grid.points() @ slope + noise
    return DiscreteField(grid=grid, values=vals), radius


@pytest.mark.parametrize("domain, which, m", ORACLE_CASES)
def test_bmo_matches_brute_force_scan(domain, which, m):
    field, radius = oracle_case(domain, which, m)
    assert bmo_seminorm(field, radius) == pytest.approx(
        brute_force_bmo(field, radius), rel=1e-12
    )


def test_bmo_huge_radius_is_whole_domain_oscillation():
    grid = make_grid(Domain(kind="rectangle", lengths=(3.0, 3.0)), 16)
    vals = grid.points()  # u = (x, y): the whole square oscillates most
    field = DiscreteField(grid=grid, values=vals)
    flat = vals.reshape(-1, 2)
    whole = np.linalg.norm(flat - flat.mean(axis=0), axis=1).mean()
    t0 = time.perf_counter()
    value = bmo_seminorm(field, 1e6)
    assert time.perf_counter() - t0 < 5.0
    assert value == pytest.approx(whole, rel=1e-12)
    # The ladder stops at the first ball holding the whole grid.
    assert len(ball_radii(grid, 1e6)) == 11


@given(st.floats(0.1, 4.0), st.floats(-3.0, 3.0), st.integers(0, 2**31 - 1))
@settings(max_examples=25, deadline=None)
def test_bmo_axioms(scale, shift, seed):
    model = scalar_logistic()
    grid = make_grid(model.domain, 48)
    rng = np.random.default_rng(seed)
    vals = rng.uniform(-1.0, 1.0, (48, 1))
    field = DiscreteField(grid=grid, values=vals)
    radius = 0.5
    b0 = bmo_seminorm(field, radius)
    assert b0 <= 2.0 * np.abs(vals).max() + 1e-12
    shifted = bmo_seminorm(
        DiscreteField(grid=grid, values=vals + shift), radius
    )
    assert shifted == pytest.approx(b0, abs=1e-12 * (1.0 + abs(shift)))
    scaled = bmo_seminorm(DiscreteField(grid=grid, values=scale * vals), radius)
    assert scaled == pytest.approx(scale * b0, rel=1e-12, abs=1e-12)


# -- the pruned scan against the full stencil scan -------------------------------


def _shifted(n_cells, offset):
    """Slices ``(centers, nodes)`` pairing each center ``c`` whose
    neighbour ``c + offset`` lies in the grid with that neighbour."""
    pairs = list(zip(n_cells, offset))
    centers = tuple(slice(max(0, -o), n - max(0, o)) for n, o in pairs)
    nodes = tuple(slice(max(0, o), n + min(0, o)) for n, o in pairs)
    return centers, nodes


def stencil_scan_oscillations(field, radius):
    """The scan over every ball that ``bmo_seminorm`` prunes: loop over
    the offsets of the largest ball, each vectorised over all centers,
    first for the ball sums and counts, then for the distances from the
    ball means.  Every ball's oscillation, as ``(radius,) + grid shape``."""
    grid = field.grid
    radii = ball_radii(grid, radius)
    shape = grid.shape
    m = field.m
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
    centred = field.values - field.values.reshape(-1, m).mean(axis=0)
    vals = np.moveaxis(centred, -1, 0)
    each = (slice(None),)
    sums = np.zeros((m + 1, len(radii)) + shape)
    augmented = np.concatenate([vals, np.ones((1,) + shape)])
    for off, k in stencil:
        centers, nodes = _shifted(shape, off)
        sums[each + (k,) + centers] += augmented[each + nodes]
    np.cumsum(sums, axis=1, out=sums)
    counts = sums[m]
    means = sums[:m]
    means /= counts
    dev = np.zeros((len(radii),) + shape)
    for off, k in stencil:
        centers, nodes = _shifted(shape, off)
        at = (slice(k, None),) + centers
        diff = vals[each + (None,) + nodes] - means[each + at]
        dist = np.square(diff, out=diff).sum(axis=0)
        dev[at] += np.sqrt(dist, out=dist)
    dev /= counts
    return dev


def stencil_scan_bmo(field, radius):
    return float(stencil_scan_oscillations(field, radius).max())


def turing_pattern_512():
    # The README's solve at 512 cells: the supremum sits in a window of
    # large balls, a few percent of all balls.
    model = turing_model()
    grid = make_grid(model.domain, 512)
    states = existence_verdict(model).states
    (positive,) = [s for s in states if s.state.classification == "nontrivial"]
    report = positive.report
    k = next(int(r["first_mode"]) for r in report.negative if r["first_mode"] >= 1)
    seed = seed_from_mode(model, np.ones(2), k, amplitude=1.5, grid=grid)
    result = newton_solve(model, grid, seed)
    assert result.converged
    return result.field


def noise_field(grid):
    # Round-off noise around the weak-competition state (10/17, 14/17).
    rng = np.random.default_rng(17)
    state = np.array([10.0, 14.0]) / 17.0
    return DiscreteField(grid=grid, values=state + 1e-16 * rng.normal(size=grid.shape + (2,)))


def turning_unit_vector_field():
    # u_i = (cos 2 pi i / 5, sin 2 pi i / 5): every interior ball of
    # radius 2h holds one full turn, so its mean is zero up to rounding
    # and its oscillation equals the Cauchy-Schwarz bound.
    grid = make_grid(Domain(kind="interval", lengths=(PI,)), 512)
    angle = 2.0 * PI * np.arange(512) / 5.0
    return DiscreteField(grid=grid, values=np.stack([np.cos(angle), np.sin(angle)], axis=-1))


def random_m3_field():
    grid = make_grid(Domain(kind="rectangle", lengths=(3.0, 2.0)), (40, 28))
    rng = np.random.default_rng(3)
    return DiscreteField(grid=grid, values=rng.uniform(0.0, 1.0, grid.shape + (3,)))


def waves_1024(m):
    # Three cosine modes per component and a little noise on 1,024 cells.
    grid = make_grid(Domain(kind="interval", lengths=(PI,)), 1024)
    x = grid.points()[:, 0]
    rng = np.random.default_rng(11 * m)
    modes = rng.integers(1, 12, size=(3, m))
    amps = rng.uniform(0.2, 1.0, size=(3, m))
    vals = 1.0 + (amps * np.cos(modes * x[:, None, None])).sum(axis=1)
    return DiscreteField(grid=grid, values=vals + 0.01 * rng.normal(size=(1024, m)))


def multi_peak_m3_field():
    field = multi_peak_field()
    x, y = np.moveaxis(field.grid.points(), -1, 0)
    third = 1.5 + 0.4 * np.sin(PI * x / 1.5) * np.cos(PI * y)
    vals = np.concatenate([field.values, third[..., None]], axis=-1)
    return DiscreteField(grid=field.grid, values=vals)


def slope_field(kind, lengths, cells):
    # A slope plus noise: the largest balls oscillate most.
    grid = make_grid(Domain(kind=kind, lengths=lengths), cells)
    rng = np.random.default_rng(23)
    vals = grid.points() @ rng.normal(size=(grid.ndim, 2))
    return DiscreteField(grid=grid, values=vals + rng.uniform(-0.1, 0.1, grid.shape + (2,)))


EXACT_CASES = {
    "turing-512": (turing_pattern_512, PI / 4.0),
    "single-peak-48": (single_peak_field, 0.75),
    "multi-peak-48": (multi_peak_field, 0.75),
    "noise-512": (lambda: noise_field(make_grid(Domain(kind="interval", lengths=(PI,)), 512)), PI / 4.0),
    "noise-48": (lambda: noise_field(square_48()), 0.75),
    "turning-2h": (turning_unit_vector_field, 2.0 * PI / 511.0),
    "turning-wide": (turning_unit_vector_field, 0.3),
    "random-m3": (random_m3_field, 0.6),
    # Off the 2h ladder: 0.4 is 130.25 h, between the radii 130 h and 132 h.
    "waves-1024-m1": (lambda: waves_1024(1), 0.4),
    "waves-1024-m3": (lambda: waves_1024(3), 0.4),
    "multi-peak-48-m3": (multi_peak_m3_field, 0.75),
    # The largest ball around a central node reaches both walls of every axis.
    "both-walls-256": (lambda: slope_field("interval", (PI,), 256), 0.7 * PI),
    "both-walls-24x24": (lambda: slope_field("rectangle", (3.0, 3.0), 24), 2.0),
}


@pytest.mark.parametrize("case", sorted(EXACT_CASES))
def test_bmo_equals_the_full_stencil_scan(case):
    make_field, radius = EXACT_CASES[case]
    field = make_field()
    assert bmo_seminorm(field, radius) == stencil_scan_bmo(field, radius)


@pytest.mark.parametrize("case", sorted(EXACT_CASES))
def test_piece_bound_is_never_below_a_balls_oscillation(monkeypatch, case):
    # The second bound of every ball, from the scan's own sums, against
    # every ball's oscillation from the full stencil scan.  On
    # "turning-wide" Cauchy-Schwarz holds with equality, so only the
    # rounding slack keeps the bound above.
    make_field, radius = EXACT_CASES[case]
    field = make_field()
    scans = []
    evaluate = diagnostics._max_oscillation

    def capture(*args):
        scans.append(args)
        return evaluate(*args)

    monkeypatch.setattr(diagnostics, "_max_oscillation", capture)
    bmo_seminorm(field, radius)
    vals, homes, shifts, _, sums, balls = scans[0]
    slack = diagnostics._slack(len(shifts), len(vals))
    bound = diagnostics._piece_bounds(sums, homes, np.ones_like(balls), slack)
    oscillation = stencil_scan_oscillations(field, radius)
    assert (bound.reshape(oscillation.shape) >= oscillation).all()


def test_bmo_evaluates_few_balls_on_the_turing_pattern(monkeypatch):
    # The README's count: only the balls whose bounds beat the supremum
    # are evaluated exactly, not every ball.
    (stated,) = re.findall(r"([\d,]+) of 32,768 balls", README.read_text())
    evaluated = []
    evaluate = diagnostics._max_oscillation

    def counting(*args):
        evaluated.append(int(args[-1].sum()))
        return evaluate(*args)

    monkeypatch.setattr(diagnostics, "_max_oscillation", counting)
    make_field, radius = EXACT_CASES["turing-512"]
    bmo_seminorm(make_field(), radius)
    assert sum(evaluated) == int(stated.replace(",", ""))


@pytest.mark.parametrize("k", [450, -450, 600, -600, 1000, -1000])
def test_bmo_is_exactly_homogeneous_under_powers_of_two(k):
    # Far outside [2^-400, 2^400] the squares would overflow or underflow;
    # the scan rescales by a power of two instead, which is exact.
    grid = make_grid(Domain(kind="interval", lengths=(PI,)), 512)
    x = grid.points()[:, 0]
    vals = np.stack([np.cos(x), np.sin(x)], axis=-1)
    base = bmo_seminorm(DiscreteField(grid=grid, values=vals), PI / 4.0)
    scaled = bmo_seminorm(DiscreteField(grid=grid, values=np.ldexp(vals, k)), PI / 4.0)
    assert scaled == np.ldexp(base, k)


@pytest.mark.parametrize("value", [0.1, 10.0 / 17.0, 1.0 / 3.0, PI, 1e-300])
@pytest.mark.parametrize("cells", [512, 37, (48, 48), (13, 13)], ids=str)
def test_bmo_of_a_constant_field_is_exactly_zero(cells, value):
    kind, lengths = ("interval", (PI,)) if isinstance(cells, int) else ("rectangle", (3.0, 3.0))
    grid = make_grid(Domain(kind=kind, lengths=lengths), cells)
    field = constant_field(grid, [value, 3.0 * value])
    radius = max(2.0 * max(grid.h), min(grid.domain.lengths) / 4.0)
    assert bmo_seminorm(field, radius) == 0.0
    assert stencil_scan_bmo(field, radius) == 0.0


def test_bmo_of_a_field_constant_up_to_round_off_is_zero_without_a_scan(monkeypatch):
    # The 48 x 48 coexistence state with one ulp added at random nodes,
    # as a chord-converged Newton solve can leave it.
    grid = square_48()
    state = np.array([10.0, 14.0]) / 17.0
    vals = np.broadcast_to(state, grid.shape + (2,)).copy()
    bumped = np.random.default_rng(5).random(vals.shape) < 0.3
    vals[bumped] = np.nextafter(vals[bumped], np.inf)
    field = DiscreteField(grid=grid, values=vals)
    assert stencil_scan_bmo(field, 0.75) > 0.0

    def no_scan(*args):
        raise AssertionError("the oscillation scan ran")

    monkeypatch.setattr(diagnostics, "_ball_sums", no_scan)
    assert bmo_seminorm(field, 0.75) == 0.0


def test_bmo_of_a_small_but_real_oscillation_is_scanned():
    # A range of 1e-12 is thousands of ulps: the scan runs and finds it.
    # The values carry rounding of about 1e-16 on that range, so the two
    # scans agree to about 1e-4 of it.
    field, radius = oracle_case("square", "off-ladder", 2)
    flat = field.values.reshape(-1, 2)
    small = (10.0 / 17.0) + 1e-12 * (flat - flat.min(axis=0)) / np.ptp(flat, axis=0)
    field = DiscreteField(grid=field.grid, values=small.reshape(field.values.shape))
    expected = brute_force_bmo(field, radius)
    assert expected > 1e-14
    assert bmo_seminorm(field, radius) == pytest.approx(expected, rel=1e-3, abs=0.0)


@given(st.integers(0, 2**31 - 1), st.booleans(), st.sampled_from([1, 2, 3]))
@settings(max_examples=30, deadline=None)
def test_bmo_equals_the_full_stencil_scan_on_random_fields(seed, planar, m):
    rng = np.random.default_rng(seed)
    if planar:
        domain = Domain(kind="rectangle", lengths=tuple(rng.uniform(1.0, 4.0, 2)))
        grid = make_grid(domain, tuple(int(n) for n in rng.integers(8, 24, 2)))
    else:
        domain = Domain(kind="interval", lengths=(float(rng.uniform(1.0, 4.0)),))
        grid = make_grid(domain, int(rng.integers(8, 96)))
    # Smooth waves, steps with exact ties, and a large offset under a
    # small wiggle (the bound's subtraction cancels there).
    x = grid.points() @ rng.normal(size=(grid.ndim, m))
    vals = [np.cos(3.0 * x), np.floor(2.0 * x), 1e6 + 1e-3 * np.sin(7.0 * x)][seed % 3]
    field = DiscreteField(grid=grid, values=vals * 10.0 ** rng.uniform(-120, 120))
    h = max(grid.h)
    radius = float(rng.uniform(2.0 * h, 1.2 * max(domain.lengths)))
    assert bmo_seminorm(field, radius) == stencil_scan_bmo(field, radius)


# -- weak identities ------------------------------------------------------------


def test_identities_exact_zero_at_constant_root():
    model = turing_model()
    grid = make_grid(model.domain, 32)
    mass, energy = identity_residuals(model, constant_field(grid, [1.0, 1.0]))
    assert mass == 0.0
    assert energy == 0.0


def test_identities_hold_for_converged_solution():
    model = turing_model()
    grid = make_grid(model.domain, 64)
    result = newton_solve(model, grid, constant_field(grid, [1.0, 1.0]))
    mass, energy = identity_residuals(model, result.field)
    assert mass < 1e-8
    assert energy < 1e-8


def test_forcing_enters_the_identities():
    # u = 2 solves the forced logistic with forcing = -f(2) = 2; without
    # declaring the forcing the same field fails the mass identity by
    # exactly |f(2)| * |Omega|.
    model = scalar_logistic()
    grid = make_grid(model.domain, 32)
    field = constant_field(grid, [2.0])
    forcing = np.full((32, 1), 2.0)
    mass_f, energy_f = identity_residuals(model, field, forcing=forcing)
    assert mass_f == pytest.approx(0.0, abs=1e-14)
    assert energy_f == pytest.approx(0.0, abs=1e-13)
    mass, _ = identity_residuals(model, field)
    assert mass == pytest.approx(2.0 * PI, rel=1e-12)


def face_energy(model, field, forcing=None):
    """The energy identity ``|integral <A(u)Du, Du> - integral <f(u), u>|``
    with the flux term quadratured face by face: ``A`` at the face mean,
    and on Dirichlet walls the ghost reflection's doubled one-sided jump
    against ``A(0)``."""
    grid = field.grid
    u = field.values
    vol = grid.cell_volume
    f_vals = model.f(u) if forcing is None else model.f(u) + forcing
    flux = 0.0
    for axis, h in enumerate(grid.h):
        along = np.moveaxis(u, axis, 0)
        u_p, u_q = along[:-1], along[1:]
        du = (u_q - u_p) / h
        Adu = np.einsum("...ij,...j->...i", model.A(0.5 * (u_p + u_q)), du)
        flux += float((Adu * du).sum() * vol)
        if model.bc.kind == "dirichlet":
            for u_w in (along[0], along[-1]):
                jump = 2.0 * u_w / h
                Aj = np.einsum("...ij,...j->...i", model.A(np.zeros_like(u_w)), jump)
                flux += float((Aj * u_w).sum() * vol / h)
    return abs(flux - float((f_vals * u).sum() * vol))


def random_identity_case(seed):
    """A random model with m = 1..3 on an interval or a rectangle under
    either boundary condition, a random positive field on a small grid,
    and a forcing on half of the cases."""
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, 4))
    planar = bool(rng.integers(2))
    lengths = rng.uniform(0.5, 5.0, size=2 if planar else 1)
    model = build_model(
        {
            "m": m,
            "d": rng.uniform(0.1, 2.0, m).tolist(),
            "alpha": rng.uniform(0.0, 1.0, (m, m)).tolist(),
            "r": rng.uniform(-1.0, 2.0, m).tolist(),
            "c": rng.uniform(-1.0, 2.0, (m, m)).tolist(),
            "domain": {"kind": "rectangle" if planar else "interval", "lengths": lengths.tolist()},
            "bc": ("neumann", "dirichlet")[int(rng.integers(2))],
        }
    )
    grid = make_grid(model.domain, tuple(int(n) for n in rng.integers(8, 25, len(lengths))))
    field = DiscreteField(grid=grid, values=rng.uniform(0.1, 2.0, grid.shape + (m,)))
    forcing = rng.normal(size=grid.shape + (m,)) if rng.integers(2) else None
    return model, field, forcing


def test_energy_identity_equals_the_face_quadrature():
    # The energy is the discrete system tested with u; summed by parts it
    # is the face-by-face quadrature, up to round-off.
    kinds = set()
    for seed in range(120):
        model, field, forcing = random_identity_case(seed)
        kinds.add((model.m, field.grid.ndim, model.bc.kind, forcing is not None))
        _, energy = identity_residuals(model, field, forcing=forcing)
        u = field.values
        scale = 1.0 + field.grid.cell_volume * np.abs(model.f(u) * u).sum()
        assert abs(energy - face_energy(model, field, forcing)) <= 1e-12 * scale, seed
    assert len(kinds) == 3 * 2 * 2 * 2


# -- nonexistence threshold ------------------------------------------------------


def test_threshold_logistic_closed_form():
    # max |1 - 2u| over [0, 2] is 3 and lambda_1 = 1 on (0, pi):
    # threshold = 3 diam^2 / pi^2 = 3.
    model = scalar_logistic()
    value = nonexistence_threshold(model, [[0.0, 2.0]])
    assert value == pytest.approx(3.0, rel=1e-12)


def test_threshold_zero_reaction():
    model = build_model(
        {
            "m": 1,
            "d": [1.0],
            "alpha": [[0.0]],
            "r": [0.0],
            "c": [[0.0]],
            "domain": {"kind": "interval", "lengths": [PI]},
            "bc": "neumann",
        }
    )
    assert nonexistence_threshold(model, [[0.0, 2.0]]) == 0.0


def test_threshold_scales_with_domain_diameter_squared():
    small = nonexistence_threshold(scalar_logistic(), [[0.0, 2.0]])
    large = nonexistence_threshold(
        scalar_logistic(length=2.0 * PI), [[0.0, 2.0]]
    )
    assert large == pytest.approx(4.0 * small, rel=1e-12)


def test_threshold_box_validation():
    model = scalar_logistic()
    with pytest.raises(ModelError, match="shape"):
        nonexistence_threshold(model, [[0.0, 2.0], [0.0, 2.0]])
    with pytest.raises(ModelError, match="empty box"):
        nonexistence_threshold(model, [[2.0, 0.0]])


# -- assembled report ------------------------------------------------------------


def test_report_for_converged_solution():
    model = build_model(
        {
            "m": 2,
            "d": [1.0, 1.0],
            "alpha": [[0.0, 0.0], [0.0, 0.0]],
            "r": [1.0, 1.0],
            "c": [[1.0, 0.5], [0.3, 1.0]],
            "domain": {"kind": "interval", "lengths": [PI]},
            "bc": "neumann",
        }
    )
    grid = make_grid(model.domain, 64)
    result = newton_solve(model, grid, constant_field(grid, [0.6, 0.8]))
    report = diagnostics_report(model, result.field)
    assert report.warnings == ()
    assert report.positivity_min == pytest.approx(10.0 / 17.0, abs=1e-9)
    assert max(report.identity_residuals) < 1e-8
    assert report.bmo_sup < 1e-9
    assert report.bmo_radius == pytest.approx(PI / 4.0)
    assert report.l1_norm == pytest.approx(
        PI * np.hypot(10.0 / 17.0, 14.0 / 17.0), rel=1e-9
    )


def test_report_flags_non_solutions():
    model = turing_model()
    grid = make_grid(model.domain, 32)
    report = diagnostics_report(model, constant_field(grid, [0.3, 0.9]))
    assert any("not a solution" in w for w in report.warnings)


@pytest.mark.parametrize("minimum, negative", [(-1.5e-8, True), (-0.5e-8, False)])
def test_positivity_warning_and_negative_class_share_one_threshold(minimum, negative):
    model = scalar_logistic()
    grid = make_grid(model.domain, 32)
    vals = np.ones((32, 1))
    vals[5] = minimum
    report = diagnostics_report(model, DiscreteField(grid=grid, values=vals))
    assert any("positivity" in w for w in report.warnings) is negative
    assert (classify_field(model, vals) == "negative") is negative


def test_report_flags_negative_fields():
    model = scalar_logistic()
    grid = make_grid(model.domain, 32)
    x = grid.points()[:, 0]
    vals = (0.1 * np.cos(x) - 0.05)[:, None]
    report = diagnostics_report(model, DiscreteField(grid=grid, values=vals))
    assert any("positivity" in w for w in report.warnings)
    assert report.positivity_min < 0.0
