"""Built-in acceptance suite: nine end-to-end criteria.

Each criterion pits a pipeline output against an independent oracle or a
closed-form value at a stated tolerance and reports one pass/fail line.
The suite is deterministic (fixed RNG seeds) and runs from both the CLI
(``crossdiff selftest``) and the test suite.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import tempfile
from dataclasses import dataclass

import numpy as np

from . import cli
from .diagnostics import bmo_seminorm, identity_residuals, nonexistence_threshold, norms
from .index_theory import constant_state_index, existence_verdict
from .model import Domain, Model, build_model
from .pde_solver import (
    DiscreteField,
    constant_field,
    discretize,
    make_grid,
    newton_solve,
    random_field,
    seed_from_mode,
)
from .spectral import mode
from .steady_states import find_constant_states
from .verification import (
    fd_neumann_matrix,
    index_oracle,
    linearization,
    oracle_grid,
    reaction_unstable_count,
)

PI = math.pi


@dataclass(frozen=True)
class CriterionResult:
    """Outcome of one acceptance criterion."""

    number: int
    name: str
    passed: bool
    detail: str


def _interval_config(
    m: int,
    d: list[float],
    alpha: list[list[float]],
    r: list[float],
    c: list[list[float]],
) -> dict:
    return {
        "m": m,
        "d": d,
        "alpha": alpha,
        "r": r,
        "c": c,
        "domain": {"kind": "interval", "lengths": [PI]},
        "bc": "neumann",
    }


def _turing_config(d_1: float = 0.4, alpha_21: float = 0.0) -> dict:
    """Activator–inhibitor pair with a diffusion-driven unstable mode."""
    return _interval_config(
        2, [d_1, 7.0], [[0.0, 0.0], [alpha_21, 0.0]], [1.0, 1.0],
        [[-1.0, 2.0], [-3.0, 4.0]],
    )


def _rectangle(config: dict, lengths: tuple[float, float]) -> Model:
    return build_model({**config, "domain": {"kind": "rectangle", "lengths": list(lengths)}})


def _logistic_config(d: float = 1.0) -> dict:
    return _interval_config(1, [d], [[0.0]], [1.0], [[1.0]])


def _weak_lv_config() -> dict:
    return _interval_config(
        2, [1.0, 1.0], [[0.0, 0.0], [0.0, 0.0]], [1.0, 1.0],
        [[1.0, 0.5], [0.3, 1.0]],
    )


def _realized_model(A_target: np.ndarray, J: np.ndarray) -> Model:
    """Model on (0, pi) whose flux matrix at ``u* = 1`` equals ``A_target``
    and whose reaction Jacobian there equals ``J``.

    Off-diagonal flux entries become cross-diffusion weights; the
    diagonal surplus becomes the plain diffusion rate (positive exactly
    when ``A_target`` is diagonally dominant with nonnegative
    off-diagonal entries).  The reaction is the affine-growth family
    with ``c = -J`` and ``r = c 1``.
    """
    m = A_target.shape[0]
    alpha = np.where(~np.eye(m, dtype=bool), A_target, 0.0)
    d = np.diag(A_target) - alpha.sum(axis=1)
    c = -J
    r = c @ np.ones(m)
    return build_model(
        _interval_config(m, d.tolist(), alpha.tolist(), r.tolist(), c.tolist())
    )


def _random_instance(seed: int, m: int, unstable: int = 0) -> Model:
    """Random nondegenerate instance: diagonally dominant flux matrix at
    the positive state and a reaction Jacobian with ``unstable`` real
    eigenvalues in ``[0.1, 0.5]`` and every other eigenvalue real part
    below ``-0.1``."""
    rng = np.random.default_rng(seed)
    off = rng.uniform(0.0, 0.5, (m, m))
    np.fill_diagonal(off, 0.0)
    A_target = off + np.diag(off.sum(axis=1) + rng.uniform(0.5, 2.0, m))
    if unstable:
        w = np.concatenate(
            [rng.uniform(0.1, 0.5, unstable), -rng.uniform(0.2, 1.5, m - unstable)]
        )
        V = np.eye(m) + rng.uniform(-0.3, 0.3, (m, m))
        return _realized_model(A_target, V @ np.diag(w) @ np.linalg.inv(V))
    R = rng.uniform(-1.0, 1.0, (m, m))
    shift = max(float(np.linalg.eigvals(R).real.max()), 0.0)
    J = R - (shift + 0.1 + rng.uniform(0.1, 0.5)) * np.eye(m)
    return _realized_model(A_target, J)


def _bistable_saddle() -> tuple[Model, np.ndarray]:
    """Strong competition at ``d = 100``: the coexistence state (1/3, 1/3)
    is a saddle of the kinetics, ``det(-J) = -1/3``."""
    model = build_model(
        _interval_config(2, [100.0, 100.0], [[0.0, 0.0], [0.0, 0.0]], [1.0, 1.0],
                         [[1.0, 2.0], [2.0, 1.0]])
    )
    return model, np.linalg.solve(model.c, model.r)


def _index_cases() -> list[tuple[Model, np.ndarray]]:
    """Constant states on intervals and rectangles: designed, random and
    kinetically unstable models at ``u* = 1``, and a kinetic saddle."""
    J_design = np.array([[1.0, -2.0], [3.0, -4.0]])
    models = (
        _realized_model(np.diag([0.4, 7.0]), J_design),
        _realized_model(np.diag([0.05, 1.0]), J_design),
        _realized_model(np.diag([0.25, 5.0]), J_design),
        _random_instance(0, 2),
        _random_instance(1, 3),
        _random_instance(2, 3),
        _random_instance(3, 3, unstable=1),
        # sigma = 5 counts the double modes of the square twice, and the
        # last state's constant mode is kinetically unstable.
        _rectangle(_turing_config(d_1=0.3), (PI, PI)),
        _rectangle(_turing_config(d_1=0.3, alpha_21=0.1), (3.0, 2.0)),
        _rectangle(_random_instance(3, 3, unstable=1).to_config(), (PI, PI / 2.0)),
    )
    return [(model, np.ones(model.m)) for model in models] + [_bistable_saddle()]


def criterion_1() -> CriterionResult:
    """Index equals the sign of the discrete determinant
    (:func:`~crossdiff.verification.index_oracle`), the constant mode
    included, on intervals and rectangles."""
    cases = _index_cases()
    rows = []
    for model, u_star in cases:
        report = constant_state_index(model, u_star)
        n = oracle_grid(model, u_star)
        sign = index_oracle(model, u_star, n=n)
        if sign != report.index:
            return CriterionResult(
                1, "index-parity-oracle", False,
                f"index={report.index} (sigma={report.sigma}) but the discrete "
                f"determinant's sign is {sign} at n={n} on {model.domain}",
            )
        rows.append((report.index, reaction_unstable_count(model, u_star), n))
    indices, unstable, grids = zip(*rows)
    return CriterionResult(
        1, "index-parity-oracle", True,
        f"{len(cases)} models (3 rectangles), index={indices}, unstable kinetic "
        f"eigenvalues={unstable}, grids n={grids}",
    )


def criterion_2() -> CriterionResult:
    """The solver's Jacobian at criterion 1's constant states equals the
    oracle's ``K_h (x) A(u*) - I (x) J(u*)``
    (:func:`~crossdiff.verification.linearization`) entry by entry."""
    n, cases = 16, _index_cases()
    worst = 0.0
    for model, u_star in cases:
        grid = make_grid(model.domain, n)
        solver = discretize(model, grid).jacobian(constant_field(grid, u_star).values)
        oracle = linearization(model, u_star, n)
        worst = max(worst, float(abs(solver - oracle).max() / abs(oracle).max()))
    return CriterionResult(
        2, "solver-jacobian-linearization", worst <= 1e-12,
        f"largest entry gap {worst:.3e} relative to the largest entry over "
        f"{len(cases)} constant states at n={n} cells per axis",
    )


def criterion_3() -> CriterionResult:
    """Mode values ``k^2`` on ``(0, pi)``, and the pi x pi square's double
    lambda = 1 among modes 0 to 3 (:func:`~crossdiff.spectral.mode`) as
    often as the FD Neumann matrix at n = 16 has an eigenvalue near 1."""
    interval = Domain(kind="interval", lengths=(PI,))
    values = np.array([mode(interval, K)[0] for K in range(6)])
    exact = np.arange(6.0) ** 2
    rel = float((np.abs(values[1:] - exact[1:]) / exact[1:]).max())
    interval_ok = values[0] == 0.0 and rel <= 1e-12

    square = Domain(kind="rectangle", lengths=(PI, PI))
    square_values = np.array([mode(square, K)[0] for K in range(4)])
    M_one = int(np.sum(np.abs(square_values - 1.0) < 1e-12))
    # At n = 16 the FD lambda = 1 is (32 / pi)^2 sin^2(pi / 32) ~ 0.997,
    # and its neighbours are 0 and ~1.99.
    discrete = np.linalg.eigvalsh(fd_neumann_matrix(16, PI, PI).toarray())
    near_one = int(np.sum(np.abs(discrete - 1.0) <= 1e-2))
    square_ok = M_one == 2 and near_one == 2
    return CriterionResult(
        3, "neumann-spectrum", interval_ok and square_ok,
        f"interval rel err {rel:.3e} (zero mode exact: {values[0] == 0.0}), "
        f"square lambda=1 multiplicity {M_one} mode() / {near_one} FD at n=16",
    )


def criterion_4() -> CriterionResult:
    """Worked diagonal index case and the scalar logistic index."""
    diag_model = build_model(
        _interval_config(
            2, [1.0, 1.0], [[0.0, 0.0], [0.0, 0.0]], [-2.0, 1.0],
            [[-2.0, 0.0], [0.0, 1.0]],
        )
    )
    report = constant_state_index(diag_model, np.ones(2))
    # A(u*) = I and J(u*) = diag(2, -1): the roots are -1 and 2, and p < 0
    # on [0, 2), which holds the constant mode and mode 1 (lambda_hat = 1).
    diag_negative = [(int(r["first_mode"]), int(r["modes"])) for r in report.negative]
    diag_ok = report.sigma == 2 and diag_negative == [(0, 2)] and report.index == 1

    logistic = build_model(_logistic_config())
    log_report = constant_state_index(logistic, np.ones(1))
    log_ok = log_report.sigma == 0 and not log_report.negative.size and log_report.index == 1
    return CriterionResult(
        4, "worked-diagonal-index", diag_ok and log_ok,
        f"diagonal case sigma={report.sigma} p<0 (first mode, modes)={diag_negative} "
        f"index={report.index}; logistic sigma={log_report.sigma} index={log_report.index}",
    )


def criterion_5() -> CriterionResult:
    """Mode-seeded solve of a Turing-configured model finds a pattern."""
    model = build_model(_turing_config())
    verdict = existence_verdict(model)
    (positive,) = [s for s in verdict.states if s.state.classification == "nontrivial"]
    u_star, report = positive.state.u_star, positive.report
    # The first nonconstant mode where p(lambda_hat) < 0.
    unstable = [
        int(r["first_mode"]) for r in report.negative if r["first_mode"] >= 1 and r["modes"]
    ]
    if verdict.predicts_nonconstant is not True or not unstable:
        return CriterionResult(
            5, "pattern-pipeline", False,
            f"verdict predicts {verdict.predicts_nonconstant}, "
            f"{len(unstable)} unstable modes",
        )
    grid = make_grid(model.domain, 128)
    seed = seed_from_mode(model, u_star, unstable[0], 1.5, grid)
    result = newton_solve(model, grid, seed)
    grad_l2 = norms(result.field)[1]
    passed = (
        result.converged
        and result.residual_norm < 1e-8
        and grad_l2 > 1e-2
        and result.classification == "nonconstant"
    )
    return CriterionResult(
        5, "pattern-pipeline", passed,
        f"residual {result.residual_norm:.3e}, grad_l2 {grad_l2:.3f}, "
        f"classification {result.classification}",
    )


def criterion_6() -> CriterionResult:
    """Above the diffusion threshold all random starts land on constants."""
    base = build_model(_logistic_config())
    threshold = nonexistence_threshold(base, [[0.0, 2.0]])
    d_hi = 1.05 * threshold
    model = build_model(_logistic_config(d_hi))
    grid = make_grid(model.domain, 128)
    worst = 0.0
    for s in range(20):
        start = random_field(grid, [0.0], [2.0], seed=s)
        result = newton_solve(model, grid, start)
        if not result.converged:
            return CriterionResult(
                6, "nonexistence-threshold", False,
                f"start {s} did not converge",
            )
        worst = max(worst, norms(result.field)[1])
    passed = worst < 1e-6
    return CriterionResult(
        6, "nonexistence-threshold", passed,
        f"threshold {threshold:.4f} (max|1-2u| diam^2/pi^2 = 3), d={d_hi:.4f}, "
        f"20 starts constant, max grad_l2 {worst:.3e}",
    )


def criterion_7() -> CriterionResult:
    """Weak-competition coexistence is exact; boundary indices sum to 0."""
    model = build_model(_weak_lv_config())
    states = find_constant_states(model)
    coexist = states.by_classification("nontrivial")[0]
    target = np.array([10.0 / 17.0, 14.0 / 17.0])
    err = float(np.abs(coexist.u_star - target).max())
    verdict = existence_verdict(model, states)
    boundary = [s.index for s in verdict.states if s.state.classification != "nontrivial"]
    boundary = None if verdict.inconclusive else sum(boundary)
    passed = err < 1e-10 and verdict.case_label == "a" and boundary == 0
    return CriterionResult(
        7, "coexistence-exactness", passed,
        f"|u* - (10/17, 14/17)| = {err:.2e}, case {verdict.case_label!r}, "
        f"boundary sum {boundary}",
    )


def _manufactured() -> tuple[Model, dict]:
    """Forced scalar problem with a known solution whose odd derivatives
    do not vanish at the walls (so identity quadratures decay at second
    order instead of superconverging)."""
    model = build_model(
        _interval_config(1, [1.0], [[0.3]], [1.0], [[1.0]])
    )

    def u_ex(x: np.ndarray) -> np.ndarray:
        return 1.0 + 0.5 * np.cos(x) + 0.2 * np.sin(x) ** 3

    def du_ex(x: np.ndarray) -> np.ndarray:
        return -0.5 * np.sin(x) + 0.6 * np.sin(x) ** 2 * np.cos(x)

    def d2u_ex(x: np.ndarray) -> np.ndarray:
        return (
            -0.5 * np.cos(x)
            + 1.2 * np.sin(x) * np.cos(x) ** 2
            - 0.6 * np.sin(x) ** 3
        )

    def forcing(x: np.ndarray) -> np.ndarray:
        u, up, upp = u_ex(x), du_ex(x), d2u_ex(x)
        flux_div = 0.6 * up**2 + (1.0 + 0.6 * u) * upp
        return -flux_div - u * (1.0 - u)

    return model, {"u": u_ex, "forcing": forcing}


def criterion_8() -> CriterionResult:
    """Second-order solution error and identity-residual decay."""
    model, exact = _manufactured()
    errors = []
    for n in (32, 64, 128, 256):
        grid = make_grid(model.domain, n)
        x = grid.coords[0]
        seed = exact["u"](x)[:, None]
        result = newton_solve(
            model, grid, seed, forcing=exact["forcing"](x)[:, None]
        )
        if not result.converged:
            return CriterionResult(
                8, "discretization-order", False,
                f"no convergence on the {n}-cell grid: {result.warnings[0]}",
            )
        errors.append(float(np.abs(result.field.values[:, 0] - exact["u"](x)).max()))
    rates = np.log2(np.array(errors[:-1]) / np.array(errors[1:]))
    rates_ok = bool(np.all((rates >= 1.8) & (rates <= 2.2)))

    residuals = []
    for n in (64, 128, 256):
        grid = make_grid(model.domain, n)
        x = grid.coords[0]
        field = DiscreteField(grid=grid, values=exact["u"](x)[:, None])
        residuals.append(
            identity_residuals(model, field, forcing=exact["forcing"](x)[:, None])
        )
    mass = np.array([r[0] for r in residuals])
    energy = np.array([r[1] for r in residuals])
    mass_ratios = mass[:-1] / mass[1:]
    energy_ratios = energy[:-1] / energy[1:]
    identities_ok = bool(
        np.all((mass_ratios >= 3.0) & (mass_ratios <= 5.0))
        and np.all((energy_ratios >= 3.0) & (energy_ratios <= 5.0))
    )
    return CriterionResult(
        8, "discretization-order", rates_ok and identities_ok,
        f"rates {np.round(rates, 3).tolist()}, mass ratios "
        f"{np.round(mass_ratios, 2).tolist()}, energy ratios "
        f"{np.round(energy_ratios, 2).tolist()}",
    )


def criterion_9() -> CriterionResult:
    """Scaling invariance of the index, oscillation-seminorm axioms, and
    byte-stable reports."""
    base = build_model(_turing_config())
    base_report = constant_state_index(base, np.ones(2))
    scaling_ok = True
    for s in (0.37, 5.0):
        cfg = _turing_config()
        cfg["d"] = [s * v for v in cfg["d"]]
        cfg["alpha"] = [[s * v for v in row] for row in cfg["alpha"]]
        cfg["r"] = [s * v for v in cfg["r"]]
        cfg["c"] = [[s * v for v in row] for row in cfg["c"]]
        scaled = constant_state_index(build_model(cfg), np.ones(2))
        scaling_ok = scaling_ok and (
            scaled.sigma == base_report.sigma and scaled.index == base_report.index
        )

    grid = make_grid(base.domain, 64)
    x = grid.coords[0]
    values = np.stack([1.0 + 0.3 * np.cos(x), 2.0 + 0.1 * np.cos(2 * x)], axis=-1)
    field = DiscreteField(grid=grid, values=values)
    radius = 0.5
    b0 = bmo_seminorm(field, radius)
    b_shift = bmo_seminorm(
        DiscreteField(grid=grid, values=values + 3.7), radius
    )
    b_scale = bmo_seminorm(DiscreteField(grid=grid, values=2.5 * values), radius)
    bmo_ok = (
        abs(b_shift - b0) <= 1e-12 * (1.0 + b0)
        and abs(b_scale - 2.5 * b0) <= 1e-12 * (1.0 + b0)
    )

    stable_ok = True
    with tempfile.TemporaryDirectory() as tmp:
        cfg_path = os.path.join(tmp, "model.json")
        with open(cfg_path, "w") as fh:
            json.dump(_turing_config(), fh)
        pairs = []
        for run in ("one", "two"):
            rep = os.path.join(tmp, f"report_{run}.json")
            sol = os.path.join(tmp, f"solve_{run}.json")
            with contextlib.redirect_stdout(io.StringIO()):
                cli.main(["analyze", "--config", cfg_path, "--output", rep])
                cli.main(
                    [
                        "solve", "--config", cfg_path, "--grid", "32",
                        "--seed-constant", "1,1", "--output", sol,
                    ]
                )
            with open(rep, "rb") as fh:
                rep_bytes = fh.read()
            with open(os.path.join(tmp, f"solve_{run}_field.csv"), "rb") as fh:
                csv_bytes = fh.read()
            pairs.append((rep_bytes, csv_bytes))
        stable_ok = pairs[0] == pairs[1]

    passed = scaling_ok and bmo_ok and stable_ok
    return CriterionResult(
        9, "invariance-suite", passed,
        f"scaling {'ok' if scaling_ok else 'BROKEN'}, oscillation axioms "
        f"{'ok' if bmo_ok else 'BROKEN'}, byte-stability "
        f"{'ok' if stable_ok else 'BROKEN'}",
    )


_CRITERIA = (
    criterion_1,
    criterion_2,
    criterion_3,
    criterion_4,
    criterion_5,
    criterion_6,
    criterion_7,
    criterion_8,
    criterion_9,
)


def run_all() -> list[CriterionResult]:
    """Run every acceptance criterion, never letting one abort the rest."""
    results = []
    for fn in _CRITERIA:
        number = int(fn.__name__.rsplit("_", 1)[1])
        try:
            results.append(fn())
        except Exception as exc:  # noqa: BLE001 — suite must report, not crash
            results.append(
                CriterionResult(number, fn.__name__, False, f"raised {exc!r}")
            )
    return results
