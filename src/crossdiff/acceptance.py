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
import time
from dataclasses import dataclass

import numpy as np

from . import cli
from .diagnostics import bmo_seminorm, identity_residuals, nonexistence_threshold
from .index_theory import constant_state_index, existence_verdict
from .model import Domain, Model, build_model
from .pde_solver import (
    DiscreteField,
    make_grid,
    newton_solve,
    random_field,
    seed_from_mode,
)
from .spectral import discrete_laplacian_spectrum, neumann_eigenvalues
from .steady_states import find_constant_states
from .verification import (
    discrete_mode_mu,
    ev1_mu_for_mode,
    parity_oracle,
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
    length: float = PI,
) -> dict:
    return {
        "m": m,
        "d": d,
        "alpha": alpha,
        "r": r,
        "c": c,
        "domain": {"kind": "interval", "lengths": [length]},
        "bc": "neumann",
    }


def _turing_config() -> dict:
    """Activator–inhibitor pair with a diffusion-driven unstable mode."""
    return _interval_config(
        2, [0.4, 7.0], [[0.0, 0.0], [0.0, 0.0]], [1.0, 1.0],
        [[-1.0, 2.0], [-3.0, 4.0]],
    )


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


def _random_instance(seed: int, m: int) -> Model:
    """Random nondegenerate instance: diagonally dominant flux matrix at
    the positive state and a reaction Jacobian with all eigenvalue real
    parts below ``-0.1``."""
    rng = np.random.default_rng(seed)
    off = rng.uniform(0.0, 0.5, (m, m))
    np.fill_diagonal(off, 0.0)
    A_target = off + np.diag(off.sum(axis=1) + rng.uniform(0.5, 2.0, m))
    R = rng.uniform(-1.0, 1.0, (m, m))
    shift = max(float(np.linalg.eigvals(R).real.max()), 0.0)
    J = R - (shift + 0.1 + rng.uniform(0.1, 0.5)) * np.eye(m)
    return _realized_model(A_target, J)


def criterion_1() -> CriterionResult:
    """Index parity equals the discrete solution-map oracle parity."""
    J_design = np.array([[1.0, -2.0], [3.0, -4.0]])
    models = [
        _realized_model(np.diag([0.4, 7.0]), J_design),
        _realized_model(np.diag([0.05, 1.0]), J_design),
        _realized_model(np.diag([0.25, 5.0]), J_design),
        _random_instance(0, 2),
        _random_instance(1, 3),
        _random_instance(2, 3),
    ]
    gammas: list[int] = []
    worst_time = 0.0
    for model in models:
        u_star = np.ones(model.m)
        if reaction_unstable_count(model, u_star) != 0:
            return CriterionResult(
                1, "index-parity-oracle", False,
                "generator produced a reaction-unstable instance",
            )
        t0 = time.perf_counter()
        report = constant_state_index(model, u_star)
        k_base = 1.0 + float(np.linalg.norm(model.jacobian_f(u_star), 2))
        for k in (k_base, 2.0 * k_base + 3.7):
            count, parity = parity_oracle(model, u_star, n=256, k=k)
            if parity != (-1) ** report.gamma:
                return CriterionResult(
                    1, "index-parity-oracle", False,
                    f"parity mismatch: gamma={report.gamma}, oracle count="
                    f"{count} at k={k:.3g} (m={model.m})",
                )
        worst_time = max(worst_time, time.perf_counter() - t0)
        gammas.append(report.gamma)
    return CriterionResult(
        1, "index-parity-oracle", True,
        f"6 models, gamma={gammas}, both k values match, "
        f"slowest {worst_time:.2f}s",
    )


def criterion_2() -> CriterionResult:
    """Per-mode analytic mu agree with the discrete-pencil mu."""
    model = build_model(_turing_config())
    u_star = np.ones(2)
    A = model.A(u_star)
    d_A = model.d_A(u_star)
    J = model.jacobian_f(u_star)
    analytic = [
        ev1_mu_for_mode(A, d_A, J, float(k * k)) for k in range(1, 6)
    ]
    discrete = discrete_mode_mu(model, u_star, n=512, n_modes=5)
    worst = 0.0
    for mu_a, (_, mu_d) in zip(analytic, discrete):
        rel = np.abs(mu_a - mu_d) / np.maximum(np.abs(mu_a), 1e-12)
        worst = max(worst, float(rel.max()))
    passed = worst <= 1e-3
    return CriterionResult(
        2, "mode-eigenproblem-consistency", passed,
        f"max relative mu error {worst:.3e} over first 5 modes at N=512",
    )


def criterion_3() -> CriterionResult:
    """Interval spectrum at N=1024 and square multiplicity detection."""
    interval = Domain(kind="interval", lengths=(PI,))
    vals = discrete_laplacian_spectrum(interval, 1024)[:6]
    exact = np.array([0.0, 1.0, 4.0, 9.0, 16.0, 25.0])
    rel = float((np.abs(vals[1:] - exact[1:]) / exact[1:]).max())
    interval_ok = vals[0] == 0.0 and rel <= 1e-3

    square = Domain(kind="rectangle", lengths=(PI, PI))
    spectrum = neumann_eigenvalues(square, 4)
    M_one = int(spectrum.M[np.abs(spectrum.values - 1.0) < 1e-12][0])
    discrete_sq = discrete_laplacian_spectrum(square, 64)
    near_one = int(np.sum(np.abs(discrete_sq - 1.0) <= 1e-3))
    square_ok = M_one == 2 and near_one == 2
    return CriterionResult(
        3, "neumann-spectrum", interval_ok and square_ok,
        f"interval rel err {rel:.3e} (zero mode exact: {vals[0] == 0.0}), "
        f"square lambda=1 multiplicity {M_one} analytic / {near_one} discrete",
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
    diag_ok = report.gamma == 1 and report.index == -1

    logistic = build_model(_logistic_config())
    log_report = constant_state_index(logistic, np.ones(1))
    log_ok = log_report.gamma == 0 and log_report.index == 1
    return CriterionResult(
        4, "worked-diagonal-index", diag_ok and log_ok,
        f"diagonal case gamma={report.gamma} index={report.index}; "
        f"logistic gamma={log_report.gamma} index={log_report.index}",
    )


def criterion_5() -> CriterionResult:
    """Mode-seeded solve of a Turing-configured model finds a pattern."""
    model = build_model(_turing_config())
    verdict = existence_verdict(model)
    report = next(
        r for r in verdict.index_reports
        if np.allclose(r.u_star, [1.0, 1.0])
    )
    unstable = np.flatnonzero(report.mode_decisions.N >= 1)
    if verdict.predicts_nonconstant is not True or not unstable.size:
        return CriterionResult(
            5, "pattern-pipeline", False,
            f"verdict predicts {verdict.predicts_nonconstant}, "
            f"{unstable.size} unstable modes",
        )
    grid = make_grid(model.domain, 128)
    # Row i of the ledger is mode number i + 1.
    seed = seed_from_mode(model, report.u_star, int(unstable[0]) + 1, 1.5, grid)
    result = newton_solve(model, grid, seed, strict=False)
    passed = (
        result.converged
        and result.residual_norm < 1e-8
        and result.grad_l2 > 1e-2
        and result.classification == "nonconstant"
    )
    return CriterionResult(
        5, "pattern-pipeline", passed,
        f"residual {result.residual_norm:.3e}, grad_l2 {result.grad_l2:.3f}, "
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
        result = newton_solve(model, grid, start, strict=False)
        if not result.converged:
            return CriterionResult(
                6, "nonexistence-threshold", False,
                f"start {s} did not converge",
            )
        worst = max(worst, result.grad_l2)
    passed = worst < 1e-6
    return CriterionResult(
        6, "nonexistence-threshold", passed,
        f"threshold {threshold:.4f} (3*pi^2={3 * PI**2:.4f}), d={d_hi:.4f}, "
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
    passed = (
        err < 1e-10
        and verdict.case_label == "a"
        and verdict.sum_of_boundary_indices == 0
    )
    return CriterionResult(
        7, "coexistence-exactness", passed,
        f"|u* - (10/17, 14/17)| = {err:.2e}, case {verdict.case_label!r}, "
        f"boundary sum {verdict.sum_of_boundary_indices}",
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
            scaled.gamma == base_report.gamma and scaled.index == base_report.index
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
