"""Workload inputs and output checks for the end-to-end benchmark.

Each workload turns the benchmark seed into a plan (config, output
paths, what the checks need) and the plan into one ``crossdiff`` command
line per operation.  Input generation imports nothing from
``crossdiff``; the checks import it lazily, because they run in the
guarded client process next to the operation they check.

Why these three workloads:

* ``verdict-sweep`` keeps ``model``/``steady_states``/``spectral``/
  ``index_theory`` and the sweep fan-out busy while ``pde_solver`` and
  ``diagnostics`` stay idle.  Its ``alpha.0.1 = 0`` row is one-sided
  cross-diffusion, whose defective cutoff path dominates the analysis
  time and ends inconclusive.
* ``pattern-1d`` is a direct Newton solve that barely works; the
  oscillation scan in ``diagnostics`` does almost all of the work.
* ``skt-2d`` is a sigma-continuation with a failed, bisected stage, so
  Newton steps and sparse LU do most of the work.
"""

from __future__ import annotations

import copy
import csv
import json
import math
import random
import time
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("verdict-sweep", "pattern-1d", "skt-2d")
SCALES = ("full", "tiny")

# The README's 1D Turing example (zero-flux interval of length pi).
TURING_1D = {
    "m": 2,
    "d": [0.4, 7.0],
    "alpha": [[0.0, 0.0], [0.0, 0.0]],
    "r": [1.0, 1.0],
    "c": [[-1.0, 2.0], [-3.0, 4.0]],
    "domain": {"kind": "interval", "lengths": [math.pi]},
    "bc": "neumann",
}

# The ROADMAP's 2D Shigesada-Kawasaki-Teramoto model on a 3 x 3 square.
SKT_2D = {
    "m": 2,
    "d": [0.05, 1.0],
    "alpha": [[0.1, 3.0], [0.5, 0.2]],
    "r": [1.0, 1.0],
    "c": [[1.0, 0.5], [0.3, 1.0]],
    "domain": {"kind": "rectangle", "lengths": [3.0, 3.0]},
    "bc": "neumann",
}

# Sweep grid: (start, stop, num) for d.0 and alpha.0.1.  The seed shifts
# the d.0 axis by SWEEP_SHIFT_STEPS-ths of one grid step, so every seed
# maps onto one of a few grids that all have a recorded reference.
SWEEP_GRID = {"full": ((0.05, 1.0, 12), (0.0, 2.0, 48)), "tiny": ((0.05, 1.0, 3), (0.0, 2.0, 4))}
SWEEP_SHIFT_STEPS = 8
SOLVE_GRID = {"pattern-1d": {"full": 512, "tiny": 64}, "skt-2d": {"full": 48, "tiny": 12}}
# At amplitude 1.0 the 1D solve relaxes to u*, which is correct
# behaviour; amplitudes in this range reach the Turing pattern.
AMP_RANGE = (1.25, 2.0)
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

REFERENCE_PATH = Path(__file__).with_name("reference_verdicts.json")
VERDICT_COLUMNS = ("case_label", "total", "predicts_nonconstant", "inconclusive")


def sweep_params(seed: int, scale: str) -> list[tuple[str, float, float, int]]:
    """``(path, start, stop, num)`` for the two sweep axes of this seed."""
    (d_lo, d_hi, d_n), (a_lo, a_hi, a_n) = SWEEP_GRID[scale]
    shift = (seed % SWEEP_SHIFT_STEPS) / SWEEP_SHIFT_STEPS * (d_hi - d_lo) / (d_n - 1)
    return [("d.0", d_lo + shift, d_hi + shift, d_n), ("alpha.0.1", a_lo, a_hi, a_n)]


def sweep_points(params: list[tuple[str, float, float, int]]) -> list[tuple[float, float]]:
    """Grid points in the order ``crossdiff sweep`` writes them."""
    import numpy as np

    (_, d_lo, d_hi, d_n), (_, a_lo, a_hi, a_n) = params
    return [
        (float(d), float(a))
        for d in np.linspace(d_lo, d_hi, d_n)
        for a in np.linspace(a_lo, a_hi, a_n)
    ]


def sweep_config() -> dict:
    config = copy.deepcopy(TURING_1D)
    config["alpha"] = [[0.0, 0.0], [0.1, 0.0]]
    return config


def make_plan(workload: str, seed: int, scale: str, workdir: Path) -> dict:
    """Everything the operations of one run and their checks need."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    config = sweep_config() if workload == "verdict-sweep" else (
        TURING_1D if workload == "pattern-1d" else SKT_2D
    )
    config_path = workdir / "model.json"
    config_path.write_text(json.dumps(config))
    plan = {"workload": workload, "seed": seed, "scale": scale, "config": str(config_path)}
    if workload == "verdict-sweep":
        plan.update(
            params=sweep_params(seed, scale), output=str(workdir / "sweep.csv"),
            shift=seed % SWEEP_SHIFT_STEPS, replay=str(workdir / "replay.json"),
        )
    else:
        plan.update(
            output=str(workdir / "solve.json"), field=str(workdir / "solve_field.csv"),
            grid=SOLVE_GRID[workload][scale],
            offset=random.Random(f"{workload}:{seed}").random(),
        )
    return plan


def op_argv(plan: dict, index: int) -> list[str]:
    """The command line of operation ``index``.

    Every sweep operation repeats the run's grid.  Solve inputs change
    per operation along a low-discrepancy sequence started at the
    seed's offset, so every run covers the input range evenly: the
    amplitude changes the Newton iteration count of ``pattern-1d``
    (5 to 9), and runs with different seeds stay comparable.
    """
    argv = ["sweep" if plan["workload"] == "verdict-sweep" else "solve"]
    argv += ["--config", plan["config"], "--output", plan["output"]]
    if plan["workload"] == "verdict-sweep":
        for path, lo, hi, num in plan["params"]:
            argv += ["--param", f"{path}={lo!r}:{hi!r}:{num}"]
        return argv
    u = (plan["offset"] + index * GOLDEN) % 1.0
    argv += ["--grid", str(plan["grid"])]
    if plan["workload"] == "pattern-1d":
        return argv + ["--seed-mode", "1", "--amp", repr(AMP_RANGE[0] + (AMP_RANGE[1] - AMP_RANGE[0]) * u)]
    return argv + ["--seed-random", str(int(u * (1 << 31)))]


# -- checks ------------------------------------------------------------------


@dataclass
class Outcome:
    """Check result of one operation.

    ``answered`` is the share of the operation's questions with a
    definite answer: conclusive sweep points, or a converged solve.
    ``positive`` is set for solves only.
    """

    ok: bool
    answered: float = 0.0
    positive: bool | None = None
    error: str = ""
    report: dict | None = None


def _fail(error: str) -> Outcome:
    return Outcome(ok=False, error=error)


def verdict_key(verdict) -> tuple[str, str, str, str]:
    """An existence verdict as the four strings ``crossdiff sweep`` writes."""
    return (
        str(verdict.case_label),
        "" if verdict.total is None else str(verdict.total),
        "" if verdict.predicts_nonconstant is None else str(verdict.predicts_nonconstant),
        str(verdict.inconclusive),
    )


def replay_sweep(plan: dict, on_point=None, base: dict | None = None) -> list[tuple[str, ...]]:
    """Serial in-process verdicts for every sweep point.

    Calls the library through module attributes, so a tracer that
    patched them sees the calls.  ``on_point(seconds)`` receives the
    wall time of each point.  ``base`` defaults to the plan's config.
    """
    from crossdiff import index_theory, model, steady_states

    if base is None:
        base = json.loads(Path(plan["config"]).read_text())
    keys = []
    for d0, a01 in sweep_points(plan["params"]):
        config = copy.deepcopy(base)
        config["d"][0] = d0
        config["alpha"][0][1] = a01
        t0 = time.perf_counter()
        m = model.build_model(config)
        verdict = index_theory.existence_verdict(m, steady_states.find_constant_states(m))
        if on_point is not None:
            on_point(time.perf_counter() - t0)
        keys.append(verdict_key(verdict))
    return keys


def load_reference(plan: dict) -> list[tuple[str, ...]] | None:
    """Recorded verdicts for this plan's grid, or None if none were recorded."""
    if not REFERENCE_PATH.exists():
        return None
    ref = json.loads(REFERENCE_PATH.read_text())
    grid = ref["grids"].get(str(plan["shift"]))
    if grid is None or [list(p) for p in grid["params"]] != [list(p) for p in plan["params"]]:
        return None
    legend = ref["legend"]
    return [tuple(legend[ch]) for ch in grid["verdicts"]]


def check_sweep(
    plan: dict,
    rc: int,
    replay: list[tuple[str, ...]],
    reference: list[tuple[str, ...]] | None,
) -> Outcome:
    """Every row error-free, equal to the serial replay, and equal to the
    reference -- except that a reference-inconclusive point may now be
    conclusive, because an inconclusive verdict is never a wrong answer."""
    if rc != 0:
        return _fail(f"exit code {rc}")
    try:
        with open(plan["output"], newline="") as fh:
            rows = list(csv.DictReader(fh))
    except OSError as exc:
        return _fail(f"sweep CSV unreadable: {exc}")
    points = sweep_points(plan["params"])
    if len(rows) != len(points):
        return _fail(f"sweep CSV has {len(rows)} rows, expected {len(points)}")
    conclusive = 0
    for i, (row, (d0, a01)) in enumerate(zip(rows, points)):
        try:
            if (float(row["d.0"]), float(row["alpha.0.1"])) != (d0, a01):
                return _fail(f"row {i}: point {row['d.0']}, {row['alpha.0.1']} out of order")
            key = tuple(row[c] for c in VERDICT_COLUMNS)
            error = row["error"]
        except (KeyError, ValueError, TypeError) as exc:
            return _fail(f"row {i}: malformed ({exc!r})")
        if error:
            return _fail(f"row {i}: error {error!r}")
        if key != replay[i]:
            return _fail(f"row {i}: verdict {key} differs from serial replay {replay[i]}")
        if reference is not None and key != reference[i]:
            if not (reference[i][3] == "True" and key[3] == "False"):
                return _fail(f"row {i}: verdict {key} differs from reference {reference[i]}")
        conclusive += key[3] == "False"
    return Outcome(ok=True, answered=conclusive / len(points))


def check_solve(plan: dict, rc: int) -> Outcome:
    """Exit code, report JSON, one CSV row per node, the residual of the
    written field within the reported tolerance, and its classification."""
    import numpy as np
    from crossdiff import model as model_mod
    from crossdiff import pde_solver

    if rc not in (0, 3):
        return _fail(f"exit code {rc}")
    try:
        report = json.loads(Path(plan["output"]).read_text())
        result = report["result"]
        converged = bool(result["converged"])
        tolerance = float(result["tolerance"])
        classification = str(result["classification"])
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return _fail(f"solve report unreadable: {exc!r}")
    if converged != (rc == 0):
        return _fail(f"exit code {rc} disagrees with converged={converged}")
    model = model_mod.build_model(json.loads(Path(plan["config"]).read_text()))
    grid = pde_solver.make_grid(model.domain, plan["grid"])
    try:
        table = np.loadtxt(plan["field"], delimiter=",", skiprows=1, ndmin=2)
    except (OSError, ValueError) as exc:
        return _fail(f"field CSV unreadable: {exc}")
    if table.shape != (grid.n_nodes, grid.ndim + model.m):
        return _fail(f"field CSV has shape {table.shape}, expected {(grid.n_nodes, grid.ndim + model.m)}")
    if not np.array_equal(table[:, : grid.ndim], grid.points().reshape(-1, grid.ndim)):
        return _fail("field CSV coordinates do not match the grid")
    values = table[:, grid.ndim :].reshape(grid.shape + (model.m,))
    if not np.all(np.isfinite(values)):
        return _fail("field CSV holds non-finite values")
    recheck = pde_solver.classify_field(model, values)
    if recheck != classification:
        return _fail(f"field classifies as {recheck}, report says {classification}")
    if converged:
        residual = float(np.linalg.norm(pde_solver.discretize(model, grid).residual(values)))
        if not residual <= tolerance:
            return _fail(f"field residual {residual:.3e} exceeds reported tolerance {tolerance:.3e}")
    positive = recheck in ("nonconstant", "nontrivial-constant") and float(values.min()) > 0.0
    return Outcome(ok=True, answered=float(converged), positive=positive, report=result)
