"""Command-line front end: analyze, solve, sweep, and selftest.

Reports are JSON documents with a ``schema_version`` field, written
byte-stably (sorted keys, fixed layout, no timestamps) so repeated runs
with identical inputs produce identical files.  Wall-clock timings are
printed to standard output only.  Exit codes partition outcomes:
0 success, 1 input error, 2 inconclusive analysis (or failed selftest),
3 solver failure.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import gc
import itertools
import json
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from typing import Any, Sequence

import numpy as np

from . import __version__
from .diagnostics import ball_radii, diagnostics_report
from .index_theory import (
    ExistenceVerdict,
    ModeDecisions,
    existence_verdict,
    existence_verdicts,
)
from .model import ConfigError, Model, ModelError, build_model, validate_structure
from .pde_solver import (
    ConvergenceError,
    DiscreteField,
    SolveResult,
    constant_field,
    continuation_solve,
    make_grid,
    newton_solve,
    random_field,
    seed_from_mode,
)
from .steady_states import StateEnumeration, find_constant_states

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_INCONCLUSIVE = 2
EXIT_SOLVER = 3


# The keys of one mode's record in a report, in the order _jsonify zips its fields.
_MODE_RECORD = (
    "lambda_hat", "M", "mode_indices", "A_i", "eigs", "N_i", "margin", "degenerate",
    "warnings",
)


def _jsonify(obj: Any) -> Any:
    """Recursively convert reports to JSON-compatible structures.

    Arrays become nested lists, complex numbers ``[re, im]`` pairs, and
    dataclasses dictionaries keyed by field name.  A state's
    :class:`ModeDecisions` becomes one record per mode, whose ``eigs``
    are plain floats when every imaginary part of that row is zero.
    """
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        return obj
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (complex, np.complexfloating)):
        return [float(obj.real), float(obj.imag)]
    if isinstance(obj, np.ndarray):
        return _jsonify(obj.tolist())
    if isinstance(obj, ModeDecisions):
        modes = obj.modes
        rows = zip(
            modes.values.tolist(), modes.M.tolist(), modes.mode_indices(), obj.A_i,
            [eigs if eigs.imag.any() else eigs.real for eigs in obj.eigs],
            obj.N.tolist(), obj.margin.tolist(), obj.degenerate.tolist(), obj.warnings,
        )
        return [_jsonify(dict(zip(_MODE_RECORD, row))) for row in rows]
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: _jsonify(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {str(k): _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, StateEnumeration):
        return {
            "states": [_jsonify(s) for s in obj.states],
            "degenerate_subsets": [list(s) for s in obj.degenerate_subsets],
        }
    return str(obj)


def _write_report(path: str, report: dict) -> None:
    text = json.dumps(_jsonify(report), sort_keys=True, indent=2)
    with open(path, "w") as fh:
        fh.write(text + "\n")


def _load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            config = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed config {path!r}: {exc}") from exc
    if not isinstance(config, dict):
        raise ConfigError("config root must be a JSON object")
    return config


def _output_stem(path: str) -> str:
    root, ext = os.path.splitext(path)
    return root if ext == ".json" else path


def _verdict_summary(verdict: ExistenceVerdict) -> list[str]:
    def fmt(v: Any) -> str:
        if v is None:
            return "-"
        if isinstance(v, bool):
            return "yes" if v else "no"
        return str(v)

    lines = ["verdict"]
    rows = [
        ("case label", verdict.case_label),
        ("boundary index sum", verdict.sum_of_boundary_indices),
        (
            "nontrivial indices",
            ", ".join(fmt(ix) for _, ix in verdict.nontrivial_constant_indices) or "-",
        ),
        ("total", verdict.total),
        ("predicts nonconstant", verdict.predicts_nonconstant),
        ("inconclusive", verdict.inconclusive),
    ]
    if verdict.cause:
        rows.append(("cause", verdict.cause))
    width = max(len(name) for name, _ in rows)
    for name, value in rows:
        lines.append(f"  {name:<{width}}  {fmt(value)}")
    return lines


def _analysis_report(config: dict) -> tuple[dict, ExistenceVerdict | None]:
    model = build_model(config)
    states = find_constant_states(model)
    peak = 1.0
    for state in states:
        if state.u_star.size:
            peak = max(peak, float(state.u_star.max()))
    box = [(0.0, 2.0 * peak)] * model.m
    structure = validate_structure(model, box)

    report: dict[str, Any] = {
        "schema_version": SCHEMA_VERSION,
        "version": __version__,
        "command": "analyze",
        "model": config,
        "structure": structure,
        "states": states,
    }
    if model.bc.kind != "neumann":
        report["notice"] = (
            "index analysis requires zero-flux boundary conditions; "
            "only constant states are reported"
        )
        report["verdict"] = None
        return report, None

    verdict = existence_verdict(model, states)
    report["stability"] = [b.stability for b in verdict.boundary]
    report["boundary_indices"] = [
        {"state": b.state, "index": b.index, "note": b.note} for b in verdict.boundary
    ]
    report["index_reports"] = verdict.index_reports
    report["verdict"] = verdict
    return report, verdict


def cmd_analyze(args: argparse.Namespace) -> int:
    t_start = time.perf_counter()
    config = _load_config(args.config)
    t0 = time.perf_counter()
    report, verdict = _analysis_report(config)
    elapsed = time.perf_counter() - t0
    _write_report(args.output, report)
    if verdict is None:
        print(report["notice"])
    else:
        print("\n".join(_verdict_summary(verdict)))
    print(f"report written to {args.output}")
    print(f"timing analyze: {elapsed:.3f} s")
    print(f"timing total: {time.perf_counter() - t_start:.3f} s")
    if verdict is not None and verdict.inconclusive:
        return EXIT_INCONCLUSIVE
    return EXIT_OK


def _positive_state(states: StateEnumeration) -> np.ndarray | None:
    for state in states.by_classification("nontrivial"):
        if np.all(state.u_star > 0):
            return state.u_star
    return None


def _build_seed(args: argparse.Namespace, model: Model, grid) -> DiscreteField:
    chosen = [
        name
        for name, flag in (
            ("--seed-constant", args.seed_constant is not None),
            ("--seed-mode", args.seed_mode is not None),
            ("--seed-random", args.seed_random is not None),
        )
        if flag
    ]
    if len(chosen) > 1:
        raise ConfigError(f"choose one seed flag, got {', '.join(chosen)}")

    if args.seed_constant is not None:
        try:
            u0 = [float(v) for v in args.seed_constant.split(",")]
        except ValueError as exc:
            raise ConfigError(f"bad --seed-constant {args.seed_constant!r}") from exc
        if len(u0) != model.m:
            raise ConfigError(
                f"--seed-constant needs {model.m} values, got {len(u0)}"
            )
        return constant_field(grid, u0)

    u_star = _positive_state(find_constant_states(model))
    if args.seed_mode is not None:
        if u_star is None:
            raise ConfigError("no positive nontrivial constant state to perturb")
        return seed_from_mode(model, u_star, args.seed_mode, args.amp, grid)

    if args.seed_random is not None:
        if u_star is None:
            low, high = np.full(model.m, 0.1), np.full(model.m, 2.0)
        else:
            low, high = 0.5 * u_star, 1.5 * u_star
        return random_field(grid, low, high, seed=args.seed_random)

    return constant_field(grid, np.ones(model.m) if u_star is None else u_star)


def _field_csv(path: str, field: DiscreteField) -> None:
    grid = field.grid
    pts = grid.points().reshape(-1, grid.ndim)
    vals = field.values.reshape(-1, field.m)
    header = list("xy"[: grid.ndim]) + [f"u_{i + 1}" for i in range(field.m)]
    data = np.hstack([pts, vals])
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([repr(v) for v in row] for row in data.tolist())


def _solve_summary(result: SolveResult, diag) -> list[str]:
    lines = ["solve"]
    rows = [
        ("converged", "yes" if result.converged else "no"),
        ("classification", result.classification),
        ("residual norm", f"{result.residual_norm:.6e}"),
        ("iterations", str(result.iterations)),
        ("factorizations", str(result.factorizations)),
        ("homotopy steps", str(len(result.t_path))),
        ("grad_l2", f"{diag.grad_l2:.6e}"),
        ("bmo sup", f"{diag.bmo_sup:.6e}"),
    ]
    width = max(len(name) for name, _ in rows)
    for name, value in rows:
        lines.append(f"  {name:<{width}}  {value}")
    return lines


def cmd_solve(args: argparse.Namespace) -> int:
    t_start = time.perf_counter()
    config = _load_config(args.config)
    model = build_model(config)
    grid = make_grid(model.domain, args.grid)
    if not 0.0 < args.tol < np.inf:
        raise ConfigError(f"--tol must be positive and finite, got {args.tol}")
    if args.radius is not None:
        ball_radii(grid, args.radius)  # reject a bad radius before solving
    seed = _build_seed(args, model, grid)

    # Mode seeds are warm starts for the target problem and solve
    # directly: a pattern induced by cross-diffusion need not exist near
    # t = 0, and with alpha = 0 every stage after the first starts at a
    # converged field, whose tolerance tol * (1 + rn) sits near the
    # flux-cancellation floor, where the line search can stagnate.
    direct = args.no_homotopy or args.seed_mode is not None

    t0 = time.perf_counter()
    try:
        if direct:
            result = newton_solve(model, grid, seed, tol=args.tol, strict=False)
        else:
            result = continuation_solve(model, grid, seed, tol=args.tol, strict=False)
    except ConvergenceError as exc:
        result = exc.result
        if result is None:
            print(f"solver aborted: {exc}", file=sys.stderr)
            return EXIT_SOLVER
    elapsed = time.perf_counter() - t0

    t0 = time.perf_counter()
    diag = diagnostics_report(model, result.field, radius=args.radius)
    diag_elapsed = time.perf_counter() - t0
    stem = _output_stem(args.output)
    field_path = f"{stem}_field.csv"
    _field_csv(field_path, result.field)
    report = {
        "schema_version": SCHEMA_VERSION,
        "version": __version__,
        "command": "solve",
        "model": config,
        "grid": list(result.field.grid.n_cells),
        "result": {
            "converged": result.converged,
            "residual_norm": result.residual_norm,
            "iterations": result.iterations,
            "factorizations": result.factorizations,
            "t_path": list(result.t_path),
            "classification": result.classification,
            "grad_l2": result.grad_l2,
            "tolerance": result.tolerance,
            "warnings": list(result.warnings),
        },
        "diagnostics": diag,
        "field_csv": os.path.basename(field_path),
    }
    if not direct:
        # The coarse-grid answer of a grid-sequenced continuation, or
        # null when the continuation ran on one grid.
        report["result"]["refinement"] = result.refinement
    _write_report(args.output, report)
    print("\n".join(_solve_summary(result, diag)))
    print(f"report written to {args.output}")
    print(f"field written to {field_path}")
    print(f"timing solve: {elapsed:.3f} s")
    print(f"timing diagnostics: {diag_elapsed:.3f} s")
    print(f"timing total: {time.perf_counter() - t_start:.3f} s")
    return EXIT_OK if result.converged else EXIT_SOLVER


def _resolve_path(config: dict, path: str) -> tuple[str | int, ...]:
    """The keys of a dotted ``--param`` path, checked against ``config``.

    Each step is a key of a mapping or an index of a list (negative
    indices count from the end and are normalised), and the path must
    end at a number.
    """
    node: Any = config
    keys: list[str | int] = []
    for key in path.split("."):
        if isinstance(node, list):
            try:
                index = int(key)
            except ValueError:
                index = len(node)
            if not -len(node) <= index < len(node):
                break
            keys.append(index % len(node))
        elif isinstance(node, dict) and key in node:
            keys.append(key)
        else:
            break
        node = node[keys[-1]]
    else:
        if isinstance(node, (int, float)) and not isinstance(node, bool):
            return tuple(keys)
    raise ConfigError(f"--param path {path!r} does not name a numeric config entry")


def _with_value(node: Any, keys: tuple[str | int, ...], value: float) -> Any:
    """``node`` with the entry at ``keys`` replaced by ``value``; only the
    containers along the way are copied."""
    if not keys:
        return value
    copy = list(node) if isinstance(node, list) else dict(node)
    copy[keys[0]] = _with_value(node[keys[0]], keys[1:], value)
    return copy


def _parse_param(spec: str) -> tuple[str, list[float]]:
    try:
        path, rng = spec.split("=", 1)
        start, stop, num = rng.split(":")
        values = np.linspace(float(start), float(stop), int(num))
    except ValueError as exc:
        raise ConfigError(
            f"bad --param {spec!r}; expected path=start:stop:num"
        ) from exc
    if len(values) < 1:
        raise ConfigError(f"--param {spec!r} yields no values")
    return path, [float(v) for v in values]


_POINT_ERRORS = (ModelError, KeyError, IndexError, TypeError)

_ROW_COLUMNS = (
    "n_states",
    "case_label",
    "total",
    "predicts_nonconstant",
    "inconclusive",
    "cause",
    "error",
)


def _chunk_verdicts(models: list[Model]) -> list[ExistenceVerdict | Exception]:
    """Verdicts of a chunk in one pass; if the pass raises, each point
    is decided alone, so the exception lands on its own point."""
    try:
        return list(existence_verdicts(models))
    except _POINT_ERRORS as exc:
        if len(models) == 1:
            return [exc]
        return [outcome for model in models for outcome in _chunk_verdicts([model])]


def _sweep_worker(
    task: tuple[dict, list[tuple[str, tuple[str | int, ...]]], list[tuple[float, ...]]]
) -> list[dict]:
    """One chunk of sweep points: one CSV row per point, in order.

    ``task`` is the base config, the ``--param`` paths with their
    resolved keys, and the chunk's value tuples.  Each point's model is
    built from a copy of only the containers its values change, and the
    chunk is decided by one :func:`existence_verdicts` call, so the
    kinetic work runs once per distinct ``(m, r, c)`` of the chunk.  A
    point whose model cannot be built or decided gets an error row.
    """
    config, params, combos = task
    rows: list[dict] = []
    built: list[tuple[dict, Model]] = []
    for combo in combos:
        row: dict[str, Any] = {}
        point = config
        for (path, keys), value in zip(params, combo):
            row[path] = value
            point = _with_value(point, keys, value)
        rows.append(row)
        try:
            built.append((row, build_model(point)))
        except _POINT_ERRORS as exc:
            row.update(dict.fromkeys(_ROW_COLUMNS, ""), error=str(exc))
    outcomes = _chunk_verdicts([model for _, model in built])
    for (row, _), verdict in zip(built, outcomes):
        if isinstance(verdict, Exception):
            row.update(dict.fromkeys(_ROW_COLUMNS, ""), error=str(verdict))
            continue
        n_states = len(verdict.boundary) + len(verdict.nontrivial_constant_indices)
        row.update(
            {
                "n_states": n_states,
                "case_label": verdict.case_label,
                "total": "" if verdict.total is None else verdict.total,
                "predicts_nonconstant": ""
                if verdict.predicts_nonconstant is None
                else verdict.predicts_nonconstant,
                "inconclusive": verdict.inconclusive,
                "cause": verdict.cause or "",
                "error": "",
            }
        )
    return rows


def _worker_count(n_tasks: int) -> int:
    cap = os.environ.get("CROSSDIFF_THREADS", "")
    limit = os.cpu_count() or 1
    if cap.strip():
        try:
            limit = max(1, int(cap))
        except ValueError as exc:
            raise ConfigError(f"bad CROSSDIFF_THREADS {cap!r}") from exc
    return max(1, min(limit, n_tasks))


def cmd_sweep(args: argparse.Namespace) -> int:
    t_start = time.perf_counter()
    config = _load_config(args.config)
    if not args.param:
        raise ConfigError("sweep needs at least one --param path=start:stop:num")
    params: list[tuple[str, tuple[str | int, ...]]] = []
    grids: list[list[float]] = []
    for spec in args.param:
        path, values = _parse_param(spec)
        keys = _resolve_path(config, path)
        for earlier, earlier_keys in params:
            if keys == earlier_keys:
                raise ConfigError(
                    f"--param path {path!r} names the same entry as {earlier!r}"
                )
        params.append((path, keys))
        grids.append(values)
    combos = list(itertools.product(*grids))

    t0 = time.perf_counter()
    workers = _worker_count(len(combos))
    if workers == 1:
        rows = _sweep_worker((config, params, combos))
    else:
        # A few chunks per worker: one round trip and one ledger pass per
        # chunk, and still enough chunks to balance uneven points.
        size = -(-len(combos) // (4 * workers))
        chunks = [
            (config, params, combos[i : i + size]) for i in range(0, len(combos), size)
        ]
        # The workers fork with every object this process holds; frozen,
        # those objects are skipped by the workers' garbage collections.
        gc.freeze()
        try:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                rows = [row for chunk in pool.map(_sweep_worker, chunks) for row in chunk]
        finally:
            gc.unfreeze()
    elapsed = time.perf_counter() - t0

    columns = [path for path, _ in params] + list(_ROW_COLUMNS)
    with open(args.output, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=columns)
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
    print(f"swept {len(rows)} points across {len(params)} parameters")
    print(f"sweep written to {args.output}")
    print(f"timing sweep: {elapsed:.3f} s ({workers} workers)")
    print(f"timing total: {time.perf_counter() - t_start:.3f} s")
    return EXIT_OK


def cmd_selftest(args: argparse.Namespace) -> int:
    from .acceptance import run_all

    results = run_all()
    failed = 0
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        print(f"{status} criterion {res.number}: {res.name} ({res.detail})")
        failed += 0 if res.passed else 1
    print(f"{len(results) - failed}/{len(results)} criteria passed")
    return EXIT_OK if failed == 0 else EXIT_INCONCLUSIVE


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors map to the input-error exit code."""

    def error(self, message: str) -> None:  # type: ignore[override]
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="crossdiff",
        description=(
            "Analyze strongly coupled cross-diffusion systems: constant "
            "states, fixed-point indices, existence verdicts, and "
            "finite-difference solves with homotopy continuation."
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser("analyze", help="index analysis and existence verdict")
    analyze.add_argument("--config", required=True, help="model config (JSON)")
    analyze.add_argument("--output", default="crossdiff_report.json")

    solve = sub.add_parser("solve", help="nonlinear solve with continuation")
    solve.add_argument("--config", required=True, help="model config (JSON)")
    solve.add_argument("--output", default="crossdiff_solve.json")
    solve.add_argument("--grid", type=int, default=128, help="cells per axis")
    solve.add_argument("--tol", type=float, default=1e-10, help="Newton tolerance")
    solve.add_argument(
        "--no-homotopy", action="store_true", help="direct Newton on the target problem"
    )
    solve.add_argument(
        "--seed-mode", type=int, default=None, metavar="K",
        help="perturb the coexistence state along the K-th nonzero mode",
    )
    solve.add_argument(
        "--amp", type=float, default=0.1, help="mode seed amplitude"
    )
    solve.add_argument(
        "--seed-constant", default=None, metavar="V",
        help='constant seed components "v1,...,vm"',
    )
    solve.add_argument(
        "--seed-random", type=int, default=None, metavar="S",
        help="componentwise-uniform random seed with RNG seed S",
    )
    solve.add_argument(
        "--radius", type=float, default=None, help="oscillation ball radius"
    )

    sweep = sub.add_parser("sweep", help="parameter grid of analyze verdicts")
    sweep.add_argument("--config", required=True, help="base model config (JSON)")
    sweep.add_argument("--output", default="crossdiff_sweep.csv")
    sweep.add_argument(
        "--param", action="append", default=[], metavar="P",
        help="path=start:stop:num (repeatable; dotted path, list indices numeric)",
    )

    sub.add_parser("selftest", help="run the built-in acceptance suite")

    return parser


_COMMANDS = {
    "analyze": cmd_analyze,
    "solve": cmd_solve,
    "sweep": cmd_sweep,
    "selftest": cmd_selftest,
}


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except ModelError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
