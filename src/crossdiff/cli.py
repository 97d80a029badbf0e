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
import math
import os
import sys
import time
from typing import Any, Sequence

import numpy as np

from . import __version__
from .diagnostics import ball_radii, diagnostics_report
from .index_theory import ExistenceVerdict, existence_verdict, verdict_table
from .model import (
    ConfigError,
    Model,
    ModelBatch,
    ModelError,
    build_model,
    replace_entries,
    validate_structure,
)
from .pde_solver import (
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


def _jsonify(obj: Any) -> Any:
    """Recursively convert reports to JSON-compatible structures.

    Arrays become nested lists (a record array, such as an index
    report's ``roots``, one dictionary per record), dataclasses
    dictionaries keyed by field name, and non-finite floats ``null``,
    which strict JSON readers accept.
    """
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, (float, np.floating)):
        return float(obj) if math.isfinite(obj) else None
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        if obj.dtype.names:
            return [_jsonify(dict(zip(obj.dtype.names, row))) for row in obj.tolist()]
        return _jsonify(obj.tolist())
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
    text = json.dumps(_jsonify(report), sort_keys=True, indent=2, allow_nan=False)
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


def _check_output_dir(*paths: str) -> None:
    """Reject output paths in a directory that does not exist, or that
    are themselves directories, before the command does any work or
    opens any file."""
    for path in paths:
        directory = os.path.dirname(path) or os.curdir
        if not os.path.isdir(directory):
            raise ConfigError(f"--output directory {directory!r} does not exist")
        if os.path.isdir(path):
            raise ConfigError(f"cannot write {path!r}: it is a directory")


def _output_stem(path: str) -> str:
    root, ext = os.path.splitext(path)
    return root if ext == ".json" else path


def _summary(title: str, rows: list[tuple[str, str]]) -> list[str]:
    """The stdout summary: ``title``, then one aligned name/value line
    per row."""
    width = max(len(name) for name, _ in rows)
    return [title] + [f"  {name:<{width}}  {value}" for name, value in rows]


def _verdict_summary(verdict: ExistenceVerdict) -> list[str]:
    def fmt(v: Any) -> str:
        if v is None:
            return "-"
        if isinstance(v, bool):
            return "yes" if v else "no"
        return str(v)

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
    return _summary("verdict", [(name, fmt(value)) for name, value in rows])


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
    report["verdict"] = verdict
    return report, verdict


def cmd_analyze(args: argparse.Namespace) -> int:
    t_start = time.perf_counter()
    _check_output_dir(args.output)
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
        if args.seed_random < 0:
            raise ConfigError(f"--seed-random must be >= 0, got {args.seed_random}")
        if u_star is None:
            low, high = np.full(model.m, 0.1), np.full(model.m, 2.0)
        else:
            low, high = 0.5 * u_star, 1.5 * u_star
        return random_field(grid, low, high, seed=args.seed_random)

    return constant_field(grid, np.ones(model.m) if u_star is None else u_star)


def _field_csv(path: str, field: DiscreteField) -> None:
    """The field as CSV, one row per node: the node's coordinates, then
    its values, every number as its ``repr``.

    The bytes are those of ``csv.writer``, with CRLF line ends, and the
    nodes run in ``grid.points()`` order.  Each coordinate is formatted
    once per axis value, and each value once per distinct bit pattern
    (``0.0`` and ``-0.0`` stay apart), so a constant field formats ``m``
    values, not ``m`` per node.  The formatted numbers, each followed by
    its separator, fill one object array of the nodes' columns, which is
    joined once.
    """
    grid = field.grid
    header = list("xy"[: grid.ndim]) + [f"u_{i + 1}" for i in range(field.m)]
    pieces = np.empty(grid.shape + (grid.ndim + field.m, 2), dtype=object)
    pieces[..., 1] = ","
    pieces[..., -1, 1] = "\r\n"
    for a, axis in enumerate(grid.coords):
        texts = np.array(list(map(repr, axis.tolist())), dtype=object)
        pieces[..., a, 0] = texts.reshape([-1 if b == a else 1 for b in range(grid.ndim)])
    bits = field.values.view(np.uint64)
    distinct, index = np.unique(bits, return_inverse=True)
    texts = np.array(list(map(repr, distinct.view(np.float64).tolist())), dtype=object)
    pieces[..., grid.ndim :, 0] = texts[index.reshape(bits.shape)]
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n" + "".join(pieces.ravel().tolist()))


def _solve_summary(result: SolveResult, diag) -> list[str]:
    return _summary("solve", [
        ("converged", "yes" if result.converged else "no"),
        ("classification", result.classification),
        ("residual norm", f"{result.residual_norm:.6e}"),
        ("iterations", str(result.iterations)),
        ("factorizations", str(result.factorizations)),
        ("homotopy steps", str(len(result.t_path))),
        ("grad_l2", f"{diag.grad_l2:.6e}"),
        ("bmo sup", f"{diag.bmo_sup:.6e}"),
    ])


def cmd_solve(args: argparse.Namespace) -> int:
    t_start = time.perf_counter()
    field_path = f"{_output_stem(args.output)}_field.csv"
    _check_output_dir(args.output, field_path)
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
    if direct:
        result = newton_solve(model, grid, seed, tol=args.tol)
    else:
        result = continuation_solve(model, grid, seed, tol=args.tol)
    elapsed = time.perf_counter() - t0

    t0 = time.perf_counter()
    diag = diagnostics_report(model, result.field, radius=args.radius)
    diag_elapsed = time.perf_counter() - t0
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
            "tolerance": result.tolerance,
            "warnings": list(result.warnings),
            # The coarse-grid answer of a grid-sequenced continuation;
            # null on a direct solve or a continuation on one grid.
            "refinement": result.refinement,
        },
        "diagnostics": diag,
        "field_csv": os.path.basename(field_path),
    }
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


# All but ``error`` are columns of the verdict table.
_ROW_COLUMNS = (
    "n_states",
    "case_label",
    "total",
    "predicts_nonconstant",
    "inconclusive",
    "cause",
    "error",
)
# The columns of an error row before its message.
_ERROR_ROW = ("",) * (len(_ROW_COLUMNS) - 1)


def _verdict_rows(batch: ModelBatch) -> list[tuple | Exception]:
    """The verdict columns of every batch point not in error, from one
    :func:`verdict_table`; if building it raises, each point is decided
    alone, as a one-point batch, so the exception lands on its own point."""
    try:
        table = verdict_table(batch)
    except ModelError as exc:
        points = [k for k, error in enumerate(batch.errors) if error is None]
        if len(points) == 1:
            return [exc]
        return [
            row for k in points
            for row in _verdict_rows(replace_entries(batch.model(k), (), [()]))
        ]
    return list(zip(*(getattr(table, name).tolist() for name in _ROW_COLUMNS[:-1])))


def _sweep_rows(
    config: dict,
    params: list[tuple[str, tuple[str | int, ...]]],
    grids: list[list[float]],
) -> list[tuple]:
    """One CSV row per point of the product of the ``grids``, in order,
    each a tuple in column order.

    The first point that builds is built from ``config`` with its values
    written in, by :func:`build_model`; it and every later point are
    written from that model into the stacks of one checked batch
    (:func:`replace_entries`), so ``config`` need not be valid at the
    swept entries, and no :class:`Model` is built per point.  The batch
    is decided in one :func:`verdict_table`, so the kinetic work runs
    once per distinct ``(m, r, c)``, and the rows are written from the
    table's columns.  A point whose model cannot be built or decided gets
    an error row.
    """
    keys = [k for _, k in params]
    combos = list(itertools.product(*grids))
    rows: list[tuple | Exception | str] = []
    for i, combo in enumerate(combos):
        point = config
        for point_keys, value in zip(keys, combo):
            point = _with_value(point, point_keys, value)
        try:
            base = build_model(point)
        except ModelError as exc:
            rows.append(exc)
            continue
        batch = replace_entries(base, keys, combos[i:])
        decided = iter(_verdict_rows(batch))
        rows += [error or next(decided) for error in batch.errors]
        break
    # csv.writer writes None as an empty field and a float as its str,
    # which is taken once per grid value.
    labels = itertools.product(*([str(v) for v in values] for values in grids))
    return [
        (*label, *row, "") if isinstance(row, tuple) else (*label, *_ERROR_ROW, str(row))
        for label, row in zip(labels, rows)
    ]


def cmd_sweep(args: argparse.Namespace) -> int:
    t_start = time.perf_counter()
    _check_output_dir(args.output)
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

    t0 = time.perf_counter()
    # Frozen, the objects the imports made are skipped by the collections
    # that the ledger's allocations trigger.
    gc.freeze()
    try:
        rows = _sweep_rows(config, params, grids)
    finally:
        gc.unfreeze()
    elapsed = time.perf_counter() - t0

    columns = [path for path, _ in params] + list(_ROW_COLUMNS)
    with open(args.output, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        writer.writerows(rows)
    print(f"swept {len(rows)} points across {len(params)} parameters")
    print(f"sweep written to {args.output}")
    print(f"timing sweep: {elapsed:.3f} s")
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


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every subcommand; given a ``command``, the top level
    with that subcommand alone, which parses it as the full tree does."""
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

    if command in (None, "analyze"):
        analyze = sub.add_parser("analyze", help="index analysis and existence verdict")
        analyze.add_argument("--config", required=True, help="model config (JSON)")
        analyze.add_argument("--output", default="crossdiff_report.json")

    if command in (None, "solve"):
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
            help="perturb the coexistence state along Neumann mode K >= 1 "
            "(modes counted with multiplicity, 0 the constant mode)",
        )
        solve.add_argument("--amp", type=float, default=0.1, help="mode seed amplitude")
        solve.add_argument(
            "--seed-constant", default=None, metavar="V",
            help='constant seed components "v1,...,vm"',
        )
        solve.add_argument(
            "--seed-random", type=int, default=None, metavar="S",
            help="componentwise-uniform random seed with RNG seed S",
        )
        solve.add_argument("--radius", type=float, default=None, help="oscillation ball radius")

    if command in (None, "sweep"):
        sweep = sub.add_parser("sweep", help="parameter grid of analyze verdicts")
        sweep.add_argument("--config", required=True, help="base model config (JSON)")
        sweep.add_argument("--output", default="crossdiff_sweep.csv")
        sweep.add_argument(
            "--param", action="append", default=[], metavar="P",
            help="path=start:stop:num (repeatable; dotted path, list indices numeric)",
        )

    if command in (None, "selftest"):
        sub.add_parser("selftest", help="run the built-in acceptance suite")

    return parser


_COMMANDS = {
    "analyze": cmd_analyze,
    "solve": cmd_solve,
    "sweep": cmd_sweep,
    "selftest": cmd_selftest,
}


def main(argv: Sequence[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # The top level's help, version and usage errors list every subcommand,
    # so one subcommand alone parses only an argv that opens with it.
    parser = build_parser(argv[0] if argv and argv[0] in _COMMANDS else None)
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except ModelError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
