"""Benchmark client: one guarded process per operation.

``run.py`` starts this script once per operation, in a fresh
interpreter with an address-space limit, and holds it to a wall-time
limit.  The client imports ``crossdiff.cli`` and loads the config,
prints ``ready`` (the end of set-up), runs one ``crossdiff.cli.main``
call, checks its output and prints one JSON line with the result:

    python3 perfbench/client.py PLAN.json OP_INDEX|replay TRACE(0|1)

A fresh process per operation matters for ``skt-2d``: its failed
continuation stage diverges, so last-bit floating-point differences
between processes change the LU fill, the time and the memory of that
stage.  One process per operation samples that variation instead of
repeating one process's draw.

With trace 1 the operation runs under the full tracer and its spans
come back in the result line.  ``replay`` instead replays every sweep
point serially in-process (sweep workers are separate processes whose
spans do not come back) and writes the verdicts the sweep checks
compare against.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time

import crossdiff.cli as cli

import tracing
import workloads


def emit(record: dict) -> None:
    sys.stdout.write(json.dumps(record) + "\n")
    sys.stdout.flush()


def kernel_backend() -> str:
    try:
        from crossdiff._kernels import get_backend
    except ImportError:  # a version without a backend switch
        return "numpy"
    return get_backend()


def solve_layers(layers: dict, report: dict | None) -> dict:
    """Stage failures and useful Newton work, from the report's counts."""
    attempts = layers["pde_solver.stage_attempts"]
    newton = layers["pde_solver.newton_iterations"]
    if report is None:
        return {"pde_solver.stages_failed": 0, "pde_solver.useful_iteration_frac": 0.0}
    path = report.get("sigma_path", [])
    # A failed direct solve still lists sigma = 1 in its path.
    done = len(path) if report.get("converged") else sum(1 for s in path if s < 1.0)
    return {
        "pde_solver.stages_failed": max(attempts - done, 0),
        "pde_solver.useful_iteration_frac": report.get("iterations", 0) / newton if newton else 0.0,
    }


def replay(plan: dict, trace: bool) -> None:
    tracer = tracing.Tracer()
    tracer.op = "replay"
    point_s: list[float] = []
    if trace:
        tracer.install("full")
    try:
        keys = workloads.replay_sweep(plan, point_s.append)
    finally:
        tracer.uninstall()
    with open(plan["replay"], "w") as fh:
        json.dump(keys, fh)
    emit(
        {
            "kind": "replay",
            "point_s": point_s,
            "inconclusive": sum(key[3] == "True" for key in keys),
            "layers": tracing.layer_metrics(tracer.spans, "replay") if trace else {},
            "spans": tracer.spans,
        }
    )


def operation(plan: dict, index: int, traced: bool) -> None:
    sweep = plan["workload"] == "verdict-sweep"
    tracer = tracing.Tracer()
    tracer.op = index
    tracer.install("full" if traced else "probe")
    error = ""
    rc = None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(workloads.op_argv(plan, index))
    except Exception as exc:  # an operation that raises is a failed operation
        error = f"raised {type(exc).__name__}: {exc}"
    t1 = time.perf_counter()
    tracer.uninstall()

    record = {
        "kind": "op", "i": index, "traced": traced, "command_s": t1 - t0,
        "missing": tracer.missing, "backend": kernel_backend(),
    }
    fanout = len(tracer.fanout) == 2
    if sweep and fanout:
        record["compute_s"] = tracer.fanout[1] - tracer.fanout[0]
        record["workers"] = tracer.workers
    else:
        record["compute_s"] = tracing.solve_span(tracer.spans, index)
    if rc is None:
        outcome = workloads.Outcome(ok=False, error=error)
    elif sweep:
        with open(plan["replay"]) as fh:
            replayed = [tuple(key) for key in json.load(fh)]
        outcome = workloads.check_sweep(plan, rc, replayed, workloads.load_reference(plan))
    else:
        outcome = workloads.check_solve(plan, rc)
    record.update(ok=outcome.ok, answered=outcome.answered, positive=outcome.positive, error=outcome.error)
    if traced:
        layers = tracing.layer_metrics(tracer.spans, index)
        if sweep and fanout:
            layers["cli.write_s"] = t1 - tracer.fanout[1]
        elif not sweep:
            layers.update(solve_layers(layers, outcome.report))
        record["layers"] = layers
        record["spans"] = tracer.spans
    emit(record)


def main() -> None:
    plan_path, mode, trace = sys.argv[1], sys.argv[2], sys.argv[3] == "1"
    with open(plan_path) as fh:
        plan = json.load(fh)
    load = getattr(cli, "_load_config", None)
    load(plan["config"]) if load else json.loads(open(plan["config"]).read())
    emit({"kind": "ready"})
    if mode == "replay":
        replay(plan, trace)
    else:
        operation(plan, int(mode), trace)


if __name__ == "__main__":
    main()
