"""End-to-end benchmark for crossdiff.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {verdict-sweep,pattern-1d,skt-2d} \
        --seed N --seconds S --trace {0,1}

The benchmark builds one workload's inputs from the seed, then runs the
workload's ``crossdiff`` command closed loop for ``--seconds``: one
guarded client process per operation (an address-space limit and a
wall-time limit), started when the previous one has ended, each
checking its operation's output.  Set-up time is measured in each of
these fresh interpreters.  It prints the metrics by name and unit, and
as its last line one JSON object: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  The traced
run writes its spans to ``perfbench/out/``.

``--scale tiny`` shrinks every workload for the smoke test.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import math
import os
import platform
import resource
import selectors
import shutil
import signal
import statistics
import subprocess
import sys
import time
from importlib.metadata import PackageNotFoundError, version
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

OP_LIMIT_S = 60.0  # wall time one client (set-up, operation, check) may take
SAMPLE_S = 0.05  # interval of the resident-memory samples
PAGE_KB = os.sysconf("SC_PAGE_SIZE") // 1024
ADDRESS_LIMIT = 2 << 30  # bytes of address space per client process

END_TO_END = {
    "setup_s": "s",
    "command_s": "s",
    "compute_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
    "answered_frac": "ratio",
}
PER_LAYER = {
    "cli.write_s": "s",
    "cli.sweep_workers": "count",
    "cli.sweep_fanout_efficiency": "ratio",
    "model.build_s": "s",
    "steady_states.enumerate_s": "s",
    "spectral.spectrum_s": "s",
    "spectral.modes_enumerated": "count",
    "index_theory.verdict_s": "s",
    "index_theory.cutoff_s": "s",
    "index_theory.mode_eigs": "count",
    "index_theory.point_ms.p50": "ms",
    "index_theory.point_ms.p99": "ms",
    "index_theory.inconclusive_points": "count",
    "pde_solver.seed_s": "s",
    "pde_solver.stage_attempts": "count",
    "pde_solver.stages_failed": "count",
    "pde_solver.newton_iterations": "count",
    "pde_solver.useful_iteration_frac": "ratio",
    "pde_solver.residual_s": "s",
    "pde_solver.residual_calls": "count",
    "pde_solver.jacobian_s": "s",
    "pde_solver.lu_factor_s": "s",
    "pde_solver.lu_factorizations": "count",
    "pde_solver.lu_fill": "count",
    "pde_solver.lu_solve_s": "s",
    "diagnostics.report_s": "s",
    "diagnostics.bmo_s": "s",
    "diagnostics.bmo_balls": "count",
    "diagnostics.other_s": "s",
    "trace.overhead_s": "s",
    "positive_frac": "ratio",
    "conclusive_frac": "ratio",
    "failed_frac": "ratio",
}
# Layers the sweep runs inside its worker processes; the traced serial
# replay measures them instead.
REPLAY_LAYERS = ("model.", "steady_states.", "spectral.", "index_theory.")

class HarnessError(RuntimeError):
    """The benchmark itself cannot run (as opposed to a failed operation)."""


class LineReader:
    """Lines of a child's stdout, each awaited with a timeout."""

    def __init__(self, stream) -> None:
        self._fd = stream.fileno()
        self._sel = selectors.DefaultSelector()
        self._sel.register(self._fd, selectors.EVENT_READ)
        self._buf = b""

    def next(self, timeout: float) -> str | None:
        """The next line, or None at end of stream; raises TimeoutError."""
        deadline = time.monotonic() + timeout
        while b"\n" not in self._buf:
            left = deadline - time.monotonic()
            if left <= 0 or not self._sel.select(left):
                raise TimeoutError
            chunk = os.read(self._fd, 1 << 16)
            if not chunk:
                return None
            self._buf += chunk
        line, self._buf = self._buf.split(b"\n", 1)
        return line.decode()

    def close(self) -> None:
        self._sel.close()


def stop(proc: subprocess.Popen) -> None:
    """Kill the child's whole session and wait until it has ended."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    deadline = time.monotonic() + 5.0
    while time.monotonic() < deadline:
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def session_rss_kb(sid: int) -> int:
    """Resident memory summed over every process of a session."""
    total = 0
    for entry in os.scandir("/proc"):
        if not entry.name.isdigit():
            continue
        try:
            with open(f"/proc/{entry.name}/stat") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        # After the command name: state, ppid, pgrp, session, ..., rss (22nd).
        if int(fields[3]) == sid:
            total += int(fields[21]) * PAGE_KB
    return total


def next_line(reader: LineReader, sid: int, peak: list[int], deadline: float) -> str | None:
    """The client's next line, sampling its session's memory into
    ``peak[0]`` while waiting; raises TimeoutError at ``deadline``."""
    while True:
        peak[0] = max(peak[0], session_rss_kb(sid))
        try:
            return reader.next(SAMPLE_S)
        except TimeoutError:
            if time.monotonic() > deadline:
                raise


def limit_address_space() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_LIMIT, ADDRESS_LIMIT))


def child_env(nproc: int) -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["CROSSDIFF_THREADS"] = str(nproc)
    return env


def environment(args: argparse.Namespace, nproc: int) -> dict:
    def pkg(name: str) -> str:
        try:
            return version(name)
        except PackageNotFoundError:
            return "absent"

    commit = "unknown"
    if (ROOT / ".git").exists():
        git = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
        )
        commit = git.stdout.strip() or commit
    return {
        "nproc": nproc,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": pkg("numpy"),
        "scipy": pkg("scipy"),
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "commit": commit,
        "workload": args.workload,
        "seed": args.seed,
    }


def run_client(mode: str, trace: int, plan_path: Path, env: dict, workdir: Path) -> dict:
    """One guarded client process: time to ``ready``, its result line,
    the peak memory of its session after ``ready``, or why it failed."""
    err_path = workdir / "client.err"
    t0 = time.perf_counter()
    deadline = time.monotonic() + OP_LIMIT_S
    with open(err_path, "wb") as err:
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "client.py"), str(plan_path), mode, str(trace)],
            stdout=subprocess.PIPE, stderr=err, env=env, cwd=workdir,
            start_new_session=True, preexec_fn=limit_address_space,
        )
    reader = LineReader(proc.stdout)
    out: dict = {"ready_s": None, "record": None, "rss_kb": 0, "error": ""}
    peak = [0]
    try:
        line = next_line(reader, proc.pid, peak, deadline)
        if line is not None and json.loads(line)["kind"] == "ready":
            out["ready_s"] = time.perf_counter() - t0
            peak = [0]
            line = next_line(reader, proc.pid, peak, deadline)
            if line is not None:
                out["record"] = json.loads(line)
    except TimeoutError:
        out["error"] = f"no result within {OP_LIMIT_S:.0f} s"
    finally:
        reader.close()
        stop(proc)
        proc.stdout.close()
    out["rss_kb"] = peak[0]
    out["took_s"] = time.perf_counter() - t0 - (out["ready_s"] or 0.0)
    if out["record"] is None:
        tail = err_path.read_text(errors="replace").strip().splitlines()[-3:]
        out["error"] = out["error"] or f"client exited with code {proc.returncode}"
        out["error"] += ": " + " | ".join(tail)
    return out


def run_operations(args, plan: dict, plan_path: Path, env: dict, workdir: Path) -> dict:
    """Closed loop: one client per operation, the next started when the
    previous has ended, until ``--seconds`` are used up."""
    state: dict = {"ops": [], "setup": [], "replay": None}
    if plan["workload"] == "verdict-sweep":
        out = run_client("replay", args.trace, plan_path, env, workdir)
        if out["record"] is None:
            raise HarnessError(f"sweep replay failed: {out['error']}")
        state["replay"] = out["record"]
    min_ops = 2 if args.trace else 1
    walls: list[float] = []
    start = time.monotonic()
    while len(walls) < min_ops or time.monotonic() - start + statistics.median(walls) <= args.seconds:
        i = len(walls)
        traced = bool(args.trace) and i % 2 == 1
        t0 = time.monotonic()
        out = run_client(str(i), int(traced), plan_path, env, workdir)
        walls.append(time.monotonic() - t0)
        if out["ready_s"] is not None:
            state["setup"].append(out["ready_s"])
        record = out["record"] or {
            "i": i, "traced": traced, "command_s": out["took_s"], "compute_s": None,
            "ok": False, "answered": 0.0, "positive": None, "error": out["error"],
        }
        record["rss_kb"] = out["rss_kb"]
        state["ops"].append(record)
    if not state["setup"]:
        raise HarnessError(f"no client got ready: {state['ops'][-1]['error']}")
    return state


def quantile(values: list[float], q: float) -> float:
    """Nearest-rank quantile."""
    ordered = sorted(values)
    return ordered[max(math.ceil(q * len(ordered)) - 1, 0)]


def end_to_end(state: dict) -> dict[str, float]:
    ops = state["ops"]
    plain = [r for r in ops if not r["traced"]]
    timed = [r for r in plain if r["ok"]] or plain
    return {
        "setup_s": statistics.median(state["setup"]),
        "command_s": statistics.median(r["command_s"] for r in timed),
        "compute_s": statistics.median(
            r["command_s"] if r["compute_s"] is None else r["compute_s"] for r in timed
        ),
        "peak_rss_mb": statistics.median(r["rss_kb"] for r in timed) / 1024.0,
        "ok_frac": sum(r["ok"] for r in ops) / len(ops),
        "answered_frac": sum(r["answered"] for r in ops) / len(ops),
    }


def per_layer(state: dict, workload: str) -> dict[str, float]:
    ops = state["ops"]
    traced = [r for r in ops if r.get("layers")]
    plain = [r for r in ops if not r["traced"]]
    metrics = {name: 0.0 for name in PER_LAYER}
    for name in metrics:
        values = [r["layers"][name] for r in traced if name in r["layers"]]
        if values:
            metrics[name] = statistics.median(values)
    replay = state["replay"]
    if replay is not None:
        for name, value in replay["layers"].items():
            if name.startswith(REPLAY_LAYERS):
                metrics[name] = value
        point_ms = [1e3 * s for s in replay["point_s"]]
        metrics["index_theory.point_ms.p50"] = quantile(point_ms, 0.50)
        metrics["index_theory.point_ms.p99"] = quantile(point_ms, 0.99)
        metrics["index_theory.inconclusive_points"] = replay["inconclusive"]
        fanouts = [r for r in ops if r.get("workers")]
        if fanouts:
            workers = statistics.median(r["workers"] for r in fanouts)
            wall = statistics.median(r["compute_s"] for r in fanouts)
            metrics["cli.sweep_workers"] = workers
            metrics["cli.sweep_fanout_efficiency"] = sum(replay["point_s"]) / (workers * wall)
    if traced and plain:
        metrics["trace.overhead_s"] = statistics.median(r["command_s"] for r in traced) - statistics.median(
            r["command_s"] for r in plain
        )
    metrics.update(quality(ops, workload))
    return metrics


def quality(ops: list[dict], workload: str) -> dict[str, float]:
    """Failed operations, and the answer quality of the workload's kind."""
    out = {"failed_frac": sum(not r["ok"] for r in ops) / len(ops)}
    if workload == "verdict-sweep":
        out["conclusive_frac"] = sum(r["answered"] for r in ops) / len(ops)
    else:
        out["positive_frac"] = sum(bool(r["positive"]) for r in ops) / len(ops)
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description="crossdiff end-to-end benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=workloads.SCALES, default="full")
    args = parser.parse_args()

    if not (ROOT / "src" / "crossdiff" / "cli.py").is_file():
        print(f"error: no crossdiff sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    env = child_env(nproc)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        plan = workloads.make_plan(args.workload, args.seed, args.scale, workdir)
        plan_path = workdir / "plan.json"
        plan_path.write_text(json.dumps(plan))
        record = environment(args, nproc)
        state = run_operations(args, plan, plan_path, env, workdir)
    except HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    ops = state["ops"]
    record["kernel_backend"] = next((r["backend"] for r in ops if "backend" in r), "unknown")
    record["untraced_targets"] = sorted({m for r in ops for m in r.get("missing", ())})
    failed = [r for r in ops if not r["ok"]]
    e2e = end_to_end(state)
    layers = per_layer(state, args.workload) if args.trace else {}
    print(f"env {json.dumps(record, sort_keys=True)}")
    print(
        f"ops {len(ops)} attempted, {len(failed)} failed, "
        f"{sum(not r['traced'] for r in ops)} untraced, {len(state['setup'])} set-up samples"
    )
    for r in failed[:5]:
        print(f"failed op {r['i']}: {r['error']}")
    times = sorted(r["command_s"] for r in ops if not r["traced"])
    print("command_s over untraced ops: min %.4g, median %.4g, max %.4g" % (times[0], statistics.median(times), times[-1]))
    shown = {**e2e, **quality(ops, args.workload), **layers}
    for name, value in shown.items():
        print(f"{name:<36} {value:>14.6g} {END_TO_END.get(name) or PER_LAYER[name]}")
    if args.trace:
        trace_out = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        spans = {str(r["i"]): r.pop("spans") for r in ops if "spans" in r}
        if state["replay"] is not None:
            spans["replay"] = state["replay"].pop("spans")
        trace_out.write_text(json.dumps({"env": record, "plan": plan, "ops": ops, "spans": spans}))
        print(f"spans written to {trace_out.relative_to(ROOT)}")
    metrics = layers if args.trace else e2e
    units = PER_LAYER if args.trace else END_TO_END
    result = {
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {name: {"value": float(value), "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
