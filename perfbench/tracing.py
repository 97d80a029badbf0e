"""Spans and counts at crossdiff's module boundaries, from outside ``src/``.

:class:`Tracer` replaces public functions with wrappers that record a
span ``(name, op, parent, start, end, attrs)`` per call and restores
them on :meth:`Tracer.uninstall`.  A module imports a function by name,
so each binding that callers use is patched where it lives: the CLI's
own names in ``crossdiff.cli``, the index ledger's in
``crossdiff.index_theory``, and so on.  Spans stay in memory;
:func:`layer_metrics` turns the spans of one operation into per-layer
numbers.

Two levels:

* ``probe`` patches only the solve call and the sweep fan-out, one or
  two spans per operation, which is what ``compute_s`` needs.  The
  untraced run uses it.
* ``full`` adds every layer boundary.

A target that a later version of crossdiff no longer has is skipped and
listed in :attr:`Tracer.missing`, so the benchmark keeps running.
"""

from __future__ import annotations

import functools
import importlib
import time
from concurrent.futures import ProcessPoolExecutor

# (module, attribute, span name, level); "Class.method" patches a method.
TARGETS = (
    ("crossdiff.cli", "newton_solve", "pde_solver.solve", "probe"),
    ("crossdiff.cli", "continuation_solve", "pde_solver.solve", "probe"),
    ("crossdiff.cli", "_worker_count", "cli.fanout_start", "probe"),
    ("crossdiff.cli", "_sweep_worker", "cli.point", "probe"),
    ("crossdiff.cli", "build_model", "model.build", "full"),
    ("crossdiff.cli", "find_constant_states", "steady_states.enumerate", "full"),
    ("crossdiff.cli", "existence_verdict", "index_theory.verdict", "full"),
    ("crossdiff.cli", "neumann_eigenvalues", "spectral.eigenvalues", "full"),
    ("crossdiff.cli", "negative_count", "index_theory.negative_count", "full"),
    ("crossdiff.cli", "seed_from_mode", "pde_solver.seed", "full"),
    ("crossdiff.cli", "random_field", "pde_solver.seed", "full"),
    ("crossdiff.cli", "diagnostics_report", "diagnostics.report", "full"),
    ("crossdiff.cli", "_write_report", "cli.write", "full"),
    ("crossdiff.cli", "_field_csv", "cli.write", "full"),
    ("crossdiff.model", "build_model", "model.build", "full"),
    ("crossdiff.steady_states", "find_constant_states", "steady_states.enumerate", "full"),
    ("crossdiff.index_theory", "existence_verdict", "index_theory.verdict", "full"),
    ("crossdiff.index_theory", "find_constant_states", "steady_states.enumerate", "full"),
    ("crossdiff.index_theory", "mode_cutoff", "index_theory.cutoff", "full"),
    ("crossdiff.index_theory", "negative_count", "index_theory.negative_count", "full"),
    ("crossdiff.index_theory", "spectrum_through", "spectral.through", "full"),
    ("crossdiff.spectral", "neumann_eigenvalues", "spectral.eigenvalues", "full"),
    ("crossdiff.pde_solver", "discretize", "pde_solver.discretize", "full"),
    ("crossdiff.pde_solver", "splu", "pde_solver.lu_factor", "full"),
    ("crossdiff.pde_solver", "DiscreteSystem.residual", "pde_solver.residual", "full"),
    ("crossdiff.pde_solver", "DiscreteSystem.jacobian", "pde_solver.jacobian", "full"),
    ("crossdiff.diagnostics", "bmo_seminorm", "diagnostics.bmo", "full"),
    ("crossdiff.diagnostics", "norms", "diagnostics.norms", "full"),
    ("crossdiff.diagnostics", "identity_residuals", "diagnostics.identities", "full"),
)

NAME, OP, PARENT, START, END, ATTRS = range(6)


class Tracer:
    """In-memory span recorder that patches crossdiff's module boundaries."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.missing: list[str] = []
        self.op: object = None
        self.fanout: list[float] = []  # [start, end] of the current sweep fan-out
        self.fill_recorded = False
        self.workers = 0  # sweep worker count of the current operation
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def begin(self, name: str, attrs: dict | None = None) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, self.op, parent, time.perf_counter(), None, attrs or {}])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def end(self, idx: int) -> None:
        self.spans[idx][END] = time.perf_counter()
        self._stack.pop()

    def call(self, name: str, fn, args, kwargs, attrs: dict | None = None):
        idx = self.begin(name, attrs)
        try:
            return fn(*args, **kwargs)
        finally:
            self.end(idx)

    # -- patching ------------------------------------------------------------

    def install(self, level: str) -> None:
        """Patch every target of ``level`` (``probe`` or ``full``)."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        levels = ("probe",) if level == "probe" else ("probe", "full")
        for module_name, attr, name, lvl in TARGETS:
            if lvl not in levels:
                continue
            owner = importlib.import_module(module_name)
            *cls, attr_name = attr.split(".")
            if cls:
                owner = getattr(owner, cls[0], None)
            original = owner.__dict__.get(attr_name) if owner is not None else None
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            self._patch(owner, attr_name, self._wrapper(name, original, method=bool(cls)))
        cli = importlib.import_module("crossdiff.cli")
        if cli.__dict__.get("ProcessPoolExecutor") is ProcessPoolExecutor:
            self._patch(cli, "ProcessPoolExecutor", self._timed_pool())

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def _wrapper(self, name: str, fn, method: bool):
        tracer = self
        if name == "cli.fanout_start":

            @functools.wraps(fn)
            def mark_start(*args, **kwargs):
                tracer.fanout[:] = [time.perf_counter()]
                tracer.workers = fn(*args, **kwargs)
                return tracer.workers

            return mark_start
        if name == "cli.point":

            @functools.wraps(fn)
            def serial_point(*args, **kwargs):
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer.fanout[1:] = [time.perf_counter()]

            return serial_point
        if name == "pde_solver.lu_factor":

            @functools.wraps(fn)
            def lu_factor(*args, **kwargs):
                idx = tracer.begin(name)
                try:
                    lu = fn(*args, **kwargs)
                finally:
                    tracer.end(idx)
                return _TracedLU(lu, tracer, idx)

            return lu_factor
        attrs_of = _ATTRS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            attrs = attrs_of(args[1:] if method else args, kwargs) if attrs_of else None
            return tracer.call(name, fn, args, kwargs, attrs)

        return wrapper

    def _timed_pool(self):
        tracer = self

        class TimedPool(ProcessPoolExecutor):
            def __exit__(self, *exc):
                try:
                    return super().__exit__(*exc)
                finally:
                    tracer.fanout[1:] = [time.perf_counter()]

        return TimedPool


class _TracedLU:
    """``splu`` result whose ``solve`` calls are spans; records the fill
    of the tracer's first factorization."""

    def __init__(self, lu, tracer: Tracer, idx: int) -> None:
        self._lu = lu
        self._tracer = tracer
        if not tracer.fill_recorded:
            tracer.fill_recorded = True
            tracer.spans[idx][ATTRS] = {"fill": int(lu.L.nnz + lu.U.nnz)}

    def solve(self, *args, **kwargs):
        return self._tracer.call("pde_solver.lu_solve", self._lu.solve, args, kwargs)

    def __getattr__(self, name):
        return getattr(self._lu, name)


def _eigen_attrs(args, kwargs) -> dict:
    count = kwargs.get("count", args[1] if len(args) > 1 else 0)
    return {"modes": int(count)}


def _bmo_attrs(args, kwargs) -> dict:
    # Balls scanned: every node is a center, for radii 2h, 4h, ... up to
    # ``radius`` plus ``radius`` itself when it is not on that ladder.
    field = args[0] if args else kwargs["field"]
    radius = float(args[1] if len(args) > 1 else kwargs["radius"])
    h = max(field.grid.h)
    n = max(int(radius / (2.0 * h)), 0)
    extra = n == 0 or radius - 2.0 * h * n > 1e-12 * max(1.0, radius)
    return {"balls": field.grid.n_nodes * (n + int(extra))}


_ATTRS = {"spectral.eigenvalues": _eigen_attrs, "diagnostics.bmo": _bmo_attrs}


# -- aggregation -------------------------------------------------------------


def _under(spans: list[list], idx: int, name: str) -> bool:
    parent = spans[idx][PARENT]
    while parent is not None:
        if spans[parent][NAME] == name:
            return True
        parent = spans[parent][PARENT]
    return False


def _outermost(spans: list[list], idx: int, prefix: str) -> bool:
    parent = spans[idx][PARENT]
    return parent is None or not spans[parent][NAME].startswith(prefix)


def layer_metrics(spans: list[list], op) -> dict[str, float]:
    """Per-layer time and counts of one operation (or replay)."""
    mine = [i for i, s in enumerate(spans) if s[OP] == op and s[END] is not None]

    def total(name: str, where=lambda i: True) -> float:
        return sum(spans[i][END] - spans[i][START] for i in mine if spans[i][NAME] == name and where(i))

    def count(name: str, where=lambda i: True) -> int:
        return sum(1 for i in mine if spans[i][NAME] == name and where(i))

    def in_solve(i: int) -> bool:
        return _under(spans, i, "pde_solver.solve")

    def in_report(i: int) -> bool:
        return _under(spans, i, "diagnostics.report")

    spectral = [i for i in mine if spans[i][NAME].startswith("spectral.")]
    fills = [spans[i][ATTRS]["fill"] for i in mine if "fill" in spans[i][ATTRS]]
    report_s = total("diagnostics.report")
    bmo_s = total("diagnostics.bmo", in_report)
    verdict_spectral = sum(
        spans[i][END] - spans[i][START]
        for i in spectral
        if _outermost(spans, i, "spectral.") and _under(spans, i, "index_theory.verdict")
    )
    cutoff_spectral = sum(
        spans[i][END] - spans[i][START]
        for i in spectral
        if _outermost(spans, i, "spectral.") and _under(spans, i, "index_theory.cutoff")
    )
    return {
        "cli.write_s": total("cli.write"),
        "model.build_s": total("model.build"),
        "steady_states.enumerate_s": total("steady_states.enumerate"),
        "spectral.spectrum_s": sum(
            spans[i][END] - spans[i][START] for i in spectral if _outermost(spans, i, "spectral.")
        ),
        "spectral.modes_enumerated": sum(spans[i][ATTRS].get("modes", 0) for i in spectral),
        # Index-ledger self time: the verdict minus the spectra it asked for.
        "index_theory.verdict_s": total("index_theory.verdict") - verdict_spectral,
        "index_theory.cutoff_s": total("index_theory.cutoff") - cutoff_spectral,
        "index_theory.mode_eigs": count("index_theory.negative_count"),
        "pde_solver.seed_s": total("pde_solver.seed"),
        "pde_solver.stage_attempts": count("pde_solver.discretize", in_solve),
        "pde_solver.newton_iterations": count("pde_solver.jacobian", in_solve),
        "pde_solver.residual_s": total("pde_solver.residual", in_solve),
        "pde_solver.residual_calls": count("pde_solver.residual", in_solve),
        "pde_solver.jacobian_s": total("pde_solver.jacobian", in_solve),
        "pde_solver.lu_factor_s": total("pde_solver.lu_factor", in_solve),
        "pde_solver.lu_factorizations": count("pde_solver.lu_factor", in_solve),
        "pde_solver.lu_fill": max(fills, default=0),
        "pde_solver.lu_solve_s": total("pde_solver.lu_solve", in_solve),
        "diagnostics.report_s": report_s,
        "diagnostics.bmo_s": bmo_s,
        "diagnostics.bmo_balls": sum(
            spans[i][ATTRS].get("balls", 0) for i in mine if spans[i][NAME] == "diagnostics.bmo" and in_report(i)
        ),
        "diagnostics.other_s": report_s - bmo_s,
    }


def solve_span(spans: list[list], op) -> float | None:
    """Wall time of the operation's Newton/continuation call, if any."""
    times = [s[END] - s[START] for s in spans if s[OP] == op and s[NAME] == "pde_solver.solve" and s[END]]
    return sum(times) if times else None
