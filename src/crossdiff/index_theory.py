"""Local fixed-point indices of constant states and existence verdicts.

At a positive constant state ``u*`` let ``p(lambda) = det(lambda A(u*) -
J(u*))``.  Its roots ``mu_j`` are the eigenvalues of ``A(u*)^{-1}
J(u*)``.  At a Neumann eigenvalue ``lambda_k > 0`` the sign of
``p(lambda_k)`` is ``(-1)^{N_k}``, where ``N_k`` counts the real negative
eigenvalues of ``d_A(u*)^{-1} (A(u*) - J(u*) / lambda_k)``; at
``lambda_0 = 0`` it is the constant mode's factor ``sign det(-J(u*))``.
The local index of a nondegenerate state is the product of
``sign p(lambda_k)`` over the Neumann modes ``k``, an eigenvalue of
multiplicity ``M`` giving ``M`` modes.  When every eigenvalue of
``d_A^{-1} A(u*)`` has a positive real part, ``det A(u*) > 0`` and
``p > 0`` past its largest real root, so only finitely many factors are
negative, and the product is

    index = (-1)^sigma,   sigma = sum_j N(mu_j)   over the real mu_j,

with ``N(mu)`` the number of Neumann eigenvalues below ``mu``, counted
with multiplicity and 0 included (Pang & Wang, J. Differential Equations
200, 2004; Lou & Ni, J. Differential Equations 131, 1996).  On an
interval ``N(mu) = ceil(L sqrt(mu) / pi)``; on a rectangle it is one such
count per lattice column.  The state is degenerate exactly when a real
root is a Neumann eigenvalue, 0 included, so the degeneracy test is each
root's distance to the nearest one, relative to the largest ``|mu_j|``,
against :data:`TOL_DEGENERATE`.  Boundary (trivial and semitrivial)
states are handled by sign criteria on the per-capita growth of the
vanishing components, and the verdict compares the total degree
against 1.

:func:`verdict_table` decides the points of one :class:`ModelBatch` in
one pass; a single model is a one-point batch.  The work that depends
only on the kinetics ``(m, r, c)`` -- constant states, boundary growth
signs, the case label and ``J(u*)`` -- is done once per distinct
kinetics.  Every (point, positive state) row of one species count is
then decided by one stacked kernel, :func:`_decide_run`: one
``eigvals`` of ``d_A^{-1} A(u*)`` (ellipticity), one ``eigvals`` of
``solve(A(u*), J(u*))`` (the roots), the counts and gaps of all roots in
closed form.  The kernel writes a table: each row's index ``(-1)^sigma``
and its root and interval records.  The verdicts, one row per point,
are sums over its ``index`` column, with causes only where inconclusive.
:class:`ExistenceVerdict` and :class:`IndexReport` objects are views of
the table, built only on request.  A failure stays with its row and
becomes the cause of that point's verdict.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
from numpy.typing import NDArray

from .model import Model, ModelBatch, ModelError, replace_entries
from .spectral import MAX_COUNT, _weyl
from .steady_states import (
    ConstantState,
    StateEnumeration,
    TOL_DEGENERATE,
    TOL_SIGN,
    find_constant_states,
)

# One record per root of p: an index report's ``roots``.
ROOT = np.dtype(
    [("mu", np.float64), ("imag", np.float64), ("real", np.bool_), ("count", np.int64),
     ("gap", np.float64)]
)
# One record per interval of lambda >= 0 where p < 0: an index report's ``negative``.
NEGATIVE = np.dtype(
    [("lo", np.float64), ("hi", np.float64), ("first_mode", np.int64), ("modes", np.int64)]
)


@dataclass(frozen=True, slots=True)
class IndexReport:
    """Local fixed-point index of a positive constant state.

    ``roots`` holds one :data:`ROOT` record per root ``mu_j`` of ``p``,
    ascending by real part, then imaginary part: ``mu`` and ``imag`` are
    its parts, ``real`` says whether it is real, ``count`` is ``N(mu_j)``
    (0 for a complex root) and ``gap`` its distance to the nearest
    Neumann eigenvalue, 0 included, over the largest ``|mu_j|``.
    ``sigma`` sums the counts.  ``negative`` holds one :data:`NEGATIVE`
    record per interval of ``lambda >= 0`` where ``p < 0``, ascending:
    its ends ``lo`` and ``hi`` (``lo`` is 0 when the interval holds the
    constant mode), the number ``first_mode`` of its first Neumann mode
    and the number of ``modes`` in it.  Modes are counted with
    multiplicity and numbered from 0, the constant mode, as
    :func:`crossdiff.spectral.mode` and ``--seed-mode K`` number them,
    so ``first_mode`` is ``N(lo)`` and the interval holds the modes
    ``first_mode`` to ``first_mode + modes - 1``.  Those modes are the
    factors -1 of the index, so their number has the parity of ``sigma``.

    ``index`` is ``(-1)^sigma`` and is only claimed when every gap
    exceeds :data:`TOL_DEGENERATE`; otherwise ``index`` is ``None`` and
    ``nondegenerate`` is false.  A state whose ``det(-J(u*))`` is
    negative gets a warning naming the constant mode's factor.
    """

    u_star: NDArray[np.float64]
    roots: NDArray
    sigma: int
    negative: NDArray
    index: int | None
    nondegenerate: bool
    warnings: tuple[str, ...] = ()


@dataclass(frozen=True)
class StabilityVerdict:
    """Sign-based transversal stability of a trivial/semitrivial state.

    ``complement_signs`` holds ``(component, g_i(state))`` for every
    vanishing component: any positive sign means the state can be
    invaded in that direction (v-unstable, local index 0); all negative
    means v-stable; a vanishing sign is degenerate.
    """

    state: ConstantState
    complement_signs: tuple[tuple[int, float], ...]
    v_class: str


def semitrivial_stability(model: Model, state: ConstantState) -> StabilityVerdict:
    """Classify a boundary constant state by the growth signs of absent species."""
    if model.bc.kind != "neumann":
        raise ModelError("stability classification is built on the Neumann problem")
    if state.classification == "nontrivial":
        raise ModelError(
            "semitrivial_stability applies to trivial/semitrivial states only"
        )
    g = model.g(state.u_star)
    complement = [i for i, b in enumerate(state.support) if not b]
    signs = tuple((i, float(g[i])) for i in complement)
    if any(abs(v) <= TOL_SIGN for _, v in signs):
        v_class = "degenerate"
    elif any(v > 0.0 for _, v in signs):
        v_class = "v-unstable"
    else:
        v_class = "v-stable"
    return StabilityVerdict(state=state, complement_signs=signs, v_class=v_class)


@dataclass(frozen=True)
class BoundaryIndex:
    """Local index attribution for one trivial/semitrivial state."""

    state: ConstantState
    stability: StabilityVerdict
    index: int | None
    note: str
    report: IndexReport | None = None


@dataclass(frozen=True)
class ExistenceVerdict:
    """Degree bookkeeping: does the constant-state index sum force more solutions?

    The total degree over the positive cone is 1; when the local indices
    of all constant states sum to anything else, a nonconstant positive
    solution must exist.  ``case_label`` names the two-species sign
    pattern (``a``/``b``/``c``) when one applies.
    """

    case_label: str
    sum_of_boundary_indices: int | None
    nontrivial_constant_indices: tuple[tuple[tuple[float, ...], int | None], ...]
    total: int | None
    predicts_nonconstant: bool | None
    assumptions: tuple[str, ...]
    inconclusive: bool
    cause: str | None
    boundary: tuple[BoundaryIndex, ...] = ()
    index_reports: tuple[IndexReport, ...] = ()


_ASSUMPTIONS = (
    "all trivial and semitrivial steady states are constant "
    "(no nonconstant boundary solutions)",
    "the enumerated constant states exhaust the constant solutions",
)


def _case_label(
    model: Model,
    enum: StateEnumeration,
) -> str:
    """Two-species sign-pattern label; 'none' when no pattern applies."""
    if model.m != 2:
        return "none"
    r1, r2 = float(model.r[0]), float(model.r[1])
    by_support = {s.support: s for s in enum}
    u1s = by_support.get((True, False))
    u2s = by_support.get((False, True))

    def g_at(state: ConstantState, i: int) -> float:
        return float(model.g(state.u_star)[i])

    if r1 > TOL_SIGN and r2 > TOL_SIGN and u1s is not None and u2s is not None:
        s21 = g_at(u1s, 1)
        s12 = g_at(u2s, 0)
        if s21 > TOL_SIGN and s12 > TOL_SIGN:
            return "a"
        if s21 < -TOL_SIGN and s12 < -TOL_SIGN:
            return "b"
        return "none"
    if r1 > TOL_SIGN and r2 < -TOL_SIGN and u1s is not None and g_at(u1s, 1) > TOL_SIGN:
        return "c"
    if r2 > TOL_SIGN and r1 < -TOL_SIGN and u2s is not None and g_at(u2s, 0) > TOL_SIGN:
        return "c"
    return "none"


def _state_label(state: ConstantState) -> str:
    """A constant state as verdict causes name it, in plain floats."""
    return f"state {tuple(float(v) for v in state.u_star)}"


# -- the kernel ---------------------------------------------------------------


def _index_precondition(model: Model, u_star: NDArray[np.float64]) -> ModelError | None:
    """Why ``u_star`` cannot carry a mode-sum index of ``model``, if it cannot."""
    if model.bc.kind != "neumann":
        return ModelError("the index mode sum is built on Neumann eigenmodes")
    if u_star.shape != (model.m,):
        return ModelError(f"u_star must have shape ({model.m},), got {u_star.shape}")
    if np.any(u_star <= 0.0):
        return ModelError(
            f"constant_state_index needs a strictly positive state, got {u_star}"
        )
    g_res = float(np.abs(model.g(u_star)).max())
    g_scale = 1.0 + float(np.abs(model.r).max())
    if g_res > 1e-8 * g_scale:
        return ModelError(
            f"u_star is not a constant steady state: max |g(u_star)| = {g_res:.3e}"
        )
    return None


class _State:
    """A positive state of a model or of a restricted subsystem, with the
    parts of its index that depend on the kinetics ``(m, r, c)`` alone.

    One ``_State`` serves every model of a batch with these kinetics.
    ``support`` lists the components of the full model the state lives
    on; ``error`` is set when the state cannot carry an index at all.
    :func:`_decide` places the state's rows, one per model, at ``start``
    of a kernel ``run``.
    """

    def __init__(
        self,
        kinetics: Model,
        u_star: NDArray[np.float64],
        support: tuple[int, ...],
        error: ModelError | None = None,
    ) -> None:
        self.u = u_star
        self.support = support
        self.error = error
        self.J = None if error is not None else kinetics.jacobian_f(u_star)
        self.run: _Run | None = None
        self.start = 0

    def failure(self, i: int) -> ModelError | None:
        """Why member ``i`` of the kinetics has no index report here, if it has none."""
        return self.error if self.error is not None else self.run.errors.get(self.start + i)

    def outcome(self, i: int) -> IndexReport | ModelError:
        """Member ``i``'s index report at this state, or why it has none."""
        failure = self.failure(i)
        return failure if failure is not None else self.run.report(self.start + i, self.u)


@dataclass(frozen=True, slots=True)
class _Run:
    """The records :func:`_decide_run` writes for its rows.

    ``errors`` holds the error of every row that failed a check and
    ``index`` every row's index, 0 where the row claims none.  Row ``k``
    of ``roots``, its ``negative`` records from ``bounds[k]`` to
    ``bounds[k + 1]`` and ``det_J[k]`` (1 where no warning needs it) make
    its report, which :meth:`report` builds on request.
    """

    errors: dict[int, ModelError]
    index: NDArray[np.int64]
    roots: NDArray
    negative: NDArray
    bounds: NDArray[np.int64]
    det_J: NDArray[np.float64]

    def report(self, k: int, u_star: NDArray[np.float64]) -> IndexReport:
        """The index report of row ``k``, a row without an error: it warns of
        the constant mode's factor when ``det(-J(u*))`` is not positive, and
        of the roots at a Neumann eigenvalue."""
        root, index = self.roots[k], int(self.index[k])
        warnings = []
        if not self.det_J[k] > 0.0:
            warnings.append(
                f"constant mode: det(-J(u_star)) = {float(self.det_J[k]):.6g} < 0 contributes "
                "a factor -1 to the index"
            )
        at_eigenvalue = root["mu"][root["gap"] <= TOL_DEGENERATE]
        if at_eigenvalue.size:
            warnings.append(
                "degenerate: root mu = " + ", ".join(f"{v:.6g}" for v in at_eigenvalue.tolist())
                + " lies at a Neumann eigenvalue; no index claimed"
            )
        return IndexReport(
            u_star=u_star,
            roots=root,
            sigma=int(root["count"].sum()),
            negative=self.negative[self.bounds[k] : self.bounds[k + 1]],
            index=index or None,
            nondegenerate=bool(index),
            warnings=tuple(warnings),
        )


def _decide_run(u: NDArray, J: NDArray, d: NDArray, alpha: NDArray, lengths: NDArray) -> _Run:
    """Decide every row of one species count ``m`` in one stacked pass.

    Row ``k`` is the state ``u[k]`` with ``J(u*) = J[k]`` of the model
    with ``d[k]`` and ``alpha[k]`` on the domain with sides
    ``lengths[k]``, every row's domain of one dimension.  A row that
    fails a check gets an error and identity or zero matrices in its
    place, so the stacked calls never see a non-finite entry.
    """
    n, m = u.shape
    live = np.ones(n, dtype=bool)
    errors: dict[int, ModelError] = {}

    def fail(bad: NDArray[np.bool_], error) -> None:
        for k in np.flatnonzero(bad & live).tolist():
            errors[k] = error(k)
        live[bad] = False

    A = u[:, :, None] * alpha
    idx = np.arange(m)
    A[:, idx, idx] += d + (u[:, None, :] @ np.swapaxes(alpha, -1, -2))[:, 0, :]

    # Ellipticity: every eigenvalue of d_A^{-1} A(u*) has a positive real
    # part.  With d_A > 0 that makes det A(u*) > 0, so p > 0 past its roots.
    with np.errstate(over="ignore", invalid="ignore"):
        M0 = A / A[:, idx, idx][:, :, None]
        if not np.isfinite(M0).all():
            fail(
                ~np.isfinite(M0).all(axis=(-2, -1)),
                lambda k: ModelError("index undefined: d_A^{-1}A(u*) is not finite"),
            )
            M0[~live] = np.eye(m)
        rho = np.linalg.eigvals(M0).real.min(axis=-1)
        if (rho <= 0.0).any():
            fail(rho <= 0.0, lambda k: ModelError(
                "index undefined: cross-diffusion is strong enough that "
                f"d_A^{{-1}}A(u*) has eigenvalue real part {rho[k]:.3e} <= 0"
            ))
        A[~live] = np.eye(m)
        E = np.linalg.solve(A, J)
        if not np.isfinite(E).all():
            fail(
                ~np.isfinite(E).all(axis=(-2, -1)),
                lambda k: ModelError("index undefined: A(u*)^{-1}J(u*) is not finite"),
            )
            E[~live] = 0.0
    # Complex numbers sort by real part, then imaginary part.
    mu = np.sort(np.linalg.eigvals(E).astype(complex), axis=-1)
    x, y = mu.real, mu.imag
    real = y == 0.0

    # N(x) is at least the volume of the lattice region below x, so
    # MAX_COUNT is decided before any lattice column is listed.
    dim = lengths.shape[1]
    volume = (np.sqrt(np.maximum(x, 0.0)) / np.pi) ** dim * lengths.prod(axis=1)[:, None]
    too_many = volume * (np.pi / 4.0 if dim == 2 else 1.0) > MAX_COUNT
    if too_many.any():
        root = x[np.arange(n), too_many.argmax(axis=1)].tolist()
        fail(too_many.any(axis=1), lambda k: ModelError(
            f"root mu={root[k]:.6g} requires too many modes: more than "
            f"{MAX_COUNT:.0e} Neumann eigenvalues lie below it"
        ))
    count, dist = _weyl(np.where(too_many, 0.0, x), lengths)
    count *= real
    scale = np.abs(mu).max(axis=-1, keepdims=True)
    gap = np.hypot(dist, y) / np.maximum(scale, np.finfo(float).tiny)
    at_eigenvalue = gap <= TOL_DEGENERATE
    degenerate = at_eigenvalue.any(axis=-1)
    sigma = count.sum(axis=-1)
    roots = np.empty((n, m), dtype=ROOT)
    roots["mu"], roots["imag"], roots["real"] = x, y, real
    roots["count"], roots["gap"] = count, gap

    # p < 0 between the real roots taken in pairs from the top, and below
    # the lowest one when their number is odd.  Sorted with complex roots
    # as -inf, each row's real roots come last; N is nondecreasing and 0
    # at complex roots, so the counts sort along with them.
    ends = np.sort(np.where(real, x, -np.inf), axis=-1)
    ends_count = np.sort(count, axis=-1)
    top = np.arange(m - 1, -1, -2)[::-1]
    hi, lo, lo_count = ends[:, top], ends[:, top - 1], ends_count[:, top - 1]
    if m % 2:
        lo[:, 0], lo_count[:, 0] = -np.inf, 0
    held = (hi > 0.0) & live[:, None]
    negative = np.empty(int(held.sum()), dtype=NEGATIVE)
    negative["lo"], negative["hi"] = np.maximum(lo[held], 0.0), hi[held]
    # The N(lo) modes below an interval are numbered 0 to N(lo) - 1, so
    # its first mode is N(lo), and 0 when it holds the constant mode.
    negative["first_mode"] = lo_count[held]
    negative["modes"] = (ends_count[:, top] - lo_count)[held]

    # p(0) = det(-J(u*)) < 0 where an interval holds 0: the constant
    # mode's warning.
    noisy = (held & (lo < 0.0)).any(axis=-1) | degenerate
    det_J = np.ones(n)
    if noisy.any():
        with np.errstate(over="ignore", invalid="ignore"):
            det_J[noisy] = np.linalg.det(-J[noisy])
    # Each row's index is (-1)^sigma; 0 marks a row that claims none.
    index = np.where(degenerate | ~live, 0, 1 - 2 * (sigma % 2))
    bounds = np.concatenate(([0], np.cumsum(held.sum(axis=-1))))
    return _Run(errors, index, roots, negative, bounds, det_J)


def _decide(groups: Sequence[tuple[tuple[NDArray, ...], Sequence[_State]]]) -> None:
    """Decide every model of each group at each of the group's states
    that can carry an index: one :func:`_decide_run` per species count
    over all of those rows, and each state placed at its rows.  A group's
    models are the rows of its ``d``, ``alpha`` and ``lengths`` stacks."""
    runs: dict[int, list[tuple]] = {}
    for (d, alpha, lengths), states in groups:
        for pos in states:
            if pos.error is None:
                n, m, idx = len(d), len(pos.u), np.asarray(pos.support)
                runs.setdefault(m, []).append((
                    pos, np.broadcast_to(pos.u, (n, m)), np.broadcast_to(pos.J, (n, m, m)),
                    d[:, idx], alpha[:, idx[:, None], idx], lengths,
                ))
    for blocks in runs.values():
        run = _decide_run(*(np.concatenate(column) for column in list(zip(*blocks))[1:]))
        start = 0
        for pos, u, *_ in blocks:
            pos.run, pos.start = run, start
            start += len(u)


# -- one item -----------------------------------------------------------------


def constant_state_index(model: Model, u_star: NDArray[np.float64]) -> IndexReport:
    """The root-count index at a positive constant state.

    Raises :class:`ModelError` when the state cannot carry one: the flux
    matrix is not elliptic there, a matrix is not finite, or a root has
    more than :data:`~crossdiff.spectral.MAX_COUNT` Neumann eigenvalues
    below it.  A degenerate state is not an error: its report claims no
    index.
    """
    u_star = np.asarray(u_star, dtype=float)
    pos = _State(model, u_star, tuple(range(model.m)), _index_precondition(model, u_star))
    _decide([((model.d[None], model.alpha[None], np.array([model.domain.lengths])), [pos])])
    report = pos.outcome(0)
    if isinstance(report, ModelError):
        raise report
    return report


# -- existence verdicts -------------------------------------------------------


class _Kinetics:
    """What existence verdicts need from the kinetics ``(m, r, c)`` alone.

    Built once per distinct kinetics of a batch: the constant states, the
    case label, every boundary index that the growth signs settle, and a
    :class:`_State` for every state whose index needs the kernel -- the
    positive states and the v-stable semitrivial ones, whose index is
    that of the restricted subsystem at its positive state.  ``members``
    lists the batch positions of the models with these kinetics.
    """

    def __init__(self, model: Model, states: StateEnumeration | None) -> None:
        if model.bc.kind != "neumann":
            raise ModelError("the existence verdict is built on the Neumann problem")
        enum = states if states is not None else find_constant_states(model)
        self.case_label = _case_label(model, enum)
        assumptions = list(_ASSUMPTIONS)
        if model.m != 2:
            assumptions.append(
                "index bookkeeping beyond two species follows the same degree "
                "argument but is not backed by the two-species case analysis"
            )
        self.assumptions = tuple(assumptions)
        self.members: list[int] = []
        self.causes: list[str] = []
        if enum.degenerate_subsets:
            self.causes.append(
                "degenerate-subset: singular interaction matrix on supports "
                f"{enum.degenerate_subsets}; enumeration may be incomplete"
            )
        # Per state that can leave a verdict inconclusive, in the order of
        # its cause: its label, the _State whose index the kernel decides
        # (None: a vanishing growth sign) and the cause when it has no index.
        self.sources: list[tuple[str, _State | None, str]] = []
        # Per boundary state, in order: its index when the growth signs
        # settle it, or else the _State of its restricted index.
        self.boundary: list[tuple[ConstantState, StabilityVerdict, BoundaryIndex | _State]] = []
        for state in enum:
            if state.classification == "nontrivial":
                continue
            sv = semitrivial_stability(model, state)
            if sv.v_class == "degenerate":
                entry: BoundaryIndex | _State = BoundaryIndex(
                    state, sv, None, "degenerate growth sign"
                )
                self.sources.append((_state_label(state), None, (
                    "growth sign vanishes within tolerance (degenerate boundary state)"
                )))
            elif sv.v_class == "v-unstable":
                entry = BoundaryIndex(state, sv, 0, "invadable: index 0")
            elif state.classification == "trivial":
                entry = BoundaryIndex(state, sv, 1, "attracting trivial state: index 1")
            else:
                sub = model.restrict(state.support_indices)
                u_sub = state.u_star[list(state.support_indices)]
                error = _index_precondition(sub, u_sub)
                entry = _State(sub, u_sub, state.support_indices, error)
                self.sources.append((_state_label(state), entry, "restricted index degenerate"))
            self.boundary.append((state, sv, entry))
        self.nontrivial: list[tuple[ConstantState, _State]] = []
        for state in enum.by_classification("nontrivial"):
            error = _index_precondition(model, state.u_star)
            pos = _State(model, state.u_star, state.support_indices, error)
            self.nontrivial.append((state, pos))
            self.sources.append((_state_label(state), pos, "degenerate mode, no index"))
        self.positive = [pos for _, pos, _ in self.sources if pos is not None]
        settled = [b.index for _, _, b in self.boundary if isinstance(b, BoundaryIndex)]
        self.settled = None if None in settled else sum(settled)


@dataclass(frozen=True)
class VerdictTable:
    """Existence verdicts of a batch as columns, row ``k`` for its ``k``-th
    point not in error: ``n_states`` counts its constant states, and the other
    columns hold the :class:`ExistenceVerdict` fields of their names.
    :meth:`verdict` builds row ``k``'s verdict on request.
    """

    n_states: NDArray[np.int64]
    case_label: NDArray[np.object_]
    total: NDArray[np.object_]
    predicts_nonconstant: NDArray[np.object_]
    inconclusive: NDArray[np.bool_]
    cause: NDArray[np.object_]
    members: list[tuple[_Kinetics, int]] = field(repr=False)

    def verdict(self, k: int) -> ExistenceVerdict:
        """Row ``k`` as an :class:`ExistenceVerdict`."""
        kinetics, i = self.members[k]
        boundary: list[BoundaryIndex] = []
        for state, sv, entry in kinetics.boundary:
            if isinstance(entry, _State):
                rep = entry.outcome(i)
                if isinstance(rep, ModelError):
                    entry = BoundaryIndex(state, sv, None, str(rep))
                elif rep.index is None:
                    entry = BoundaryIndex(state, sv, None, "restricted index degenerate", rep)
                else:
                    entry = BoundaryIndex(state, sv, rep.index, "v-stable: restricted index", rep)
            boundary.append(entry)
        nontrivial: list[tuple[tuple[float, ...], int | None]] = []
        reports: list[IndexReport] = []
        for state, pos in kinetics.nontrivial:
            rep = pos.outcome(i)
            if isinstance(rep, ModelError):
                nontrivial.append((tuple(state.u_star), None))
            else:
                reports.append(rep)
                nontrivial.append((tuple(state.u_star), rep.index))
        inconclusive = bool(self.inconclusive[k])
        return ExistenceVerdict(
            case_label=self.case_label[k],
            sum_of_boundary_indices=None if inconclusive else sum(b.index for b in boundary),
            nontrivial_constant_indices=tuple(nontrivial),
            total=self.total[k],
            predicts_nonconstant=self.predicts_nonconstant[k],
            assumptions=kinetics.assumptions,
            inconclusive=inconclusive,
            cause=self.cause[k],
            boundary=tuple(boundary),
            index_reports=tuple(reports),
        )


def verdict_table(
    batch: ModelBatch, states: Sequence[StateEnumeration] | None = None
) -> VerdictTable:
    """Existence verdicts of the points of a batch, decided in one pass.

    The rows are the points of ``batch`` not in error, with one
    :class:`Model` built per distinct kinetics ``(m, r, c)`` and none per
    point; a single model is the one-point batch
    ``replace_entries(model, (), [()])``.  ``states`` gives each row's
    constant states; without it they are enumerated once per distinct
    kinetics.  Every (point, state) pair whose index needs the kernel is
    decided by one :func:`_decide_run` per species count, and the
    verdicts are summed from its ``index`` column.  A failure at one
    state of one point becomes that row's cause.  A batch the verdict
    does not apply to (a Dirichlet problem), or with a kinetics whose
    states cannot be enumerated, raises as a whole.
    """
    points = np.flatnonzero([error is None for error in batch.errors])
    # A row's kinetics: the bytes of its r and c, side by side.
    c = batch.c[points].reshape(len(points), batch.c.shape[1] * batch.c.shape[2])
    rc = np.concatenate([batch.r[points], c], axis=1)
    keys = rc.view(np.dtype((np.void, 8 * rc.shape[1]))).ravel().tolist()
    columns = (batch.d[points], batch.alpha[points], batch.lengths[points])
    n = len(keys)
    enums: list[StateEnumeration | None] = [None] * n if states is None else list(states)
    if len(enums) != n:
        raise ModelError(
            f"states needs one enumeration per model, got {len(enums)} for {n} models"
        )
    shared: dict[object, _Kinetics] = {}
    members: list[tuple[_Kinetics, int]] = []
    for k, key in enumerate(zip(keys, map(id, enums))):
        kinetics = shared.get(key)
        if kinetics is None:
            kinetics = shared[key] = _Kinetics(batch.model(points[k]), enums[k])
        members.append((kinetics, len(kinetics.members)))
        kinetics.members.append(k)
    _decide([(tuple(column[kinetics.members] for column in columns), kinetics.positive)
             for kinetics in shared.values()])
    n_states = np.zeros(n, dtype=np.int64)
    inconclusive = np.zeros(n, dtype=bool)
    case_label, total, predicts, cause = (np.full(n, None, dtype=object) for _ in range(4))
    for kinetics in shared.values():
        rows = np.array(kinetics.members)
        sums = np.full(len(rows), kinetics.settled or 0)
        bad = np.full(len(rows), bool(kinetics.causes) or kinetics.settled is None)
        for pos in kinetics.positive:
            if pos.error is not None:
                bad[:] = True
                continue
            index = pos.run.index[pos.start : pos.start + len(rows)]
            sums += index
            bad |= index == 0
        n_states[rows] = len(kinetics.boundary) + len(kinetics.nontrivial)
        case_label[rows] = kinetics.case_label
        total[rows] = np.where(bad, None, sums)
        predicts[rows] = np.where(bad, None, sums != 1)
        inconclusive[rows] = bad
        # Causes, for inconclusive rows only: the kinetics', then the
        # boundary states' in order, then the nontrivial states'.
        for i in np.flatnonzero(bad).tolist():
            causes = list(kinetics.causes)
            for label, pos, text in kinetics.sources:
                failure = None if pos is None else pos.failure(i)
                if failure is not None:
                    causes.append(f"{label}: {failure}")
                elif pos is None or not pos.run.index[pos.start + i]:
                    causes.append(f"{label}: {text}")
            cause[rows[i]] = "; ".join(causes)
    return VerdictTable(n_states, case_label, total, predicts, inconclusive, cause, members)


def existence_verdict(
    model: Model, states: StateEnumeration | None = None
) -> ExistenceVerdict:
    """Sum local indices over all constant states and compare against 1:
    row 0 of the table of the one-point batch of ``model``."""
    table = verdict_table(replace_entries(model, (), [()]), None if states is None else [states])
    return table.verdict(0)
