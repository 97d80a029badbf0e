"""Local fixed-point indices of constant states and existence verdicts.

At a nondegenerate positive constant state the local index is
``sign det(-J(u*)) * (-1)^gamma`` with ``gamma = sum_i N_i M_i`` over the
nonzero Neumann modes: ``N_i`` counts the real negative eigenvalues of
``d_A(u*)^{-1} (A(u*) - lambda_i^{-1} J(u*))`` and ``M_i`` is the
eigenvalue multiplicity.  The sign is the constant mode's factor, the
determinant ``det(lambda A(u*) - J(u*))`` at ``lambda = 0``.  A
resolvent bound from the eigenvalues of ``d_A(u*)^{-1} A(u*)`` and its
departure from normality certifies that all modes beyond a finite
cutoff contribute nothing.  Boundary (trivial and
semitrivial) states are handled by sign criteria on the per-capita
growth of the vanishing components, and the verdict compares the total
degree against 1.

:func:`existence_verdicts` decides a batch of models in one pass.  The
work that depends only on the kinetics ``(m, r, c)`` -- constant states,
boundary growth signs, the case label and ``J(u*)`` -- is done once per
distinct kinetics.  The work that depends on ``d``, ``alpha`` or the
domain runs in stages over the arrays of a :class:`_Batch`, row ``k``
for (model, positive state) item ``k``, and over its :class:`_Group` of
each species count, whose matrices stack:

* :func:`_certify`: the cutoff certificate, one ``eigvals`` over
  ``d_A^{-1} A(u*)``;
* :func:`_spectra`: the spectrum of every distinct domain, enumerated
  once through the largest bound among its items that pass the size
  limit, which is bisected over the sorted bounds; each item takes its
  prefix;
* :func:`_decide`: one stack of every item's mode matrices and one
  :func:`negative_counts` call;
* :func:`_cutoff` and :func:`_nondegeneracy`: the modes past each
  item's cutoff, by a row mask, and one stacked ``det``;
* :func:`_reports`: overflow, warnings and ``gamma`` by row masks and
  one ``reduceat`` per quantity over the items' runs of rows, then each
  item's :class:`IndexReport` in one step.

Python loops over modes only to write a report's warnings, for the items
that have any.  A failure stays with its item and becomes the cause of
that model's verdict.  :func:`existence_verdict` and
:func:`constant_state_index` run the same code on one item.  A state's
per-mode counts stay arrays from the stacked ``eigvals`` to its
:class:`IndexReport`: one :class:`ModeDecisions` per state.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

import numpy as np
from numpy.typing import NDArray

from .model import Domain, Model, ModelError
from .spectral import ModeSpectrum, lattice_edge, spectrum_through
from .steady_states import (
    ConstantState,
    StateEnumeration,
    TOL_SIGN,
    find_constant_states,
)

TOL_DEGENERATE = 1e-8
SCAN_EXTRA = 3
# One record of the determinant test per spectrum value: an index
# report's ``certificate["nondegeneracy"]``.
NONDEGENERACY = np.dtype(
    [("lambda_hat", np.float64), ("det", np.float64), ("scale", np.float64), ("ok", np.bool_)]
)


class CutoffError(ModelError):
    """The mode cutoff cannot be certified for this state."""


class NegativeCounts(NamedTuple):
    """Counts of negative real eigenvalues over a stack of matrices.

    ``N`` counts with algebraic multiplicity; complex-conjugate pairs are
    excluded (they shift any consistent count by an even amount and so
    cannot change the parity).  ``margin`` is the smallest ``|Re|`` over
    each matrix's eigenvalues; when it falls below the degeneracy
    tolerance the mode is undecidable and ``degenerate`` is set.  Row
    ``k`` of each array, and ``warnings[k]``, belong to matrix ``k``.
    """

    N: NDArray[np.intp]
    eigs: NDArray[np.complex128]
    margin: NDArray[np.float64]
    degenerate: NDArray[np.bool_]
    warnings: tuple[tuple[str, ...], ...]


def negative_counts(stack: NDArray[np.float64]) -> NegativeCounts:
    """Count real negative eigenvalues of every matrix of a scaled stack.

    ``stack`` holds ``d_A^{-1} A_i`` with shape ``(k, m, m)``; one 2-norm
    and one eigenvalue call cover all ``k`` matrices.  ``eigs`` holds each
    row's eigenvalues in ascending lexicographic order.  A row with
    ``N > 1`` gets a defectiveness warning for every counted eigenvalue
    whose geometric multiplicity is below its algebraic one.
    """
    M = np.asarray(stack, dtype=float)
    m = M.shape[-1]
    scales = np.maximum(np.linalg.norm(M, 2, axis=(-2, -1)), 1e-300)
    eigs = np.linalg.eigvals(M)
    eigs = np.take_along_axis(eigs, np.lexsort((eigs.imag, eigs.real), axis=-1), -1)

    real_mask = np.abs(eigs.imag) <= 1e-10 * scales[:, None]
    neg_mask = real_mask & (eigs.real < -TOL_DEGENERATE * scales[:, None])
    counts = neg_mask.sum(axis=-1)
    margins = np.abs(eigs.real).min(axis=-1)

    warnings: list[tuple[str, ...]] = [()] * len(counts)
    for k in np.flatnonzero(counts > 1).tolist():
        # Cluster the counted eigenvalues and compare geometric multiplicity.
        scale = scales[k]
        counted = np.sort(eigs[k].real[neg_mask[k]])
        clusters: list[list[float]] = [[counted[0]]]
        for v in counted[1:]:
            if v - clusters[-1][-1] <= 1e-6 * scale:
                clusters[-1].append(v)
            else:
                clusters.append([v])
        found = []
        for cluster in clusters:
            alg = len(cluster)
            if alg == 1:
                continue
            lam = float(np.mean(cluster))
            geo = m - np.linalg.matrix_rank(M[k] - lam * np.eye(m), tol=1e-8 * scale)
            if geo < alg:
                found.append(
                    f"defective eigenvalue {lam:.6g}: algebraic multiplicity "
                    f"{alg}, geometric {geo}; algebraic multiplicity counted"
                )
        warnings[k] = tuple(found)
    return NegativeCounts(
        counts, eigs, margins, margins <= TOL_DEGENERATE * scales, tuple(warnings)
    )


@dataclass(frozen=True)
class ModeDecisions:
    """The per-mode ingredients of one state's index, as arrays.

    Row ``i`` belongs to value ``i`` of ``modes``, the spectrum slice the
    ledger decided (``modes.values`` are the ``lambda_hat``, ``modes.M``
    their multiplicities): ``A_i[i] = A(u*) - J(u*) / lambda_hat_i`` and
    the count ``N[i]`` of ``d_A^{-1} A_i[i]``, with its ``eigs``,
    ``margin``, ``degenerate`` flag and ``warnings``.
    """

    modes: ModeSpectrum
    A_i: NDArray[np.float64]
    N: NDArray[np.intp]
    eigs: NDArray[np.complex128]
    margin: NDArray[np.float64]
    degenerate: NDArray[np.bool_]
    warnings: tuple[tuple[str, ...], ...]


@dataclass(frozen=True)
class IndexReport:
    """Local fixed-point index of a positive constant state.

    ``index`` is ``sign det(-J(u*)) * (-1)^gamma`` and is only claimed
    when every retained mode is decidable and the nondegeneracy
    determinant test passes; otherwise ``index`` is ``None`` and
    ``nondegenerate`` is false.  A state whose ``det(-J(u*))`` is
    negative gets a warning naming the constant mode's factor.
    ``certificate`` holds the cutoff certificate of :func:`_certify`
    (``rho``, ``departure``, ``dA_inv_J_norm``, ``bound``), the
    ``scanned_modes`` past the cutoff and the determinant test,
    ``nondegeneracy``: one :data:`NONDEGENERACY` record per spectrum
    value, the constant mode first.
    """

    u_star: NDArray[np.float64]
    mode_decisions: ModeDecisions
    L0: int
    certificate: dict
    gamma: int
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


# -- the ledger ---------------------------------------------------------------


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
    on (``None``: all of them); ``error`` is set when the state cannot
    carry an index at all.
    """

    def __init__(
        self,
        kinetics: Model,
        u_star: NDArray[np.float64],
        support: tuple[int, ...] | None = None,
        error: ModelError | None = None,
    ) -> None:
        self.u = u_star
        self.support = support
        self.error = error
        self.J = None if error is not None else kinetics.jacobian_f(u_star)


class _Item:
    """One (model, positive state) pair and what the ledger found for it:
    its ``report``, or the ``error`` of the stage that failed it."""

    __slots__ = ("d", "alpha", "domain", "state", "error", "report")

    def __init__(self, model: Model, state: _State) -> None:
        if state.support is None:
            self.d, self.alpha = model.d, model.alpha
        else:
            idx = np.asarray(state.support)
            self.d, self.alpha = model.d[idx], model.alpha[np.ix_(idx, idx)]
        self.domain = model.domain
        self.state = state
        self.error: ModelError | None = None
        self.report: IndexReport | None = None


class _Modes(NamedTuple):
    """One row per decided mode, item by item: the item ``owner``, the
    mode's catalog row ``at``, ``A(u*) - J(u*) / lambda_hat`` and the
    counts of ``d_A^{-1}`` times it."""

    owner: NDArray[np.intp]
    at: NDArray[np.intp]
    A: NDArray[np.float64]
    counts: NegativeCounts


class _Tests(NamedTuple):
    """One row per spectrum value, item by item: the item ``owner`` and
    the determinant test's :data:`NONDEGENERACY` record."""

    owner: NDArray[np.intp]
    records: NDArray


class _Catalog(NamedTuple):
    """The spectrum of every domain of a batch, by domain number (``None``
    where no item passed the size limit), with the values and the
    multiplicities of all of them concatenated."""

    spectra: list[ModeSpectrum | None]
    values: NDArray[np.float64]
    M: NDArray[np.intp]


class _Batch:
    """The undecided items of one ledger run, by species count, and their
    per-item values: row ``k`` of every array belongs to ``items[k]``.

    ``live[k]`` is cleared when a stage fails item ``k``, and a stage
    reads live rows only.  The stages fill, in order: the certificate's
    ``rho``, ``departure``, ``J_norm`` and ``bound`` (:func:`_certify`), the
    columns of ``certificate``; then ``dom``, ``first`` and ``stop``
    (:func:`_spectra`), which put item ``k``'s spectrum at catalog rows
    ``first[k]`` to ``first[k] + stop[k]`` of domain ``dom[k]``.  Each of
    ``groups`` is the run of items of one species count.
    """

    def __init__(self, items: Iterable[_Item]) -> None:
        runs: dict[int, list[_Item]] = {}
        for item in items:
            if item.error is None:
                runs.setdefault(len(item.state.u), []).append(item)
        self.items = [item for run in runs.values() for item in run]
        n = len(self.items)
        self.live = np.ones(n, dtype=bool)
        self.certificate = np.full((n, 4), np.nan)
        self.bound = self.certificate[:, 3]
        self.dom = np.zeros(n, dtype=np.intp)
        self.first = np.zeros(n, dtype=np.intp)
        self.stop = np.zeros(n, dtype=np.intp)
        ends = list(itertools.accumulate(len(run) for run in runs.values()))
        self.groups = [_Group(self, slice(a, b)) for a, b in zip([0, *ends], ends)]

    def fail(self, k: int, error: ModelError) -> None:
        self.items[k].error = error
        self.live[k] = False


class _Group:
    """The run ``rows`` of a batch's items of one species count, with their
    matrices stacked: only matrices of one size stack.

    Its per-item arrays are views of the batch's, so row ``k`` of each
    belongs to ``items[k]``.  It starts with ``A(u*)``, its diagonal
    ``dvec`` and ``J(u*)``, as :meth:`Model.A` and
    :meth:`Model.jacobian_f` give them one state at a time; the stages
    add the mode stack ``modes`` (:func:`_decide`) and the determinant
    tests ``tests`` (:func:`_nondegeneracy`).
    """

    def __init__(self, batch: _Batch, rows: slice) -> None:
        self.batch, self.offset = batch, rows.start
        self.items = items = batch.items[rows]
        self.live, self.certificate = batch.live[rows], batch.certificate[rows]
        self.rho, self.departure, self.J_norm, self.bound = self.certificate.T
        self.dom, self.first, self.stop = batch.dom[rows], batch.first[rows], batch.stop[rows]
        u = np.array([it.state.u for it in items])
        alpha = np.array([it.alpha for it in items])
        A = u[:, :, None] * alpha
        idx = np.arange(u.shape[1])
        A[:, idx, idx] += (
            np.array([it.d for it in items])
            + (u[:, None, :] @ np.swapaxes(alpha, -1, -2))[:, 0, :]
        )
        self.A, self.dvec = A, A[:, idx, idx]
        self.J = np.array([it.state.J for it in items])
        self.modes: _Modes | None = None
        self.tests: _Tests | None = None

    def fail(self, k: int, error: ModelError) -> None:
        self.batch.fail(self.offset + k, error)


def _ranges(starts: NDArray[np.intp], lengths: NDArray[np.intp]) -> NDArray[np.intp]:
    """``range(starts[k], starts[k] + lengths[k])`` for every ``k``, concatenated."""
    ends = np.cumsum(lengths)
    size = int(ends[-1]) if ends.size else 0
    return np.arange(size) + np.repeat(starts - ends + lengths, lengths)


def _fail_nonfinite(
    group: _Group, owner: NDArray[np.intp], stack: NDArray[np.float64], error
) -> NDArray[np.bool_] | None:
    """Fail every item owning a non-finite matrix of ``stack``.

    One non-finite entry makes a stacked ``eig`` raise for the whole
    stack, so those items are kept out of it.  Returns the mask of the
    rows to keep, or ``None`` when every row is finite.
    """
    bad_rows = ~np.isfinite(stack).all(axis=(-2, -1))
    if not bad_rows.any():
        return None
    bad = np.unique(owner[bad_rows])
    for k in bad.tolist():
        group.fail(k, error())
    return ~np.isin(owner, bad)


def _certify(group: _Group) -> None:
    """Cutoff certificate of every item, from eigenvalues alone.

    In a Schur form ``M0 = d_A^{-1} A(u*) = Q (D + N) Q^*`` the strictly
    upper part has ``||N||_F = departure = sqrt(||M0||_F^2 - sum |w|^2)``
    over the eigenvalues ``w`` (Henrici), so for every real ``mu <= 0``,
    ``||(M0 - mu)^{-1}||_2 <= S = sum_{k<m} departure^k / rho^{k+1}`` with
    ``rho = min Re w`` (Golub & Van Loan, section 7.2).  A mode matrix is
    ``M0 - E / lambda_hat`` with ``E = d_A^{-1} J``: past ``bound = ||E||_2
    S`` no real ``mu <= 0`` is one of its eigenvalues, so the mode counts
    nothing and ``det(lambda_hat A - J) != 0``.  One ``eigvals``, one
    Frobenius norm and one 2-norm cover a species count.
    """
    M0 = group.A / group.dvec[:, :, None]
    _fail_nonfinite(
        group, np.arange(len(group.items)), M0,
        lambda: CutoffError("cutoff uncertifiable: d_A^{-1}A(u*) is not finite"),
    )
    rows = np.flatnonzero(group.live)
    if not rows.size:
        return
    w = np.linalg.eigvals(M0[rows])
    rho = w.real.min(axis=-1)
    bad = rho <= 0.0
    if bad.any():
        for k, r in zip(rows[bad].tolist(), rho[bad].tolist()):
            group.fail(k, CutoffError(
                "cutoff uncertifiable: cross-diffusion is strong enough that "
                f"d_A^{{-1}}A(u*) has eigenvalue real part {r:.3e} <= 0"
            ))
        rows, w, rho = rows[~bad], w[~bad], rho[~bad]
        if not rows.size:
            return
    m = w.shape[-1]
    frobenius2 = (M0[rows] ** 2).sum(axis=(-2, -1))
    # Rounding in the computed eigenvalues can lift sum |w|^2 above its
    # exact value, and near normality the difference is all cancellation:
    # a slack of 8 ulps of ||M0||_F^2 per eigenvalue keeps the departure
    # from falling below that of M0.
    departure = np.sqrt(
        np.maximum(frobenius2 - (w.real**2 + w.imag**2).sum(axis=-1), 0.0)
        + 8 * m * np.finfo(float).eps * frobenius2
    )
    J_norm = np.linalg.norm(group.J[rows] / group.dvec[rows][:, :, None], 2, axis=(-2, -1))
    group.rho[rows], group.departure[rows], group.J_norm[rows] = rho, departure, J_norm
    with np.errstate(over="ignore", invalid="ignore"):
        S = ((departure / rho)[:, None] ** np.arange(m)).sum(axis=-1) / rho
        group.bound[rows] = J_norm * S


def _past_limit(domain: Domain, bounds: list[float]) -> list[tuple[int, ModelError]]:
    """The positions among the ascending ``bounds`` past the size limit of
    :func:`lattice_edge`, each with its own error.

    The limit is monotone in the bound, so a bisection finds the first
    bound past it; each bound from there on is checked on its own.
    """
    checked: dict[int, ModelError | None] = {}

    def error(i: int) -> ModelError | None:
        if i not in checked:
            try:
                lattice_edge(domain, bounds[i], SCAN_EXTRA)
                checked[i] = None
            except ModelError as exc:
                # Kept without traceback or context: their frames would hold
                # every item of the batch in a reference cycle.
                exc.__traceback__ = exc.__context__ = None
                checked[i] = exc
        return checked[i]

    lo, hi = 0, len(bounds) - 1
    if error(hi) is None:
        return []
    while lo < hi:
        mid = (lo + hi) // 2
        if error(mid) is None:
            lo = mid + 1
        else:
            hi = mid
    return [(i, exc) for i in range(hi, len(bounds)) if (exc := error(i)) is not None]


def _spectra(batch: _Batch) -> _Catalog:
    """Each live item's spectrum: the values through its bound and
    ``SCAN_EXTRA`` more.

    Every distinct domain is enumerated once, through the largest bound
    among its items that pass the size limit.  Its items are sorted by
    bound, so :func:`_past_limit` checks the limit in O(log n) calls
    plus one per item past it, and each item takes its prefix.
    """
    numbers: dict[Domain, int] = {}
    batch.dom[:] = [numbers.setdefault(it.domain, len(numbers)) for it in batch.items]
    domains = list(numbers)
    spectra: list[ModeSpectrum | None] = [None] * len(domains)
    live = np.flatnonzero(batch.live)
    order = live[np.lexsort((batch.bound[live], batch.dom[live]))]
    # Where each domain's items start and stop in ``order``.
    ordered = batch.dom[order]
    cuts = (np.flatnonzero(ordered[1:] != ordered[:-1]) + 1).tolist()
    edges = [0, *cuts, len(order)] if order.size else []
    for items in (order[a:b] for a, b in zip(edges, edges[1:])):
        d = int(batch.dom[items[0]])
        failed = _past_limit(domains[d], batch.bound[items].tolist())
        for i, exc in failed:
            batch.fail(int(items[i]), exc)
        if failed:
            items = np.delete(items, [i for i, _ in failed])
            if not items.size:
                continue
        spectrum = spectra[d] = spectrum_through(
            domains[d], batch.bound[items[-1]].item(), extra=SCAN_EXTRA
        )
        batch.stop[items] = (
            np.searchsorted(spectrum.values, batch.bound[items], side="right") + SCAN_EXTRA
        )
    sizes = np.array([0 if s is None else len(s) for s in spectra], dtype=np.intp)
    batch.first[:] = (np.cumsum(sizes) - sizes)[batch.dom]
    enumerated = [s for s in spectra if s is not None]
    return _Catalog(
        spectra,
        np.concatenate([s.values for s in enumerated] or [np.empty(0)]),
        np.concatenate([s.M for s in enumerated] or [np.empty(0, dtype=np.intp)]),
    )


def _decide(group: _Group, catalog: _Catalog) -> None:
    """Count ``N_i`` at every live item's nonzero modes: one mode stack
    and one :func:`negative_counts` call."""
    rows = np.flatnonzero(group.live)
    if not rows.size:
        return
    # Catalog row first[k] is the constant mode, 0: the modes follow it.
    n = group.stop[rows] - 1
    at = _ranges(group.first[rows] + 1, n)
    owner = np.repeat(rows, n)
    A = group.A[owner] - group.J[owner] / catalog.values[at][:, None, None]
    # Scaled here, each row by its own d_A, so one count covers all items.
    M = A / group.dvec[owner][:, :, None]
    keep = _fail_nonfinite(
        group, owner, M,
        lambda: ModelError(
            "mode matrix d_A^{-1}(A(u*) - J(u*)/lambda_hat) is not finite"
        ),
    )
    if keep is not None:
        owner, at, A, M = owner[keep], at[keep], A[keep], M[keep]
    if owner.size:
        group.modes = _Modes(owner, at, A, negative_counts(M))


def _cutoff(group: _Group, catalog: _Catalog) -> None:
    """Fail every live item with a counted mode past its cutoff ``L0``.

    An item's first ``L0 = stop - SCAN_EXTRA - 1`` modes are those
    through its bound; the ``SCAN_EXTRA`` after them must count nothing.
    """
    if not group.live.any():
        return
    owner, at, _, counts = group.modes
    L0 = group.stop - SCAN_EXTRA - 1
    rank = at - group.first[owner] - 1
    counted = np.flatnonzero((rank >= L0[owner]) & (counts.N != 0))
    if not counted.size:
        return
    bad, first = np.unique(owner[counted], return_index=True)
    for k, r in zip(bad.tolist(), counted[first].tolist()):
        group.fail(k, CutoffError(
            f"certified bound violated: mode lambda_hat={catalog.values[at[r]]:.6g} "
            f"past the cutoff has N={counts.N[r]}"
        ))


def _nondegeneracy(group: _Group, catalog: _Catalog) -> None:
    """``det(lambda_hat A(u*) - J(u*))`` against its scale at every live
    item's spectrum: one stacked ``det``."""
    rows = np.flatnonzero(group.live)
    if not rows.size:
        return
    n = group.stop[rows]
    at = _ranges(group.first[rows], n)
    owner = np.repeat(rows, n)
    lam = catalog.values[at]
    A, J = group.A[owner], group.J[owner]
    # Near the lattice limit these overflow to inf, which _reports turns
    # into the item's cause; numpy's warning would only repeat that.
    with np.errstate(over="ignore"):
        det = np.linalg.det(lam[:, None, None] * A - J)
        gross = np.abs(lam)[:, None, None] * np.abs(A) + np.abs(J)
        scale = np.prod(np.linalg.norm(gross, axis=-1), axis=-1)
    records = np.empty(len(owner), dtype=NONDEGENERACY)
    records["lambda_hat"], records["det"], records["scale"] = lam, det, scale
    records["ok"] = np.abs(det) > TOL_DEGENERATE * scale
    group.tests = _Tests(owner, records)


def _report_warnings(
    decisions: ModeDecisions, tests: NDArray, noisy: bool, failed: bool
) -> tuple[str, ...]:
    """An index report's warnings: the per-mode count warnings and
    degenerate modes (``noisy``), the constant mode's factor and the
    determinant test (``failed``)."""
    warnings: list[str] = []
    if noisy:
        for lambda_hat, mode_warnings, degen, margin in zip(
            decisions.modes.values.tolist(), decisions.warnings,
            decisions.degenerate.tolist(), decisions.margin.tolist(),
        ):
            for w in mode_warnings:
                warnings.append(f"mode lambda_hat={lambda_hat:.6g}: {w}")
            if degen:
                warnings.append(
                    f"mode lambda_hat={lambda_hat:.6g} is degenerate "
                    f"(margin {margin:.3e}); no index claimed"
                )
    # The first value is the constant mode, 0, whose determinant is
    # det(-J(u*)): its sign is the constant mode's factor.
    det_J = tests[0]["det"]
    if not det_J > 0.0:
        warnings.append(
            f"constant mode: det(-J(u_star)) = {det_J:.6g} < 0 contributes "
            "a factor -1 to the index"
        )
    if failed:
        warnings.append(
            "determinant nondegeneracy fails at lambda_hat = "
            + ", ".join(f"{lam:.6g}" for lam in tests["lambda_hat"][~tests["ok"]])
        )
    return tuple(warnings)


def _reports(group: _Group, catalog: _Catalog) -> None:
    """Assemble the index report of every item that passed the ledger.

    A nondegeneracy determinant or scale that is not finite fails the
    item: the test cannot be decided, which is not the same as a
    degenerate mode.  The rest is decided by masks and reductions over
    the items' runs of rows, so each report is built in one step.
    """
    if not group.live.any():
        return
    owner, tests = group.tests
    finite = np.isfinite(tests["det"]) & np.isfinite(tests["scale"])
    if not finite.all():
        overflow = np.flatnonzero(~finite)
        bad, first, n_bad = np.unique(owner[overflow], return_index=True, return_counts=True)
        for k, r, n in zip(bad.tolist(), overflow[first].tolist(), n_bad.tolist()):
            group.fail(k, ModelError(
                f"nondegeneracy determinant or its scale overflows in {n} "
                f"mode(s) from lambda_hat = {tests['lambda_hat'][r]:.6g}; no index"
            ))
    rows = np.flatnonzero(group.live)
    if not rows.size:
        return
    # Drop the rows of items failed since the stacks were built: then each
    # live item's rows are one run, and one reduceat sums them all.
    modes = group.modes
    keep = group.live[owner]
    if not keep.all():
        tests = tests[keep]
    keep = group.live[modes.owner]
    if not keep.all():
        counts = [c[keep] for c in modes.counts[:-1]]
        counts.append(tuple(itertools.compress(modes.counts.warnings, keep)))
        modes = _Modes(modes.owner[keep], modes.at[keep], modes.A[keep], NegativeCounts(*counts))
    N, eigs, margin, degenerate, mode_warnings = modes.counts
    # An item's tests cover its whole spectrum, its modes all but the
    # constant mode: ``stop`` and ``stop - 1`` rows.
    n = group.stop[rows]
    d0 = np.cumsum(n) - n
    m0 = d0 - np.arange(len(rows))
    # Per item, from its runs of rows: the determinant test, gamma, and
    # whether any mode is degenerate, may carry a warning (only a row
    # counting more than one eigenvalue can) or has complex eigenvalues.
    per_item = zip(
        np.logical_and.reduceat(tests["ok"], d0).tolist(),
        tests["det"][d0].tolist(),
        np.add.reduceat(N * catalog.M[modes.at], m0).tolist(),
        np.logical_or.reduceat(degenerate, m0).tolist(),
        np.logical_or.reduceat((N > 1) | degenerate, m0).tolist(),
        np.logical_or.reduceat(eigs.imag.any(axis=-1), m0).tolist(),
    )
    eigs_real = eigs.real
    mode_values = catalog.values[modes.at].tolist()
    # Items with one domain and one stop share their slice of the spectrum.
    slices: dict[tuple[int, int], ModeSpectrum] = {}
    for k, dom, stop, a, c, certified, reduced in zip(
        rows.tolist(), group.dom[rows].tolist(), n.tolist(), m0.tolist(), d0.tolist(),
        group.certificate[rows].tolist(), per_item,
    ):
        ok, det_J, gamma, degenerate_any, noisy, complex_k = reduced
        nondegenerate = ok and not degenerate_any
        b, e = a + stop - 1, c + stop
        spectrum = slices.get((dom, stop))
        if spectrum is None:
            spectrum = slices[dom, stop] = catalog.spectra[dom][1:stop]
        decisions = ModeDecisions(
            spectrum, modes.A[a:b], N[a:b], eigs[a:b] if complex_k else eigs_real[a:b],
            margin[a:b], degenerate[a:b], mode_warnings[a:b],
        )
        nondegeneracy = tests[c:e]
        rho, departure, J_norm, bound = certified
        L0 = stop - SCAN_EXTRA - 1
        item = group.items[k]
        item.report = IndexReport(
            u_star=item.state.u,
            mode_decisions=decisions,
            L0=L0,
            certificate={
                "rho": rho,
                "departure": departure,
                "dA_inv_J_norm": J_norm,
                "bound": bound,
                "scanned_modes": mode_values[a + L0 : b],
                "nondegeneracy": nondegeneracy,
            },
            gamma=gamma,
            # The constant mode's factor is the sign of det(-J(u*)).
            index=(1 if det_J > 0.0 else -1) * (-1) ** gamma if nondegenerate else None,
            nondegenerate=nondegenerate,
            warnings=_report_warnings(decisions, nondegeneracy, noisy, not ok)
            if noisy or not ok or not det_J > 0.0 else (),
        )


def _ledger(items: list[_Item]) -> None:
    """Decide every item: cutoff certificate, spectra, modes, cutoff
    check, nondegeneracy, report."""
    batch = _Batch(items)
    for group in batch.groups:
        _certify(group)
    catalog = _spectra(batch)
    for group in batch.groups:
        _decide(group, catalog)
        _cutoff(group, catalog)
        _nondegeneracy(group, catalog)
        _reports(group, catalog)


# -- one item -----------------------------------------------------------------


def constant_state_index(model: Model, u_star: NDArray[np.float64]) -> IndexReport:
    """Assemble the mode-sum parity index at a positive constant state.

    Raises :class:`ModelError` when a nondegeneracy determinant or its
    scale is not finite: the test cannot be decided, which is not the
    same as a degenerate mode.
    """
    u_star = np.asarray(u_star, dtype=float)
    error = _index_precondition(model, u_star)
    if error is not None:
        raise error
    item = _Item(model, _State(model, u_star))
    _ledger([item])
    if item.error is not None:
        raise item.error
    return item.report


# -- existence verdicts -------------------------------------------------------


class _Kinetics:
    """What existence verdicts need from the kinetics ``(m, r, c)`` alone.

    Built once per distinct kinetics of a batch: the constant states, the
    case label, every boundary index that the growth signs settle, and a
    :class:`_State` for every state whose index needs the ledger -- the
    positive states and the v-stable semitrivial ones, whose index is
    that of the restricted subsystem at its positive state.
    """

    def __init__(self, model: Model, states: StateEnumeration | None) -> None:
        enum = states if states is not None else find_constant_states(model)
        self.case_label = _case_label(model, enum)
        assumptions = list(_ASSUMPTIONS)
        if model.m != 2:
            assumptions.append(
                "index bookkeeping beyond two species follows the same degree "
                "argument but is not backed by the two-species case analysis"
            )
        self.assumptions = tuple(assumptions)
        self.causes: list[str] = []
        if enum.degenerate_subsets:
            self.causes.append(
                "degenerate-subset: singular interaction matrix on supports "
                f"{enum.degenerate_subsets}; enumeration may be incomplete"
            )
        # Per boundary state, in order: its index when the growth signs
        # settle it, with the cause it adds if any, or else the _State whose
        # restricted index the ledger decides.
        self.boundary: list[
            tuple[ConstantState, StabilityVerdict, BoundaryIndex | _State, str | None]
        ] = []
        for state in enum:
            if state.classification == "nontrivial":
                continue
            sv = semitrivial_stability(model, state)
            cause = None
            if sv.v_class == "degenerate":
                settled: BoundaryIndex | _State = BoundaryIndex(
                    state, sv, None, "degenerate growth sign"
                )
                cause = (
                    f"{_state_label(state)}: growth sign vanishes within "
                    "tolerance (degenerate boundary state)"
                )
            elif sv.v_class == "v-unstable":
                settled = BoundaryIndex(state, sv, 0, "invadable: index 0")
            elif state.classification == "trivial":
                settled = BoundaryIndex(state, sv, 1, "attracting trivial state: index 1")
            else:
                sub = model.restrict(state.support_indices)
                u_sub = state.u_star[list(state.support_indices)]
                error = _index_precondition(sub, u_sub)
                settled = _State(sub, u_sub, state.support_indices, error)
            self.boundary.append((state, sv, settled, cause))
        self.nontrivial: list[tuple[ConstantState, _State]] = []
        for state in enum.by_classification("nontrivial"):
            error = _index_precondition(model, state.u_star)
            self.nontrivial.append((state, _State(model, state.u_star, None, error)))
        self.positive = [s for _, _, s, _ in self.boundary if isinstance(s, _State)]
        self.positive += [pos for _, pos in self.nontrivial]

    def verdict(self, items: dict[_State, _Item]) -> ExistenceVerdict:
        """The verdict of one model, from its ledger items by state."""

        def outcome(pos: _State) -> IndexReport | ModelError:
            if pos.error is not None:
                return pos.error
            item = items[pos]
            return item.error if item.error is not None else item.report

        causes = list(self.causes)
        boundary: list[BoundaryIndex] = []
        for state, sv, settled, cause in self.boundary:
            if isinstance(settled, BoundaryIndex):
                boundary.append(settled)
                if cause is not None:
                    causes.append(cause)
                continue
            rep = outcome(settled)
            if isinstance(rep, ModelError):
                boundary.append(BoundaryIndex(state, sv, None, str(rep)))
                causes.append(f"{_state_label(state)}: {rep}")
            elif rep.index is None:
                boundary.append(
                    BoundaryIndex(state, sv, None, "restricted index degenerate", rep)
                )
                causes.append(f"{_state_label(state)}: restricted index degenerate")
            else:
                boundary.append(
                    BoundaryIndex(state, sv, rep.index, "v-stable: restricted index", rep)
                )

        nontrivial_indices: list[tuple[tuple[float, ...], int | None]] = []
        reports: list[IndexReport] = []
        for state, pos in self.nontrivial:
            rep = outcome(pos)
            if isinstance(rep, ModelError):
                nontrivial_indices.append((tuple(state.u_star), None))
                causes.append(f"{_state_label(state)}: {rep}")
                continue
            reports.append(rep)
            nontrivial_indices.append((tuple(state.u_star), rep.index))
            if rep.index is None:
                causes.append(f"{_state_label(state)}: degenerate mode, no index")

        inconclusive = bool(causes)
        if inconclusive:
            boundary_sum = None
            total = None
            predicts = None
        else:
            boundary_sum = sum(b.index for b in boundary)  # type: ignore[misc]
            total = boundary_sum + sum(idx for _, idx in nontrivial_indices)  # type: ignore[misc]
            predicts = total != 1

        return ExistenceVerdict(
            case_label=self.case_label,
            sum_of_boundary_indices=boundary_sum,
            nontrivial_constant_indices=tuple(nontrivial_indices),
            total=total,
            predicts_nonconstant=predicts,
            assumptions=self.assumptions,
            inconclusive=inconclusive,
            cause="; ".join(causes) if causes else None,
            boundary=tuple(boundary),
            index_reports=tuple(reports),
        )


def existence_verdicts(
    models: Sequence[Model], states: Sequence[StateEnumeration] | None = None
) -> tuple[ExistenceVerdict, ...]:
    """Existence verdicts of a batch of models, decided in one pass.

    ``states`` gives each model's constant states; without it they are
    enumerated once per distinct kinetics ``(m, r, c)``.  Verdict ``k``
    equals ``existence_verdict(models[k], states[k])`` field by field: a
    failure at one state of one model becomes that verdict's cause.  A
    model the verdict does not apply to (a Dirichlet problem) or whose
    states cannot be enumerated raises for the whole batch.
    """
    models = list(models)
    enums: list[StateEnumeration | None] = (
        [None] * len(models) if states is None else list(states)
    )
    if len(enums) != len(models):
        raise ModelError(
            f"states needs one enumeration per model, got {len(enums)} for "
            f"{len(models)} models"
        )
    shared: dict[tuple, _Kinetics] = {}
    plans: list[tuple[_Kinetics, dict[_State, _Item]]] = []
    for model, enum in zip(models, enums):
        if model.bc.kind != "neumann":
            raise ModelError("the existence verdict is built on the Neumann problem")
        key = (model.m, model.r.tobytes(), model.c.tobytes(), id(enum))
        kinetics = shared.get(key)
        if kinetics is None:
            kinetics = shared[key] = _Kinetics(model, enum)
        plans.append((
            kinetics,
            {pos: _Item(model, pos) for pos in kinetics.positive if pos.error is None},
        ))
    _ledger([item for _, items in plans for item in items.values()])
    return tuple(kinetics.verdict(items) for kinetics, items in plans)


def existence_verdict(
    model: Model, states: StateEnumeration | None = None
) -> ExistenceVerdict:
    """Sum local indices over all constant states and compare against 1."""
    return existence_verdicts([model], None if states is None else [states])[0]
