"""Local fixed-point indices of constant states and existence verdicts.

At a nondegenerate positive constant state the local index is
``sign det(-J(u*)) * (-1)^gamma`` with ``gamma = sum_i N_i M_i`` over the
nonzero Neumann modes: ``N_i`` counts the real negative eigenvalues of
``d_A(u*)^{-1} (A(u*) - lambda_i^{-1} J(u*))`` and ``M_i`` is the
eigenvalue multiplicity.  The sign is the constant mode's factor, the
determinant ``det(lambda A(u*) - J(u*))`` at ``lambda = 0``.  A
perturbation bound certifies that all modes beyond a finite cutoff
contribute nothing.  Boundary (trivial and
semitrivial) states are handled by sign criteria on the per-capita
growth of the vanishing components, and the verdict compares the total
degree against 1.

:func:`existence_verdicts` decides a batch of models in one pass.  The
work that depends only on the kinetics ``(m, r, c)`` -- constant states,
boundary growth signs, the case label and ``J(u*)`` -- is done once per
distinct kinetics.  The spectrum is enumerated once per distinct domain,
through the largest cutoff bound among the items that pass the size
limit, and each item reads its prefix of the arrays.  The work that
depends on ``d`` or ``alpha`` is stacked over every (model, positive
state) item, one numpy call per species count: ``A(u*)``, the cutoff
certificate, the mode counts and the nondegeneracy determinants.  A
failure stays with its item and becomes the cause of that model's
verdict.  :func:`existence_verdict` and :func:`constant_state_index` run
the same code on one item.  A state's per-mode counts stay arrays from
the stacked ``eigvals`` to its :class:`IndexReport`: one
:class:`ModeDecisions` per state.
"""

from __future__ import annotations

import math
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


def negative_counts(
    stack: NDArray[np.float64], tol_degenerate: float = TOL_DEGENERATE
) -> NegativeCounts:
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
    neg_mask = real_mask & (eigs.real < -tol_degenerate * scales[:, None])
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
        counts, eigs, margins, margins <= tol_degenerate * scales, tuple(warnings)
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
    """One (model, positive state) pair and what the ledger found for it.

    The stages fill the fields in order and skip an item once ``error``
    is set.  ``spectrum`` holds the values the determinant test covers;
    ``modes``, the nonzero ones among them, those :func:`_decide` counts.
    """

    __slots__ = (
        "d", "alpha", "domain", "state", "A", "dvec", "error", "certificate",
        "spectrum", "modes", "decisions", "L0", "nondeg_ok", "nondeg_details",
        "report",
    )

    def __init__(self, model: Model, state: _State) -> None:
        if state.support is None:
            self.d, self.alpha = model.d, model.alpha
        else:
            idx = np.asarray(state.support)
            self.d, self.alpha = model.d[idx], model.alpha[np.ix_(idx, idx)]
        self.domain = model.domain
        self.state = state
        self.error: ModelError | None = None
        self.certificate: dict = {}
        self.L0 = 0


def _groups(items: Iterable[_Item]) -> list[list[_Item]]:
    """The undecided items, by species count: only matrices of one size stack."""
    groups: dict[int, list[_Item]] = {}
    for item in items:
        if item.error is None:
            groups.setdefault(len(item.state.u), []).append(item)
    return list(groups.values())


def _owners(group: list[_Item], rows: list[Sequence]) -> NDArray[np.intp]:
    """Row ``k`` of a stack over every item's rows belongs to item ``owner[k]``."""
    return np.repeat(np.arange(len(group)), [len(r) for r in rows])


def _fail_nonfinite(
    group: list[_Item], owner: NDArray[np.intp], stack: NDArray[np.float64], error
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
        group[k].error = error()
    return ~np.isin(owner, bad)


def _flux(items: list[_Item]) -> None:
    """``A(u*)`` and its diagonal ``d_A(u*)``, stacked, as :meth:`Model.A`
    evaluates them one state at a time."""
    for group in _groups(items):
        u = np.array([it.state.u for it in group])
        alpha = np.array([it.alpha for it in group])
        d = np.array([it.d for it in group])
        A = u[:, :, None] * alpha
        idx = np.arange(u.shape[1])
        A[:, idx, idx] += d + (u[:, None, :] @ np.swapaxes(alpha, -1, -2))[:, 0, :]
        dvec = A[:, idx, idx]
        for it, a, dv in zip(group, A, dvec):
            it.A, it.dvec = a, dv


def _certify(items: list[_Item]) -> None:
    """Cutoff certificate of every item.

    Eigenvalues of ``d_A^{-1} J`` stay within ``kappa_V ||d_A^{-1} J|| /
    lambda_hat`` of those of ``d_A^{-1} A(u*) = V diag(w) V^{-1}``, so
    past ``bound = kappa_V ||d_A^{-1} J|| / rho``, ``rho = min Re w``, no
    mode can count.  One ``eig``, one ``cond`` per eigenvector dtype and
    one 2-norm cover a species count.  An item whose own eigenvalues are
    real gets a real ``V``, as a one-matrix ``eig`` returns it, even when
    the stack came back complex.
    """
    for group in _groups(items):
        dvec = np.array([it.dvec for it in group])
        M0 = np.array([it.A for it in group]) / dvec[:, :, None]
        keep = _fail_nonfinite(
            group, np.arange(len(group)), M0,
            lambda: CutoffError("cutoff uncertifiable: d_A^{-1}A(u*) is not finite"),
        )
        if keep is not None:
            group = [it for it, k in zip(group, keep) if k]
            M0, dvec = M0[keep], dvec[keep]
        if not group:
            continue
        w, V = np.linalg.eig(M0)
        real_rows = ~w.imag.any(axis=-1) if np.iscomplexobj(w) else None
        kept, rhos, Vs = [], [], []
        for k, it in enumerate(group):
            w_k, V_k = w[k], V[k]
            if real_rows is not None and real_rows[k]:
                w_k, V_k = w_k.real, V_k.real
            rho = float(w_k.real.min())
            if rho <= 0.0:
                it.error = CutoffError(
                    "cutoff uncertifiable: cross-diffusion is strong enough that "
                    f"d_A^{{-1}}A(u*) has eigenvalue real part {rho:.3e} <= 0"
                )
                continue
            kept.append(k)
            rhos.append(rho)
            Vs.append(V_k)
        if not kept:
            continue
        kappas = np.empty(len(kept))
        for complex_ in (False, True):
            rows = [i for i, V_k in enumerate(Vs) if np.iscomplexobj(V_k) == complex_]
            if rows:
                kappas[rows] = np.linalg.cond(np.array([Vs[i] for i in rows]), 2)
        J = np.array([group[k].state.J for k in kept])
        J_norms = np.linalg.norm(J / dvec[kept][:, :, None], 2, axis=(-2, -1))
        for k, rho, kappa_V, J_norm in zip(kept, rhos, kappas.tolist(), J_norms.tolist()):
            group[k].certificate = {
                "rho": rho,
                "kappa_V": kappa_V,
                "dA_inv_J_norm": J_norm,
                "bound": kappa_V * J_norm / rho,
            }


def _spectra(items: list[_Item]) -> None:
    """Each item's spectrum through its bound and ``SCAN_EXTRA`` values more.

    Each item's size limit is checked in closed form first.  Then every
    distinct domain is enumerated once, through the largest bound among
    its items that pass, and each item takes its prefix.
    """
    domains: dict[Domain, list[_Item]] = {}
    for it in items:
        if it.error is not None:
            continue
        try:
            lattice_edge(it.domain, it.certificate["bound"], SCAN_EXTRA)
        except ModelError as exc:
            # Kept without traceback or context: their frames would hold
            # every item of the batch in a reference cycle.
            exc.__traceback__ = exc.__context__ = None
            it.error = exc
            continue
        domains.setdefault(it.domain, []).append(it)
    for domain, group in domains.items():
        bounds = [it.certificate["bound"] for it in group]
        spectrum = spectrum_through(domain, max(bounds), extra=SCAN_EXTRA)
        stops = np.searchsorted(spectrum.values, bounds, side="right") + SCAN_EXTRA
        for it, stop in zip(group, stops.tolist()):
            it.spectrum = spectrum[:stop]


def _decide(items: list[_Item]) -> None:
    """Count ``N_i`` at every item's ``modes``: one mode stack and one
    :func:`negative_counts` call per species count."""
    for group in _groups(items):
        lams = [it.modes.values for it in group]
        owner = _owners(group, lams)
        if owner.size == 0:
            continue
        lam = np.concatenate(lams)
        A = (
            np.array([it.A for it in group])[owner]
            - np.array([it.state.J for it in group])[owner] / lam[:, None, None]
        )
        # Scaled here, each row by its own d_A, so one count covers all items.
        M = A / np.array([it.dvec for it in group])[owner][:, :, None]
        keep = _fail_nonfinite(
            group, owner, M,
            lambda: ModelError(
                "mode matrix d_A^{-1}(A(u*) - J(u*)/lambda_hat) is not finite"
            ),
        )
        if keep is not None:
            A, M = A[keep], M[keep]
        counts = negative_counts(M)
        start = 0
        for it in group:
            if it.error is not None:
                continue
            rows = slice(start, start + len(it.modes))
            N, eigs, margin, degenerate, warnings = (c[rows] for c in counts)
            if not eigs.imag.any():
                # Real, as an eig over this item's rows alone returns them.
                eigs = eigs.real
            it.decisions = ModeDecisions(
                it.modes, A[rows], N, eigs, margin, degenerate, warnings
            )
            start = rows.stop


def _cutoff(items: list[_Item]) -> None:
    """Certify each item's cutoff ``L0`` and decide the modes up to three past it."""
    _certify(items)
    _spectra(items)
    for it in items:
        if it.error is None:
            # The first value is the constant mode, 0.
            it.modes = it.spectrum[1:]
    _decide(items)
    for it in items:
        if it.error is not None:
            continue
        L0 = int(np.searchsorted(it.modes.values, it.certificate["bound"], side="right"))
        past = it.decisions.N[L0:]
        counted = np.flatnonzero(past)
        if counted.size:
            i = counted[0]
            it.error = CutoffError(
                f"certified bound violated: mode lambda_hat={it.modes.values[L0 + i]:.6g} "
                f"past the cutoff has N={past[i]}"
            )
        else:
            it.L0 = L0
            it.certificate["scanned_modes"] = it.modes.values[L0:].tolist()


def _nondegeneracy(items: list[_Item], tol_degenerate: float = TOL_DEGENERATE) -> None:
    """``det(lambda_hat A(u*) - J(u*))`` against its scale at every item's
    ``spectrum``: one stacked ``det`` per species count."""
    for group in _groups(items):
        lams = [it.spectrum.values for it in group]
        owner = _owners(group, lams)
        dets: list[float] = []
        scales: list[float] = []
        if owner.size:
            lam = np.concatenate(lams)
            A = np.array([it.A for it in group])[owner]
            J = np.array([it.state.J for it in group])[owner]
            # Near the lattice limit these overflow to inf in the details,
            # which _reports turns into the item's cause; numpy's warning
            # would only repeat that.
            with np.errstate(over="ignore"):
                dets = np.linalg.det(lam[:, None, None] * A - J).tolist()
                gross = np.abs(lam)[:, None, None] * np.abs(A) + np.abs(J)
                scales = np.prod(np.linalg.norm(gross, axis=-1), axis=-1).tolist()
        start = 0
        for it, row in zip(group, lams):
            details: list[dict] = []
            ok_all = True
            stop = start + len(row)
            for lambda_hat, det, scale in zip(
                row.tolist(), dets[start:stop], scales[start:stop]
            ):
                ok = abs(det) > tol_degenerate * scale
                ok_all &= ok
                details.append(
                    {"lambda_hat": lambda_hat, "det": det, "scale": scale, "ok": ok}
                )
            start = stop
            it.nondeg_ok, it.nondeg_details = ok_all, details


def _reports(items: list[_Item]) -> None:
    """Assemble the index report of every item that passed the ledger.

    A nondegeneracy determinant or scale that is not finite fails the
    item: the test cannot be decided, which is not the same as a
    degenerate mode.
    """
    for it in items:
        if it.error is not None:
            continue
        details = it.nondeg_details
        overflow = [
            d for d in details
            if not (math.isfinite(d["det"]) and math.isfinite(d["scale"]))
        ]
        if overflow:
            it.error = ModelError(
                f"nondegeneracy determinant or its scale overflows in {len(overflow)} "
                f"mode(s) from lambda_hat = {overflow[0]['lambda_hat']:.6g}; no index"
            )
            continue
        it.certificate["nondegeneracy"] = details

        dec = it.decisions
        degenerate = dec.degenerate.tolist()
        warnings: list[str] = []
        for lambda_hat, mode_warnings, degen, margin in zip(
            dec.modes.values.tolist(), dec.warnings, degenerate, dec.margin.tolist()
        ):
            for w in mode_warnings:
                warnings.append(f"mode lambda_hat={lambda_hat:.6g}: {w}")
            if degen:
                warnings.append(
                    f"mode lambda_hat={lambda_hat:.6g} is degenerate "
                    f"(margin {margin:.3e}); no index claimed"
                )
        degenerate_any = True in degenerate
        gamma = int(dec.N @ dec.modes.M)
        # The first value is the constant mode, 0, whose determinant is
        # det(-J(u*)): its sign is the constant mode's factor.
        det_J = details[0]["det"]
        sign = 1 if det_J > 0.0 else -1
        if sign < 0:
            warnings.append(
                f"constant mode: det(-J(u_star)) = {det_J:.6g} < 0 contributes "
                "a factor -1 to the index"
            )

        nondegenerate = it.nondeg_ok and not degenerate_any
        if not it.nondeg_ok:
            bad = [d for d in details if not d["ok"]]
            warnings.append(
                "determinant nondegeneracy fails at lambda_hat = "
                + ", ".join(f"{d['lambda_hat']:.6g}" for d in bad)
            )
        it.report = IndexReport(
            u_star=it.state.u,
            mode_decisions=it.decisions,
            L0=it.L0,
            certificate=it.certificate,
            gamma=gamma,
            index=sign * (-1) ** gamma if nondegenerate else None,
            nondegenerate=nondegenerate,
            warnings=tuple(warnings),
        )


def _ledger(items: list[_Item]) -> None:
    """Decide every item: flux matrices, cutoff, modes, nondegeneracy, report."""
    _flux(items)
    _cutoff(items)
    _nondegeneracy(items)
    _reports(items)


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
