"""Local fixed-point indices of constant states and existence verdicts.

At a nondegenerate positive constant state the local index is
``(-1)^gamma`` with ``gamma = sum_i N_i M_i`` over the Neumann modes:
``N_i`` counts the real negative eigenvalues of
``d_A(u*)^{-1} (A(u*) - lambda_i^{-1} J(u*))`` and ``M_i`` is the
eigenvalue multiplicity.  A perturbation bound certifies that all modes
beyond a finite cutoff contribute nothing.  Boundary (trivial and
semitrivial) states are handled by sign criteria on the per-capita
growth of the vanishing components, and the verdict compares the total
degree against 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

import numpy as np
from numpy.typing import NDArray

from .model import Model, ModelError
from .spectral import ModeSpectrum, SpectrumEntry, spectrum_through
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


class NegativeCount(NamedTuple):
    """Outcome of counting negative real eigenvalues of ``d_A^{-1} A_i``.

    ``N`` counts with algebraic multiplicity; complex-conjugate pairs are
    excluded (they shift any consistent count by an even amount and so
    cannot change the parity).  ``margin`` is the smallest ``|Re|`` over
    all eigenvalues; when it falls below the degeneracy tolerance the
    mode is undecidable and ``degenerate`` is set.
    """

    N: int
    eigs: NDArray[np.complex128]
    margin: float
    degenerate: bool
    warnings: tuple[str, ...]


def mode_matrix(
    model: Model, u_star: NDArray[np.float64], lambda_hat: float | NDArray[np.float64]
) -> NDArray[np.float64]:
    """Mode matrix ``A(u*) - lambda_hat^{-1} J(u*)``.

    A scalar ``lambda_hat`` gives one ``(m, m)`` matrix; a 1-D array of
    ``k`` eigenvalues gives the ``(k, m, m)`` stack, with ``A(u*)`` and
    ``J(u*)`` evaluated once.
    """
    lam = np.asarray(lambda_hat, dtype=float)
    if np.any(lam <= 0.0):
        raise ModelError(
            f"mode matrix needs lambda_hat > 0, got {float(lam.min())}; the constant "
            "mode is covered by the determinant test in check_nondegeneracy"
        )
    u_star = np.asarray(u_star, dtype=float)
    return model.A(u_star) - model.jacobian_f(u_star) / lam[..., None, None]


def negative_counts(
    d_A: NDArray[np.float64],
    Ai_stack: NDArray[np.float64],
    tol_degenerate: float = TOL_DEGENERATE,
) -> tuple[NegativeCount, ...]:
    """Count real negative eigenvalues of ``diag(d_A)^{-1} Ai`` for a stack.

    ``Ai_stack`` has shape ``(k, m, m)``; one 2-norm and one eigenvalue
    call cover all ``k`` matrices.  Each result is
    ``(N, eigs, margin, degenerate, warnings)``: the count with algebraic
    multiplicity, all eigenvalues, the decision margin ``min |Re|``, the
    undecidable flag, and defectiveness warnings when a counted
    eigenvalue has geometric < algebraic multiplicity.  ``eigs`` is real
    when every imaginary part of that matrix's eigenvalues is zero, as
    for a one-matrix ``np.linalg.eig``.
    """
    d_A = np.asarray(d_A, dtype=float)
    if d_A.ndim == 2:
        d_A = np.diag(d_A)
    if np.any(d_A <= 0.0):
        raise ModelError(f"d_A entries must be positive, got {d_A}")
    M = np.asarray(Ai_stack, dtype=float) / d_A[:, None]
    m = M.shape[-1]
    scales = np.maximum(np.linalg.norm(M, 2, axis=(-2, -1)), 1e-300)
    eigs, _ = np.linalg.eig(M)
    eigs = np.take_along_axis(eigs, np.lexsort((eigs.imag, eigs.real), axis=-1), -1)

    real_mask = np.abs(eigs.imag) <= 1e-10 * scales[:, None]
    neg_mask = real_mask & (eigs.real < -tol_degenerate * scales[:, None])
    counts = neg_mask.sum(axis=-1)
    margins = np.abs(eigs.real).min(axis=-1)
    degenerate = margins <= tol_degenerate * scales

    results = []
    for k in range(len(M)):
        N = int(counts[k])
        scale = float(scales[k])
        warnings: list[str] = []
        if N > 0:
            # Cluster the counted eigenvalues and compare geometric multiplicity.
            counted = np.sort(eigs[k].real[neg_mask[k]])
            clusters: list[list[float]] = [[counted[0]]]
            for v in counted[1:]:
                if v - clusters[-1][-1] <= 1e-6 * scale:
                    clusters[-1].append(v)
                else:
                    clusters.append([v])
            for cluster in clusters:
                alg = len(cluster)
                if alg == 1:
                    continue
                lam = float(np.mean(cluster))
                geo = m - np.linalg.matrix_rank(
                    M[k] - lam * np.eye(m), tol=1e-8 * scale
                )
                if geo < alg:
                    warnings.append(
                        f"defective eigenvalue {lam:.6g}: algebraic multiplicity "
                        f"{alg}, geometric {geo}; algebraic multiplicity counted"
                    )
        eigs_k = eigs[k]
        if np.iscomplexobj(eigs_k) and not eigs_k.imag.any():
            eigs_k = eigs_k.real
        results.append(
            NegativeCount(
                N, eigs_k, float(margins[k]), bool(degenerate[k]), tuple(warnings)
            )
        )
    return tuple(results)


def negative_count(
    d_A: NDArray[np.float64],
    Ai: NDArray[np.float64],
    tol_degenerate: float = TOL_DEGENERATE,
) -> NegativeCount:
    """:func:`negative_counts` for one matrix ``Ai``."""
    return negative_counts(d_A, np.asarray(Ai, dtype=float)[None], tol_degenerate)[0]


@dataclass(frozen=True)
class ModeDecision:
    """Per-mode ingredient of the index: the count ``N_i`` at one ``lambda_hat``."""

    lambda_hat: float
    M: int
    A_i: NDArray[np.float64]
    eigs: NDArray[np.complex128]
    N_i: int
    margin: float
    degenerate: bool
    mode_indices: tuple[tuple[int, ...], ...]
    warnings: tuple[str, ...] = ()


def mode_decisions(
    model: Model, u_star: NDArray[np.float64], entries: Sequence[SpectrumEntry]
) -> tuple[ModeDecision, ...]:
    """Count ``N_i`` at nonzero Neumann eigenvalues of the spectrum, all at once."""
    A_i = mode_matrix(model, u_star, np.array([e.lambda_hat for e in entries]))
    counts = negative_counts(model.d_A(np.asarray(u_star, dtype=float)), A_i)
    return tuple(
        ModeDecision(
            lambda_hat=entry.lambda_hat,
            M=entry.M,
            A_i=A_i[k],
            eigs=nc.eigs,
            N_i=nc.N,
            margin=nc.margin,
            degenerate=nc.degenerate,
            mode_indices=entry.mode_indices,
            warnings=nc.warnings,
        )
        for k, (entry, nc) in enumerate(zip(entries, counts))
    )


def mode_cutoff(
    model: Model, u_star: NDArray[np.float64]
) -> tuple[int, dict, ModeSpectrum, tuple[ModeDecision, ...]]:
    """Certified mode cutoff ``L0`` beyond which every ``N_i`` vanishes.

    Uses the eigenvector-conditioned perturbation bound: eigenvalues of
    ``d_A^{-1} A_i = d_A^{-1} A(u*) - lambda_i^{-1} d_A^{-1} J`` stay
    within ``kappa_V ||d_A^{-1} J|| / lambda_i`` of the spectrum of
    ``d_A^{-1} A(u*)``, so once ``lambda_i`` clears
    ``kappa_V ||d_A^{-1} J|| / rho`` no eigenvalue can reach the closed
    left half-plane.  Three additional modes past the cutoff are scanned
    and asserted stable.

    The spectrum through the scanned modes is enumerated once, and every
    nonzero mode of it is decided once.  Returns ``L0``, the certificate,
    that spectrum and the decisions.
    """
    u_star = np.asarray(u_star, dtype=float)
    A = model.A(u_star)
    J = model.jacobian_f(u_star)
    dvec = np.diag(A)
    M0 = A / dvec[:, None]
    w, V = np.linalg.eig(M0)
    rho = float(w.real.min())
    if rho <= 0.0:
        raise CutoffError(
            "cutoff uncertifiable: cross-diffusion is strong enough that "
            f"d_A^{{-1}}A(u*) has eigenvalue real part {rho:.3e} <= 0"
        )
    kappa_V = float(np.linalg.cond(V, 2))
    J_norm = float(np.linalg.norm(J / dvec[:, None], 2))
    bound = kappa_V * J_norm / rho

    spectrum = spectrum_through(model.domain, bound, extra=SCAN_EXTRA)
    decisions = mode_decisions(model, u_star, spectrum.nonzero())
    L0 = sum(1 for d in decisions if d.lambda_hat <= bound)
    for d in decisions[L0:]:
        if d.N_i != 0:
            raise CutoffError(
                f"certified bound violated: mode lambda_hat={d.lambda_hat:.6g} "
                f"past the cutoff has N={d.N_i}"
            )
    certificate = {
        "rho": rho,
        "kappa_V": kappa_V,
        "dA_inv_J_norm": J_norm,
        "bound": bound,
        "scanned_modes": [d.lambda_hat for d in decisions[L0:]],
    }
    return L0, certificate, spectrum, decisions


def check_nondegeneracy(
    model: Model,
    u_star: NDArray[np.float64],
    spectrum: Iterable[SpectrumEntry],
    tol_degenerate: float = TOL_DEGENERATE,
) -> tuple[bool, list[dict]]:
    """Test ``det(lambda_hat A(u*) - J(u*)) != 0`` for every retained mode.

    The constant mode ``lambda_hat = 0`` reduces to ``det J != 0``.  The
    determinant is compared against the row-norm product of
    ``|lambda_hat| |A| + |J|`` — the entry magnitudes *before* the
    subtraction — so a resonance that cancels an entire row is still
    flagged even though the cancelled row makes ``det`` and the naive
    row norms of the difference shrink together.  Returns the overall
    verdict and per-mode details.
    """
    u_star = np.asarray(u_star, dtype=float)
    A = model.A(u_star)
    J = model.jacobian_f(u_star)
    lam = np.array([entry.lambda_hat for entry in spectrum])
    # Near the lattice limit these overflow to inf in the details, which
    # constant_state_index turns into its verdict; numpy's warning would
    # only repeat that.
    with np.errstate(over="ignore"):
        dets = np.linalg.det(lam[:, None, None] * A - J)
        gross = np.abs(lam)[:, None, None] * np.abs(A) + np.abs(J)
        scales = np.prod(np.linalg.norm(gross, axis=-1), axis=-1)
    details: list[dict] = []
    ok_all = True
    for lambda_hat, det, scale in zip(lam.tolist(), dets.tolist(), scales.tolist()):
        ok = abs(det) > tol_degenerate * scale
        ok_all &= ok
        details.append(
            {"lambda_hat": lambda_hat, "det": det, "scale": scale, "ok": ok}
        )
    return ok_all, details


@dataclass(frozen=True)
class IndexReport:
    """Local fixed-point index of a positive constant state.

    ``index`` is ``(-1)^gamma`` and is only claimed when every retained
    mode is decidable and the nondegeneracy determinant test passes;
    otherwise ``index`` is ``None`` and ``nondegenerate`` is false.
    """

    u_star: NDArray[np.float64]
    mode_decisions: tuple[ModeDecision, ...]
    L0: int
    certificate: dict
    gamma: int
    index: int | None
    nondegenerate: bool
    warnings: tuple[str, ...] = ()


def constant_state_index(model: Model, u_star: NDArray[np.float64]) -> IndexReport:
    """Assemble the mode-sum parity index at a positive constant state.

    Raises :class:`ModelError` when a nondegeneracy determinant or its
    scale is not finite: the test cannot be decided, which is not the
    same as a degenerate mode.
    """
    if model.bc.kind != "neumann":
        raise ModelError("the index mode sum is built on Neumann eigenmodes")
    u_star = np.asarray(u_star, dtype=float)
    if u_star.shape != (model.m,):
        raise ModelError(f"u_star must have shape ({model.m},), got {u_star.shape}")
    if np.any(u_star <= 0.0):
        raise ModelError(
            f"constant_state_index needs a strictly positive state, got {u_star}"
        )
    g_res = float(np.abs(model.g(u_star)).max())
    g_scale = 1.0 + float(np.abs(model.r).max())
    if g_res > 1e-8 * g_scale:
        raise ModelError(
            f"u_star is not a constant steady state: max |g(u_star)| = {g_res:.3e}"
        )

    L0, certificate, spectrum, decisions = mode_cutoff(model, u_star)
    nondeg_ok, nondeg_details = check_nondegeneracy(model, u_star, spectrum)
    overflow = [
        d for d in nondeg_details
        if not (math.isfinite(d["det"]) and math.isfinite(d["scale"]))
    ]
    if overflow:
        raise ModelError(
            f"nondegeneracy determinant or its scale overflows in {len(overflow)} "
            f"mode(s) from lambda_hat = {overflow[0]['lambda_hat']:.6g}; no index"
        )
    certificate["nondegeneracy"] = nondeg_details

    warnings: list[str] = []
    for d in decisions:
        for w in d.warnings:
            warnings.append(f"mode lambda_hat={d.lambda_hat:.6g}: {w}")
        if d.degenerate:
            warnings.append(
                f"mode lambda_hat={d.lambda_hat:.6g} is degenerate "
                f"(margin {d.margin:.3e}); no index claimed"
            )
    degenerate_any = any(d.degenerate for d in decisions)
    gamma = sum(d.N_i * d.M for d in decisions)

    J = model.jacobian_f(u_star)
    n_unstable = int(
        np.sum(np.linalg.eigvals(J).real > TOL_SIGN * (1.0 + np.linalg.norm(J)))
    )
    if n_unstable > 0:
        warnings.append(
            f"reaction Jacobian at u_star has {n_unstable} eigenvalue(s) with "
            "positive real part; a discrete solution-map eigenvalue count "
            "includes these through its constant mode, while the mode sum "
            "here tracks the nonconstant modes of the normalized homotopy"
        )

    nondegenerate = nondeg_ok and not degenerate_any
    if not nondeg_ok:
        bad = [d for d in nondeg_details if not d["ok"]]
        warnings.append(
            "determinant nondegeneracy fails at lambda_hat = "
            + ", ".join(f"{d['lambda_hat']:.6g}" for d in bad)
        )
    index = int((-1) ** gamma) if nondegenerate else None
    return IndexReport(
        u_star=u_star,
        mode_decisions=decisions,
        L0=L0,
        certificate=certificate,
        gamma=gamma,
        index=index,
        nondegenerate=nondegenerate,
        warnings=tuple(warnings),
    )


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


def existence_verdict(
    model: Model, states: StateEnumeration | None = None
) -> ExistenceVerdict:
    """Sum local indices over all constant states and compare against 1."""
    if model.bc.kind != "neumann":
        raise ModelError("the existence verdict is built on the Neumann problem")
    enum = states if states is not None else find_constant_states(model)
    assumptions = list(_ASSUMPTIONS)
    if model.m != 2:
        assumptions.append(
            "index bookkeeping beyond two species follows the same degree "
            "argument but is not backed by the two-species case analysis"
        )
    causes: list[str] = []
    if enum.degenerate_subsets:
        causes.append(
            "degenerate-subset: singular interaction matrix on supports "
            f"{enum.degenerate_subsets}; enumeration may be incomplete"
        )

    boundary: list[BoundaryIndex] = []
    for state in enum:
        if state.classification == "nontrivial":
            continue
        sv = semitrivial_stability(model, state)
        if sv.v_class == "degenerate":
            boundary.append(
                BoundaryIndex(state, sv, None, "degenerate growth sign")
            )
            causes.append(
                f"{_state_label(state)}: growth sign vanishes within "
                "tolerance (degenerate boundary state)"
            )
        elif sv.v_class == "v-unstable":
            boundary.append(BoundaryIndex(state, sv, 0, "invadable: index 0"))
        elif state.classification == "trivial":
            boundary.append(
                BoundaryIndex(state, sv, 1, "attracting trivial state: index 1")
            )
        else:
            # v-stable semitrivial: the index reduces to the index of the
            # restricted subsystem at its positive state.
            sub = model.restrict(state.support_indices)
            u_sub = state.u_star[list(state.support_indices)]
            try:
                rep = constant_state_index(sub, u_sub)
            except (ModelError, CutoffError) as exc:
                boundary.append(BoundaryIndex(state, sv, None, str(exc)))
                causes.append(f"{_state_label(state)}: {exc}")
                continue
            if rep.index is None:
                boundary.append(
                    BoundaryIndex(state, sv, None, "restricted index degenerate", rep)
                )
                causes.append(f"{_state_label(state)}: restricted index degenerate")
            else:
                boundary.append(
                    BoundaryIndex(
                        state, sv, rep.index, "v-stable: restricted index", rep
                    )
                )

    nontrivial_indices: list[tuple[tuple[float, ...], int | None]] = []
    reports: list[IndexReport] = []
    for state in enum.by_classification("nontrivial"):
        try:
            rep = constant_state_index(model, state.u_star)
        except (ModelError, CutoffError) as exc:
            nontrivial_indices.append((tuple(state.u_star), None))
            causes.append(f"{_state_label(state)}: {exc}")
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
        case_label=_case_label(model, enum),
        sum_of_boundary_indices=boundary_sum,
        nontrivial_constant_indices=tuple(nontrivial_indices),
        total=total,
        predicts_nonconstant=predicts,
        assumptions=tuple(assumptions),
        inconclusive=inconclusive,
        cause="; ".join(causes) if causes else None,
        boundary=tuple(boundary),
        index_reports=tuple(reports),
    )
