"""Enumeration and classification of constant steady states.

A constant state solves ``f(u) = 0``, i.e. ``g_i(u) = 0`` on its support
and ``u_j = 0`` elsewhere.  For the affine Lotka-Volterra reactions each
support subset gives one linear solve, so enumeration over all ``2^m``
subsets is exhaustive.  That solve's root is the state (``g`` is affine,
so a Newton step would only repeat the solve).  Each state records its
residual ``max |f(u*)|``, and the index bookkeeping
(``index_theory._index_precondition``) judges whether it is accurate
enough to carry an index.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np
from numpy.typing import NDArray

from .model import MAX_SPECIES, Model, ModelError

TOL_DEDUP = 1e-9
TOL_SIGN = 1e-10
TOL_DEGENERATE = 1e-8


class EnumerationError(ModelError):
    """Constant-state enumeration cannot be carried out."""


@dataclass(frozen=True)
class ConstantState:
    """A constant solution of ``f(u) = 0``.

    ``support`` marks the strictly positive components; entries off the
    support are exactly zero.  ``classification`` is ``trivial`` (all
    zero), ``semitrivial`` (some zero), or ``nontrivial`` (all positive).
    """

    u_star: NDArray[np.float64]
    support: tuple[bool, ...]
    classification: str
    residual: float

    def __post_init__(self) -> None:
        u = np.array(self.u_star, dtype=float)
        u.setflags(write=False)
        object.__setattr__(self, "u_star", u)
        object.__setattr__(self, "support", tuple(bool(b) for b in self.support))

    @property
    def support_indices(self) -> tuple[int, ...]:
        return tuple(i for i, b in enumerate(self.support) if b)

    @property
    def mask(self) -> int:
        """Canonical integer encoding of the support (bit i = component i)."""
        return sum(1 << i for i, b in enumerate(self.support) if b)


def _classify_support(support: Sequence[bool]) -> str:
    if not any(support):
        return "trivial"
    if all(support):
        return "nontrivial"
    return "semitrivial"


def _make_state(model: Model, support: Sequence[bool], u: NDArray[np.float64]) -> ConstantState:
    residual = float(np.abs(model.f(u)).max())
    return ConstantState(
        u_star=u,
        support=tuple(support),
        classification=_classify_support(support),
        residual=residual,
    )


@dataclass(frozen=True)
class StateEnumeration:
    """Result of exhaustive constant-state enumeration.

    Iterates over the states in canonical support order (trivial state
    first).  ``degenerate_subsets`` lists supports whose restricted
    interaction matrix was singular — no isolated state is attributed
    there, and index bookkeeping must treat the enumeration as
    inconclusive.
    """

    states: Sequence[ConstantState]
    degenerate_subsets: Sequence[tuple[int, ...]] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "states", tuple(sorted(self.states, key=lambda s: s.mask)))
        object.__setattr__(
            self, "degenerate_subsets", tuple(tuple(s) for s in self.degenerate_subsets)
        )

    def __iter__(self) -> Iterator[ConstantState]:
        return iter(self.states)

    def __len__(self) -> int:
        return len(self.states)

    def __getitem__(self, i: int) -> ConstantState:
        return self.states[i]

    def by_classification(self, classification: str) -> list[ConstantState]:
        return [s for s in self.states if s.classification == classification]


def find_constant_states(model: Model) -> StateEnumeration:
    """Enumerate all constant steady states with positive support.

    Solves ``c|_S u_S = r|_S`` once for every support subset ``S`` and
    keeps solutions that are strictly positive on ``S``; the solve's root
    is the state's ``u_star``.  Roots that fall on the boundary of the
    orthant are rejected here and re-attributed to the smaller support
    that finds them exactly.  Raises :class:`EnumerationError` only when
    ``m`` exceeds ``MAX_SPECIES``.
    """
    if model.m > MAX_SPECIES:
        raise EnumerationError(
            f"subset enumeration bounded at m <= {MAX_SPECIES}, got m = {model.m}"
        )
    states: list[ConstantState] = []
    degenerate: list[tuple[int, ...]] = []
    seen: list[NDArray[np.float64]] = []

    states.append(_make_state(model, (False,) * model.m, np.zeros(model.m)))

    for size in range(1, model.m + 1):
        for subset in itertools.combinations(range(model.m), size):
            idx = np.array(subset, dtype=int)
            c_sub = model.c[np.ix_(idx, idx)]
            r_sub = model.r[idx]
            scale = np.abs(c_sub).sum(axis=1).prod()
            if scale == 0.0 or abs(np.linalg.det(c_sub)) <= 1e-12 * scale:
                degenerate.append(subset)
                continue
            u_sub = np.linalg.solve(c_sub, r_sub)
            # Strict positivity on the support; boundary roots belong to
            # a smaller subset and are attributed there.
            if np.any(u_sub <= TOL_DEDUP * (1.0 + np.abs(u_sub).max())):
                continue
            u = np.zeros(model.m)
            u[idx] = u_sub
            if any(
                np.abs(u - v).max() <= TOL_DEDUP * (1.0 + np.abs(v).max())
                for v in seen
            ):
                continue
            seen.append(u)
            states.append(_make_state(model, [i in subset for i in range(model.m)], u))

    return StateEnumeration(states, degenerate)

