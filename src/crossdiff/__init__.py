"""Analysis of strongly coupled cross-diffusion steady states.

The package revolves around a population model with flux matrix
``A(u) = dP/du`` for ``P_i(u) = u_i * (d_i + sum_j alpha_ij u_j)`` and
Lotka-Volterra reactions ``f_i(u) = u_i * (r_i - sum_j c_ij u_j)``.  It
enumerates constant steady states, computes their local fixed-point
indices from the real roots of ``det(lambda A(u*) - J(u*))``, issues
existence verdicts for nonconstant positive solutions, and confirms or
refutes those verdicts with a nonlinear finite-difference solver plus
homotopy continuation.
"""

from __future__ import annotations

from .model import (
    BoundaryCondition,
    ConfigError,
    Domain,
    Model,
    ModelError,
    StructureReport,
    build_model,
    validate_structure,
)
from .steady_states import (
    ConstantState,
    EnumerationError,
    StateEnumeration,
    find_constant_states,
    refine_root,
)
from .spectral import eigenfunction
from .index_theory import (
    ExistenceVerdict,
    IndexReport,
    StabilityVerdict,
    constant_state_index,
    existence_verdict,
    semitrivial_stability,
)
from .pde_solver import (
    DiscreteField,
    DiscreteSystem,
    Grid,
    SolveResult,
    classify_field,
    constant_field,
    continuation_solve,
    discretize,
    make_grid,
    newton_solve,
    random_field,
    seed_from_mode,
)
from .diagnostics import (
    DiagnosticsReport,
    bmo_seminorm,
    diagnostics_report,
    identity_residuals,
    nonexistence_threshold,
    norms,
)

__version__ = "0.1.0"

__all__ = [
    "BoundaryCondition",
    "ConfigError",
    "ConstantState",
    "DiagnosticsReport",
    "DiscreteField",
    "DiscreteSystem",
    "Domain",
    "EnumerationError",
    "ExistenceVerdict",
    "Grid",
    "IndexReport",
    "Model",
    "ModelError",
    "SolveResult",
    "StabilityVerdict",
    "StateEnumeration",
    "StructureReport",
    "bmo_seminorm",
    "build_model",
    "classify_field",
    "constant_field",
    "constant_state_index",
    "continuation_solve",
    "diagnostics_report",
    "discretize",
    "eigenfunction",
    "existence_verdict",
    "find_constant_states",
    "identity_residuals",
    "make_grid",
    "newton_solve",
    "nonexistence_threshold",
    "norms",
    "random_field",
    "refine_root",
    "seed_from_mode",
    "semitrivial_stability",
    "validate_structure",
    "__version__",
]
