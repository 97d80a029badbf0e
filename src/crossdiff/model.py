"""Model definition: flux matrix, reactions, and structure validation.

A model couples ``m`` species through the quasilinear flux matrix
``A(u) = dP/du`` with ``P_i(u) = u_i * (d_i + sum_j alpha_ij u_j)`` and
Lotka-Volterra reactions ``f_i(u) = u_i * g_i(u)``,
``g_i(u) = r_i - sum_j c_ij u_j``.  All evaluation helpers broadcast
over leading axes, so a field of shape ``(..., m)`` yields flux matrices
of shape ``(..., m, m)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Sequence

import numpy as np
from numpy.typing import NDArray


class ModelError(ValueError):
    """Structural problem with model data (dimensions, signs, domain)."""


class ConfigError(ModelError):
    """Malformed or inconsistent model configuration input."""


# Most species whose 2^m subsets or box corners are enumerated.
MAX_SPECIES = 12


_DOMAIN_KINDS = ("interval", "rectangle")
_BC_KINDS = ("neumann", "dirichlet")


@dataclass(frozen=True)
class Domain:
    """Axis-aligned box domain: an interval ``(0, L)`` or a rectangle."""

    kind: str
    lengths: tuple[float, ...]

    def __post_init__(self) -> None:
        if self.kind not in _DOMAIN_KINDS:
            raise ConfigError(f"unknown domain kind {self.kind!r}")
        lengths = tuple(float(L) for L in self.lengths)
        object.__setattr__(self, "lengths", lengths)
        expected = 1 if self.kind == "interval" else 2
        if len(lengths) != expected:
            raise ConfigError(
                f"{self.kind} domain needs {expected} length(s), got {len(lengths)}"
            )
        if any(not math.isfinite(L) or L <= 0 for L in lengths):
            raise ConfigError(f"domain lengths must be positive, got {lengths}")
        # The first Neumann eigenvalue of each axis, (pi / L)^2, must be a float.
        if any(not math.isfinite((math.pi / L) * (math.pi / L)) for L in lengths):
            raise ConfigError(f"domain lengths {lengths} are too small for the spectrum")

    @property
    def dimension(self) -> int:
        return len(self.lengths)

    @property
    def diameter(self) -> float:
        return math.hypot(*self.lengths)


@dataclass(frozen=True)
class BoundaryCondition:
    """Homogeneous boundary condition: zero flux or zero trace."""

    kind: str = "neumann"

    def __post_init__(self) -> None:
        if self.kind not in _BC_KINDS:
            raise ConfigError(f"unknown boundary condition {self.kind!r}")


def _readonly(arr: NDArray[np.float64]) -> NDArray[np.float64]:
    out = np.array(arr, dtype=float)
    out.setflags(write=False)
    return out


# The array fields of a Model, in the order _field_errors takes them.
_ARRAYS = ("d", "alpha", "r", "c")


def _field_errors(
    m: NDArray[Any],
    d: NDArray[np.float64],
    alpha: NDArray[np.float64],
    r: NDArray[np.float64],
    c: NDArray[np.float64],
) -> list[str | None]:
    """:class:`Model`'s checks over a batch of points: per point, the
    message of the first check it fails, or ``None`` if it passes them all.

    ``d``, ``alpha``, ``r`` and ``c`` are float stacks with the points on
    their leading axis, and ``m`` holds each point's species count.
    """
    points = len(m)
    if not points:
        return []

    def right_shape(arr: NDArray[np.float64], ndim: int) -> NDArray[np.bool_]:
        sizes = set(arr.shape[1:])
        if arr.ndim != ndim + 1 or len(sizes) != 1:
            return np.zeros(points, dtype=bool)
        return m == sizes.pop()

    flat_d, flat_alpha, flat_r, flat_c = (
        arr.reshape(points, -1) for arr in (d, alpha, r, c)
    )
    # One boolean per point for each check, true where the point passes,
    # in the order the checks run.
    checks = [
        (right_shape(d, 1), lambda k: f"d must have shape ({m[k]},), got {d.shape[1:]}"),
        (right_shape(r, 1), lambda k: f"r must have shape ({m[k]},), got {r.shape[1:]}"),
        (
            right_shape(alpha, 2),
            lambda k: f"alpha must have shape ({m[k]}, {m[k]}), got {alpha.shape[1:]}",
        ),
        (
            right_shape(c, 2),
            lambda k: f"c must have shape ({m[k]}, {m[k]}), got {c.shape[1:]}",
        ),
        # After the shapes, so that a bad m gets the message build_model gives it.
        (m >= 1, lambda k: f"m must be >= 1, got {m[k]}"),
        (np.isfinite(flat_d).all(axis=1), lambda k: "d contains non-finite entries"),
        (
            np.isfinite(flat_alpha).all(axis=1),
            lambda k: "alpha contains non-finite entries",
        ),
        (np.isfinite(flat_r).all(axis=1), lambda k: "r contains non-finite entries"),
        (np.isfinite(flat_c).all(axis=1), lambda k: "c contains non-finite entries"),
        (
            (flat_d > 0).all(axis=1),
            lambda k: f"diffusion rates d must be strictly positive, got {d[k]}",
        ),
        (
            (flat_alpha >= 0).all(axis=1),
            lambda k: f"alpha coefficients must be nonnegative, got {alpha[k]}",
        ),
    ]
    passed = np.array([passes for passes, _ in checks])
    errors: list[str | None] = [None] * points
    for k in np.flatnonzero(~passed.all(axis=0)).tolist():
        errors[k] = checks[passed[:, k].argmin()][1](k)
    return errors


@dataclass(frozen=True)
class Model:
    """Cross-diffusion model with Lotka-Volterra reactions.

    Parameters
    ----------
    m : number of species
    d : linear diffusion rates, shape ``(m,)``, strictly positive
    alpha : self/cross-diffusion coefficients, shape ``(m, m)``, nonnegative
    r : intrinsic growth rates, shape ``(m,)``
    c : competition matrix, shape ``(m, m)``
    domain : spatial domain
    bc : boundary condition shared by all species
    """

    m: int
    d: NDArray[np.float64]
    alpha: NDArray[np.float64]
    r: NDArray[np.float64]
    c: NDArray[np.float64]
    domain: Domain
    bc: BoundaryCondition = field(default_factory=BoundaryCondition)

    def __post_init__(self) -> None:
        arrays = [_readonly(getattr(self, name)) for name in _ARRAYS]
        (error,) = _field_errors(np.array([self.m]), *(arr[None] for arr in arrays))
        if error is not None:
            raise ConfigError(error)
        for name, arr in zip(_ARRAYS, arrays):
            object.__setattr__(self, name, arr)

    # -- evaluation -----------------------------------------------------

    def A(self, u: NDArray[np.float64]) -> NDArray[np.float64]:
        """Flux matrix ``A(u) = dP/du``, shape ``(..., m, m)``.

        ``a_ij = delta_ij * (d_i + sum_l alpha_il u_l) + u_i * alpha_ij``.
        """
        return flux_matrix(u, self.d, self.alpha)

    def d_A(self, u: NDArray[np.float64]) -> NDArray[np.float64]:
        """Diagonal of the flux matrix as a read-only vector, shape ``(..., m)``."""
        return np.diagonal(self.A(u), axis1=-2, axis2=-1)

    def g(self, u: NDArray[np.float64]) -> NDArray[np.float64]:
        """Per-capita growth ``g_i(u) = r_i - sum_j c_ij u_j``."""
        u = np.asarray(u, dtype=float)
        return self.r - u @ self.c.T

    def f(self, u: NDArray[np.float64]) -> NDArray[np.float64]:
        """Reaction ``f_i(u) = u_i * g_i(u)``."""
        u = np.asarray(u, dtype=float)
        return u * self.g(u)

    def jacobian_f(self, u: NDArray[np.float64]) -> NDArray[np.float64]:
        """Reaction Jacobian ``J_ij = delta_ij g_i(u) - u_i c_ij``."""
        u = np.asarray(u, dtype=float)
        out = -u[..., :, None] * self.c
        idx = np.arange(self.m)
        out[..., idx, idx] += self.g(u)
        return out

    # -- restriction and serialization ----------------------------------

    def restrict(self, support: Sequence[int]) -> "Model":
        """Submodel on the given component indices (same domain and bc)."""
        idx = np.asarray(sorted(support), dtype=int)
        if idx.size == 0:
            raise ModelError("cannot restrict a model to an empty support")
        return Model(
            m=int(idx.size),
            d=self.d[idx],
            alpha=self.alpha[np.ix_(idx, idx)],
            r=self.r[idx],
            c=self.c[np.ix_(idx, idx)],
            domain=self.domain,
            bc=self.bc,
        )

    def to_config(self) -> dict[str, Any]:
        """Plain-dict form accepted back by :func:`build_model`."""
        return {
            "m": self.m,
            "d": self.d.tolist(),
            "alpha": self.alpha.tolist(),
            "r": self.r.tolist(),
            "c": self.c.tolist(),
            "domain": {"kind": self.domain.kind, "lengths": list(self.domain.lengths)},
            "bc": self.bc.kind,
        }


def flux_matrix(
    u: NDArray[np.float64], d: NDArray[np.float64], alpha: NDArray[np.float64]
) -> NDArray[np.float64]:
    """The flux matrix ``A(u)`` of diffusion rates ``d`` and coefficients
    ``alpha``, shape ``(..., m, m)``; :meth:`Model.A` with its own."""
    u = np.asarray(u, dtype=float)
    out = u[..., :, None] * alpha
    idx = np.arange(len(d))
    out[..., idx, idx] += d + u @ alpha.T
    return out


_CONFIG_KEYS = {"m", "d", "alpha", "r", "c", "domain", "bc"}
_DOMAIN_KEYS = {"kind", "lengths"}


def build_model(config: Mapping[str, Any]) -> Model:
    """Construct a :class:`Model` from a plain configuration mapping.

    Unknown keys are rejected rather than ignored so that typos in
    configuration files fail loudly.
    """
    if not isinstance(config, Mapping):
        raise ConfigError(f"config must be a mapping, got {type(config).__name__}")
    unknown = set(config) - _CONFIG_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    missing = _CONFIG_KEYS - {"bc"} - set(config)
    if missing:
        raise ConfigError(f"missing config keys: {sorted(missing)}")

    dom_raw = config["domain"]
    if not isinstance(dom_raw, Mapping):
        raise ConfigError("domain must be a mapping with 'kind' and 'lengths'")
    unknown_dom = set(dom_raw) - _DOMAIN_KEYS
    if unknown_dom:
        raise ConfigError(f"unknown domain keys: {sorted(unknown_dom)}")
    if _DOMAIN_KEYS - set(dom_raw):
        raise ConfigError(f"missing domain keys: {sorted(_DOMAIN_KEYS - set(dom_raw))}")
    domain = Domain(kind=dom_raw["kind"], lengths=_lengths(dom_raw["lengths"]))

    bc = BoundaryCondition(kind=config.get("bc", "neumann"))

    m = _species_count(config["m"])

    def _arr(key: str) -> NDArray[np.float64]:
        message = f"{key} is not numeric: {config[key]!r}"
        if _holds_non_number(config[key]):
            raise ConfigError(message)
        try:
            return np.asarray(config[key], dtype=float)
        except (TypeError, ValueError) as exc:
            raise ConfigError(message) from exc

    return Model(
        m=m,
        d=_arr("d"),
        alpha=_arr("alpha"),
        r=_arr("r"),
        c=_arr("c"),
        domain=domain,
        bc=bc,
    )


def _holds_non_number(value: Any) -> bool:
    """Whether ``value`` is a boolean or a string, or a list or tuple
    holding one at any depth: JSON ``true``, ``false`` and ``"2"`` are
    not numbers, although ``int``, ``float`` and ``np.asarray`` read them."""
    if isinstance(value, (list, tuple)):
        return any(_holds_non_number(item) for item in value)
    return isinstance(value, (bool, np.bool_, str))


def _lengths(value: Any) -> tuple[float, ...]:
    if isinstance(value, (list, tuple)) and not _holds_non_number(value):
        try:
            return tuple(float(L) for L in value)
        except (TypeError, ValueError):
            pass
    raise ConfigError(f"domain.lengths must be a list of numbers, got {value!r}")


def _species_count(value: Any) -> int:
    try:
        m = int(value)
        if m == float(value) and not _holds_non_number(value):
            return m
    except (TypeError, ValueError, OverflowError):
        pass
    raise ConfigError(f"m must be an integer, got {value!r}")


@dataclass(frozen=True)
class ModelBatch:
    """Points of one boundary condition, as read-only float stacks of
    ``d``, ``alpha``, ``r``, ``c`` and the domain ``lengths`` (one column
    for an interval, two for a rectangle), one row per point.
    ``errors[k]`` is the message that :func:`build_model` would raise for
    point ``k``, or ``None``; no :class:`Model` is held, :meth:`model`
    builds one on request."""

    d: NDArray[np.float64]
    alpha: NDArray[np.float64]
    r: NDArray[np.float64]
    c: NDArray[np.float64]
    lengths: NDArray[np.float64]
    errors: list[str | None]
    bc: BoundaryCondition

    def model(self, k: int) -> Model:
        """Point ``k``'s model; a point in error raises its :class:`ConfigError`."""
        if self.errors[k] is not None:
            raise ConfigError(self.errors[k])
        sides = tuple(self.lengths[k].tolist())
        return Model(
            m=self.d.shape[1], d=self.d[k], alpha=self.alpha[k], r=self.r[k], c=self.c[k],
            domain=Domain(_DOMAIN_KINDS[len(sides) - 1], sides), bc=self.bc,
        )


def replace_entries(
    model: Model,
    keys: Sequence[Sequence[str | int]],
    points: Sequence[Sequence[float]],
) -> ModelBatch:
    """``model`` with numeric config entries replaced, once per point,
    each point checked as :func:`build_model` checks its config.

    ``keys`` are key paths of numeric entries of ``model.to_config()``
    -- ``("m",)``, ``("d", i)``, ``("alpha", i, j)``, ``("r", i)``,
    ``("c", i, j)`` or ``("domain", "lengths", i)`` -- and each point
    gives one value per path.  The values are written into the batch's
    stacks, and every point is checked by one pass of :class:`Model`'s
    checks over them; a swept domain or ``m`` is checked point by point.
    A point that :func:`build_model` would reject gets the message of the
    error it would raise.  No :class:`Model` is built per point.
    """
    values = np.array(points, dtype=float).reshape(len(points), len(keys))
    count = len(values)
    stacks = {name: np.repeat(getattr(model, name)[None], count, 0) for name in _ARRAYS}
    lengths = np.repeat([model.domain.lengths], count, 0)
    m_values: NDArray[np.float64] | None = None
    for column, (name, *index) in zip(values.T, keys):
        if name == "domain" and len(index) == 2 and index[0] == "lengths":
            lengths[:, index[1]] = column
        elif name == "m" and not index:
            m_values = column
        elif name in stacks and len(index) == stacks[name].ndim - 1:
            stacks[name][(slice(None), *index)] = column
        else:
            raise ConfigError(f"no numeric config entry at {(name, *index)!r}")
    for stack in (*stacks.values(), lengths):
        stack.setflags(write=False)

    # build_model checks the domain first, then m, then the arrays.
    m_column = np.full(count, model.m)
    if m_values is not None:
        ms = [_message_or(_species_count, value) for value in m_values.tolist()]
        m_column = np.array([model.m if isinstance(m, str) else m for m in ms])
    # With no key every point is ``model``, which Model.__post_init__ checked.
    errors = _field_errors(m_column, *stacks.values()) if keys else [None] * count
    if m_values is not None:
        errors = [m if isinstance(m, str) else error for m, error in zip(ms, errors)]
    # A point with the model's own lengths has its valid domain.
    if (lengths != model.domain.lengths).any():
        domains = [
            _message_or(lambda row: Domain(kind=model.domain.kind, lengths=row), row)
            for row in lengths.tolist()
        ]
        errors = [
            dom if isinstance(dom, str) else error for dom, error in zip(domains, errors)
        ]
    return ModelBatch(*stacks.values(), lengths, errors, model.bc)


def _message_or(make: Callable[[Any], Any], value: Any) -> Any:
    """``make(value)``, or the message of the :class:`ConfigError` it raises."""
    try:
        return make(value)
    except ConfigError as exc:
        return str(exc)


@dataclass(frozen=True)
class StructureReport:
    """Ellipticity certificate for the flux matrix over a box.

    ``lambda_floor`` is the minimum over the box of ``lambda(u)``, the
    smallest eigenvalue of the symmetric part of ``A(u)``, and ``C_star``
    the maximum of ``||A(u)||_2 / lambda(u)``; both are exact.
    ``Lambda_sup`` is an upper bound on the relative gradient
    ``|grad lambda| / lambda`` over the box.  On a non-elliptic box
    (``lambda_floor <= 0``) the last two are infinite.
    """

    lambda_floor: float
    C_star: float
    Lambda_sup: float
    elliptic: bool
    box: tuple[tuple[float, float], ...]
    warnings: tuple[str, ...] = ()


def _min_sym_eig(A: NDArray[np.float64]) -> NDArray[np.float64]:
    sym = 0.5 * (A + np.swapaxes(A, -1, -2))
    return np.linalg.eigvalsh(sym)[..., 0]


def validate_structure(model: Model, box: Sequence[Sequence[float]]) -> StructureReport:
    """Certify ellipticity bounds of the flux matrix over a box.

    ``box`` gives ``(low, high)`` bounds per component.  ``A(u)`` is
    affine in ``u``, so ``lambda(u)`` is concave and takes its minimum
    at a corner of the box; where ``lambda > 0`` the ratio
    ``||A(u)||_2 / lambda(u)`` is quasi-convex and takes its maximum at a
    corner too.  Both are evaluated on the ``2^m`` corners, which bounds
    ``m`` at :data:`MAX_SPECIES`.  ``Lambda_sup`` is the bound
    ``(sum_k ||sym d_k A||_2^2)^(1/2) / lambda_floor``, with
    ``(d_k A)_ij = delta_ij alpha_ik + delta_ik alpha_kj`` constant in
    ``u``.  A nonpositive ``lambda_floor`` marks the model non-elliptic
    on the box; ``C_star`` and ``Lambda_sup`` are then reported as
    infinities with a warning instead of going silent.
    """
    box_arr = np.asarray(box, dtype=float)
    if box_arr.shape != (model.m, 2):
        raise ModelError(f"box must have shape ({model.m}, 2), got {box_arr.shape}")
    if np.any(box_arr[:, 1] < box_arr[:, 0]):
        raise ModelError("box upper bounds must not be below lower bounds")
    if model.m > MAX_SPECIES:
        raise ModelError(
            f"structure check visits the 2^m box corners, bounded at "
            f"m <= {MAX_SPECIES}, got m = {model.m}"
        )

    corners = np.stack(np.meshgrid(*box_arr, indexing="ij"), axis=-1).reshape(-1, model.m)
    A = model.A(corners)
    lam = _min_sym_eig(A)
    lambda_floor = float(lam.min())
    elliptic = lambda_floor > 0.0
    warnings: tuple[str, ...] = ()
    if elliptic:
        C_star = float((np.linalg.norm(A, ord=2, axis=(-2, -1)) / lam).max())
        # d_k A stacked on k: alpha[i, k] down the diagonal, alpha[k, :] in row k.
        idx = np.arange(model.m)
        dA = np.zeros((model.m,) * 3)
        dA[:, idx, idx] = model.alpha.T
        dA[idx, idx, :] += model.alpha
        norms = np.linalg.norm(0.5 * (dA + np.swapaxes(dA, -1, -2)), ord=2, axis=(-2, -1))
        Lambda_sup = float(np.linalg.norm(norms)) / lambda_floor
    else:
        C_star = Lambda_sup = math.inf
        warnings = (
            "flux matrix loses ellipticity on the box "
            f"(min symmetric eigenvalue {lambda_floor:.3e} <= 0)",
        )

    return StructureReport(
        lambda_floor=lambda_floor,
        C_star=C_star,
        Lambda_sup=Lambda_sup,
        elliptic=elliptic,
        box=tuple((float(lo), float(hi)) for lo, hi in box_arr),
        warnings=warnings,
    )
