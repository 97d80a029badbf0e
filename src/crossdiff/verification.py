"""Independent discrete oracles for the index and mode machinery.

Everything here is built from scratch on dense matrices — its own
finite-difference Laplacian, Kronecker-product operators, and
generalized (QZ) eigensolves — deliberately sharing no code with
``index_theory`` or ``pde_solver``, so agreement between the two routes
is evidence, not tautology.

The central object is the linearized solution map at a constant state:
``T'(u*) = (L_A + k I)^{-1} (J + k I)`` on a fine grid, where ``L_A`` is
the discrete Neumann operator ``-Div(A(u*) D .)``.  Its fixed-point
index is ``(-1)^count`` with ``count`` the number of real eigenvalues
``mu > 1`` (algebraic multiplicity).  Note the constant mode contributes
its own eigenvalues ``mu = 1 + eig(J)/k``: every real eigenvalue of ``J``
above zero adds to the count, so the constant mode's share of the parity
is ``sign det(-J)``.  The parity is then ``(-1)^sigma``, the index
``index_theory`` reports, as long as the grid's eigenvalues fall on the
same sides of the roots ``mu_j`` of ``det(lambda A(u*) - J(u*))`` as the
exact ones: :func:`oracle_grid` picks such a grid.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg
from numpy.typing import NDArray

from .model import Model


def fd_neumann_matrix(n: int, L: float) -> NDArray[np.float64]:
    """Dense cell-centered FD ``-d2/dx2`` on ``(0, L)`` with zero-flux walls."""
    h = L / n
    K = np.zeros((n, n))
    for j in range(n):
        if j > 0:
            K[j, j] += 1.0
            K[j, j - 1] -= 1.0
        if j < n - 1:
            K[j, j] += 1.0
            K[j, j + 1] -= 1.0
    return K / h**2


def solution_map_matrix(
    A: NDArray[np.float64],
    J: NDArray[np.float64],
    n: int,
    L: float,
    k: float,
) -> NDArray[np.float64]:
    """Dense linearized solution map ``(L_A + kI)^{-1}(J + kI)``.

    Component-major layout: the operator acts on ``(u^(1); ...; u^(m))``
    stacked per species, so ``L_A = kron(A, K_h)``.
    """
    m = A.shape[0]
    Kh = fd_neumann_matrix(n, L)
    lhs = np.kron(A, Kh) + k * np.eye(m * n)
    rhs = np.kron(J + k * np.eye(m), np.eye(n))
    return np.linalg.solve(lhs, rhs)

def count_mu_above_one(
    M: NDArray[np.float64], tol: float = 1e-8
) -> tuple[int, NDArray[np.complex128]]:
    """Count real eigenvalues ``mu > 1`` with algebraic multiplicity."""
    mu = np.linalg.eigvals(M)
    real = np.abs(mu.imag) <= tol * np.maximum(1.0, np.abs(mu.real))
    count = int(np.sum(real & (mu.real > 1.0 + tol)))
    return count, mu


ORACLE_GRIDS = (256, 512, 1024)


def oracle_grid(model: Model, u_star: NDArray[np.float64]) -> int:
    """The smallest ``n`` of :data:`ORACLE_GRIDS` whose FD spectrum
    crosses the real roots ``mu_j`` of ``det(lambda A - J)`` as the exact
    spectrum does.

    The roots come from a QZ solve of the pencil ``(J, A)``.  On ``(0, L)``
    the exact eigenvalues ``(k pi / L)^2`` below ``mu`` number
    ``ceil(L sqrt(mu) / pi)``; the FD ones ``(2n / L)^2 sin^2(k pi / 2n)``,
    ``k < n``, number ``ceil((2n / pi) arcsin(L sqrt(mu) / 2n))``, or ``n``
    when the arcsine's argument reaches 1.  Raises ``ValueError`` naming
    the ``n`` (doubled from 256) a state needs past the largest grid.
    """
    u_star = np.asarray(u_star, dtype=float)
    L = model.domain.lengths[0]
    mu = scipy.linalg.eig(model.jacobian_f(u_star), model.A(u_star), right=False)
    real = np.abs(mu.imag) <= 1e-10 * np.maximum(1.0, np.abs(mu))
    root = L * np.sqrt(np.maximum(mu.real[real], 0.0))
    exact = np.ceil(root / np.pi)

    def resolves(n: int) -> bool:
        x = root / (2 * n)
        fd = np.where(x < 1.0, np.ceil(2 * n / np.pi * np.arcsin(np.minimum(x, 1.0))), n)
        return bool(np.all(fd == exact))

    n = ORACLE_GRIDS[0]
    while not resolves(n):
        n *= 2
        if n > 2**40:
            raise ValueError(f"parity oracle: no grid up to n = 2^40 resolves mu = {mu}")
    if n > ORACLE_GRIDS[-1]:
        raise ValueError(
            f"parity oracle needs n = {n} to resolve mu = {mu.real[real]}, "
            f"past its largest grid, n = {ORACLE_GRIDS[-1]}"
        )
    return n


def parity_oracle(
    model: Model,
    u_star: NDArray[np.float64],
    n: int | None = None,
    k: float | None = None,
) -> tuple[int, int]:
    """Fixed-point-index parity of the discrete linearized solution map.

    Returns ``(count, parity)`` with ``parity = (-1)^count``.  Interval
    domains only (the oracle is a verification tool, not a solver).
    Without ``n`` the grid is :func:`oracle_grid`'s.
    """
    if model.domain.dimension != 1:
        raise ValueError("the discrete parity oracle is built for intervals")
    u_star = np.asarray(u_star, dtype=float)
    if n is None:
        n = oracle_grid(model, u_star)
    A = model.A(u_star)
    J = model.jacobian_f(u_star)
    if k is None:
        k = 1.0 + float(np.linalg.norm(J, 2))
    M = solution_map_matrix(A, J, n, model.domain.lengths[0], k)
    count, _ = count_mu_above_one(M)
    return count, (-1) ** count


def reaction_unstable_count(model: Model, u_star: NDArray[np.float64]) -> int:
    """Eigenvalues of ``J(u*)`` with positive real part (constant-mode count)."""
    J = model.jacobian_f(np.asarray(u_star, dtype=float))
    scale = max(1.0, float(np.linalg.norm(J, 2)))
    return int(np.sum(np.linalg.eigvals(J).real > 1e-10 * scale))


def ev1_mu_for_mode(
    A: NDArray[np.float64],
    d_A: NDArray[np.float64],
    J: NDArray[np.float64],
    lambda_hat: float,
) -> NDArray[np.complex128]:
    """The ``mu`` solving ``lambda [A + (mu - 1) diag(d_A)] c = J c``.

    Solved as a generalized (QZ) eigenproblem — an implementation route
    independent of the similarity transform used by the index formula.
    """
    if lambda_hat <= 0:
        raise ValueError("lambda_hat must be positive")
    lhs = J / lambda_hat - A
    w = scipy.linalg.eig(lhs, np.diag(d_A), right=False)
    mu = 1.0 + w
    return np.sort_complex(mu)


def discrete_mode_mu(
    model: Model,
    u_star: NDArray[np.float64],
    n: int,
    n_modes: int,
) -> list[tuple[float, NDArray[np.complex128]]]:
    """Per-discrete-mode ``mu`` values of the FD-discretized pencil.

    The discrete pencil block-diagonalizes exactly over the eigenbasis of
    the FD Laplacian (Kronecker structure), so each discrete eigenvalue
    ``lambda_h > 0`` yields an m x m problem.  Returns the first
    ``n_modes`` nonzero modes as ``(lambda_h, sorted mu)``.
    """
    if model.domain.dimension != 1:
        raise ValueError("discrete mode oracle is built for intervals")
    u_star = np.asarray(u_star, dtype=float)
    A = model.A(u_star)
    J = model.jacobian_f(u_star)
    d_A = np.diag(A)
    Kh = fd_neumann_matrix(n, model.domain.lengths[0])
    lam_h = np.sort(np.linalg.eigvalsh(0.5 * (Kh + Kh.T)))
    out: list[tuple[float, NDArray[np.complex128]]] = []
    for lam in lam_h:
        if lam <= 1e-10:
            continue
        out.append((float(lam), ev1_mu_for_mode(A, d_A, J, float(lam))))
        if len(out) == n_modes:
            break
    return out


def dense_pencil_mu(
    model: Model,
    u_star: NDArray[np.float64],
    n: int,
) -> NDArray[np.complex128]:
    """All finite ``mu`` of the fully assembled discrete pencil via QZ.

    Solves ``[K_h (x) A + (mu - 1) K_h (x) diag(d_A)] U = (I (x) J) U``
    without exploiting the Kronecker block structure — the cross-check
    for :func:`discrete_mode_mu`.  Constant modes appear as infinite
    eigenvalues and are dropped.
    """
    if model.domain.dimension != 1:
        raise ValueError("dense pencil oracle is built for intervals")
    u_star = np.asarray(u_star, dtype=float)
    A = model.A(u_star)
    J = model.jacobian_f(u_star)
    d_A = np.diag(np.diag(A))
    m = model.m
    Kh = fd_neumann_matrix(n, model.domain.lengths[0])
    In = np.eye(n)
    B = np.kron(A - d_A, Kh) - np.kron(J, In)
    C = np.kron(d_A, Kh)
    alpha, beta = scipy.linalg.eig(-B, C, right=False, homogeneous_eigvals=True)
    finite = np.abs(beta) > 1e-10 * np.abs(alpha)
    mu = alpha[finite] / beta[finite]
    return np.sort_complex(mu)
