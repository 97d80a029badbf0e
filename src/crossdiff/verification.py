"""Independent discrete oracles for the index and the solver's linearization.

Everything here is built from scratch — its own finite-difference
Laplacian, Kronecker-product operators and a sparse LU — sharing no code
with ``index_theory``, ``spectral``, ``steady_states`` or ``pde_solver``,
so agreement is evidence.

With ``K_h`` the cell-centred FD Neumann Laplacian (on a rectangle the
Kronecker sum of the axis matrices), the solution map
``T(u) = (L_A + kI)^{-1}(f(u) + ku)``, ``k > 0``, linearized at a constant
state has ``L_A = K_h (x) A(u*)`` and ``T' = (L_A + kI)^{-1}(I (x) J + kI)``,
so ``det(I - T') = det(K_h (x) A - I (x) J) / det(L_A + kI)``.  The
eigenvalues of ``L_A + kI`` are ``lambda_h a + k`` over those of ``K_h``
(``lambda_h >= 0``) and of ``A(u*)``.  When every ``a`` has a positive real
part (ellipticity) the real ones are positive and the rest pair off, so
the Leray–Schauder index ``sign det(I - T')`` (Deimling, *Nonlinear
Functional Analysis*, 1985, §8) is the sign of one sparse determinant for
every ``k``: :func:`index_oracle`.  Over the eigenbasis of ``K_h`` that
determinant is ``prod_h det(A) prod_j (lambda_h - mu_j)``, ``mu_j`` the
roots of ``det(lambda A - J)``, so its sign is ``(-1)^sigma``, the
constant mode included, on a grid with as many eigenvalues below each
real root as the exact spectrum: :func:`oracle_grid` picks one.  The
matrix itself, :func:`linearization`, is the solver's Jacobian at a
constant Neumann state, which acceptance criterion 2 checks.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg
from numpy.typing import NDArray

from .model import Model

# Most nodes of an index oracle grid: 16,384 cells, or 128 x 128.
MAX_NODES = 2**14


def fd_neumann_matrix(n: int, *lengths: float) -> sp.csr_matrix:
    """Sparse cell-centered FD ``-Laplace`` with zero-flux walls on the box
    with sides ``lengths``, ``n`` cells per axis: on a rectangle the
    Kronecker sum of the axis matrices."""
    D = sp.diags([-1.0, 1.0], [0, 1], shape=(n - 1, n))  # no flux through the walls
    K = sp.csr_matrix((1, 1))  # the Kronecker sum's zero start
    for L in lengths:
        axis = (D.T @ D) / (L / n) ** 2
        K = sp.kron(K, sp.identity(n)) + sp.kron(sp.identity(K.shape[0]), axis)
    return K.tocsr()


def _below(x: float, lengths: tuple[float, ...], n: int | None = None) -> int:
    """Lattice points ``k >= 0`` below ``x`` of the exact Neumann spectrum
    ``sum_a (k_a pi / L_a)^2`` on the box, or with ``n`` of the FD one
    ``sum_a (2n / L_a)^2 sin^2(k_a pi / 2n)``, ``k_a < n``."""

    def count(s: NDArray[np.float64], L: float) -> NDArray[np.float64]:
        t = L * np.sqrt(np.maximum(s, 0.0))
        if n is None:
            return np.ceil(t / np.pi)
        return np.minimum(np.ceil(2 * n / np.pi * np.arcsin(np.minimum(t / (2 * n), 1.0))), n)

    s = np.array([x])
    for L in lengths[:-1]:  # a rectangle: one column per first-axis value below x
        k = np.arange(count(s, L)[0])
        root = k * np.pi / L if n is None else 2 * n / L * np.sin(k * np.pi / (2 * n))
        s = x - root**2
    return int(count(s, lengths[-1]).sum())


def oracle_grid(model: Model, u_star: NDArray[np.float64]) -> int:
    """The smallest ``n``, doubled from 32 cells per axis, whose FD
    spectrum has as many eigenvalues below each real root of the QZ pencil
    ``(J, A)`` as the exact one.  Raises ``ValueError`` naming the ``n`` a
    state needs when it has more than :data:`MAX_NODES` nodes.
    """
    lengths = model.domain.lengths
    mu = scipy.linalg.eig(model.jacobian_f(u_star), model.A(u_star), right=False)
    roots = mu.real[np.abs(mu.imag) <= 1e-10 * np.maximum(1.0, np.abs(mu))]
    exact = [_below(x, lengths) for x in roots]
    n = 32
    while [_below(x, lengths, n) for x in roots] != exact:
        n *= 2
        if n > 2**40:
            raise ValueError(f"index oracle: no grid up to n = 2^40 resolves mu = {mu}")
    if n ** len(lengths) > MAX_NODES:
        raise ValueError(
            f"index oracle needs n = {n} cells per axis to resolve mu = {roots}, "
            f"past its cap of {MAX_NODES} nodes"
        )
    return n


def _parity(perm: NDArray[np.intp]) -> int:
    """``(-1)^(n - cycles)``, the determinant of a permutation of ``0..n-1``."""
    perm, seen, cycles = perm.tolist(), set(), 0
    for start in perm:
        if start not in seen:
            cycles += 1
            while start not in seen:
                seen.add(start)
                start = perm[start]
    return -1 if (len(perm) - cycles) % 2 else 1


def lu_det_sign(lu: scipy.sparse.linalg.SuperLU) -> int:
    """Sign of the determinant of the matrix ``lu`` factors, 0 when a
    pivot is zero to rounding (``size * eps`` of the largest entry of
    ``U``).  SuperLU factors ``Pr M Pc = L U`` with a unit diagonal in
    ``L``, so the sign is that of ``prod diag(U)`` times the parities of
    ``perm_r`` and ``perm_c``."""
    pivots = lu.U.diagonal()
    if np.abs(pivots).min() <= pivots.size * np.finfo(float).eps * abs(lu.U).max():
        return 0
    return (-1) ** int(np.count_nonzero(pivots < 0)) * _parity(lu.perm_r) * _parity(lu.perm_c)


def linearization(model: Model, u_star: NDArray[np.float64], n: int) -> sp.csc_matrix:
    """``K_h (x) A(u*) - I (x) J(u*)`` on ``n`` cells per axis, node-major
    with the ``m`` components of a node consecutive."""
    K = fd_neumann_matrix(n, *model.domain.lengths)
    I = sp.identity(K.shape[0])
    return (sp.kron(K, model.A(u_star)) - sp.kron(I, model.jacobian_f(u_star))).tocsc()


def index_oracle(model: Model, u_star: NDArray[np.float64], n: int | None = None) -> int:
    """The discrete fixed-point index ``sign det(K_h (x) A(u*) - I (x) J(u*))``
    from one sparse LU, on :func:`oracle_grid`'s grid without ``n``.
    Raises ``ValueError`` when an eigenvalue of ``A(u*)`` has a real part
    ``<= 0`` (the sign is then not the index) or the matrix is singular.
    """
    rho = float(np.linalg.eigvals(model.A(u_star)).real.min())
    if rho <= 0.0:
        raise ValueError(
            f"index oracle: A(u*) has an eigenvalue of real part {rho:.3e} <= 0, "
            "so the sign of det(K_h (x) A - I (x) J) is not the index"
        )
    if n is None:
        n = oracle_grid(model, u_star)
    M = linearization(model, u_star, n)
    try:
        sign = lu_det_sign(scipy.sparse.linalg.splu(M, permc_spec="MMD_AT_PLUS_A"))
    except RuntimeError:  # SuperLU: "Factor is exactly singular"
        sign = 0
    if sign == 0:
        raise ValueError(f"index oracle: K_h (x) A(u*) - I (x) J(u*) is singular at n = {n}")
    return sign


def reaction_unstable_count(model: Model, u_star: NDArray[np.float64]) -> int:
    """Eigenvalues of ``J(u*)`` with positive real part (constant-mode count)."""
    J = model.jacobian_f(np.asarray(u_star, dtype=float))
    scale = max(1.0, float(np.linalg.norm(J, 2)))
    return int(np.sum(np.linalg.eigvals(J).real > 1e-10 * scale))
