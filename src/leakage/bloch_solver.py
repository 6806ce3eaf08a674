"""Perturbative solution of the Bloch equations.

The wave operator is expanded as ``Omega = sum_j gamma^-j Omega^(j)``;
each order solves a Sylvester equation ``[H0, X] = Q_k Y P_k`` which, in
the eigenbasis of H0, reduces to entrywise division by eigenvalue
differences.  Truncation is controlled analytically through the Catalan
tail of the majorant series, never by observed term size alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import bounds
from .errors import GammaBelowThreshold, NotConverged, ZeroGap
from .operator_core import OperatorMatrix, operator_norm
from .spectral_partition import SpectralPartition

J_MAX_DEFAULT = 64
SERIES_TOL_DEFAULT = 1e-12


@dataclass(frozen=True)
class ProblemInstance:
    """A perturbed Hamiltonian H = gamma * H0 + V with its partition."""

    h0: OperatorMatrix
    v: OperatorMatrix
    gamma: float
    partition: SpectralPartition

    def __post_init__(self):
        if self.gamma <= 0:
            raise ValueError("gamma must be positive")
        if self.h0.dim != self.v.dim:
            raise ValueError("H0 and V dimensions differ")
        if self.partition.dim != self.h0.dim:
            raise ValueError("partition dimension does not match H0")

    @property
    def dim(self) -> int:
        return self.h0.dim

    @property
    def v_norm(self) -> float:
        return operator_norm(self.v)

    @property
    def x(self) -> float:
        """Dimensionless bound argument ||V|| / (gamma * eta)."""
        return self.v_norm / (self.gamma * self.partition.gap)

    @property
    def h(self) -> OperatorMatrix:
        return OperatorMatrix(
            self.gamma * self.h0.entries + self.v.entries, hermitian_hint=True
        )


@dataclass(frozen=True)
class BlochSolution:
    """Summed wave operator and per-order data of the Bloch series."""

    omega_terms: tuple          # Omega^(j), j = 0..J, gamma-independent
    omega: OperatorMatrix
    omega_blocks: tuple         # Omega_k = Omega P_k
    h_bloch: OperatorMatrix
    order: int                  # truncation order J
    tail_bound: float
    delta_bound: float


def _gap_divisors(lam, g, out, eta):
    """Eigenvalue differences ``lam[out, None] - lam[None, g]`` dividing the
    Sylvester solution on the off-block; any below eta/2 means the
    partition data are inconsistent."""
    diffs = lam[out, None] - lam[None, g]
    if diffs.size and np.abs(diffs).min() < eta / 2.0:
        raise ZeroGap(
            f"eigenvalue difference {np.abs(diffs).min():.3e} below eta/2 = {eta / 2:.3e}",
            operation="solve_bloch_series",
        )
    return diffs


def _fill_block_series(terms_eig, lam, v_eig, g, out, eta):
    """Write the off-block columns ``Omega^(j)[out, g]``, j = 1..J, of
    ``terms_eig`` (shape (J+1, dim, dim), H0 eigenbasis).

    With ``Z_l = V[g, :] Omega^(l)[:, g]``, order j solves
    ``[H0, Omega_k^(j)] = Q_k (-V Omega_k^(j-1) + sum_{i=1}^{j-1} Omega_k^(i) Z_{j-1-i})``.
    The columns of all orders sit side by side in one buffer and each
    Z_l is formed once, when Omega^(l) is, so the sum over i is a single
    GEMM against the stacked Z_{j-2}..Z_0.
    """
    order, b = terms_eig.shape[0] - 1, len(g)
    diffs = _gap_divisors(lam, g, out, eta)
    off_block = np.ix_(out, g)
    v_oo, v_go = v_eig[np.ix_(out, out)], v_eig[np.ix_(g, out)]
    cols = np.empty((len(out), order * b), dtype=v_eig.dtype)
    z = np.empty((order + 1, b, b), dtype=v_eig.dtype)
    z[0] = v_eig[np.ix_(g, g)]
    y = -v_eig[off_block]
    for j in range(1, order + 1):
        if j > 1:
            prev = cols[:, (j - 2) * b : (j - 1) * b]
            y = cols[:, : (j - 1) * b] @ z[j - 2 :: -1].reshape(-1, b) - v_oo @ prev
        cols[:, (j - 1) * b : j * b] = y / diffs
        terms_eig[j][off_block] = cols[:, (j - 1) * b : j * b]
        z[j] = v_go @ cols[:, (j - 1) * b : j * b]


def solve_bloch_series(
    inst: ProblemInstance,
    tol: float = SERIES_TOL_DEFAULT,
    j_max: int = J_MAX_DEFAULT,
) -> BlochSolution:
    """Sum the wave-operator series to the analytically required order.

    The truncation order J is the smallest order whose Catalan tail
    ``sum_{j>J} (pi x)^j C_j`` drops below ``tol``; the per-term Catalan
    majorant guarantees this tail bounds the discarded operator mass.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    eta = inst.partition.gap
    v_norm = inst.v_norm
    threshold = bounds.gamma_threshold_bloch(v_norm, eta)
    if inst.gamma <= threshold:
        raise GammaBelowThreshold(
            f"gamma = {inst.gamma:.6g} <= 4 pi ||V|| / eta = {threshold:.6g}",
            operation="solve_bloch_series",
        )
    x = inst.x

    tails = bounds.catalan_tails(x, j_max)
    order = next((j for j, t in enumerate(tails) if t < tol), None)
    if order is None:
        raise NotConverged(
            f"Catalan tail still above tol = {tol:.1e} at order {j_max}",
            operation="solve_bloch_series",
        )

    part = inst.partition
    u = part.eig.eigenvectors
    lam = part.eig.eigenvalues
    v_eig = u.conj().T @ inst.v.entries @ u

    terms_eig = np.zeros((order + 1, inst.dim, inst.dim), dtype=v_eig.dtype)
    terms_eig[0] = np.eye(inst.dim)
    for g, out in part.blocks:
        _fill_block_series(terms_eig, lam, v_eig, g, out, eta)

    omega_eig = sum(
        t / inst.gamma**j for j, t in enumerate(terms_eig)
    )
    omega_u = u @ omega_eig
    omega = OperatorMatrix(omega_u @ u.conj().T)
    u_groups = [u[:, g] for g in part.groups]
    omega_cols = [omega_u[:, g] for g in part.groups]
    omega_terms = tuple(OperatorMatrix(u @ t @ u.conj().T) for t in terms_eig)
    omega_blocks = tuple(
        OperatorMatrix(c @ u_k.conj().T) for u_k, c in zip(u_groups, omega_cols)
    )
    return BlochSolution(
        omega_terms=omega_terms,
        omega=omega,
        omega_blocks=omega_blocks,
        h_bloch=_assemble(inst, u_groups, omega_cols),
        order=order,
        tail_bound=tails[order],
        delta_bound=bounds.delta_of(x),
    )


def _assemble(inst: ProblemInstance, u_groups, omega_cols) -> OperatorMatrix:
    """Block-diagonal effective generator ``sum_k P_k H Omega_k``: similar
    to H through the wave operator, hence isospectral; generally
    non-Hermitian.  With the group's H0 eigenvectors ``u_k`` and
    ``c_k = Omega u_k``, each term is ``u_k (u_k^dag H c_k) u_k^dag``."""
    h = inst.h.entries
    return OperatorMatrix(sum(
        u_k @ (u_k.conj().T @ h @ c) @ u_k.conj().T for u_k, c in zip(u_groups, omega_cols)
    ))
