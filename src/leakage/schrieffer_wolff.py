"""Unitary Schrieffer-Wolff transformation built from the Bloch wave operator.

The polar factor ``W = Omega (Omega^dag Omega)^(-1/2)`` is the direct
rotation between the unperturbed spectral subspaces and their perturbed
counterparts; conjugating H with it yields a Hermitian block-diagonal
effective generator.  The perturbed projections are assembled from the
per-block wave operators.  Like the Bloch solution it starts from, every
operator here is in the H0 eigenbasis, where ``Omega_k`` is the column
slice ``omega[:, g]`` of group k.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import bounds
from .bloch_solver import BlochSolution, ProblemInstance
from .errors import LeakageError
from .operator_core import inv_sqrt_psd


@dataclass(frozen=True, eq=False)
class SWSolution:
    """Unitary W, Hermitian effective generator, perturbed projections,
    all arrays in the H0 eigenbasis; ``h_sw`` is block diagonal there."""

    w: np.ndarray
    h_sw: np.ndarray
    perturbed_projections: tuple    # P~_k, one array per group


def sw_transform(inst: ProblemInstance, bloch: BlochSolution) -> SWSolution:
    """Polar-unitarize the wave operator and conjugate the Hamiltonian.

    Requires delta(x) < sqrt(2) - 1, equivalently gamma above the
    Schrieffer-Wolff threshold ``2 pi / (sqrt(2) - 1) * ||V|| / eta``, so
    the Gram matrix stays safely invertible.
    """
    if not bounds._in_sw_regime(inst.x):
        threshold = bounds.gamma_threshold_sw(inst.v_norm, inst.partition.gap)
        raise LeakageError(
            f"gamma = {inst.gamma:.6g} <= 2 pi/(sqrt(2)-1) ||V||/eta = {threshold:.6g}")
    omega = bloch.omega
    gram = omega.conj().T @ omega
    w = omega @ inv_sqrt_psd(0.5 * (gram + gram.conj().T))
    h_sw = w.conj().T @ inst.h_eig @ w
    projections = tuple(
        perturbed_projection(inst, bloch, k) for k in range(inst.partition.n_groups)
    )
    return SWSolution(w=w, h_sw=0.5 * (h_sw + h_sw.conj().T),
                      perturbed_projections=projections)


def perturbed_projection(inst: ProblemInstance, bloch: BlochSolution, k: int) -> np.ndarray:
    """Spectral projection of H onto the k-th deformed subspace.

    ``P~_k = Omega_k (Omega_k^dag Omega_k)^-1 Omega_k^dag`` with the Gram
    inverse taken on the range of P_k.  Hermitian, idempotent, commutes
    with H, and tends to P_k as gamma grows.
    """
    # columns of Omega_k on the range of P_k: dim x |group|
    cols = bloch.omega[:, inst.partition.groups[k]]
    gram = cols.conj().T @ cols
    cond = np.linalg.cond(gram)
    if not np.isfinite(cond) or cond > 1e12:
        raise LeakageError(f"block Gram matrix for group {k} has condition {cond:.3e}")
    p = cols @ np.linalg.solve(gram, cols.conj().T)
    return 0.5 * (p + p.conj().T)
