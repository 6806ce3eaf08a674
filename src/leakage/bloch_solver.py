"""Perturbative solution of the Bloch equations.

The wave operator is expanded as ``Omega = sum_j gamma^-j Omega^(j)``;
each order solves a Sylvester equation ``[H0, X] = Q_k Y P_k`` which, in
the eigenbasis of H0, reduces to entrywise division by eigenvalue
differences.  Truncation is controlled analytically through the Catalan
tail of the majorant series, never by observed term size alone.

Every operator derived from an instance lives in the H0 eigenbasis,
where the projections P_k and Q_k are the index blocks ``(g, out)`` of
the partition: ``Omega_k = Omega P_k`` is the column slice
``omega[:, g]``.  This module is the only one that converts from the
original basis, once for V and once per read of ``ProblemInstance.h_eig``.

The terms ``Omega^(j)`` do not depend on gamma.  They are computed once
per instance and truncation order: the instance caches them, as it
caches ``||V||``, so a repeat solve only redoes the gamma-dependent sum.
"""

from __future__ import annotations

import math

import numpy as np

from . import bounds
from .errors import LeakageError
from .operator_core import OperatorMatrix, operator_norm
from .record import Record
from .spectral_partition import SpectralPartition

J_MAX = 64
SERIES_TOL_DEFAULT = 1e-12
SCAN_T_MAX = 50.0   # the horizon of the invariant scan, verification.check_instance's


class ProblemInstance(Record):
    """A perturbed Hamiltonian H = gamma * H0 + V with its partition.

    ``||V||`` and the Bloch terms are computed on first use and cached on the instance, which
    is immutable, so each is computed once.  ``h_bound = gamma max|lam0| + ||V||_inf`` bounds
    ``max|lam|`` of H (Weyl, as ``||V|| <= ||V||_inf`` for a Hermitian V).  A gamma must be
    positive with ``max(dim, SCAN_T_MAX) h_bound`` finite, above every partial sum forming
    ``h_eig`` and every phase of the invariant scan, which no grid rule then refuses.
    """

    __slots__ = ("h0", "v", "gamma", "partition", "h_bound", "_cache")

    def __init__(self, h0: OperatorMatrix, v: OperatorMatrix, gamma: float,
                 partition: SpectralPartition):
        with np.errstate(all="ignore"):   # a bound that is not finite is refused, not warned of
            h_bound = float(gamma * abs(partition.eigenvalues).max() + abs(v.entries).sum(1).max())
        if not (math.isfinite(scaled := max(h0.dim, SCAN_T_MAX) * h_bound) and gamma > 0):
            raise ValueError(f"gamma must be positive and finite, as must max(dim, {SCAN_T_MAX:g})"
                             f" (gamma max|lam0| + ||V||_inf), got {gamma} and {scaled:.3g}")
        if h0.dim != v.dim:
            raise ValueError("H0 and V dimensions differ")
        if partition.dim != h0.dim:
            raise ValueError("partition dimension does not match H0")
        _cache = {}
        self._init(locals())

    @property
    def dim(self) -> int:
        return self.h0.dim

    def _cached(self, key, compute):
        if key not in self._cache:
            self._cache[key] = compute()
        return self._cache[key]

    @property
    def v_norm(self) -> float:
        return self._cached("v_norm", lambda: operator_norm(self.v.entries))

    @property
    def x(self) -> float:
        """Dimensionless bound argument ||V|| / (gamma * eta)."""
        return self.v_norm / (self.gamma * self.partition.gap)

    @property
    def h(self) -> np.ndarray:
        """``gamma * H0 + V`` in the original basis, rebuilt on each read."""
        return self.gamma * self.h0.entries + self.v.entries

    @property
    def h_eig(self) -> np.ndarray:
        """H in the H0 eigenbasis, ``u^dag H u``, symmetrized; like ``h``,
        rebuilt on each read."""
        u = self.partition.eigenvectors
        h_eig = u.conj().T @ self.h @ u
        return 0.5 * (h_eig + h_eig.conj().T)


class BlochSolution(Record):
    """Summed wave operator and per-order data of the Bloch series.

    Every operator is an array in the H0 eigenbasis: ``u^dag M u`` with
    ``u`` the partition's eigenvectors.  ``omega_terms`` stacks the
    gamma-independent ``Omega^(j)``, j = 0..J, shape (J+1, dim, dim), shared
    by every solution of the instance at ``order`` J.  ``omega`` and
    ``h_bloch`` are generally non-Hermitian.  The block wave operator
    ``Omega_k = Omega P_k`` is the column slice ``omega[:, g]`` of group k,
    and ``h_bloch`` is exactly zero off the diagonal blocks.
    """

    __slots__ = ("omega_terms", "omega", "h_bloch", "order", "tail_bound")

    def __init__(self, omega_terms: np.ndarray, omega: np.ndarray, h_bloch: np.ndarray,
                 order: int, tail_bound: float):
        self._init(locals())


def _fill_block_series(terms_eig, lam, v_eig, g, out):
    """Write the off-block columns ``Omega^(j)[out, g]``, j = 1..J, of
    ``terms_eig`` (shape (J+1, dim, dim), H0 eigenbasis).

    With ``Z_l = V[g, :] Omega^(l)[:, g]``, order j solves
    ``[H0, Omega_k^(j)] = Q_k (-V Omega_k^(j-1) + sum_{i=1}^{j-1} Omega_k^(i) Z_{j-1-i})``.
    The columns of all orders sit side by side in one buffer, stored into
    ``terms_eig`` once all are solved, and each Z_l is formed once, when
    Omega^(l) is, so the sum over i is a single GEMM against the stacked
    Z_{j-2}..Z_0.  Order J reads Z_l only up to l = J - 2, so the last two
    are never formed.
    """
    order, b = terms_eig.shape[0] - 1, len(g)
    diffs = lam[out, None] - lam[None, g]   # each at least the gap eta in size
    v_oo, v_go = v_eig[np.ix_(out, out)], v_eig[np.ix_(g, out)]
    cols = np.empty((len(out), order * b), dtype=v_eig.dtype)
    z = np.empty((max(order - 1, 1), b, b), dtype=v_eig.dtype)
    z[0] = v_eig[np.ix_(g, g)]
    y = -v_eig[np.ix_(out, g)]
    for j in range(1, order + 1):
        if j > 1:
            prev = cols[:, (j - 2) * b : (j - 1) * b]
            y = cols[:, : (j - 1) * b] @ z[j - 2 :: -1].reshape(-1, b) - v_oo @ prev
        cols[:, (j - 1) * b : j * b] = y / diffs
        if j < order - 1:
            z[j] = v_go @ cols[:, (j - 1) * b : j * b]
    terms_eig[1:, out[:, None], g] = cols.reshape(len(out), order, b).transpose(1, 0, 2)


def _series_terms(inst: ProblemInstance, order: int) -> np.ndarray:
    """The stack ``Omega^(j)``, j = 0..order, in the H0 eigenbasis, solved on
    the instance's first request for this order; ``BlochSolution`` makes it
    read-only."""

    def solve():
        part = inst.partition
        u = part.eigenvectors
        v_eig = u.conj().T @ inst.v.entries @ u
        terms = np.zeros((order + 1, inst.dim, inst.dim), dtype=v_eig.dtype)
        terms[0] = np.eye(inst.dim)
        for g, out in part.blocks:
            _fill_block_series(terms, part.eigenvalues, v_eig, g, out)
        return terms

    return inst._cached(("bloch_terms", order), solve)


def solve_bloch_series(inst: ProblemInstance, tol: float = SERIES_TOL_DEFAULT) -> BlochSolution:
    """Sum the wave-operator series to the analytically required order.

    The truncation order J is the smallest order, at most ``J_MAX``, whose
    Catalan tail ``sum_{j>J} (pi x)^j C_j`` drops below ``tol``; the
    per-term Catalan majorant guarantees this tail bounds the discarded
    operator mass.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    threshold = bounds.gamma_threshold_bloch(inst.v_norm, inst.partition.gap)
    x = inst.x
    if not bounds._in_bloch_regime(x):
        raise LeakageError(f"gamma = {inst.gamma:.6g} <= 4 pi ||V|| / eta = {threshold:.6g}")

    tails = bounds.catalan_tails(x, J_MAX)
    order = next((j for j, t in enumerate(tails) if t < tol), None)
    if order is None:
        raise LeakageError(f"Catalan tail still above tol = {tol:.1e} at order {J_MAX}")

    terms = _series_terms(inst, order)
    omega = sum(t / inst.gamma**j for j, t in enumerate(terms))
    return BlochSolution(
        omega_terms=terms,
        omega=omega,
        h_bloch=_assemble(inst, omega),
        order=order,
        tail_bound=tails[order],
    )


def _assemble(inst: ProblemInstance, omega: np.ndarray) -> np.ndarray:
    """Block-diagonal effective generator ``sum_k P_k H Omega_k``: similar
    to H through the wave operator, hence isospectral; generally
    non-Hermitian.  Block k is ``h_eig[g] @ omega[:, g]``; the off-blocks
    are exactly zero."""
    h_eig = inst.h_eig
    hb = np.zeros_like(h_eig, dtype=np.result_type(h_eig, omega))
    for g in inst.partition.groups:
        hb[np.ix_(g, g)] = h_eig[g] @ omega[:, g]
    return hb
