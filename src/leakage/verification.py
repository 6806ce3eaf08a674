"""Invariant suite: every analytic inequality checked on seeded instances.

The suite is the package's own regression oracle: random gapped
instances are generated with a controlled bound argument, the Bloch and
Schrieffer-Wolff constructions are run, and each closed-form inequality
is evaluated with its measured slack.  The Bloch and Schrieffer-Wolff
operators arrive in the eigenbasis of H0, where P_k and Q_k are the
partition's index blocks ``(g, out)``: ``||Q_k M P_k|| = ||M[out, g]||``,
and operator norms are those of the original basis by unitary invariance,
so no basis change and no dense projector is formed here.  Used by the
CLI ``verify`` subcommand and by the acceptance tests.

The suite reads only what the constructions could get wrong.  Facts that
hold bit for bit by construction are asserted where they are made:
``Omega P_k = P_k`` on the diagonal blocks and the exact zeros of
``H_Bloch`` off them (``tests/test_bloch_solver.py``), and the Hermitian
symmetry of ``H_SW`` and of every ``P~_k``, each symmetrized when it is
formed (``tests/test_schrieffer_wolff.py``).
"""

from __future__ import annotations

import math

import numpy as np

from . import bounds
from .bloch_solver import SCAN_T_MAX, SERIES_TOL_DEFAULT, ProblemInstance, solve_bloch_series
from .bounds import SLACK
from .dynamics import _SCREEN_MARGIN, _Evolution
from .operator_core import OperatorMatrix, herm_eig, operator_norm
from .record import ValueRecord
from .schrieffer_wolff import sw_transform
from .spectral_partition import partition_by_threshold
from .rng import substream


class InvariantResult(ValueRecord):
    """An inequality's worst value and its allowance: ``passed`` is ``measured <= allowed``."""

    __slots__ = ("name", "passed", "measured", "allowed")

    def __init__(self, name: str, measured: float, allowed: float):
        passed = bool(measured <= allowed)
        self._init(locals())


def haar_unitary(rng, dim: int) -> np.ndarray:
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_instance(rng) -> ProblemInstance:
    """Random gapped instance at gamma 1: dim 4-32, 2-4 groups and bound
    argument ``x`` uniform on [0.001, 0.02], all drawn from ``rng``.

    Eigenvalue clusters are separated by at least 1 and at most 0.3
    wide, so a split threshold of 0.5 always recovers them.
    """
    dim = int(rng.integers(4, 33))
    n_groups = int(rng.integers(2, 5))
    x_target = float(rng.uniform(0.001, 0.02))
    # cluster sizes: random composition of dim into n_groups positive parts
    cuts = np.sort(rng.choice(np.arange(1, dim), size=n_groups - 1, replace=False))
    sizes = np.diff(np.concatenate([[0], cuts, [dim]]))
    centers = np.cumsum(rng.uniform(1.3, 2.5, size=n_groups))
    lam = np.repeat(centers, sizes) + rng.uniform(-0.15, 0.15, size=dim)
    lam.sort()
    u = haar_unitary(rng, dim)
    h0 = (u * lam) @ u.conj().T
    h0 = OperatorMatrix(0.5 * (h0 + h0.conj().T))
    part = partition_by_threshold(herm_eig(h0), 0.5)
    v = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    v = 0.5 * (v + v.conj().T)
    v *= x_target * part.gap / operator_norm(v)
    return ProblemInstance(h0, OperatorMatrix(v), 1.0, part)


def check_instance(inst: ProblemInstance):
    """All operator-level invariants on one instance.

    Returns a list of :class:`InvariantResult`, one per inequality, each
    reporting the worst measured value across blocks / orders / times.
    Block conditions (``H Omega_k = Omega_k H Omega_k``, ``Q_k H_SW P_k = 0``)
    are read on index blocks of the H0 eigenbasis; the spectrum of H comes
    from the diagonalization behind the leakage scan.  ``W^dag W - 1`` alone
    stands for unitarity, since ``W W^dag - 1`` has its spectrum.  Not read,
    as they hold exactly by construction: ``P_k Omega_k = P_k``,
    ``Q_k H_Bloch P_k = 0`` and the Hermitian symmetry of ``H_SW`` and
    ``P~_k`` (see the module docstring).  The Catalan check reads
    ``||Omega^(j)||`` exactly only where the Hoelder bound
    ``sqrt(||T||_1 ||T||_inf)`` (Higham, *Accuracy and Stability of Numerical
    Algorithms*, 2nd ed., 2002, Table 6.2) of an order j >= 1 leaves it
    undecided; ``Omega^(0) = 1`` meets its majorant 1.  The float it records
    is the one exact reads of every term give.  The fixed allowances, such as
    ``1e-9 ||H||``, hold for the series truncated at the default Catalan tail
    ``SERIES_TOL_DEFAULT``, the one series this suite solves.
    """
    results = []

    def record(name, measured, allowed):
        results.append(InvariantResult(name, float(measured), float(allowed)))

    part = inst.partition
    h_eig = inst.h_eig
    h_norm = operator_norm(inst.h)
    eta = part.gap
    v_norm = inst.v_norm
    x = inst.x
    eye = np.eye(inst.dim)
    times = np.linspace(0.0, SCAN_T_MAX, 21)   # the linear-bound scan's
    evo = _Evolution(inst, times)

    sol = solve_bloch_series(inst)
    omega = sol.omega
    delta = bounds.delta_of(x)
    # 1/(1 - delta) = 1 + epsilon/2 and (1 + delta)(1 - 2 delta - delta^2)^(-1/2) = 1 + D_SW/2
    half_eps = 0.5 * bounds.epsilon_of(x)

    # Bloch equation residual on the columns c = Omega[:, g] of Omega_k:
    # H Omega_k = Omega_k H Omega_k reads h_eig c = c h_eig[g] c
    worst = 0.0
    for g in part.groups:
        c = omega[:, g]
        worst = max(worst, operator_norm(h_eig @ c - c @ (h_eig[g] @ c)))
    record("bloch_equation_residuals", worst, 10.0 * SERIES_TOL_DEFAULT * max(1.0, h_norm))

    # series closeness and Neumann chain; Omega's norms come from mu = eig(Omega^dag Omega) - 1,
    # read from Omega^dag Omega - 1 itself so that the small |mu| keep their relative accuracy
    gram = omega.conj().T @ omega
    mu = np.linalg.eigvalsh(0.5 * (gram + gram.conj().T) - eye)
    inv_root = (1.0 + mu.min()) ** -0.5
    record("omega_minus_identity_le_delta", operator_norm(omega - eye), delta + SLACK)
    record("omega_norm_le_1_plus_delta", math.sqrt(1.0 + mu.max()), 1.0 + delta + SLACK)
    record("omega_inv_norm", inv_root, 1.0 + half_eps + SLACK)
    record("omega_inv_minus_identity", operator_norm(np.linalg.inv(omega) - eye), half_eps + SLACK)

    # Catalan majorant per computed order.  A term its Hoelder bound certifies, with a margin
    # for the roundoff of the sums and of the exact read, has an excess <= 0, which the
    # running maximum's start 0.0 absorbs: the float is bit-identical to exact reads of every
    # term.  A NaN or infinite term fails the screen, and its exact read raises LinAlgError
    worst_excess = 0.0
    terms = np.abs(sol.omega_terms[1:])
    holder = np.sqrt(terms.sum(axis=1).max(axis=1) * terms.sum(axis=2).max(axis=1))
    for j, bound in enumerate(holder, start=1):
        majorant = (math.pi * v_norm / eta) ** j * bounds.catalan(j)
        if not bound * (1.0 + _SCREEN_MARGIN) <= majorant:
            worst_excess = max(worst_excess, operator_norm(sol.omega_terms[j]) - majorant)
    record("catalan_term_bounds", worst_excess, 1e-12)

    # effective-generator isospectrality
    spec_h = evo.lam
    spec_hb = np.sort(np.linalg.eigvals(sol.h_bloch).real)
    record("h_bloch_isospectral", np.abs(spec_hb - spec_h).max(), 1e-8 * h_norm)

    # Schrieffer-Wolff chain
    record("gram_minus_identity", np.abs(mu).max(), 2 * delta + delta**2 + SLACK)
    sw = sw_transform(inst, sol)
    w = sw.w
    root_inv_bound = (1.0 - 2 * delta - delta**2) ** -0.5
    record("gram_inv_sqrt_norm", inv_root, root_inv_bound + SLACK)
    record(
        "gram_inv_sqrt_minus_identity",
        max(abs(inv_root - 1.0), abs((1.0 + mu.max()) ** -0.5 - 1.0)),
        root_inv_bound - 1.0 + SLACK,
    )
    record("w_unitarity", operator_norm(w.conj().T @ w - eye), 1e-10)
    record("w_minus_identity", operator_norm(w - eye), 0.5 * bounds.sw_distance_bound(x) + SLACK)
    hs = sw.h_sw
    record("h_sw_off_block",
           max(operator_norm(hs[np.ix_(out, g)]) for g, out in part.blocks), 1e-9 * h_norm)
    record("h_sw_isospectral", np.abs(np.linalg.eigvalsh(hs) - spec_h).max(), 1e-8 * h_norm)

    # perturbed projections
    record("perturbed_projection_idempotent",
           max(operator_norm(pt @ pt - pt) for pt in sw.perturbed_projections), 1e-10)
    worst = max(operator_norm(h_eig @ pt - pt @ h_eig) for pt in sw.perturbed_projections)
    record("perturbed_projection_commutes", worst, 1e-9 * h_norm)

    # linear eternal bound on sampled times, valid for every gamma; a full scan rather
    # than max_leakage, as the benchmark pins its SVD count (ROADMAP item 3)
    worst = max(evo.leakage(k, t) for k in range(part.n_groups) for t in times)
    record("linear_leakage_bound", worst, 9.0 * math.pi * x + SLACK)

    return results


def run_suite(n_instances: int, seed: int) -> tuple:
    """Each seeded random instance's invariant records, in order of the draws."""
    if n_instances < 0:
        raise ValueError(f"n_instances must be nonnegative, got {n_instances}")
    rng = substream(seed, "invariant-suite")
    return tuple(r for _ in range(n_instances) for r in check_instance(random_instance(rng)))
