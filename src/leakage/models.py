"""Built-in physical models.

Three systems exercise the bound machinery: a tight-binding ring with a
three-site unit cell and diagonal disorder, a Fock-truncated chain of
coupled oscillators with a band-coupling ladder perturbation, and the
transmon band structure treated at the level of its asymptotic formulas.
The oscillator chain and the transmon each have a closed-form leakage
bound, epsilon(x) at the model's own ``x``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bounds import epsilon_of
from .operator_core import OperatorMatrix
from .rng import substream


@dataclass(frozen=True)
class ChainSpec:
    """Tight-binding ring of ``n_cells`` three-site unit cells.

    ``disorder_strength`` is the exact target operator norm of the
    diagonal disorder; the raw uniform draw is rescaled to hit it.
    """

    n_cells: int
    g1: float = 1.0
    g2: float = 1.5
    g3: float = 2.0
    disorder_strength: float = 0.01
    seed: int = 0

    def __post_init__(self):
        if self.n_cells < 2:
            raise ValueError("need at least two unit cells")
        if self.disorder_strength < 0:
            raise ValueError("disorder_strength must be nonnegative")


@dataclass(frozen=True)
class HarmonicChainSpec:
    """Open chain of oscillators, one global Fock ladder per site sector.

    Basis states carry a Fock level k = 0..fock_cutoff and a site index;
    the dimension is ``(fock_cutoff + 1) * n_sites``.
    """

    n_sites: int
    omega: float = 10.0
    g: float = 1.0
    fock_cutoff: int = 3
    v0: float = 0.0

    def __post_init__(self):
        if self.n_sites < 2:
            raise ValueError("need at least two sites")
        if self.fock_cutoff < 2:
            raise ValueError("fock_cutoff must be at least 2")
        if self.omega <= 0 or self.g < 0 or self.v0 < 0:
            raise ValueError("omega must be positive, g and v0 nonnegative")


@dataclass(frozen=True)
class TransmonSpec:
    """Josephson-junction parameters in units of the charge energy."""

    ej_over_ec: float
    transparency_d: float

    def __post_init__(self):
        if self.ej_over_ec <= 0:
            raise ValueError("ej_over_ec must be positive")
        if not 0.0 < self.transparency_d < 1.0:
            raise ValueError("transparency_d must lie in (0, 1)")


def build_chain(spec: ChainSpec):
    """Hamiltonian pair (H0, V) for the disordered tight-binding ring.

    With ``j = 3 * arange(n_cells)`` and ``d = 3 n_cells``, H0 is symmetric with
    ``H0[j, j+1] = g1``, ``H0[j+1, j+2] = g2`` and ``H0[j+2, (j+3) % d] = g3``,
    the last closing the ring.  ``V = diag(r)``, ``r`` uniform on [-1, 1]
    rescaled so that ``||V|| = max|r|`` is ``disorder_strength`` exactly.
    """
    d = 3 * spec.n_cells
    j = 3 * np.arange(spec.n_cells)
    h0 = np.zeros((d, d))
    h0[j, j + 1] = spec.g1
    h0[j + 1, j + 2] = spec.g2
    h0[j + 2, (j + 3) % d] = spec.g3
    h0 = h0 + h0.T
    rng = substream(spec.seed, "chain-disorder")
    r = rng.uniform(-1.0, 1.0, size=d)
    if spec.disorder_strength > 0:
        r *= spec.disorder_strength / np.abs(r).max()
    else:
        r = np.zeros(d)
    return (
        OperatorMatrix(h0),
        OperatorMatrix(np.diag(r)),
    )


def build_harmonic_chain(spec: HarmonicChainSpec):
    """Hamiltonian pair (H0, V) and band intervals for the oscillator chain.

    State (k, i), Fock level k on site i, has index ``k * n_sites + i``.  With
    ``levels = omega * (arange(fock_cutoff + 1) + 1/2)`` and ``A_m`` the m-site
    open path's adjacency (``A_m[i, i+1] = A_m[i+1, i] = 1``),
    ``H0 = kron(diag(levels), eye(n_sites)) - g kron(eye(fock_cutoff + 1), A_n_sites)``
    and ``V = (v0 / 2) kron(A_(fock_cutoff + 1), eye(n_sites))``, whose norm
    approaches v0 from below as the cutoff grows.

    Returns ``(h0, v, intervals)``, where interval k is ``levels[k] +- 2 g``,
    which holds level k's band, usable with ``partition_by_intervals``.
    """
    n = spec.n_sites
    levels = spec.omega * (np.arange(spec.fock_cutoff + 1) + 0.5)
    h0 = np.kron(np.diag(levels), np.eye(n))
    # the hops are assigned, not scaled, so g = 0 writes them as -0.0, as `model --emit` prints
    hop = np.arange(h0.shape[0] - 1)
    hop = hop[hop % n != n - 1]   # (k, i) -> (k, i + 1)
    h0[hop, hop + 1] = h0[hop + 1, hop] = -spec.g
    rung = np.arange(h0.shape[0] - n)   # (k, i) -> (k + 1, i)
    v = np.zeros_like(h0)
    v[rung, rung + n] = v[rung + n, rung] = spec.v0 / 2.0
    intervals = [(lvl - 2.0 * spec.g, lvl + 2.0 * spec.g) for lvl in levels.tolist()]
    return (
        OperatorMatrix(h0),
        OperatorMatrix(v),
        intervals,
    )


def transmon_bandgap(k: int, ej_over_ec: float) -> float:
    """Asymptotic k-th bandgap of the cosine-potential band structure,
    in units of the charge energy.

    Evaluates the four explicit terms of the large-``E_J/E_C`` expansion
    (the higher-order remainder is dropped); accuracy degrades for large
    band index k.
    """
    if k < 0:
        raise ValueError("band index must be nonnegative")
    z = math.sqrt(ej_over_ec / 2.0)
    term0 = 4.0 * z - 1.0 - k
    term1 = (
        3.0 / 32.0 + 3.0 / 32.0 * (2 * k + 1) + (3 * k * k + 3 * k + 1) / 16.0
    ) / z
    term2 = (
        3.0 / 256.0
        + (2 * k + 1) / 16.0
        + 5.0 / 128.0 * (3 * k * k + 3 * k + 1)
        + 5.0 / 256.0 * (4 * k**3 + 5 * k * k + 4 * k + 1)
    ) / (z * z)
    gap = term0 - term1 - term2
    if gap <= 0:
        raise ValueError(
            f"asymptotic bandgap {gap:.6g} not positive at k={k}, ej_over_ec={ej_over_ec}")
    return gap


def transmon_perturbation_norm(ej_over_ec: float, transparency_d: float) -> float:
    """Norm bound on the beyond-cosine barrier terms, in charge-energy units.

    ``E_J/E_C * D / (8 (1 - D/2))`` for transmission coefficient D.
    """
    d = transparency_d
    return ej_over_ec * d / (8.0 * (1.0 - d / 2.0))


def harmonic_chain_bound(v0: float, omega: float, g: float) -> float:
    """Leakage bound for the coupled-band oscillator chain.

    ``(1 - 4 pi v0 / (omega - 4 g))^(-1/2) - 1`` in the weak-coupling
    regime omega > 4 g; equals ``epsilon_of(v0 / (omega - 4 g))``.
    """
    eta = omega - 4.0 * g
    if eta <= 0:
        raise ValueError(f"omega - 4 g = {eta:.6g} <= 0")
    return epsilon_of(v0 / eta)


def transmon_leakage_bound(ej_over_ec: float, transparency_d: float) -> float:
    """Leakage bound for a transmon with a finite-transparency barrier.

    Combines the asymptotic k = 1 bandgap with the perturbation-norm
    bound ``E_J D / (8 (1 - D/2))``; both in units of the charge energy.
    """
    eta = transmon_bandgap(1, ej_over_ec)  # raises ValueError unless eta > 0
    v_norm = transmon_perturbation_norm(ej_over_ec, transparency_d)
    return epsilon_of(v_norm / eta)
