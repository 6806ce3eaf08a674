import math

import numpy as np
import pytest

from leakage import (
    HarmonicChainSpec,
    OperatorMatrix,
    ProblemInstance,
    SpectralPartition,
    build_harmonic_chain,
    herm_eig,
    operator_norm,
    partition_by_intervals,
    partition_by_threshold,
)

SX = np.array([[0.0, 1.0], [1.0, 0.0]])


def random_hermitian(rng, dim, real=False):
    m = rng.normal(size=(dim, dim))
    if not real:
        m = m + 1j * rng.normal(size=(dim, dim))
    m = 0.5 * (m + m.conj().T)
    return m


def clustered_h0(rng, dim, n_groups, spread=0.15, min_sep=1.3, max_sep=2.5, real=False):
    """Random Hermitian (real symmetric if ``real``) with eigenvalues in
    well-separated clusters."""
    cuts = np.sort(rng.choice(np.arange(1, dim), size=n_groups - 1, replace=False))
    sizes = np.diff(np.concatenate([[0], cuts, [dim]]))
    centers = np.cumsum(rng.uniform(min_sep, max_sep, size=n_groups))
    lam = np.concatenate(
        [c + rng.uniform(-spread, spread, size=s) for c, s in zip(centers, sizes)]
    )
    lam.sort()
    z = rng.normal(size=(dim, dim))
    if not real:
        z = z + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    q = q * (np.diag(r) / np.abs(np.diag(r)))
    h = (q * lam) @ q.conj().T
    return OperatorMatrix(0.5 * (h + h.conj().T))


def to_original(inst, m):
    """``u m u^dag``: an operator of the H0 eigenbasis, where the package
    keeps every derived operator, in the original basis of H0 and V."""
    u = inst.partition.eigenvectors
    return u @ m @ u.conj().T


def dense_projection(inst, k):
    """P_k in the original basis, built from the eigenvectors of group k."""
    u_k = inst.partition.eigenvectors[:, inst.partition.groups[k]]
    return u_k @ u_k.conj().T


def make_instance(seed, dim, n_groups, x=0.01, gamma=1.0, real=False):
    """Seeded gapped instance with bound argument exactly x; real symmetric
    H0 and V if ``real``."""
    rng = np.random.default_rng(seed)
    h0 = clustered_h0(rng, dim, n_groups, real=real)
    part = partition_by_threshold(herm_eig(h0), 0.5)
    v = random_hermitian(rng, dim, real)
    v *= x * gamma * part.gap / operator_norm(v)
    return ProblemInstance(h0, OperatorMatrix(v), gamma, part)


def interleaved_instance(seed, dim, step, x, real):
    """Group k holds levels k, k + step, ...: the groups' spectral ranges overlap,
    and the gap is the smallest spacing of adjacent levels."""
    rng = np.random.default_rng(seed)
    h0 = clustered_h0(rng, dim, dim, spread=0.0, min_sep=1.0, max_sep=2.0, real=real)
    part = SpectralPartition(*herm_eig(h0), [np.arange(k, dim, step) for k in range(step)])
    v = random_hermitian(rng, dim, real)
    v *= x * part.gap / operator_norm(v)
    return ProblemInstance(h0, OperatorMatrix(v), 1.0, part)


def grouped_instance(seed, dim, groups, x, real):
    """Three contiguous clusters for ``groups == "clusters"``, else ``groups``
    interleaved groups."""
    if groups == "clusters":
        return make_instance(seed, dim, 3, x=x, real=real)
    return interleaved_instance(seed, dim, groups, x, real)


def deep_harmonic_instance():
    """The 8-site harmonic chain at Fock cutoff 15 and v0 0.3: dim 128 in 16 bands of
    8 levels, summed to Bloch order 42."""
    spec = HarmonicChainSpec(n_sites=8, omega=10.0, g=1.0, fock_cutoff=15, v0=0.3)
    h0, v, intervals = build_harmonic_chain(spec)
    return ProblemInstance(h0, v, 1.0, partition_by_intervals(herm_eig(h0), intervals))


def chain_dispersion(k: float, g1: float, g2: float, g3: float):
    """Three band energies at quasi-momentum ``k``, ascending.

    Roots of the depressed cubic ``E^3 - E (g1^2+g2^2+g3^2)
    - 2 g1 g2 g3 cos k = 0``, evaluated with the trigonometric formula
    (the discriminant is nonpositive, so all roots are real).
    """
    p = -(g1 * g1 + g2 * g2 + g3 * g3)
    q = -2.0 * g1 * g2 * g3 * math.cos(k)
    if p == 0.0:
        root = -np.cbrt(q)
        return np.array([root, root, root])
    amp = 2.0 * math.sqrt(-p / 3.0)
    arg = 3.0 * q / (amp * p)  # = 3q/p * sqrt(-3/p) / 3
    arg = min(1.0, max(-1.0, arg))
    phi = math.acos(arg)
    roots = amp * np.cos((phi - 2.0 * math.pi * np.arange(3)) / 3.0)
    return np.sort(roots)


def harmonic_chain_v_norm(spec: HarmonicChainSpec) -> float:
    """Actual norm of the constructed ladder perturbation.

    Closed form ``v0 * cos(pi / (fock_cutoff + 2))``: the ladder is a
    tridiagonal 0/1 matrix on cutoff+1 levels, identity over sites.
    """
    return spec.v0 * math.cos(math.pi / (spec.fock_cutoff + 2))


@pytest.fixture
def rabi_instance():
    """Two-level instance with closed-form everything."""
    h0 = OperatorMatrix(np.diag([0.0, 1.0]))
    v = OperatorMatrix(0.05 * SX)
    part = partition_by_threshold(herm_eig(h0), 0.5)
    return ProblemInstance(h0, v, 1.0, part)
