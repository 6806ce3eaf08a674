import math

import numpy as np
import pytest

from leakage import (
    ChainSpec,
    HarmonicChainSpec,
    TransmonSpec,
    build_chain,
    build_harmonic_chain,
    herm_eig,
    operator_norm,
    partition_by_intervals,
    partition_by_threshold,
    transmon_bandgap,
    transmon_perturbation_norm,
)
from leakage.rng import substream

from conftest import chain_dispersion, harmonic_chain_v_norm

# frozen values, evaluated in 50-digit arithmetic
TRANSMON_GAPS_90 = {
    0: 25.792596541483591,
    1: 24.695115520105127,
    2: 23.521767521511390,
}
TRANSMON_V_NORM_90 = 0.011255627813906953


def test_spec_validation():
    with pytest.raises(ValueError):
        ChainSpec(n_cells=1)
    with pytest.raises(ValueError):
        ChainSpec(n_cells=4, disorder_strength=-0.1)
    with pytest.raises(ValueError):
        HarmonicChainSpec(n_sites=1)
    with pytest.raises(ValueError):
        HarmonicChainSpec(n_sites=3, fock_cutoff=1)
    with pytest.raises(ValueError):
        HarmonicChainSpec(n_sites=3, omega=-1.0)
    with pytest.raises(ValueError):
        TransmonSpec(ej_over_ec=-5.0, transparency_d=0.5)
    with pytest.raises(ValueError):
        TransmonSpec(ej_over_ec=90.0, transparency_d=1.0)


def test_chain_structure():
    spec = ChainSpec(n_cells=4, g1=1.0, g2=1.5, g3=2.0)
    h0, v = build_chain(spec)
    assert h0.dim == 12
    m = h0.entries
    assert m[0, 1] == 1.0 and m[1, 2] == 1.5 and m[2, 3] == 2.0
    assert m[11, 0] == 2.0  # periodic closure
    assert operator_norm(m - m.conj().T) == 0.0
    # disorder: diagonal, exact target norm
    assert np.count_nonzero(v.entries - np.diag(np.diag(v.entries))) == 0
    assert operator_norm(v.entries) == pytest.approx(0.01, rel=1e-14, abs=0.0)


def test_chain_disorder_seeding():
    a = build_chain(ChainSpec(n_cells=4, seed=0))[1]
    b = build_chain(ChainSpec(n_cells=4, seed=0))[1]
    c = build_chain(ChainSpec(n_cells=4, seed=1))[1]
    assert np.array_equal(a.entries, b.entries)
    assert not np.array_equal(a.entries, c.entries)
    z = build_chain(ChainSpec(n_cells=4, disorder_strength=0.0))[1]
    assert operator_norm(z.entries) == 0.0


@pytest.mark.parametrize("n_cells, g", [
    (2, (1.0, 1.5, 2.0)), (4, (1.0, 1.5, 2.0)), (50, (1.0, 1.5, 2.0)), (4, (0.3, -0.7, 1.1)),
])
def test_chain_matches_an_entrywise_oracle(n_cells, g):
    # site s hops to s + 1 (mod d, closing the ring) with g[s % 3]; V = diag(r), ||V|| exact
    d = 3 * n_cells
    h0 = np.zeros((d, d))
    for a in range(d):
        for b in range(d):
            if b == (a + 1) % d:
                h0[a, b] = g[a % 3]
            elif a == (b + 1) % d:
                h0[a, b] = g[b % 3]
    r = substream(5, "chain-disorder").uniform(-1.0, 1.0, size=d)
    r *= 0.02 / np.abs(r).max()
    got_h0, got_v = build_chain(ChainSpec(n_cells, *g, disorder_strength=0.02, seed=5))
    assert got_h0.entries.tobytes() == h0.tobytes()
    assert got_v.entries.tobytes() == np.diag(r).tobytes()


def test_chain_dispersion_satisfies_cubic():
    g1, g2, g3 = 1.0, 1.5, 2.0
    s = g1 * g1 + g2 * g2 + g3 * g3
    for k in np.linspace(0.0, 2.0 * math.pi, 17):
        roots = chain_dispersion(k, g1, g2, g3)
        assert np.all(np.diff(roots) >= 0)
        for e in roots:
            assert abs(e**3 - e * s - 2 * g1 * g2 * g3 * math.cos(k)) < 1e-10
        # independent oracle: numpy companion-matrix roots
        ref = np.sort(np.roots([1.0, 0.0, -s, -2 * g1 * g2 * g3 * math.cos(k)]).real)
        assert np.allclose(roots, ref, atol=1e-8)


def test_clean_chain_spectrum_is_sampled_dispersion():
    n = 10
    h0, _ = build_chain(ChainSpec(n_cells=n, disorder_strength=0.0))
    lam = np.linalg.eigvalsh(h0.entries)
    sampled = np.sort(
        np.concatenate(
            [chain_dispersion(2.0 * math.pi * m / n, 1.0, 1.5, 2.0) for m in range(n)]
        )
    )
    assert np.allclose(lam, sampled, atol=1e-10)


def test_chain_partition_gap():
    h0, _ = build_chain(ChainSpec(n_cells=50, disorder_strength=0.0))
    part = partition_by_threshold(herm_eig(h0), 0.5)
    assert part.n_groups == 3
    assert part.gap >= 1.15


def test_harmonic_chain_structure():
    spec = HarmonicChainSpec(n_sites=4, omega=10.0, g=1.0, fock_cutoff=3, v0=0.05)
    h0, v, intervals = build_harmonic_chain(spec)
    assert h0.dim == 16
    assert len(intervals) == 4
    # closed-form ladder norm against the numerical norm
    assert operator_norm(v.entries) == pytest.approx(harmonic_chain_v_norm(spec),
                                                     rel=1e-13, abs=0.0)
    assert harmonic_chain_v_norm(spec) == pytest.approx(
        0.05 * math.cos(math.pi / 5.0), rel=1e-14, abs=0.0
    )
    part = partition_by_intervals(herm_eig(h0), intervals)
    assert part.n_groups == 4
    # open-chain bands are strictly narrower than 4g, so the gap clears omega - 4g
    assert part.gap > spec.omega - 4.0 * spec.g


@pytest.mark.parametrize("n_sites, cutoff, g, v0", [
    (8, 15, 1.0, 0.3), (8, 15, 0.0, 0.3), (8, 15, 1.0, 0.0), (3, 2, 0.7, 0.25),
])
def test_harmonic_chain_matches_an_entrywise_oracle(n_sites, cutoff, g, v0):
    # state (k, i) at index k * n_sites + i: H0 has omega (k + 1/2) on the diagonal and -g
    # between neighbouring sites of one level; V has v0 / 2 between neighbouring levels of one
    # site.  g = 0 writes its hops as -0.0, which tobytes tells apart from 0.0
    omega = 7.5
    dim = (cutoff + 1) * n_sites
    h0, v = np.zeros((dim, dim)), np.zeros((dim, dim))
    for a in range(dim):
        k, i = divmod(a, n_sites)
        for b in range(dim):
            l, j = divmod(b, n_sites)
            if a == b:
                h0[a, b] = omega * (k + 0.5)
            elif k == l and abs(i - j) == 1:
                h0[a, b] = -g
            if i == j and abs(k - l) == 1:
                v[a, b] = v0 / 2.0
    bands = [(omega * (k + 0.5) - 2.0 * g, omega * (k + 0.5) + 2.0 * g)
             for k in range(cutoff + 1)]
    got_h0, got_v, intervals = build_harmonic_chain(
        HarmonicChainSpec(n_sites, omega=omega, g=g, fock_cutoff=cutoff, v0=v0))
    assert got_h0.entries.tobytes() == h0.tobytes()
    assert got_v.entries.tobytes() == v.tobytes()
    assert intervals == bands and all(type(e) is float for band in intervals for e in band)


def test_harmonic_band_eigenvalues():
    spec = HarmonicChainSpec(n_sites=5, omega=10.0, g=1.0, fock_cutoff=2)
    h0, _, _ = build_harmonic_chain(spec)
    lam = np.linalg.eigvalsh(h0.entries)
    # each band is the open-chain hopping spectrum shifted by omega(k + 1/2)
    hop = -2.0 * spec.g * np.cos(np.pi * np.arange(1, 6) / 6.0)
    expected = np.sort(
        np.concatenate([spec.omega * (k + 0.5) + hop for k in range(3)])
    )
    assert np.allclose(lam, expected, atol=1e-10)


def test_transmon_bandgap_values():
    for k, val in TRANSMON_GAPS_90.items():
        assert transmon_bandgap(k, 90.0) == pytest.approx(val, rel=1e-13, abs=0.0)
    assert TRANSMON_GAPS_90[0] > TRANSMON_GAPS_90[1] > TRANSMON_GAPS_90[2]
    with pytest.raises(ValueError):
        transmon_bandgap(-1, 90.0)
    with pytest.raises(ValueError, match="asymptotic bandgap .* not positive at k=8"):
        transmon_bandgap(8, 1.0)


def test_transmon_perturbation_norm():
    assert transmon_perturbation_norm(90.0, 1e-3) == pytest.approx(
        TRANSMON_V_NORM_90, rel=1e-13, abs=0.0
    )
    assert transmon_perturbation_norm(90.0, 1e-3) == pytest.approx(
        90.0 * 1e-3 / (8.0 * (1.0 - 5e-4)), rel=1e-14, abs=0.0
    )
