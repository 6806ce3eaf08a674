import csv
import dataclasses
import io
import json
import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from leakage import (
    ChainSpec,
    HarmonicChainSpec,
    OperatorMatrix,
    ProblemInstance,
    build_chain,
    build_harmonic_chain,
    epsilon_of,
    gamma_scaling_sweep,
    herm_eig,
    partition_by_intervals,
    partition_by_threshold,
    run_leakage_experiment,
    solve_bloch_series,
    sw_transform,
    truncation_convergence_study,
)
from leakage import bounds
from leakage.errors import DegenerateSweep, GroupNotPreserved, IndexOutOfRange

from conftest import make_instance


def rabi_leakage(t, v=0.05):
    """Two-level closed form: (v / w) |sin(w t)| with w = sqrt(1/4 + v^2)."""
    w = math.sqrt(0.25 + v * v)
    return v / w * abs(math.sin(w * t))


def test_leakage_two_level_closed_form(rabi_instance):
    times = [0.0, 0.3, 1.0, 3.7, 10.0, 55.5]
    leak = run_leakage_experiment(rabi_instance, times, with_distances=False).per_block_leakage
    for j, t in enumerate(times):
        ref = rabi_leakage(t)
        for k in range(2):
            assert leak[k, j] == pytest.approx(ref, abs=1e-12)


def test_experiment_report(rabi_instance):
    times = np.linspace(0.0, 20.0, 201)
    rep = run_leakage_experiment(rabi_instance, times)
    assert rep.per_block_leakage.shape == (2, 201)
    assert rep.per_block_leakage[:, 0].max() < 1e-15
    assert rep.violations == ()
    assert rep.max_leakage <= rep.bounds.epsilon
    ref = np.array([rabi_leakage(t) for t in times])
    assert np.abs(rep.per_block_leakage[0] - ref).max() < 1e-12
    # distance series start at zero and respect their eternal bounds
    assert rep.d_bloch_series is not None and rep.d_sw_series is not None
    assert rep.d_bloch_series[0] < 1e-12
    assert rep.d_sw_series[0] < 1e-12
    assert rep.d_bloch_series.max() <= rep.bounds.epsilon + 1e-9
    assert rep.d_sw_series.max() <= rep.bounds.d_sw_bound + 1e-9


def test_distance_bound_violations_are_labelled(rabi_instance, monkeypatch):
    # shrink epsilon and the SW bound below the measured series: every point
    # above a bound is reported, labelled by the series that crossed it
    real = bounds.bound_report

    def shrunk(*args):
        rep = real(*args)
        return dataclasses.replace(rep, epsilon=1e-3 * rep.epsilon,
                                   d_sw_bound=1e-3 * rep.d_sw_bound)

    monkeypatch.setattr(bounds, "bound_report", shrunk)
    times = np.linspace(0.0, 20.0, 41)
    rep = run_leakage_experiment(rabi_instance, times)
    eps, d_sw_bound = rep.bounds.epsilon, rep.bounds.d_sw_bound
    by_kind = {kind: [(k, t) for kk, k, t in rep.violations if kk == kind]
               for kind in ("leakage", "d_bloch", "d_sw")}
    assert len(rep.violations) == sum(map(len, by_kind.values()))
    assert by_kind["leakage"] == [(k, float(times[j])) for k, j in
                                  np.argwhere(rep.per_block_leakage > eps + 1e-9)]
    for kind, series, allowed in (("d_bloch", rep.d_bloch_series, eps),
                                  ("d_sw", rep.d_sw_series, d_sw_bound)):
        expected = [(None, float(t)) for t in times[series > allowed + 1e-9]]
        assert by_kind[kind] == expected and expected


def test_distances_skipped_below_threshold():
    inst = make_instance(51, 6, 2, x=0.3)  # beyond the series radius
    rep = run_leakage_experiment(inst, np.linspace(0.0, 5.0, 11))
    assert rep.d_bloch_series is None and rep.d_sw_series is None
    assert rep.bounds.epsilon is None
    assert rep.violations == ()


def test_report_serialization(rabi_instance):
    times = np.linspace(0.0, 5.0, 6)
    rep = run_leakage_experiment(rabi_instance, times)
    json.dumps(rep.to_json())  # must be plain types throughout
    rows = list(csv.reader(io.StringIO(rep.to_csv())))
    assert rows[0] == ["t", "k", "leakage", "d_bloch", "d_sw"]
    assert len(rows) == 1 + 6 * 2
    # repr round-trip keeps every float exact
    t0, k0, leak0, db0, ds0 = rows[3]
    j, k = 1, 0
    assert float(t0) == times[j] and int(k0) == k
    assert float(leak0) == rep.per_block_leakage[k, j]
    assert float(db0) == rep.d_bloch_series[j]


def expm_distances(inst, t):
    """Oracle ``(d_Bloch, d_SW)`` at time t: ``||expm(-itH) - expm(-it H_eff)||``
    with scipy's Pade expm, which exponentiates the non-Hermitian H_Bloch
    directly."""
    sol = solve_bloch_series(inst)
    true_prop = scipy.linalg.expm(-1j * t * inst.h.entries)
    return tuple(
        np.linalg.norm(true_prop - scipy.linalg.expm(-1j * t * gen.entries), 2)
        for gen in (sol.h_bloch, sw_transform(inst, sol).h_sw)
    )


def test_evolution_distance_matches_series(rabi_instance):
    times = np.linspace(0.0, 10.0, 21)
    for inst in (rabi_instance, make_instance(43, 9, 3, x=0.015)):
        rep = run_leakage_experiment(inst, times)
        assert rep.d_bloch_series is not None and rep.d_sw_series is not None
        for j in [3, 11, 20]:
            d_bloch, d_sw = expm_distances(inst, float(times[j]))
            assert rep.d_bloch_series[j] == pytest.approx(d_bloch, abs=1e-11)
            assert rep.d_sw_series[j] == pytest.approx(d_sw, abs=1e-11)


@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(3, 8), n_groups=st.integers(2, 3),
       x=st.floats(1e-3, 0.03), real=st.booleans(), t=st.floats(0.0, 20.0))
@settings(deadline=None, max_examples=40)
def test_distance_series_match_expm_on_random_instances(seed, dim, n_groups, x, real, t):
    inst = make_instance(seed, dim, n_groups, x=x, real=real)
    assert inst.h.entries.dtype == (np.float64 if real else np.complex128)
    rep = run_leakage_experiment(inst, [t])
    d_bloch, d_sw = expm_distances(inst, t)
    assert rep.d_bloch_series[0] == pytest.approx(d_bloch, abs=1e-11)
    assert rep.d_sw_series[0] == pytest.approx(d_sw, abs=1e-11)


def chain_pair():
    h0, v = build_chain(ChainSpec(n_cells=4, seed=0))
    return h0, v, lambda eig: partition_by_threshold(eig, 0.5)


def harmonic_pair():
    h0, v, intervals = build_harmonic_chain(HarmonicChainSpec(n_sites=3, fock_cutoff=5, v0=0.3))
    return h0, v, lambda eig: partition_by_intervals(eig, intervals)


@pytest.mark.parametrize("model", [chain_pair, harmonic_pair], ids=["chain", "harmonic"])
def test_real_and_complex_copies_agree(model):
    # the input dtype alone picks real or complex arithmetic; both give one answer
    h0, v, partition = model()
    times = np.linspace(0.0, 30.0, 31)
    runs = []
    for dtype in (np.float64, np.complex128):
        h0_d = OperatorMatrix(h0.entries.astype(dtype), hermitian_hint=True)
        v_d = OperatorMatrix(v.entries.astype(dtype), hermitian_hint=True)
        eig = herm_eig(h0_d)
        inst = ProblemInstance(h0_d, v_d, 1.0, partition(eig))
        sol = solve_bloch_series(inst)
        w = sw_transform(inst, sol).w.entries
        assert eig.eigenvectors.dtype == w.dtype == dtype
        assert all(term.entries.dtype == dtype for term in sol.omega_terms)
        runs.append((run_leakage_experiment(inst, times), sol.order))
    (real, real_order), (cplx, cplx_order) = runs
    assert real_order == cplx_order
    for attr in ("per_block_leakage", "d_bloch_series", "d_sw_series"):
        assert np.abs(getattr(real, attr) - getattr(cplx, attr)).max() < 1e-12
    assert real.bounds.to_json() == pytest.approx(cplx.bounds.to_json(), abs=1e-12)


def test_leakage_decreases_with_gamma():
    base = make_instance(52, 8, 2, x=0.02)
    times = np.linspace(0.0, 40.0, 161)
    res = gamma_scaling_sweep(base, [10.0, 30.0, 100.0, 300.0], times)
    assert np.all(np.diff(res.max_leakages) < 0)
    assert res.slope == pytest.approx(-1.0, abs=0.3)
    json.dumps(res.to_json())


def test_sweep_needs_enough_points():
    base = make_instance(54, 6, 2, x=0.02)
    with pytest.raises(DegenerateSweep):
        gamma_scaling_sweep(base, [10.0, 20.0, 40.0], np.linspace(0.0, 5.0, 11))


def harmonic_builder(cutoff):
    spec = HarmonicChainSpec(n_sites=4, omega=10.0, g=1.0, fock_cutoff=cutoff, v0=0.05)
    h0, v, intervals = build_harmonic_chain(spec)
    part = partition_by_intervals(herm_eig(h0), intervals)
    return ProblemInstance(h0, v, 1.0, part)


def test_truncation_study_runs():
    vals = truncation_convergence_study(harmonic_builder, [3, 5, 7], 10.0, 0)
    assert len(vals) == 3
    assert all(0.0 < v < epsilon_of(0.05 / 6.0) for v in vals)


def test_truncation_study_guards():
    with pytest.raises(ValueError):
        truncation_convergence_study(harmonic_builder, [5, 5], 10.0, 0)
    with pytest.raises(GroupNotPreserved):
        # probing a band that only exists at the larger cutoff
        truncation_convergence_study(harmonic_builder, [3, 5], 10.0, 5)


@pytest.mark.parametrize("cutoffs", [[4], [4, 6]])
def test_truncation_study_rejects_negative_group(cutoffs):
    built = []

    def builder(cutoff):
        built.append(cutoff)
        return harmonic_builder(cutoff)

    with pytest.raises(IndexOutOfRange):
        truncation_convergence_study(builder, cutoffs, 10.0, -1)
    assert built == []
