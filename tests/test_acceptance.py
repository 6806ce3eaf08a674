"""End-to-end acceptance checks, one test per criterion.

Each test prints a single summary line after its assertions pass, so a
verbose run reads as a pass/fail scorecard.  Budgets are wall-clock
upper limits enforced alongside the numerical targets.
"""

import math
import time

import numpy as np
import pytest

from leakage import (
    ChainSpec,
    HarmonicChainSpec,
    OperatorMatrix,
    ProblemInstance,
    bound_report,
    build_chain,
    build_harmonic_chain,
    delta_of,
    epsilon_of,
    gamma_scaling_sweep,
    herm_eig,
    max_leakage,
    partition_by_intervals,
    partition_by_threshold,
    run_suite,
    transmon_leakage_bound,
    truncation_convergence_study,
)
from leakage.bounds import SLACK

SX = np.array([[0.0, 1.0], [1.0, 0.0]])


def chain_instance(seed, gamma=1.0, n_cells=50):
    h0, v = build_chain(ChainSpec(n_cells=n_cells, g1=1.0, g2=1.5, g3=2.0,
                                  disorder_strength=0.01, seed=seed))
    part = partition_by_threshold(herm_eig(h0), 0.5)
    return ProblemInstance(h0, v, gamma, part)


def test_criterion_1_chain_bound_value():
    start = time.perf_counter()
    inst = chain_instance(seed=0)
    assert inst.partition.gap >= 1.15
    assert inst.v_norm == pytest.approx(0.01, rel=1e-12)
    rep = bound_report(inst.v_norm, inst.gamma, inst.partition.gap)
    assert rep.epsilon == pytest.approx(0.0596, abs=5e-4)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"\nPASS criterion 1: chain bound epsilon = {rep.epsilon:.6f} "
          f"(target 0.0596 +- 5e-4) in {elapsed:.2f} s")


def test_criterion_2_chain_simulation_five_seeds():
    start = time.perf_counter()
    times = np.linspace(0.0, 200.0, 2001)
    maxima = []
    for seed in range(5):
        inst = chain_instance(seed=seed)
        peak = max_leakage(inst, times)
        assert 0.003 <= peak <= 0.008
        assert peak <= 0.0596 + 1e-9
        # no violation, by the test run_leakage_experiment applies at each point
        assert peak <= bound_report(inst.v_norm, inst.gamma, inst.partition.gap).epsilon + SLACK
        maxima.append(peak)
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    print(f"\nPASS criterion 2: per-seed max leakage "
          f"{', '.join(f'{m:.5f}' for m in maxima)} all in [0.003, 0.008] "
          f"in {elapsed:.1f} s")


def test_criterion_3_transmon_bound():
    start = time.perf_counter()
    bound = transmon_leakage_bound(90.0, 1e-3)
    assert bound < 3e-3
    assert bound == pytest.approx(2.9e-3, abs=2e-4)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"\nPASS criterion 3: transmon bound {bound:.6f} < 3e-3 "
          f"in {elapsed:.3f} s")


def test_criterion_4_two_level_oracle():
    start = time.perf_counter()
    h0 = OperatorMatrix(np.diag([0.0, 1.0]))
    v = OperatorMatrix(0.05 * SX)
    part = partition_by_threshold(herm_eig(h0), 0.5)
    inst = ProblemInstance(h0, v, 1.0, part)
    times = np.linspace(0.0, 200.0, 20001)
    peak = max_leakage(inst, times)
    # closed form: max over t of (v / w)|sin(w t)| = v / sqrt(1/4 + v^2)
    assert peak == pytest.approx(0.099504, abs=1e-6)
    assert peak <= epsilon_of(0.05)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    print(f"\nPASS criterion 4: two-level max leakage {peak:.8f} "
          f"(target 0.099504 +- 1e-6) in {elapsed:.1f} s")


def test_criterion_5_gamma_scaling_slope():
    start = time.perf_counter()
    template = chain_instance(seed=0)
    times = np.linspace(0.0, 200.0, 2001)
    res = gamma_scaling_sweep(template, [10.0, 30.0, 100.0, 300.0, 1000.0], times)
    assert res.slope == pytest.approx(-1.0, abs=0.15)
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    print(f"\nPASS criterion 5: log-log slope {res.slope:.4f} "
          f"(target -1 +- 0.15) in {elapsed:.1f} s")


def test_criterion_6_invariant_suite():
    start = time.perf_counter()
    suite = run_suite(n_instances=100, seed=0)
    failures = [r for r in suite.results if not r.passed]
    assert failures == []
    elapsed = time.perf_counter() - start
    assert elapsed < 600.0
    print(f"\nPASS criterion 6: {len(suite.results)} invariant checks on "
          f"100 instances, zero failures, in {elapsed:.1f} s")


def test_criterion_7_truncation_convergence():
    start = time.perf_counter()

    def builder(cutoff):
        spec = HarmonicChainSpec(n_sites=4, omega=10.0, g=1.0,
                                 fock_cutoff=cutoff, v0=0.05)
        h0, v, intervals = build_harmonic_chain(spec)
        part = partition_by_intervals(herm_eig(h0), intervals)
        return ProblemInstance(h0, v, 1.0, part)

    lo, hi = truncation_convergence_study(builder, [12, 16], 50.0, 0)
    diff = abs(hi - lo)
    assert diff <= 1e-6
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    print(f"\nPASS criterion 7: |L(cutoff 16) - L(cutoff 12)| = {diff:.2e} "
          f"<= 1e-6 in {elapsed:.1f} s")


def test_criterion_8_scalar_identity_grid():
    start = time.perf_counter()
    x_edge = 1.0 / (4.0 * math.pi)
    grid = np.linspace(x_edge / 1000.0, 0.999 * x_edge, 1000)
    for x in grid:
        d = delta_of(x)
        assert epsilon_of(x) == pytest.approx(2.0 * d / (1.0 - d), rel=1e-12)
    x_star = 2.0 / (9.0 * math.pi)
    for x in np.linspace(x_star / 1000.0, x_star, 1000):
        assert epsilon_of(x) <= 9.0 * math.pi * x + 1e-12
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"\nPASS criterion 8: epsilon = 2 delta / (1 - delta) to 1e-12 and "
          f"epsilon <= 9 pi x on 1000-point grids in {elapsed:.2f} s")
