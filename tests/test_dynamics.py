import csv
import io
import json
import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from leakage import (
    ChainSpec,
    HarmonicChainSpec,
    LeakageReport,
    OperatorMatrix,
    ProblemInstance,
    SpectralPartition,
    build_chain,
    build_harmonic_chain,
    epsilon_of,
    gamma_scaling_sweep,
    herm_eig,
    max_leakage,
    partition_by_intervals,
    partition_by_threshold,
    random_instance,
    run_leakage_experiment,
    solve_bloch_series,
    sw_transform,
    truncation_convergence_study,
)
from leakage import bounds, dynamics
from leakage.errors import LeakageError

from conftest import (
    deep_harmonic_instance,
    dense_projection,
    interleaved_instance,
    make_instance,
    replace_fields,
    to_original,
)


def rabi_leakage(t, v=0.05):
    """Two-level closed form: (v / w) |sin(w t)| with w = sqrt(1/4 + v^2)."""
    w = math.sqrt(0.25 + v * v)
    return v / w * abs(math.sin(w * t))


def test_leakage_two_level_closed_form(rabi_instance):
    times = [0.0, 0.3, 1.0, 3.7, 10.0, 55.5]
    leak = run_leakage_experiment(rabi_instance, times).per_block_leakage
    for j, t in enumerate(times):
        ref = rabi_leakage(t)
        for k in range(2):
            assert leak[k, j] == pytest.approx(ref, abs=1e-12)


def dense_leakage(inst, t):
    """Oracle: ``||Q_k expm(-itH) P_k||_2`` per block, with dense projectors
    built from the H0 eigenvectors."""
    prop = scipy.linalg.expm(-1j * t * inst.h)
    eye = np.eye(inst.partition.dim)
    values = []
    for k in range(inst.partition.n_groups):
        p = dense_projection(inst, k)
        values.append(np.linalg.norm((eye - p) @ prop @ p, 2))
    return np.array(values)


@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(2, 10), n_groups=st.integers(2, 3),
       x=st.floats(1e-3, 0.05), real=st.booleans(), t=st.floats(0.0, 50.0))
@settings(deadline=None, max_examples=60)
def test_leakage_matches_dense_expm_on_random_instances(seed, dim, n_groups, x, real, t):
    inst = make_instance(seed, dim, min(n_groups, dim), x=x, real=real)
    leak = run_leakage_experiment(inst, [t]).per_block_leakage[:, 0]
    assert np.abs(leak - dense_leakage(inst, t)).max() < 1e-12


@pytest.mark.parametrize("case, real, sizes, times", [
    # groups of 6, 2 and 1 levels in dim 9: the first is larger than its complement,
    # the others smaller, so the product's Gram is read on both of its sides
    ("clusters", False, [6, 2, 1], [0.7, 3.1, 12.0]),
    ("clusters", True, [6, 2, 1], [0.7, 3.1, 12.0]),
    # two interleaved groups of 3 in dim 6: |g| == |out|
    ("tie", False, [3, 3], [0.7, 3.1, 12.0]),
    ("tie", True, [3, 3], [0.7, 3.1, 12.0]),
    # the harmonic chain's 16 bands of 8 levels in dim 128: |g| << |out|
    ("harmonic", True, [8] * 16, [0.3, 1.1, 2.9]),
], ids=["complex", "real", "tie-complex", "tie-real", "harmonic-real"])
def test_leakage_reads_both_gram_sides(case, real, sizes, times):
    if case == "clusters":
        inst = make_instance(0, 9, 3, x=0.03, real=real)
    elif case == "tie":
        inst = interleaved_instance(0, 6, 2, 0.03, real)
    else:
        inst = deep_harmonic_instance()
    assert [len(g) for g, _ in inst.partition.blocks] == sizes
    assert np.isrealobj(inst.h_eig) == real
    leak = run_leakage_experiment(inst, times).per_block_leakage
    for j, t in enumerate(times):
        assert np.abs(leak[:, j] - dense_leakage(inst, t)).max() < 1e-12
    assert leak.min() > 1e-4
    assert max_leakage(inst, times) == leak.max()


def eternal_leakage_bound(inst):
    """``sin 2 theta_max`` per block, from this test's own eigensolve of H.

    For unit ``x`` in the range of ``P_k`` and ``U = e^{-itH}``, which commutes with H's
    spectral projection ``P~_k``, ``||P_k U x|| >= cos^2 theta_max - sin^2 theta_max``, and
    ``||Q_k U x||^2 = 1 - ||P_k U x||^2``, so ``||Q_k U P_k|| <= sin 2 theta_max`` at every t
    while ``theta_max <= pi/4``.  With
    contiguous groups and ``||V|| < gamma eta / 2``, Weyl keeps H's band k at the indices
    of group k, so ``sin theta_max = ||S[out, g]||`` for H's eigenvectors ``S``.
    """
    assert all(np.array_equal(g, np.arange(g[0], g[-1] + 1)) for g in inst.partition.groups)
    assert inst.v_norm < 0.5 * inst.gamma * inst.partition.gap
    s = np.linalg.eigh(inst.h_eig)[1]
    sines = np.array([np.linalg.norm(s[np.ix_(out, g)], 2) for g, out in inst.partition.blocks])
    assert sines.max() <= math.sqrt(0.5)
    return 2.0 * sines * np.sqrt(1.0 - sines**2)


@pytest.mark.parametrize("draw", ["chain", *range(8)])
def test_leakage_stays_below_the_eternal_angle_bound(draw):
    # the chain's three bands, or a random_instance of dim 4-32 in 2-4 groups; the grid
    # maxima reach 0.97-0.996 of the bound, so a read 1 % too large fails on most draws
    if draw == "chain":
        h0, v, partition = chain_pair()
        inst = ProblemInstance(h0, v, 1.0, partition(herm_eig(h0)))
    else:
        inst = random_instance(np.random.default_rng(draw))
    bound = eternal_leakage_bound(inst)
    leak = run_leakage_experiment(inst, np.linspace(0.0, 200.0, 401)).per_block_leakage
    assert np.all(leak <= bound[:, None] * (1.0 + 1e-9))


def test_two_level_leakage_reaches_the_eternal_angle_bound(rabi_instance):
    lam = np.linalg.eigvalsh(rabi_instance.h)
    leak = run_leakage_experiment(rabi_instance, [math.pi / (lam[1] - lam[0])]).per_block_leakage
    assert np.abs(leak[:, 0] - eternal_leakage_bound(rabi_instance)).max() < 1e-13


@pytest.mark.parametrize("real", [False, True], ids=["complex", "real"])
def test_phased_factor_is_c_contiguous_complex(real):
    # _product's one real GEMM views S_g^dag's phased product as float64 pairs: a factor
    # held real would add a cast to every leakage read, one held F-ordered breaks the view
    inst = make_instance(0, 9, 3, x=0.03, real=real)
    factors = dynamics._Evolution(inst, np.array([1.0])).factors
    assert np.isrealobj(factors[0][0]) == real
    for _, _, s_g_dag in factors:
        assert s_g_dag.dtype == np.complex128 and s_g_dag.flags.c_contiguous


@pytest.mark.parametrize("seed, dim, n_groups", [(0, 9, 3), (3, 9, 3), (5, 6, 2), (11, 9, 3)])
@pytest.mark.parametrize("real", [False, True], ids=["complex", "real"])
def test_leakage_vanishes_at_time_zero(seed, dim, n_groups, real):
    inst = make_instance(seed, dim, n_groups, x=0.03, real=real)
    leak = run_leakage_experiment(inst, [0.0]).per_block_leakage
    assert leak.max() <= 1e-15


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
    # the report keeps a read-only copy of the grid and leaves the caller's writable
    assert times.flags.writeable and not rep.times.flags.writeable


def test_distance_bound_violations_are_labelled(rabi_instance, monkeypatch):
    # shrink epsilon and the SW bound below the measured series: every point
    # above a bound is reported, labelled by the series that crossed it
    real = bounds.bound_report

    def shrunk(*args):
        rep = real(*args)
        return replace_fields(rep, epsilon=1e-3 * rep.epsilon, d_sw_bound=1e-3 * rep.d_sw_bound)

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


def test_violations_are_derived_from_the_series_and_their_bounds():
    # one point over its bound in each series and one NaN point, listed in the run's order:
    # leakage by block, then d_Bloch, then d_SW, each in time order; a point within SLACK of
    # its bound is no violation
    report = bounds.bound_report(0.01, 1.0, 1.0)
    eps, d_sw_bound = report.epsilon, report.d_sw_bound
    times = np.array([0.0, 1.0, 2.0])
    leak = np.array([[0.0, math.nan, eps], [0.0, eps + 0.5 * bounds.SLACK, eps + 1e-6]])
    d_bloch = np.array([eps + 1e-6, 0.0, eps])
    d_sw = np.array([0.0, d_sw_bound + 1e-6, d_sw_bound])
    rep = LeakageReport(times, leak, d_bloch, d_sw, report)
    assert rep.violations == (("leakage", 0, 1.0), ("leakage", 1, 2.0),
                              ("d_bloch", None, 0.0), ("d_sw", None, 1.0))
    assert all(type(k) is int for _, k, _ in rep.violations[:2])
    assert rep.to_json()["violations"] == [list(v) for v in rep.violations]
    # without epsilon, and so without the SW bound, no point is judged
    beyond = bounds.bound_report(0.1, 1.0, 1.0)
    assert beyond.epsilon is None and beyond.d_sw_bound is None
    assert LeakageReport(times, leak, d_bloch, d_sw, beyond).violations == ()


def test_distances_skipped_below_threshold():
    inst = make_instance(51, 6, 2, x=0.3)  # beyond the series radius
    rep = run_leakage_experiment(inst, np.linspace(0.0, 5.0, 11))
    assert rep.d_bloch_series is None and rep.d_sw_series is None
    assert rep.bounds.epsilon is None
    assert rep.violations == ()


def _refuses_gamma(call) -> bool:
    """Whether ``call`` raises the LeakageError of a gamma outside its regime."""
    try:
        call()
    except LeakageError as exc:
        return "gamma = " in str(exc)
    return False


# two-level instances (H0 gap, coupling of V): in the first of each regime the
# gamma threshold and the formula domain agree at +1 ulp, in the second they do not
@pytest.mark.parametrize("regime, gap, coupling", [
    ("bloch", 1.0, 0.07),
    ("bloch", 3.0, 0.05),
    ("sw", 1.0, 0.07),
    ("sw", 4.192989824560427, 0.496525282845505),
])
@pytest.mark.parametrize("side", [-math.inf, math.inf], ids=["minus-ulp", "plus-ulp"])
def test_series_exist_iff_their_bounds_do_at_the_thresholds(regime, gap, coupling, side):
    threshold = {"bloch": bounds.gamma_threshold_bloch, "sw": bounds.gamma_threshold_sw}
    gamma = math.nextafter(threshold[regime](coupling, gap), side)
    h0 = OperatorMatrix(np.diag([0.0, gap]))
    v = OperatorMatrix(coupling * np.array([[0.0, 1.0], [1.0, 0.0]]))
    inst = ProblemInstance(h0, v, gamma, partition_by_threshold(herm_eig(h0), 0.5))
    report = bounds.bound_report(inst.v_norm, gamma, gap)
    in_bloch, in_sw = report.epsilon is not None, report.d_sw_bound is not None

    assert _refuses_gamma(lambda: solve_bloch_series(inst, tol=1e-6)) == (not in_bloch)
    if regime == "sw":  # 4 pi x is near 0.83 there, where the series converges
        bloch = solve_bloch_series(inst, tol=1e-6)
        assert _refuses_gamma(lambda: sw_transform(inst, bloch)) == (not in_sw)
    try:
        rep = run_leakage_experiment(inst, np.linspace(0.0, 1.0, 3))
    except LeakageError as exc:
        # a run's 1e-12 series cannot converge by order J_MAX for 4 pi x > 0.7131: one ulp
        # inside the Bloch threshold (4 pi x near 1) and at the SW threshold (near 0.83)
        assert in_bloch and 4 * math.pi * report.x > 0.7131 and "Catalan tail" in str(exc)
        return
    assert rep.bounds == report
    assert (rep.d_bloch_series is None) == (not in_bloch)
    assert (rep.d_sw_series is None) == (not in_sw)


def test_experiment_refuses_a_bound_report_beyond_the_float_range(monkeypatch):
    # a subnormal gamma puts x = ||V|| / (gamma eta) beyond the float range; the report is
    # refused before the leakage scan reads a single point
    reads = []
    read = dynamics._Evolution.leakage
    monkeypatch.setattr(dynamics._Evolution, "leakage",
                        lambda evo, k, t: reads.append((k, t)) or read(evo, k, t))
    h0, v, partition = chain_pair()
    inst = ProblemInstance(h0, v, 1e-320, partition(herm_eig(h0)))
    with pytest.raises(ValueError, match="^bound report field 'x' is not finite: inf$"):
        run_leakage_experiment(inst, np.linspace(0.0, 200.0, 2001))
    assert reads == []


def test_overflowing_time_phases_are_refused(monkeypatch):
    # max|lam| is about 1.01e10, and h_bound = gamma max|lam0| + ||V||_inf = 1.1e10: e^{-i lam t}
    # is NaN once |t| max|lam| overflows, and max_leakage's max(best, nan) would drop that read;
    # the grid is refused by |t| h_bound before any point is read, t = 0 included
    h0 = OperatorMatrix(np.diag([0.0, 1e10]))
    v = OperatorMatrix(1e9 * np.array([[0.0, 1.0], [1.0, 0.0]]))
    inst = ProblemInstance(h0, v, 1.0, partition_by_threshold(herm_eig(h0), 0.5))
    assert 0.0 < max_leakage(inst, [0.0, 1e298]) <= 1.0
    reads = []   # every leakage read forms one phase product
    product = dynamics._product
    monkeypatch.setattr(dynamics, "_product", lambda a, rhs: reads.append(a) or product(a, rhs))
    for call in (max_leakage, run_leakage_experiment):
        with pytest.raises(ValueError, match=r"t = 1e\+300 times max\|lam\| <= 1.1e\+10 overflows"):
            call(inst, [0.0, 1e300])
    assert reads == []


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
def test_non_finite_time_is_refused_as_such(t):
    # the time itself is at fault, not an overflow of t max|lam| with the chain's max|lam| <= 3.05
    h0, v, partition = chain_pair()
    inst = ProblemInstance(h0, v, 1.0, partition(herm_eig(h0)))
    for call in (max_leakage, run_leakage_experiment,
                 lambda inst, times: gamma_scaling_sweep(inst, [1.0, 2.0, 4.0, 8.0], times)):
        with pytest.raises(ValueError, match=rf"^time t = {t!r} is not finite$"):
            call(inst, [0.0, t])


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


def csv_writer_oracle(rep) -> str:
    """What ``csv.writer`` writes for the rows ``rep.to_csv`` holds."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["t", "k", "leakage", "d_bloch", "d_sw"])
    for j, t in enumerate(rep.times):
        dist = ["" if s is None else repr(float(s[j]))
                for s in (rep.d_bloch_series, rep.d_sw_series)]
        writer.writerows([repr(float(t)), k, repr(float(leak[j])), *dist]
                         for k, leak in enumerate(rep.per_block_leakage))
    return buf.getvalue()


def test_csv_is_byte_identical_to_csv_writer(rabi_instance):
    times = np.linspace(0.0, 5.0, 6)
    both = run_leakage_experiment(rabi_instance, times)
    neither = run_leakage_experiment(make_instance(51, 6, 2, x=0.3), times)
    assert both.d_sw_series is not None and neither.d_bloch_series is None
    for rep in (both, neither):
        assert rep.to_csv() == csv_writer_oracle(rep)


def _solved():
    inst = make_instance(0, 4, 2)
    return inst, solve_bloch_series(inst)


# each builds one of the seven types that hold arrays, from the same input every call
ARRAY_HOLDERS = {
    "OperatorMatrix": lambda: OperatorMatrix(np.diag([0.0, 1.0])),
    "SpectralPartition": lambda: make_instance(0, 4, 2).partition,
    "ProblemInstance": lambda: make_instance(0, 4, 2),
    "BlochSolution": lambda: _solved()[1],
    "SWSolution": lambda: sw_transform(*_solved()),
    "LeakageReport": lambda: run_leakage_experiment(make_instance(0, 4, 2), [0.0, 1.0]),
    "SweepResult": lambda: gamma_scaling_sweep(make_instance(0, 4, 2), [1.0, 2.0, 4.0, 8.0],
                                               [0.0, 1.0]),
}


@pytest.mark.parametrize("build", ARRAY_HOLDERS.values(), ids=ARRAY_HOLDERS.keys())
def test_array_holders_compare_and_hash_by_identity(build):
    # a field-wise __eq__ asks for the truth value of an array, and a field-wise
    # __hash__ hashes one: both raise, so these types compare by identity
    a, b = build(), build()
    assert a == a
    assert a != b
    assert len({a, b}) == 2


def expm_distances(inst, t):
    """Oracle ``(d_Bloch, d_SW)`` at time t: ``||expm(-itH) - expm(-it H_eff)||``
    with scipy's Pade expm, which exponentiates the non-Hermitian H_Bloch
    directly.  Both generators are taken back to the original basis of H."""
    sol = solve_bloch_series(inst)
    true_prop = scipy.linalg.expm(-1j * t * inst.h)
    return tuple(
        np.linalg.norm(true_prop - scipy.linalg.expm(-1j * t * to_original(inst, gen)), 2)
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
# a subnormal t makes max|M| subnormal in d_Bloch's complex product
@example(seed=0, dim=3, n_groups=2, x=0.015625, real=False, t=2.225073858507203e-309)
@settings(deadline=None, max_examples=40)
def test_distance_series_match_expm_on_random_instances(seed, dim, n_groups, x, real, t):
    inst = make_instance(seed, dim, n_groups, x=x, real=real)
    assert inst.h.dtype == (np.float64 if real else np.complex128)
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
        h0_d = OperatorMatrix(h0.entries.astype(dtype))
        v_d = OperatorMatrix(v.entries.astype(dtype))
        eig = herm_eig(h0_d)
        inst = ProblemInstance(h0_d, v_d, 1.0, partition(eig))
        sol = solve_bloch_series(inst)
        sw = sw_transform(inst, sol)
        assert eig[1].dtype == sol.omega_terms.dtype == dtype
        # every derived operator is a plain array of the input dtype
        derived = [inst.h, inst.h_eig, sol.omega, sol.h_bloch, sw.w, sw.h_sw,
                   *sw.perturbed_projections]
        assert all(type(m) is np.ndarray and m.dtype == dtype for m in derived)
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


def test_sweep_needs_enough_points(monkeypatch):
    # fewer than four gammas are refused before any maximum is computed; four whose
    # maxima are all 0, on an empty grid, only once all are computed
    calls = []
    compute = dynamics.max_leakage
    monkeypatch.setattr(dynamics, "max_leakage",
                        lambda inst, t_grid: calls.append(inst.gamma) or compute(inst, t_grid))
    base = make_instance(54, 6, 2, x=0.02)
    with pytest.raises(ValueError, match="^only 3 usable sweep points$"):
        gamma_scaling_sweep(base, [10.0, 20.0, 40.0], np.linspace(0.0, 5.0, 11))
    assert calls == []
    with pytest.raises(ValueError, match="^only 0 usable sweep points$"):
        gamma_scaling_sweep(base, [10.0, 20.0, 40.0, 80.0], [])
    assert calls == [10.0, 20.0, 40.0, 80.0]


@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(4, 12),
       groups=st.sampled_from(["clusters", "singletons", "lopsided", 2, 3]), real=st.booleans(),
       t_start=st.sampled_from([0.0, 0.7]), n_points=st.integers(1, 40))
# three groups, one of them a majority (sizes 2, 9, 1 and 2, 8, 2) whose block holds the
# grid maximum at every gamma
@example(seed=11, dim=12, groups="clusters", real=False, t_start=0.7, n_points=40)
@example(seed=14, dim=12, groups="clusters", real=True, t_start=0.7, n_points=40)
@settings(deadline=None, max_examples=80)
def test_sweep_maxima_equal_the_full_scan(seed, dim, groups, real, t_start, n_points):
    # max_leakage skips the points its Cholesky tests certify; it must still be the very
    # float a scan of every (block, t) gives, and the sweep reports it per gamma.  At
    # gamma 1e4 and 1e6 the squared leakage nears or falls below the first test's
    # roundoff floor.  Singleton groups have 1x1 blocks, and a lopsided split or a
    # majority group gives a block with |g| > |out|, which skips the unitarity test
    if groups == "clusters":
        inst = make_instance(seed, dim, 3, x=0.02, real=real)
    elif groups == "singletons":
        inst = make_instance(seed, dim, dim, x=0.02, real=real)
        assert all(g.size == 1 for g in inst.partition.groups)
    elif groups == "lopsided":
        base = interleaved_instance(seed, dim, dim, 0.02, real)
        cut = dim // 3
        part = SpectralPartition(*herm_eig(base.h0), [np.arange(cut), np.arange(cut, dim)])
        inst = ProblemInstance(base.h0, base.v, 1.0, part)
    else:
        inst = interleaved_instance(seed, dim, groups, 0.02, real)
    if t_start == 0.0:
        n_points = max(n_points, 2)   # a grid of t = 0 alone leaves no usable maximum
    times = np.linspace(t_start, 40.0, n_points)
    res = gamma_scaling_sweep(inst, [0.5, 2.0, 8.0, 32.0, 1e4, 1e6], times)
    for g, swept in zip(res.gammas, res.max_leakages):
        inst_g = ProblemInstance(inst.h0, inst.v, float(g), inst.partition)
        screened = max_leakage(inst_g, times)
        assert screened == run_leakage_experiment(inst_g, times).max_leakage
        assert swept == screened


def test_empty_grid_has_maximum_zero():
    inst = make_instance(55, 6, 2)
    report = run_leakage_experiment(inst, [])
    assert report.max_leakage == max_leakage(inst, []) == 0.0
    assert json.loads(json.dumps(report.to_json()))["max_leakage"] == 0.0


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
    with pytest.raises(LeakageError, match="cutoff 3 leaves only 4 groups, probe was 5"):
        # probing a band that only exists at the larger cutoff
        truncation_convergence_study(harmonic_builder, [3, 5], 10.0, 5)


def test_truncation_study_refuses_a_drifting_group():
    # the upper level of diag(0, 1 + c) moves by c; the study stops once that
    # exceeds half the gap 1 + c
    def builder(c):
        h0 = OperatorMatrix(np.diag([0.0, 1.0 + c]))
        v = OperatorMatrix(0.01 * np.array([[0.0, 1.0], [1.0, 0.0]]))
        return ProblemInstance(h0, v, 1.0, partition_by_threshold(herm_eig(h0), 0.5))

    assert len(truncation_convergence_study(builder, [0.0, 0.9], 10.0, 1)) == 2
    with pytest.raises(LeakageError, match="group 1 interval moved by 1.1 at cutoff 1.1"):
        truncation_convergence_study(builder, [0.0, 1.1], 10.0, 1)


@pytest.mark.parametrize("cutoffs", [[4], [4, 6]])
def test_truncation_study_rejects_negative_group(cutoffs):
    built = []

    def builder(cutoff):
        built.append(cutoff)
        return harmonic_builder(cutoff)

    with pytest.raises(ValueError, match="group index -1 is negative"):
        truncation_convergence_study(builder, cutoffs, 10.0, -1)
    assert built == []
