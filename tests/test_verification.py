import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leakage import (
    OperatorMatrix,
    ProblemInstance,
    SpectralPartition,
    bounds,
    check_instance,
    herm_eig,
    max_leakage,
    operator_norm,
    random_instance,
    run_suite,
    solve_bloch_series,
    verification,
)
from leakage.rng import substream
from leakage.verification import haar_unitary

from conftest import deep_harmonic_instance, grouped_instance, interleaved_instance, make_instance


def test_haar_unitary_is_unitary():
    u = haar_unitary(np.random.default_rng(0), 7)
    assert operator_norm(u @ u.conj().T - np.eye(7)) < 1e-12


def test_random_instance_respects_targets():
    # draws stay inside the ranges the docstring states
    rng = np.random.default_rng(61)
    for _ in range(20):
        inst = random_instance(rng)
        assert 4 <= inst.dim <= 32
        assert 2 <= inst.partition.n_groups <= 4
        assert 0.001 <= inst.x < 0.02


# dim, group sizes and sorted H0 eigenvalues of the first five instances random_instance draws
# from substream(0, "invariant-suite"); `verify` output and the verify_suite benchmark read
# these draws, so they must not change
FIRST_SUITE_INSTANCES = [
    (15, (5, 1, 8, 1), [
        2.301012884454134, 2.4017891101411832, 2.4989809019682894, 2.5150781541670097,
        2.5517108565230293, 4.024479607352404, 5.5422076987754245, 5.574846665245487,
        5.604714047457283, 5.618738933413727, 5.636145228205425, 5.701087033230074,
        5.722884250829673, 5.764547269167763, 6.935601286632953,
    ]),
    (17, (1, 11, 5), [
        2.400304578645245, 4.278517475379436, 4.282743047835041, 4.298696424582782,
        4.3191810826521655, 4.385250676348192, 4.3865967776913095, 4.4539899928062185,
        4.4550995812496375, 4.466403738534179, 4.496441242057654, 4.49721480928364,
        6.440345210763141, 6.460794283450441, 6.474704754427977, 6.624390284399748,
        6.68026137703756,
    ]),
    (24, (1, 23), [
        2.4474157293694154, 3.8418070253924217, 3.845586971632116, 3.866927798639217,
        3.885561362994901, 3.888594871295433, 3.8894947964788, 3.8985619793426767,
        3.917276791986396, 3.91790667024232, 3.927795808323351, 3.936066438288509,
        3.9675625405799115, 3.992128345286111, 4.0341706828681065, 4.057370327701747,
        4.058524378011073, 4.059320660194717, 4.064432302378034, 4.069687668288358,
        4.074894687757936, 4.1012347795748365, 4.101908714366641, 4.140701196520318,
    ]),
    (32, (25, 5, 2), [
        1.5229869470163107, 1.527196656028473, 1.567835469852895, 1.6009860951766233,
        1.610341724392124, 1.6131465735342463, 1.6219507111569686, 1.6283235621323882,
        1.6289315734110807, 1.6432678251238486, 1.6548419451986596, 1.659316740053431,
        1.6848266656921957, 1.7111051099526122, 1.7158588950826767, 1.7177083520100607,
        1.7251599645013473, 1.7348896713029305, 1.749359104294733, 1.770467512459796,
        1.7717654833250975, 1.7746928487568947, 1.7765150958157045, 1.7989443099614726,
        1.8137938336425843, 3.106898187489621, 3.1654018119431573, 3.3274655354857785,
        3.3837519367982396, 3.3943248548605056, 5.1766744103654005, 5.283272207930389,
    ]),
    (29, (4, 24, 1), [
        2.3667866946777565, 2.385353052217114, 2.442416860124415, 2.497125313808937,
        3.715379112590339, 3.734137658900677, 3.7630770991437092, 3.763154101260865,
        3.791664738358799, 3.7965338158077713, 3.8006335734022905, 3.8008436500230034,
        3.8046493222291895, 3.8088948109415965, 3.817117976960631, 3.822510207210917,
        3.835321246240854, 3.8437246448697024, 3.860370005861057, 3.8786012108921017,
        3.888204606219913, 3.8896344655918202, 3.9043145642672497, 3.9331786269431874,
        3.9345817204745974, 3.960050583662383, 3.9686483623437643, 3.9752839428626374,
        5.8290943551365935,
    ]),
]


def test_random_instance_draws_are_frozen():
    rng = substream(0, "invariant-suite")
    for dim, sizes, eigenvalues in FIRST_SUITE_INSTANCES:
        inst = random_instance(rng)
        assert inst.dim == dim
        assert tuple(len(g) for g in inst.partition.groups) == sizes
        assert np.abs(inst.partition.eigenvalues - eigenvalues).max() <= 1e-12


def test_check_instance_names_and_passes():
    results = check_instance(make_instance(62, 10, 2, x=0.01))
    assert [r.name for r in results] == [
        "bloch_equation_residuals",
        "omega_minus_identity_le_delta",
        "omega_norm_le_1_plus_delta",
        "omega_inv_norm",
        "omega_inv_minus_identity",
        "catalan_term_bounds",
        "h_bloch_isospectral",
        "gram_minus_identity",
        "gram_inv_sqrt_norm",
        "gram_inv_sqrt_minus_identity",
        "w_unitarity",
        "w_minus_identity",
        "h_sw_off_block",
        "h_sw_isospectral",
        "perturbed_projection_idempotent",
        "perturbed_projection_commutes",
        "linear_leakage_bound",
    ]
    assert all(r.passed for r in results)


def test_suite_deterministic_and_serializable():
    a = run_suite(n_instances=3, seed=5)
    b = run_suite(n_instances=3, seed=5)
    assert a.all_passed
    assert [r.measured for r in a.results] == [r.measured for r in b.results]
    assert a.all_passed is True
    assert a.n_instances == 3


def test_suite_counts_extras():
    extra = make_instance(63, 6, 2, x=0.01)
    rep = run_suite(n_instances=2, seed=0, extra_instances=[extra])
    assert rep.n_instances == 3


def test_suite_counts_a_one_shot_iterator_of_extras():
    # the suite reads its extras once: an iterator counts as many instances as it yields
    extras = [make_instance(63 + i, 6, 2, x=0.01) for i in range(2)]
    rep = run_suite(n_instances=0, seed=0, extra_instances=iter(extras))
    assert rep.n_instances == 2
    assert [r.measured for r in rep.results] == [
        r.measured for inst in extras for r in check_instance(inst)]


def test_suite_rejects_negative_count():
    with pytest.raises(ValueError):
        run_suite(n_instances=-1)


@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(3, 8), n_groups=st.integers(2, 3),
       x=st.floats(1e-3, 0.03), real=st.booleans())
@settings(deadline=None, max_examples=40)
def test_every_invariant_passes_on_random_instances(seed, dim, n_groups, x, real):
    results = check_instance(make_instance(seed, dim, n_groups, x=x, real=real))
    assert [r.name for r in results if not r.passed] == []
    assert len(results) == 17


@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(4, 16), step=st.sampled_from([2, 3]),
       x=st.floats(1e-3, 0.02), real=st.booleans())
@settings(deadline=None, max_examples=40)
def test_every_invariant_passes_on_interleaved_partitions(seed, dim, step, x, real):
    inst = interleaved_instance(seed, dim, step, x, real)
    assert inst.x == pytest.approx(x, rel=1e-12, abs=0.0)
    results = check_instance(inst)
    assert [r.name for r in results if not r.passed] == []
    assert len(results) == 17


@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(4, 16),
       groups=st.sampled_from(["clusters", 2, 3]), x=st.floats(1e-3, 0.03), real=st.booleans())
@settings(deadline=None, max_examples=40)
def test_omega_norms_from_the_gram_spectrum_match_dense_norms(seed, dim, groups, x, real):
    # ||Omega||, ||Omega^-1|| and ||Omega^dag Omega - 1|| are read from the
    # eigenvalues of Omega^dag Omega; the oracle takes each norm of its dense matrix
    inst = grouped_instance(seed, dim, groups, x, real)
    measured = {r.name: r.measured for r in check_instance(inst)}
    omega = solve_bloch_series(inst).omega
    oracle = {
        "omega_norm_le_1_plus_delta": operator_norm(omega),
        "omega_inv_norm": operator_norm(np.linalg.inv(omega)),
        "gram_minus_identity": operator_norm(omega.conj().T @ omega - np.eye(inst.dim)),
    }
    for name, value in oracle.items():
        assert measured[name] == pytest.approx(value, rel=1e-12, abs=0.0), name
    assert measured["omega_inv_norm"] == measured["gram_inv_sqrt_norm"]


def _off_block(inst, m, scale=1e-6):
    """``m`` plus ``Q_0 A P_0`` with one entry of size ``scale``, in the H0
    eigenbasis the operators are kept in: row in the complement of group
    0, column in group 0."""
    g, out = inst.partition.blocks[0]
    m = np.array(m)
    m[out[0], g[0]] += scale
    return m


def _tamper_omega_rows(inst, sol):
    # Q_0 Omega_0 P_0 off its solution: P_0 Omega_0 = P_0 holds and
    # H Omega_0 = Omega_0 H Omega_0 breaks.  Omega is held once, so the
    # Schrieffer-Wolff operators built from it break too: W no longer
    # block-diagonalizes H, and P~_0 no longer commutes with it
    return dataclasses.replace(sol, omega=_off_block(inst, sol.omega))


def _tamper_sw(inst, sw):
    a = _off_block(inst, np.zeros_like(sw.h_sw))
    return dataclasses.replace(sw, h_sw=sw.h_sw + a + a.conj().T)


@pytest.mark.parametrize("target, tamper, broken", [
    ("solve_bloch_series", _tamper_omega_rows,
     ["bloch_equation_residuals", "h_sw_off_block", "perturbed_projection_commutes"]),
    ("sw_transform", _tamper_sw, ["h_sw_off_block"]),
], ids=lambda v: "+".join(v) if isinstance(v, list) else None)
@pytest.mark.parametrize("real", [False, True], ids=["complex", "real"])
def test_check_instance_fails_exactly_the_broken_invariant(monkeypatch, target, tamper, broken,
                                                           real):
    inst = make_instance(64, 9, 3, x=0.01, real=real)
    assert all(r.passed for r in check_instance(inst))
    original = getattr(verification, target)
    monkeypatch.setattr(verification, target,
                        lambda inst, *args, **kw: tamper(inst, original(inst, *args, **kw)))
    assert [r.name for r in check_instance(inst) if not r.passed] == broken


def _majorant(inst, j):
    """``(pi ||V|| / eta)^j C_j``, the Catalan majorant of ``||Omega^(j)||``, as
    ``check_instance`` computes it."""
    return (math.pi * inst.v_norm / inst.partition.gap) ** j * bounds.catalan(j)


def _holder(term):
    a = np.abs(term)
    return math.sqrt(a.sum(axis=0).max() * a.sum(axis=1).max())


def _with_term(monkeypatch, inst, j, make_term):
    """Make ``check_instance`` see ``Omega^(j)`` replaced by ``make_term(Omega^(j))``;
    returns the replaced term."""
    sol = solve_bloch_series(inst)
    terms = np.array(sol.omega_terms)
    terms[j] = make_term(terms[j])
    tampered = dataclasses.replace(sol, omega_terms=terms)
    monkeypatch.setattr(verification, "solve_bloch_series", lambda inst, *a, **kw: tampered)
    return terms[j]


def _orthogonal(rng, dim, real):
    if not real:
        return haar_unitary(rng, dim)
    q, r = np.linalg.qr(rng.normal(size=(dim, dim)))
    return q * np.sign(np.diag(r))


@pytest.mark.parametrize("real", [False, True], ids=["complex", "real"])
def test_catalan_check_fails_on_an_inflated_term(monkeypatch, real):
    inst = make_instance(64, 9, 3, x=0.01, real=real)
    m = _majorant(inst, 2)
    term = _with_term(monkeypatch, inst, 2, lambda t: t * (2.0 * m / operator_norm(t)))
    results = {r.name: r for r in check_instance(inst)}
    assert [name for name, r in results.items() if not r.passed] == ["catalan_term_bounds"]
    assert results["catalan_term_bounds"].measured == operator_norm(term) - m


@pytest.mark.parametrize("real", [False, True], ids=["complex", "real"])
def test_catalan_check_reads_a_term_its_screen_cannot_certify(monkeypatch, real):
    # a scaled orthogonal term lies below its majorant while its Hoelder bound
    # sqrt(||T||_1 ||T||_inf) lies above: the exact read decides, and finds no excess
    inst = make_instance(64, 9, 3, x=0.01, real=real)
    m = _majorant(inst, 1)
    q = _orthogonal(np.random.default_rng(5), inst.dim, real)
    term = _with_term(monkeypatch, inst, 1, lambda t: (0.8 * m) * q)
    assert operator_norm(term) < m < _holder(term)
    reads = []
    monkeypatch.setattr(verification, "operator_norm",
                        lambda a: reads.append(np.shares_memory(a, term))
                        or operator_norm(a))
    results = {r.name: r for r in check_instance(inst)}
    assert any(reads)
    assert all(r.passed for r in results.values())
    assert results["catalan_term_bounds"].measured == 0.0


@pytest.mark.parametrize("real", [False, True], ids=["complex", "real"])
def test_catalan_check_raises_on_a_nan_term(monkeypatch, real):
    inst = make_instance(64, 9, 3, x=0.01, real=real)

    def poison(t):
        t = t.copy()
        t[0, 0] = np.nan
        return t

    _with_term(monkeypatch, inst, 3, poison)
    with pytest.raises(np.linalg.LinAlgError):
        check_instance(inst)


@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(4, 12),
       groups=st.sampled_from(["clusters", 2, 3]), x=st.floats(1e-3, 0.03), real=st.booleans())
@settings(deadline=None, max_examples=40)
def test_catalan_check_equals_exact_reads_of_every_term(seed, dim, groups, x, real):
    # the Hoelder screen leaves the float unchanged: it is the worst excess of exact
    # norms over all orders, floored at 0.0
    inst = grouped_instance(seed, dim, groups, x, real)
    measured = {r.name: r.measured for r in check_instance(inst)}
    terms = solve_bloch_series(inst).omega_terms
    oracle = max(0.0, max(operator_norm(t) - _majorant(inst, j) for j, t in enumerate(terms)))
    assert measured["catalan_term_bounds"] == oracle


def test_catalan_screen_certifies_every_term_of_a_deep_series(monkeypatch):
    # the harmonic chain at order 42: a screen that silently sent its terms to the exact
    # read would keep the float and lose the time, so the reads are counted
    inst = deep_harmonic_instance()
    terms = solve_bloch_series(inst).omega_terms
    assert terms.shape == (43, 128, 128)
    term_reads = []
    monkeypatch.setattr(verification, "operator_norm",
                        lambda a: term_reads.append(np.shares_memory(a, terms))
                        or operator_norm(a))
    results = {r.name: r for r in check_instance(inst)}
    assert term_reads and not any(term_reads)
    assert results["catalan_term_bounds"].measured == 0.0
    assert all(r.passed for r in results.values())


# (H0 levels, groups, V, ratio): a real symmetric V with ||V|| = 0.01, so x = 0.01 at gamma 1
# and gap 1, that maximizes max_leakage / epsilon on [0, 20] at 1001 points (a 4x finer grid
# moves no maximum by 1e-6 of epsilon), found by Nelder-Mead from 4 starts, each restarted
# until it stopped improving, and the ratio it reached. The suite's random instances sit at
# 0.1-0.2 of epsilon, where a wrong bound or an inflated read would not show.
NEAR_EQUALITY = [
    pytest.param([0.0, 1.0], [[0], [1]], [
        [0.0001996518019829724, -0.009998006759247814],
        [-0.009998006759247814, -0.0001996518019829737],
    ], 0.287974, id="two-level"),
    pytest.param([0.0, 0.5, 1.5, 2.0], [[0, 1], [2, 3]], [
        [-0.0024210768904066233, 1.4604224216438104e-09,
         1.651830459139892e-09, 0.00108864448740742],
        [1.4604224216438104e-09, 0.00019965082722608773,
         0.009998006778711972, -2.2362029054670447e-10],
        [1.651830459139892e-09, 0.009998006778711972,
         -0.0001996508272263766, 3.480122653802283e-09],
        [0.00108864448740742, -2.2362029054670447e-10,
         3.480122653802283e-09, -0.00034946408260995654],
    ], 0.287974, id="contiguous"),
    pytest.param([0.0, 1.0, 2.0, 3.0], [[0, 2], [1, 3]], [
        [0.0001486999219286786, -0.007914829397679516,
         5.3687391519630345e-05, -0.006109867560169469],
        [-0.007914829397679516, -5.626678097853665e-05,
         0.006111296788051641, -6.603955879402697e-05],
        [5.3687391519630345e-05, 0.006111296788051641,
         4.026724550557611e-05, -0.007915020390452148],
        [-0.006109867560169469, -6.603955879402697e-05,
         -0.007915020390452148, -0.00013270038645743948],
    ], 0.352665, id="interleaved"),
]


@pytest.mark.parametrize("levels, groups, v, ratio", NEAR_EQUALITY)
def test_near_equality_instances_stay_within_epsilon(levels, groups, v, ratio):
    h0 = OperatorMatrix(np.diag(levels))
    part = SpectralPartition(*herm_eig(h0), groups)
    inst = ProblemInstance(h0, OperatorMatrix(np.array(v)), 1.0, part)
    measured = max_leakage(inst, np.linspace(0.0, 20.0, 1001)) / bounds.epsilon_of(inst.x)
    assert ratio - 0.005 <= measured <= 1.0
    results = check_instance(inst)
    assert len(results) == 17 and all(r.passed for r in results)


def test_substream_independence():
    a = substream(0, "alpha").normal(size=4)
    b = substream(0, "alpha").normal(size=4)
    c = substream(0, "beta").normal(size=4)
    d = substream(1, "alpha").normal(size=4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)
