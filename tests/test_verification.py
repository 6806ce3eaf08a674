import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leakage import (
    check_instance,
    operator_norm,
    random_instance,
    run_suite,
    solve_bloch_series,
    verification,
)
from leakage.rng import substream
from leakage.verification import haar_unitary

from conftest import interleaved_instance, make_instance


def test_haar_unitary_is_unitary():
    u = haar_unitary(np.random.default_rng(0), 7)
    assert operator_norm(u @ u.conj().T - np.eye(7)) < 1e-12


def test_random_instance_respects_targets():
    rng = np.random.default_rng(61)
    inst = random_instance(rng, dim=12, n_groups=3, x_target=0.015)
    assert inst.dim == 12
    assert inst.partition.n_groups == 3
    assert inst.x == pytest.approx(0.015, rel=1e-12)
    # unconstrained draws stay inside the advertised ranges
    for _ in range(20):
        inst = random_instance(rng)
        assert 4 <= inst.dim <= 32
        assert 2 <= inst.partition.n_groups <= 4
        assert inst.x < 0.02


def test_check_instance_names_and_passes():
    rng = np.random.default_rng(62)
    results = check_instance(random_instance(rng, dim=10, n_groups=2, x_target=0.01))
    names = {r.name for r in results}
    assert {
        "bloch_equation_residuals",
        "omega_minus_identity_le_delta",
        "catalan_term_bounds",
        "h_bloch_off_block",
        "h_bloch_isospectral",
        "gram_minus_identity",
        "w_unitarity",
        "h_sw_hermitian",
        "h_sw_off_block",
        "h_sw_isospectral",
        "perturbed_projection_idempotent",
        "perturbed_projection_commutes",
        "linear_leakage_bound",
    } <= names
    assert all(r.passed for r in results)


def test_suite_deterministic_and_serializable():
    a = run_suite(n_instances=3, seed=5)
    b = run_suite(n_instances=3, seed=5)
    assert a.all_passed
    assert [r.measured for r in a.results] == [r.measured for r in b.results]
    assert a.all_passed is True
    assert a.n_instances == 3


def test_suite_counts_extras():
    rng = np.random.default_rng(63)
    extra = random_instance(rng, dim=6, n_groups=2, x_target=0.01)
    rep = run_suite(n_instances=2, seed=0, extra_instances=[extra])
    assert rep.n_instances == 3


def test_suite_counts_a_one_shot_iterator_of_extras():
    # the suite reads its extras once: an iterator counts as many instances as it yields
    rng = np.random.default_rng(63)
    extras = [random_instance(rng, dim=6, n_groups=2, x_target=0.01) for _ in range(2)]
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
    assert len(results) == 19


@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(4, 16), step=st.sampled_from([2, 3]),
       x=st.floats(1e-3, 0.02), real=st.booleans())
@settings(deadline=None, max_examples=40)
def test_every_invariant_passes_on_interleaved_partitions(seed, dim, step, x, real):
    inst = interleaved_instance(seed, dim, step, x, real)
    assert inst.x == pytest.approx(x, rel=1e-12)
    results = check_instance(inst)
    assert [r.name for r in results if not r.passed] == []
    assert len(results) == 19


@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(4, 16),
       groups=st.sampled_from(["clusters", 2, 3]), x=st.floats(1e-3, 0.03), real=st.booleans())
@settings(deadline=None, max_examples=40)
def test_omega_norms_from_the_gram_spectrum_match_dense_norms(seed, dim, groups, x, real):
    # ||Omega||, ||Omega^-1|| and ||Omega^dag Omega - 1|| are read from the
    # eigenvalues of Omega^dag Omega; the oracle takes each norm of its dense matrix
    if groups == "clusters":
        inst = make_instance(seed, dim, 3, x=x, real=real)
    else:
        inst = interleaved_instance(seed, dim, groups, x, real)
    measured = {r.name: r.measured for r in check_instance(inst)}
    omega = solve_bloch_series(inst).omega
    oracle = {
        "omega_norm_le_1_plus_delta": operator_norm(omega),
        "omega_inv_norm": operator_norm(np.linalg.inv(omega)),
        "gram_minus_identity": operator_norm(omega.conj().T @ omega - np.eye(inst.dim)),
    }
    for name, value in oracle.items():
        assert measured[name] == pytest.approx(value, rel=1e-12), name
    assert measured["omega_inv_norm"] == measured["gram_inv_sqrt_norm"]


def _off_block(inst, m, scale=1e-6):
    """``m`` plus ``Q_0 A P_0`` with one entry of size ``scale``, in the H0
    eigenbasis the operators are kept in: row in the complement of group
    0, column in group 0."""
    g, out = inst.partition.blocks[0]
    m = np.array(m)
    m[out[0], g[0]] += scale
    return m


def _tamper_bloch(inst, sol):
    return dataclasses.replace(sol, h_bloch=_off_block(inst, sol.h_bloch))


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
    ("solve_bloch_series", _tamper_bloch, ["h_bloch_off_block"]),
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


def test_substream_independence():
    a = substream(0, "alpha").normal(size=4)
    b = substream(0, "alpha").normal(size=4)
    c = substream(0, "beta").normal(size=4)
    d = substream(1, "alpha").normal(size=4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)
