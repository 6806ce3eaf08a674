import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leakage import (
    OperatorMatrix,
    check_instance,
    operator_norm,
    random_instance,
    run_suite,
    verification,
)
from leakage.rng import substream
from leakage.verification import haar_unitary

from conftest import make_instance


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
    blob = a.to_json()
    json.dumps(blob)
    assert blob["all_passed"] is True
    assert blob["n_instances"] == 3


def test_suite_counts_extras():
    rng = np.random.default_rng(63)
    extra = random_instance(rng, dim=6, n_groups=2, x_target=0.01)
    rep = run_suite(n_instances=2, seed=0, extra_instances=[extra])
    assert rep.n_instances == 3


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


def _off_block(inst, m, scale=1e-6):
    """``m`` plus ``Q_0 A P_0`` with one entry of size ``scale`` in the H0
    eigenbasis: row in the complement of group 0, column in group 0."""
    u = inst.partition.eig.eigenvectors
    g, out = inst.partition.blocks[0]
    return m + scale * np.outer(u[:, out[0]], u[:, g[0]].conj())


def _tamper_bloch(inst, sol):
    return dataclasses.replace(sol, h_bloch=OperatorMatrix(_off_block(inst, sol.h_bloch.entries)))


def _tamper_omega_block(inst, sol):
    # a column of Omega_0 outside group 0: Omega_0 != Omega_0 P_0
    u = inst.partition.eig.eigenvectors
    out = inst.partition.blocks[0][1]
    om_0 = sol.omega_blocks[0].entries + 1e-6 * np.outer(u[:, 0], u[:, out[0]].conj())
    return dataclasses.replace(sol, omega_blocks=(OperatorMatrix(om_0), *sol.omega_blocks[1:]))


def _tamper_sw(inst, sw):
    a = _off_block(inst, np.zeros_like(sw.h_sw.entries))
    h_sw = OperatorMatrix(sw.h_sw.entries + a + a.conj().T, hermitian_hint=True)
    return dataclasses.replace(sw, h_sw=h_sw)


@pytest.mark.parametrize("target, tamper, broken", [
    ("solve_bloch_series", _tamper_bloch, "h_bloch_off_block"),
    ("solve_bloch_series", _tamper_omega_block, "bloch_equation_residuals"),
    ("sw_transform", _tamper_sw, "h_sw_off_block"),
])
@pytest.mark.parametrize("real", [False, True], ids=["complex", "real"])
def test_check_instance_fails_exactly_the_broken_invariant(monkeypatch, target, tamper, broken,
                                                           real):
    inst = make_instance(64, 9, 3, x=0.01, real=real)
    assert all(r.passed for r in check_instance(inst))
    original = getattr(verification, target)
    monkeypatch.setattr(verification, target,
                        lambda inst, *args, **kw: tamper(inst, original(inst, *args, **kw)))
    assert [r.name for r in check_instance(inst) if not r.passed] == [broken]


def test_substream_independence():
    a = substream(0, "alpha").normal(size=4)
    b = substream(0, "alpha").normal(size=4)
    c = substream(0, "beta").normal(size=4)
    d = substream(1, "alpha").normal(size=4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)
