import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leakage import (
    ProblemInstance,
    operator_norm,
    perturbed_projection,
    solve_bloch_series,
    sw_transform,
)
from leakage.bloch_solver import BlochSolution
from leakage.errors import LeakageError

from conftest import dense_projection, grouped_instance, make_instance, to_original


def test_two_level_exact_diagonalization(rabi_instance):
    sol = solve_bloch_series(rabi_instance, tol=1e-14)
    sw = sw_transform(rabi_instance, sol)
    # closed-form eigenvalues of [[0, v], [v, 1]]
    lam_lo = 0.5 * (1.0 - math.sqrt(1.0 + 4 * 0.05**2))
    lam_hi = 0.5 * (1.0 + math.sqrt(1.0 + 4 * 0.05**2))
    hs = to_original(rabi_instance, sw.h_sw)
    assert hs[0, 0].real == pytest.approx(lam_lo, abs=1e-12)
    assert hs[1, 1].real == pytest.approx(lam_hi, abs=1e-12)
    assert abs(hs[0, 1]) < 1e-12


def test_w_is_unitary_polar_factor():
    inst = make_instance(41, 10, 3, x=0.015)
    sol = solve_bloch_series(inst)
    sw = sw_transform(inst, sol)
    w = sw.w
    eye = np.eye(10)
    assert operator_norm(w.conj().T @ w - eye) < 1e-11
    assert operator_norm(w @ w.conj().T - eye) < 1e-11
    # W = Omega (Omega^dag Omega)^(-1/2) means W^dag Omega is positive
    pos = w.conj().T @ sol.omega
    assert operator_norm(pos - pos.conj().T) < 1e-11
    assert np.linalg.eigvalsh(0.5 * (pos + pos.conj().T)).min() > 0.0


def test_h_sw_hermitian_block_diagonal_isospectral():
    inst = make_instance(42, 12, 2, x=0.012)
    sol = solve_bloch_series(inst)
    sw = sw_transform(inst, sol)
    hs = to_original(inst, sw.h_sw)
    scale = operator_norm(inst.h)
    assert operator_norm(hs - hs.conj().T) < 1e-12 * scale
    for k in range(inst.partition.n_groups):
        p = dense_projection(inst, k)
        assert operator_norm((np.eye(inst.dim) - p) @ hs @ p) < 1e-9 * scale
    assert np.abs(np.linalg.eigvalsh(hs) - np.linalg.eigvalsh(inst.h)).max() < 1e-9 * scale
    # conjugation identity H_SW = W^dag H W
    w = to_original(inst, sw.w)
    assert operator_norm(w.conj().T @ inst.h @ w - hs) < 1e-11 * scale


@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(4, 12),
       groups=st.sampled_from(["clusters", 2, 3]), x=st.floats(1e-3, 0.03), real=st.booleans())
@settings(deadline=None, max_examples=40)
def test_h_sw_and_perturbed_projections_are_hermitian_to_the_bit(seed, dim, groups, x, real):
    # each is symmetrized when it is formed, so check_instance does not read it
    inst = grouped_instance(seed, dim, groups, x, real)
    sw = sw_transform(inst, solve_bloch_series(inst))
    assert np.array_equal(sw.h_sw, sw.h_sw.conj().T)
    for pt in sw.perturbed_projections:
        assert np.array_equal(pt, pt.conj().T)


def test_perturbed_projections_properties():
    inst = make_instance(43, 9, 3, x=0.015)
    sol = solve_bloch_series(inst)
    sw = sw_transform(inst, sol)
    h = inst.h
    total = np.zeros((9, 9), dtype=complex)
    for k, pt in enumerate(sw.perturbed_projections):
        m = to_original(inst, pt)
        assert operator_norm(m - m.conj().T) < 1e-12
        assert operator_norm(m @ m - m) < 1e-11
        assert operator_norm(h @ m - m @ h) < 1e-10 * operator_norm(inst.h)
        assert np.trace(m).real == pytest.approx(len(inst.partition.groups[k]), abs=1e-9)
        total += m
    assert operator_norm(total - np.eye(9)) < 1e-10


@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(3, 10), n_groups=st.integers(2, 3),
       x=st.floats(1e-3, 0.03), real=st.booleans())
@settings(deadline=None, max_examples=40)
def test_perturbed_projections_match_eigh_of_h(seed, dim, n_groups, x, real):
    # independent oracle: with ||V|| < gamma eta / 2, H's eigenvalues keep
    # H0's order, so band k is spanned by the eigenvectors of H at the
    # indices of group k
    inst = make_instance(seed, dim, n_groups, x=x, real=real)
    sw = sw_transform(inst, solve_bloch_series(inst))
    _, s = np.linalg.eigh(inst.h)
    for g, pt in zip(inst.partition.groups, sw.perturbed_projections, strict=True):
        exact = s[:, g] @ s[:, g].conj().T
        assert operator_norm(to_original(inst, pt) - exact) < 1e-10


def test_projections_approach_unperturbed_with_gamma():
    base = make_instance(44, 8, 2, x=0.02, gamma=1.0)
    shifts = []
    for gamma in [5.0, 10.0, 20.0, 40.0]:
        inst = ProblemInstance(base.h0, base.v, gamma, base.partition)
        sol = solve_bloch_series(inst)
        p0 = dense_projection(inst, 0)
        pt = to_original(inst, perturbed_projection(inst, sol, 0))
        shifts.append(operator_norm(pt - p0))
    assert all(a > b for a, b in zip(shifts, shifts[1:]))
    assert shifts[-1] < 1e-2


def test_below_sw_threshold_raises():
    # convergent Bloch region but delta(x) >= sqrt(2) - 1
    lo = make_instance(45, 6, 2, x=0.07)
    donor = ProblemInstance(lo.h0, lo.v, 20.0, lo.partition)
    sol = solve_bloch_series(donor)
    with pytest.raises(LeakageError, match=r"<= 2 pi/\(sqrt\(2\)-1\) \|\|V\|\|/eta"):
        sw_transform(lo, sol)


def test_singular_block_gram_detected():
    inst = make_instance(46, 6, 2, x=0.01)
    # fabricate a wave operator that annihilates one H0 eigenvector of group 0
    omega = np.eye(6)
    omega[:, inst.partition.groups[0][0]] = 0.0
    fake = BlochSolution(
        omega_terms=omega[None],
        omega=omega,
        h_bloch=omega,
        order=0,
        tail_bound=0.0,
    )
    with pytest.raises(LeakageError, match="block Gram matrix for group 0"):
        perturbed_projection(inst, fake, 0)
