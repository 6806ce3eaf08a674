import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leakage import (
    OperatorMatrix,
    ProblemInstance,
    catalan,
    delta_of,
    herm_eig,
    operator_norm,
    partition_by_intervals,
    partition_by_threshold,
    solve_bloch_series,
)
from leakage import bloch_solver
from leakage.bloch_solver import J_MAX, SCAN_T_MAX
from leakage.bounds import catalan_tails
from leakage.errors import LeakageError
from leakage.models import ChainSpec, HarmonicChainSpec, build_chain, build_harmonic_chain

from conftest import dense_projection, grouped_instance, make_instance, to_original


def exact_two_level_omega(inst):
    """Wave operator from the exact eigenvectors of a 2x2 instance.

    Column k is the perturbed eigenvector attached to e_k, normalized so
    that its overlap with e_k is one.
    """
    lam, psi = np.linalg.eigh(inst.h)
    cols = []
    for k in range(2):
        # pick the eigenvector with the largest overlap with e_k
        j = int(np.argmax(np.abs(psi[k, :])))
        cols.append(psi[:, j] / psi[k, j])
    return np.column_stack(cols)


def test_two_level_series_matches_exact_wave_operator(rabi_instance):
    sol = solve_bloch_series(rabi_instance, tol=1e-14)
    exact = exact_two_level_omega(rabi_instance)
    assert operator_norm(to_original(rabi_instance, sol.omega) - exact) < 1e-12
    # the effective generator is diagonal with the exact eigenvalues
    lam = np.linalg.eigvalsh(rabi_instance.h)
    hb = to_original(rabi_instance, sol.h_bloch)
    assert abs(hb[0, 0] - lam[0]) < 1e-12
    assert abs(hb[1, 1] - lam[1]) < 1e-12
    assert abs(hb[0, 1]) < 1e-12 and abs(hb[1, 0]) < 1e-12


@pytest.mark.parametrize("n_sites, fock_cutoff", [(4, 7), (3, 9)])
def test_deep_series_matches_eigenprojection_wave_operator(n_sites, fock_cutoff):
    # harmonic chains with 8 and 10 bands, summed to orders above 30;
    # oracle: Omega P_k = Pt_k P_k (P_k Pt_k P_k)^-1 on ran P_k, with Pt_k
    # the spectral projection of H continuing group k
    h0, v, intervals = build_harmonic_chain(HarmonicChainSpec(
        n_sites=n_sites, omega=10.0, g=1.0, fock_cutoff=fock_cutoff, v0=0.3))
    part = partition_by_intervals(herm_eig(h0), intervals)
    inst = ProblemInstance(h0, v, 1.0, part)
    sol = solve_bloch_series(inst)
    assert part.n_groups == fock_cutoff + 1 and sol.order > 30
    u = part.eigenvectors
    _, s = np.linalg.eigh(u.conj().T @ inst.h @ u)
    exact = np.zeros((inst.dim, inst.dim), dtype=complex)
    for g in part.groups:
        # Weyl: H's eigenvalues keep H0's order across gaps wider than 2||V||
        pt = s[:, g] @ s[:, g].conj().T
        exact[:, g] = pt[:, g] @ np.linalg.inv(pt[np.ix_(g, g)])
    assert operator_norm(sol.omega - exact) <= sol.tail_bound + 1e-13


def test_sylvester_solution_residual():
    # first order solves [H0, Omega^(1) P_k] = -Q_k V P_k on every block,
    # with Omega^(1) P_k = Q_k Omega^(1) P_k
    inst = make_instance(21, 9, 3, x=0.01)
    term1 = to_original(inst, solve_bloch_series(inst).omega_terms[1])
    h0, v = inst.h0.entries, inst.v.entries
    for k in range(inst.partition.n_groups):
        p = dense_projection(inst, k)
        q = np.eye(inst.dim) - p
        x = term1 @ p
        assert operator_norm(h0 @ x - x @ h0 + q @ v @ p) < 1e-10
        assert operator_norm(x - q @ x @ p) < 1e-12


def test_first_order_term_entrywise():
    inst = make_instance(23, 7, 2, x=0.01)
    part = inst.partition
    u = part.eigenvectors
    lam = part.eigenvalues
    t_eig = solve_bloch_series(inst).omega_terms[1]
    v_eig = u.conj().T @ inst.v.entries @ u
    # independent formula: -V_ab / (lam_a - lam_b) across groups, 0 inside
    group_of = np.empty(7, dtype=int)
    for k, g in enumerate(part.groups):
        group_of[g] = k
    for a in range(7):
        for b in range(7):
            if group_of[a] == group_of[b]:
                assert abs(t_eig[a, b]) < 1e-14
            else:
                assert t_eig[a, b] == pytest.approx(
                    -v_eig[a, b] / (lam[a] - lam[b]), rel=1e-12, abs=1e-14
                )


def test_bloch_equations_hold():
    inst = make_instance(24, 12, 3, x=0.015)
    sol = solve_bloch_series(inst, tol=1e-13)
    h = inst.h
    scale = operator_norm(inst.h)
    om = to_original(inst, sol.omega)
    for k in range(inst.partition.n_groups):
        p = dense_projection(inst, k)
        om_k = om @ p
        assert operator_norm(h @ om_k - om_k @ h @ om_k) < 1e-11 * scale
        assert operator_norm(om_k @ p - om_k) < 1e-12
        assert operator_norm(p @ om_k - p) < 1e-11


@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(4, 12),
       groups=st.sampled_from(["clusters", 2, 3]), x=st.floats(1e-3, 0.03), real=st.booleans())
@settings(deadline=None, max_examples=40)
def test_omega_is_the_identity_on_its_diagonal_blocks(seed, dim, groups, x, real):
    # P_k Omega_k = P_k holds bit for bit: every Omega^(j), j >= 1, is zero on the
    # diagonal blocks, so check_instance does not read it
    inst = grouped_instance(seed, dim, groups, x, real)
    omega = solve_bloch_series(inst).omega
    for g in inst.partition.groups:
        assert np.array_equal(omega[np.ix_(g, g)], np.eye(len(g)))


@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(4, 12),
       groups=st.sampled_from(["clusters", 2, 3]), x=st.floats(1e-3, 0.055), real=st.booleans())
@settings(deadline=None, max_examples=40)
def test_series_matches_the_closed_form_wave_operator(seed, dim, groups, x, real):
    # oracle: with S the eigenvectors of H in the H0 eigenbasis, Omega[out, g] =
    # S[out, g] S[g, g]^-1 and Omega[g, g] = 1; Weyl keeps the groups' order in H
    inst = grouped_instance(seed, dim, groups, x, real)
    sol = solve_bloch_series(inst)
    _, s = np.linalg.eigh(inst.h_eig)
    closed = np.eye(inst.dim, dtype=s.dtype)
    for g, out in inst.partition.blocks:
        closed[np.ix_(out, g)] = s[np.ix_(out, g)] @ np.linalg.inv(s[np.ix_(g, g)])
    err = operator_norm(closed - sol.omega)
    assert err <= sol.tail_bound + 8 * inst.dim * np.finfo(float).eps


def test_series_terms_are_gamma_independent():
    a = make_instance(25, 8, 2, x=0.01, gamma=1.0)
    b = ProblemInstance(a.h0, a.v, 3.0, a.partition)
    sol_a = solve_bloch_series(a)
    sol_b = solve_bloch_series(b)
    n = min(len(sol_a.omega_terms), len(sol_b.omega_terms))
    for ta, tb in zip(sol_a.omega_terms[:n], sol_b.omega_terms[:n]):
        assert operator_norm(ta - tb) < 1e-12
    assert operator_norm(sol_a.omega_terms[0] - np.eye(8)) < 1e-13


def test_catalan_majorant_and_delta():
    inst = make_instance(26, 10, 3, x=0.018)
    sol = solve_bloch_series(inst)
    ratio = np.pi * inst.v_norm / inst.partition.gap
    for j, term in enumerate(sol.omega_terms):
        assert operator_norm(term) <= ratio**j * catalan(j) + 1e-12
    assert operator_norm(sol.omega - np.eye(10)) <= delta_of(inst.x) + 1e-9
    assert sol.tail_bound == pytest.approx(catalan_tails(inst.x, sol.order)[sol.order],
                                           rel=1e-12, abs=0.0)
    assert sol.tail_bound < 1e-12


def test_order_is_the_first_whose_tail_is_below_tol():
    inst = make_instance(26, 10, 3, x=0.0087)
    for tol in (1e-12, 1e-16):
        order = solve_bloch_series(inst, tol=tol).order
        tails = catalan_tails(inst.x, order)
        assert tails[order] < tol <= tails[order - 1]


def test_h_bloch_block_diagonal_and_isospectral():
    inst = make_instance(27, 11, 2, x=0.012)
    sol = solve_bloch_series(inst)
    hb = to_original(inst, sol.h_bloch)
    scale = operator_norm(inst.h)
    for k in range(inst.partition.n_groups):
        p = dense_projection(inst, k)
        assert operator_norm((np.eye(inst.dim) - p) @ hb @ p) < 1e-9 * scale
    spec_h = np.linalg.eigvalsh(inst.h)
    spec_hb = np.sort(np.linalg.eigvals(hb).real)
    assert np.abs(spec_hb - spec_h).max() < 1e-8 * scale
    # similarity H Omega = Omega H_bloch
    om = to_original(inst, sol.omega)
    assert operator_norm(inst.h @ om - om @ hb) < 1e-10 * scale


def harmonic_instance():
    h0, v, intervals = build_harmonic_chain(HarmonicChainSpec(n_sites=3, fock_cutoff=5, v0=0.3))
    return ProblemInstance(h0, v, 1.0, partition_by_intervals(herm_eig(h0), intervals))


@pytest.mark.parametrize("inst", [make_instance(27, 11, 3, x=0.012), harmonic_instance()],
                         ids=["random", "harmonic"])
def test_blocks_and_h_bloch_match_projection_formula(inst):
    # H_Bloch = sum_k P_k H Omega_k with Omega_k = Omega P_k and dense P_k,
    # in the original basis; in the H0 eigenbasis its off-blocks are exactly 0
    sol = solve_bloch_series(inst)
    om, h = to_original(inst, sol.omega), inst.h
    h_bloch = 0.0
    for k in range(inst.partition.n_groups):
        p = dense_projection(inst, k)
        h_bloch = h_bloch + p @ h @ (om @ p)
    assert np.abs(to_original(inst, sol.h_bloch) - h_bloch).max() < 1e-13
    for g, out in inst.partition.blocks:
        assert not sol.h_bloch[np.ix_(out, g)].any()


def fresh_copy(inst):
    return ProblemInstance(inst.h0, inst.v, inst.gamma, inst.partition)


def test_repeat_solves_reuse_the_cached_terms(monkeypatch):
    inst = make_instance(31, 12, 3, x=0.012)
    fills = []
    real = bloch_solver._fill_block_series
    monkeypatch.setattr(bloch_solver, "_fill_block_series",
                        lambda *args: fills.append(args[3]) or real(*args))
    sols = [solve_bloch_series(inst) for _ in range(3)]
    assert len(fills) == inst.partition.n_groups
    fresh = solve_bloch_series(fresh_copy(inst))
    assert len(fills) == 2 * inst.partition.n_groups
    for sol in sols:
        assert sol.omega_terms is sols[0].omega_terms
        assert sol.order == fresh.order
        assert np.array_equal(sol.omega_terms, fresh.omega_terms)
        for attr in ("omega", "h_bloch"):
            assert np.array_equal(getattr(sol, attr), getattr(fresh, attr))


def test_cached_terms_are_per_order_and_read_only():
    inst = make_instance(32, 10, 2, x=0.01)
    coarse = solve_bloch_series(inst, tol=1e-6)
    fine = solve_bloch_series(inst, tol=1e-14)
    assert coarse.order < fine.order
    for sol, tol in ((coarse, 1e-6), (fine, 1e-14)):
        fresh = solve_bloch_series(fresh_copy(inst), tol=tol)
        assert sol.omega_terms.shape == (sol.order + 1, 10, 10)
        assert np.array_equal(sol.omega_terms, fresh.omega_terms)
        assert np.array_equal(sol.omega, fresh.omega)
        assert not sol.omega_terms.flags.writeable
        with pytest.raises(ValueError):
            sol.omega_terms[1, 0, 0] = 1.0


def test_v_norm_computed_once(monkeypatch):
    inst = make_instance(33, 6, 2, x=0.01)
    norms = []
    real = bloch_solver.operator_norm
    monkeypatch.setattr(bloch_solver, "operator_norm",
                        lambda m: norms.append(m) or real(m))
    values = [inst.v_norm for _ in range(3)]
    assert inst.x == values[0] / (inst.gamma * inst.partition.gap)
    assert len(norms) == 1 and norms[0] is inst.v.entries
    assert values == [operator_norm(inst.v.entries)] * 3


def test_gamma_below_threshold_raises():
    inst = make_instance(28, 6, 2, x=0.3)  # 4 pi x > 1 at gamma = 1
    with pytest.raises(LeakageError, match=r"<= 4 pi \|\|V\|\| / eta"):
        solve_bloch_series(inst)


def test_not_converged_when_order_capped():
    # below the Bloch threshold (4 pi x = 0.8), but the Catalan tail at
    # order J_MAX is still 2.4e-9 > 1e-12
    inst = make_instance(29, 6, 2, x=0.8 / (4 * math.pi))
    with pytest.raises(LeakageError, match=f"tail still above tol = 1.0e-12 at order {J_MAX}"):
        solve_bloch_series(inst, tol=1e-12)
    with pytest.raises(ValueError):
        solve_bloch_series(inst, tol=0.0)


def test_instance_validation():
    inst = make_instance(30, 5, 2)
    with pytest.raises(ValueError):
        ProblemInstance(inst.h0, inst.v, 0.0, inst.partition)
    other = OperatorMatrix(np.zeros((4, 4)))
    with pytest.raises(ValueError):
        ProblemInstance(inst.h0, other, 1.0, inst.partition)
    for gamma in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError, match="finite"):
            ProblemInstance(inst.h0, inst.v, gamma, inst.partition)


@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(2, 10),
       gamma=st.floats(1e-3, 1e3), x=st.floats(1e-3, 10.0), real=st.booleans())
@settings(deadline=None, max_examples=40)
def test_h_bound_bounds_the_spectrum_of_h(seed, dim, gamma, x, real):
    # Weyl: max|lam(H)| <= gamma ||H0|| + ||V||, and ||V|| <= ||V||_inf for a Hermitian V
    inst = make_instance(seed, dim, 2, x=x, gamma=gamma, real=real)
    v_inf = np.abs(inst.v.entries).sum(axis=1).max()
    assert inst.h_bound == gamma * np.abs(inst.partition.eigenvalues).max() + v_inf
    assert np.abs(np.linalg.eigvalsh(inst.h)).max() <= inst.h_bound * (1.0 + 1e-13)


def test_instance_refuses_an_h_beyond_the_float_range():
    # the bound is formed without an overflow warning, for a Python or a numpy gamma
    inst = make_instance(30, 5, 2)
    h0 = OperatorMatrix(np.diag([0.0, 1.0, 2.0]))
    part = partition_by_intervals(herm_eig(h0), [(-0.5, 0.5), (0.6, 2.5)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for gamma in (1e308, np.float64(1e308)):
            with pytest.raises(ValueError, match=r"positive and finite, .* got 1e\+308 and inf"):
                ProblemInstance(inst.h0, inst.v, gamma, inst.partition)
        with pytest.raises(ValueError, match="positive and finite, .* got 1.0 and inf"):
            ProblemInstance(h0, OperatorMatrix(np.full((3, 3), 1e308)), 1.0, part)


def test_instance_admits_only_gammas_whose_scan_phases_are_finite():
    # on the dim-12 chain the invariant scan's horizon, not dim, sets the largest gamma:
    # refused where 50 h_bound overflows though 12 h_bound does not, admitted just below
    h0, v = build_chain(ChainSpec(4))
    part = partition_by_threshold(herm_eig(h0), 0.5)
    edge = np.finfo(float).max / SCAN_T_MAX / np.abs(part.eigenvalues).max()
    assert h0.dim == 12 and SCAN_T_MAX == 50.0
    inst = ProblemInstance(h0, v, edge * (1 - 1e-9), part)
    assert math.isfinite(SCAN_T_MAX * inst.h_bound)
    with pytest.raises(ValueError, match=r"positive and finite, as must max\(dim, 50\) .* inf"):
        ProblemInstance(h0, v, edge * (1 + 1e-9), part)
    v_inf = np.abs(v.entries).sum(axis=1).max()
    assert math.isfinite(12 * (edge * (1 + 1e-9) * np.abs(part.eigenvalues).max() + v_inf))


def test_instance_rejects_a_partition_of_another_dimension():
    inst = make_instance(30, 5, 2)
    with pytest.raises(ValueError, match="partition dimension does not match H0"):
        ProblemInstance(inst.h0, inst.v, 1.0, make_instance(30, 4, 2).partition)
