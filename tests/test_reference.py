"""The float pipeline against the 40-digit reference of ``reference.py``.

Seeded real and complex instances of dims 2-8, with contiguous, interleaved
and singleton groups.  The reference builds the wave operator two ways, so
these tests also check, in independent arithmetic, the theorem that the
series truncated at order J lies within its Catalan tail bound of the closed
form ``Omega[out, g] = S[out, g] S[g, g]^-1``.
"""

from functools import lru_cache

import numpy as np
import pytest

from leakage import operator_norm, run_leakage_experiment, solve_bloch_series

from conftest import interleaved_instance, make_instance
from reference import Reference, max_abs_diff
from reference import operator_norm as mp_operator_norm

CASES = {
    "contiguous-real-6": lambda: make_instance(91, 6, 3, x=0.01, real=True),
    "contiguous-complex-8": lambda: make_instance(92, 8, 2, x=0.015),
    "interleaved-real-7": lambda: interleaved_instance(93, 7, 2, 0.01, True),
    "interleaved-complex-8": lambda: interleaved_instance(94, 8, 3, 0.01, False),
    # groups {0, 4}, {1}, {2}, {3}: interleaved, three of them singletons
    "interleaved-singletons-complex-5": lambda: interleaved_instance(95, 5, 4, 0.01, False),
    "singletons-real-4": lambda: make_instance(96, 4, 4, x=0.01, real=True),
    "singletons-complex-2": lambda: make_instance(97, 2, 2, x=0.02),
}
TIMES = (0.7, 3.0, 25.0)


@lru_cache(maxsize=None)
def case(name):
    """The instance, its float Bloch solution, the reference and its series at the same order."""
    inst = CASES[name]()
    sol = solve_bloch_series(inst)
    ref = Reference(inst)
    return inst, sol, ref, ref.omega_series(sol.order)


@pytest.mark.parametrize("name", CASES)
def test_omega_matches_the_reference_series(name):
    inst, sol, ref, omega = case(name)
    assert max_abs_diff(omega, sol.omega) <= 1e-12


@pytest.mark.parametrize("name", CASES)
def test_h_bloch_matches_the_reference(name):
    inst, sol, ref, omega = case(name)
    assert max_abs_diff(ref.h_bloch(omega), sol.h_bloch) <= 1e-12 * operator_norm(inst.h)


@pytest.mark.parametrize("name", CASES)
def test_series_lies_within_its_tail_bound_of_the_closed_form(name):
    inst, sol, ref, omega = case(name)
    assert mp_operator_norm(omega - ref.omega_closed()) <= sol.tail_bound


@pytest.mark.parametrize("name", CASES)
def test_leakage_matches_the_reference(name):
    inst, sol, ref, omega = case(name)
    leak = run_leakage_experiment(inst, TIMES).per_block_leakage
    want = np.array([[float(ref.leakage(k, t)) for t in TIMES]
                     for k in range(inst.partition.n_groups)])
    assert np.abs(leak - want).max() <= 1e-12
