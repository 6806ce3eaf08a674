import math

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leakage import bound_report, catalan, delta_of, epsilon_of, harmonic_chain_bound
from leakage.bounds import (
    SQRT2_M1,
    catalan_tails,
    gamma_threshold_bloch,
    gamma_threshold_sw,
    sw_distance_bound,
)
from leakage.errors import LeakageError

X_MAX = 1.0 / (4.0 * math.pi)

# frozen values, evaluated in 50-digit arithmetic from the paper's forms (as the oracles below)
X_CHAIN = 0.01 / 1.15
DELTA_CHAIN = 0.028921196803706114
EPSILON_CHAIN = 0.059565087217458258
D_SW_CHAIN = 0.121012347297051329
EPSILON_RABI = 0.640266991764779503


# oracles: the paper's forms, whose cancellations 400 digits absorb down to x = 1e-300
def mp_delta(x):
    with mpmath.workdps(400):
        u = 4 * mpmath.pi * mpmath.mpf(x)
        return float((1 - mpmath.sqrt(1 - u)) ** 2 / u)


def mp_epsilon(x):
    with mpmath.workdps(400):
        u = 4 * mpmath.pi * mpmath.mpf(x)
        return float(1 / mpmath.sqrt(1 - u) - 1)


def mp_sw_terms(x):
    """D_SW and the allowances check_instance reads as epsilon/2 and D_SW/2:
    delta/(1 - delta) and (1 + delta)(1 - 2 delta - delta^2)^(-1/2) - 1."""
    with mpmath.workdps(400):
        u = 4 * mpmath.pi * mpmath.mpf(x)
        d = (1 - mpmath.sqrt(1 - u)) ** 2 / u
        d_sw = 2 * (1 / mpmath.sqrt(mpmath.sqrt(1 - u) - u / 2) - 1)
        w_allowance = (1 + d) / mpmath.sqrt(1 - 2 * d - d**2) - 1
        return float(d_sw), float(d / (1 - d)), float(w_allowance)


def test_frozen_point_values():
    assert delta_of(X_CHAIN) == pytest.approx(DELTA_CHAIN, rel=1e-13, abs=0.0)
    assert epsilon_of(X_CHAIN) == pytest.approx(EPSILON_CHAIN, rel=1e-13, abs=0.0)
    assert sw_distance_bound(X_CHAIN) == pytest.approx(D_SW_CHAIN, rel=1e-13, abs=0.0)
    assert epsilon_of(0.05) == pytest.approx(EPSILON_RABI, rel=1e-13, abs=0.0)


def test_point_values_match_extended_precision():
    for x in [1e-6, 1e-4, 0.003, X_CHAIN, 0.02, 0.05, 0.07]:
        assert delta_of(x) == pytest.approx(mp_delta(x), rel=1e-13, abs=0.0)
        assert epsilon_of(x) == pytest.approx(mp_epsilon(x), rel=1e-13, abs=0.0)


def test_closed_forms_match_extended_precision_on_a_log_grid():
    # every form keeps full relative precision from x = 1e-300 to near the SW edge;
    # at 1.01e-8 the cancelling form of delta is off by 1.7e-9
    for x in [10.0 ** (k / 4.0) for k in range(-1200, -4)] + [1.01e-8, 0.06, 0.065]:
        assert delta_of(x) == pytest.approx(mp_delta(x), rel=1e-15, abs=0.0), x
        assert epsilon_of(x) == pytest.approx(mp_epsilon(x), rel=1e-15, abs=0.0), x
        d_sw, half_eps, half_d_sw = mp_sw_terms(x)
        assert sw_distance_bound(x) == pytest.approx(d_sw, rel=1e-14, abs=0.0), x
        assert 0.5 * epsilon_of(x) == pytest.approx(half_eps, rel=1e-14, abs=0.0), x
        assert 0.5 * sw_distance_bound(x) == pytest.approx(half_d_sw, rel=1e-14, abs=0.0), x


def test_domain_edges():
    assert delta_of(0.0) == 0.0
    assert epsilon_of(0.0) == 0.0
    assert sw_distance_bound(0.0) == 0.0
    for fn, edge in ((delta_of, "4 pi x = 1 >= 1"), (epsilon_of, "4 pi x = 1 >= 1"),
                     (sw_distance_bound, r"not below sqrt\(2\) - 1"),
                     (lambda x: catalan_tails(x, 3), "4 pi x = 1 >= 1")):
        # an x outside every domain is bad input; one past a regime edge is not
        for bad in (-1e-3, -0.01, math.nan):
            with pytest.raises(ValueError, match="must be nonnegative"):
                fn(bad)
        with pytest.raises(LeakageError, match=edge):
            fn(X_MAX)
    # the sw bound dies earlier, at delta = sqrt(2) - 1
    with pytest.raises(LeakageError, match=r"delta\(0.07\) not below sqrt\(2\) - 1"):
        sw_distance_bound(0.07)
    assert sw_distance_bound(0.065) > 0.0


@given(st.floats(min_value=1e-300, max_value=0.079))
@settings(deadline=None, max_examples=200)
def test_identity_epsilon_from_delta(x):
    d = delta_of(x)
    assert epsilon_of(x) == pytest.approx(2.0 * d / (1.0 - d), rel=1e-12, abs=0.0)


@given(st.floats(min_value=0.0, max_value=0.079), st.floats(min_value=0.0, max_value=0.079))
@settings(deadline=None, max_examples=200)
def test_monotonicity(x1, x2):
    lo, hi = sorted((x1, x2))
    assert delta_of(lo) <= delta_of(hi)
    assert epsilon_of(lo) <= epsilon_of(hi)
    assert delta_of(lo) <= epsilon_of(lo)


def test_catalan_values_and_recurrence():
    assert [catalan(j) for j in range(8)] == [1, 1, 2, 5, 14, 42, 132, 429]
    with pytest.raises(ValueError):
        catalan(-1)


@given(st.integers(min_value=0, max_value=200))
@settings(deadline=None)
def test_catalan_recurrence(j):
    # C_{j+1} = C_j * 2(2j+1)/(j+2), exact in integers
    assert catalan(j + 1) * (j + 2) == catalan(j) * 2 * (2 * j + 1)


def test_catalan_tails_rejects_a_negative_order():
    with pytest.raises(ValueError, match="j_max must be nonnegative"):
        catalan_tails(0.01, -1)


def test_catalan_tail_properties():
    x = 0.02
    tails = [catalan_tails(x, j)[j] for j in range(30)]
    assert all(t >= 0.0 for t in tails)
    assert all(a >= b for a, b in zip(tails, tails[1:]))
    # the tail is exactly what the generating function says is missing
    y = math.pi * x
    assert tails[5] == pytest.approx(
        sum(catalan(j) * y**j for j in range(6, 400)), rel=1e-10, abs=0.0
    )


def mp_catalan_tail(x, j_trunc):
    with mpmath.workdps(60):
        y = mpmath.pi * mpmath.mpf(x)
        full = (1 - mpmath.sqrt(1 - 4 * y)) / (2 * y)
        return float(full - sum(mpmath.binomial(2 * j, j) / (j + 1) * y**j
                                for j in range(j_trunc + 1)))


@pytest.mark.parametrize("x, j_trunc", [(0.0087, 12), (0.0087, 14), (0.0087, 18),
                                         (0.02, 5), (0.05, 40), (1e-9, 2)])
def test_catalan_tail_matches_extended_precision(x, j_trunc):
    # small tails keep their relative precision instead of rounding to 0
    expected = mp_catalan_tail(x, j_trunc)
    assert catalan_tails(x, j_trunc)[j_trunc] == pytest.approx(expected, rel=1e-13, abs=0.0)


def test_catalan_tail_bounds_the_remainder_near_the_edge():
    # 4 pi x close to 1: the summed terms stop early and the rest is bounded
    x = 0.999 * X_MAX
    for j_trunc in (3, 60):
        exact = mp_catalan_tail(x, j_trunc)
        assert exact <= catalan_tails(x, j_trunc)[j_trunc] <= 1.001 * exact


def test_thresholds_and_delta_equivalence():
    # gamma above the sw threshold if and only if delta < sqrt(2) - 1,
    # checked on a 1000-triple grid
    assert gamma_threshold_sw(1.0, 1.0) / gamma_threshold_bloch(1.0, 1.0) == pytest.approx(
        1.0 / (2.0 * SQRT2_M1), rel=1e-14, abs=0.0
    )
    import numpy as np

    rng = np.random.default_rng(7)
    for _ in range(1000):
        v_norm = rng.uniform(0.001, 2.0)
        eta = rng.uniform(0.1, 5.0)
        gamma = rng.uniform(0.01, 50.0)
        above = gamma > gamma_threshold_sw(v_norm, eta)
        x = v_norm / (gamma * eta)
        if abs(x - SQRT2_M1 / (2.0 * math.pi)) < 1e-9:
            continue  # on the boundary both sides are ties
        if 4.0 * math.pi * x >= 1.0:
            assert not above
        else:
            assert above == (delta_of(x) < SQRT2_M1)


def test_leakage_bound():
    # the sharp (epsilon) and linear (9 pi x) eternal leakage bounds
    report = bound_report(0.01, 1.0, 1.15)
    assert report.epsilon == pytest.approx(EPSILON_CHAIN, rel=1e-13, abs=0.0)
    assert report.leakage_linear == pytest.approx(9.0 * math.pi * 0.01 / 1.15, rel=1e-14, abs=0.0)
    report = bound_report(1.0, 1.0, 1.0)  # 4 pi x >= 1
    assert report.epsilon is None
    assert report.leakage_linear == pytest.approx(9.0 * math.pi)
    with pytest.raises(ValueError):
        bound_report(0.01, 0.0, 1.0)
    with pytest.raises(ValueError):
        bound_report(0.01, 1.0, -1.0)


@pytest.mark.parametrize("args, field", [
    ((1e308, 1.0, 1.0), "leakage_linear"),
    ((1e300, 1e-10, 1e-10), "x"),
], ids=["linear-overflow", "x-overflow"])
def test_bound_report_refuses_a_field_beyond_the_float_range(args, field):
    # finite arguments whose report would hold an infinity, which JSON cannot carry
    with pytest.raises(ValueError, match=f"^bound report field '{field}' is not finite: inf$"):
        bound_report(*args)


def test_sharp_below_linear_where_informative():
    # epsilon(x) <= 9 pi x exactly up to x = 2/(9 pi), equality at the end
    x_star = 2.0 / (9.0 * math.pi)
    assert epsilon_of(x_star) == pytest.approx(2.0, rel=1e-12, abs=0.0)
    for i in range(1, 1000):
        x = x_star * i / 999.0
        assert epsilon_of(x) <= 9.0 * math.pi * x + 1e-12


def test_harmonic_chain_bound():
    assert harmonic_chain_bound(0.01, 10.0, 1.0) == pytest.approx(
        0.010639393494278266, rel=1e-13, abs=0.0
    )
    assert harmonic_chain_bound(0.01, 10.0, 1.0) == epsilon_of(0.01 / 6.0)
    with pytest.raises(ValueError, match="omega - 4 g = 0 <= 0"):
        harmonic_chain_bound(0.01, 4.0, 1.0)


def test_bound_report_flags():
    rep = bound_report(0.01, 1.0, 1.15)
    assert rep.x == pytest.approx(X_CHAIN)
    assert rep.delta == pytest.approx(DELTA_CHAIN, rel=1e-13, abs=0.0)
    assert rep.epsilon == pytest.approx(EPSILON_CHAIN, rel=1e-13, abs=0.0)
    assert rep.d_sw_bound == pytest.approx(D_SW_CHAIN, rel=1e-13, abs=0.0)
    assert rep.gamma_threshold_bloch == pytest.approx(4.0 * math.pi * 0.01 / 1.15)
    blob = rep.to_json()
    assert set(blob) == {
        "v_norm", "gamma", "eta", "x", "delta", "epsilon", "d_sw_bound",
        "leakage_linear", "gamma_threshold_bloch", "gamma_threshold_sw",
    }
    # between the two thresholds: delta defined, sw bound not
    rep = bound_report(0.07, 1.0, 1.0)
    assert rep.delta is not None and rep.d_sw_bound is None
    # beyond the series radius everything but the linear bound is gone
    rep = bound_report(1.0, 1.0, 1.0)
    assert rep.delta is None and rep.epsilon is None and rep.d_sw_bound is None
    assert rep.leakage_linear == pytest.approx(9.0 * math.pi)
