"""Closed-form scalar bounds and thresholds.

Everything here is a pure function of the dimensionless ratio
``x = ||V|| / (gamma * eta)``: the wave-operator distance delta(x), the
evolution-distance bound epsilon(x), the Catalan numbers controlling the
perturbative series, the Schrieffer-Wolff distance bound, and the eternal
leakage bound with its 9*pi*x linear envelope.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .errors import NonpositiveBandgap, OutOfDomain

SQRT2_M1 = math.sqrt(2.0) - 1.0

#: series branch switch-over for delta(x); below this the closed form is
#: dominated by cancellation in 1 - sqrt(1 - 4 pi x)
_DELTA_SERIES_X = 1e-8


def gamma_threshold_bloch(v_norm: float, eta: float) -> float:
    """Smallest gamma for which the Bloch series is guaranteed to converge."""
    return 4.0 * math.pi * v_norm / eta


def gamma_threshold_sw(v_norm: float, eta: float) -> float:
    """Smallest gamma for which the Schrieffer-Wolff bound chain applies."""
    return 2.0 * math.pi / SQRT2_M1 * v_norm / eta


def delta_of(x: float) -> float:
    """Bound on ||Omega - 1||: (1 - sqrt(1 - 4 pi x))^2 / (4 pi x).

    Defined for 4 pi x < 1; continuous at 0 with delta(0) = 0 (the
    closed form is 0/0 there, resolved by its series pi*x + 2(pi*x)^2 + ...).
    Monotone increasing, tending to 1 as 4 pi x -> 1.
    """
    if x < 0:
        raise OutOfDomain(f"x = {x} must be nonnegative", operation="delta_of")
    u = 4.0 * math.pi * x
    if u >= 1.0:
        raise OutOfDomain(f"4 pi x = {u:.6g} >= 1", operation="delta_of")
    if x < _DELTA_SERIES_X:
        px = math.pi * x
        return px * (1.0 + 2.0 * px + 5.0 * px * px)
    return (1.0 - math.sqrt(1.0 - u)) ** 2 / u


def epsilon_of(x: float) -> float:
    """Bound on the Bloch evolution distance: 1/sqrt(1 - 4 pi x) - 1."""
    if x < 0:
        raise OutOfDomain(f"x = {x} must be nonnegative", operation="epsilon_of")
    u = 4.0 * math.pi * x
    if u >= 1.0:
        raise OutOfDomain(f"4 pi x = {u:.6g} >= 1", operation="epsilon_of")
    # expm1/log1p form stays accurate for tiny x
    return math.expm1(-0.5 * math.log1p(-u))


@lru_cache(maxsize=None)
def catalan(j: int) -> int:
    """j-th Catalan number, exact integer."""
    if j < 0:
        raise ValueError("index must be nonnegative")
    return math.comb(2 * j, j) // (j + 1)


#: terms summed past the last requested order before the rest is bounded
#: in closed form; only reached when 4 pi x is within ~1e-3 of 1
_TAIL_TERMS_MAX = 4096


def catalan_tails(x: float, j_max: int) -> list:
    """Remainders ``sum_{j > J} C_j (pi x)^j`` for J = 0..j_max.

    The terms are generated with ``C_{j+1} / C_j = 2(2j+1)/(j+2)`` and
    summed directly, smallest first, so small tails keep full relative
    precision.  The terms past the last one summed are bounded through
    ``C_{j+1} / C_j < 4`` by ``t_n 4y / (1 - 4y)``: every tail is an
    upper bound on the true remainder, up to rounding.
    """
    if 4.0 * math.pi * x >= 1.0:
        raise OutOfDomain(f"4 pi x = {4 * math.pi * x:.6g} >= 1", operation="catalan_tails")
    if j_max < 0:
        raise ValueError("j_max must be nonnegative")
    y = math.pi * x
    q = 4.0 * y
    terms = [1.0]
    while True:
        n = len(terms) - 1
        rest = terms[n] * q / (1.0 - q)
        if n > j_max and (rest <= 1e-17 * terms[j_max + 1] or n >= j_max + _TAIL_TERMS_MAX):
            break
        terms.append(terms[n] * y * 2.0 * (2 * n + 1) / (n + 2))
    tails = [0.0] * (j_max + 1)
    for j in range(n - 1, -1, -1):
        rest += terms[j + 1]
        if j <= j_max:
            tails[j] = rest
    return tails


def catalan_tail(x: float, j_trunc: int) -> float:
    """Remainder ``sum_{j > J} (pi x)^j C_j`` of the Catalan majorant series."""
    return catalan_tails(x, j_trunc)[j_trunc]


def sw_distance_bound(x: float) -> float:
    """Eternal bound on the Schrieffer-Wolff evolution distance.

    2 * (1 / sqrt(sqrt(1 - 4 pi x) - 2 pi x) - 1), valid while
    delta(x) < sqrt(2) - 1.  Always at least epsilon_of(x).
    """
    if x < 0:
        raise OutOfDomain(f"x = {x} must be nonnegative", operation="sw_distance_bound")
    u = 4.0 * math.pi * x
    if u >= 1.0 or delta_of(x) >= SQRT2_M1:
        raise OutOfDomain(
            f"delta({x:.6g}) not below sqrt(2) - 1", operation="sw_distance_bound"
        )
    inner = math.sqrt(1.0 - u) - 2.0 * math.pi * x
    return 2.0 * (1.0 / math.sqrt(inner) - 1.0)


def harmonic_chain_bound(v0: float, omega: float, g: float) -> float:
    """Leakage bound for the coupled-band oscillator chain.

    ``(1 - 4 pi v0 / (omega - 4 g))^(-1/2) - 1`` in the weak-coupling
    regime omega > 4 g; equals ``epsilon_of(v0 / (omega - 4 g))``.
    """
    eta = omega - 4.0 * g
    if eta <= 0:
        raise OutOfDomain(f"omega - 4 g = {eta:.6g} <= 0", operation="harmonic_chain_bound")
    return epsilon_of(v0 / eta)


def transmon_leakage_bound(ej_over_ec: float, transparency_d: float) -> float:
    """Leakage bound for a transmon with a finite-transparency barrier.

    Combines the asymptotic k = 1 bandgap with the perturbation-norm
    bound ``E_J D / (8 (1 - D/2))``; both in units of the charge energy.
    """
    from .models import transmon_bandgap, transmon_perturbation_norm

    eta = transmon_bandgap(1, ej_over_ec)
    if eta <= 0:
        raise NonpositiveBandgap(
            f"k=1 bandgap {eta:.6g} is not positive", operation="transmon_leakage_bound"
        )
    v_norm = transmon_perturbation_norm(ej_over_ec, transparency_d)
    return epsilon_of(v_norm / eta)


@dataclass(frozen=True)
class BoundReport:
    """All scalar bounds evaluated for one (||V||, gamma, eta) triple.

    Fields that are only defined above a gamma threshold are ``None``
    when that threshold is not met; the linear leakage bound is always
    present.
    """

    v_norm: float
    gamma: float
    eta: float
    x: float
    delta: float | None
    epsilon: float | None
    d_sw_bound: float | None
    leakage_linear: float
    gamma_threshold_bloch: float
    gamma_threshold_sw: float

    def to_json(self) -> dict:
        return {
            "v_norm": self.v_norm,
            "gamma": self.gamma,
            "eta": self.eta,
            "x": self.x,
            "delta": self.delta,
            "epsilon": self.epsilon,
            "d_sw_bound": self.d_sw_bound,
            "leakage_linear": self.leakage_linear,
            "gamma_threshold_bloch": self.gamma_threshold_bloch,
            "gamma_threshold_sw": self.gamma_threshold_sw,
        }


def bound_report(v_norm: float, gamma: float, eta: float) -> BoundReport:
    """Evaluate every bound for one instance, flagging out-of-domain ones."""
    if eta <= 0 or gamma <= 0:
        raise ValueError("eta and gamma must be positive")
    if v_norm < 0:
        raise ValueError("v_norm must be nonnegative")
    x = v_norm / (gamma * eta)
    in_bloch = 4.0 * math.pi * x < 1.0
    delta = delta_of(x) if in_bloch else None
    eps = epsilon_of(x) if in_bloch else None
    in_sw = in_bloch and delta is not None and delta < SQRT2_M1
    d_sw = sw_distance_bound(x) if in_sw else None
    return BoundReport(
        v_norm=v_norm,
        gamma=gamma,
        eta=eta,
        x=x,
        delta=delta,
        epsilon=eps,
        d_sw_bound=d_sw,
        leakage_linear=9.0 * math.pi * x,
        gamma_threshold_bloch=gamma_threshold_bloch(v_norm, eta),
        gamma_threshold_sw=gamma_threshold_sw(v_norm, eta),
    )
