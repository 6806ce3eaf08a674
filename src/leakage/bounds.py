"""Closed-form scalar bounds and thresholds.

Everything here is a pure function of the dimensionless ratio
``x = ||V|| / (gamma * eta)``: the wave-operator distance delta(x), the
evolution-distance bound epsilon(x), the Catalan numbers controlling the
perturbative series, the Schrieffer-Wolff distance bound, and the eternal
leakage bound with its 9*pi*x linear envelope.

Each gamma regime is decided by one predicate in x, the domain of its
formulas: ``4 pi x < 1`` for the Bloch series, ``4 pi x < 2 (sqrt(2) - 1)``
(delta(x) < sqrt(2) - 1) for Schrieffer-Wolff.  Every module asks these
predicates; the gamma thresholds are only reported.

Each bound is one cancellation-free closed form in ``u = 4 pi x`` on its whole
domain: ``1 - sqrt(1 - u)`` is written ``u / (1 + sqrt(1 - u))``, and
``(1 - z)^(-1/2) - 1`` is evaluated through ``expm1`` and ``log1p``.
"""

from __future__ import annotations

import math

from .errors import LeakageError
from .record import ValueRecord

SQRT2_M1 = math.sqrt(2.0) - 1.0

#: how far a measured value may exceed its bound before it counts as a violation
SLACK = 1e-9


def gamma_threshold_bloch(v_norm: float, eta: float) -> float:
    """Smallest gamma for which the Bloch series is guaranteed to converge."""
    return 4.0 * math.pi * v_norm / eta


def gamma_threshold_sw(v_norm: float, eta: float) -> float:
    """Smallest gamma for which the Schrieffer-Wolff bound chain applies."""
    return 2.0 * math.pi / SQRT2_M1 * v_norm / eta


def _in_bloch_regime(x: float) -> bool:
    """The domain of delta(x) and epsilon(x), where the Bloch series converges;
    a negative or NaN ``x`` lies outside every domain and is bad input."""
    if not x >= 0:
        raise ValueError(f"x = {x} must be nonnegative")
    return 4.0 * math.pi * x < 1.0


def _bloch_u(x: float) -> float:
    """``4 pi x``, refused with ``LeakageError`` outside the Bloch regime."""
    if not _in_bloch_regime(x):
        raise LeakageError(f"4 pi x = {4.0 * math.pi * x:.6g} >= 1")
    return 4.0 * math.pi * x


def _in_sw_regime(x: float) -> bool:
    """The domain of the Schrieffer-Wolff distance bound: delta(x) < sqrt(2) - 1,
    which is 4 pi x < 2 (sqrt(2) - 1), the edge ``gamma_threshold_sw`` reports."""
    return _in_bloch_regime(x) and 4.0 * math.pi * x < 2.0 * SQRT2_M1


def delta_of(x: float) -> float:
    """Bound on ||Omega - 1||: (1 - sqrt(1 - 4 pi x))^2 / (4 pi x).

    Evaluated as u / (1 + sqrt(1 - u))^2 with u = 4 pi x, the same value
    without the cancellation in 1 - sqrt(1 - u), and exactly 0 at x = 0.
    Defined for 4 pi x < 1; monotone increasing, tending to 1 as 4 pi x -> 1.
    """
    u = _bloch_u(x)
    return u / (1.0 + math.sqrt(1.0 - u)) ** 2


def epsilon_of(x: float) -> float:
    """Bound on the Bloch evolution distance: 1/sqrt(1 - 4 pi x) - 1."""
    u = _bloch_u(x)
    # expm1/log1p form stays accurate for tiny x
    return math.expm1(-0.5 * math.log1p(-u))


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
    _bloch_u(x)
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


def sw_distance_bound(x: float) -> float:
    """Eternal bound on the Schrieffer-Wolff evolution distance.

    2 * (1 / sqrt(sqrt(1 - 4 pi x) - 2 pi x) - 1), valid while
    delta(x) < sqrt(2) - 1.  Always at least epsilon_of(x).  Evaluated as
    2 * expm1(-0.5 * log1p(-u / (1 + sqrt(1 - u)) - u / 2)) with u = 4 pi x.
    """
    if not _in_sw_regime(x):
        raise LeakageError(f"delta({x:.6g}) not below sqrt(2) - 1")
    u = 4.0 * math.pi * x
    return 2.0 * math.expm1(-0.5 * math.log1p(-u / (1.0 + math.sqrt(1.0 - u)) - 0.5 * u))


class BoundReport(ValueRecord):
    """All scalar bounds evaluated for one (||V||, gamma, eta) triple.

    Fields that are only defined above a gamma threshold are ``None``
    when that threshold is not met; the linear leakage bound is always
    present.
    """

    __slots__ = ("v_norm", "gamma", "eta", "x", "delta", "epsilon", "d_sw_bound",
                 "leakage_linear", "gamma_threshold_bloch", "gamma_threshold_sw")

    def __init__(self, v_norm: float, gamma: float, eta: float, x: float, delta: float | None,
                 epsilon: float | None, d_sw_bound: float | None, leakage_linear: float,
                 gamma_threshold_bloch: float, gamma_threshold_sw: float):
        self._init(locals())


def bound_report(v_norm: float, gamma: float, eta: float) -> BoundReport:
    """Every bound for one instance, None out of its domain; ValueError if one is not finite."""
    if not all(map(math.isfinite, (v_norm, gamma, eta))):
        raise ValueError(f"v_norm, gamma and eta must be finite, got {v_norm}, {gamma}, {eta}")
    if eta <= 0 or gamma <= 0:
        raise ValueError("eta and gamma must be positive")
    if v_norm < 0:
        raise ValueError("v_norm must be nonnegative")
    x = v_norm / (gamma * eta)
    in_bloch = _in_bloch_regime(x)
    delta = delta_of(x) if in_bloch else None
    eps = epsilon_of(x) if in_bloch else None
    d_sw = sw_distance_bound(x) if _in_sw_regime(x) else None
    report = BoundReport(
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
    for key, val in report.to_json().items():
        if val is not None and not math.isfinite(val):
            raise ValueError(f"bound report field '{key}' is not finite: {val}")
    return report
