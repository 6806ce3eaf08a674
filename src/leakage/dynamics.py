"""Simulated dynamics: leakage series and maxima, evolution distances, sweeps.

All propagators come from one Hermitian eigendecomposition of H carried
out in the eigenbasis of H0, the basis every derived operator is kept
in, where the partition projections are coordinate masks.  With
``H = S diag(lam) S^dag`` there, the leakage ``||Q_k e^{-itH} P_k||``
is the top singular value of the off-block ``B = S_out D S_g^dag``,
``D = diag(e^{-i lam t})``.  It is read from the Gram matrix of B on its
smaller side, and for a real S the product is one real GEMM on the
interleaved real and imaginary parts of ``D S_out^T``.  ``max_leakage``
reads the grid maximum exactly at the points a Schatten-8 screen leaves open.
The non-Hermitian Bloch generator is never exponentiated directly; its
evolution is obtained through the similarity with H.

The distance series are commutator norms in the eigenbasis of H, where
e^{-itH} is ``D = diag(e^{-i lam t})`` and ``[A, D] = -2i E (A o K) E``
with ``E = D^(1/2)``, ``K[m, n] = sin((lam_n - lam_m) t / 2)``.  With W
and Omega in that basis as X and Y, ``d_SW = ||[X, D]|| = 2 ||X o K||``
and ``d_Bloch = ||Y^-1 [Y, D]|| = 2 ||(Y o K)^T (E Y^-T)||``, the transpose
of ``(Y^-1 E) (Y o K)``: one real GEMM per time and real ``X o K`` for a
real H.  As W and Omega are kept in the H0 eigenbasis, ``X = S^dag W S``
and ``Y = S^dag Omega S``.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

import numpy as np

from . import bounds
from .bloch_solver import SERIES_TOL_DEFAULT, ProblemInstance, solve_bloch_series
from .errors import LeakageError
from .operator_core import _gram, _gram_top, operator_norm
from .schrieffer_wolff import sw_transform

# max_leakage's screen margin: its products' roundoff is ~n^2 eps, 1e-9 at n = 3000
_SCREEN_MARGIN = 1e-8


@dataclass(frozen=True)
class LeakageReport:
    """Leakage and distance series over a time grid, with their bounds."""

    times: np.ndarray
    per_block_leakage: np.ndarray      # shape (n_groups, n_times)
    d_bloch_series: np.ndarray | None  # per-time ||e^-itH - e^-itH_Bloch||
    d_sw_series: np.ndarray | None
    bounds: bounds.BoundReport
    violations: tuple                  # (kind, block or None, t); kind: leakage, d_bloch, d_sw

    @property
    def max_leakage(self) -> float:
        return float(self.per_block_leakage.max())

    def to_json(self) -> dict:
        return {
            "times": self.times.tolist(),
            "per_block_leakage": self.per_block_leakage.tolist(),
            "d_bloch": None if self.d_bloch_series is None else self.d_bloch_series.tolist(),
            "d_sw": None if self.d_sw_series is None else self.d_sw_series.tolist(),
            "bounds": self.bounds.to_json(),
            "max_leakage": self.max_leakage,
            "violations": [list(v) for v in self.violations],
        }

    def to_csv(self) -> str:
        """Plot-ready series, columns t, k, leakage, d_bloch, d_sw."""
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["t", "k", "leakage", "d_bloch", "d_sw"])
        for j, t in enumerate(self.times):
            db = "" if self.d_bloch_series is None else repr(float(self.d_bloch_series[j]))
            ds = "" if self.d_sw_series is None else repr(float(self.d_sw_series[j]))
            for k in range(self.per_block_leakage.shape[0]):
                writer.writerow([repr(float(t)), k,
                                 repr(float(self.per_block_leakage[k, j])), db, ds])
        return buf.getvalue()


class _Evolution:
    """Eigendecomposition of H expressed in the H0 eigenbasis."""

    def __init__(self, inst: ProblemInstance):
        self.lam, self.s = np.linalg.eigh(inst.h_eig)
        # per block, conj(S_g) and a C-contiguous S_out^T, the two factors of B^T
        self._factors = [(self.s[g].conj(), np.ascontiguousarray(self.s[out].T))
                         for g, out in inst.partition.blocks]

    def leakage(self, k: int, t: float) -> float:
        """``||Q_k e^{-itH} P_k||``: the top singular value of the off-block
        ``B = S_out D S_g^dag`` with ``D = diag(e^{-i lam t})``, read from the
        small-side Gram of ``B^T = conj(S_g) (D S_out^T)``, which keeps its
        relative accuracy near machine epsilon.
        """
        sg_conj, sout_t = self._factors[k]
        bt = _product(sg_conj, np.exp(-1j * t * self.lam)[:, None] * sout_t)
        return math.sqrt(_gram_top(bt))


def _product(a: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """``a @ rhs``, one real GEMM on a C-contiguous complex ``rhs`` if ``a`` is real."""
    if a.dtype == np.float64:
        return (a @ rhs.view(np.float64)).view(np.complex128)
    return a @ rhs


def run_leakage_experiment(
    inst: ProblemInstance,
    t_grid,
    series_tol: float = SERIES_TOL_DEFAULT,
) -> LeakageReport:
    """Leakage of every block over the grid and the Bloch/Schrieffer-Wolff
    distance series, checked against the bounds.

    A distance series exists if and only if its bound does (``epsilon``
    for ``d_Bloch``, the SW distance bound for ``d_SW``) and is None
    otherwise.  ``violations`` lists every point where
    leakage or ``d_Bloch`` exceeds ``epsilon``, or ``d_SW`` exceeds the SW
    distance bound, labelled by kind.
    """
    times = np.asarray(t_grid, dtype=float)
    evo = _Evolution(inst)
    leak = np.array([[evo.leakage(k, t) for t in times] for k in range(inst.partition.n_groups)])

    report = bounds.bound_report(inst.v_norm, inst.gamma, inst.partition.gap)

    d_bloch = d_sw = None
    if report.epsilon is not None:
        bloch = solve_bloch_series(inst, tol=series_tol)
        u = evo.s    # eigenvectors of H in the H0 eigenbasis
        y = u.conj().T @ bloch.omega @ u
        y_inv_t = np.ascontiguousarray(np.linalg.inv(y).T)
        if report.d_sw_bound is not None:
            x = u.conj().T @ sw_transform(inst, bloch).w @ u
            d_sw = np.zeros(times.size)
        d_bloch = np.zeros(times.size)
        for j, t in enumerate(times):
            c, s = np.cos(0.5 * t * evo.lam), np.sin(0.5 * t * evo.lam)
            sines = np.outer(c, s) - np.outer(s, c)   # sin((lam_n - lam_m) t / 2)
            # M^T = (Y o K)^T (E Y^-T)
            m_t = _product((y * sines).T, (c - 1j * s)[:, None] * y_inv_t)
            d_bloch[j] = 2.0 * operator_norm(m_t)
            if d_sw is not None:
                d_sw[j] = 2.0 * operator_norm(x * sines)

    violations = []
    if report.epsilon is not None:
        bad = np.argwhere(leak > report.epsilon + bounds.SLACK)
        violations = [("leakage", int(k), float(times[j])) for k, j in bad]
    for kind, series, allowed in (("d_bloch", d_bloch, report.epsilon),
                                  ("d_sw", d_sw, report.d_sw_bound)):
        if series is not None and allowed is not None:
            bad = np.flatnonzero(series > allowed + bounds.SLACK)
            violations += [(kind, None, float(times[j])) for j in bad]

    return LeakageReport(
        times=times,
        per_block_leakage=leak,
        d_bloch_series=d_bloch,
        d_sw_series=d_sw,
        bounds=report,
        violations=tuple(violations),
    )


def max_leakage(inst: ProblemInstance, t_grid) -> float:
    """``max_{k,t} ||Q_k e^{-itH} P_k||`` over the grid, 0.0 for an empty one:
    the very float ``run_leakage_experiment(inst, t_grid).max_leakage`` gives.

    A screen bounds the Gram G that ``leakage(k, t)`` reads, with
    ``s = max|G|``: ``||G|| <= s ||(G/s)^4||_F^(1/4) = u``, the Schatten-8
    norm (Bhatia, *Matrix Analysis*, 1997, ch. IV); ``||G/s|| >= 1`` keeps
    ``(G/s)^4`` clear of underflow.  Points are read by ``leakage(k, t)`` in
    descending ``u`` until ``sqrt(u (1 + 1e-8)) <= best``, the relative margin
    covering the screen's roundoff: every value returned is a read, and
    every point skipped has a leakage of at most the best read.
    """
    evo = _Evolution(inst)
    screen = []
    for t in np.asarray(t_grid, dtype=float):
        phase = np.exp(-1j * t * evo.lam)[:, None]
        for k, (sg_conj, sout_t) in enumerate(evo._factors):
            gram = _gram(_product(sg_conj, phase * sout_t))
            s = np.abs(gram).max() or 1.0   # 1.0 for a zero Gram
            u = s * np.linalg.norm(np.linalg.matrix_power(gram / s, 4)) ** 0.25
            screen.append((u, k, t))
    best = 0.0
    for u, k, t in sorted(screen, reverse=True):
        if math.sqrt(u * (1.0 + _SCREEN_MARGIN)) <= best:
            break
        best = max(best, evo.leakage(k, t))
    return best


@dataclass(frozen=True)
class SweepResult:
    """Per-gamma leakage maxima and the fitted log-log slope."""

    gammas: np.ndarray
    max_leakages: np.ndarray
    slope: float

    def to_json(self) -> dict:
        return {
            "gammas": self.gammas.tolist(),
            "max_leakages": self.max_leakages.tolist(),
            "slope": self.slope,
        }


def gamma_scaling_sweep(template: ProblemInstance, gammas, t_grid) -> SweepResult:
    """``max_leakage`` versus gamma and the least-squares slope of the
    log-log relation (expected close to -1); each gamma may appear once."""
    gam = np.sort(np.asarray(gammas, dtype=float))
    repeated = gam[1:][gam[1:] == gam[:-1]]
    if repeated.size:
        raise ValueError(f"gamma {float(repeated[0])!r} appears more than once in the sweep")
    maxima = np.array([
        max_leakage(ProblemInstance(template.h0, template.v, float(g), template.partition),
                    t_grid)
        for g in gam
    ])
    usable = maxima > 0
    if usable.sum() < 4:
        raise ValueError(f"only {int(usable.sum())} usable sweep points")
    slope = float(np.polyfit(np.log(gam[usable]), np.log(maxima[usable]), 1)[0])
    return SweepResult(gammas=gam, max_leakages=maxima, slope=slope)


def truncation_convergence_study(builder, cutoffs, t_probe: float, k: int):
    """Leakage at ``t_probe`` for a sequence of truncation cutoffs.

    ``builder`` maps a cutoff to a ProblemInstance.  The probed group
    must exist at every cutoff and keep (approximately) the same
    spectral interval; otherwise the truncation has destroyed the band
    under study.
    """
    if k < 0:
        raise ValueError(f"group index {k} is negative")
    cut = list(cutoffs)
    if any(b >= a for a, b in zip(cut[1:], cut)):
        raise ValueError("cutoffs must be strictly increasing")
    ref_interval = None
    values = []
    for c in cut:
        inst = builder(c)
        part = inst.partition
        if k >= part.n_groups:
            raise LeakageError(f"cutoff {c} leaves only {part.n_groups} groups, probe was {k}")
        interval = part.component_intervals[k]
        if ref_interval is None:
            ref_interval = interval
        else:
            drift = max(abs(interval[0] - ref_interval[0]), abs(interval[1] - ref_interval[1]))
            if drift > part.gap / 2.0:
                raise LeakageError(f"group {k} interval moved by {drift:.3g} at cutoff {c}")
        values.append(_Evolution(inst).leakage(k, t_probe))
    return values
