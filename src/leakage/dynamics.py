"""Simulated dynamics: leakage time series, evolution distances, sweeps.

All propagators come from one Hermitian eigendecomposition of H carried
out in the eigenbasis of H0, where the partition projections are
coordinate masks; leakage values are then singular values of off-block
submatrices of the propagator.  The non-Hermitian Bloch generator is
never exponentiated directly; its evolution is obtained through the
similarity with H.

The distance series are commutator norms in the eigenbasis of H, where
e^{-itH} is ``D = diag(e^{-i lam t})`` and ``[A, D] = -2i E (A o K) E``
with ``E = D^(1/2)``, ``K[m, n] = sin((lam_n - lam_m) t / 2)``.  With W
and Omega in that basis as X and Y, ``d_SW = ||[X, D]|| = 2 ||X o K||``
and ``d_Bloch = ||Y^-1 [Y, D]|| = 2 ||(Y^-1 E) (Y o K)||``: one GEMM at
most per time, and real ``X o K`` for a real H.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass

import numpy as np

from . import bounds
from .bloch_solver import ProblemInstance, solve_bloch_series
from .errors import DegenerateSweep, GroupNotPreserved, IndexOutOfRange
from .operator_core import operator_norm
from .schrieffer_wolff import sw_transform

VIOLATION_SLACK = 1e-9


@dataclass(frozen=True)
class LeakageReport:
    """Leakage and distance series over a time grid, with their bounds."""

    times: np.ndarray
    per_block_leakage: np.ndarray      # shape (n_groups, n_times)
    d_bloch_series: np.ndarray | None  # per-time ||e^-itH - e^-itH_Bloch||
    d_sw_series: np.ndarray | None
    bounds: bounds.BoundReport
    max_leakage: float
    violations: tuple                  # (kind, block or None, t); kind: leakage, d_bloch, d_sw

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
        u0 = inst.partition.eig.eigenvectors
        h_eig = u0.conj().T @ inst.h.entries @ u0
        h_eig = 0.5 * (h_eig + h_eig.conj().T)
        self.lam, self.s = np.linalg.eigh(h_eig)
        self.blocks = inst.partition.blocks

    def leakage(self, k: int, t: float) -> float:
        g, out = self.blocks[k]
        block = (self.s[out] * np.exp(-1j * t * self.lam)) @ self.s[g].conj().T
        if block.size == 0:
            return 0.0
        return float(np.linalg.svd(block, compute_uv=False)[0])


def run_leakage_experiment(
    inst: ProblemInstance,
    t_grid,
    with_distances: bool = True,
    series_tol: float = 1e-12,
) -> LeakageReport:
    """Leakage of every block over the grid, optionally with the
    Bloch/Schrieffer-Wolff distance series, checked against the bounds.

    Distance series require gamma above the respective thresholds and
    are skipped (None) otherwise.  ``violations`` lists every point where
    leakage or ``d_Bloch`` exceeds ``epsilon``, or ``d_SW`` exceeds the SW
    distance bound, labelled by kind.
    """
    times = np.asarray(t_grid, dtype=float)
    evo = _Evolution(inst)
    n_groups = inst.partition.n_groups
    leak = np.zeros((n_groups, times.size))
    for j, t in enumerate(times):
        for k in range(n_groups):
            leak[k, j] = evo.leakage(k, t)

    report = bounds.bound_report(inst.v_norm, inst.gamma, inst.partition.gap)

    d_bloch = d_sw = None
    if with_distances and inst.gamma > report.gamma_threshold_bloch:
        bloch = solve_bloch_series(inst, tol=series_tol)
        u = inst.partition.eig.eigenvectors @ evo.s    # eigenvectors of H
        y = u.conj().T @ bloch.omega.entries @ u
        y_inv = np.linalg.inv(y)
        if inst.gamma > report.gamma_threshold_sw:
            x = u.conj().T @ sw_transform(inst, bloch).w.entries @ u
            d_sw = np.zeros(times.size)
        d_bloch = np.zeros(times.size)
        for j, t in enumerate(times):
            c, s = np.cos(0.5 * t * evo.lam), np.sin(0.5 * t * evo.lam)
            sines = np.outer(c, s) - np.outer(s, c)   # sin((lam_n - lam_m) t / 2)
            d_bloch[j] = 2.0 * operator_norm((y_inv * (c - 1j * s)) @ (y * sines))
            if d_sw is not None:
                d_sw[j] = 2.0 * operator_norm(x * sines)

    violations = []
    if report.epsilon is not None:
        bad = np.argwhere(leak > report.epsilon + VIOLATION_SLACK)
        violations = [("leakage", int(k), float(times[j])) for k, j in bad]
    for kind, series, allowed in (("d_bloch", d_bloch, report.epsilon),
                                  ("d_sw", d_sw, report.d_sw_bound)):
        if series is not None and allowed is not None:
            bad = np.flatnonzero(series > allowed + VIOLATION_SLACK)
            violations += [(kind, None, float(times[j])) for j in bad]

    return LeakageReport(
        times=times,
        per_block_leakage=leak,
        d_bloch_series=d_bloch,
        d_sw_series=d_sw,
        bounds=report,
        max_leakage=float(leak.max()),
        violations=tuple(violations),
    )


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
    """Max leakage versus gamma and the least-squares slope of the
    log-log relation (expected close to -1)."""
    gam = np.sort(np.asarray(gammas, dtype=float))
    maxima = np.array([
        run_leakage_experiment(
            ProblemInstance(template.h0, template.v, float(g), template.partition),
            t_grid, with_distances=False,
        ).max_leakage
        for g in gam
    ])
    usable = maxima > 0
    if usable.sum() < 4:
        raise DegenerateSweep(
            f"only {int(usable.sum())} usable sweep points",
            operation="gamma_scaling_sweep",
        )
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
        raise IndexOutOfRange(f"group index {k} is negative",
                              operation="truncation_convergence_study")
    cut = list(cutoffs)
    if any(b >= a for a, b in zip(cut[1:], cut)):
        raise ValueError("cutoffs must be strictly increasing")
    ref_interval = None
    values = []
    for c in cut:
        inst = builder(c)
        part = inst.partition
        if k >= part.n_groups:
            raise GroupNotPreserved(
                f"cutoff {c} leaves only {part.n_groups} groups, probe was {k}",
                operation="truncation_convergence_study",
            )
        interval = part.component_intervals[k]
        if ref_interval is None:
            ref_interval = interval
        else:
            drift = max(abs(interval[0] - ref_interval[0]), abs(interval[1] - ref_interval[1]))
            if drift > part.gap / 2.0:
                raise GroupNotPreserved(
                    f"group {k} interval moved by {drift:.3g} at cutoff {c}",
                    operation="truncation_convergence_study",
                )
        values.append(_Evolution(inst).leakage(k, t_probe))
    return values
