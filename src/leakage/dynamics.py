"""Simulated dynamics: leakage series and maxima, evolution distances, sweeps.

All propagators come from one Hermitian eigendecomposition of H carried
out in the eigenbasis of H0, the basis every derived operator is kept
in, where the partition projections are coordinate masks.  With
``H = S diag(lam) S^dag`` there, the leakage ``||Q_k e^{-itH} P_k||``
is the top singular value of the off-block ``B = S_out D S_g^dag``,
``D = diag(e^{-i lam t})``, always formed as ``B = S_out (D S_g^dag)``
with ``S_g^dag`` held in complex arithmetic from the start.  It is read
from the Gram matrix of that product on its smaller side, and for a real
S the product is one real GEMM on the interleaved real and imaginary
parts of ``D S_g^dag``.  ``max_leakage`` reads the grid maximum exactly at
the points that no Cholesky test certifies to lie at or below the best
value read: one on the diagonal block ``S_g (D S_g^dag)`` of
``U = S D S^dag``, by unitarity, when ``|g| <= |out|``, and one on the
Gram; both share the one ``D S_g^dag`` per (t, block).
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
from .operator_core import _gram, _top, operator_norm
from .schrieffer_wolff import sw_transform

# relative margin of the screens that skip an exact read: on max_leakage's threshold tau, and
# on check_instance's Catalan majorants; it covers the relative roundoff of forming, factoring
# and reading a Gram, below 2 n^2 eps (7e-9 at n = 4000)
_SCREEN_MARGIN = 1e-8


@dataclass(frozen=True, eq=False)
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
        return float(self.per_block_leakage.max(initial=0.0))

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
        # per block (S_g, S_out, S_g^dag); D multiplies S_g^dag, held C-contiguous and
        # complex, so that the phase product casts nothing per (block, t)
        self.factors = [(self.s[g], self.s[out], _complex(self.s[g].conj().T))
                        for g, out in inst.partition.blocks]

    def leakage(self, k: int, t: float) -> float:
        """``||Q_k e^{-itH} P_k||``: the top singular value of the off-block
        ``B = S_out (D S_g^dag)`` with ``D = diag(e^{-i lam t})``, read from
        its Gram on the smaller side, which keeps its relative accuracy near
        machine epsilon.
        """
        _, s_out, s_g_dag = self.factors[k]
        right = np.exp(-1j * t * self.lam)[:, None] * s_g_dag
        return math.sqrt(_top(_gram(_product(s_out, right))))


def _complex(a: np.ndarray) -> np.ndarray:
    """``a`` as a C-contiguous complex128 array; for a real ``a``, ``z * _complex(a)``
    is bit-identical to ``z * a``, without the cast on every product."""
    return np.ascontiguousarray(a, dtype=np.complex128)


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
        y_inv_t = _complex(np.linalg.inv(y).T)
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
        if series is not None:
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

    One pass over (t, k) keeps ``best``, the largest value read, and tests
    each point against ``tau = best^2 (1 - 1e-8)`` by Cholesky, which
    succeeds on a positive definite matrix and fails on one that is not,
    up to its backward error (Higham, *Accuracy and Stability of Numerical
    Algorithms*, 2nd ed., SIAM 2002, ch. 10).  A point that neither test
    certifies is read as ``sqrt`` of the top eigenvalue of the Gram G that
    ``leakage(k, t)`` reads, so every value returned is a read.

    - **Unitarity.**  ``U = S D S^dag`` is unitary, so its columns g give
      ``U[g,g]^dag U[g,g] + B^dag B = I`` for ``B = U[out,g]``.  So with
      ``A = U[c,c]``, ``c = g``, ``||B||^2 = 1 - smin(A)^2``.  The first test
      factors ``A^dag A - (1 - tau + delta) I``, with A formed as
      ``S_g (D S_g^dag)`` from the factor ``D S_g^dag`` the read also uses:
      for a real S, ``4 n c^2`` flops against ``4 n |g| |out|``.  It runs
      only on blocks with ``|g| <= |out|``; a block with ``|g| > |out|``
      goes straight to the second test.
    - **The Gram.**  The second test factors ``tau I - G``; a point that
      fails it is read from that same G.
    - **The floor delta.**  The first test's roundoff is absolute.  Let
      ``r = sqrt(|g| |out|)`` and ``eta = ||S^dag S - I||`` for the computed
      S.  Each product entry is an inner product, off by at most
      ``gamma_m |x|^T |y|`` with ``gamma_m ~ m eps / 2`` (Higham ch. 3; at most
      doubled for complex data).  In units of ``||B||^2`` the errors are:
      ``2 eta + 8 eps`` in the identity, for the computed S and phases;
      ``||dA|| <= (n + 2) c eps`` in A, which moves ``smin(A)^2`` by twice
      that; ``(c + 2) c eps`` in ``A^dag A``; ``(c + 1) c eps`` in Cholesky,
      whose ``R^dag R = M + E`` has ``|E| <= gamma_{c+1} |R^dag| |R|`` and so
      ``||E|| <= (c + 1) eps tr(R^dag R)``; and ``2 (n + 2) r eps`` in the read
      the test stands in for, whose product is off by ``(n + 2) r eps``,
      its entries being inner products of length n of rows of S.  The
      Frobenius norm ``eta_hat`` of the computed ``S^dag S - I`` is off from
      eta by at most ``n^2 eps``.  With ``2c <= n``, as ``|g| <= |out|``
      gives, all of this is below
      ``delta = (n + 2)(3c + 2r + 2n + 4) eps + 3 eta_hat``.  The first test
      runs only while ``tau > 4 delta``: below that it could certify less
      than 3/4 of tau, and every point goes to the scale-free second test.
    - **Skipped points.**  A first-test success gives ``||B||^2 <= tau -
      2 (n + 2) r eps``, so the read's product has norm at most ``sqrt(tau)``
      (as ``tau <= 1``).  A second-test success bounds the read's own G by
      ``tau (1 + (c + 1) c eps)``.  What remains is relative roundoff in
      forming, factoring and reading G, below ``2 n^2 eps`` (7e-9 at
      n = 4000), which the ``1e-8`` in tau covers: every point skipped has a
      computed leakage of at most ``best``.
    """
    evo = _Evolution(inst)
    n = evo.lam.size
    eps = np.finfo(float).eps
    eta_hat = np.linalg.norm(evo.s.conj().T @ evo.s - np.eye(n))
    deltas = []   # per block, the first test's floor; infinite where that test does not run
    for g, out in inst.partition.blocks:
        terms = 3 * g.size + 2 * math.sqrt(g.size * out.size) + 2 * n + 4
        deltas.append((n + 2) * terms * eps + 3.0 * eta_hat if g.size <= out.size else math.inf)
    best = 0.0
    for t in np.asarray(t_grid, dtype=float):
        phase = np.exp(-1j * t * evo.lam)[:, None]
        for (s_g, s_out, s_g_dag), delta in zip(evo.factors, deltas):
            tau = best * best * (1.0 - _SCREEN_MARGIN)
            right = phase * s_g_dag
            if tau > 4.0 * delta:
                a_gram = _gram(_product(s_g, right))
                if _cholesky_succeeds(a_gram, 1.0 - tau + delta):
                    continue
            gram = _gram(_product(s_out, right))
            if _cholesky_succeeds(-gram, -tau):
                continue
            best = max(best, math.sqrt(_top(gram)))
    return best


def _cholesky_succeeds(m: np.ndarray, shift: float) -> bool:
    """Whether Cholesky factors the Hermitian ``m - shift I``; shifts ``m`` in place."""
    m.reshape(-1)[:: m.shape[0] + 1] -= shift
    try:
        np.linalg.cholesky(m)
    except np.linalg.LinAlgError:
        return False
    return True


@dataclass(frozen=True, eq=False)
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
