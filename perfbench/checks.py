"""Output checks for every benchmark operation, against independent oracles.

The oracles never reuse the package's numerics:

* ``H0`` is rebuilt here from the model definition and compared with the
  program's; ``V`` is rebuilt for the harmonic chain and checked for shape
  and norm for the disordered chain, whose seeded draw is the model's own.
* Projections come from ``numpy.linalg.eigh(H0)``, grouped wherever
  adjacent eigenvalues differ by more than a split: the config's threshold
  for the chain, and half the level spacing ``omega`` for the harmonic
  chain, whose bands are ``4 g`` wide and ``omega - 4 g`` apart.
* Propagators come from ``scipy.linalg.expm(-1j*t*H)``, taken in the
  ``H0`` eigenbasis, where ``P_k`` is a coordinate mask.  On the sweep's
  full grid every tenth point is exponentiated directly and the points in
  between are stepped from it with ``expm(-1j*dt*H)``.
* ``epsilon``, the SW distance bound and the Bloch truncation order are
  evaluated from their closed forms with ``x = ||V|| / (gamma * eta)``.

A check returns a list of failure messages; an empty list means the
operation's output is correct.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
import scipy.linalg

from workloads import GAMMAS

LEAKAGE_TOL = 1e-12
SLOPE_TOL = 0.15
SERIES_TOL = 1e-12          # the CLI's default series tolerance
STEP_STRIDE = 10            # sweep grid: exponentiate directly every 10th point


# -- models -----------------------------------------------------------------

def chain_h0(params: dict) -> np.ndarray:
    n = params["n_cells"]
    d = 3 * n
    h = np.zeros((d, d))
    for j in range(n):
        h[3 * j, 3 * j + 1] = params.get("g1", 1.0)
        h[3 * j + 1, 3 * j + 2] = params.get("g2", 1.5)
        h[3 * j + 2, (3 * j + 3) % d] = params.get("g3", 2.0)
    return h + h.T


def harmonic_pair(params: dict) -> tuple[np.ndarray, np.ndarray]:
    n, levels = params["n_sites"], params["fock_cutoff"] + 1
    omega, g, v0 = params["omega"], params["g"], params["v0"]
    h0 = np.kron(np.diag(omega * (np.arange(levels) + 0.5)), np.eye(n))
    hop = np.diag(np.ones(n - 1), 1) + np.diag(np.ones(n - 1), -1)
    h0 -= g * np.kron(np.eye(levels), hop)
    ladder = np.diag(np.ones(levels - 1), 1) + np.diag(np.ones(levels - 1), -1)
    return h0, 0.5 * v0 * np.kron(ladder, np.eye(n))


def model_matrices(cfg: dict, program_h0: np.ndarray, program_v: np.ndarray):
    """Oracle ``(H0, V, split)``, or a message saying how the program's differ."""
    params = cfg["params"]
    if cfg["model"] == "harmonic":
        h0, v = harmonic_pair(params)
        split = 0.5 * params["omega"]
    else:
        h0 = chain_h0(params)
        split = cfg["partition"]["threshold"]
        v = program_v
        diag = np.diag(v)
        off = v - np.diag(diag)
        if np.any(off) or abs(np.abs(diag).max() - params["disorder_strength"]) > 1e-15:
            return None, "chain disorder is not diagonal with the configured norm"
    if program_h0.shape != h0.shape or np.abs(program_h0 - h0).max() > 0:
        return None, "program H0 differs from the model definition"
    if np.abs(program_v - v).max() > 0:
        return None, "program V differs from the model definition"
    return (h0, v, split), None


# -- closed forms -----------------------------------------------------------

def epsilon_of(x: float) -> float:
    return 1.0 / math.sqrt(1.0 - 4.0 * math.pi * x) - 1.0


def sw_bound_of(x: float) -> float:
    return 2.0 * (1.0 / math.sqrt(math.sqrt(1.0 - 4.0 * math.pi * x) - 2.0 * math.pi * x) - 1.0)


def truncation_order(x: float, tol: float = SERIES_TOL, j_max: int = 64) -> int:
    """Smallest J with ``sum_{j>J} C_j (pi x)^j < tol``, summed term by term."""
    y = math.pi * x
    terms = [1.0]
    while len(terms) < 2000 and terms[-1] > 1e-30 * tol:
        j = len(terms) - 1
        terms.append(terms[-1] * y * 2.0 * (2 * j + 1) / (j + 2))
    tail = 0.0
    tails = []
    for t in reversed(terms):       # tails[i] = sum of terms after index len-1-i
        tails.append(tail)
        tail += t
    tails.reverse()
    return next(j for j in range(j_max + 1) if tails[j] < tol)


# -- dynamics ---------------------------------------------------------------

class Spectrum:
    """Band groups of ``H0``; ``H`` and its propagators in the ``H0`` eigenbasis,
    where each projection ``P_k`` is a coordinate mask."""

    def __init__(self, h0: np.ndarray, v: np.ndarray, split: float):
        lam, u0 = np.linalg.eigh(h0)
        v_e = u0.conj().T @ v @ u0
        self.lam, self.v_e = lam, 0.5 * (v_e + v_e.conj().T)
        cuts = np.where(np.diff(lam) > split)[0] + 1
        self.groups = np.split(np.arange(lam.size), cuts)
        self.outs = [np.setdiff1d(np.arange(lam.size), g) for g in self.groups]
        self.eta = float(min(lam[c] - lam[c - 1] for c in cuts))
        self.v_norm = float(np.linalg.norm(v, 2))

    def x(self, gamma: float) -> float:
        return self.v_norm / (gamma * self.eta)

    def h(self, gamma: float) -> np.ndarray:
        return gamma * np.diag(self.lam) + self.v_e

    def leakage(self, propagators: np.ndarray) -> np.ndarray:
        """``||Q_k U P_k||`` for a stack of propagators; shape (groups, times)."""
        return np.array([
            np.linalg.svd(propagators[:, o][:, :, g], compute_uv=False)[:, 0]
            for g, o in zip(self.groups, self.outs)
        ])

    def leakage_at(self, gamma: float, times) -> np.ndarray:
        h = self.h(gamma)
        return self.leakage(np.stack([scipy.linalg.expm(-1j * t * h) for t in times]))

    def leakage_grid(self, gamma: float, times: np.ndarray) -> np.ndarray:
        """Leakage on an equally spaced grid starting at 0."""
        h = self.h(gamma)
        step = scipy.linalg.expm(-1j * (times[1] - times[0]) * h)
        out = []
        for start in range(0, times.size, STEP_STRIDE):
            props = [scipy.linalg.expm(-1j * times[start] * h)]
            for _ in range(1, min(STEP_STRIDE, times.size - start)):
                props.append(props[-1] @ step)
            out.append(self.leakage(np.stack(props)))
        return np.concatenate(out, axis=1)


def grid(cfg: dict) -> np.ndarray:
    tg = cfg["t_grid"]
    return np.linspace(0.0, tg["t_max"], tg["n_points"])


# -- per-workload checkers ----------------------------------------------------

class RunChecker:
    """``leakage run``: bounds, invariants, order and sampled leakage."""

    def __init__(self, cfg: dict, spectrum: Spectrum, every_point: bool):
        self.cfg = cfg
        self.times = grid(cfg)
        n = self.times.size
        self.idx = np.arange(n) if every_point else np.arange(0, n, max(1, (n - 1) // 10))
        gamma = cfg["gamma"]
        self.oracle = spectrum.leakage_at(gamma, self.times[self.idx])
        x = spectrum.x(gamma)
        self.epsilon, self.sw_bound = epsilon_of(x), sw_bound_of(x)
        self.order = truncation_order(x)

    def check(self, out_dir: Path) -> list[str]:
        bad = []
        summary = json.loads((out_dir / "summary.json").read_text())
        series = json.loads((out_dir / "series.json").read_text())
        if summary["violations"]:
            bad.append(f"violations reported: {summary['violations'][:3]}")
        inv = summary["invariants"]
        if not inv or not all(r["passed"] for r in inv):
            bad.append("invariants missing or failed")
        if summary["series_order"] != self.order:
            bad.append(f"series_order {summary['series_order']} != {self.order}")
        if not np.array_equal(np.asarray(series["times"]), self.times):
            bad.append("time grid differs from the config")
            return bad
        leak = np.asarray(series["per_block_leakage"])[:, self.idx]
        dev = np.abs(leak - self.oracle).max() if leak.shape == self.oracle.shape else math.inf
        if not dev <= LEAKAGE_TOL:
            bad.append(f"leakage deviates from expm oracle by {dev:.3e}")
        for key, bound in (("d_bloch", self.epsilon), ("d_sw", self.sw_bound)):
            if series[key] is None or not max(series[key]) <= bound:
                bad.append(f"max {key} missing or above its bound {bound:.3e}")
        csv = out_dir / "series.csv"
        if "series.csv" in {o["path"] for o in self.cfg.get("outputs", [])}:
            rows = csv.read_text().splitlines() if csv.exists() else []
            if len(rows) != 1 + len(self.oracle) * self.times.size or rows[0] != "t,k,leakage,d_bloch,d_sw":
                bad.append("series.csv missing or malformed")
        return bad


class SweepChecker:
    """``leakage sweep``: per-gamma maxima against the full-grid oracle."""

    def __init__(self, cfg: dict, spectrum: Spectrum):
        times = grid(cfg)
        self.maxima = np.array([spectrum.leakage_grid(g, times).max() for g in GAMMAS])
        self.epsilons = np.array([epsilon_of(spectrum.x(g)) for g in GAMMAS])

    def check(self, out_dir: Path) -> list[str]:
        bad = []
        blob = json.loads((out_dir / "stdout.txt").read_text())
        if blob["gammas"] != [float(g) for g in GAMMAS]:
            return [f"gammas {blob['gammas']} differ from the requested list"]
        maxima = np.asarray(blob["max_leakages"])
        if not abs(blob["slope"] + 1.0) <= SLOPE_TOL:
            bad.append(f"slope {blob['slope']:.4f} outside -1 +/- {SLOPE_TOL}")
        if not np.all(maxima <= self.epsilons):
            bad.append("a maximum exceeds its epsilon")
        dev = np.abs(maxima - self.maxima).max()
        if not dev <= LEAKAGE_TOL:
            bad.append(f"maxima deviate from the full-grid oracle by {dev:.3e}")
        return bad


class VerifyChecker:
    """``leakage verify``: every line PASS over 101 instances."""

    def __init__(self, cfg: dict):
        self.n_instances = cfg["verify_instances"] + 1

    def check(self, out_dir: Path) -> list[str]:
        lines = (out_dir / "stdout.txt").read_text().splitlines()
        bad = [f"not passed: {line}" for line in lines if not line.startswith("PASS ")]
        if not lines or lines[-1] != f"PASS invariant suite ({self.n_instances} instances)":
            bad.append(f"unexpected suite line: {lines[-1] if lines else None!r}")
        return bad


def make_checker(workload: str, cfg: dict, program_h0=None, program_v=None):
    """Checker for one workload's operations.

    ``program_h0``/``program_v`` are the program's matrices for the config,
    needed by the matrix workloads; the model check itself fails every
    operation through ``ModelMismatch`` when they disagree with the oracle.
    """
    if workload == "verify_suite":
        return VerifyChecker(cfg)
    matrices, problem = model_matrices(cfg, program_h0, program_v)
    if problem:
        return ModelMismatch(problem)
    spectrum = Spectrum(*matrices)
    if workload == "gamma_sweep":
        return SweepChecker(cfg, spectrum)
    return RunChecker(cfg, spectrum, every_point=(workload == "deep_series"))


class ModelMismatch:
    def __init__(self, problem: str):
        self.problem = problem

    def check(self, out_dir: Path) -> list[str]:
        return [self.problem]


def check_op(checker, op: dict) -> list[str]:
    """All failures of one operation: crash, exit code, then output, then
    the set-up probes that followed it."""
    setup = [op["setup_error"]] if op.get("setup_error") else []
    if op["error"]:
        return [f"raised: {op['error'].strip().splitlines()[-1]}", *setup]
    if op["exit"] != 0:
        return [f"exit code {op['exit']}", *setup]
    try:
        return checker.check(Path(op["dir"])) + setup
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"output unreadable: {exc!r}", *setup]
