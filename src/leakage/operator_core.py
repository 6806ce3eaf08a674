"""Dense matrix engine.

Hermitian eigendecomposition, operator norms and the inverse square
root every other module builds on.  All matrices are dense arrays
wrapped in :class:`OperatorMatrix`: float64 when the input is real,
complex128 when it is complex, so real Hamiltonians stay in real
arithmetic end to end.  Dimensions are at desk scale (up to a few
thousand), so exact factorizations (SVD, eigh) are always affordable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonHermitianInput, NotPositiveDefinite

HERMITICITY_RTOL = 1e-12
PSD_FLOOR = 1e-12


def _real_or_complex_copy(a) -> np.ndarray:
    """One copy of ``a``: float64 if real, complex128 if complex."""
    return np.array(a, dtype=complex if np.iscomplexobj(a) else float)


@dataclass(frozen=True)
class OperatorMatrix:
    """Square real or complex matrix with an optional Hermiticity promise.

    The ``hermitian_hint`` flag is verified at construction time:
    ``max |M - M^dag|`` entrywise must not exceed ``1e-12 * max|M|``.
    """

    entries: np.ndarray
    hermitian_hint: bool = False

    def __post_init__(self):
        m = _real_or_complex_copy(self.entries)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
            raise ValueError(f"entries must be a square matrix, got shape {m.shape}")
        m.setflags(write=False)
        object.__setattr__(self, "entries", m)
        if self.hermitian_hint:
            scale = np.abs(m).max()
            dev = np.abs(m - m.conj().T).max()
            if dev > HERMITICITY_RTOL * max(scale, 1e-300):
                raise NonHermitianInput(
                    f"hermitian_hint set but max|M - M^dag| = {dev:.3e} "
                    f"exceeds {HERMITICITY_RTOL:.0e} * max|M| = {HERMITICITY_RTOL * scale:.3e}"
                )

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def to_json(self) -> dict:
        """Repo-wide matrix encoding: row-major ``[re, im]`` pairs."""
        n = self.dim
        flat = self.entries.reshape(-1)
        return {"dim": n, "entries": [[float(z.real), float(z.imag)] for z in flat]}

    @staticmethod
    def from_json(obj: dict, hermitian_hint: bool = False) -> "OperatorMatrix":
        n = int(obj["dim"])
        flat = np.array([complex(re, im) for re, im in obj["entries"]])
        if flat.size != n * n:
            raise ValueError(f"expected {n * n} entries, got {flat.size}")
        if not flat.imag.any():
            flat = flat.real
        return OperatorMatrix(flat.reshape(n, n), hermitian_hint=hermitian_hint)


@dataclass(frozen=True)
class HermitianEigenSystem:
    """Eigendecomposition M = U diag(lambda) U^dag with ascending eigenvalues."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def __post_init__(self):
        lam = np.asarray(self.eigenvalues, dtype=float).copy()
        u = _real_or_complex_copy(self.eigenvectors)
        lam.setflags(write=False)
        u.setflags(write=False)
        object.__setattr__(self, "eigenvalues", lam)
        object.__setattr__(self, "eigenvectors", u)


def operator_norm(m) -> float:
    """Largest singular value of ``m`` (OperatorMatrix or array)."""
    a = m.entries if isinstance(m, OperatorMatrix) else np.asarray(m)
    if not np.any(a):
        return 0.0
    return float(np.linalg.svd(a, compute_uv=False)[0])


def herm_eig(m: OperatorMatrix) -> HermitianEigenSystem:
    """Spectral decomposition of a Hermitian matrix.

    A matrix without ``hermitian_hint`` is rebuilt with it, so it passes
    the same Hermiticity check as at construction or raises
    :class:`NonHermitianInput`.
    """
    if not m.hermitian_hint:
        m = OperatorMatrix(m.entries, hermitian_hint=True)
    lam, u = np.linalg.eigh(m.entries)
    return HermitianEigenSystem(lam, u)


def inv_sqrt_psd(m: OperatorMatrix, psd_floor: float = PSD_FLOOR) -> OperatorMatrix:
    """Inverse square root of a Hermitian positive definite matrix."""
    eig = herm_eig(m)
    lam_min = eig.eigenvalues.min()
    if lam_min <= psd_floor:
        raise NotPositiveDefinite(
            f"smallest eigenvalue {lam_min:.3e} <= floor {psd_floor:.0e}",
            operation="inv_sqrt_psd",
        )
    u = eig.eigenvectors
    r = (u * eig.eigenvalues ** -0.5) @ u.conj().T
    # symmetrize away roundoff so the result carries the Hermitian promise
    r = 0.5 * (r + r.conj().T)
    return OperatorMatrix(r, hermitian_hint=True)
