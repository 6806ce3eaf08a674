"""Dense matrix engine.

Hermitian eigendecomposition, operator norms and the inverse square
root every other module builds on.  :class:`OperatorMatrix` is the
checked Hermitian model input (H0 and V); every operator derived from
it is a plain ``np.ndarray``.  All are dense, float64 when the input is
real and complex128 when it is complex, so real Hamiltonians stay in
real arithmetic end to end.  Dimensions are at desk scale (up to a few
thousand), so exact factorizations are always affordable: ``eigh``, and
the Hermitian eigensolver on a Gram matrix for every top singular value.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import LeakageError

HERMITICITY_RTOL = 1e-12
PSD_FLOOR = 1e-12


@dataclass(frozen=True, eq=False)
class OperatorMatrix:
    """Read-only square Hermitian matrix: a checked model input.

    At construction every entry must be finite (else ``ValueError``), and
    ``max |M - M^dag|`` entrywise must not exceed ``1e-12 * max|M|``.
    """

    entries: np.ndarray

    def __post_init__(self):
        m = np.array(self.entries, dtype=complex if np.iscomplexobj(self.entries) else float)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
            raise ValueError(f"entries must be a square matrix, got shape {m.shape}")
        m.setflags(write=False)
        object.__setattr__(self, "entries", m)
        scale = np.abs(m).max()
        if not np.isfinite(scale):
            raise ValueError("entries must be finite, got a NaN or infinite entry")
        dev = np.abs(m - m.conj().T).max()
        if dev > HERMITICITY_RTOL * max(scale, 1e-300):
            raise ValueError(
                f"max|M - M^dag| = {dev:.3e} exceeds "
                f"{HERMITICITY_RTOL:.0e} * max|M| = {HERMITICITY_RTOL * scale:.3e}"
            )

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def to_json(self) -> dict:
        """Repo-wide matrix encoding: row-major ``[re, im]`` pairs."""
        n = self.dim
        flat = self.entries.reshape(-1)
        return {"dim": n, "entries": [[float(z.real), float(z.imag)] for z in flat]}


def operator_norm(a: np.ndarray) -> float:
    """Largest singular value of ``a``: ``max|a|`` times the root of the top
    eigenvalue of the Gram of ``a / max|a|`` (scaled clear of over- and
    underflow) on its smaller side.  0 for a zero or empty array; a NaN or
    infinite entry raises ``LinAlgError``."""
    scale = np.abs(a).max(initial=0.0)
    if not np.isfinite(scale):
        raise np.linalg.LinAlgError("operator_norm of an array with a non-finite entry")
    if scale == 0.0:
        return 0.0
    # the float64 view, as complex / float overflows when the scale is subnormal
    b = np.ascontiguousarray(a, dtype=complex if np.iscomplexobj(a) else float)
    b = (b.view(np.float64) / scale).view(b.dtype)
    return float(scale * np.sqrt(_top(_gram(b))))


def _gram(b: np.ndarray) -> np.ndarray:
    """b's Gram matrix on its smaller side."""
    return b @ b.conj().T if b.shape[0] <= b.shape[1] else b.conj().T @ b


def _top(gram: np.ndarray) -> float:
    """The top eigenvalue of a Gram matrix, ``||b||^2`` for ``_gram(b)``, by the
    Hermitian solver."""
    return np.linalg.svd(gram, compute_uv=False, hermitian=True)[0]


def herm_eig(m: OperatorMatrix) -> tuple[np.ndarray, np.ndarray]:
    """``eigh``'s ``(eigenvalues, eigenvectors)``, made read-only, of a Hermitian
    matrix, checked as such when ``m`` was built."""
    lam, u = np.linalg.eigh(m.entries)
    lam.setflags(write=False)
    u.setflags(write=False)
    return lam, u


def inv_sqrt_psd(a: np.ndarray) -> np.ndarray:
    """Inverse square root of a Hermitian positive definite array, as a
    Hermitian array."""
    lam, u = herm_eig(OperatorMatrix(a))
    if lam[0] <= PSD_FLOOR:
        raise LeakageError(f"smallest eigenvalue {lam[0]:.3e} <= floor {PSD_FLOOR:.0e}")
    r = (u * lam ** -0.5) @ u.conj().T
    # symmetrize away roundoff
    return 0.5 * (r + r.conj().T)
