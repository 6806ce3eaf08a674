"""Coarse-graining of the spectrum of the drift Hamiltonian.

Groups the eigenvalues of H0 into disjoint components and computes the
spectral gap eta.  In the eigenbasis of H0 the projection P_k and its
complement Q_k are the coordinate blocks ``(g, out)`` of group k, which
the partition holds once; the dense matrices ``projection`` and
``complement`` are the same operators in the original basis.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    IndexOutOfRange,
    NoGapFound,
    OverlappingIntervals,
    UncoveredEigenvalue,
)
from .operator_core import HermitianEigenSystem, OperatorMatrix


@dataclass(frozen=True)
class SpectralPartition:
    """Disjoint grouping of the eigenvalues of H0.

    ``groups`` partitions the eigenvalue indices of ``eig`` (ascending
    order); ``gap`` is the minimum distance between eigenvalues in
    distinct groups, computed from the actual eigenvalues rather than
    from any user-supplied intervals.  ``blocks`` holds, per group, the
    index pair ``(g, out)`` of the group and its complement: P_k and Q_k
    as coordinate blocks of the H0 eigenbasis, computed once here.
    """

    eig: HermitianEigenSystem
    groups: tuple
    gap: float
    component_intervals: tuple
    blocks: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # np.delete, not np.setdiff1d: the latter imports numpy.ma (~10 ms) on first use
        blocks = tuple((g, np.delete(np.arange(self.dim), g)) for g in self.groups)
        object.__setattr__(self, "blocks", blocks)

    @property
    def n_groups(self) -> int:
        return len(self.groups)

    @property
    def dim(self) -> int:
        return self.eig.eigenvalues.size

    def to_json(self) -> dict:
        return {
            "groups": [[int(i) for i in g] for g in self.groups],
            "gap": self.gap,
            "intervals": [[lo, hi] for lo, hi in self.component_intervals],
        }


def _finalize(eig: HermitianEigenSystem, groups) -> SpectralPartition:
    lam = eig.eigenvalues
    intervals = tuple((float(lam[g].min()), float(lam[g].max())) for g in groups)
    gap = _true_gap(lam, groups)
    groups = tuple(np.asarray(g, dtype=int) for g in groups)
    return SpectralPartition(eig, groups, gap, intervals)


def _true_gap(lam, groups) -> float:
    # brute force over all cross-group eigenvalue pairs
    gap = np.inf
    for a in range(len(groups)):
        for b in range(a + 1, len(groups)):
            d = np.abs(lam[groups[a]][:, None] - lam[groups[b]][None, :]).min()
            gap = min(gap, d)
    return float(gap)


def partition_by_threshold(eig: HermitianEigenSystem, split_threshold: float) -> SpectralPartition:
    """Split the sorted spectrum wherever adjacent eigenvalues differ by
    more than ``split_threshold``.

    Degenerate eigenvalues are never separated since their difference is
    zero.  Raises :class:`NoGapFound` when the whole spectrum clusters
    into a single group.
    """
    if split_threshold <= 0:
        raise ValueError("split_threshold must be positive")
    lam = eig.eigenvalues
    cuts = np.where(np.diff(lam) > split_threshold)[0]
    if cuts.size == 0:
        raise NoGapFound(
            f"no adjacent eigenvalue difference exceeds {split_threshold}",
            operation="partition_by_threshold",
        )
    edges = np.concatenate([[0], cuts + 1, [lam.size]])
    groups = [np.arange(edges[i], edges[i + 1]) for i in range(len(edges) - 1)]
    return _finalize(eig, groups)


def partition_by_intervals(eig: HermitianEigenSystem, intervals) -> SpectralPartition:
    """Group eigenvalues by membership in explicitly given disjoint intervals.

    Every eigenvalue must fall inside exactly one interval.  The gap is
    computed from the actual eigenvalue clusters, not the interval
    endpoints.
    """
    ivs = [(float(lo), float(hi)) for lo, hi in intervals]
    if len(ivs) < 2:
        raise NoGapFound("need at least two intervals", operation="partition_by_intervals")
    for lo, hi in ivs:
        if hi < lo:
            raise ValueError(f"malformed interval [{lo}, {hi}]")
    ordered = sorted(ivs)
    for (lo1, hi1), (lo2, hi2) in zip(ordered, ordered[1:]):
        if hi1 >= lo2:
            raise OverlappingIntervals(
                f"intervals [{lo1}, {hi1}] and [{lo2}, {hi2}] overlap",
                operation="partition_by_intervals",
            )
    lam = eig.eigenvalues
    groups = []
    for lo, hi in ivs:
        groups.append(np.where((lam >= lo) & (lam <= hi))[0])
    covered = np.concatenate(groups) if groups else np.array([], dtype=int)
    if covered.size != lam.size:
        missing = np.setdiff1d(np.arange(lam.size), covered)
        raise UncoveredEigenvalue(
            f"eigenvalue {lam[missing[0]]:.6g} (index {missing[0]}) lies in no interval",
            operation="partition_by_intervals",
        )
    groups = [g for g in groups if g.size]
    if len(groups) < 2:
        raise NoGapFound("eigenvalues populate fewer than two intervals",
                         operation="partition_by_intervals")
    return _finalize(eig, groups)


def projection(part: SpectralPartition, k: int) -> OperatorMatrix:
    """Orthogonal projection P_k onto the eigenvectors of group ``k``."""
    if not 0 <= k < part.n_groups:
        raise IndexOutOfRange(f"group index {k} not in [0, {part.n_groups})",
                              operation="projection")
    u = part.eig.eigenvectors[:, part.groups[k]]
    p = u @ u.conj().T
    return OperatorMatrix(0.5 * (p + p.conj().T), hermitian_hint=True)


def complement(part: SpectralPartition, k: int) -> OperatorMatrix:
    """Complementary projection Q_k = 1 - P_k."""
    p = projection(part, k)
    return OperatorMatrix(np.eye(part.dim) - p.entries, hermitian_hint=True)
