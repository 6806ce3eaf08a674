"""Coarse-graining of the spectrum of the drift Hamiltonian.

Groups the eigenvalues of H0 into disjoint components, from which the
partition derives the spectral gap eta.  In the eigenbasis of H0, the
basis every derived operator is kept in, the projection P_k and its
complement Q_k are the coordinate blocks ``(g, out)`` of group k, which
the partition holds once; no dense projector is built.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class SpectralPartition:
    """Disjoint grouping of the eigenvalues of H0.

    ``eigenvalues`` and ``eigenvectors`` are the read-only pair ``herm_eig``
    returns for H0; ``groups`` partitions the eigenvalue indices (ascending
    order).  The rest is derived from these: ``gap``, the minimum distance
    between eigenvalues in distinct groups, by brute force over every
    cross-group pair; ``component_intervals``, each group's eigenvalue
    range; ``blocks``, per group the index pair ``(g, out)`` of the group
    and its complement: P_k and Q_k as coordinate blocks of the H0
    eigenbasis.  Fewer than two groups, groups that do not partition the
    indices, an empty group, or a gap that is not positive raise ``ValueError``.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    groups: tuple
    gap: float = field(init=False)
    component_intervals: tuple = field(init=False)
    blocks: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        lam = self.eigenvalues
        groups = tuple(np.asarray(g, dtype=int) for g in self.groups)
        if len(groups) < 2:
            raise ValueError(f"a partition needs at least two groups, got {len(groups)}")
        for k, g in enumerate(groups):
            if g.size == 0:
                raise ValueError(f"group {k} is empty")
        if not np.array_equal(np.sort(np.concatenate(groups)), np.arange(self.dim)):
            raise ValueError(f"groups must hold each index 0..{self.dim - 1} exactly once")
        gap = float(min(np.abs(lam[a][:, None] - lam[b][None, :]).min()
                        for i, a in enumerate(groups) for b in groups[i + 1 :]))
        if not gap > 0:
            raise ValueError(f"gap {gap:.3g} between groups is not positive")
        object.__setattr__(self, "groups", groups)
        object.__setattr__(self, "gap", gap)
        object.__setattr__(self, "component_intervals",
                           tuple((float(lam[g].min()), float(lam[g].max())) for g in groups))
        # np.delete, not np.setdiff1d: the latter imports numpy.ma (~10 ms) on first use
        object.__setattr__(self, "blocks",
                           tuple((g, np.delete(np.arange(self.dim), g)) for g in groups))

    @property
    def n_groups(self) -> int:
        return len(self.groups)

    @property
    def dim(self) -> int:
        return self.eigenvalues.size

    def to_json(self) -> dict:
        return {
            "groups": [[int(i) for i in g] for g in self.groups],
            "gap": self.gap,
            "intervals": [[lo, hi] for lo, hi in self.component_intervals],
        }


def partition_by_threshold(eig: tuple, split_threshold: float) -> SpectralPartition:
    """Split the sorted spectrum of ``eig``, the ``(eigenvalues,
    eigenvectors)`` pair of ``herm_eig``, wherever adjacent eigenvalues
    differ by more than ``split_threshold``.

    Degenerate eigenvalues are never separated since their difference is
    zero.  Raises ``ValueError`` when the whole spectrum clusters into a
    single group.
    """
    if split_threshold <= 0:
        raise ValueError("split_threshold must be positive")
    lam = eig[0]
    cuts = np.where(np.diff(lam) > split_threshold)[0]
    if cuts.size == 0:
        raise ValueError(f"no adjacent eigenvalue difference exceeds {split_threshold}")
    edges = np.concatenate([[0], cuts + 1, [lam.size]])
    groups = [np.arange(edges[i], edges[i + 1]) for i in range(len(edges) - 1)]
    return SpectralPartition(*eig, groups)


def partition_by_intervals(eig: tuple, intervals) -> SpectralPartition:
    """Group eigenvalues by membership in explicitly given disjoint intervals.

    Every eigenvalue must fall inside exactly one interval.  The gap is
    computed from the actual eigenvalue clusters, not the interval
    endpoints.
    """
    ivs = [(float(lo), float(hi)) for lo, hi in intervals]
    if len(ivs) < 2:
        raise ValueError("need at least two intervals")
    for lo, hi in ivs:
        if not lo <= hi:  # NaN fails this too
            raise ValueError(f"malformed interval [{lo}, {hi}]")
    ordered = sorted(ivs)
    for (lo1, hi1), (lo2, hi2) in zip(ordered, ordered[1:]):
        if hi1 >= lo2:
            raise ValueError(f"intervals [{lo1}, {hi1}] and [{lo2}, {hi2}] overlap")
    lam = eig[0]
    groups = [np.where((lam >= lo) & (lam <= hi))[0] for lo, hi in ivs]
    covered = np.concatenate(groups)
    if covered.size != lam.size:
        missing = np.setdiff1d(np.arange(lam.size), covered)
        raise ValueError(
            f"eigenvalue {lam[missing[0]]:.6g} (index {missing[0]}) lies in no interval")
    groups = [g for g in groups if g.size]
    if len(groups) < 2:
        raise ValueError("eigenvalues populate fewer than two intervals")
    return SpectralPartition(*eig, groups)
