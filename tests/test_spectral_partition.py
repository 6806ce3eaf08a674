import numpy as np
import pytest

from leakage import (
    OperatorMatrix,
    SpectralPartition,
    herm_eig,
    operator_norm,
    partition_by_intervals,
    partition_by_threshold,
)

from conftest import clustered_h0


def diag_eig(values):
    return herm_eig(OperatorMatrix(np.diag(values)))


def test_threshold_partition_basic():
    part = partition_by_threshold(diag_eig([0.0, 0.1, 1.0, 1.1, 2.0]), 0.5)
    assert part.n_groups == 3
    assert [list(g) for g in part.groups] == [[0, 1], [2, 3], [4]]
    assert part.gap == pytest.approx(0.9)
    assert part.component_intervals == ((0.0, 0.1), (1.0, 1.1), (2.0, 2.0))


def test_threshold_partition_no_gap():
    with pytest.raises(ValueError, match="no adjacent eigenvalue difference exceeds 0.5"):
        partition_by_threshold(diag_eig([0.0, 0.3, 0.6]), 0.5)
    with pytest.raises(ValueError):
        partition_by_threshold(diag_eig([0.0, 1.0]), 0.0)


def test_degenerate_eigenvalues_stay_together():
    part = partition_by_threshold(diag_eig([0.0, 0.0, 0.0, 2.0]), 0.5)
    assert part.n_groups == 2
    assert list(part.groups[0]) == [0, 1, 2]


def test_interval_partition_basic():
    eig = diag_eig([0.0, 0.1, 1.0, 1.1])
    part = partition_by_intervals(eig, [(-0.5, 0.5), (0.5001, 1.5)])
    assert part.n_groups == 2
    assert part.gap == pytest.approx(0.9)


def test_interval_partition_errors():
    eig = diag_eig([0.0, 1.0])
    with pytest.raises(ValueError, match=r"intervals \[-0.5, 0.6\] and \[0.4, 1.5\] overlap"):
        partition_by_intervals(eig, [(-0.5, 0.6), (0.4, 1.5)])
    with pytest.raises(ValueError, match=r"eigenvalue 1 \(index 1\) lies in no interval"):
        partition_by_intervals(eig, [(-0.5, 0.5), (2.0, 3.0)])
    with pytest.raises(ValueError, match=r"malformed interval \[nan, 10.0\]"):
        partition_by_intervals(eig, [(float("nan"), 10.0), (-10.0, -5.0)])
    with pytest.raises(ValueError, match="need at least two intervals"):
        partition_by_intervals(eig, [(-0.5, 1.5)])
    with pytest.raises(ValueError, match="eigenvalues populate fewer than two intervals"):
        # both eigenvalues in the first interval, second stays empty
        partition_by_intervals(eig, [(-0.5, 1.1), (1.2, 2.0)])
    with pytest.raises(ValueError):
        partition_by_intervals(eig, [(1.0, 0.0), (2.0, 3.0)])


def test_gap_is_brute_force_minimum():
    rng = np.random.default_rng(11)
    h0 = clustered_h0(rng, 12, 3)
    eig = herm_eig(h0)
    built = partition_by_threshold(eig, 0.5)
    lam = built.eigenvalues
    expected = min(
        abs(lam[a] - lam[b])
        for ga in range(built.n_groups)
        for gb in range(built.n_groups)
        if ga != gb
        for a in built.groups[ga]
        for b in built.groups[gb]
    )
    # a partition built by hand from the same groups derives the same data
    by_hand = SpectralPartition(*eig, [list(g) for g in built.groups])
    for part in (built, by_hand):
        assert part.gap == pytest.approx(expected, rel=1e-14, abs=0.0)
    assert by_hand.gap == built.gap
    assert by_hand.component_intervals == built.component_intervals
    for (g, out), (g_built, out_built) in zip(by_hand.blocks, built.blocks, strict=True):
        assert np.array_equal(g, g_built) and np.array_equal(out, out_built)


@pytest.mark.parametrize("groups, message", [
    ([[0], [1, 2, 3]], "gap 0 is not above the resolution 1.78e-15"),
    ([[0, 1, 2, 3]], "at least two groups, got 1"),
    ([[0, 1, 2], [2, 3]], "each index 0..3 exactly once"),
    ([[0, 1], [3]], "each index 0..3 exactly once"),
    ([[0, 1, 2], [3, 4]], "each index 0..3 exactly once"),
    ([[0, 1, 2], [], [3]], "group 1 is empty"),
], ids=["split-degenerate", "single-group", "shared-index", "missing-index",
        "index-out-of-range", "empty-group"])
def test_hand_built_partition_rejected(groups, message):
    # eigenvalue 0 is threefold: splitting it leaves no gap between the groups
    with pytest.raises(ValueError, match=message):
        SpectralPartition(*diag_eig([0.0, 0.0, 0.0, 2.0]), groups)


@pytest.mark.parametrize("factor", [0.5, 2.0])
def test_gap_must_exceed_the_eigenvalue_resolution(factor):
    # eigh moves an eigenvalue by up to about dim eps max|lam| (Weyl's inequality on its
    # backward error), so a gap no wider may be roundoff splitting one level
    resolution = 4 * np.finfo(float).eps * 2.0
    eig = diag_eig([0.0, 0.0, factor * resolution, 2.0])
    if factor < 1:
        with pytest.raises(ValueError, match=f"is not above the resolution {resolution:.3g}"):
            SpectralPartition(*eig, [[0, 1], [2, 3]])
    else:
        assert SpectralPartition(*eig, [[0, 1], [2, 3]]).gap == factor * resolution


def test_projections_resolve_identity_and_commute():
    rng = np.random.default_rng(12)
    h0 = clustered_h0(rng, 10, 3)
    part = partition_by_threshold(herm_eig(h0), 0.5)
    total = np.zeros((10, 10), dtype=complex)
    for g, out in part.blocks:
        # (g, out) partitions the indices: P_k and Q_k = 1 - P_k as index blocks
        assert np.array_equal(np.sort(np.concatenate([g, out])), np.arange(10))
        u = part.eigenvectors[:, g]
        p = u @ u.conj().T
        assert operator_norm(p @ p - p) < 1e-12
        assert operator_norm(p - p.conj().T) < 1e-13
        assert operator_norm(p @ h0.entries - h0.entries @ p) < 1e-11
        total += p
    assert operator_norm(total - np.eye(10)) < 1e-12


def test_eigensystem_is_read_only():
    part = partition_by_threshold(diag_eig([0.0, 1.0, 1.2]), 0.5)
    for a in (part.eigenvalues, part.eigenvectors):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 5.0
    assert part.eigenvalues[0] == 0.0 and abs(part.eigenvectors[0, 0]) == 1.0


def test_partition_copies_the_groups_it_is_given():
    # the partition freezes its own copies, so the caller's arrays stay writable and a
    # write to them leaves the partition as it was
    given = [np.array([0]), np.array([1]), np.array([2])]
    part = SpectralPartition(*diag_eig([0.0, 1.0, 5.0]), given)
    given[0][0] = 2
    assert [list(g) for g in part.groups] == [[0], [1], [2]] and part.gap == 1.0


def test_partition_json():
    part = partition_by_threshold(diag_eig([0.0, 1.0, 1.2]), 0.5)
    blob = part.to_json()
    assert blob["groups"] == [[0], [1, 2]]
    assert blob["gap"] == pytest.approx(1.0)
    assert blob["intervals"] == [[0.0, 0.0], [1.0, 1.2]]
