"""The contract of the package's twelve record types: constructor signatures
and defaults, read-only attributes and arrays, the kind of ``==`` and ``hash``,
copying and pickling."""

import copy
import pickle

import numpy as np
import pytest

from leakage import (
    BlochSolution,
    BoundReport,
    ChainSpec,
    HarmonicChainSpec,
    LeakageReport,
    OperatorMatrix,
    ProblemInstance,
    SpectralPartition,
    SweepResult,
    SWSolution,
    TransmonSpec,
    bound_report,
    herm_eig,
)
from leakage.verification import InvariantResult


def _matrix():
    return OperatorMatrix(np.diag([0.0, 1.0]))


def _partition_args():
    lam, u = herm_eig(_matrix())
    return {"eigenvalues": lam, "eigenvectors": u, "groups": ([0], [1])}


# per type: its constructor arguments in signature order, how many of them lead
# without a default (the rest are given at their defaults), and whether it
# compares by value (else by identity, as every type that holds arrays does)
RECORDS = {
    OperatorMatrix: (lambda: {"entries": np.diag([0.0, 1.0])}, 1, False),
    SpectralPartition: (_partition_args, 3, False),
    ProblemInstance: (lambda: {"h0": _matrix(), "v": _matrix(), "gamma": 2.0,
                               "partition": SpectralPartition(**_partition_args())}, 4, False),
    BlochSolution: (lambda: {"omega_terms": np.zeros((2, 2, 2)), "omega": np.eye(2),
                             "h_bloch": np.eye(2), "order": 1, "tail_bound": 0.0}, 5, False),
    SWSolution: (lambda: {"w": np.eye(2), "h_sw": np.eye(2),
                          "perturbed_projections": (np.eye(2), np.eye(2))}, 3, False),
    LeakageReport: (lambda: {"times": np.zeros(1), "per_block_leakage": np.zeros((2, 1)),
                             "d_bloch_series": None, "d_sw_series": np.zeros(1),
                             "bounds": bound_report(0.01, 1.0, 1.0)}, 5, False),
    SweepResult: (lambda: {"gammas": np.ones(4), "max_leakages": np.ones(4), "slope": -1.0},
                  3, False),
    BoundReport: (lambda: bound_report(0.01, 1.0, 1.0).to_json(), 10, True),
    InvariantResult: (lambda: {"name": "w_unitarity", "measured": 1e-15, "allowed": 1e-10},
                      3, True),
    ChainSpec: (lambda: {"n_cells": 2, "g1": 1.0, "g2": 1.5, "g3": 2.0,
                         "disorder_strength": 0.01, "seed": 0}, 1, True),
    HarmonicChainSpec: (lambda: {"n_sites": 2, "omega": 10.0, "g": 1.0, "fock_cutoff": 3,
                                 "v0": 0.0}, 1, True),
    TransmonSpec: (lambda: {"ej_over_ec": 90.0, "transparency_d": 1e-3}, 2, True),
}


def _arrays(value):
    """Every array in ``value``: ``value`` itself, or one inside its tuples at any depth."""
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, tuple):
        for item in value:
            yield from _arrays(item)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_record_contract(cls):
    make_args, n_required, by_value = RECORDS[cls]
    args = make_args()
    by_keyword = cls(**args)
    by_position = cls(*args.values())
    with_defaults = cls(*list(args.values())[:n_required])
    for rec in (by_keyword, by_position, with_defaults):
        for name, value in args.items():
            np.testing.assert_equal(getattr(rec, name), value)

    name = next(iter(args))
    with pytest.raises(AttributeError):
        setattr(by_keyword, name, getattr(by_keyword, name))
    with pytest.raises(AttributeError):
        delattr(by_keyword, name)
    with pytest.raises(AttributeError):
        by_keyword.not_a_field = 0
    np.testing.assert_equal(getattr(by_keyword, name), args[name])
    blob = pickle.dumps(by_keyword)
    unpickled = pickle.loads(blob)
    assert type(unpickled) is cls and pickle.dumps(unpickled) == blob
    # a record is read-only, arrays in tuples included, also as copy and pickle rebuild it
    for rec in (by_keyword, copy.copy(by_keyword), copy.deepcopy(by_keyword), unpickled):
        for array in _arrays(tuple(getattr(rec, n) for n in cls.__slots__)):
            with pytest.raises(ValueError, match="read-only"):
                array[...] = 0

    assert by_keyword == by_keyword
    assert len({by_keyword, by_keyword}) == 1
    if by_value:
        assert by_keyword == by_position == with_defaults == unpickled
        assert hash(by_keyword) == hash(by_position) == hash(with_defaults) == hash(unpickled)
        assert by_keyword != tuple(args.values())
    else:
        assert by_keyword != by_position and by_keyword != unpickled
        assert len({by_keyword, by_position, with_defaults, unpickled}) == 4
