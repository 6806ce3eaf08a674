import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from leakage import OperatorMatrix, herm_eig, inv_sqrt_psd, operator_norm
from leakage.cli import build_instance
from leakage.errors import LeakageError

from conftest import random_hermitian


def read_custom_v(v_json):
    """``v_json`` read as the ``v`` of a ``custom`` config, by the reader that
    every command uses, next to an H0 of the same dim."""
    h0 = OperatorMatrix(np.diag(np.arange(float(v_json["dim"])))).to_json()
    inst, _ = build_instance({"model": "custom", "params": {"h0": h0, "v": v_json}})
    return inst.v


def test_rejects_non_square():
    with pytest.raises(ValueError):
        OperatorMatrix(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        OperatorMatrix(np.zeros(4))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_rejects_non_finite_entries(bad):
    m = np.eye(2)
    m[1, 1] = bad
    with pytest.raises(ValueError, match="finite"):
        OperatorMatrix(m)
    with pytest.raises(ValueError, match="finite"):
        read_custom_v({"dim": 1, "entries": [[bad, 0.0]]})


def test_construction_checks_hermiticity():
    with pytest.raises(ValueError, match=r"max\|M - M\^dag\| = .* exceeds"):
        OperatorMatrix(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError, match=r"max\|M - M\^dag\| = .* exceeds"):
        read_custom_v({"dim": 2, "entries": [[0, 0], [0, 1], [0, 1], [0, 0]]})
    # within tolerance: relative deviation 1e-13 passes
    m = np.array([[1.0, 1.0], [1.0 + 1e-13, 1.0]])
    OperatorMatrix(m)


def test_herm_eig_and_inv_sqrt_psd_reject_non_hermitian():
    # a non-Hermitian matrix is stopped before herm_eig or inv_sqrt_psd factor it
    with pytest.raises(ValueError, match=r"max\|M - M\^dag\| = .* exceeds"):
        herm_eig(OperatorMatrix(np.array([[0.0, 1.0], [0.0, 0.0]])))
    with pytest.raises(ValueError, match=r"max\|M - M\^dag\| = .* exceeds"):
        inv_sqrt_psd(np.array([[2.0, 1.0], [0.0, 2.0]]))


def test_entries_are_read_only():
    m = OperatorMatrix(np.eye(2))
    with pytest.raises(ValueError):
        m.entries[0, 0] = 5.0
    src = np.eye(2)
    m = OperatorMatrix(src)
    src[0, 0] = 7.0  # later mutation of the source must not leak in
    assert m.entries[0, 0] == 1.0


def test_json_round_trip_exact():
    rng = np.random.default_rng(3)
    m = OperatorMatrix(random_hermitian(rng, 5))
    blob = json.dumps(m.to_json())
    back = read_custom_v(json.loads(blob))
    assert np.array_equal(back.entries, m.entries)


def test_dtype_is_float64_when_real_complex128_when_complex():
    assert OperatorMatrix(np.eye(2, dtype=int)).entries.dtype == np.float64
    assert OperatorMatrix(np.eye(2, dtype=np.float32)).entries.dtype == np.float64
    assert OperatorMatrix(np.eye(2, dtype=np.complex64)).entries.dtype == np.complex128
    real = OperatorMatrix(np.array([[2.0, 0.5], [0.5, 1.0]]))
    assert herm_eig(real)[1].dtype == np.float64
    assert inv_sqrt_psd(real.entries).dtype == np.float64
    back = read_custom_v(json.loads(json.dumps(real.to_json())))
    assert back.entries.dtype == np.float64 and np.array_equal(back.entries, real.entries)
    one_imag = {"dim": 2, "entries": [[1.0, 0.0], [0.0, 0.0], [0.0, 1e-300], [1.0, 0.0]]}
    assert read_custom_v(one_imag).entries.dtype == np.complex128


def test_operator_norm_matches_reference():
    assert operator_norm(np.zeros((3, 3))) == 0.0
    assert operator_norm(np.array([[3.0, 0.0], [4.0, 0.0]])) == pytest.approx(5.0, rel=1e-14,
                                                                              abs=0.0)
    rng = np.random.default_rng(0)
    for _ in range(5):
        a = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        assert operator_norm(a) == pytest.approx(np.linalg.norm(a, ord=2), rel=1e-12, abs=0.0)


@given(seed=st.integers(0, 2**32 - 1), rows=st.integers(1, 40), cols=st.integers(1, 40),
       complex_entries=st.booleans(), exponent=st.integers(-200, 200))
@example(seed=5, rows=7, cols=3, complex_entries=False, exponent=-300)
@example(seed=5, rows=3, cols=7, complex_entries=True, exponent=-200)
@example(seed=5, rows=7, cols=3, complex_entries=True, exponent=-150)
@example(seed=5, rows=3, cols=7, complex_entries=False, exponent=150)
@example(seed=5, rows=7, cols=3, complex_entries=False, exponent=200)
@example(seed=5, rows=3, cols=7, complex_entries=True, exponent=300)
@example(seed=5, rows=7, cols=3, complex_entries=True, exponent=-310)   # subnormal max|a|
@example(seed=5, rows=3, cols=7, complex_entries=True, exponent=-320)
@settings(deadline=None, max_examples=150)
def test_operator_norm_matches_svd_oracle(seed, rows, cols, complex_entries, exponent):
    # squared, entries beyond about 1e+-154 leave the float64 range, so the
    # exponents reach past that to exercise the scaling before the Gram
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(rows, cols))
    if complex_entries:
        a = a + 1j * rng.normal(size=(rows, cols))
    a *= 10.0 ** exponent
    expected = float(np.linalg.svd(a, compute_uv=False)[0])
    assert operator_norm(a) == pytest.approx(expected, rel=1e-13, abs=0.0)


@pytest.mark.parametrize("shape", [(0, 0), (0, 4), (4, 0), (3, 3), (2, 5)])
def test_operator_norm_of_zero_or_empty_is_zero(shape):
    assert operator_norm(np.zeros(shape)) == 0.0
    assert operator_norm(np.zeros(shape, dtype=complex)) == 0.0


@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_operator_norm_rejects_non_finite(bad, dtype):
    a = np.ones((3, 4), dtype=dtype)
    a[1, 2] = bad
    for m in (a, a.T):
        with pytest.raises(np.linalg.LinAlgError):
            operator_norm(m)


def test_herm_eig_reconstructs():
    rng = np.random.default_rng(1)
    m = OperatorMatrix(random_hermitian(rng, 8))
    lam, u = herm_eig(m)
    assert np.all(np.diff(lam) >= 0)
    rebuilt = (u * lam) @ u.conj().T
    assert operator_norm(rebuilt - m.entries) < 1e-12


def test_inv_sqrt_psd():
    rng = np.random.default_rng(4)
    a = random_hermitian(rng, 6)
    m = a @ a.conj().T + 0.5 * np.eye(6)
    r = inv_sqrt_psd(m)
    assert operator_norm(r @ m @ r - np.eye(6)) < 1e-11
    assert np.array_equal(r, r.conj().T)
    with pytest.raises(LeakageError, match="smallest eigenvalue .* <= floor 1e-12"):
        inv_sqrt_psd(np.diag([1.0, 0.0]))
