"""Vectorization, Kronecker conjugation and SuperOp plumbing."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qhit
from qhit.errors import DimensionError, ValidationError

RNG = np.random.default_rng(42)


def random_complex(shape, rng=RNG):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def test_vec_row_stacking_order():
    X = np.array([[1, 2], [3, 4]])
    assert np.array_equal(qhit.vec(X), [1, 2, 3, 4])


def test_unvec_inverts_vec():
    X = random_complex((3, 5))
    assert np.allclose(qhit.unvec(qhit.vec(X), 3, 5), X)


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=1, max_value=6), st.integers(min_value=1, max_value=6),
       st.integers(min_value=0, max_value=2**31 - 1))
def test_vec_unvec_round_trip(rows, cols, seed):
    X = random_complex((rows, cols), np.random.default_rng(seed))
    assert np.allclose(qhit.unvec(qhit.vec(X), rows, cols), X)


def test_kron_identity_on_sandwich():
    # row-stacking convention: vec(A X B^T) = (A (x) B) vec(X)
    A, B, X = (random_complex((3, 3)) for _ in range(3))
    lhs = qhit.vec(A @ X @ B.T)
    rhs = np.kron(A, B) @ qhit.vec(X)
    assert np.allclose(lhs, rhs)


def test_conj_kron_represents_conjugation():
    B = random_complex((3, 3))
    X = random_complex((3, 3))
    assert np.allclose(qhit.conj_kron(B) @ qhit.vec(X), qhit.vec(B @ X @ B.conj().T))


def test_superop_shape_validation():
    with pytest.raises(DimensionError):
        qhit.SuperOp(2, np.eye(3))


def test_superop_rejects_nonfinite():
    M = np.eye(4, dtype=complex)
    M[0, 0] = np.nan
    with pytest.raises(ValidationError):
        qhit.SuperOp(2, M)


def test_superop_call_applies_map():
    U = random_complex((2, 2))
    S = qhit.SuperOp(2, qhit.conj_kron(U))
    X = random_complex((2, 2))
    assert np.allclose(S(X), U @ X @ U.conj().T)


def test_identity_superop_fixes_everything():
    X = random_complex((3, 3))
    assert np.allclose(qhit.identity_superop(3)(X), X)

