"""Vectorization, Kronecker conjugation and SuperOp plumbing."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qhit
from conftest import random_tp_channel
from qhit.errors import DimensionError, ValidationError
from qhit.matrep import from_hermitian_basis, hermitian_coords, real_form

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



# ------------------------------------------------ the real Hermitian-basis form

def hermitian_basis_rows(k):
    """Reference T_k, row by row from its definition: conj(vec(B)) for the
    E_jj, then the (E_jl + E_lj)/sqrt 2, then the i (E_lj - E_jl)/sqrt 2."""
    pairs = [(j, l) for j in range(k) for l in range(j + 1, k)]
    basis = []
    for j in range(k):
        B = np.zeros((k, k), dtype=complex)
        B[j, j] = 1.0
        basis.append(B)
    for j, l in pairs:
        B = np.zeros((k, k), dtype=complex)
        B[j, l] = B[l, j] = np.sqrt(0.5)
        basis.append(B)
    for j, l in pairs:
        B = np.zeros((k, k), dtype=complex)
        B[l, j], B[j, l] = 1j * np.sqrt(0.5), -1j * np.sqrt(0.5)
        basis.append(B)
    return np.array([qhit.vec(B).conj() for B in basis])


def assert_same_spectrum(M, R, tol=1e-12):
    """R is real and has the singular values of M to tol relative, and its
    eigenvalues to tol relative times each eigenvalue's condition number
    (a near-double eigenvalue moves by more than tol under any roundoff)."""
    assert R.dtype == np.float64
    s_m = np.linalg.svd(M, compute_uv=False)
    s_r = np.linalg.svd(R, compute_uv=False)
    assert np.max(np.abs(s_m - s_r)) <= tol * s_m[0]
    ev_m, X = np.linalg.eig(M)
    kappa = np.linalg.norm(X, axis=0) * np.linalg.norm(np.linalg.inv(X), axis=1)
    gap = np.abs(ev_m[:, None] - np.linalg.eigvals(R)[None, :]) / kappa[:, None]
    assert max(gap.min(axis=1).max(), gap.min(axis=0).max()) <= tol * s_m[0]


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_real_form_is_the_change_to_the_hermitian_basis(k):
    rng = np.random.default_rng(k)
    T = hermitian_basis_rows(k)
    assert np.allclose(T @ T.conj().T, np.eye(k * k), atol=1e-15)
    kraus = [random_complex((k, k), rng) for _ in range(2)]
    M = sum(qhit.conj_kron(K) for K in kraus)  # completely positive, not TP
    assert np.allclose(real_form(M, k), T @ M @ T.conj().T, atol=1e-12)
    # two sites: T = I_2 kron T_k
    T2 = np.kron(np.eye(2), T)
    M2 = np.block([[M, 2 * M], [qhit.conj_kron(kraus[0]), M]])
    assert np.allclose(real_form(M2, k), T2 @ M2 @ T2.conj().T, atol=1e-12)
    C = random_complex((2 * k * k, 3), rng)
    assert np.allclose(from_hermitian_basis(T2 @ C, k), C, atol=1e-12)
    assert np.allclose(from_hermitian_basis(T2 @ C[:, 0], k), C[:, 0], atol=1e-12)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_hermitian_coords_are_the_real_coordinates_t_v(k):
    rng = np.random.default_rng(10 + k)
    T2 = np.kron(np.eye(2), hermitian_basis_rows(k))
    X, Y = random_complex((k, k), rng), random_complex((k, k), rng)
    v = np.concatenate([qhit.vec(X + X.conj().T), qhit.vec(Y @ Y.conj().T)])
    x = hermitian_coords(v, k)
    assert x.dtype == np.float64 and x.flags.c_contiguous
    assert np.allclose(x, T2 @ v, atol=1e-12)
    assert np.allclose(from_hermitian_basis(x, k), v, atol=1e-12)
    # the trace pairing <vec A|vec B> = Tr(A* B) is the real dot product
    M = qhit.conj_kron(random_complex((k, k), rng))
    assert np.isclose(hermitian_coords(qhit.vec(np.eye(k)), k)
                      @ real_form(M, k) @ x[:k * k],
                      np.vdot(qhit.vec(np.eye(k)), M @ v[:k * k]), atol=1e-12)


def test_hermitian_coords_refuse_a_non_hermitian_block_by_the_maps_rule():
    # the defect is judged against HP_TOL times max|v|, as real_form judges
    # a map's against max|M|
    v = np.concatenate([qhit.vec(np.eye(2)), qhit.vec([[1.0, 2.0], [0.0, 1.0]])])
    with pytest.raises(ValidationError, match="not Hermitian"):
        hermitian_coords(v, 2)
    for scale in (1e-6, 1.0, 1e6):
        hermitian_coords(scale * qhit.vec([[1.0, 1e-10j], [0.0, 1.0]]), 2)
        with pytest.raises(ValidationError, match="not Hermitian"):
            hermitian_coords(scale * qhit.vec([[1.0, 1e-8j], [0.0, 1.0]]), 2)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=2, max_value=5), st.integers(min_value=0, max_value=2**31 - 1))
def test_real_form_keeps_the_spectrum_of_a_channel_and_its_compressions(n, seed):
    rng = np.random.default_rng(seed)
    S = random_tp_channel(rng, n)
    V = qhit.GoalSubspace.from_vectors([random_complex(n, rng)])
    assert_same_spectrum(S.mat, real_form(S.mat, n))
    QQS = np.kron(V.Q, V.Q.conj()) @ S.mat
    assert_same_spectrum(QQS, real_form(QQS, n))
    # the induced chain's principal blocks: Q.Q S (site 1) and (I - Q.Q) S (site 0)
    q = qhit.induce(S, V)
    for i in range(2):
        block = q.block(i, i)
        assert_same_spectrum(block, real_form(block, n))


def test_real_form_of_a_three_site_open_quantum_walk():
    rng = np.random.default_rng(7)
    k = 2
    grid = [[None] * 3 for _ in range(3)]
    for j in range(3):
        Q, _ = np.linalg.qr(random_complex((3 * k, k), rng))
        for i in range(3):
            grid[i][j] = Q[i * k:(i + 1) * k]
    q = qhit.from_oqw(grid)
    assert_same_spectrum(q.rep, real_form(q.rep, k))
    for i in range(3):  # the principal blocks that decide site availability
        keep = np.r_[[s for s in range(3 * k * k) if s // (k * k) != i]]
        rest = q.rep[np.ix_(keep, keep)]
        assert_same_spectrum(rest, real_form(rest, k))


def test_real_form_refuses_a_map_that_does_not_preserve_hermiticity():
    M = random_complex((9, 9), np.random.default_rng(3))
    with pytest.raises(ValidationError, match="Hermiticity"):
        real_form(M, 3)
    # one off-diagonal entry turned by i: still trace preserving, not HP
    with pytest.raises(ValidationError, match="Hermiticity"):
        real_form(np.diag([1, 1j, 1, 1]), 2)
