"""Kraus channels, diagnostics, goal subspaces and randomizations."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qhit
from conftest import ROTATION_U, make_sec6_T, random_tp_channel
from expected_matrices import HADAMARD_REP, T_REP
from qhit.errors import ValidationError

RNG = np.random.default_rng(1)


def test_kraus_trace_preservation_enforced():
    with pytest.raises(ValidationError):
        qhit.KrausChannel(2, (0.9 * np.eye(2),))
    with pytest.raises(ValidationError, match="at least one Kraus operator"):
        qhit.KrausChannel(2, ())


def test_tp_defect_small_for_valid_channel(sec5):
    assert sec5["channel"].tp_defect() < 1e-12


def test_represent_matches_printed_matrix(sec5):
    assert np.max(np.abs(sec5["S"].mat - T_REP)) < 1e-12


def test_hadamard_representation(hadamard):
    assert np.max(np.abs(hadamard["S"].mat - HADAMARD_REP)) < 1e-12


def test_from_unitary_equals_unitary_superop():
    U = ROTATION_U
    assert np.allclose(qhit.represent(qhit.KrausChannel.from_unitary(U)).mat,
                       qhit.unitary_superop(U).mat)


def test_diagnose_sec5_irreducible(sec5):
    d = qhit.diagnose(sec5["S"])
    assert d.is_trace_preserving
    assert d.fixed_space_dim == 1
    assert d.is_irreducible
    assert d.jordan_trivial_at_1


def test_diagnose_hadamard_reducible(hadamard):
    d = qhit.diagnose(hadamard["S"])
    assert d.fixed_space_dim == 2
    assert not d.is_irreducible
    assert d.jordan_trivial_at_1


def test_diagnostics_without_a_fixed_density_compare_equal():
    # the bit flip fixes I and X, so it has no unique fixed density; "none"
    # is None, which equals itself, where a NaN did not
    S = qhit.unitary_superop(np.array([[0, 1], [1, 0]]))
    d = qhit.diagnose(S)
    assert d.fixed_density_min_eig is None
    assert d == qhit.diagnose(S)


def test_fixed_states_contain_maximally_mixed(hadamard):
    states = qhit.fixed_states(hadamard["S"])
    assert len(states) == 2
    rho = states[0]
    assert np.allclose(rho, np.eye(2) / 2)
    for rho in states:
        assert np.allclose(hadamard["S"](rho), rho)


def _block_diagonal_channel(rng) -> qhit.SuperOp:
    """A reducible channel: Kraus operators A_i (+) B_i of random channels on
    C^2 and C^3, so the fixed space holds rho_A (+) 0 and 0 (+) rho_B."""
    ZA, ZB = (rng.normal(size=(3 * m, m)) + 1j * rng.normal(size=(3 * m, m))
              for m in (2, 3))
    A, B = np.linalg.qr(ZA)[0], np.linalg.qr(ZB)[0]
    kraus = []
    for i in range(3):
        K = np.zeros((5, 5), dtype=complex)
        K[:2, :2], K[2:, 2:] = A[2 * i:2 * i + 2], B[3 * i:3 * i + 3]
        kraus.append(K)
    return qhit.represent(qhit.KrausChannel(5, tuple(kraus)))


@pytest.mark.parametrize("name", ["sec5", "hadamard", "order4", "block-diagonal",
                                  "random-4"])
def test_fixed_states_are_hermitian(name, sec5, hadamard, order4):
    # the fixed space is cut on the real Hermitian-basis form, so every basis
    # matrix it returns is Hermitian, not only the leading density
    rng = np.random.default_rng(5)
    S = {"sec5": sec5["S"], "hadamard": hadamard["S"], "order4": order4["S"],
         "block-diagonal": _block_diagonal_channel(rng),
         "random-4": random_tp_channel(rng, 4)}[name]
    states = qhit.fixed_states(S)
    assert len(states) == qhit.diagnose(S).fixed_space_dim
    for X in states:
        assert np.max(np.abs(X - X.conj().T)) <= 1e-12 * np.max(np.abs(X))
        assert np.allclose(S(X), X, atol=1e-10)


def test_diagnose_refuses_a_map_that_does_not_preserve_hermiticity():
    with pytest.raises(ValidationError, match="Hermiticity"):
        qhit.diagnose(qhit.SuperOp(2, np.diag([1, 1j, 1, 1])))


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1),
       st.sampled_from([1e-2, 1e-4, 1e-6, 1e-8]),
       st.sampled_from([1.0, 1e-1, 1e-2, 1e-3]))
def test_diagnose_near_reducible_mixtures(seed, q, p):
    # p (q T + (1 - q) Hadamard) + (1 - p) id: a fixed line that the
    # reducible Hadamard part nearly splits; diagnose must not refuse it, and
    # it and fixed_states must cut the same kernel
    T = random_tp_channel(np.random.default_rng(seed), 2)
    H = qhit.unitary_superop(np.array([[1, 1], [1, -1]]) / np.sqrt(2))
    S = qhit.randomize(qhit.randomize(T, H, q), qhit.identity_superop(2), p)
    d = qhit.diagnose(S)
    states = qhit.fixed_states(S)
    assert len(states) == d.fixed_space_dim
    assert d.jordan_trivial_at_1
    for X in states:
        assert np.allclose(S(X), X, atol=1e-8)


def test_is_density_and_pure_density():
    phi = np.array([1, 1j]) / np.sqrt(2)
    rho = qhit.pure_density(phi)
    assert qhit.is_density(rho)
    assert not qhit.is_density(np.diag([2.0, -1.0]))
    assert not qhit.is_density(np.array([[0.5, 0.5], [0.0, 0.5]]))  # not Hermitian


def test_is_density_false_for_input_that_is_not_a_square_matrix():
    assert not qhit.is_density(np.array([1.0, 0.0]))
    assert not qhit.is_density(np.array(1.0))
    assert not qhit.is_density(np.full((2, 3), 0.5))
    assert not qhit.is_density(np.eye(2)[np.newaxis] / 2)
    assert not qhit.is_density(np.zeros((0, 0)))


def test_goal_subspace_projectors(sec5):
    V = sec5["V"]
    P, Q = V.P, V.Q
    assert np.allclose(P @ P, P)
    assert np.allclose(P + Q, np.eye(2))


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=2, max_value=6), st.integers(min_value=1, max_value=3),
       st.integers(min_value=0, max_value=2**31 - 1))
def test_sandwich_applies_the_kron_of_Q(n, d, seed):
    # V.sandwich(M) is Q.Q M with Q.Q = Q kron conj(Q), the representation of
    # X -> Q X Q, on a matrix of columns and on a single vector
    rng = np.random.default_rng(seed)
    vectors = rng.normal(size=(min(d, n), n)) + 1j * rng.normal(size=(min(d, n), n))
    V = qhit.GoalSubspace.from_vectors(list(vectors))
    QQ = np.kron(V.Q, V.Q.conj())
    for shape in ((n * n, n * n), (n * n, 3), (n * n,)):
        M = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        out = V.sandwich(M)
        assert out.shape == M.shape
        assert np.max(np.abs(out - QQ @ M)) <= 1e-14 * np.max(np.abs(M))


def test_goal_subspace_allocates_no_superoperator():
    # an n^2 x n^2 complex matrix at n = 48 takes 85 MB; P and Q 37 kB each
    vectors = [np.eye(48)[0], np.ones(48)]
    tracemalloc.start()
    try:
        qhit.GoalSubspace.from_vectors(vectors)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_goal_subspace_contains(sec5):
    V, psi, phi = sec5["V"], sec5["psi"], sec5["phi"]
    assert V.contains(np.outer(psi, psi))
    assert not V.contains(np.outer(phi, phi))
    assert V.contains_perp(np.outer(phi, phi))


def test_goal_subspace_from_two_vectors():
    V = qhit.GoalSubspace.from_vectors([[1, 0, 0], [1, 1, 0]])
    assert V.dim == 2
    assert np.allclose(V.P, np.diag([1.0, 1.0, 0.0]))
    assert V.contains(np.diag([0.5, 0.5, 0.0]))
    assert V.contains_perp(np.diag([0.0, 0.0, 1.0]))
    assert not V.contains(np.eye(3) / 3)


def test_goal_subspace_keeps_an_independent_vector_after_a_near_duplicate():
    # the near-duplicate must not hide e_1: the rank is cut on the singular
    # values of all the vectors, not vector by vector as an unpivoted QR does
    # (the kept columns of U are a non-contiguous view)
    e0, e1 = np.eye(3)[:2]
    V = qhit.GoalSubspace.from_vectors([e0, e0 + 1e-12 * e1, e1])
    assert V.dim == 2
    assert np.max(np.abs(V.P - np.diag([1.0, 1.0, 0.0]))) < 1e-15


def test_goal_subspace_rank_cut_is_relative():
    # tiny vectors span a subspace as well as unit ones; only zero is refused
    V = qhit.GoalSubspace.from_vectors([[1e-20, 0, 0], [0, 1e-20, 0]])
    assert V.dim == 2
    assert np.max(np.abs(V.P - np.diag([1.0, 1.0, 0.0]))) < 1e-15
    with pytest.raises(ValidationError, match="dependent to zero"):
        qhit.GoalSubspace.from_vectors([[0, 0, 0], [0, 0, 0]])


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_goal_subspace_refuses_a_vector_that_is_not_finite(bad):
    # invalid input, not the SVD's convergence failure or a NaN projector
    with pytest.raises(ValidationError, match="NaN or Inf"):
        qhit.GoalSubspace.from_vectors([[1, 0, 0], [bad, 1, 0]])


@pytest.mark.parametrize("ambient_dim", [None, 2])
def test_goal_subspace_refuses_vectors_of_unequal_length(ambient_dim):
    # a shape mismatch is invalid input, not numpy's stacking error
    with pytest.raises(ValidationError, match="wrong length"):
        qhit.GoalSubspace.from_vectors([[1, 0], [1]], ambient_dim=ambient_dim)


@pytest.mark.parametrize("ambient_dim", [None, 2])
def test_goal_subspace_refuses_an_empty_vector_list(ambient_dim):
    # no vector spans no subspace: invalid input, not numpy's concatenate error
    with pytest.raises(ValidationError, match="at least one"):
        qhit.GoalSubspace.from_vectors([], ambient_dim=ambient_dim)


@pytest.mark.parametrize("basis,error", [
    (np.zeros((2, 0)), "d >= 1 column vectors"),
    (np.array([1.0, 0.0]), "n x d matrix"),
    (np.eye(3)[:, :1], "n x d matrix"),
    (np.array([[1.0], [1.0]]), "not orthonormal"),
], ids=["no-column", "one-dimensional", "wrong-rows", "not-orthonormal"])
def test_goal_subspace_refuses_a_malformed_basis(basis, error):
    with pytest.raises(ValidationError, match=error):
        qhit.GoalSubspace(2, basis)


def test_support_checks_reject_a_state_of_another_size():
    V = qhit.GoalSubspace.from_vectors([[1, 0]])
    for check in (V.contains, V.contains_perp):
        with pytest.raises(ValidationError, match="2x2"):
            check(np.eye(3) / 3)


def test_assumption_one_hadamard_cases(hadamard):
    holds, _ = qhit.assumption_one_holds(hadamard["S"], hadamard["V"])
    assert holds
    alpha = 0.5 * np.sqrt(2 + np.sqrt(2))
    Vbad = qhit.GoalSubspace.from_vectors([[alpha, np.sqrt(1 - alpha**2)]])
    holds, eigs = qhit.assumption_one_holds(hadamard["S"], Vbad)
    assert not holds
    assert any(abs(lam - 1.0) < 1e-9 for lam in eigs)


def test_randomization_keeps_fixed_state():
    SM = qhit.unitary_superop(ROTATION_U)
    mixed = qhit.vec(np.eye(2) / 2)
    for p in (0.1, 0.5, 1.0):
        Sp = qhit.randomize(make_sec6_T(0.5), SM, p)
        assert np.allclose(Sp.mat @ mixed, mixed)
        assert qhit.diagnose(Sp).is_irreducible


def test_randomize_refuses_channels_of_different_dimensions():
    with pytest.raises(ValidationError, match="different dimensions"):
        qhit.randomize(make_sec6_T(0.5), qhit.identity_superop(3), 0.5)


def test_randomize_validates_p():
    S = make_sec6_T(0.5)
    with pytest.raises(ValidationError):
        qhit.randomize(S, S, 1.5)
