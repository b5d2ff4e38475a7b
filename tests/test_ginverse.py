"""Group inverse, Drazin limit and the Hunter g-inverse family."""

import warnings

import numpy as np
import pytest

import qhit
from conftest import ROTATION_U, random_tp_channel
from expected_matrices import A0_SHARP, G_QMC, HADAMARD_ASHARP
from qhit.errors import NoGroupInverseError, NumericalError, ValidationError
from qhit.ginverse import rank_with_margin, verify_ginverse

RNG = np.random.default_rng(17)


def test_index_of_invertible_matrix_is_zero():
    A = np.array([[2.0, 1.0], [0.0, 3.0]])
    assert qhit.index(A) == 0


def test_index_of_nilpotent_jordan_block_is_two():
    A = np.array([[0.0, 1.0], [0.0, 0.0]])
    assert qhit.index(A) == 2


def test_index_one_is_decided_without_squaring():
    # rank(A) = 2 under the cut, but the 1e-6 singular value squares to
    # 1e-12, under it; ker(A) = ker(A*) = span{e_3}, so the index is 1
    A = np.diag([1.0, 1e-6, 0.0])
    assert qhit.index(A) == 1


def test_group_inverse_of_invertible_is_inverse():
    A = RNG.normal(size=(4, 4)) + np.eye(4) * 5
    gs = qhit.group_inverse(A)
    assert gs.index == 0
    assert np.max(np.abs(gs.Asharp - np.linalg.inv(A))) < 1e-10


def test_group_inverse_axioms_random_channels():
    for n in (2, 3, 4):
        for _ in range(3):
            S = random_tp_channel(RNG, n)
            A = np.eye(n * n) - S.mat
            gs = qhit.group_inverse(A)
            assert gs.index <= 1
            G = gs.Asharp
            scale = np.max(np.abs(A))
            assert np.max(np.abs(A @ G @ A - A)) < 1e-9 * scale
            assert np.max(np.abs(G @ A @ G - G)) < 1e-9 * max(scale, np.max(np.abs(G)))
            assert np.max(np.abs(A @ G - G @ A)) < 1e-9 * max(scale, np.max(np.abs(G)))


def test_group_inverse_splits_kernel_by_rank():
    # Z = I - S of a lazy channel has max|Z| ~ 2e-3 and a nonzero eigenvalue
    # of 8e-10; an absolute 1e-9 cut would put it into the kernel
    T = random_tp_channel(np.random.default_rng(0), 2)
    H = qhit.unitary_superop(np.array([[1, 1], [1, -1]]) / np.sqrt(2))
    S = qhit.randomize(qhit.randomize(T, H, 1e-6), qhit.identity_superop(2), 1e-3)
    A = np.eye(4) - S.mat
    gs = qhit.group_inverse(A)
    assert gs.index == 1
    G = gs.Asharp
    scale = np.max(np.abs(A))
    assert np.max(np.abs(A @ G @ A - A)) < 1e-9 * scale
    assert np.max(np.abs(G @ A @ G - G)) < 1e-9 * np.max(np.abs(G))
    assert np.max(np.abs(A @ G - G @ A)) < 1e-9 * np.max(np.abs(G))


def test_group_inverse_rejects_index_two():
    A = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(NoGroupInverseError):
        qhit.group_inverse(A)


def test_hadamard_group_inverse_matches_printed(hadamard):
    A = np.eye(8) - hadamard["q"].rep
    gs = qhit.group_inverse(A)
    assert gs.index == 1
    assert np.max(np.abs(gs.Asharp - HADAMARD_ASHARP)) < 1e-10


def test_rotation_group_inverse_matches_printed():
    S = qhit.unitary_superop(ROTATION_U)
    V = qhit.GoalSubspace.from_vectors([[1, 0]])
    A = np.eye(8) - qhit.induce(S, V).rep
    assert np.max(np.abs(qhit.group_inverse(A).Asharp - A0_SHARP)) < 1e-10


def test_drazin_limit_agrees_with_group_inverse():
    S = random_tp_channel(RNG, 3)
    A = np.eye(9) - S.mat
    gs = qhit.group_inverse(A)
    dl = qhit.drazin_limit(A)
    assert np.max(np.abs(dl - gs.Asharp)) < 1e-6


def test_group_inverse_on_a_two_dimensional_kernel(hadamard):
    # I - S of the Hadamard channel has a kernel of dimension 2; the eighths
    # are the values the ordered Schur split gave, to 2e-16
    A = np.eye(4) - hadamard["S"].mat
    assert rank_with_margin(A) == 2
    Asharp = qhit.group_inverse(A).Asharp
    schur = np.array([[1, -1, -1, -1], [-1, 3, -1, 1],
                      [-1, -1, 3, 1], [-1, 1, 1, 1]]) / 8
    assert np.max(np.abs(Asharp - schur)) < 1e-12
    assert np.max(np.abs(qhit.drazin_limit(A) - Asharp)) < 1e-6


def test_ergodic_projector_matches_cesaro_mean(sec5):
    q = sec5["q"]
    A = np.eye(8) - q.rep
    proj = qhit.group_inverse(A).ergodic_projector
    N = 4096
    cesaro = np.zeros((8, 8), dtype=complex)
    M = np.eye(8)
    for _ in range(N):
        cesaro += M
        M = q.rep @ M
    cesaro /= N
    assert np.max(np.abs(proj - cesaro)) < 1e-3


def test_ergodic_projector_fixes_stationary_state(sec5):
    q = sec5["q"]
    proj = qhit.group_inverse(np.eye(8) - q.rep).ergodic_projector
    pi = q.stationary_vec()
    assert np.max(np.abs(proj @ pi - pi)) < 1e-10
    assert np.max(np.abs(proj @ proj - proj)) < 1e-10


def test_rank_with_margin_warns_on_ambiguity():
    A = np.diag([1.0, 1e-10])  # singular value right at the threshold region
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rank_with_margin(A)
    assert any("ambiguous" in str(w.message).lower() or "rank" in str(w.message).lower()
               for w in caught)


def test_hunter_ginverse_matches_printed(sec5):
    e1 = np.eye(8)[0]
    G = qhit.hunter_special(sec5["q"], u=e1, f=e1)
    assert np.max(np.abs(G - G_QMC)) < 1e-10


def test_hunter_family_members_are_ginverses(sec5):
    q = sec5["q"]
    A = np.eye(8) - q.rep
    for seed in range(5):
        rng = np.random.default_rng(seed)
        t = rng.normal(size=8)
        u = rng.normal(size=8)
        f = rng.normal(size=8)
        g = rng.normal(size=8)
        G = qhit.hunter_ginverse(q, t=t, u=u, f=f, g=g)
        assert np.max(np.abs(A @ G @ A - A)) < 1e-8


def test_hunter_rejects_degenerate_pairings(sec5):
    q = sec5["q"]
    # t orthogonal to e_I makes the inner matrix singular
    t = np.array([1.0, 0, 0, -1.0, 0, 0, 0, 0])  # <e_I|t> = 0
    with pytest.raises(ValidationError):
        qhit.hunter_ginverse(q, t=t)


def test_verify_ginverse_accepts_and_rejects():
    A = np.diag([1.0, 0.0])
    assert verify_ginverse(A, A) < 1e-15  # A is its own g-inverse here
    with pytest.raises(NumericalError):
        verify_ginverse(A, np.array([[0.0, 1.0], [1.0, 0.0]]))
