"""Quantum Markov chains: induction, stationary states and block structure."""

import numpy as np
import pytest

import qhit
from conftest import random_tp_channel
from expected_matrices import A0_SHARP, HADAMARD_ASHARP, PHI_QMC, PI_QMC
from qhit.errors import NotIrreducibleError, ValidationError

RNG = np.random.default_rng(5)


def test_induced_qmc_matches_printed_matrix(sec5):
    assert np.max(np.abs(sec5["q"].rep - PHI_QMC)) < 1e-12


def test_induced_qmc_is_trace_preserving():
    for _ in range(5):
        S = random_tp_channel(RNG, 3)
        V = qhit.GoalSubspace.from_vectors([np.eye(3)[0]])
        q = qhit.induce(S, V)  # __init__ would raise if TP failed
        eI = q.identity_vec()
        assert np.max(np.abs(eI.conj() @ q.rep - eI.conj())) < 1e-10


def test_identity_vec_reads_total_trace(sec5):
    q = sec5["q"]
    blocks = [np.diag([0.25, 0.25]), np.diag([0.5, 0.0])]
    state = qhit.VecState.from_blocks(blocks)
    assert abs(np.vdot(q.identity_vec(), state.data) - 1.0) < 1e-12


def test_stationary_vector_matches_printed(sec5):
    assert np.max(np.abs(sec5["q"].stationary_vec() - PI_QMC)) < 1e-10


def test_stationary_density_is_fixed_and_positive(sec5):
    q = sec5["q"]
    pi = qhit.stationary_density(q)
    assert np.max(np.abs(q.rep @ pi.data - pi.data)) < 1e-10
    assert abs(sum(pi.site_traces()) - 1.0) < 1e-10
    for i in range(2):
        evals = np.linalg.eigvalsh(pi.block(i))
        assert evals.min() > -1e-10


def test_vecstate_block_round_trip():
    blocks = [np.array([[1, 2j], [-2j, 3]]), np.eye(2)]
    st = qhit.VecState.from_blocks(blocks)
    assert np.allclose(st.block(0), blocks[0])
    assert np.allclose(st.block(1), blocks[1])
    assert np.allclose(st.site_traces(), [4.0, 2.0])


def test_block_accessor_tiles_the_representation(sec5):
    q = sec5["q"]
    assembled = np.block([[q.block(0, 0), q.block(0, 1)],
                          [q.block(1, 0), q.block(1, 1)]])
    assert np.allclose(assembled, q.rep)


def test_from_oqw_column_condition():
    # valid OQW: columns of Kraus blocks are isometries
    B01 = np.array([[0, 1], [1, 0]]) / np.sqrt(2)
    B11 = np.eye(2) / np.sqrt(2)
    grid = [[np.zeros((2, 2)), B01], [np.eye(2), B11]]
    q = qhit.from_oqw(grid)
    assert q.n_sites == 2 and q.k == 2
    bad = [[np.eye(2), np.eye(2)], [np.eye(2), np.eye(2)]]
    with pytest.raises(ValidationError):
        qhit.from_oqw(bad)


def test_fixed_space_dim(sec5, hadamard):
    assert qhit.fixed_space_dim(sec5["q"]) == 1
    assert qhit.fixed_space_dim(hadamard["q"]) == 2


def test_fixed_map_rank_one(sec5):
    q = sec5["q"]
    om = qhit.fixed_map(q)
    assert np.linalg.matrix_rank(om, tol=1e-9) == 1
    # idempotent on trace-one states: Omega rho = pi
    state = qhit.VecState.from_blocks([np.eye(2) / 4, np.eye(2) / 4])
    assert np.allclose(om @ state.data, q.stationary_vec())


def test_fixed_map_requires_unique_fixed_state(hadamard):
    with pytest.raises(NotIrreducibleError):
        qhit.fixed_map(hadamard["q"])


PRINTED_ASHARP = {"hadamard": HADAMARD_ASHARP, "rotation": A0_SHARP}


@pytest.mark.parametrize("case", ["hadamard", "rotation", "sec5", "order4", 2, 3, 4, 5])
def test_induced_group_inverse_matches_chain_group_inverse(case, request):
    if isinstance(case, str):
        fx = request.getfixturevalue(case)
        S, V = fx["S"], fx["V"]
    else:
        rng = np.random.default_rng(23 + case)
        S = random_tp_channel(rng, case)
        v = rng.normal(size=case) + 1j * rng.normal(size=case)
        V = qhit.GoalSubspace.from_vectors([v / np.linalg.norm(v)])
    q = qhit.induce(S, V)
    A = np.eye(q.dim) - q.rep
    lifted = qhit.induced_group_inverse(S, q)
    assert np.max(np.abs(lifted - qhit.group_inverse(A).Asharp)) < 1e-10
    if case in PRINTED_ASHARP:
        assert np.max(np.abs(lifted - PRINTED_ASHARP[case])) < 1e-10
    assert qhit.index(A) == qhit.index(np.eye(S.dim**2) - S.mat)


def test_induce_refuses_a_map_that_is_not_a_channel(sec5):
    # diag(1, i, 1, 1) keeps the trace, so the chain's own trace check passes
    with pytest.raises(ValidationError, match="Hermiticity"):
        qhit.induce(qhit.SuperOp(2, np.diag([1, 1j, 1, 1])), sec5["V"])
    with pytest.raises(ValidationError, match="not trace preserving"):
        qhit.induce(qhit.SuperOp(2, np.diag([0.5, 1, 1, 1])), sec5["V"])
