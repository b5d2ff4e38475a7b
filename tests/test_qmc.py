"""Quantum Markov chains: induction, stationary states and block structure."""

from pathlib import Path

import numpy as np
import pytest

import qhit
from conftest import random_tp_channel, stacked
from expected_matrices import A0_SHARP, HADAMARD_ASHARP, PHI_QMC, PI_QMC
from qhit.cli import load_spec, parse_channel, parse_subspace
from qhit.errors import NotIrreducibleError, ValidationError
from qhit.matrep import real_form
from qhit.qmc import site_slice

RNG = np.random.default_rng(5)
CORPUS = Path(__file__).parent / "corpus"


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
    assert abs(np.vdot(q.identity_vec(), stacked(blocks)) - 1.0) < 1e-12


def test_stationary_vector_matches_printed(sec5):
    assert np.max(np.abs(sec5["q"].stationary_vec() - PI_QMC)) < 1e-10


def test_stationary_density_is_fixed_and_positive(sec5):
    q = sec5["q"]
    pi = qhit.stationary_density(q)
    assert np.max(np.abs(q.rep @ pi - pi)) < 1e-10
    assert abs(np.vdot(q.identity_vec(), pi) - 1.0) < 1e-10
    for i in range(2):
        evals = np.linalg.eigvalsh(qhit.unvec(pi[site_slice(i, q.k)], q.k, q.k))
        assert evals.min() > -1e-10


def test_stacked_state_block_round_trip():
    blocks = [np.array([[1, 2j], [-2j, 3]]), np.eye(2)]
    st = stacked(blocks)
    for i in range(2):
        assert np.array_equal(qhit.unvec(st[site_slice(i, 2)], 2, 2), blocks[i])


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


@pytest.mark.parametrize("build,error", [
    (lambda: qhit.QMC(2, 2, np.eye(4)), r"must be 8x8, got \(4, 4\)"),
    (lambda: qhit.induce(qhit.identity_superop(2),
                         qhit.GoalSubspace.from_vectors([[1, 0, 0]])),
     "dimensions differ"),
    (lambda: qhit.from_oqw([]), "at least one site"),
    # one row of two blocks: the parent read the first and dropped 5I
    (lambda: qhit.from_oqw([[np.eye(2), 5 * np.eye(2)]]), "1x1 grid"),
    (lambda: qhit.from_oqw([[np.eye(2), np.eye(2)], [np.eye(2)]]), "2x2 grid"),
    # blocks of two orders: the parent died in numpy's broadcast
    (lambda: qhit.from_oqw([[np.eye(2), np.zeros((3, 3))],
                            [np.zeros((3, 3)), np.eye(2)]]), "k x k"),
    (lambda: qhit.from_oqw([[np.ones((2, 3))]]), "k x k"),
], ids=["qmc-order", "induce-dimensions", "oqw-without-sites", "oqw-one-row-of-two",
        "oqw-ragged", "oqw-mixed-orders", "oqw-rectangular-block"])
def test_chain_constructors_refuse_malformed_input(build, error):
    with pytest.raises(ValidationError, match=error):
        build()


def test_fixed_space_dim(sec5, hadamard):
    # the chain's one cut (of S, order n^2) against the rank of the chain's
    # own I - Phi at order 2n^2
    for q, dim in ((sec5["q"], 1), (hadamard["q"], 2)):
        A = np.eye(q.dim) - real_form(q.rep, q.k)
        assert q._fixed[0] == q.dim - qhit.ginverse.rank_with_margin(A) == dim


def test_fixed_map_rank_one(sec5):
    q = sec5["q"]
    om = qhit.fixed_map(q)
    assert np.linalg.matrix_rank(om, tol=1e-9) == 1
    # idempotent on trace-one states: Omega rho = pi
    state = stacked([np.eye(2) / 4, np.eye(2) / 4])
    assert np.allclose(om @ state, q.stationary_vec())


def test_fixed_map_requires_unique_fixed_state(hadamard):
    with pytest.raises(NotIrreducibleError):
        qhit.fixed_map(hadamard["q"])


@pytest.mark.parametrize("case", ["sec5", 2, 3, 4, 5])
def test_fixed_map_factors_no_matrix_of_the_chains_order(monkeypatch, case):
    # uniqueness is read from the lifted cut of order n^2 that
    # stationary_density takes, not from an SVD of the chain's order 2n^2
    S, V = _lift_problem(case)
    orders = []
    svd = np.linalg.svd

    def recording(a, *args, **kwargs):
        orders.append(np.shape(a)[0])
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recording)
    omega = qhit.fixed_map(qhit.induce(S, V))
    n = S.dim
    assert omega.shape == (2 * n * n, 2 * n * n)
    assert n * n in orders and 2 * n * n not in orders


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
    lifted = qhit.induced_group_inverse(q)
    dense = qhit.group_inverse(A)
    assert isinstance(lifted, qhit.GroupInverse)
    assert np.max(np.abs(lifted.Asharp - dense.Asharp)) < 1e-10
    assert np.max(np.abs(lifted.ergodic_projector - dense.ergodic_projector)) < 1e-10
    if case in PRINTED_ASHARP:
        assert np.max(np.abs(lifted.Asharp - PRINTED_ASHARP[case])) < 1e-10
    assert lifted.index == dense.index == qhit.index(np.eye(S.dim**2) - S.mat)
    G = lifted.Asharp
    assert lifted.residuals == {"AGA-A": np.max(np.abs(A @ G @ A - A)),
                                "GAG-G": np.max(np.abs(G @ A @ G - G)),
                                "AG-GA": np.max(np.abs(A @ G - G @ A))}


def _lift_problem(case) -> tuple:
    """(S, V): a corpus spec by name, or a random 3-Kraus channel of order
    `case` with a random goal line."""
    if isinstance(case, str):
        spec = load_spec(str(CORPUS / f"{case}.json"))
        S = parse_channel(spec)
        return S, parse_subspace(spec["subspace"], S.dim)
    rng = np.random.default_rng(31 + case)
    S = random_tp_channel(rng, case)
    v = rng.normal(size=case) + 1j * rng.normal(size=case)
    return S, qhit.GoalSubspace.from_vectors([v / np.linalg.norm(v)])


LIFT_CASES = ["sec5", "hadamard", "hadamard_bad_alpha", "order4", "randomization",
              "goal2", 2, 3, 4, 5, 6]


@pytest.mark.parametrize("case", LIFT_CASES)
def test_lifted_stationary_density_matches_chain_fixed_space(case):
    # the lift cuts the fixed space of S at order n^2 and returns C pi; the
    # reference cuts the chain's own, of order 2n^2 (dimension 2 and 4 on
    # hadamard and order4)
    S, V = _lift_problem(case)
    q = qhit.induce(S, V)
    _, dense = qhit.ginverse.fixed_space(q.rep, q.k)
    lifted = qhit.stationary_density(q)
    assert np.max(np.abs(lifted - dense)) <= 1e-12 * np.max(np.abs(dense))
    chain_only = qhit.QMC(q.n_sites, q.k, q.rep)  # no channel: the dense path
    assert chain_only.channel is None
    assert np.max(np.abs(chain_only.stationary_vec() - dense)) <= 1e-14


@pytest.mark.parametrize("case", LIFT_CASES)
def test_lifted_hunter_special_matches_chain_hunter_ginverse(case):
    S, V = _lift_problem(case)
    q = qhit.induce(S, V)
    rng = np.random.default_rng(7)
    u, f = (rng.normal(size=q.dim) + 1j * rng.normal(size=q.dim) for _ in range(2))
    chain_only = qhit.QMC(q.n_sites, q.k, q.rep)  # no channel: the dense path
    if chain_only._fixed[0] > 1:
        # no rank-one update makes I - Phi invertible: both forms refuse up
        # front, on either path, from the cut that gives the fixed density
        for chain in (q, chain_only):
            for build in (lambda: qhit.hunter_special(chain),
                          lambda: qhit.hunter_ginverse(chain, t=u,
                                                       u=chain.identity_vec(), g=f)):
                with pytest.raises(NotIrreducibleError, match="one-dimensional"):
                    build()
        return
    for uu, ff in ((None, None), (u, f)):
        lifted = qhit.hunter_ginverse(q, t=uu, g=ff)
        dense = qhit.hunter_ginverse(chain_only, t=uu, u=q.identity_vec(), g=ff)
        assert np.max(np.abs(lifted - dense)) <= 1e-12 * np.max(np.abs(dense))
        assert np.array_equal(qhit.hunter_ginverse(chain_only, t=uu, g=ff), dense)
    # a general member is lifted when its rows repeat one block per site, and
    # factored at the chain's order when their blocks differ
    half = q.dim // 2
    rows = {"u": np.tile(u[:half], 2), "f": np.tile(f[:half], 2)}
    lifted = qhit.hunter_ginverse(q, t=f, g=u, **rows)
    dense = qhit.hunter_ginverse(chain_only, t=f, g=u, **rows)
    assert np.max(np.abs(lifted - dense)) <= 1e-12 * np.max(np.abs(dense))
    rows["u"][-1] += 1.0
    A = np.eye(q.dim) - q.rep
    full = (np.linalg.inv(A + np.outer(f, rows["u"].conj()))
            + np.outer(q.stationary_vec(), rows["f"].conj())
            + np.outer(u, q.identity_vec().conj()))
    assert np.array_equal(qhit.hunter_ginverse(q, t=f, g=u, **rows), full)
    with pytest.raises(ValidationError, match="length"):
        qhit.hunter_ginverse(q, t=u[:-1])
    with pytest.raises(ValidationError, match="length"):
        qhit.hunter_ginverse(q, g=np.append(f, 0.0))
    with pytest.raises(ValidationError, match=r"<e_I\|t>"):
        qhit.hunter_ginverse(q, t=np.zeros(q.dim))


def test_induced_group_inverse_refuses_a_chain_not_built_by_induce(sec5):
    with pytest.raises(ValidationError, match="induce"):
        qhit.induced_group_inverse(qhit.QMC(2, 2, sec5["q"].rep))


def test_induce_refuses_a_map_that_is_not_a_channel(sec5):
    # diag(1, i, 1, 1) keeps the trace, so the chain's own trace check passes
    with pytest.raises(ValidationError, match="Hermiticity"):
        qhit.induce(qhit.SuperOp(2, np.diag([1, 1j, 1, 1])), sec5["V"])
    with pytest.raises(ValidationError, match="not trace preserving"):
        qhit.induce(qhit.SuperOp(2, np.diag([0.5, 1, 1, 1])), sec5["V"])
