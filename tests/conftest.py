"""Shared fixtures: worked-example channels, random-channel factories and
dense reference helpers."""

import numpy as np
import pytest

import qhit
from qhit.qmc import site_slice


@pytest.fixture
def sec5():
    """The irreducible two-Kraus qubit channel and its goal subspace."""
    A = np.array([[1, 1], [0, 1]]) / np.sqrt(3)
    B = np.array([[1, 0], [-1, 1]]) / np.sqrt(3)
    ch = qhit.KrausChannel(2, (A, B))
    S = qhit.represent(ch)
    psi = np.array([1, 1]) / np.sqrt(2)
    phi = np.array([1, -1]) / np.sqrt(2)
    V = qhit.GoalSubspace.from_vectors([psi])
    return {
        "channel": ch, "S": S, "V": V, "psi": psi, "phi": phi,
        "rho_phi": np.outer(phi, phi), "q": qhit.induce(S, V),
    }


@pytest.fixture
def hadamard():
    U = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    S = qhit.unitary_superop(U)
    V = qhit.GoalSubspace.from_vectors([[1, 0]])
    return {"U": U, "S": S, "V": V, "q": qhit.induce(S, V),
            "rho_phi": np.diag([0.0, 1.0])}


@pytest.fixture
def order4():
    U = np.array([[1, 1, 0, 0],
                  [0, 0, 1, 1],
                  [1, -1, 0, 0],
                  [0, 0, 1, -1]]) / np.sqrt(2)
    S = qhit.unitary_superop(U)
    V = qhit.GoalSubspace.from_vectors([[1, 0, 0, 0]])
    return {"U": U, "S": S, "V": V}


def make_sec6_T(s: float) -> qhit.SuperOp:
    """Depolarizing-style channel with parameter s (unique fixed state I/2)."""
    A1 = np.sqrt(1 - 3 * s / 4) * np.eye(2)
    A2 = np.sqrt(s) / 2 * np.array([[0, 1], [1, 0]])
    A3 = np.sqrt(s) / 2 * np.array([[0, -1j], [1j, 0]])
    A4 = np.sqrt(s) / 2 * np.array([[1, 0], [0, -1]])
    return qhit.represent(qhit.KrausChannel(2, (A1, A2, A3, A4)))


ROTATION_U = np.array([[np.sqrt(3), -1], [1, np.sqrt(3)]]) / 2


@pytest.fixture
def rotation():
    S = qhit.unitary_superop(ROTATION_U)
    V = qhit.GoalSubspace.from_vectors([[1, 0]])
    return {"S": S, "V": V, "rho_phi": np.diag([0.0, 1.0])}


def random_kraus(rng, n: int, m: int = 3) -> tuple:
    """m random Kraus operators on C^n: QR of a stacked Gaussian block column.

    The Q factor of an (m*n) x n complex Gaussian matrix is an isometry; its
    n x n blocks are Kraus operators with sum V*V = I exactly.
    """
    Z = rng.normal(size=(m * n, n)) + 1j * rng.normal(size=(m * n, n))
    Q, _ = np.linalg.qr(Z)
    return tuple(Q[i * n:(i + 1) * n, :] for i in range(m))


def random_tp_channel(rng, n: int, m: int = 3) -> qhit.SuperOp:
    """Random trace-preserving channel of :func:`random_kraus`."""
    return qhit.represent(qhit.KrausChannel(n, random_kraus(rng, n, m)))


def random_irreducible_qubit(rng) -> qhit.SuperOp:
    """Random qubit channel, resampled until the fixed state is unique and faithful."""
    for _ in range(100):
        S = random_tp_channel(rng, 2, 3)
        if qhit.diagnose(S).is_irreducible:
            return S
    raise RuntimeError("failed to sample an irreducible qubit channel")


def random_goal_qubit(rng) -> qhit.GoalSubspace:
    v = rng.normal(size=2) + 1j * rng.normal(size=2)
    return qhit.GoalSubspace.from_vectors([v / np.linalg.norm(v)])


def stacked(blocks) -> np.ndarray:
    """The chain state [vec(rho_1); ...; vec(rho_n)] of the site blocks."""
    return np.concatenate([qhit.vec(b) for b in blocks])


def site_projector(q: qhit.QMC, i: int) -> np.ndarray:
    """Dense 0/1 projector onto site i's block, for reference computations."""
    P = np.zeros((q.dim, q.dim))
    sl = site_slice(i, q.k)
    P[sl, sl] = np.eye(q.k * q.k)
    return P
