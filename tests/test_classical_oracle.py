"""Every route against the exact tau of classical chains embedded as channels."""

from fractions import Fraction

import numpy as np
import pytest

import qhit
from classical_oracle import embed, exact_tau, random_chain


def test_exact_tau_of_a_two_state_chain_is_one_over_the_exit_probability():
    # from state 1 the walk reaches 0 with probability 1/4 at every step
    P = np.array([[0.5, 0.25], [0.5, 0.75]])
    assert exact_tau(P, 1) == 4
    assert embed(P).mat[0, 3] == 0.25 and np.count_nonzero(embed(P).mat) == 4


def test_exact_tau_of_a_three_state_chain_with_binary64_entries():
    # columns of thirds do not sum to 1 in binary64; the channel's own tau
    # is solved, not 1 + P~^T h
    P = np.full((3, 3), 1 / 3)
    tau = exact_tau(P, 2)
    third = Fraction(1 / 3)
    assert tau == third / (1 - 2 * third) ** 2
    assert abs(float(tau) - 3.0) < 1e-15


@pytest.mark.parametrize("n,seed", [(6, 0), (12, 1), (16, 2)])
def test_every_ok_route_is_within_1e_13_of_a_classical_chains_exact_tau(n, seed):
    # V = span{e_0} and rho = |n-1><n-1|; a route may refuse (none does at
    # these sizes), and a refusal is not pinned here
    P = random_chain(np.random.default_rng(seed), n)
    S = embed(P)
    V = qhit.GoalSubspace.from_vectors([np.eye(n)[0]])
    rho = np.diag(np.eye(n)[n - 1])
    exact = exact_tau(P, n - 1)
    bound = Fraction(1, 10**13) * exact
    reports = [qhit.tau_channel(S, V, rho, m) for m in qhit.ksmh.METHODS]
    assert any(rep.ok for rep in reports)
    for rep in reports:
        if rep.ok:
            assert abs(Fraction(rep.tau) - exact) <= bound, rep.method


def _drifting_path(n: int) -> np.ndarray:
    """The path 0 - 1 - ... - (n - 1): a step away from 0 with probability
    3/4 and toward it with 1/4, held at either end where no step exists."""
    P = np.zeros((n, n))
    for j in range(n):
        P[min(j + 1, n - 1), j] += 0.75
        P[max(j - 1, 0), j] += 0.25
    return P


@pytest.mark.parametrize("n", [8, 12, 16])
def test_every_ok_route_is_within_tau_u_of_a_drifting_paths_exact_tau(n):
    # from n - 1, tau grows as 3^n (6544, 531416, 43046688), and so does the
    # condition of I - Q.Q S: a route may lose tau u relative, u = 2^-53
    # (seen: 1.6e-14, 1.0e-11, 1.4e-9).  The series may refuse at its step
    # cap, as it does at n = 12 and 16; a refusal is not pinned here
    P = _drifting_path(n)
    V = qhit.GoalSubspace.from_vectors([np.eye(n)[0]])
    rho = np.diag(np.eye(n)[n - 1])
    exact = exact_tau(P, n - 1)
    bound = exact * exact / 2**53
    reports = [qhit.tau_channel(embed(P), V, rho, m) for m in qhit.ksmh.METHODS]
    assert any(rep.ok for rep in reports)
    for rep in reports:
        if rep.ok:
            assert abs(Fraction(rep.tau) - exact) <= bound, rep.method
