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
