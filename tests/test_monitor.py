"""Monitored-evolution series: first-visit probabilities and their sums."""

import numpy as np

import qhit

RNG = np.random.default_rng(11)


def test_step_prob_matches_first_series_term(sec5):
    # before any monitoring has occurred the first term is Tr(P T rho)
    S, V, rho = sec5["S"], sec5["V"], sec5["rho_phi"]
    ser = qhit.first_visit_series(S, V, rho)
    p1 = np.trace(V.P @ S(rho)).real
    assert ser.terms[0][0] == 1
    assert abs(ser.terms[0][1] - p1) < 1e-12


def test_series_tau_six(sec5):
    ser = qhit.first_visit_series(sec5["S"], sec5["V"], sec5["rho_phi"])
    assert ser.converged
    assert abs(ser.cumulative_prob - 1.0) < 1e-9
    assert abs(ser.tau - 6.0) < 1e-8


def test_series_tau_hadamard(hadamard):
    ser = qhit.first_visit_series(hadamard["S"], hadamard["V"], hadamard["rho_phi"])
    assert abs(ser.tau - 2.0) < 1e-10


def test_series_infinite_when_hitting_prob_below_one(hadamard):
    alpha = 0.5 * np.sqrt(2 + np.sqrt(2))
    beta = np.sqrt(1 - alpha**2)
    Vbad = qhit.GoalSubspace.from_vectors([[alpha, beta]])
    rho = qhit.pure_density([beta, -alpha])
    ser = qhit.first_visit_series(hadamard["S"], Vbad, rho)
    assert ser.cumulative_prob < 1 - 1e-6
    assert ser.tau == np.inf


def test_series_tau_uses_the_configured_hit_prob_tol():
    # mass 0.59 on |1> reaches V = span|0> in one step; 0.41 on |2> never does
    e = np.eye(3)
    ch = qhit.KrausChannel(3, (np.outer(e[0], e[1]), np.outer(e[0], e[0]),
                               np.outer(e[2], e[2])))
    V = qhit.GoalSubspace.from_vectors([e[0]])
    rho = np.diag([0.0, 0.59, 0.41])
    cfg = qhit.SeriesConfig(hit_prob_tol=0.5)
    ser = qhit.first_visit_series(qhit.represent(ch), V, rho, config=cfg)
    assert ser.converged
    assert abs(ser.cumulative_prob - 0.59) < 1e-12
    assert abs(ser.tau - 0.59) < 1e-12


def test_series_respects_max_steps(sec5):
    cfg = qhit.SeriesConfig(max_steps=10)
    ser = qhit.first_visit_series(sec5["S"], sec5["V"], sec5["rho_phi"], config=cfg)
    assert ser.truncated_at <= 10
    assert not ser.converged


def test_site_visit_series_matches_channel_series(sec5):
    # monitoring site 0 of the induced chain reproduces subspace monitoring
    q = sec5["q"]
    V = sec5["V"]
    rho = sec5["rho_phi"]
    state = qhit.VecState.from_blocks([np.zeros((2, 2)), V.Q @ rho @ V.Q])
    ser_q = qhit.site_visit_series(q, 0, state)
    ser_c = qhit.first_visit_series(sec5["S"], V, rho)
    assert abs(ser_q.tau - ser_c.tau) < 1e-8

