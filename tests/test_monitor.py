"""Monitored-evolution series: first-visit probabilities and their sums."""

import numpy as np
import pytest

import qhit
from conftest import random_tp_channel, site_projector
from qhit.errors import ValidationError
from qhit.monitor import BLOCK, _run_series
from qhit.tolerances import IMAG_TOL

RNG = np.random.default_rng(11)


def _reference_series(step, goal, stay, trace_vec, v0, config):
    """The term-by-term loop: three matvecs and one trace per step."""
    v = v0.copy()
    terms, cum, tau, quiet, r, converged = [], 0.0, 0.0, 0, 0, False
    while r < config.max_steps:
        r += 1
        x = step @ v
        pi_r = complex(np.vdot(trace_vec, goal @ x))
        assert abs(pi_r.imag) <= IMAG_TOL
        pi_r = min(max(pi_r.real, 0.0), 1.0)
        terms.append((r, pi_r))
        cum += pi_r
        tau += r * pi_r
        if r * pi_r < config.increment_tol:
            quiet += 1
            if quiet >= config.patience:
                converged = True
                break
        else:
            quiet = 0
        v = stay @ x
    return terms, cum, tau, r, converged


def _reference_first_visit(S, V, rho, config):
    n = S.dim
    return _reference_series(S.mat, np.eye(n * n) - V.QQ, V.QQ,
                             qhit.vec(np.eye(n)), qhit.vec(rho), config)


def _reference_site_visit(q, target, state, config):
    P = site_projector(q, target)
    return _reference_series(q.rep, P, np.eye(q.dim) - P, q.identity_vec(),
                             state.data, config)


def _assert_matches_reference(ser, ref):
    terms, cum, tau, r, converged = ref
    assert ser.truncated_at == r
    assert ser.converged == converged
    assert len(ser.terms) == len(terms)
    assert [t for t, _ in ser.terms] == [t for t, _ in terms]
    assert max(abs(a - b) for (_, a), (_, b) in zip(ser.terms, terms)) <= 1e-14
    assert ser.cumulative_prob == pytest.approx(cum, rel=1e-12, abs=1e-14)
    assert ser.partial_tau == pytest.approx(tau, rel=1e-12, abs=1e-14)


def _cyclic_shift(n: int):
    """Shift e_j -> e_{j+1 mod n} with V = span{e_0} and rho = |e_1><e_1|: the
    walk first reaches V at r = n - 1."""
    S = qhit.unitary_superop(np.roll(np.eye(n), 1, axis=0))
    return S, qhit.GoalSubspace.from_vectors([np.eye(n)[0]]), np.diag(np.eye(n)[1])


def _channel_case(kind: str, n: int, seed: int):
    """A random channel, or its p = 1e-2 lazy mixture, with a random goal line
    and a random mixed state in its complement; or the cyclic shift, whose
    negligible terms come before its one arrival."""
    if kind == "shift":
        return _cyclic_shift(n)
    rng = np.random.default_rng(seed)
    S = random_tp_channel(rng, n)
    if kind == "lazy":
        S = qhit.randomize(S, qhit.identity_superop(n), 1e-2)
    v = rng.normal(size=n) + 1j * rng.normal(size=n)
    V = qhit.GoalSubspace.from_vectors([v])
    W = V.Q @ (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    rho = W @ W.conj().T
    return S, V, rho / np.trace(rho).real


CHANNEL_CASES = [("random", 2, 0), ("random", 3, 1), ("lazy", 2, 2), ("lazy", 3, 3),
                 ("shift", 8, None)]


@pytest.mark.parametrize("kind,n,seed", CHANNEL_CASES)
@pytest.mark.parametrize("patience", [1, 4, 64, 100])
def test_block_stepped_series_matches_term_by_term_loop(kind, n, seed, patience):
    S, V, rho = _channel_case(kind, n, seed)
    cfg = qhit.SeriesConfig(patience=patience)
    ser = qhit.first_visit_series(S, V, rho, config=cfg)
    _assert_matches_reference(ser, _reference_first_visit(S, V, rho, cfg))


@pytest.mark.parametrize("kind,n,seed", CHANNEL_CASES)
@pytest.mark.parametrize("max_steps", [1, 63, 64, 65, 130])
def test_block_stepped_series_stops_at_max_steps(kind, n, seed, max_steps):
    S, V, rho = _channel_case(kind, n, seed)
    cfg = qhit.SeriesConfig(max_steps=max_steps)
    ser = qhit.first_visit_series(S, V, rho, config=cfg)
    _assert_matches_reference(ser, _reference_first_visit(S, V, rho, cfg))
    if kind == "lazy":  # hundreds of steps from converging
        assert ser.truncated_at == max_steps


@pytest.mark.parametrize("kind,n,seed", CHANNEL_CASES)
@pytest.mark.parametrize("patience", [4, 64])
def test_block_stepped_site_series_matches_term_by_term_loop(kind, n, seed, patience):
    S, V, rho = _channel_case(kind, n, seed)
    q = qhit.induce(S, V)
    state = qhit.VecState.from_blocks([np.zeros((n, n)), rho])
    cfg = qhit.SeriesConfig(patience=patience)
    ser = qhit.site_visit_series(q, 0, state, config=cfg)
    _assert_matches_reference(ser, _reference_site_visit(q, 0, state, cfg))


@pytest.mark.parametrize("blocks", [1, 2])
def test_series_stop_on_a_block_boundary(hadamard, blocks):
    # pi_r = 2^-r; with r0 the last r whose increment r pi_r is not
    # negligible, patience 64 b - r0 makes the stop the last term of block b
    S, V, rho = hadamard["S"], hadamard["V"], hadamard["rho_phi"]
    terms = _reference_first_visit(S, V, rho, qhit.SeriesConfig(max_steps=BLOCK))[0]
    r0 = max(r for r, p in terms if r * p >= qhit.SeriesConfig().increment_tol)
    cfg = qhit.SeriesConfig(patience=blocks * BLOCK - r0)
    ser = qhit.first_visit_series(S, V, rho, config=cfg)
    assert ser.truncated_at == blocks * BLOCK and ser.converged
    _assert_matches_reference(ser, _reference_first_visit(S, V, rho, cfg))


def test_terms_past_the_stop_are_never_checked():
    # a conveyor step map: pi_1 = 1, pi_r = 0 up to r = 69, pi_70 imaginary
    N = 2 * BLOCK
    step = np.eye(N, k=-1, dtype=complex)
    first = np.zeros(N, dtype=complex)
    first[0], first[69] = 1.0, 1j
    v0 = np.eye(N, dtype=complex)[0]
    ser = _run_series(step, first, v0, qhit.SeriesConfig(patience=64))
    assert ser.truncated_at == 65 and ser.converged and ser.tau == 1.0
    with pytest.raises(ValidationError, match="imaginary"):
        _run_series(step, first, v0, qhit.SeriesConfig(patience=100))


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
    assert ser.truncated_at == 10
    assert len(ser.terms) == 10
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



@pytest.mark.xfail(strict=True, reason="the stopping rule fires on patience small "
                   "terms before a late first arrival (ROADMAP item 7, bug (b))")
def test_series_waits_for_a_late_first_arrival():
    S, V, rho = _cyclic_shift(8)
    ser = qhit.first_visit_series(S, V, rho, config=qhit.SeriesConfig(patience=4))
    assert ser.tau == pytest.approx(7.0)


@pytest.mark.parametrize("field,value", [
    ("patience", 0), ("patience", -3), ("max_steps", 0), ("increment_tol", -1e-12),
    ("increment_tol", float("nan")), ("hit_prob_tol", 1.0), ("hit_prob_tol", -1e-6),
])
def test_series_config_rejects_meaningless_values(field, value):
    with pytest.raises(ValidationError, match=field):
        qhit.SeriesConfig(**{field: value})


def test_first_visit_series_rejects_mis_sized_inputs(sec5):
    S, V = sec5["S"], sec5["V"]
    with pytest.raises(ValidationError, match=r"2x2, got \(3, 3\)"):
        qhit.first_visit_series(S, V, np.eye(3) / 3)
    V3 = qhit.GoalSubspace.from_vectors([[1, 0, 0]])
    with pytest.raises(ValidationError, match="dimension 3"):
        qhit.first_visit_series(S, V3, sec5["rho_phi"])


@pytest.mark.parametrize("target", [-1, 2])
def test_site_visit_series_rejects_targets_outside_the_chain(sec5, target):
    state = qhit.VecState.from_blocks([np.zeros((2, 2)), sec5["rho_phi"]])
    with pytest.raises(ValidationError, match="target site"):
        qhit.site_visit_series(sec5["q"], target, state)


def test_site_visit_series_rejects_a_state_of_another_chain(sec5):
    q = sec5["q"]
    three_sites = qhit.VecState.from_blocks([np.zeros((2, 2))] * 2 + [sec5["rho_phi"]])
    qutrit = qhit.VecState.from_blocks([np.zeros((3, 3)), np.eye(3) / 3])
    for state in (three_sites, qutrit):
        with pytest.raises(ValidationError, match="state has"):
            qhit.site_visit_series(q, 0, state)
