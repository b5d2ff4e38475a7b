"""Monitored-evolution series: first-visit probabilities and their sums."""

import numpy as np
import pytest

import qhit
from conftest import random_tp_channel, site_projector, stacked
from qhit.errors import ValidationError
from qhit.matrep import hermitian_coords, identity_coords
from qhit.monitor import MAX_STEPS, _run_series
from qhit.tolerances import ZERO_TOL

RNG = np.random.default_rng(11)


def _reference_series(step, goal, stay, trace_vec, v0, order, max_steps):
    """The term-by-term loop: three matvecs and two traces per term, with
    the doubling's stops tested whenever r is a power of two m.  Returns
    (hitting probability, tau, truncated_at, converged)."""
    v = v0.copy()
    cum = tau = last = 0.0
    r = 0
    while True:
        r += 1
        x = step @ v
        pi_r = complex(np.vdot(trace_vec, goal @ x))
        assert abs(pi_r.imag) <= 1e-9  # the subspace loop runs in complex arithmetic
        cum += pi_r.real
        tau += r * pi_r.real
        v = stay @ x
        if r & (r - 1):
            continue
        survival = np.vdot(trace_vec, v).real
        converged = r > 1 and ((tau == last and survival <= ZERO_TOL)
                               or (r // 2 >= order and abs(tau - last) < ZERO_TOL))
        if converged or r >= max_steps:
            return min(max(cum, 0.0), 1.0), tau, r, converged
        last = tau


def _reference_first_visit(S, V, rho, order, max_steps):
    n = S.dim
    QQ = np.kron(V.Q, V.Q.conj())
    return _reference_series(S.mat, np.eye(n * n) - QQ, QQ,
                             qhit.vec(np.eye(n)), qhit.vec(rho), order, max_steps)


def _reference_site_visit(q, target, state, order, max_steps):
    # in the chain's Hermitian basis, where the site projector is the same
    P = site_projector(q, target)
    return _reference_series(q.real, P, np.eye(q.dim) - P,
                             identity_coords(q.k, q.n_sites),
                             hermitian_coords(state, q.k), order, max_steps)


def _assert_matches_reference(ser, ref):
    cum, tau, r, converged = ref
    assert ser.truncated_at == r
    assert ser.converged == converged
    assert ser.cumulative_prob == pytest.approx(cum, rel=1e-12, abs=1e-14)
    assert ser.partial_tau == pytest.approx(tau, rel=1e-12, abs=1e-14)


def _pad_step_map(monkeypatch, pad: int):
    """Append ``pad`` idle coordinates to every step map the series folds:
    its order grows while every term stays the same."""
    run = qhit.monitor._run_series

    def padded(step, goal, start, unit):
        N = step.shape[0]
        big = np.zeros((N + pad, N + pad), dtype=step.dtype)
        big[:N, :N] = step
        return run(big, *(np.pad(x, (0, pad)) for x in (goal, start, unit)))

    monkeypatch.setattr(qhit.monitor, "_run_series", padded)


def _conveyor(order: int, goal):
    """A step map e_j -> e_{j+1} whose last coordinate keeps its weight,
    started at e_0, so that pi_r = goal[min(r, order) - 1].  The unit row
    counts the weight on the conveyor, which never drops: the survival stop
    never fires."""
    step = np.eye(order, k=-1)
    step[-1, -1] = 1.0
    return step, np.asarray(goal, dtype=float), np.eye(order)[0], np.ones(order)


def _cyclic_shift(n: int):
    """Shift e_j -> e_{j+1 mod n} with V = span{e_0} and rho = |e_1><e_1|: the
    walk first reaches V at r = n - 1."""
    S = qhit.unitary_superop(np.roll(np.eye(n), 1, axis=0))
    return S, qhit.GoalSubspace.from_vectors([np.eye(n)[0]]), np.diag(np.eye(n)[1])


def _directed_cycle(n_sites: int):
    """The classical walk i -> i + 1 mod n_sites as a chain with k = 1, and
    the state at site 1: it first reaches site 0 at r = n_sites - 1."""
    one, zero = np.eye(1), np.zeros((1, 1))
    q = qhit.from_oqw([[one if i == (j + 1) % n_sites else zero
                        for j in range(n_sites)] for i in range(n_sites)])
    state = stacked([one if i == 1 else zero for i in range(n_sites)])
    return q, state


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


# The three tests named block_stepped keep their names from the block-stepped
# sum that the doubling replaced; they compare it with the term-by-term loop.
@pytest.mark.parametrize("kind,n,seed", CHANNEL_CASES)
@pytest.mark.parametrize("pad", [1, 4, 64, 100])
def test_block_stepped_series_matches_term_by_term_loop(monkeypatch, kind, n, seed,
                                                        pad):
    S, V, rho = _channel_case(kind, n, seed)
    ser = qhit.first_visit_series(S, V, rho)
    _assert_matches_reference(
        ser, _reference_first_visit(S, V, rho, n * n, MAX_STEPS))
    _pad_step_map(monkeypatch, pad)
    ser = qhit.first_visit_series(S, V, rho)
    _assert_matches_reference(
        ser, _reference_first_visit(S, V, rho, n * n + pad, MAX_STEPS))


@pytest.mark.parametrize("kind,n,seed", CHANNEL_CASES)
@pytest.mark.parametrize("max_steps", [1, 63, 64, 65, 130])
def test_block_stepped_series_stops_at_max_steps(monkeypatch, kind, n, seed, max_steps):
    S, V, rho = _channel_case(kind, n, seed)
    monkeypatch.setattr(qhit.monitor, "MAX_STEPS", max_steps)
    ser = qhit.first_visit_series(S, V, rho)
    _assert_matches_reference(
        ser, _reference_first_visit(S, V, rho, n * n, max_steps))
    if kind == "lazy":  # thousands of steps from converging
        assert ser.truncated_at == 2 ** (max_steps - 1).bit_length()


@pytest.mark.parametrize("kind,n,seed", CHANNEL_CASES)
@pytest.mark.parametrize("pad", [4, 64])
def test_block_stepped_site_series_matches_term_by_term_loop(monkeypatch, kind, n,
                                                             seed, pad):
    S, V, rho = _channel_case(kind, n, seed)
    q = qhit.induce(S, V)
    state = stacked([np.zeros((n, n)), rho])
    ser = qhit.site_visit_series(q, 0, state)
    _assert_matches_reference(
        ser, _reference_site_visit(q, 0, state, q.dim, MAX_STEPS))
    _pad_step_map(monkeypatch, pad)
    ser = qhit.site_visit_series(q, 0, state)
    _assert_matches_reference(
        ser, _reference_site_visit(q, 0, state, q.dim + pad, MAX_STEPS))


@pytest.mark.parametrize("order", [8, 64, 100, 127, 130])
def test_series_window_is_the_order_of_the_step_map(order):
    # one arrival at r = 1, or at r = order - 1 after order - 2 zero terms;
    # every doubling before the arrival adds nothing, but the plateau stop
    # waits for the first doubling from m >= order (order 127: 128 -> 256)
    stop = 2 ** ((order - 1).bit_length() + 1)
    e = np.eye(order)
    ser = _run_series(*_conveyor(order, e[0]))
    assert ser.converged and ser.tau == 1.0 and ser.truncated_at == stop
    ser = _run_series(*_conveyor(order, e[order - 2]))
    assert ser.converged and ser.tau == order - 1 and ser.truncated_at == stop


def test_terms_past_the_stop_are_never_checked(monkeypatch):
    # a conveyor with pi_1 = 1 and pi_70 = 1/2: a cap of 64 ends the sum at
    # m = 64, before pi_70; a cap of 65 ends it at m = 128, past it
    e = np.eye(128)
    args = _conveyor(128, e[0] + 0.5 * e[69])
    monkeypatch.setattr(qhit.monitor, "MAX_STEPS", 64)
    ser = _run_series(*args)
    assert ser.truncated_at == 64 and not ser.converged and ser.tau == 1.0
    monkeypatch.setattr(qhit.monitor, "MAX_STEPS", 65)
    ser = _run_series(*args)
    assert ser.truncated_at == 128 and not ser.converged
    assert ser.partial_tau == 1.0 + 70 * 0.5 and ser.cumulative_prob == 1.0


def test_series_stops_on_its_survival_mass(monkeypatch, sec5):
    # padded to order 512, the step map keeps the plateau stop off until the
    # doubling from m = 512; the survival mass and an unchanged tau stop the
    # series where they stop sec5's own, at m = 512
    S, V, rho = sec5["S"], sec5["V"], sec5["rho_phi"]
    ser = qhit.first_visit_series(S, V, rho)
    _pad_step_map(monkeypatch, 512 - 4)
    padded = qhit.first_visit_series(S, V, rho)
    assert ser.converged and padded.converged
    assert padded.truncated_at == ser.truncated_at == 512
    assert padded.partial_tau == pytest.approx(ser.partial_tau, rel=1e-15)


def test_step_prob_matches_first_series_term(monkeypatch, sec5):
    # before any monitoring has occurred the first term is Tr(P T rho); a cap
    # of one step sums that term alone
    S, V, rho = sec5["S"], sec5["V"], sec5["rho_phi"]
    monkeypatch.setattr(qhit.monitor, "MAX_STEPS", 1)
    ser = qhit.first_visit_series(S, V, rho)
    p1 = np.trace(V.P @ S(rho)).real
    assert ser.truncated_at == 1
    assert abs(ser.cumulative_prob - p1) < 1e-12
    assert abs(ser.partial_tau - p1) < 1e-12


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


def test_series_tau_is_infinite_below_the_hitting_probability_tolerance(monkeypatch):
    # mass 0.59 on |1> reaches V = span|0> in one step; 0.41 on |2> never does
    e = np.eye(3)
    ch = qhit.KrausChannel(3, (np.outer(e[0], e[1]), np.outer(e[0], e[0]),
                               np.outer(e[2], e[2])))
    V = qhit.GoalSubspace.from_vectors([e[0]])
    rho = np.diag([0.0, 0.59, 0.41])
    ser = qhit.first_visit_series(qhit.represent(ch), V, rho)
    assert ser.converged
    assert abs(ser.cumulative_prob - 0.59) < 1e-12
    assert ser.tau == np.inf
    # tau is read against qhit.tolerances.HIT_PROB_TOL when it is asked for
    monkeypatch.setattr(qhit.monitor, "HIT_PROB_TOL", 0.5)
    assert abs(ser.tau - 0.59) < 1e-12


def test_series_respects_max_steps(monkeypatch, sec5):
    monkeypatch.setattr(qhit.monitor, "MAX_STEPS", 10)
    ser = qhit.first_visit_series(sec5["S"], sec5["V"], sec5["rho_phi"])
    assert ser.truncated_at == 16  # the first power of two past the cap
    assert not ser.converged


def test_site_visit_series_matches_channel_series(sec5):
    # monitoring site 0 of the induced chain reproduces subspace monitoring
    q = sec5["q"]
    V = sec5["V"]
    rho = sec5["rho_phi"]
    state = stacked([np.zeros((2, 2)), V.Q @ rho @ V.Q])
    ser_q = qhit.site_visit_series(q, 0, state)
    ser_c = qhit.first_visit_series(sec5["S"], V, rho)
    assert abs(ser_q.tau - ser_c.tau) < 1e-8


def test_series_waits_for_a_late_first_arrival():
    # 98 zero terms before the arrival on a step map of order 100, and 6 on
    # one of order 64: both lie inside the window
    q, state = _directed_cycle(100)
    ser = qhit.site_visit_series(q, 0, state)
    assert ser.converged and ser.tau == 99.0
    S, V, rho = _cyclic_shift(8)
    ser = qhit.first_visit_series(S, V, rho)
    assert ser.converged and ser.tau == pytest.approx(7.0)


def test_first_visit_series_rejects_mis_sized_inputs(sec5):
    S, V = sec5["S"], sec5["V"]
    with pytest.raises(ValidationError, match=r"2x2, got \(3, 3\)"):
        qhit.first_visit_series(S, V, np.eye(3) / 3)
    V3 = qhit.GoalSubspace.from_vectors([[1, 0, 0]])
    with pytest.raises(ValidationError, match="dimension 3"):
        qhit.first_visit_series(S, V3, sec5["rho_phi"])


@pytest.mark.parametrize("target", [-1, 2])
def test_site_visit_series_rejects_targets_outside_the_chain(sec5, target):
    state = stacked([np.zeros((2, 2)), sec5["rho_phi"]])
    with pytest.raises(ValidationError, match=rf"site {target} is not in 0\.\.1"):
        qhit.site_visit_series(sec5["q"], target, state)


def test_site_visit_series_rejects_a_state_of_another_chain(sec5):
    q = sec5["q"]
    three_sites = stacked([np.zeros((2, 2))] * 2 + [sec5["rho_phi"]])
    qutrit = stacked([np.zeros((3, 3)), np.eye(3) / 3])
    for state in (three_sites, qutrit):
        with pytest.raises(ValidationError, match="state has"):
            qhit.site_visit_series(q, 0, state)


def test_site_visit_series_refuses_a_non_hermitian_state(sec5):
    # the state is summed in Hermitian coordinates; a block that is not
    # Hermitian has none
    state = stacked([np.zeros((2, 2)), np.array([[0.5, 0.5], [0.0, 0.5]])])
    with pytest.raises(ValidationError, match="not Hermitian"):
        qhit.site_visit_series(sec5["q"], 0, state)


@pytest.mark.parametrize("block", [np.eye(2), np.diag([1.5, -0.5]), np.eye(2) / 4],
                         ids=["trace-2", "not-psd", "trace-half"])
def test_site_visit_series_refuses_a_weight_that_is_not_a_chain_state(sec5, block):
    # the survival stop reads the weight not yet absorbed, which only a state
    # bounds: twice a state was summed to tau = 12 at hitting probability 2,
    # and diag(1.5, -0.5) to tau = 8.17, both reported as converged
    state = stacked([np.zeros((2, 2)), block])
    with pytest.raises(ValidationError, match="not a chain state"):
        qhit.site_visit_series(sec5["q"], 0, state)


def test_first_visit_series_refuses_a_map_that_is_not_a_channel(sec5):
    # diag(0.5, 1, 1, 1) loses half the weight of |0><0|; the series summed
    # over it reported tau = inf
    with pytest.raises(ValidationError, match="not trace preserving"):
        qhit.first_visit_series(qhit.SuperOp(2, np.diag([0.5, 1, 1, 1])),
                                sec5["V"], sec5["rho_phi"])
    with pytest.raises(ValidationError, match="Hermiticity"):
        qhit.first_visit_series(qhit.SuperOp(2, np.diag([1, 1j, 1, 1])),
                                sec5["V"], sec5["rho_phi"])
