"""Monitored-evolution series: first-visit probabilities and their sums."""

import numpy as np
import pytest

import qhit
from conftest import random_tp_channel, site_projector, stacked
from qhit.errors import ValidationError
from qhit.monitor import BLOCK, MAX_STEPS, _block_rows, _run_series
from qhit.tolerances import ZERO_TOL

RNG = np.random.default_rng(11)


def _window(order: int) -> int:
    """Consecutive negligible increments before the series stops."""
    return max(BLOCK, order)


def _reference_series(step, goal, stay, trace_vec, v0, window, max_steps):
    """The term-by-term loop: three matvecs and one trace per step."""
    v = v0.copy()
    terms, cum, tau, quiet, r, converged = [], 0.0, 0.0, 0, 0, False
    while r < max_steps:
        r += 1
        x = step @ v
        pi_r = complex(np.vdot(trace_vec, goal @ x))
        assert abs(pi_r.imag) <= 1e-9  # the loop runs in complex arithmetic
        pi_r = min(max(pi_r.real, 0.0), 1.0)
        terms.append((r, pi_r))
        cum += pi_r
        tau += r * pi_r
        if r * pi_r < ZERO_TOL:
            quiet += 1
            if quiet >= window:
                converged = True
                break
        else:
            quiet = 0
        v = stay @ x
    return terms, cum, tau, r, converged


def _reference_first_visit(S, V, rho, window, max_steps):
    n = S.dim
    QQ = np.kron(V.Q, V.Q.conj())
    return _reference_series(S.mat, np.eye(n * n) - QQ, QQ,
                             qhit.vec(np.eye(n)), qhit.vec(rho), window, max_steps)


def _reference_site_visit(q, target, state, window, max_steps):
    P = site_projector(q, target)
    return _reference_series(q.rep, P, np.eye(q.dim) - P, q.identity_vec(),
                             state, window, max_steps)


def _assert_matches_reference(ser, ref):
    terms, cum, tau, r, converged = ref
    assert ser.truncated_at == r
    assert ser.converged == converged
    assert len(ser.terms) == len(terms)
    assert [t for t, _ in ser.terms] == [t for t, _ in terms]
    assert max(abs(a - b) for (_, a), (_, b) in zip(ser.terms, terms)) <= 1e-14
    assert ser.cumulative_prob == pytest.approx(cum, rel=1e-12, abs=1e-14)
    assert ser.partial_tau == pytest.approx(tau, rel=1e-12, abs=1e-14)


def _pad_step_map(monkeypatch, pad: int):
    """Append ``pad`` idle coordinates to every step map the series folds:
    its order, and so the window, grows while every term stays the same."""
    run = qhit.monitor._run_series

    def padded(step, first, v0):
        N = step.shape[0]
        big = np.zeros((N + pad, N + pad), dtype=step.dtype)
        big[:N, :N] = step
        return run(big, np.pad(first, (0, pad)), np.pad(v0, (0, pad)))

    monkeypatch.setattr(qhit.monitor, "_run_series", padded)


def _conveyor(order: int, first):
    """A step map e_j -> e_{j+1} started at e_0, so that pi_r = first[r - 1]
    up to r = order and 0 after."""
    step = np.eye(order, k=-1)
    return step, np.asarray(first, dtype=float), np.eye(order)[0]


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


@pytest.mark.parametrize("kind,n,seed", CHANNEL_CASES)
@pytest.mark.parametrize("pad", [1, 4, 64, 100])
def test_block_stepped_series_matches_term_by_term_loop(monkeypatch, kind, n, seed,
                                                        pad):
    S, V, rho = _channel_case(kind, n, seed)
    ser = qhit.first_visit_series(S, V, rho)
    _assert_matches_reference(
        ser, _reference_first_visit(S, V, rho, _window(n * n), MAX_STEPS))
    _pad_step_map(monkeypatch, pad)
    ser = qhit.first_visit_series(S, V, rho)
    _assert_matches_reference(
        ser, _reference_first_visit(S, V, rho, _window(n * n + pad), MAX_STEPS))


@pytest.mark.parametrize("kind,n,seed", CHANNEL_CASES)
@pytest.mark.parametrize("max_steps", [1, 63, 64, 65, 130])
def test_block_stepped_series_stops_at_max_steps(monkeypatch, kind, n, seed, max_steps):
    S, V, rho = _channel_case(kind, n, seed)
    monkeypatch.setattr(qhit.monitor, "MAX_STEPS", max_steps)
    ser = qhit.first_visit_series(S, V, rho)
    _assert_matches_reference(
        ser, _reference_first_visit(S, V, rho, _window(n * n), max_steps))
    if kind == "lazy":  # hundreds of steps from converging
        assert ser.truncated_at == max_steps


@pytest.mark.parametrize("kind,n,seed", CHANNEL_CASES)
@pytest.mark.parametrize("pad", [4, 64])
def test_block_stepped_site_series_matches_term_by_term_loop(monkeypatch, kind, n,
                                                             seed, pad):
    S, V, rho = _channel_case(kind, n, seed)
    q = qhit.induce(S, V)
    state = stacked([np.zeros((n, n)), rho])
    ser = qhit.site_visit_series(q, 0, state)
    _assert_matches_reference(
        ser, _reference_site_visit(q, 0, state, _window(q.dim), MAX_STEPS))
    _pad_step_map(monkeypatch, pad)
    ser = qhit.site_visit_series(q, 0, state)
    _assert_matches_reference(
        ser, _reference_site_visit(q, 0, state, _window(q.dim + pad), MAX_STEPS))


@pytest.mark.parametrize("blocks", [1, 2])
def test_series_stop_on_a_block_boundary(monkeypatch, hadamard, blocks):
    # pi_r = 2^-r; with r0 the last r whose increment r pi_r is not
    # negligible, a step map of order 64 (b + 1) - r0 makes the stop the last
    # term of block b + 1 (the window is at least one block long, so a stop
    # after an arrival never ends block 1)
    S, V, rho = hadamard["S"], hadamard["V"], hadamard["rho_phi"]
    terms = _reference_first_visit(S, V, rho, BLOCK, BLOCK)[0]
    r0 = max(r for r, p in terms if r * p >= ZERO_TOL)
    order = (blocks + 1) * BLOCK - r0
    _pad_step_map(monkeypatch, order - S.mat.shape[0])
    ser = qhit.first_visit_series(S, V, rho)
    assert ser.truncated_at == (blocks + 1) * BLOCK and ser.converged
    _assert_matches_reference(ser, _reference_first_visit(S, V, rho, order, MAX_STEPS))


@pytest.mark.parametrize("order", [8, 64, 100, 127, 130])
def test_series_window_is_the_order_of_the_step_map(order):
    # one arrival at r = 1, or at r = order after order - 1 zero terms; the
    # stop comes max(64, order) terms after it (order 127: the end of block 2)
    early = np.eye(order)[0]
    ser = _run_series(*_conveyor(order, early))
    assert ser.converged and ser.tau == 1.0
    assert ser.truncated_at == 1 + max(BLOCK, order)
    ser = _run_series(*_conveyor(order, early[::-1]))
    assert ser.converged and ser.tau == order
    assert ser.truncated_at == len(ser.terms) == order + max(BLOCK, order)


def test_terms_past_the_stop_are_never_checked(monkeypatch):
    # a conveyor with pi_1 = 1 and pi_70 = 1/2: the step cap stops reading
    # before pi_70 although its block holds it (past the window's stop, see
    # test_loud_terms_past_the_stop_in_its_chunk_are_not_read)
    e = np.eye(2 * BLOCK)
    step, first, v0 = _conveyor(2 * BLOCK, e[0] + 0.5 * e[69])
    monkeypatch.setattr(qhit.monitor, "MAX_STEPS", 69)
    ser = _run_series(step, first, v0)
    assert ser.truncated_at == 69 and not ser.converged and ser.tau == 1.0
    monkeypatch.setattr(qhit.monitor, "MAX_STEPS", 70)
    ser = _run_series(step, first, v0)
    assert ser.truncated_at == 70 and ser.partial_tau == 1.0 + 70 * 0.5


def _loop_series(step, first, v0):
    """The per-term loop over the block products of ``_run_series``: each term
    clamped, summed and tested for the stop one at a time.  Returns
    (probs, cumulative_prob, partial_tau, truncated_at, converged)."""
    max_steps = qhit.monitor.MAX_STEPS
    rows, jump = _block_rows(step, first)
    window = _window(step.shape[0])
    v = v0
    probs, cum, tau, quiet, r, converged = [], 0.0, 0.0, 0, 0, False
    while r < max_steps and not converged:
        if r:
            v = jump @ v
        for x in (rows @ v)[: max_steps - r].tolist():
            r += 1
            pi_r = 0.0 if x < 0.0 else (1.0 if x > 1.0 else x)
            probs.append(pi_r)
            cum += pi_r
            increment = r * pi_r
            tau += increment
            if increment < ZERO_TOL:
                quiet += 1
                if quiet >= window:
                    converged = True
                    break
            else:
                quiet = 0
    return np.array(probs), cum, tau, r, converged


def _assert_bitwise(ser, ref):
    probs, cum, tau, r, converged = ref
    assert ser.truncated_at == r
    assert ser.converged == converged
    assert ser.cumulative_prob == cum
    assert ser.partial_tau == tau
    assert ser.probs.dtype == probs.dtype and ser.probs.tobytes() == probs.tobytes()


def _bitwise_against_loop(monkeypatch, call):
    """Run ``call``, and the per-term loop over the step map it folds."""
    seen = []
    run = qhit.monitor._run_series

    def spy(*args):
        seen.append(args)
        return run(*args)

    monkeypatch.setattr(qhit.monitor, "_run_series", spy)
    ser = call()
    _assert_bitwise(ser, _loop_series(*seen[0]))
    return ser


@pytest.mark.parametrize("kind,n,seed", CHANNEL_CASES + [("lazy", 6, 4)])
def test_series_has_the_bits_of_the_per_term_loop(monkeypatch, kind, n, seed):
    # the lazy n = 6 channel is the slow-mixing recipe: hundreds of blocks,
    # so every chunk size up to the largest is filled
    S, V, rho = _channel_case(kind, n, seed)
    ser = _bitwise_against_loop(monkeypatch, lambda: qhit.first_visit_series(S, V, rho))
    if (kind, n) == ("lazy", 6):
        assert ser.truncated_at > 2 * BLOCK * qhit.monitor.CHUNK_BLOCKS


@pytest.mark.parametrize("kind,n,seed", CHANNEL_CASES[:4])
def test_site_series_has_the_bits_of_the_per_term_loop(monkeypatch, kind, n, seed):
    S, V, rho = _channel_case(kind, n, seed)
    q = qhit.induce(S, V)
    state = stacked([np.zeros((n, n)), rho])
    _bitwise_against_loop(monkeypatch, lambda: qhit.site_visit_series(q, 0, state))


@pytest.mark.parametrize("max_steps", [1, 100, 300, 1000, 4032, 5000])
def test_series_bits_when_max_steps_cuts_a_chunk(monkeypatch, max_steps):
    # chunks of 1, 2, 4, ... blocks end at terms 64, 192, 448, 960, ..., 4032
    S, V, rho = _channel_case("lazy", 3, 3)
    monkeypatch.setattr(qhit.monitor, "MAX_STEPS", max_steps)
    ser = _bitwise_against_loop(monkeypatch, lambda: qhit.first_visit_series(S, V, rho))
    assert ser.truncated_at == max_steps and not ser.converged


@pytest.mark.parametrize("order,arrival", [(64, 50), (130, 1), (150, 150), (300, 100)])
def test_series_bits_when_the_stop_window_straddles_a_chunk(order, arrival):
    # one arrival, then max(64, order) quiet terms that begin in one chunk and
    # end in the next: the quiet count is carried across the boundary
    step, first, v0 = _conveyor(order, np.eye(order)[arrival - 1])
    ser = _run_series(step, first, v0)
    _assert_bitwise(ser, _loop_series(step, first, v0))
    assert ser.converged and ser.truncated_at == arrival + _window(order)


def _growing(order: int, loud: int):
    """pi_1 = 1, then pi_r = 2^(r - loud) 1.5 ZERO_TOL / loud: the increments
    r pi_r double, and pi_loud's is the first that is not negligible."""
    step = np.zeros((order, order))
    step[1, 1] = 2.0
    first = np.zeros(order)
    first[:2] = 1.0, 2.0 ** (1 - loud) * 1.5 * ZERO_TOL / loud
    v0 = np.zeros(order)
    v0[:2] = 1.0
    return step, first, v0


@pytest.mark.parametrize("order,loud", [(2, 66), (2, 150), (200, 202), (200, 400)])
def test_loud_terms_past_the_stop_in_its_chunk_are_not_read(order, loud):
    # the window ends at r = 1 + max(64, order), before pi_loud
    args = _growing(order, loud)
    ser = _run_series(*args)
    _assert_bitwise(ser, _loop_series(*args))
    assert ser.converged and ser.truncated_at == 1 + _window(order)


@pytest.mark.parametrize("order,loud", [(2, 30), (2, 65), (200, 150), (200, 193),
                                        (200, 201)])
def test_a_loud_term_up_to_the_stop_resets_the_window(monkeypatch, order, loud):
    # pi_loud comes before the window ends, so the series runs on; its terms
    # reach 1 and stay there, and the step cap ends it
    monkeypatch.setattr(qhit.monitor, "MAX_STEPS", 1000)
    args = _growing(order, loud)
    ser = _run_series(*args)
    _assert_bitwise(ser, _loop_series(*args))
    assert not ser.converged and ser.truncated_at == 1000 and ser.probs[-1] == 1.0


def test_series_probs_are_read_only_and_terms_pair_them_with_r(sec5):
    ser = qhit.first_visit_series(sec5["S"], sec5["V"], sec5["rho_phi"])
    assert type(ser.truncated_at) is int and type(ser.converged) is bool
    assert type(ser.cumulative_prob) is float and type(ser.partial_tau) is float
    assert not ser.probs.flags.writeable
    with pytest.raises(ValueError):
        ser.probs[0] = 0.5
    assert ser.terms == tuple((r, p) for r, p in
                              zip(range(1, ser.truncated_at + 1), ser.probs.tolist()))
    assert all(type(p) is float for _, p in ser.terms)


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
    assert ser.truncated_at == 10
    assert len(ser.terms) == 10
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


def test_site_visit_series_refuses_a_chain_that_does_not_preserve_hermiticity():
    # k = 1: a Hermiticity-preserving chain is real; this one is trace
    # preserving (columns sum to 1) but not real
    q = qhit.QMC(2, 1, [[0.5 + 0.5j, 0.5 - 0.5j], [0.5 - 0.5j, 0.5 + 0.5j]])
    with pytest.raises(ValidationError, match="Hermiticity"):
        qhit.site_visit_series(q, 0, [0.0, 1.0])


def test_first_visit_series_refuses_a_map_that_is_not_a_channel(sec5):
    # diag(0.5, 1, 1, 1) loses half the weight of |0><0|; the series summed
    # over it reported tau = inf
    with pytest.raises(ValidationError, match="not trace preserving"):
        qhit.first_visit_series(qhit.SuperOp(2, np.diag([0.5, 1, 1, 1])),
                                sec5["V"], sec5["rho_phi"])
    with pytest.raises(ValidationError, match="Hermiticity"):
        qhit.first_visit_series(qhit.SuperOp(2, np.diag([1, 1j, 1, 1])),
                                sec5["V"], sec5["rho_phi"])
