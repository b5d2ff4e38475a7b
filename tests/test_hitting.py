"""Analytic hitting-time maps H and K, and the fundamental map."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import qhit
from conftest import (haar_unitary, random_goal_qubit, random_irreducible_qubit,
                      random_tp_channel)
from dense_oracles import fundamental_map, mhtf_tau
from expected_matrices import K_MAP, K_U, ORDER4_K
from qhit.channel import hermitize
from qhit.errors import (NotIrreducibleError, SpectralObstructionError,
                         ValidationError)
from qhit.matrep import real_form, vec_form

RNG = np.random.default_rng(23)


def test_K_matches_printed_matrix(sec5):
    maps = qhit.analytic_HK(sec5["S"], sec5["V"])
    assert np.max(np.abs(vec_form(maps.K, 2) - K_MAP)) < 1e-10


def test_K_rotation_matches_printed(rotation):
    maps = qhit.analytic_HK(rotation["S"], rotation["V"])
    assert np.max(np.abs(vec_form(maps.K, 2) - K_U)) < 1e-10


def test_K_order4_matches_printed(order4):
    maps = qhit.analytic_HK(order4["S"], order4["V"])
    assert np.max(np.abs(vec_form(maps.K, 4) - ORDER4_K)) < 1e-9


def test_H_gives_hitting_probability_one(sec5):
    # irreducible channel: Tr(P H(rho) P) = 1 from any state in the complement
    maps = qhit.analytic_HK(sec5["S"], sec5["V"])
    P = sec5["V"].P
    rng = np.random.default_rng(3)
    for _ in range(4):
        c = rng.normal() + 1j * rng.normal()
        phi = c * sec5["phi"]
        rho = np.outer(phi, phi.conj()) / abs(c) ** 2
        Hrho = qhit.unvec(vec_form(maps.H, 2) @ qhit.vec(rho), 2, 2)
        assert abs(np.trace(P @ Hrho @ P).real - 1.0) < 1e-10


def test_tau_from_K_six(sec5):
    maps = qhit.analytic_HK(sec5["S"], sec5["V"])
    tau = qhit.tau_from_K(maps, sec5["rho_phi"])
    assert abs(tau - 6.0) < 1e-10


def test_tau_from_K_matches_series_on_random_channels():
    for _ in range(5):
        S = random_irreducible_qubit(RNG)
        V = random_goal_qubit(RNG)
        if not qhit.assumption_one_holds(S, V)[0]:
            continue
        v = RNG.normal(size=2) + 1j * RNG.normal(size=2)
        v = V.Q @ v
        if np.linalg.norm(v) < 1e-6:
            continue
        rho = qhit.pure_density(v / np.linalg.norm(v))
        maps = qhit.analytic_HK(S, V)
        tau_k = qhit.tau_from_K(maps, rho)
        tau_s = qhit.first_visit_series(S, V, rho).tau
        assert abs(tau_k - tau_s) < 1e-6


def _dense_block_tau(maps, rho, side: str) -> float:
    """Tr(K_1j rho) from the dense blocks (I - Q.Q) K (I - Q.Q) (j = 1, rho in V)
    or (I - Q.Q) K Q.Q (j = 2, rho in V-perp), with Q.Q = Q kron conj(Q)."""
    V = maps.subspace
    n = V.ambient_dim
    QQ = np.kron(V.Q, V.Q.conj())
    left = np.eye(n * n) - QQ
    right = left if side == "in-V" else QQ
    blk = left @ vec_form(maps.K, n) @ right
    return complex(np.vdot(qhit.vec(np.eye(n)), blk @ qhit.vec(rho))).real


@pytest.mark.parametrize("n,d", [(2, 1), (3, 1), (3, 2), (4, 1), (4, 3), (5, 2)])
def test_tau_from_K_is_the_dense_block_trace(n, d):
    # <vec P|K|vec rho> is Tr(K_11 rho) for rho in V and Tr(K_12 rho) in
    # V-perp; rho's support picks the side, and a density in neither is refused
    rng = np.random.default_rng(40 + 10 * n + d)
    S = random_tp_channel(rng, n)
    V = qhit.GoalSubspace.from_vectors(
        list(rng.normal(size=(d, n)) + 1j * rng.normal(size=(d, n))))
    maps = qhit.analytic_HK(S, V)
    for side, proj in (("in-V", V.P), ("in-V-perp", V.Q)):
        W = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        rho = proj @ W @ W.conj().T @ proj
        rho = (rho + rho.conj().T) / (2 * np.trace(rho).real)
        ref = _dense_block_tau(maps, rho, side)
        assert abs(qhit.tau_from_K(maps, rho) - ref) <= 1e-12 * abs(ref)
    with pytest.raises(ValidationError, match="neither in V nor"):
        qhit.tau_from_K(maps, np.eye(n) / n)


def test_analytic_HK_requires_assumption_one(hadamard):
    alpha = 0.5 * np.sqrt(2 + np.sqrt(2))
    Vbad = qhit.GoalSubspace.from_vectors([[alpha, np.sqrt(1 - alpha**2)]])
    with pytest.raises(SpectralObstructionError):
        qhit.analytic_HK(hadamard["S"], Vbad)


def test_fundamental_map_is_ginverse_of_I_minus_T(sec5):
    Z = fundamental_map(sec5["S"]).mat
    A = np.eye(4) - sec5["S"].mat
    assert np.max(np.abs(A @ Z @ A - A)) < 1e-10


def test_fundamental_map_requires_irreducible(hadamard):
    with pytest.raises(NotIrreducibleError):
        fundamental_map(hadamard["S"])


def test_mhtf_tau_six(sec5):
    maps = qhit.analytic_HK(sec5["S"], sec5["V"])
    Z = fundamental_map(sec5["S"])
    tau = mhtf_tau(Z, maps, sec5["psi"], sec5["phi"])
    assert abs(tau - 6.0) < 1e-10


def test_mhtf_tau_rejects_vectors_of_another_length(sec5):
    maps = qhit.analytic_HK(sec5["S"], sec5["V"])
    Z = fundamental_map(sec5["S"])
    with pytest.raises(ValidationError, match="length 2"):
        mhtf_tau(Z, maps, [1, 1, 0], sec5["phi"])


def test_mhtf_tau_normalizes_psi_and_phi(sec5):
    # tau does not depend on the norms of psi and phi; a zero vector is no state
    maps = qhit.analytic_HK(sec5["S"], sec5["V"])
    Z = fundamental_map(sec5["S"])
    psi, phi = sec5["psi"], sec5["phi"]
    for a, b in ((2 * psi, phi), (psi, 3 * phi), (2j * psi, -3 * phi)):
        assert abs(mhtf_tau(Z, maps, a, b) - 6.0) < 1e-10
    for a, b in ((0 * psi, phi), (psi, 0 * phi)):
        with pytest.raises(ValidationError, match="zero vector"):
            mhtf_tau(Z, maps, a, b)


def test_mhtf_constant_over_phase_rotations(sec5):
    # Tr((DZ)_11 rho_psi) must not depend on the phase of psi in V
    maps = qhit.analytic_HK(sec5["S"], sec5["V"])
    Z = fundamental_map(sec5["S"])
    base = mhtf_tau(Z, maps, sec5["psi"], sec5["phi"])
    for theta in (0.3, 1.1, 2.5):
        psi_rot = np.exp(1j * theta) * sec5["psi"]
        tau = mhtf_tau(Z, maps, psi_rot, sec5["phi"])
        assert abs(tau - base) < 1e-10


def test_analytic_HK_refuses_a_map_that_is_not_a_channel(sec5):
    # diag(0.5, 1, 1, 1) loses half the weight of |0><0|; K read from it gave
    # tau = -8 for a state in V-perp
    S = qhit.SuperOp(2, np.diag([0.5, 1, 1, 1]))
    with pytest.raises(ValidationError, match="not trace preserving"):
        qhit.tau_from_K(qhit.analytic_HK(S, sec5["V"]), sec5["rho_phi"])
    with pytest.raises(ValidationError, match="Hermiticity"):
        qhit.analytic_HK(qhit.SuperOp(2, np.diag([1, 1j, 1, 1])), sec5["V"])


def _kac_return_state(S: qhit.SuperOp, V: qhit.GoalSubspace):
    """(rho_V, 1 / Tr(P omega)) for omega the fixed state of the measured
    channel S_m = (P.P + Q.Q) S, from the null vector of one SVD of
    I - S_m; None when that fixed space is not a line."""
    n = S.dim
    Sm = (np.kron(V.P, V.P.conj()) + np.kron(V.Q, V.Q.conj())) @ S.mat
    _, s, Vh = np.linalg.svd(np.eye(n * n) - Sm)
    if s[-2] <= 1e-8 * s[0]:
        return None
    omega = qhit.unvec(Vh[-1].conj(), n, n)
    omega = hermitize(omega / np.trace(omega))
    mass = np.trace(V.P @ omega).real
    rho_V = hermitize(V.P @ omega @ V.P) / mass
    return rho_V, 1.0 / mass


def _assert_kac(S, V, rho_V, expected):
    # max(1e-12, 1e-13 tau) holds on well-conditioned channels; a unitary
    # channel can make I - QT ill-conditioned (kappa up to 6e4 at n <= 8),
    # and both routes' errors then reach 7.9 eps kappa tau, inside the third
    # term
    n = S.dim
    kappa = np.linalg.cond(np.eye(n * n) - real_form(V.sandwich(S.mat), n))
    bound = max(1e-12, 1e-13 * expected, 1e-14 * kappa * expected)
    assert abs(qhit.tau_from_K(qhit.analytic_HK(S, V), rho_V) - expected) <= bound
    series = qhit.first_visit_series(S, V, rho_V)
    assert series.converged
    assert abs(series.tau - expected) <= bound


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=2, max_value=8), st.integers(min_value=1, max_value=7),
       st.integers(min_value=1, max_value=3), st.integers(min_value=0, max_value=2**31 - 1))
def test_kac_return_time_identity(n, d, m, seed):
    # Kac's lemma for the monitored channel: from rho_V = P omega P / Tr(P omega),
    # omega the fixed state of the measured channel (P.P + Q.Q) S, the mean
    # return time to V is 1 / Tr(P omega).  It reads analytic-K's map through
    # its V side and sums the series from a state in V, an exact check at any n
    assume(d < n)
    rng = np.random.default_rng(seed)
    S = random_tp_channel(rng, n, m)
    basis = rng.normal(size=(n, d)) + 1j * rng.normal(size=(n, d))
    V = qhit.GoalSubspace.from_vectors(list(basis.T))
    kac = _kac_return_state(S, V)
    assume(kac is not None and qhit.assumption_one_holds(S, V)[0])
    _assert_kac(S, V, *kac)


def test_kac_return_time_of_a_haar_unitary_is_the_dimension():
    # a unitary's measured channel fixes I/n, so the return time to a line is n
    rng = np.random.default_rng(24)
    S = qhit.unitary_superop(haar_unitary(rng, 5))
    V = qhit.GoalSubspace.from_vectors([rng.normal(size=5) + 1j * rng.normal(size=5)])
    rho_V, expected = _kac_return_state(S, V)
    assert abs(expected - 5.0) <= 1e-12
    _assert_kac(S, V, rho_V, 5.0)

