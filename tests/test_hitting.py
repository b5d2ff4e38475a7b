"""Analytic hitting-time maps H and K, and the fundamental map."""

import numpy as np
import pytest

import qhit
from conftest import random_goal_qubit, random_irreducible_qubit
from expected_matrices import K_MAP, K_U, ORDER4_K
from qhit.errors import (NotIrreducibleError, SpectralObstructionError,
                         ValidationError)

RNG = np.random.default_rng(23)


def test_K_matches_printed_matrix(sec5):
    maps = qhit.analytic_HK(sec5["S"], sec5["V"])
    assert np.max(np.abs(maps.K.mat - K_MAP)) < 1e-10


def test_K_rotation_matches_printed(rotation):
    maps = qhit.analytic_HK(rotation["S"], rotation["V"])
    assert np.max(np.abs(maps.K.mat - K_U)) < 1e-10


def test_K_order4_matches_printed(order4):
    maps = qhit.analytic_HK(order4["S"], order4["V"])
    assert np.max(np.abs(maps.K.mat - ORDER4_K)) < 1e-9


def test_H_gives_hitting_probability_one(sec5):
    # irreducible channel: Tr(P H(rho) P) = 1 from any state in the complement
    maps = qhit.analytic_HK(sec5["S"], sec5["V"])
    P = sec5["V"].P
    rng = np.random.default_rng(3)
    for _ in range(4):
        c = rng.normal() + 1j * rng.normal()
        phi = c * sec5["phi"]
        rho = np.outer(phi, phi.conj()) / abs(c) ** 2
        Hrho = qhit.unvec(maps.H.mat @ qhit.vec(rho), 2, 2)
        assert abs(np.trace(P @ Hrho @ P).real - 1.0) < 1e-10


def test_tau_from_K_six(sec5):
    maps = qhit.analytic_HK(sec5["S"], sec5["V"])
    tau = qhit.tau_from_K(maps, sec5["rho_phi"], "in-V-perp")
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
        tau_k = qhit.tau_from_K(maps, rho, "in-V-perp")
        tau_s = qhit.first_visit_series(S, V, rho).tau
        assert abs(tau_k - tau_s) < 1e-6


def test_blocks_resolve_K(sec5):
    maps = qhit.analytic_HK(sec5["S"], sec5["V"])
    total = (maps.K_block(1, 1) + maps.K_block(1, 2)
             + maps.K_block(2, 1) + maps.K_block(2, 2))
    assert np.allclose(total, maps.K.mat)
    for i, j in ((0, 1), (1, 0), (2, 3)):
        with pytest.raises(ValueError):
            maps.K_block(i, j)


def test_analytic_HK_requires_assumption_one(hadamard):
    alpha = 0.5 * np.sqrt(2 + np.sqrt(2))
    Vbad = qhit.GoalSubspace.from_vectors([[alpha, np.sqrt(1 - alpha**2)]])
    with pytest.raises(SpectralObstructionError):
        qhit.analytic_HK(hadamard["S"], Vbad)


def test_fundamental_map_is_ginverse_of_I_minus_T(sec5):
    Z = qhit.fundamental_map(sec5["S"]).mat
    A = np.eye(4) - sec5["S"].mat
    assert np.max(np.abs(A @ Z @ A - A)) < 1e-10


def test_fundamental_map_requires_irreducible(hadamard):
    with pytest.raises(NotIrreducibleError):
        qhit.fundamental_map(hadamard["S"])


def test_mhtf_tau_six(sec5):
    maps = qhit.analytic_HK(sec5["S"], sec5["V"])
    Z = qhit.fundamental_map(sec5["S"])
    tau = qhit.mhtf_tau(sec5["S"], sec5["V"], Z, maps, sec5["psi"], sec5["phi"])
    assert abs(tau - 6.0) < 1e-10


def test_mhtf_tau_rejects_vectors_of_another_length(sec5):
    maps = qhit.analytic_HK(sec5["S"], sec5["V"])
    Z = qhit.fundamental_map(sec5["S"])
    with pytest.raises(ValidationError, match="length 2"):
        qhit.mhtf_tau(sec5["S"], sec5["V"], Z, maps, [1, 1, 0], sec5["phi"])


def test_mhtf_constant_over_phase_rotations(sec5):
    # Tr((DZ)_11 rho_psi) must not depend on the phase of psi in V
    maps = qhit.analytic_HK(sec5["S"], sec5["V"])
    Z = qhit.fundamental_map(sec5["S"])
    base = qhit.mhtf_tau(sec5["S"], sec5["V"], Z, maps, sec5["psi"], sec5["phi"])
    for theta in (0.3, 1.1, 2.5):
        psi_rot = np.exp(1j * theta) * sec5["psi"]
        tau = qhit.mhtf_tau(sec5["S"], sec5["V"], Z, maps, psi_rot, sec5["phi"])
        assert abs(tau - base) < 1e-10
