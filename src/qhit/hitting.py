"""Analytic hitting maps H and K, their V-blocks, and the fundamental map Z."""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .channel import (GoalSubspace, assumption_one_holds, check_channel,
                      diagnose, fixed_states, hermitize, is_density)
from .errors import NotIrreducibleError, SpectralObstructionError, ValidationError
from .matrep import SuperOp, real_form, vec
from .tolerances import RESOLVENT_COND_WARN, STATE_TOL, near_one, real_trace


@dataclass(frozen=True)
class HittingMaps:
    """H = T(I-QT)^{-1} and K = T(I-QT)^{-2} with their V-dependent blocks."""

    H: SuperOp
    K: SuperOp
    subspace: GoalSubspace

    def block(self, M: np.ndarray, i: int, j: int) -> np.ndarray:
        """(i,j) block of a map in the V-dependent representation.

        Index 1 selects I - QQ (the V side), index 2 selects QQ.
        """
        if i not in (1, 2) or j not in (1, 2):
            raise ValueError(f"block indices must be 1 or 2, got ({i}, {j})")
        V = self.subspace
        n2 = V.ambient_dim**2
        left = (np.eye(n2) - V.QQ) if i == 1 else V.QQ
        right = (np.eye(n2) - V.QQ) if j == 1 else V.QQ
        return left @ M @ right

    def K_block(self, i: int, j: int) -> np.ndarray:
        return self.block(self.K.mat, i, j)


def _resolvent(S: SuperOp, V: GoalSubspace) -> np.ndarray:
    ok, eigvals = assumption_one_holds(S, V)
    if not ok:
        raise SpectralObstructionError(
            "1 lies in the spectrum of Q.T; the hitting maps do not exist "
            "(fall back to the monitoring series)",
            eigenvalues=near_one(eigvals),
        )
    M = np.eye(S.dim**2) - V.QQ @ S.mat
    if np.linalg.cond(real_form(M, S.dim)) > RESOLVENT_COND_WARN:
        warnings.warn("resolvent I - QT is badly conditioned", RuntimeWarning,
                      stacklevel=2)
    return np.linalg.inv(M)


def analytic_HK(S: SuperOp, V: GoalSubspace) -> HittingMaps:
    """Hitting probability and mean hitting time maps under the spectral condition.

    One factorization is reused: K = T M^2 with M = (I - QT)^{-1}.  Raises
    :class:`ValidationError` unless S is a trace and Hermiticity preserving
    map (:func:`channel.check_channel`).
    """
    check_channel(S)
    M = _resolvent(S, V)
    H = SuperOp(S.dim, S.mat @ M)
    K = SuperOp(S.dim, H.mat @ M)
    return HittingMaps(H=H, K=K, subspace=V)


def tau_from_K(maps: HittingMaps, rho, side: str) -> float:
    """Mean hitting time Tr(K_11 rho) (rho in V) or Tr(K_12 rho) (rho in V-perp)."""
    if not is_density(rho):
        raise ValidationError("not a density matrix")
    V = maps.subspace
    if side == "in-V":
        if not V.contains(rho):
            raise ValidationError("density is not supported in V")
        blk = maps.K_block(1, 1)
    elif side == "in-V-perp":
        if not V.contains_perp(rho):
            raise ValidationError("density is not supported in the complement of V")
        blk = maps.K_block(1, 2)
    else:
        raise ValueError("side must be 'in-V' or 'in-V-perp'")
    eI = vec(np.eye(V.ambient_dim))
    return real_trace(complex(np.vdot(eI, blk @ vec(rho))))


def fundamental_map(S: SuperOp) -> SuperOp:
    """Z = (I - T + Omega_T)^{-1} for an irreducible map.

    Omega_T is the rank-one representation |vec(pi)><vec(I)| of rho -> Tr(rho) pi.
    Z is a distinguished g-inverse of I - T fixing vec(pi).
    """
    diag = diagnose(S)
    if not diag.is_irreducible:
        raise NotIrreducibleError(
            "fundamental map requires an irreducible map with a faithful fixed state"
        )
    pi = hermitize(fixed_states(S)[0])
    pi = pi / np.trace(pi).real
    n = S.dim
    omega = np.outer(vec(pi), vec(np.eye(n)).conj())
    Z = np.linalg.inv(np.eye(n * n) - S.mat + omega)
    return SuperOp(n, Z)


def mhtf_tau(S: SuperOp, V: GoalSubspace, Z: SuperOp, maps: HittingMaps,
             psi, phi) -> float:
    """Mean hitting time from the fundamental map:

    tau(phi -> V) = Tr(K_11 (Z_11 rho_psi - Z_12 rho_phi)) for any psi in V,
    phi in V-perp.
    """
    psi = np.asarray(psi, dtype=np.complex128).reshape(-1)
    phi = np.asarray(phi, dtype=np.complex128).reshape(-1)
    if psi.size != V.ambient_dim or phi.size != V.ambient_dim:
        raise ValidationError(f"psi and phi must have length {V.ambient_dim}")
    if np.max(np.abs(V.P @ psi - psi)) > STATE_TOL:
        raise ValidationError("psi must lie in V")
    if np.max(np.abs(V.Q @ phi - phi)) > STATE_TOL:
        raise ValidationError("phi must lie in the complement of V")
    rho_psi = np.outer(psi, psi.conj())
    rho_phi = np.outer(phi, phi.conj())
    Z11 = maps.block(Z.mat, 1, 1)
    Z12 = maps.block(Z.mat, 1, 2)
    K11 = maps.K_block(1, 1)
    eI = vec(np.eye(V.ambient_dim))
    x = K11 @ (Z11 @ vec(rho_psi) - Z12 @ vec(rho_phi))
    return real_trace(complex(np.vdot(eI, x)))
