"""Analytic hitting maps H and K and the V-side traces read from them."""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .channel import GoalSubspace, assumption_one_holds, check_channel, is_density
from .errors import SpectralObstructionError, ValidationError
from .matrep import SuperOp, real_form, vec
from .tolerances import RESOLVENT_COND_WARN, near_one, real_trace


@dataclass(frozen=True)
class HittingMaps:
    """H = T(I-QT)^{-1} and K = T(I-QT)^{-2} for the goal subspace V.

    A V-side trace is read through <vec P|: the trace of the V side
    X - Q X Q of X is Tr(P X), so Tr(K_1j rho) = <vec P|K|vec rho> for rho
    in V (j = 1) or in V-perp (j = 2).  No block of K is formed.
    """

    H: SuperOp
    K: SuperOp
    subspace: GoalSubspace


def _resolvent(S: SuperOp, V: GoalSubspace) -> np.ndarray:
    ok, eigvals = assumption_one_holds(S, V)
    if not ok:
        raise SpectralObstructionError("1 lies in the spectrum of Q.T",
                                       eigenvalues=near_one(eigvals))
    M = np.eye(S.dim**2) - V.sandwich(S.mat)
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


def tau_from_K(maps: HittingMaps, rho) -> float:
    """<vec P|K|vec rho>: the mean hitting time Tr(K_12 rho) of V from a
    density rho in V-perp, or the mean return time Tr(K_11 rho) to V from a
    density rho in V.  rho's support picks the side; a density supported in
    neither is refused with :class:`ValidationError`."""
    if not is_density(rho):
        raise ValidationError("not a density matrix")
    V = maps.subspace
    if not (V.contains_perp(rho) or V.contains(rho)):
        raise ValidationError("density is supported neither in V nor in its complement")
    return real_trace(complex(np.vdot(vec(V.P), maps.K.mat @ vec(rho))))
