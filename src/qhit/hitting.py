"""Analytic hitting maps H and K and the V-side traces read from them.

Both maps are formed in the real Hermitian basis of :func:`matrep.real_form`:
one real inverse of I - real_form(Q.Q S) and two real products.  tau is read
there too, as a dot product of real coordinates (:func:`matrep.hermitian_coords`),
so it is real by construction; the public H and K are mapped back to vec
coordinates with :func:`matrep.from_hermitian_basis`.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .channel import (GoalSubspace, assumption_one_holds, check_channel, hermitize,
                      is_density)
from .errors import SpectralObstructionError, ValidationError
from .matrep import SuperOp, from_hermitian_basis, hermitian_coords, real_form, vec
from .tolerances import RESOLVENT_COND_WARN, near_one


@dataclass(frozen=True, eq=False)
class HittingMaps:
    """H = T(I-QT)^{-1} and K = T(I-QT)^{-2} for the goal subspace V.

    A V-side trace is read through <vec P|: the trace of the V side
    X - Q X Q of X is Tr(P X), so Tr(K_1j rho) = <vec P|K|vec rho> for rho
    in V (j = 1) or in V-perp (j = 2).  No block of K is formed.  ``K_real``
    is K in the Hermitian basis, T K T* (read-only), the array that
    :func:`tau_from_K` reads.
    """

    H: SuperOp
    K: SuperOp
    subspace: GoalSubspace
    K_real: np.ndarray


def _resolvent(S: SuperOp, V: GoalSubspace) -> np.ndarray:
    """(I - M)^{-1}, M the real form of Q.Q S."""
    ok, eigvals = assumption_one_holds(S, V)
    if not ok:
        raise SpectralObstructionError("1 lies in the spectrum of Q.T",
                                       eigenvalues=near_one(eigvals))
    A = np.eye(S.dim**2) - real_form(V.sandwich(S.mat), S.dim)
    if np.linalg.cond(A) > RESOLVENT_COND_WARN:
        warnings.warn("resolvent I - QT is badly conditioned", RuntimeWarning,
                      stacklevel=2)
    return np.linalg.inv(A)


def _standard(C, k: int) -> SuperOp:
    """The map on M_k whose Hermitian-basis form is C: T* C T."""
    TC = from_hermitian_basis(C, k)
    return SuperOp(k, from_hermitian_basis(TC.conj().T, k).conj().T)


def analytic_HK(S: SuperOp, V: GoalSubspace) -> HittingMaps:
    """Hitting probability and mean hitting time maps under the spectral condition.

    One factorization is reused: K = T M^2 with M = (I - QT)^{-1}, each
    factor in real Hermitian-basis form, T's from :func:`channel.check_channel`.
    That check raises :class:`ValidationError` unless S is a trace and
    Hermiticity preserving map.
    """
    S_real = check_channel(S)
    M = _resolvent(S, V)
    H = S_real @ M
    K = H @ M
    K.flags.writeable = False
    return HittingMaps(_standard(H, S.dim), _standard(K, S.dim), V, K)


def tau_from_K(maps: HittingMaps, rho) -> float:
    """<vec P|K|vec rho>: the mean hitting time Tr(K_12 rho) of V from a
    density rho in V-perp, or the mean return time Tr(K_11 rho) to V from a
    density rho in V.  rho's support picks the side; a density supported in
    neither is refused with :class:`ValidationError`.  The product is taken
    in the Hermitian basis, between the real coordinates of P, of rho's
    Hermitian part (``is_density`` has judged its Hermiticity) and
    ``maps.K_real``."""
    if not is_density(rho):
        raise ValidationError("not a density matrix")
    V = maps.subspace
    if not (V.contains_perp(rho) or V.contains(rho)):
        raise ValidationError("density is supported neither in V nor in its complement")
    x = hermitian_coords(vec(hermitize(rho)), V.ambient_dim)
    return float(hermitian_coords(vec(V.P), V.ambient_dim) @ (maps.K_real @ x))
