"""Analytic hitting maps H and K and the V-side traces read from them.

Both maps are formed and held in the real Hermitian basis of
:func:`matrep.real_form`: one real inverse of I - real_form(Q.Q S) and two
real products.  tau is read there too, as a dot product of real coordinates
(:func:`matrep.hermitian_coords`), so it is real by construction;
:func:`matrep.vec_form` gives H and K in vec coordinates, where they are
printed.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .channel import (GoalSubspace, _goal_record, assumption_one_holds, check_channel,
                      hermitize, is_density)
from .errors import SpectralObstructionError, ValidationError
from .matrep import SuperOp, _owned_read_only, hermitian_coords, vec
from .tolerances import RESOLVENT_COND_WARN, near_one


@dataclass(frozen=True, eq=False)
class HittingMaps:
    """H = T(I-QT)^{-1} and K = T(I-QT)^{-2} for the goal subspace V.

    A V-side trace is read through <vec P|: the trace of the V side
    X - Q X Q of X is Tr(P X), so Tr(K_1j rho) = <vec P|K|vec rho> for rho
    in V (j = 1) or in V-perp (j = 2).  No block of K is formed.  H and K
    are read-only arrays in the Hermitian basis, T H T* and T K T*
    (:func:`matrep.real_form`); :func:`tau_from_K` reads K there.
    """

    H: np.ndarray
    K: np.ndarray
    subspace: GoalSubspace


def analytic_HK(S: SuperOp, V: GoalSubspace) -> HittingMaps:
    """Hitting probability and mean hitting time maps under the spectral condition.

    One factorization is reused: K = T M^2 with M = (I - QT)^{-1}, each
    factor in real Hermitian-basis form.  T's real form is the one
    :func:`channel.check_channel` keeps in S's record; M, and the spectrum
    of QT that :func:`channel.assumption_one_holds` tests first, are read
    from the (S, V) record (:class:`channel._GoalRecord`), whose one
    inverse of I - QT site 0 of the induced chain reads too.  The
    condition number of I - QT is judged on every call.  The check raises
    :class:`ValidationError` unless S is a trace and Hermiticity preserving
    map; 1 in the spectrum raises :class:`SpectralObstructionError`, and a
    badly conditioned I - QT warns at the caller.
    """
    S_real = check_channel(S)
    ok, eigvals = assumption_one_holds(S, V)
    if not ok:
        raise SpectralObstructionError("1 lies in the spectrum of Q.T",
                                       eigenvalues=near_one(eigvals))
    record = _goal_record(S, V)
    if np.linalg.cond(np.eye(S.dim**2) - record.M) > RESOLVENT_COND_WARN:
        warnings.warn("resolvent I - QT is badly conditioned", RuntimeWarning,
                      stacklevel=2)
    M = record.resolvent
    H = _owned_read_only(S_real @ M)
    return HittingMaps(H, _owned_read_only(H @ M), V)


def tau_from_K(maps: HittingMaps, rho) -> float:
    """<vec P|K|vec rho>: the mean hitting time Tr(K_12 rho) of V from a
    density rho in V-perp, or the mean return time Tr(K_11 rho) to V from a
    density rho in V.  rho's support picks the side; a density supported in
    neither is refused with :class:`ValidationError`.  The product is taken
    in the Hermitian basis, between the real coordinates of P, of rho's
    Hermitian part (``is_density`` has judged its Hermiticity) and
    ``maps.K``."""
    if not is_density(rho):
        raise ValidationError("not a density matrix")
    V = maps.subspace
    if not (V.contains_perp(rho) or V.contains(rho)):
        raise ValidationError("density is supported neither in V nor in its complement")
    x = hermitian_coords(vec(hermitize(rho)), V.ambient_dim)
    return float(hermitian_coords(vec(V.P), V.ambient_dim) @ (maps.K @ x))
