"""Dense floating-point cross-checks that no qhit route or command uses.

Each is an independent construction that a test holds a route against:

- :func:`drazin_limit`: the group inverse as the resolvent limit
  (A^2 + zI)^{-1} A, z -> 0, against :func:`qhit.group_inverse`;
- :func:`first_step_operator_L`: L = K - (K - D) Phi from every site's
  hitting operator, for the first-step identity Tr(L_ij rho_j) = Tr(rho_j);
- :func:`fundamental_map` and :func:`mhtf_tau`: tau from the fundamental map
  Z = (I - T + Omega_T)^{-1} of an irreducible map, against the routes.
"""

from __future__ import annotations

import numpy as np

from qhit.channel import diagnose, fixed_states, hermitize, pure_density
from qhit.errors import (NotIrreducibleError, NumericalError, SpectralObstructionError,
                         ValidationError)
from qhit.ginverse import _lagrange_at_zero
from qhit.hitting import HittingMaps
from qhit.ksmh import QmcHittingOperators
from qhit.matrep import SuperOp, as_complex, vec, vec_form
from qhit.qmc import QMC, site_slice
from qhit.tolerances import ZERO_TOL

# regularizations z of the resolvent limit (A^2 + zI)^{-1} A, extrapolated to 0
DRAZIN_Z = (1e-4, 1e-5, 1e-6)
# imaginary part of mhtf_tau's complex trace that is roundoff, relative to
# max(1, |tau|)
IMAG_ROUNDOFF = 1e-9


def drazin_limit(A) -> np.ndarray:
    """Group inverse via the limit (A^2 + zI)^{-1} A, Richardson-extrapolated
    over the decreasing ``DRAZIN_Z``.

    Requires index(A) <= 1.  Raises :class:`NumericalError` unless the
    residual of A G A = A at the smallest z stays within ten times that at
    the largest.
    """
    A = as_complex(A)
    evals = []
    residuals = []
    I = np.eye(A.shape[0])
    for z in DRAZIN_Z:
        G = np.linalg.solve(A @ A + z * I, A)
        evals.append(G)
        residuals.append(float(np.max(np.abs(A @ G @ A - A))))
    if residuals[-1] > 10 * residuals[0] + ZERO_TOL:
        raise NumericalError(
            "resolvent-limit residuals are not decreasing; extrapolation unreliable"
        )
    # the family G(z) is analytic at z = 0
    return _lagrange_at_zero(DRAZIN_Z, evals)


def first_step_operator_L(q: QMC, ops: QmcHittingOperators) -> np.ndarray:
    """L = K - (K - D) Phi with K assembled row-wise from the target operators.

    Formed in the chain's Hermitian basis, where qhit returns the operators
    (Phi = ``q.real``), and returned in vec coordinates.  Requires every
    site's hitting operator.
    """
    missing = [i for i in range(q.n_sites) if i not in ops.K_ops]
    if missing:
        raise SpectralObstructionError(
            f"hitting operators unavailable for sites {missing}",
            eigenvalues=sum((ops.availability[i][1] for i in missing), []),
        )
    K = np.zeros((q.dim, q.dim))
    for i in range(q.n_sites):
        sl = site_slice(i, q.k)
        K[sl] = ops.K_ops[i][sl]
    return vec_form(K - (K - ops.D) @ q.real, q.k)


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


def mhtf_tau(Z: SuperOp, maps: HittingMaps, psi, phi) -> float:
    """Mean hitting time from the fundamental map:

    tau(phi -> V) = Tr(K_11 (Z_11 rho_psi - Z_12 rho_phi)) for any psi in V,
    phi in V-perp, read as <vec P|K y> with y = (I - Q.Q) Z (vec rho_psi -
    vec rho_phi).  psi and phi are normalized (:func:`qhit.pure_density`).
    The trace is taken in complex arithmetic on K mapped to vec coordinates
    (:func:`qhit.matrep.vec_form`), apart from the routes' Hermitian-basis
    reading, and its imaginary part is asserted to be roundoff.
    """
    V = maps.subspace
    if np.size(psi) != V.ambient_dim or np.size(phi) != V.ambient_dim:
        raise ValidationError(f"psi and phi must have length {V.ambient_dim}")
    rho_psi, rho_phi = pure_density(psi), pure_density(phi)
    if not V.contains(rho_psi):
        raise ValidationError("psi must lie in V")
    if not V.contains_perp(rho_phi):
        raise ValidationError("phi must lie in the complement of V")
    x = Z.mat @ (vec(rho_psi) - vec(rho_phi))
    y = x - V.sandwich(x)
    tau = complex(np.vdot(vec(V.P), vec_form(maps.K, V.ambient_dim) @ y))
    assert abs(tau.imag) <= IMAG_ROUNDOFF * max(1.0, abs(tau.real)), tau
    return tau.real
