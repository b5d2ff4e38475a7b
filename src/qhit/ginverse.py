"""Generalized, Drazin and group inverses of A = I - (map representation).

Two independent constructions of the group inverse are provided: the
spectral-projector form (A + cE)^{-1} - E/c, with E the projector onto ker(A)
along range(A) taken from the kernel pair of one SVD, and the resolvent limit
(A^2 + zI)^{-1} A as z -> 0.  They cross-check each other.  The Hunter
g-inverses and the resolvent limit are returned as plain matrices; only
:func:`group_inverse` returns a record, the matrix with its index and
ergodic projector.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import NoGroupInverseError, NumericalError, ValidationError
from .matrep import as_complex, as_matrix, from_hermitian_basis, real_form
from .tolerances import (AXIOM_REL_TOL, DRAZIN_Z, RANK_REL_TOL, SCALE_FLOOR,
                         SPLIT_COND_WARN, ZERO_TOL)


def _rank_cut(s) -> int:
    """Number of singular values (descending) above ``RANK_REL_TOL * s[0]``.

    The one rank rule of the package.  Warns when some singular value lies
    within a factor of 10 of the cut, i.e. when the decision is ambiguous.
    """
    if s.size == 0 or s[0] == 0.0:
        return 0
    cut = RANK_REL_TOL * s[0]
    if np.any((s > cut / 10) & (s < cut * 10)):
        warnings.warn(
            "rank decision is ambiguous: singular value within a factor of 10 "
            "of the threshold",
            RuntimeWarning,
            stacklevel=3,
        )
    return int(np.sum(s > cut))


def rank_with_margin(A) -> int:
    """Numerical rank via singular values, cut by :func:`_rank_cut`."""
    return _rank_cut(np.linalg.svd(A, compute_uv=False))


def fixed_space(rep, k: int) -> tuple:
    """Fixed space ker(I - rep) of a map on b sites of k x k matrices, and
    its fixed vector of unit trace.

    One full SVD of A = I - R, R the real Hermitian-basis form of rep
    (:func:`matrep.real_form`), cut by the rank rule of
    :func:`rank_with_margin`.  Returns ``(kernel, x)`` in vec form: the
    columns of ``kernel`` are an orthonormal basis X of ker(I - rep), each
    the vec of a Hermitian matrix on every site, and x is a fixed vector
    with <e_I|x> = 1 (e_I the identity on every site), or None when the
    kernel holds no vector of nonzero trace.  On a line x is the null vector
    itself; on a larger kernel it is E e_I, where E = X (Y* X)^{-1} Y* is the
    ergodic projector I - A^# A (see :func:`group_inverse`) and Y the basis
    of ker(A*) from the same SVD.  Raises :class:`NoGroupInverseError` when
    index(A) > 1.
    """
    R = real_form(rep, k)
    ind, _, Y, X = _index_and_rank(np.eye(R.shape[0]) - R)
    if ind > 1:
        raise NoGroupInverseError(f"matrix has index {ind} > 1, no group inverse")
    kernel = from_hermitian_basis(X, k)
    if X.shape[1] == 0:
        return kernel, None
    # the coordinates of I_k: 1 on the k diagonal basis elements, which come first
    e_I = np.zeros((R.shape[0] // (k * k), k * k))
    e_I[:, :k] = 1.0
    e_I = e_I.reshape(-1)
    x = X[:, 0] if X.shape[1] == 1 else X @ np.linalg.solve(Y.T @ X, Y.T @ e_I)
    total = e_I @ x
    if abs(total) < ZERO_TOL:
        return kernel, None
    return kernel, from_hermitian_basis(x / total, k)


def index(A) -> int:
    """Smallest m >= 0 with rank(A^m) == rank(A^(m+1)).

    m <= 1 is decided from one SVD A = U S V*, cut by :func:`_rank_cut`: m = 0
    when A has full rank, and m = 1 exactly when ker(A) meets range(A) only
    in 0.  Range(A) is the orthogonal complement of ker(A*), so that holds
    when no kernel vector is orthogonal to ker(A*), i.e. when the smallest
    singular value of U_0* V_0 (the cosines between ker(A*) and ker(A), both
    spanned by the singular vectors past the cut) exceeds ``RANK_REL_TOL``.
    Squaring A would square its small singular values and push them under
    the cut; powers of A are formed only once m >= 2 is known.
    """
    return _index_and_rank(A)[0]


def _index_and_rank(A) -> tuple:
    """``(index(A), rank(A), Y, X)``, all from the one SVD A = U S V* of
    :func:`index`: Y = U_0 and X = V_0, the singular vectors past the rank
    cut, are orthonormal bases of ker(A*) and ker(A).  Real input stays
    real."""
    A = as_matrix(A)
    n = A.shape[0]
    if A.shape != (n, n):
        raise ValidationError("index is defined for square matrices only")
    U, s, Vh = np.linalg.svd(A)
    rank = _rank_cut(s)
    Y = U[:, rank:]
    X = Vh[rank:].conj().T
    if rank == n:
        return 0, rank, Y, X
    cosines = np.linalg.svd(Y.conj().T @ X, compute_uv=False)
    if cosines[-1] > RANK_REL_TOL:
        return 1, rank, Y, X
    power = A @ A
    prev_rank = rank_with_margin(power)
    for m in range(2, n + 1):
        power = power @ A
        r = rank_with_margin(power)
        if r == prev_rank:
            return m, rank, Y, X
        prev_rank = r
    return n, rank, Y, X  # unreachable: ranks strictly decrease at most n times


@dataclass(frozen=True)
class GroupInverse:
    Asharp: np.ndarray
    index: int
    ergodic_projector: np.ndarray


def group_inverse(A) -> GroupInverse:
    """Group inverse A^# = (A + cE)^{-1} - E/c, from the kernel pair of one SVD.

    The SVD of :func:`index`, cut by the relative rank rule, gives orthonormal
    bases Y of ker(A*) and X of ker(A).  Index <= 1 means that ker(A) and
    range(A) = ker(A*)^perp are complementary, i.e. that Y* X is invertible,
    and then E = X (Y* X)^{-1} Y* is the projector onto ker(A) along range(A).
    With A = P diag(0, C) P^{-1}, C invertible, E = P diag(I, 0) P^{-1} and

        A + cE = P diag(cI, C) P^{-1},

    whose inverse minus E/c is P diag(0, C^{-1}) P^{-1} = A^#.  The scale
    c = max|A| keeps the kernel block cI level with C, so the one LU does
    not depend on the scale of A.
    """
    A = as_complex(A)
    n = A.shape[0]
    if A.shape != (n, n):
        raise ValidationError("group inverse is defined for square matrices only")
    ind, rank, Y, X = _index_and_rank(A)
    if ind > 1:
        raise NoGroupInverseError(f"matrix has index {ind} > 1, no group inverse")

    if rank == n:
        Asharp = np.linalg.inv(A)
    elif rank == 0:
        Asharp = np.zeros_like(A)
    else:
        YX_inv = np.linalg.inv(Y.conj().T @ X)
        if np.linalg.norm(YX_inv, 2) > SPLIT_COND_WARN:  # ||E|| = 1 / sigma_min(Y* X)
            warnings.warn(
                "kernel/range split is badly conditioned", RuntimeWarning, stacklevel=2
            )
        E = X @ YX_inv @ Y.conj().T
        c = np.max(np.abs(A))
        Asharp = np.linalg.inv(A + c * E) - E / c

    GA = check_group_axioms(A, Asharp)
    return GroupInverse(Asharp=Asharp, index=ind, ergodic_projector=np.eye(n) - GA)


def check_group_axioms(A, G) -> np.ndarray:
    """Raise unless A G A = A, G A G = G and A G = G A hold to
    ``AXIOM_REL_TOL`` relative to max|A|; return the product G A."""
    scale = max(np.max(np.abs(A)), SCALE_FLOOR)
    tol = AXIOM_REL_TOL * scale
    AG = A @ G
    GA = G @ A
    if np.max(np.abs(AG @ A - A)) > tol:
        raise NumericalError("group inverse candidate violates A G A = A")
    if np.max(np.abs(GA @ G - G)) > tol * max(1.0, np.max(np.abs(G)) / scale):
        raise NumericalError("group inverse candidate violates G A G = G")
    if np.max(np.abs(AG - GA)) > tol * max(1.0, np.max(np.abs(G)) / scale):
        raise NumericalError("group inverse candidate violates A G = G A")
    return GA


def drazin_limit(A) -> np.ndarray:
    """Group inverse via the limit (A^2 + zI)^{-1} A, Richardson-extrapolated
    over the decreasing ``DRAZIN_Z``.

    Independent cross-check of :func:`group_inverse`; requires index(A) <= 1.
    Raises :class:`NumericalError` unless the residual of A G A = A at the
    smallest z stays within ten times that at the largest.
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


def _lagrange_at_zero(xs, values) -> np.ndarray:
    """Value at x = 0 of the Lagrange interpolant through (xs[i], values[i])."""
    est = np.zeros_like(values[0])
    for i, xi in enumerate(xs):
        w = 1.0
        for j, xj in enumerate(xs):
            if i != j:
                w *= (0.0 - xj) / (xi - xj)
        est = est + w * values[i]
    return est


def verify_ginverse(A, G) -> float:
    """Return the defect max|AGA - A|; raise if it exceeds
    ``AXIOM_REL_TOL * max|A|``."""
    defect = float(np.max(np.abs(A @ G @ A - A)))
    if defect > AXIOM_REL_TOL * max(np.max(np.abs(A)), SCALE_FLOOR):
        raise NumericalError(f"A G A = A fails with defect {defect:.3e}")
    return defect


def hunter_ginverse(q, t=None, u=None, f=None, g=None) -> np.ndarray:
    """Parametric g-inverse family of I - Phi for an irreducible QMC.

    G = (I - Phi + |t><u|)^{-1} + |pi><f| + |g><e_I|, requiring <e_I|t> != 0
    and <u|pi> != 0.  Defaults: t = u = e_1, f = g = 0.
    """
    rep = q.rep
    N = rep.shape[0]
    e_I = q.identity_vec()
    pi = q.stationary_vec()

    def _vec(v, default):
        if v is None:
            return default
        v = np.asarray(v, dtype=np.complex128).reshape(-1)
        if v.size != N:
            raise ValidationError(f"parameter vector must have length {N}")
        return v

    e1 = np.zeros(N, dtype=np.complex128)
    e1[0] = 1.0
    zero = np.zeros(N, dtype=np.complex128)
    t = _vec(t, e1)
    u = _vec(u, e1)
    f = _vec(f, zero)
    g = _vec(g, zero)

    if abs(np.vdot(e_I, t)) < ZERO_TOL:
        raise ValidationError("<e_I|t> vanishes; inner matrix would be singular")
    if abs(np.vdot(u, pi)) < ZERO_TOL:
        raise ValidationError("<u|pi> vanishes; inner matrix would be singular")

    A = np.eye(N) - rep
    G = np.linalg.inv(A + np.outer(t, u.conj()))
    G = G + np.outer(pi, f.conj()) + np.outer(g, e_I.conj())
    verify_ginverse(A, G)
    return G


def hunter_special(q, u=None, f=None) -> np.ndarray:
    """The KSMH-ready special form G = (I - Phi + |u><e_I|)^{-1} + |f><e_I|.

    This is the Hunter family at t = u, bra fixed to <e_I|, which makes the
    plain kernel D(I - G + G_d E) valid without the fixed-map correction.
    """
    return hunter_ginverse(q, t=u, u=q.identity_vec(), f=None, g=f)
