"""Generalized and group inverses of A = I - (map representation).

The group inverse is the spectral-projector form (A + cE)^{-1} - E/c, with
E the projector onto ker(A) along range(A) taken from the kernel pair of one
SVD.  The Hunter g-inverses are returned as plain matrices; the group
inverse as a :class:`GroupInverse` record, which :func:`check_group_axioms`
builds for both :func:`group_inverse` and :func:`qmc.induced_group_inverse`.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (NoGroupInverseError, NotIrreducibleError, NumericalError,
                     ValidationError)
from .matrep import (as_complex, as_matrix, from_hermitian_basis, hermitian_coords,
                     real_form, vec)
from .tolerances import (AXIOM_REL_TOL, RANK_REL_TOL, SCALE_FLOOR, SPLIT_COND_WARN,
                         ZERO_TOL)


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
    ergodic projector I - A^# A (:func:`_split_projector`) and Y the basis
    of ker(A*) from the same SVD.  Raises :class:`NoGroupInverseError` when
    index(A) > 1 (:func:`_index_at_most_one`).
    """
    R = real_form(rep, k)
    _, _, _, Y, X = _index_at_most_one(np.eye(R.shape[0]) - R)
    kernel = from_hermitian_basis(X, k)
    if X.shape[1] == 0:
        return kernel, None
    e_I = hermitian_coords(np.tile(vec(np.eye(k)), R.shape[0] // (k * k)), k)
    x = X[:, 0] if X.shape[1] == 1 else _split_projector(Y, X) @ e_I
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
    return _index_and_rank(A)[1]


def _index_and_rank(A) -> tuple:
    """``(A, index(A), rank(A), Y, X)``, all from the one SVD A = U S V* of
    :func:`index`: Y = U_0 and X = V_0, the singular vectors past the rank
    cut, are orthonormal bases of ker(A*) and ker(A).  A is returned as
    checked and coerced by :func:`matrep.as_matrix`: real input stays
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
        return A, 0, rank, Y, X
    cosines = np.linalg.svd(Y.conj().T @ X, compute_uv=False)
    if cosines[-1] > RANK_REL_TOL:
        return A, 1, rank, Y, X
    power = A @ A
    prev_rank = rank_with_margin(power)
    for m in range(2, n + 1):
        power = power @ A
        r = rank_with_margin(power)
        if r == prev_rank:
            return A, m, rank, Y, X
        prev_rank = r
    return A, n, rank, Y, X  # unreachable: ranks strictly decrease at most n times


def _index_at_most_one(A) -> tuple:
    """:func:`_index_and_rank`, raising :class:`NoGroupInverseError` when
    index(A) > 1: then ker(A) and range(A) are not complementary, and
    neither A^# nor the ergodic projector exists."""
    A, ind, rank, Y, X = _index_and_rank(A)
    if ind > 1:
        raise NoGroupInverseError(f"matrix has index {ind} > 1, no group inverse")
    return A, ind, rank, Y, X


def _split_projector(Y, X) -> np.ndarray:
    """E = X (Y* X)^{-1} Y*, the projector onto ker(A) along range(A), from
    the kernel pair of :func:`_index_at_most_one` (Meyer, SIAM J. Algebraic
    Discrete Methods 1, 1980).  Warns when ||E|| = 1 / sigma_min(Y* X)
    exceeds ``SPLIT_COND_WARN``."""
    YX_inv = np.linalg.inv(Y.conj().T @ X)
    if np.linalg.norm(YX_inv, 2) > SPLIT_COND_WARN:
        warnings.warn(
            "kernel/range split is badly conditioned", RuntimeWarning, stacklevel=3
        )
    return X @ YX_inv @ Y.conj().T


@dataclass(frozen=True, eq=False)
class GroupInverse:
    """A^# with index(A), the ergodic projector I - A^# A and the axiom
    residuals max|A G A - A|, max|G A G - G| and max|A G - G A| (keys
    ``AGA-A``, ``GAG-G``, ``AG-GA``) of :func:`check_group_axioms`."""

    Asharp: np.ndarray
    index: int
    ergodic_projector: np.ndarray
    residuals: dict


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
    A, ind, rank, Y, X = _index_at_most_one(A)
    if rank == A.shape[0]:
        Asharp = np.linalg.inv(A)
    elif rank == 0:
        Asharp = np.zeros_like(A)
    else:
        E = _split_projector(Y, X)
        c = np.max(np.abs(A))
        Asharp = np.linalg.inv(A + c * E) - E / c

    return check_group_axioms(A, Asharp, ind)


def _check_axiom(residual, bound, message: str) -> None:
    """Raise :class:`NumericalError` with ``message`` unless residual <= bound;
    "not <=", so that a NaN residual fails."""
    if not residual <= bound:
        raise NumericalError(message)


def check_group_axioms(A, G, index: int) -> GroupInverse:
    """Raise unless A G A = A, G A G = G and A G = G A hold to
    ``AXIOM_REL_TOL`` relative to max|A|; return G's record, with the three
    residuals and I - G A, from the products the check makes."""
    scale = max(np.max(np.abs(A)), SCALE_FLOOR)
    tol = AXIOM_REL_TOL * scale
    AG = A @ G
    GA = G @ A
    residuals = {"AGA-A": np.max(np.abs(AG @ A - A)),
                 "GAG-G": np.max(np.abs(GA @ G - G)),
                 "AG-GA": np.max(np.abs(AG - GA))}
    _check_axiom(residuals["AGA-A"], tol, "group inverse candidate violates A G A = A")
    tol_G = tol * max(1.0, np.max(np.abs(G)) / scale)
    _check_axiom(residuals["GAG-G"], tol_G, "group inverse candidate violates G A G = G")
    _check_axiom(residuals["AG-GA"], tol_G, "group inverse candidate violates A G = G A")
    return GroupInverse(Asharp=G, index=index,
                        ergodic_projector=np.eye(A.shape[0]) - GA,
                        residuals=residuals)


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
    """Return the defect max|AGA - A|; raise unless it is at most
    ``AXIOM_REL_TOL * max|A|`` (a NaN defect raises)."""
    defect = float(np.max(np.abs(A @ G @ A - A)))
    _check_axiom(defect, AXIOM_REL_TOL * max(np.max(np.abs(A)), SCALE_FLOOR),
                 f"A G A = A fails with defect {defect:.3e}")
    return defect


def _hunter_parameters(q, t, u, f, g) -> tuple:
    """The Hunter parameters (t, u, f, g) at the chain's length, defaults
    filled in, with pi = :meth:`qmc.QMC.stationary_vec` and e_I.  Raises
    :class:`NotIrreducibleError` when the chain's cut of its fixed space
    finds dimension > 1, decided before pi is built, and
    :class:`ValidationError` on a wrong length, or when <e_I|t> or <u|pi>
    vanishes."""
    if q._fixed[0] > 1:
        raise NotIrreducibleError(
            "fixed space is not one-dimensional: no rank-one update makes "
            "I - Phi invertible; use the group inverse instead"
        )
    N = q.dim
    e_I = q.identity_vec()
    pi = q.stationary_vec()

    def _vec(v, default):
        if v is None:
            return default
        v = as_complex(v).reshape(-1)
        if v.size != N:
            raise ValidationError(f"parameter vector must have length {N}")
        return v

    e1 = np.zeros(N, dtype=np.complex128)
    e1[0] = 1.0
    zero = np.zeros(N, dtype=np.complex128)
    t = _vec(t, e1)
    u = _vec(u, e_I)
    f = _vec(f, zero)
    g = _vec(g, zero)

    if abs(np.vdot(e_I, t)) < ZERO_TOL:
        raise ValidationError("<e_I|t> vanishes; inner matrix would be singular")
    if abs(np.vdot(u, pi)) < ZERO_TOL:
        raise ValidationError("<u|pi> vanishes; inner matrix would be singular")
    return t, u, f, g, pi, e_I


def hunter_ginverse(q, t=None, u=None, f=None, g=None) -> np.ndarray:
    """Parametric g-inverse family of I - Phi for an irreducible QMC.

    G = (I - Phi + |t><u|)^{-1} + |pi><f| + |g><e_I|, requiring <e_I|t> != 0
    and <u|pi> != 0.  Defaults: t = e_1, u = e_I, f = g = 0, the member
    (I - Phi + |e_1><e_I|)^{-1} that :func:`hunter_special` gives and the
    ksmh-ginverse route uses.  A chain whose fixed space has dimension > 1
    is refused with :class:`NotIrreducibleError`, decided on the cut that
    gives pi (:func:`qmc.stationary_density`).

    An induced chain (``q.channel`` set by :func:`qmc.induce`) is inverted
    at order n^2 when u and f repeat one block per site, u = R*u' and
    f = R*f'.  Its map is Phi = C R with R = [I I] and R C = S, and
    <e_I| = <e| R with e = vec(I_n).  With M = C - |t><u'|,
    I - Phi + |t><u| = I - M R, and the push-through identity
    (I - M R)^{-1} = I + M (I - R M)^{-1} R gives

        G = I + [B B],  B = (C - |t><u'|) W + |pi><f'| + |g><e|,
        W = (I - S + |R t><u'|)^{-1}.

    By Sylvester's identity det(I - M R) = det(I - R M), so W exists
    exactly when the chain's inverse does.  Any other member, and any other
    chain, is inverted at its full order.  The g-inverse axiom is checked
    on the chain's own (I - Phi, G).
    """
    t, u, f, g, pi, e_I = _hunter_parameters(q, t, u, f, g)
    A = np.eye(q.dim) - q.rep
    k2 = q.k * q.k
    if (q.channel is not None and np.array_equal(u[:k2], u[k2:])
            and np.array_equal(f[:k2], f[k2:])):
        e = e_I[:k2]  # vec(I_n), real: <e| needs no conjugate
        u1, f1 = u[:k2].conj(), f[:k2].conj()
        W = np.linalg.inv(np.eye(k2) - q.channel.mat + np.outer(t[:k2] + t[k2:], u1))
        B = ((q.rep[:, :k2] - np.outer(t, u1)) @ W + np.outer(pi, f1)
             + np.outer(g, e))
        G = np.eye(q.dim) + np.hstack([B, B])
    else:
        G = np.linalg.inv(A + np.outer(t, u.conj()))
        G = G + np.outer(pi, f.conj()) + np.outer(g, e_I.conj())
    verify_ginverse(A, G)
    return G


def hunter_special(q) -> np.ndarray:
    """The KSMH-ready special form G = (I - Phi + |e_1><e_I|)^{-1}, the
    ksmh-ginverse route's g-inverse.

    This is the Hunter family's default member, whose bra <e_I| makes the
    plain kernel D(I - G + G_d E) valid without the fixed-map correction;
    the special form with parameters, (I - Phi + |u><e_I|)^{-1} + |f><e_I|,
    is ``hunter_ginverse(q, t=u, g=f)``.  On an induced chain it is lifted
    to order n^2 (:func:`hunter_ginverse`).
    """
    return hunter_ginverse(q)
