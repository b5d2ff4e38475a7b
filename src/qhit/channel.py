"""Quantum channels, goal subspaces and their spectral diagnostics."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import ginverse
from .errors import DimensionError, ValidationError
from .matrep import SuperOp, as_complex, conj_kron, real_form, unvec, vec
from .tolerances import (EIG_ONE_TOL, FAITHFUL_TOL, PSD_TOL, RANK_REL_TOL,
                         STATE_TOL, TP_TOL, ZERO_TOL, near_one)


@dataclass(frozen=True)
class KrausChannel:
    """A channel X -> sum_i V_i X V_i*, trace preserving by construction."""

    dim: int
    kraus: tuple

    def __post_init__(self):
        ops = tuple(as_complex(V) for V in self.kraus)
        if not ops:
            raise ValidationError("a channel needs at least one Kraus operator")
        for V in ops:
            if V.shape != (self.dim, self.dim):
                raise DimensionError(
                    f"Kraus operator of shape {V.shape} on a dim-{self.dim} channel"
                )
        object.__setattr__(self, "kraus", ops)
        defect = self.tp_defect()
        if defect > TP_TOL:
            raise ValidationError(
                f"Kraus operators violate sum V*V = I (defect {defect:.3e})"
            )

    def tp_defect(self) -> float:
        acc = sum(V.conj().T @ V for V in self.kraus)
        return float(np.max(np.abs(acc - np.eye(self.dim))))

    @classmethod
    def from_unitary(cls, U) -> "KrausChannel":
        U = as_complex(U)
        return cls(dim=U.shape[0], kraus=(U,))


def represent(ch: KrausChannel) -> SuperOp:
    """Matrix representation sum_i V_i kron conj(V_i)."""
    mat = sum(conj_kron(V) for V in ch.kraus)
    return SuperOp(ch.dim, mat)


def unitary_superop(U) -> SuperOp:
    return represent(KrausChannel.from_unitary(U))


def hermitize(X) -> np.ndarray:
    return (X + X.conj().T) / 2


def is_positive_semidefinite(X, tol: float = PSD_TOL) -> bool:
    w = np.linalg.eigvalsh(hermitize(X))
    return bool(w.min() >= -tol)


def is_density(rho, tol: float = STATE_TOL) -> bool:
    """Square, hermitian and of unit trace to ``tol``, and PSD to ``PSD_TOL``."""
    rho = as_complex(rho)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        return False
    if np.max(np.abs(rho - rho.conj().T)) > tol:
        return False
    if abs(np.trace(rho) - 1.0) > tol:
        return False
    return is_positive_semidefinite(rho)


def pure_density(phi) -> np.ndarray:
    """Density |phi><phi| of a state vector, normalized first."""
    phi = np.asarray(phi, dtype=np.complex128).reshape(-1)
    nrm = np.linalg.norm(phi)
    if nrm == 0:
        raise ValidationError("zero vector is not a state")
    phi = phi / nrm
    return np.outer(phi, phi.conj())


def fixed_states(S: SuperOp) -> list:
    """Basis of the fixed space ker(S.mat - I), each returned as a matrix.

    The kernel is cut once, by :func:`ginverse.fixed_space` (the rank rule
    of :func:`ginverse.rank_with_margin`), so the list has
    ``diagnose(S).fixed_space_dim`` elements, all Hermitian.  When the span
    contains a density, the first element is a unit-trace positive fixed
    density.
    """
    n = S.dim
    kernel, x = ginverse.fixed_space(S.mat, n)
    cols = list(kernel.T)
    cand = None if x is None else hermitize(unvec(x, n, n))
    if cand is None or not is_positive_semidefinite(cand, tol=STATE_TOL):
        return [unvec(c, n, n) for c in cols]
    # rebuild a basis that starts with the density
    basis = [vec(cand) / np.linalg.norm(vec(cand))]
    for c in cols:
        r = c - sum(np.vdot(b, c) * b for b in basis)
        if np.linalg.norm(r) > STATE_TOL:
            basis.append(r / np.linalg.norm(r))
    return [cand] + [unvec(b, n, n) for b in basis[1:len(cols)]]


@dataclass(frozen=True)
class ChannelDiagnostics:
    is_trace_preserving: bool
    is_unital: bool
    fixed_space_dim: int
    is_irreducible: bool
    peripheral_eigenvalues: tuple
    jordan_trivial_at_1: bool
    tp_defect: float = 0.0
    fixed_density_min_eig: float = float("nan")


def _tp_defect(M, k: int) -> float:
    """max|<e_I| M - <e_I|| for a map M on b sites of k x k matrices (order
    b k^2, as in :func:`matrep.real_form`), e_I = vec(I_k) on every site:
    <e_I| M = <e_I| characterizes trace preservation."""
    eI = np.tile(vec(np.eye(k)), M.shape[0] // (k * k))
    return float(np.max(np.abs(eI.conj() @ M - eI.conj())))


def check_channel(S: SuperOp) -> None:
    """Raise unless S is trace preserving (``TP_TOL``) and Hermiticity
    preserving (``HP_TOL``, via :func:`matrep.real_form`)."""
    defect = _tp_defect(S.mat, S.dim)
    if defect > TP_TOL:
        raise ValidationError(f"map is not trace preserving (defect {defect:.3e})")
    real_form(S.mat, S.dim)


def diagnose(S: SuperOp) -> ChannelDiagnostics:
    """Spectral diagnostics of a trace-preserving map given by its representation.

    ``fixed_space_dim`` is n^2 - rank(I - S) under the one rank rule of
    :func:`ginverse.rank_with_margin`, the same cut :func:`fixed_states`
    applies.  On a one-dimensional fixed space the map is irreducible when
    the fixed density from :func:`fixed_states` is faithful.  The spectrum,
    the rank and the index are taken on the real form of S
    (:func:`matrep.real_form`); a map that does not preserve Hermiticity is
    refused with :class:`ValidationError`.
    """
    n = S.dim
    tp_defect = _tp_defect(S.mat, S.dim)
    is_tp = tp_defect <= TP_TOL
    is_unital = bool(np.max(np.abs(S(np.eye(n)) - np.eye(n))) <= TP_TOL)

    R = real_form(S.mat, n)
    eigvals = np.linalg.eigvals(R)
    peripheral = tuple(lam for lam in eigvals if abs(abs(lam) - 1.0) < EIG_ONE_TOL)

    A = np.eye(n * n) - R
    r1 = ginverse.rank_with_margin(A)
    fixed_dim = n * n - r1
    jordan_trivial = ginverse.index(A) <= 1

    min_eig = float("nan")
    irreducible = False
    if fixed_dim == 1:
        fs = fixed_states(S)
        if fs:
            pi = hermitize(fs[0])
            tr = np.trace(pi).real
            if abs(tr) > ZERO_TOL:
                pi = pi / tr
                min_eig = float(np.linalg.eigvalsh(pi).min())
                irreducible = min_eig > FAITHFUL_TOL
    return ChannelDiagnostics(
        is_trace_preserving=is_tp,
        is_unital=is_unital,
        fixed_space_dim=fixed_dim,
        is_irreducible=irreducible,
        peripheral_eigenvalues=peripheral,
        jordan_trivial_at_1=jordan_trivial,
        tp_defect=tp_defect,
        fixed_density_min_eig=min_eig,
    )


@dataclass(frozen=True)
class GoalSubspace:
    """Goal subspace V with projectors P, Q = I - P; QQ is the n^2 x n^2
    representation of X -> Q X Q."""

    ambient_dim: int
    basis: np.ndarray  # n x d, orthonormal columns
    P: np.ndarray = field(init=False)
    Q: np.ndarray = field(init=False)
    QQ: np.ndarray = field(init=False)

    def __post_init__(self):
        B = as_complex(self.basis)
        if B.ndim != 2 or B.shape[0] != self.ambient_dim:
            raise DimensionError("basis must be an n x d matrix of column vectors")
        if np.max(np.abs(B.conj().T @ B - np.eye(B.shape[1]))) > STATE_TOL:
            raise ValidationError("basis columns are not orthonormal")
        object.__setattr__(self, "basis", B)
        P = B @ B.conj().T
        Q = np.eye(self.ambient_dim) - P
        object.__setattr__(self, "P", P)
        object.__setattr__(self, "Q", Q)
        object.__setattr__(self, "QQ", conj_kron(Q))

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    @classmethod
    def from_vectors(cls, vectors, ambient_dim: int | None = None) -> "GoalSubspace":
        """Build from spanning vectors; orthonormalizes with QR."""
        V = np.column_stack([np.asarray(v, dtype=np.complex128).reshape(-1)
                             for v in vectors])
        n = ambient_dim if ambient_dim is not None else V.shape[0]
        if V.shape[0] != n:
            raise DimensionError("subspace vectors have wrong length")
        Qmat, Rmat = np.linalg.qr(V)
        keep = np.abs(np.diag(Rmat)) > RANK_REL_TOL * max(1.0, np.abs(Rmat).max())
        if not np.any(keep):
            raise ValidationError("subspace vectors are linearly dependent to zero")
        return cls(ambient_dim=n, basis=Qmat[:, keep])

    def contains(self, rho) -> bool:
        """Whether a density is supported in V: P rho P = rho."""
        return _sandwich_fixes(self.P, rho)

    def contains_perp(self, rho) -> bool:
        """Whether a density is supported in V-perp: Q rho Q = rho."""
        return _sandwich_fixes(self.Q, rho)


def _sandwich_fixes(P, rho) -> bool:
    rho = as_complex(rho)
    if rho.shape != P.shape:
        raise ValidationError(f"expected a {P.shape[0]}x{P.shape[1]} matrix, "
                              f"got shape {rho.shape}")
    return bool(np.max(np.abs(P @ rho @ P - rho)) <= STATE_TOL)


def check_shapes(S: SuperOp, V: GoalSubspace, rho) -> None:
    """Raise unless the goal subspace and the state live in S's dimension."""
    n = S.dim
    if V.ambient_dim != n:
        raise ValidationError(f"goal subspace lives in dimension {V.ambient_dim}, "
                              f"the channel in {n}")
    if np.shape(rho) != (n, n):
        raise ValidationError(f"initial state must be {n}x{n}, got {np.shape(rho)}")


def assumption_one_holds(S: SuperOp, V: GoalSubspace):
    """True iff 1 is not an eigenvalue of QQ * S; also returns the spectrum.

    This spectral condition makes the hitting generating function analytic at
    z = 1 and all mean hitting times to V finite.  The spectrum is that of
    the real form of Q.Q S (:func:`matrep.real_form`).
    """
    eigvals = np.linalg.eigvals(real_form(V.QQ @ S.mat, S.dim))
    return not near_one(eigvals), eigvals


def randomize(S1: SuperOp, S2: SuperOp, p: float) -> SuperOp:
    """Convex combination p*S1 + (1-p)*S2."""
    if not (0.0 <= p <= 1.0):
        raise ValidationError(f"mixing probability must lie in [0, 1], got {p}")
    if S1.dim != S2.dim:
        raise DimensionError("cannot mix channels of different dimensions")
    return SuperOp(S1.dim, p * S1.mat + (1.0 - p) * S2.mat)
