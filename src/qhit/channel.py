"""Quantum channels, goal subspaces and their spectral diagnostics."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from . import ginverse
from .errors import DimensionError, ValidationError
from .matrep import (SuperOp, _hermitian_form, _hermitian_order, _owned_read_only,
                     as_complex, conj_kron, from_hermitian_basis, real_form, unvec,
                     vec)
from .tolerances import (EIG_ONE_TOL, FAITHFUL_TOL, PSD_TOL, STATE_TOL, TP_TOL,
                         ZERO_TOL, near_one)


@dataclass(frozen=True, eq=False)
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


def is_density(rho) -> bool:
    """Square of order >= 1, hermitian and of unit trace to ``STATE_TOL``,
    and PSD to ``PSD_TOL``."""
    rho = as_complex(rho)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1] or rho.size == 0:
        return False
    if np.max(np.abs(rho - rho.conj().T)) > STATE_TOL:
        return False
    if abs(np.trace(rho) - 1.0) > STATE_TOL:
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
    of :func:`ginverse.rank_with_margin`) on the one SVD of I - R that
    :func:`diagnose`'s rank also reads, so the list has
    ``diagnose(S).fixed_space_dim`` elements, all Hermitian.  When the span
    contains a density, the first element is a unit-trace positive fixed
    density.  The cut is kept in S's record (:class:`_ChannelRecord`), in
    Hermitian-basis coordinates, and mapped to vec form here.
    """
    n = S.dim
    kernel, x = _channel_record(S).fixed
    kernel = from_hermitian_basis(kernel, n)
    cand = None if x is None else unvec(from_hermitian_basis(x, n), n, n)
    if cand is None or not is_positive_semidefinite(cand, tol=STATE_TOL):
        return [unvec(c, n, n) for c in kernel.T]
    # rebuild a basis that starts with the density
    basis = [vec(cand) / np.linalg.norm(vec(cand))]
    for c in kernel.T:
        r = c - sum(np.vdot(b, c) * b for b in basis)
        if np.linalg.norm(r) > STATE_TOL:
            basis.append(r / np.linalg.norm(r))
    return [cand] + [unvec(b, n, n) for b in basis[1:kernel.shape[1]]]


@dataclass(frozen=True)
class ChannelDiagnostics:
    """What :func:`diagnose` finds; ``qhit validate`` prints the fields in
    this order."""

    is_trace_preserving: bool
    tp_defect: float
    is_unital: bool
    fixed_space_dim: int
    is_irreducible: bool
    jordan_trivial_at_1: bool
    peripheral_eigenvalues: tuple  # of Python complex
    fixed_density_min_eig: float | None  # None: no fixed density


def _tp_defect(M, e) -> float:
    """max|<e| M - <e|| for a map M on b sites of k x k matrices, where e is
    the identity on every site in M's basis, a row of real values: vec(I_k)
    stacked b times in vec coordinates, or :func:`matrep.identity_coords`
    in the Hermitian basis.  <e| M = <e| characterizes trace
    preservation."""
    return float(np.max(np.abs(e @ M - e)))


class _ChannelRecord:
    """The work on S alone that the routes share, each field built on first
    use and kept, read-only: the real form R (:func:`matrep.real_form`,
    whose build checks Hermiticity preservation), A = I - R, and the one
    cut ``(kernel, x)`` of the fixed space (:func:`ginverse.fixed_space` of
    A, in Hermitian-basis coordinates).  A is read-only and owns its data,
    so :mod:`ginverse` keeps the one SVD of it that decides its rank, its
    index, the fixed space and the group inverse: :func:`diagnose`'s
    :func:`ginverse.rank_with_margin` and :func:`ginverse.index`, the cut
    here and :func:`qmc.induced_group_inverse`'s
    :func:`ginverse.group_inverse` all pass A, and only the first call
    factors it.  :func:`check_channel`, :func:`diagnose`,
    :func:`fixed_states` and the fixed space of every chain
    :func:`qmc.induce` builds from S read the record.  A field whose build
    raises is not kept."""

    def __init__(self, S: SuperOp):
        self.S = S

    @cached_property
    def real(self) -> np.ndarray:
        return _owned_read_only(real_form(self.S.mat, self.S.dim))

    @cached_property
    def A(self) -> np.ndarray:
        return _owned_read_only(np.eye(self.S.dim**2) - self.real)

    @cached_property
    def fixed(self) -> tuple:
        kernel, x = ginverse.fixed_space(self.A, self.S.dim)
        return kernel, x if x is None else _owned_read_only(x)


# One record per S, keyed by identity (SuperOp compares and hashes by
# identity, and its matrix is read-only), as :func:`ksmh.tau_channel`'s
# record of (S, V) is: the last S's record is held, the next S replaces it.
_channel_record = lru_cache(maxsize=1)(_ChannelRecord)


def check_channel(S: SuperOp) -> np.ndarray:
    """Raise unless S is trace preserving (``TP_TOL``) and Hermiticity
    preserving (``HP_TOL``); returns the real form of S
    (:func:`matrep.real_form`) that the second check builds, read-only and
    kept in S's record (:class:`_ChannelRecord`), so a second check of S
    builds no real form."""
    defect = _tp_defect(S.mat, vec(np.eye(S.dim)))
    if defect > TP_TOL:
        raise ValidationError(f"map is not trace preserving (defect {defect:.3e})")
    return _channel_record(S).real


def diagnose(S: SuperOp) -> ChannelDiagnostics:
    """Spectral diagnostics of a trace-preserving map given by its representation.

    ``fixed_space_dim`` is n^2 - rank(I - S) under the one rank rule of
    :func:`ginverse.rank_with_margin`, the same cut :func:`fixed_states`
    applies.  On a one-dimensional fixed space the map is irreducible when
    the fixed density from :func:`fixed_states` is faithful.  The spectrum,
    the rank and the index are taken on the real form of S
    (:func:`matrep.real_form`); a map that does not preserve Hermiticity is
    refused with :class:`ValidationError`.  The real form, I - R and the
    fixed-space cut are read from S's record (:class:`_ChannelRecord`).
    :func:`ginverse.index` takes the one SVD of I - R, and
    :func:`ginverse.rank_with_margin` and the fixed-space cut read the
    singular values and kernel pair it keeps, so the rank, the index and
    the fixed space are decided on one cut.
    """
    n = S.dim
    tp_defect = _tp_defect(S.mat, vec(np.eye(n)))
    is_tp = tp_defect <= TP_TOL
    is_unital = bool(np.max(np.abs(S(np.eye(n)) - np.eye(n))) <= TP_TOL)

    record = _channel_record(S)
    eigvals = np.linalg.eigvals(record.real)
    peripheral = tuple(complex(lam) for lam in eigvals
                       if abs(abs(lam) - 1.0) < EIG_ONE_TOL)

    jordan_trivial = ginverse.index(record.A) <= 1
    fixed_dim = n * n - ginverse.rank_with_margin(record.A)

    min_eig = None
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
        tp_defect=tp_defect,
        is_unital=is_unital,
        fixed_space_dim=fixed_dim,
        is_irreducible=irreducible,
        jordan_trivial_at_1=jordan_trivial,
        peripheral_eigenvalues=peripheral,
        fixed_density_min_eig=min_eig,
    )


@dataclass(frozen=True, eq=False)
class GoalSubspace:
    """Goal subspace V with projectors P, Q = I - P.  The map X -> Q X Q is
    applied by :meth:`sandwich`, never formed as an n^2 x n^2 matrix.
    ``basis``, ``P`` and ``Q`` are read-only, and the subspace compares and
    hashes by identity, as :class:`matrep.SuperOp` does."""

    ambient_dim: int
    basis: np.ndarray  # n x d, orthonormal columns
    P: np.ndarray = field(init=False)
    Q: np.ndarray = field(init=False)

    def __post_init__(self):
        B = as_complex(self.basis)
        if B.ndim != 2 or B.shape[0] != self.ambient_dim or B.shape[1] == 0:
            raise DimensionError("basis must be an n x d matrix of d >= 1 column vectors")
        if np.max(np.abs(B.conj().T @ B - np.eye(B.shape[1]))) > STATE_TOL:
            raise ValidationError("basis columns are not orthonormal")
        object.__setattr__(self, "basis", _owned_read_only(B, self.basis))
        P = B @ B.conj().T
        Q = np.eye(self.ambient_dim) - P
        P.flags.writeable = Q.flags.writeable = False
        object.__setattr__(self, "P", P)
        object.__setattr__(self, "Q", Q)

    def sandwich(self, M) -> np.ndarray:
        """Q.Q M: X -> Q X Q applied to vec(X), a column of M (or M itself).

        Two products with Q of order n, one from each side of every X.
        """
        n = self.ambient_dim
        Y = (self.Q @ M.reshape(n, -1)).reshape(n, n, -1)
        return np.tensordot(Y, self.Q, ([1], [0])).transpose(0, 2, 1).reshape(M.shape)

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    @classmethod
    def from_vectors(cls, vectors, ambient_dim: int | None = None) -> "GoalSubspace":
        """Build from spanning vectors: the basis is the leading left singular
        vectors of the n x d matrix of vectors, as many as the rank rule
        (:func:`ginverse._rank_cut`) keeps.  The SVD is of vectors, not of a
        map, so it is taken in complex arithmetic."""
        vecs = [as_complex(v).reshape(-1) for v in vectors]
        if not vecs:
            raise ValidationError("a goal subspace needs at least one spanning vector")
        n = ambient_dim if ambient_dim is not None else vecs[0].size
        if any(v.size != n for v in vecs):
            raise DimensionError("subspace vectors have wrong length")
        U, s, _ = np.linalg.svd(np.column_stack(vecs), full_matrices=False)
        rank = ginverse._rank_cut(s)
        if rank == 0:
            raise ValidationError("subspace vectors are linearly dependent to zero")
        return cls(ambient_dim=n, basis=U[:, :rank])

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


class _GoalRecord:
    """The work on (S, V) that the routes share, kept read-only, like
    :class:`_ChannelRecord`, each built on first use: ``M``, the real form
    of Q.Q S (the monitoring series' step, the analytic resolvent's map and
    the induced chain's bottom row, :func:`qmc.induce`); ``resolvent``,
    (I - M)^{-1}, the one inverse of I - QT that analytic-K
    (:func:`hitting.analytic_HK`) and site 0 of the induced chain
    (:func:`ksmh.qmc_hitting_operators`, whose principal block without
    site 0 is M) both read; and :meth:`site_spectrum`, the nonzero parts of
    the spectra of Q.Q S and (I - Q.Q) S, the induced chain's principal
    blocks without site 0 and without site 1.

    The spectra are read off S in the Hermitian basis of a frame adapted to
    V + V-perp: W, the unitary of one complete QR of V's basis, has V's span
    in its first d columns, and O = real_form(W kron conj W) is real
    orthogonal, so R = O^T real_form(S) O is the real form of
    X -> W* S(W X W*) W.  In that frame Q = diag(0, I), and Q.Q keeps the
    Hermitian coordinates of the V-perp block (``perp``) and zeroes the
    rest, so the frame's real form of Q.Q S is R with the other rows
    zeroed.  Ordering ``perp`` first makes it block triangular: the
    spectrum of Q.Q S is that of R's V-perp block, of order (n - d)^2, plus
    zeros, and that of (I - Q.Q) S is the spectrum of the complementary
    block, of order 2nd - d^2, plus zeros.  Each block is eigensolved when
    its site first asks, so analytic-K alone pays for the V-perp block only."""

    def __init__(self, S: SuperOp, V: GoalSubspace):
        self.S, self.V, self._spectra = S, V, {}

    @cached_property
    def M(self) -> np.ndarray:
        # Q.Q S preserves Hermiticity when S does, which check_channel judges
        # before any reader gets here; judged against its own scale, a
        # Q.Q S that is all roundoff (V the whole space) would be refused
        QQS = self.V.sandwich(self.S.mat)
        return _owned_read_only(_hermitian_form(QQS, self.S.dim).real.copy())

    @cached_property
    def resolvent(self) -> np.ndarray:
        return _owned_read_only(np.linalg.inv(np.eye(self.M.shape[0]) - self.M))

    @cached_property
    def _blocks(self) -> tuple:
        """R's V-perp block and its complement."""
        n = self.S.dim
        O = real_form(conj_kron(np.linalg.qr(self.V.basis, mode="complete")[0]), n)
        R = O.T @ _channel_record(self.S).real @ O
        # a basis element lies in the V-perp block when both its row and its
        # column, read off its vec position, are at least d
        perp = np.minimum(*np.divmod(_hermitian_order(n)[0], n)) >= self.V.dim
        return R[np.ix_(perp, perp)], R[np.ix_(~perp, ~perp)]

    def site_spectrum(self, i: int) -> np.ndarray:
        """The nonzero part of the spectrum of the induced chain's principal
        block without site i: Q.Q S for i = 0, (I - Q.Q) S for i = 1."""
        if i not in self._spectra:
            self._spectra[i] = _owned_read_only(np.linalg.eigvals(self._blocks[i]))
        return self._spectra[i]


# One record per (S, V), keyed by the identity of both, like _channel_record.
_goal_record = lru_cache(maxsize=1)(_GoalRecord)


def assumption_one_holds(S: SuperOp, V: GoalSubspace):
    """True iff 1 is not an eigenvalue of Q.Q S; also returns the spectrum.

    This spectral condition makes the hitting generating function analytic at
    z = 1 and all mean hitting times to V finite.  The spectrum returned is
    that of the V-perp block of S in a frame adapted to V + V-perp, taken in
    real form: (n - d)^2 values, read from the (S, V) record
    (:class:`_GoalRecord`).  The other d(2n - d) eigenvalues of Q.Q S are 0.
    """
    eigvals = _goal_record(S, V).site_spectrum(0)
    return not near_one(eigvals), eigvals


def randomize(S1: SuperOp, S2: SuperOp, p: float) -> SuperOp:
    """Convex combination p*S1 + (1-p)*S2."""
    if not (0.0 <= p <= 1.0):
        raise ValidationError(f"mixing probability must lie in [0, 1], got {p}")
    if S1.dim != S2.dim:
        raise DimensionError("cannot mix channels of different dimensions")
    return SuperOp(S1.dim, p * S1.mat + (1.0 - p) * S2.mat)
