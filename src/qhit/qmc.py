"""Quantum Markov chains: block-operator grids, OQWs and the induced 2-site chain.

A chain is refused unless it is trace preserving, <e_I| Phi = <e_I|; the
induced chain also refuses a channel that does not preserve Hermiticity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import ginverse
from .channel import GoalSubspace, _tp_defect, check_channel, hermitize
from .errors import DimensionError, NotIrreducibleError, ValidationError
from .matrep import SuperOp, as_complex, conj_kron, real_form, unvec, vec
from .tolerances import TP_TOL


def site_slice(i: int, k: int) -> slice:
    """Rows (or columns) of site i in the stacked layout: i k^2 : (i + 1) k^2.

    Every site block of a chain, a stacked state or a kernel is read through
    this one slice.
    """
    k2 = k * k
    return slice(i * k2, (i + 1) * k2)


class QMC:
    """n_sites x n_sites grid of superoperator blocks on k x k internal matrices.

    Stored as the assembled representation matrix of order n_sites * k^2; the
    per-block view is :meth:`block`.  Raises :class:`ValidationError` unless
    the chain is trace preserving to ``TP_TOL``.
    """

    def __init__(self, n_sites: int, k: int, rep):
        rep = as_complex(rep)
        N = n_sites * k * k
        if rep.shape != (N, N):
            raise DimensionError(f"QMC representation must be {N}x{N}, got {rep.shape}")
        self.n_sites = n_sites
        self.k = k
        self.rep = rep
        defect = _tp_defect(rep, k)
        if defect > TP_TOL:
            raise ValidationError(f"QMC is not trace preserving (defect {defect:.3e})")

    @property
    def dim(self) -> int:
        return self.n_sites * self.k * self.k

    def block(self, i: int, j: int) -> np.ndarray:
        """k^2 x k^2 representation of the block map Phi_ij."""
        return self.rep[site_slice(i, self.k), site_slice(j, self.k)]

    def identity_vec(self) -> np.ndarray:
        """|e_I>: vec(I_k) stacked once per site; <e_I|rho> = Tr(rho)."""
        return np.tile(vec(np.eye(self.k)), self.n_sites)

    def stationary_vec(self) -> np.ndarray:
        """Vectorized stationary density, :func:`stationary_density`."""
        return stationary_density(self).data


@dataclass(frozen=True)
class VecState:
    """Stacked vec'd site blocks [vec(rho_1); ...; vec(rho_n)]."""

    n_sites: int
    k: int
    data: np.ndarray

    def block(self, i: int) -> np.ndarray:
        return unvec(self.data[site_slice(i, self.k)], self.k, self.k)

    def site_traces(self) -> np.ndarray:
        return np.array([np.trace(self.block(i)).real for i in range(self.n_sites)])

    @classmethod
    def from_blocks(cls, blocks) -> "VecState":
        mats = [as_complex(b) for b in blocks]
        k = mats[0].shape[0]
        return cls(n_sites=len(mats), k=k, data=np.concatenate([vec(m) for m in mats]))


def from_oqw(B) -> QMC:
    """Open quantum walk from a grid B[i][j] of k x k matrices.

    Requires sum_i B_ij* B_ij = I for every column j, which is the trace
    preservation that :class:`QMC` checks.
    """
    n = len(B)
    mats = [[as_complex(B[i][j]) for j in range(n)] for i in range(n)]
    k = mats[0][0].shape[0]
    rep = np.zeros((n * k * k, n * k * k), dtype=np.complex128)
    for i in range(n):
        for j in range(n):
            rep[site_slice(i, k), site_slice(j, k)] = conj_kron(mats[i][j])
    return QMC(n, k, rep)


def induce(S: SuperOp, V: GoalSubspace) -> QMC:
    """The 2-site QMC turning subspace-hitting for S into site-hitting.

    Row 1 carries (I - QQ) S, row 2 carries QQ S, each repeated across both
    columns; trace preservation is inherited from S.  Raises
    :class:`ValidationError` unless S is a trace and Hermiticity preserving
    map (:func:`channel.check_channel`).
    """
    if S.dim != V.ambient_dim:
        raise DimensionError("channel and subspace dimensions differ")
    check_channel(S)
    n2 = S.dim**2
    top = (np.eye(n2) - V.QQ) @ S.mat
    bot = V.QQ @ S.mat
    rep = np.block([[top, top], [bot, bot]])
    return QMC(n_sites=2, k=S.dim, rep=rep)


def induced_group_inverse(S: SuperOp, q: QMC) -> np.ndarray:
    """Group inverse of A = I - Phi for the induced chain q = induce(S, V),
    lifted from the channel's (I - S)^#: one group inverse of order n^2, not 2n^2.

    Phi = C R, with C = column block 0 of Phi, i.e. [(I - Q.Q) S; Q.Q S], and
    R = [I I]; then R C = S.  Let Z = I - S, E = I - Z^# Z its ergodic
    projector and W = Z^# - E.  Then W Z = Z W = I - E, E Z = 0, W E = -E, and
    X = I + C W R is A^#:

        A X = I - C R + C (I - S) W R = I - C E R, and X A likewise;
        A X A = (I - C E R)(I - C R) = A - C E (I - S) R = A - C E Z R = A;
        X A X = (I + C W R)(I - C E R) = X - C (E + W S E) R = X - C (E + W E) R = X,

    using S E = E - Z E = E.  The nonzero Jordan blocks of C R and R C agree,
    so index(A) = index(Z) and the lift exists exactly when (I - S)^# does;
    :func:`ginverse.group_inverse` raises otherwise.  The group axioms are
    checked on (A, X) itself.
    """
    n2 = S.dim**2
    gs = ginverse.group_inverse(np.eye(n2) - S.mat)
    CW = q.rep[:, site_slice(0, q.k)] @ (gs.Asharp - gs.ergodic_projector)
    X = np.eye(q.dim) + np.hstack([CW, CW])
    ginverse.check_group_axioms(np.eye(q.dim) - q.rep, X)
    return X


def stationary_density(q: QMC) -> VecState:
    """A fixed density of the chain, of unit total trace.

    The fixed space is cut once, by :func:`ginverse.fixed_space` (the rank
    rule of :func:`ginverse.rank_with_margin`): on a line its null vector is
    taken, otherwise the site-uniform seed |e_I> is pushed through the
    ergodic projector I - A^# A.
    """
    _, fixed = ginverse.fixed_space(q.rep, q.k)
    if fixed is None:
        raise ValidationError("fixed space holds no state of nonzero trace")
    # re-hermitize blockwise to absorb roundoff; blocks of an induced chain's
    # fixed vector carry the cross terms P pi Q + Q pi P and need not be PSD
    return VecState.from_blocks(
        [hermitize(unvec(fixed[site_slice(i, q.k)], q.k, q.k))
         for i in range(q.n_sites)])


def fixed_space_dim(q: QMC) -> int:
    return q.dim - ginverse.rank_with_margin(np.eye(q.dim) - real_form(q.rep, q.k))


def fixed_map(q: QMC) -> np.ndarray:
    """Omega = |pi><e_I|, the rank-one map sending every density to the
    stationary one, for a chain with a unique stationary density."""
    if fixed_space_dim(q) != 1:
        raise NotIrreducibleError(
            "fixed space is not one-dimensional; use the group-inverse route instead"
        )
    pi = q.stationary_vec()
    return np.outer(pi, q.identity_vec().conj())
