"""Quantum Markov chains: block-operator grids, OQWs and the induced 2-site chain.

A chain is refused unless it is trace preserving, <e_I| Phi = <e_I|; the
induced chain also refuses a channel that does not preserve Hermiticity.
"""

from __future__ import annotations

import functools

import numpy as np

from . import ginverse
from .channel import GoalSubspace, _tp_defect, check_channel, hermitize
from .errors import DimensionError, NotIrreducibleError, ValidationError
from .matrep import SuperOp, _owned_read_only, as_complex, conj_kron, unvec, vec
from .tolerances import TP_TOL


def site_slice(i: int, k: int) -> slice:
    """Rows (or columns) of site i in the stacked layout: i k^2 : (i + 1) k^2.

    Every site block of a chain, a stacked state or a kernel is read through
    this one slice.
    """
    k2 = k * k
    return slice(i * k2, (i + 1) * k2)


def check_sites(n_sites: int, *sites: int) -> None:
    """Raise :class:`ValidationError` unless each site is one of 0..n_sites - 1."""
    for i in sites:
        if not 0 <= i < n_sites:
            raise ValidationError(f"site {i} is not in 0..{n_sites - 1}")


class QMC:
    """n_sites x n_sites grid of superoperator blocks on k x k internal matrices.

    Stored as the assembled representation matrix of order n_sites * k^2; the
    per-block view is :meth:`block`.  Raises :class:`ValidationError` unless
    the chain is trace preserving to ``TP_TOL``.  ``channel`` is the map S
    of a chain built by :func:`induce`, whose rep factors as C R with C its
    column block 0, R = [I I] and R C = S; it is None for any other chain.
    ``rep`` is read-only: the chain caches the cut of its fixed space.
    """

    def __init__(self, n_sites: int, k: int, rep, channel: SuperOp | None = None):
        M = as_complex(rep)
        N = n_sites * k * k
        if M.shape != (N, N):
            raise DimensionError(f"QMC representation must be {N}x{N}, got {M.shape}")
        self.n_sites = n_sites
        self.k = k
        self.rep = _owned_read_only(M, rep)
        self.channel = channel
        defect = _tp_defect(M, k)
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
        """:func:`stationary_density`, read by :mod:`ginverse`, which this
        module imports."""
        return stationary_density(self)

    @functools.cached_property
    def _fixed(self) -> tuple:
        """``(dimension, x)`` of the chain's fixed space, from the one cut of
        :func:`ginverse.fixed_space`: x is its fixed vector of unit trace,
        or None.  An induced chain is cut on S and x lifted to C x (see
        :func:`stationary_density`)."""
        if self.channel is None:
            kernel, x = ginverse.fixed_space(self.rep, self.k)
        else:
            kernel, x = ginverse.fixed_space(self.channel.mat, self.k)
            if x is not None:
                x = self.rep[:, site_slice(0, self.k)] @ x
        return kernel.shape[1], x


def from_oqw(B) -> QMC:
    """Open quantum walk from a grid B[i][j] of k x k matrices.

    Requires sum_i B_ij* B_ij = I for every column j, which is the trace
    preservation that :class:`QMC` checks.  A grid that is not n x n is
    refused with :class:`ValidationError`, and blocks that are not all k x k
    for one k with :class:`DimensionError`.
    """
    n = len(B)
    if n == 0:
        raise ValidationError("an open quantum walk needs at least one site")
    if any(len(row) != n for row in B):
        raise ValidationError(f"an open quantum walk needs an {n}x{n} grid of blocks")
    mats = [[as_complex(M) for M in row] for row in B]
    k = mats[0][0].shape[0] if mats[0][0].ndim else 0
    if k == 0 or any(M.shape != (k, k) for row in mats for M in row):
        raise DimensionError("blocks of an open quantum walk must all be k x k, k >= 1")
    return QMC(n, k, np.block([[conj_kron(M) for M in row] for row in mats]))


def induce(S: SuperOp, V: GoalSubspace) -> QMC:
    """The 2-site QMC turning subspace-hitting for S into site-hitting.

    Row 1 carries (I - Q.Q) S, row 2 carries Q.Q S, each repeated across
    both columns; trace preservation is inherited from S.  Q.Q S is one
    :meth:`GoalSubspace.sandwich` of S, and (I - Q.Q) S is S minus it.
    The chain records S as :attr:`QMC.channel`: its map is C R with
    C = [(I - Q.Q) S; Q.Q S] and R = [I I], and :func:`stationary_density`,
    :func:`induced_group_inverse` and :func:`ginverse.hunter_ginverse` lift
    their results from S at order n^2 instead of factoring the chain.
    Raises :class:`ValidationError` unless S is a trace and Hermiticity
    preserving map (:func:`channel.check_channel`).
    """
    if S.dim != V.ambient_dim:
        raise DimensionError("channel and subspace dimensions differ")
    check_channel(S)
    bot = V.sandwich(S.mat)
    top = S.mat - bot
    rep = np.block([[top, top], [bot, bot]])
    return QMC(n_sites=2, k=S.dim, rep=rep, channel=S)


def induced_group_inverse(q: QMC) -> ginverse.GroupInverse:
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
    checked on (A, X) itself, and the returned record, the one that
    :func:`ginverse.group_inverse` returns, holds X with index(Z), the
    residuals of that check and the chain's ergodic projector I - X A.  S is
    read from :attr:`QMC.channel`; a chain that :func:`induce` did not build
    raises :class:`ValidationError`.
    """
    S = q.channel
    if S is None:
        raise ValidationError("chain was not built by induce; it records no channel")
    gs = ginverse.group_inverse(np.eye(S.dim**2) - S.mat)
    CW = q.rep[:, site_slice(0, q.k)] @ (gs.Asharp - gs.ergodic_projector)
    X = np.eye(q.dim) + np.hstack([CW, CW])
    return ginverse.check_group_axioms(np.eye(q.dim) - q.rep, X, gs.index)


def stationary_density(q: QMC) -> np.ndarray:
    """A fixed density of the chain, of unit total trace, as the stacked
    array [vec(rho_1); ...; vec(rho_n)] of its site blocks.

    The fixed space is cut once per chain, by :func:`ginverse.fixed_space`
    (the rank rule of :func:`ginverse.rank_with_margin`), and the cut is kept
    on the chain for the Hunter family's irreducibility test (see
    :func:`ginverse.hunter_ginverse`): on a line its null vector is
    taken, otherwise the site-uniform seed |e_I> is pushed through the
    ergodic projector I - A^# A.

    An induced chain (:attr:`QMC.channel` set) is cut at order n^2, on S
    itself.  Its map is Phi = C R with R C = S, and pi -> C pi is a bijection
    from the fixed space of S onto that of Phi (S pi = pi gives
    Phi C pi = C S pi = C pi; Phi x = x gives x = C (R x) with S R x = R x)
    that keeps the trace, as <e_I| C = <e| S.  The chain's ergodic projector
    is C E R (see :func:`induced_group_inverse`), which sends |e_I> = R*|e>
    to 2 C E |e>, so the lift C pi of the channel's unit-trace fixed vector
    is the chain's own.  The fixed space is then decided on the same rank
    cut as :func:`channel.diagnose` makes on S.  Any other chain is cut at
    its full order.
    """
    _, fixed = q._fixed
    if fixed is None:
        raise ValidationError("fixed space holds no state of nonzero trace")
    # re-hermitize blockwise to absorb roundoff; blocks of an induced chain's
    # fixed vector carry the cross terms P pi Q + Q pi P and need not be PSD
    return np.concatenate([vec(hermitize(unvec(fixed[site_slice(i, q.k)], q.k, q.k)))
                           for i in range(q.n_sites)])


def fixed_map(q: QMC) -> np.ndarray:
    """Omega = |pi><e_I|, the rank-one map sending every density to the
    stationary one, for a chain with a unique stationary density.

    Uniqueness is read from the chain's one cut of its fixed space
    (:func:`stationary_density`), at order n^2 for an induced chain."""
    if q._fixed[0] != 1:
        raise NotIrreducibleError(
            "fixed space is not one-dimensional; use the group-inverse route instead"
        )
    pi = q.stationary_vec()
    return np.outer(pi, q.identity_vec().conj())
