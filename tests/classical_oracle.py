"""Exact known answers at any size: classical Markov chains as channels.

A column-stochastic chain P (P[i, j] the probability of the step j -> i)
is the channel with Kraus operators sqrt(p_ij) |i><j|.  It maps |j><j| to
sum_i p_ij |i><i| and kills every coherence, so its superoperator has the
entry p_ij at (ii, jj) and nothing else; :func:`embed` builds it without
square roots.

With the goal V = span{e_0} and rho = |j><j|, the channel's tau is the
chain's mean hitting time of state 0 from j, counted with T >= 1: the
solution h of h = 1 + P~^T h, P~ the chain with state 0 removed (Kemeny &
Snell, *Finite Markov Chains*, 1960; Norris, *Markov Chains*, 1997, 1.3).
:func:`exact_tau` gives it exactly in ``Fraction`` arithmetic, over the
binary64 entries of P, at order n - 1 where the Q(i) oracle of
``exact_oracle`` works at order n^2.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

import qhit


def embed(P) -> qhit.SuperOp:
    """The channel of a column-stochastic n x n chain P: p_ij at (ii, jj)."""
    P = np.asarray(P, dtype=float)
    n = P.shape[0]
    diag = np.arange(n) * (n + 1)  # vec position of |i><i|
    mat = np.zeros((n * n, n * n))
    mat[np.ix_(diag, diag)] = P
    return qhit.SuperOp(n, mat)


def _solve(A, b) -> list:
    """x with A x = b, by Gauss-Jordan elimination over ``Fraction``."""
    m = len(b)
    rows = [list(row) + [rhs] for row, rhs in zip(A, b)]
    for c in range(m):
        pivot = next(r for r in range(c, m) if rows[r][c] != 0)
        rows[c], rows[pivot] = rows[pivot], rows[c]
        rows[c] = [x / rows[c][c] for x in rows[c]]
        for r in range(m):
            if r != c and rows[r][c] != 0:
                f = rows[r][c]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[c])]
    return [row[m] for row in rows]


def exact_tau(P, j: int) -> Fraction:
    """The exact tau of :func:`embed` (P) to V = span{e_0} from |j><j|,
    j >= 1, with the binary64 entries of P read exactly.

    The channel's tau is g (I - P~)^{-2} e_j with g_i = p_0i, i >= 1: the
    solve (I - P~^T) u = g, then (I - P~^T) h = u, at order n - 1.  When the
    columns of P sum to 1 exactly, u = 1 and h = 1 + P~^T h; in binary64
    they sum to 1 only within a few ulps, and the two solves keep tau exact.
    """
    P = [[Fraction(float(x)) for x in row] for row in np.asarray(P, dtype=float)]
    m = len(P) - 1
    A = [[Fraction(int(a == b)) - P[b + 1][a + 1] for b in range(m)] for a in range(m)]
    u = _solve(A, [P[0][a + 1] for a in range(m)])
    return _solve(A, u)[j - 1]


def random_chain(rng, n: int) -> np.ndarray:
    """A column-stochastic chain with integer weights 1..8, every step possible."""
    W = rng.integers(1, 9, size=(n, n)).astype(float)
    return W / W.sum(axis=0)
