"""Monitoring formalism: first-visit series to a goal subspace or a site.

This module is the brute-force oracle: probabilities come from summing
Tr(P T (Q T)^{r-1} rho) term by term, with no analytic shortcuts.

The series is block-stepped: one step map, 64 terms per numpy call. The
monitored step is folded into one map M and the goal trace into one row g,
so that pi_r = g M^{r-1} v0:

- subspace V: M = Q.Q S and g = <vec P| S (the trace of the goal part
  X - Q X Q of X is Tr(P X));
- target site i of a chain Phi: M is Phi with row block i zeroed, and g is
  <e_I| restricted to row block i of Phi.

Both are summed in the real Hermitian basis: M is its real form
(:func:`matrep.real_form`), and g and v0 are real coordinates
(:func:`matrep.hermitian_coords`), so every term is real by construction.

Six doublings build the rows W = [g; g M; ...; g M^63] together with the
jump M^64. Each block then costs one product W v, giving the next 64 terms,
and one v <- M^64 v. For order N that is about 6 N^3 multiply-adds of set-up
and N^2 + 64 N per block. Blocks are filled a chunk at a time, the chunk
growing 1, 2, 4, ... blocks up to ``CHUNK_BLOCKS``, so a series that stops
in its first block makes no more products than that block. numpy then does
the bookkeeping of the whole chunk in order: the clamp to [0, 1], the stop
test, and sequential running sums (``np.add.accumulate``, seeded by the sums
so far, never a pairwise ``np.sum``), so every term and every sum has the
bits of a term-by-term loop. Terms computed past the stop are dropped
unread.

The series stops after max(BLOCK, N) consecutive negligible increments
r pi_r, with N the order of M, or at MAX_STEPS terms (``converged=False``).
The order makes the stop sound: by Cayley-Hamilton, M^N v is a combination
of v, M v, ..., M^(N-1) v, so once N consecutive terms g M^s v vanish every
later one does too, and no first arrival can follow them.  The BLOCK floor
gives a small map a longer run, and so a smaller tail, at little cost: its
terms come out of the same products.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import GoalSubspace, check_channel, check_shapes, hermitize, is_density
from .errors import ValidationError
from .matrep import SuperOp, hermitian_coords, real_form, vec
from .qmc import QMC, check_sites, site_slice
from .tolerances import HIT_PROB_TOL, ZERO_TOL

BLOCK = 64  # terms per block; a power of two, so the jump is built by squaring
CHUNK_BLOCKS = 64  # blocks per chunk of bookkeeping, once the chunks have grown
MAX_STEPS = 10**6  # terms summed before the series gives up unconverged


@dataclass(frozen=True, eq=False)
class MonitorSeries:
    probs: np.ndarray  # pi_1, ..., pi_r, read-only
    cumulative_prob: float
    partial_tau: float
    truncated_at: int
    converged: bool

    @property
    def terms(self) -> tuple:
        """The (r, pi_r) pairs."""
        return tuple(enumerate(self.probs.tolist(), start=1))

    @property
    def tau(self) -> float:
        if self.cumulative_prob < 1.0 - HIT_PROB_TOL:
            return float("inf")
        return self.partial_tau


def _block_rows(step, first):
    """W = [first; first step; ...; first step^(BLOCK-1)] and step^BLOCK.

    Each doubling appends W step^m to the m rows held so far, then squares
    step^m.
    """
    rows, power = first[np.newaxis, :], step
    while rows.shape[0] < BLOCK:
        rows = np.vstack((rows, rows @ power))
        power = power @ power
    return rows, power


def _running_sum(start: float, xs) -> float:
    """start + xs[0] + xs[1] + ..., added left to right."""
    return float(np.add.accumulate(np.concatenate(([start], xs)))[-1])


def _run_series(step, first, v0):
    """Sum pi_r = first . step^{r-1} v0 until convergence, BLOCK terms per
    product; the three arrays are real."""
    rows, jump = _block_rows(step, first)
    window = max(BLOCK, step.shape[0])
    v = v0
    probs = [np.empty(0)]
    cum = 0.0
    tau = 0.0
    quiet = 0  # negligible increments ending the terms read so far
    r = 0
    converged = False
    n_blocks = 1
    while r < MAX_STEPS and not converged:
        # products past MAX_STEPS are never made
        blocks = []
        for _ in range(min(n_blocks, -(-(MAX_STEPS - r) // BLOCK))):
            if r or blocks:
                v = jump @ v
            blocks.append(rows @ v)
        n_blocks = min(2 * n_blocks, CHUNK_BLOCKS)
        pi = np.clip(np.concatenate(blocks)[: MAX_STEPS - r], 0.0, 1.0)
        increments = np.arange(r + 1, r + 1 + pi.size, dtype=float) * pi
        # run[i]: negligible increments ending at term i; a loud term resets it
        at = np.arange(pi.size)
        run = at - np.maximum.accumulate(np.where(increments < ZERO_TOL, -1 - quiet, at))
        stops = np.flatnonzero(run >= window)
        read = int(stops[0]) + 1 if stops.size else pi.size  # later terms are dropped
        probs.append(pi[:read])
        cum = _running_sum(cum, pi[:read])
        tau = _running_sum(tau, increments[:read])
        quiet = int(run[read - 1])
        r += read
        converged = bool(stops.size)
    probs = np.concatenate(probs)
    probs.flags.writeable = False
    return MonitorSeries(
        probs=probs,
        cumulative_prob=cum,
        partial_tau=tau,
        truncated_at=r,
        converged=converged,
    )


def first_visit_series(S: SuperOp, V: GoalSubspace, rho) -> MonitorSeries:
    """Direct summation of the first-visit series for subspace V.

    Truncation is reported through ``converged``/``truncated_at``, never
    raised; ``tau`` is infinite when the hitting probability plateaus
    below 1.  A map that is not trace and Hermiticity preserving is refused
    with :class:`ValidationError` (:func:`channel.check_channel`).
    """
    check_shapes(S, V, rho)
    S_real = check_channel(S)
    if not is_density(rho):
        raise ValidationError("initial state must be a density matrix")
    # the trace of the goal part X - Q X Q of X is Tr(P X) = <vec P|vec X>
    return _run_series(real_form(V.sandwich(S.mat), S.dim),
                       hermitian_coords(vec(V.P), S.dim) @ S_real,
                       hermitian_coords(vec(hermitize(rho)), S.dim))


def site_visit_series(q: QMC, target: int, state) -> MonitorSeries:
    """First-visit series of a QMC to a target site, from a state given as
    the stacked array [vec(rho_1); ...; vec(rho_n)] of the chain's order.

    Raises :class:`ValidationError` when a block of the state is not
    Hermitian or the chain does not preserve Hermiticity
    (:func:`matrep.hermitian_coords`, :func:`matrep.real_form`)."""
    check_sites(q.n_sites, target)
    if np.shape(state) != (q.dim,):
        raise ValidationError(f"state has shape {np.shape(state)}; "
                              f"the chain's states have shape ({q.dim},)")
    sl = site_slice(target, q.k)
    step = real_form(q.rep, q.k)
    first = hermitian_coords(q.identity_vec(), q.k)[sl] @ step[sl]
    step[sl] = 0.0  # monitoring removes what lands on the target
    return _run_series(step, first, hermitian_coords(state, q.k))
