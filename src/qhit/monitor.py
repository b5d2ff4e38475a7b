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

Six doublings build the rows W = [g; g M; ...; g M^63] together with the
jump M^64. Each block then costs one product W v, giving the next 64 terms,
and one v <- M^64 v. For order N that is about 6 N^3 multiply-adds of set-up
and N^2 + 64 N per block; on order 36 (a six-level channel) the per-term
Python bookkeeping, about 0.6 us on a 2-vCPU VM, dominates. Each term is
checked for an imaginary part, clamped to [0, 1], summed and tested for
stopping one at a time, in order; terms computed past the stop are dropped
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

from .channel import GoalSubspace, check_channel, check_shapes, is_density
from .errors import ValidationError
from .matrep import SuperOp, vec
from .qmc import QMC, VecState, site_slice
from .tolerances import HIT_PROB_TOL, ZERO_TOL, real_trace

BLOCK = 64  # terms per block; a power of two, so the jump is built by squaring
MAX_STEPS = 10**6  # terms summed before the series gives up unconverged


@dataclass(frozen=True)
class MonitorSeries:
    terms: tuple  # (r, pi_r) pairs
    cumulative_prob: float
    partial_tau: float
    truncated_at: int
    converged: bool

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


def _run_series(step, first, v0):
    """Sum pi_r = first . step^{r-1} v0 until convergence, BLOCK terms per product."""
    rows, jump = _block_rows(step, first)
    window = max(BLOCK, step.shape[0])
    v = v0
    terms = []
    cum = 0.0
    tau = 0.0
    quiet = 0
    r = 0
    converged = False
    while r < MAX_STEPS and not converged:
        if r:
            v = jump @ v
        # terms past MAX_STEPS or the stop are never read, so never checked
        for x in (rows @ v)[: MAX_STEPS - r].tolist():
            r += 1
            pi_r = real_trace(x)
            pi_r = 0.0 if pi_r < 0.0 else (1.0 if pi_r > 1.0 else pi_r)
            terms.append((r, pi_r))
            cum += pi_r
            increment = r * pi_r
            tau += increment
            if increment < ZERO_TOL:
                quiet += 1
                if quiet >= window:
                    converged = True
                    break
            else:
                quiet = 0
    return MonitorSeries(
        terms=tuple(terms),
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
    check_channel(S)
    if not is_density(rho):
        raise ValidationError("initial state must be a density matrix")
    # the trace of the goal part X - Q X Q of X is Tr(P X) = <vec P|vec X>
    return _run_series(V.QQ @ S.mat, vec(V.P).conj() @ S.mat, vec(rho))


def site_visit_series(q: QMC, target: int, state: VecState) -> MonitorSeries:
    """First-visit series of a QMC to a target site."""
    if not 0 <= target < q.n_sites:
        raise ValidationError(f"target site {target} is not in 0..{q.n_sites - 1}")
    if (state.n_sites, state.k) != (q.n_sites, q.k):
        raise ValidationError(
            f"state has {state.n_sites} sites of order {state.k}, "
            f"the chain {q.n_sites} of order {q.k}")
    sl = site_slice(target, q.k)
    step = q.rep.copy()
    step[sl] = 0.0  # monitoring removes what lands on the target
    first = q.identity_vec()[sl].conj() @ q.rep[sl]
    return _run_series(step, first, state.data)
