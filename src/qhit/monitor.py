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


@dataclass
class SeriesConfig:
    increment_tol: float = ZERO_TOL
    patience: int = 64  # consecutive negligible increments before stopping
    max_steps: int = 10**6
    hit_prob_tol: float = HIT_PROB_TOL  # below 1 - this, tau is reported infinite

    def __post_init__(self):
        # the negated comparisons also refuse NaN
        if not self.patience >= 1:
            raise ValidationError(f"patience must be at least 1, got {self.patience}")
        if not self.max_steps >= 1:
            raise ValidationError(f"max_steps must be at least 1, got {self.max_steps}")
        if not self.increment_tol >= 0:
            raise ValidationError(
                f"increment_tol must be non-negative, got {self.increment_tol}")
        if not 0 <= self.hit_prob_tol < 1:
            raise ValidationError(
                f"hit_prob_tol must lie in [0, 1), got {self.hit_prob_tol}")


@dataclass(frozen=True)
class MonitorSeries:
    terms: tuple  # (r, pi_r) pairs
    cumulative_prob: float
    partial_tau: float
    truncated_at: int
    converged: bool
    hit_prob_tol: float  # the run's SeriesConfig.hit_prob_tol

    @property
    def tau(self) -> float:
        if self.cumulative_prob < 1.0 - self.hit_prob_tol:
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


def _run_series(step, first, v0, config: SeriesConfig):
    """Sum pi_r = first . step^{r-1} v0 until convergence, BLOCK terms per product."""
    rows, jump = _block_rows(step, first)
    tol, patience = config.increment_tol, config.patience
    v = v0
    terms = []
    cum = 0.0
    tau = 0.0
    quiet = 0
    r = 0
    converged = False
    while r < config.max_steps and not converged:
        if r:
            v = jump @ v
        # terms past max_steps or the stop are never read, so never checked
        for x in (rows @ v)[: config.max_steps - r].tolist():
            r += 1
            pi_r = real_trace(x)
            pi_r = 0.0 if pi_r < 0.0 else (1.0 if pi_r > 1.0 else pi_r)
            terms.append((r, pi_r))
            cum += pi_r
            increment = r * pi_r
            tau += increment
            if increment < tol:
                quiet += 1
                if quiet >= patience:
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
        hit_prob_tol=config.hit_prob_tol,
    )


def first_visit_series(S: SuperOp, V: GoalSubspace, rho,
                       config: SeriesConfig | None = None) -> MonitorSeries:
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
    config = config or SeriesConfig()
    # the trace of the goal part X - Q X Q of X is Tr(P X) = <vec P|vec X>
    return _run_series(V.QQ @ S.mat, vec(V.P).conj() @ S.mat, vec(rho), config)


def site_visit_series(q: QMC, target: int, state: VecState,
                      config: SeriesConfig | None = None) -> MonitorSeries:
    """First-visit series of a QMC to a target site."""
    if not 0 <= target < q.n_sites:
        raise ValidationError(f"target site {target} is not in 0..{q.n_sites - 1}")
    if (state.n_sites, state.k) != (q.n_sites, q.k):
        raise ValidationError(
            f"state has {state.n_sites} sites of order {state.k}, "
            f"the chain {q.n_sites} of order {q.k}")
    config = config or SeriesConfig()
    sl = site_slice(target, q.k)
    step = q.rep.copy()
    step[sl] = 0.0  # monitoring removes what lands on the target
    first = q.identity_vec()[sl].conj() @ q.rep[sl]
    return _run_series(step, first, state.data, config)
