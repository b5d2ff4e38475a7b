"""Monitoring formalism: first-visit series to a goal subspace or a site.

This module is the brute-force oracle: tau is the sum of r pi_r over the
first-visit probabilities pi_r = Tr(P T (Q T)^{r-1} rho), with no analytic
shortcuts.  The monitored step is folded into one map M and the goal trace
into one row g, so that pi_r = g M^{r-1} v:

- subspace V: M = Q.Q S and g = <vec P| S (the trace of the goal part
  X - Q X Q of X is Tr(P X));
- target site i of a chain Phi: M is Phi with row block i zeroed, and g is
  <e_I| restricted to row block i of Phi.

Both are summed in the real Hermitian basis: M is its real form
(:func:`matrep.real_form`), and g, v and the row e of the identity's
coordinates are real coordinates (:func:`matrep.hermitian_coords`), so
every term is real by construction.

The series is summed by doubling, the squaring of Smith's doubling
iteration (R. A. Smith, SIAM J. Appl. Math. 16, 1968).  With
a = sum_{s<m} M^s v, b = sum_{s<m} s M^s v and P = M^m, one step

    b <- b + P (b + m a),  a <- a + P a,  P <- P^2,  m <- 2m

sums m more terms for one product of order-N matrices.  Then
tau = g (a + b) = sum_{r<=m} r pi_r, and the hitting probability is g a,
clamped once to [0, 1].  The sum stops after a doubling when

- tau is finite: the survival mass e P v, the weight not yet absorbed, is
  at most ZERO_TOL, and the doubling left tau unchanged bit for bit; or
- the hitting probability has reached its plateau: m was at least N before
  the doubling, and the doubling changed tau by less than ZERO_TOL.  Its m
  terms are then negligible, and by Cayley-Hamilton M^N v is a combination
  of v, M v, ..., M^(N-1) v, so once N consecutive terms g M^s v vanish
  every later one does too, and no first arrival can follow them;

or, unconverged, at the first m >= MAX_STEPS.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import (GoalSubspace, check_channel, check_shapes, hermitize, is_density,
                      is_positive_semidefinite)
from .errors import ValidationError
from .matrep import SuperOp, hermitian_coords, real_form, unvec, vec
from .qmc import QMC, check_sites, site_slice
from .tolerances import HIT_PROB_TOL, STATE_TOL, ZERO_TOL

MAX_STEPS = 10**6  # the series gives up unconverged at the first m >= MAX_STEPS


@dataclass(frozen=True)
class MonitorSeries:
    cumulative_prob: float
    partial_tau: float
    truncated_at: int
    converged: bool

    @property
    def tau(self) -> float:
        if self.cumulative_prob < 1.0 - HIT_PROB_TOL:
            return float("inf")
        return self.partial_tau


def _run_series(step, goal, start, unit):
    """Sum pi_r = goal . step^{r-1} start by doubling until a stop; the four
    arrays are real, and unit . x is the trace of the state x."""
    a, b, power, m = start, np.zeros_like(start), step, 1
    tau = float(goal @ start)
    converged = False
    while not converged and m < MAX_STEPS:
        b = b + power @ (b + m * a)
        a = a + power @ a
        power = power @ power
        settled = m >= step.shape[0]
        m *= 2
        last, tau = tau, float(goal @ (a + b))
        converged = ((tau == last and unit @ (power @ start) <= ZERO_TOL)
                     or (settled and abs(tau - last) < ZERO_TOL))
    return MonitorSeries(min(max(float(goal @ a), 0.0), 1.0), tau, m, converged)


def first_visit_series(S: SuperOp, V: GoalSubspace, rho) -> MonitorSeries:
    """The first-visit series for subspace V, summed by doubling.

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
                       hermitian_coords(vec(hermitize(rho)), S.dim),
                       hermitian_coords(vec(np.eye(S.dim)), S.dim))


def site_visit_series(q: QMC, target: int, state) -> MonitorSeries:
    """First-visit series of a QMC to a target site, from a state given as
    the stacked array [vec(rho_1); ...; vec(rho_n)] of the chain's order.

    Raises :class:`ValidationError` when the chain does not preserve
    Hermiticity (:func:`matrep.real_form`), or when the state is not a
    chain state: a site block that is not Hermitian
    (:func:`matrep.hermitian_coords`) or not PSD to ``PSD_TOL``, or a total
    trace off 1 by more than ``STATE_TOL``."""
    check_sites(q.n_sites, target)
    if np.shape(state) != (q.dim,):
        raise ValidationError(f"state has shape {np.shape(state)}; "
                              f"the chain's states have shape ({q.dim},)")
    start = hermitian_coords(state, q.k)
    unit = hermitian_coords(q.identity_vec(), q.k)
    if abs(unit @ start - 1.0) > STATE_TOL or not all(
            is_positive_semidefinite(unvec(state[site_slice(i, q.k)], q.k, q.k))
            for i in range(q.n_sites)):
        raise ValidationError("state is not a chain state: its site blocks must "
                              "be PSD with total trace 1")
    sl = site_slice(target, q.k)
    step = real_form(q.rep, q.k)
    first = unit[sl] @ step[sl]
    step[sl] = 0.0  # monitoring removes what lands on the target
    return _run_series(step, first, start, unit)
