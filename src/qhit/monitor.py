"""Monitoring formalism: first-visit series to a goal subspace or a site.

This module is the brute-force oracle: probabilities come from summing
Tr(P T (Q T)^{r-1} rho) term by term, with no analytic shortcuts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import GoalSubspace, is_density
from .errors import ValidationError
from .matrep import SuperOp, vec
from .qmc import QMC, VecState, site_projectors

IMAG_TOL = 1e-9


@dataclass
class SeriesConfig:
    increment_tol: float = 1e-12
    patience: int = 64  # consecutive negligible increments before stopping
    max_steps: int = 10**6
    hit_prob_tol: float = 1e-6  # below 1 - this, tau is reported infinite


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


def _real_trace(x: complex) -> float:
    if abs(x.imag) > IMAG_TOL:
        raise ValidationError(f"trace has non-negligible imaginary part {x.imag:.3e}")
    return x.real


def _run_series(step_mat, goal_proj, stay_proj, trace_vec, v0, config: SeriesConfig):
    """Sum pi_r = Tr(goal . step (stay . step)^{r-1} rho) until convergence."""
    v = v0.copy()
    terms = []
    cum = 0.0
    tau = 0.0
    quiet = 0
    r = 0
    converged = False
    while r < config.max_steps:
        r += 1
        x = step_mat @ v
        pi_r = _real_trace(complex(np.vdot(trace_vec, goal_proj @ x)))
        pi_r = min(max(pi_r, 0.0), 1.0)
        terms.append((r, pi_r))
        cum += pi_r
        tau += r * pi_r
        if r * pi_r < config.increment_tol:
            quiet += 1
            if quiet >= config.patience:
                converged = True
                break
        else:
            quiet = 0
        v = stay_proj @ x
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
    below 1.
    """
    if not is_density(rho):
        raise ValidationError("initial state must be a density matrix")
    config = config or SeriesConfig()
    n = S.dim
    eI = vec(np.eye(n))
    # I - Q.Q keeps P X P and the traceless cross terms P X Q + Q X P, so its
    # trace is Tr(P X P)
    goal = np.eye(n * n) - V.QQ
    return _run_series(S.mat, goal, V.QQ, eI, vec(rho), config)


def site_visit_series(q: QMC, target: int, state: VecState,
                      config: SeriesConfig | None = None) -> MonitorSeries:
    """First-visit series of a QMC to a target site."""
    config = config or SeriesConfig()
    P = site_projectors(q)[target]
    Q = np.eye(q.dim) - P
    return _run_series(q.rep, P, Q, q.identity_vec(), state.data, config)

