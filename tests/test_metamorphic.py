"""Metamorphic relations of the monitored process, checked on every route.

Three exact relations give a known tau at any size, with no oracle:

- laziness: S_p = p I + (1 - p) S leaves a density in V-perp in place with
  probability p per step, so tau_p = tau / (1 - p);
- unitary covariance: tau(Z S Z*, Z V, Z rho Z*) = tau(S, V, rho);
- an ancilla, which the measurement ignores:
  tau(S (x) T, V (x) C^a, rho (x) sigma) = tau(S, V, rho) for any channel T
  on C^a and density sigma.

Each relation is checked on every route that gives tau on both sides, within
a provisional relative tolerance that grows with tau as roundoff does.
analytic-K and ksmh-group must give the same verdict on both sides: both
answer, or both refuse with the same type.
Reference: Chen et al., "Metamorphic testing: a review of challenges and
opportunities", ACM Comput. Surv. 51 (2018).
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import qhit
from conftest import random_kraus
from qhit.errors import NotIrreducibleError
from qhit.ksmh import METHODS

# Provisional relative tolerances, until a per-route error bound replaces
# them.  Rounding moves a resolvent route's tau by about kappa u, and kappa
# grows with tau, so the tolerance grows as TAU_ROUNDOFF tau past its floor:
# over 7500 relation instances with n <= 4 the resolvent routes moved by at
# most 50 u tau.
REL_TOL = {"series": 1e-12, "analytic-K": 1e-12, "ksmh-ginverse": 1e-12,
           "ksmh-group": 1e-12}
TAU_ROUNDOFF = 1e-13
SEEDS = st.integers(min_value=0, max_value=2**31 - 1)


def _density(rng, P) -> np.ndarray:
    """A random mixed density supported in the range of the projector P."""
    X = rng.normal(size=P.shape) + 1j * rng.normal(size=P.shape)
    rho = P @ X @ X.conj().T @ P
    rho = (rho + rho.conj().T) / 2
    return rho / np.trace(rho).real


@st.composite
def problems(draw) -> tuple:
    """(Kraus operators, orthonormal basis of V, rho in V-perp): n <= 4,
    1 <= d <= min(2, n - 1), 1 to 3 Kraus operators."""
    n = draw(st.integers(min_value=2, max_value=4))
    d = draw(st.integers(min_value=1, max_value=min(2, n - 1)))
    m = draw(st.integers(min_value=1, max_value=3))
    rng = np.random.default_rng(draw(SEEDS))
    basis = qhit.GoalSubspace.from_vectors(
        list(rng.normal(size=(d, n)) + 1j * rng.normal(size=(d, n)))).basis
    rho = _density(rng, np.eye(n) - basis @ basis.conj().T)
    return random_kraus(rng, n, m), basis, rho


def _routes(S, V, rho) -> dict:
    """Method -> report of every route."""
    return {m: qhit.tau_channel(S, V, rho, m) for m in METHODS}


def _channel(kraus, basis) -> tuple:
    """(S, V) from Kraus operators and an orthonormal basis of V."""
    n = basis.shape[0]
    return (qhit.represent(qhit.KrausChannel(n, tuple(kraus))),
            qhit.GoalSubspace(n, basis))


def _close(tau, want, method) -> bool:
    tol = max(REL_TOL[method], TAU_ROUNDOFF * abs(want))
    return tau == want or (np.isfinite(want) and abs(tau - want) <= tol * abs(want))


def _verdict(rep) -> tuple:
    return rep.ok, type(rep.refusal)


def _assert_related(base: dict, image: dict, scale: float = 1.0) -> None:
    """image's tau is base's times scale on every route that answers on
    both sides; analytic-K and ksmh-group keep their verdicts."""
    for m in METHODS:
        a, b = base[m], image[m]
        if a.ok and b.ok:
            assert _close(b.tau, a.tau * scale, m), (m, a.tau, b.tau)
    for m in ("analytic-K", "ksmh-group"):
        assert _verdict(base[m]) == _verdict(image[m]), (m, base[m].detail,
                                                         image[m].detail)


@settings(max_examples=25, deadline=None)
@given(problems(), st.floats(min_value=0.0, max_value=0.9))
def test_a_lazy_step_scales_tau(problem, p):
    kraus, basis, rho = problem
    S, V = _channel(kraus, basis)
    lazy = qhit.randomize(qhit.identity_superop(S.dim), S, p)
    _assert_related(_routes(S, V, rho), _routes(lazy, V, rho), 1 / (1 - p))


@settings(max_examples=25, deadline=None)
@given(problems(), SEEDS)
def test_a_unitary_change_of_basis_keeps_tau(problem, seed):
    kraus, basis, rho = problem
    n = basis.shape[0]
    rng = np.random.default_rng(seed)
    Z, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    image = _routes(*_channel([Z @ K @ Z.conj().T for K in kraus], Z @ basis),
                    Z @ rho @ Z.conj().T)
    _assert_related(_routes(*_channel(kraus, basis), rho), image)


@settings(max_examples=25, deadline=None)
@given(problems(), st.sampled_from(["random", "id", "phase"]),
       st.integers(min_value=1, max_value=2), SEEDS)
def test_an_ancilla_keeps_tau(problem, kind, a, seed):
    kraus, basis, rho = problem
    rng = np.random.default_rng(seed)
    if kind == "random":
        ancilla = random_kraus(rng, a, int(rng.integers(1, 3)))
    elif kind == "phase":
        a = 2
        ancilla = (np.diag([1, 1j]),)
    else:
        ancilla = (np.eye(a),)
    sigma = _density(rng, np.eye(a))
    image = _routes(*_channel([np.kron(K, L) for K in kraus for L in ancilla],
                              np.kron(basis, np.eye(a))), np.kron(rho, sigma))
    base = _routes(*_channel(kraus, basis), rho)
    _assert_related(base, image)
    if kind != "random" and a == 2 and base["analytic-K"].ok:
        # T is reducible, so S (x) T is too: the Hunter route refuses it, and
        # the other three routes still give tau(S)
        assert isinstance(image["ksmh-ginverse"].refusal, NotIrreducibleError)
        tau = base["analytic-K"].tau
        for m in ("series", "analytic-K", "ksmh-group"):
            assert image[m].ok, (m, image[m].detail)
            assert _close(image[m].tau, tau, m), (m, tau, image[m].tau)


def test_a_lazy_unitary_channel_series_meets_the_resolvent_tolerance():
    # a unitary channel on C^4 made lazy with p = 0.9, tau = 41.7, drawn as
    # problems() draws: summed until a window of terms fell below ZERO_TOL,
    # the series lay 7.1e-12 relative from analytic-K, 1.7 times the
    # tolerance; summed by doubling it lies 3e-14 away
    rng = np.random.default_rng(1900)
    n = int(rng.integers(2, 5))
    d = int(rng.integers(1, min(2, n - 1) + 1))
    m = int(rng.integers(1, 4))
    assert (n, d, m) == (4, 1, 1)
    basis = qhit.GoalSubspace.from_vectors(
        list(rng.normal(size=(d, n)) + 1j * rng.normal(size=(d, n)))).basis
    rho = _density(rng, np.eye(n) - basis @ basis.conj().T)
    S, V = _channel(random_kraus(rng, n, m), basis)
    reports = _routes(qhit.randomize(qhit.identity_superop(n), S, 0.9), V, rho)
    series, analytic = reports["series"], reports["analytic-K"]
    assert series.ok and analytic.ok and abs(analytic.tau - 41.7) < 0.05
    assert _close(series.tau, analytic.tau, "series"), (series.tau, analytic.tau)
