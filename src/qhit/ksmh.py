"""Hitting-time kernels: site hitting operators, the D(I - G + G_d E) kernel
(plain, or fixed-map-corrected for an arbitrary g-inverse), plus the
channel-level dispatcher over all computation routes.  Kernels are plain
ndarrays, read block by block through :func:`qmc.site_slice`.

Site indices are 0-based throughout: for an induced 2-site chain, site 0 is
the goal subspace V and site 1 its complement.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from . import ginverse, monitor
from .channel import (ChannelDiagnostics, GoalSubspace, _tp_defect, check_shapes,
                      diagnose, hermitize, is_density, randomize)
from .errors import (NoGroupInverseError, NotIrreducibleError, NumericalError,
                     QhitError, SpectralObstructionError, ValidationError)
from .hitting import HittingMaps, analytic_HK, tau_from_K
from .matrep import SuperOp, hermitian_coords, real_form, vec
from .qmc import QMC, check_sites, induce, induced_group_inverse, site_slice
from .tolerances import NORM_GROWTH_REL_TOL, STATE_TOL, near_one


def _block(M, n_sites: int, i: int, j: int, k: int) -> np.ndarray:
    """Block (i, j) of M, after checking that M is an n_sites x n_sites grid
    of k^2 x k^2 blocks: every grid of this module is read through here."""
    k2 = k * k
    if M.shape != (n_sites * k2, n_sites * k2):
        raise ValidationError(
            f"matrix of shape {M.shape} lacks the {n_sites}x{n_sites} grid of "
            f"order-{k2} blocks"
        )
    return M[site_slice(i, k), site_slice(j, k)]


def _hitting_operator(Phi, sl: slice, r, rest) -> np.ndarray:
    """K^(i) = Phi (I - Q_i Phi)^{-2} from one inverse of order (n_sites - 1) k^2.

    With site i (rows and columns ``sl``) ordered first, and ``r`` the indices
    of the other sites, I - Q_i Phi = [[I, 0], [-Phi_ri, I - Phi_rr]], where
    Phi_rr is ``rest``.  Its inverse squared is
    [[I, 0], [(R + R^2) Phi_ri, R^2]] with R = (I - rest)^{-1}, so
    K[:, i] = Phi[:, i] + Phi[:, r] (R + R^2) Phi_ri and K[:, r] = Phi[:, r] R^2.
    """
    R = np.linalg.inv(np.eye(r.size) - rest)
    R2 = R @ R
    K = np.empty_like(Phi)
    Phi_r = Phi[:, r]
    K[:, sl] = Phi[:, sl] + Phi_r @ ((R + R2) @ Phi[r, sl])
    K[:, r] = Phi_r @ R2
    return K


@dataclass(frozen=True, eq=False)
class QmcHittingOperators:
    """Per-target-site hitting operators K^(i) = Phi (I - Q_i Phi)^{-2}.

    ``K_ops[i]`` is the full operator for target i; block (i, j) of it is the
    mean-hitting-time operator K_ij.  ``D`` carries the diagonal blocks K_ii
    where available (absent sites keep a zero block, flagged in
    ``availability``).
    """

    n_sites: int
    k: int
    K_ops: dict
    D: np.ndarray
    availability: dict  # site -> (available, offending eigenvalues)
    fallback_sites: tuple = ()

    def K_block(self, i: int, j: int) -> np.ndarray:
        check_sites(self.n_sites, i, j)
        if i not in self.K_ops:
            raise SpectralObstructionError(
                f"hitting operator for site {i} unavailable",
                eigenvalues=self.availability[i][1],
            )
        return _block(self.K_ops[i], self.n_sites, i, j, self.k)


def qmc_hitting_operators(q: QMC) -> QmcHittingOperators:
    """Analytic site-hitting operators; per-site spectral failures are flagged,
    not fatal.

    Site i's operator needs 1 outside the spectrum of Q_i Phi, where Q_i is
    the projector off site i.  Q_i Phi is Phi with row block i zeroed; with
    site i ordered first it is block lower triangular, so its spectrum is k^2
    zeros together with the spectrum of Phi with site i's rows and columns
    removed.  Availability is decided from that principal block, of order
    (n_sites - 1) k^2, and its spectrum is taken on its real form
    (:func:`matrep.real_form`); for the induced chain's site 0 it is Q.Q S,
    the map :func:`channel.assumption_one_holds` tests.

    The same triangular shape gives K^(i) itself (:func:`_hitting_operator`):
    each available site costs one inverse of order (n_sites - 1) k^2, that
    principal block's resolvent, and products of that order.  The Abel
    fallback of an unavailable site needs the group inverse of
    B = I - Q_i Phi = [[I, 0], [-Phi_ri, C]], C = I - Phi_rr.  By Meyer and
    Rose (SIAM J. Appl. Math. 33, 1977) it is [[I, 0], [X, C^#]] with
    X = (C^# - E_C) Phi_ri, E_C = I - C^# C, so it too comes from the same
    principal block: no matrix of the chain's full order n_sites k^2 is
    factored.
    """
    sites = range(q.n_sites)
    N = q.dim
    K_ops = {}
    availability = {}
    obstructed = {}
    D = np.zeros((N, N), dtype=np.complex128)
    for i in sites:
        sl = site_slice(i, q.k)
        r = np.delete(np.arange(N), sl)
        rest = q.rep[np.ix_(r, r)]
        bad = near_one(np.linalg.eigvals(real_form(rest, q.k)))
        if bad:
            availability[i] = (False, bad)
            obstructed[i] = (sl, r, rest)
            continue
        K = _hitting_operator(q.rep, sl, r, rest)
        K_ops[i] = K
        availability[i] = (True, [])
        D[sl, sl] = K[sl, sl]
    # A spectrally obstructed site has no plain resolvent K^(i).  Two cases:
    # if the Abel-regularized return-probability operator on block (i, i) is
    # still trace preserving, returns to i are certain, the mean return
    # operator exists as the Abel limit of the series, and that limit fills
    # D_ii.  Otherwise some mass never returns; D_ii never enters any
    # off-diagonal hitting time, so block (i, i) of an available site's
    # operator is borrowed as a finite stand-in (matching the block structure
    # of the group-inverse kernel).  With B^# as above, block (i, i) of
    # Phi B^# is Phi_ii + Phi_ir X, and that of Phi (B^#)^2 adds Phi_ir C^# X.
    fallback = []
    donor = next((j for j in sites if availability[j][0]), None)
    for i, (sl, r, rest) in obstructed.items():
        filled = False
        try:
            g = ginverse.group_inverse(np.eye(r.size) - rest)
            X = (g.Asharp - g.ergodic_projector) @ q.rep[r, sl]
            Phi_ir = q.rep[sl, r]
            ret = q.rep[sl, sl] + Phi_ir @ X
            if _tp_defect(ret, q.k) < STATE_TOL:
                D[sl, sl] = ret + Phi_ir @ (g.Asharp @ X)
                fallback.append((i, "abel-return"))
                filled = True
        except (NoGroupInverseError, NumericalError, np.linalg.LinAlgError):
            pass
        if not filled and donor is not None:
            D[sl, sl] = K_ops[donor][sl, sl]
            fallback.append((i, f"donor-{donor}"))
    return QmcHittingOperators(n_sites=q.n_sites, k=q.k, K_ops=K_ops, D=D,
                               availability=availability,
                               fallback_sites=tuple(fallback))


def ksmh_kernel(q: QMC, D, G, omega=None) -> np.ndarray:
    """Assemble the hitting-time kernel from a g-inverse G of I - Phi.

    Plain form D(I - G + G_d E) is valid when G has the special Hunter shape
    (bra <e_I|) or is the group inverse; the fixed-map-corrected form
    D(Omega G - (Omega G)_d E + I - G + G_d E) is valid for any g-inverse of
    an irreducible chain (``omega`` is Omega = |pi><e_I|, see
    :func:`qmc.fixed_map`).  E is the grid of identity blocks, so row block i
    of G_d E is G_ii tiled across the row; D is block diagonal, so row block
    i of the kernel is D_ii times row block i of the bracket, which is built
    from row block i of G (and of Omega G) alone.  Neither E, the zero blocks
    of D nor the whole bracket are formed.
    """
    D = np.asarray(D, dtype=np.complex128)
    G = np.asarray(G, dtype=np.complex128)
    n, k = q.n_sites, q.k
    eye = np.eye(q.dim)
    kernel = np.empty_like(G)
    for i in range(n):
        sl = site_slice(i, k)
        D_ii, G_ii = _block(D, n, i, i, k), _block(G, n, i, i, k)
        row = eye[sl] - G[sl] + np.tile(G_ii, (1, n))
        if omega is not None:
            OG = np.asarray(omega)[sl] @ G
            row = OG - np.tile(OG[:, sl], (1, n)) + row
        kernel[sl] = D_ii @ row
    return kernel


def tau_irreducible_qmc(q: QMC, kernel: np.ndarray, i: int, j: int, rho_j) -> float:
    """Mean hitting time to site i from a density rho_j at site j, read from
    block (i, j) of a kernel of :func:`ksmh_kernel` as
    <e_I|T* (T K_ij T*) T|vec rho_j>, in real arithmetic: the kernel must be
    an n_sites x n_sites grid of k^2 blocks whose block (i, j) preserves
    Hermiticity (:func:`matrep.real_form`), and rho_j a Hermitian k x k
    matrix (:func:`matrep.hermitian_coords`); else :class:`ValidationError`.
    A caller that accepted rho_j by :func:`channel.is_density`, whose
    Hermiticity rule is ``STATE_TOL``, passes its Hermitian part."""
    check_sites(q.n_sites, i, j)
    block = real_form(_block(kernel, q.n_sites, i, j, q.k), q.k)
    if np.shape(rho_j) != (q.k, q.k):
        raise ValidationError(f"site density must be {q.k}x{q.k}")
    return float(hermitian_coords(vec(np.eye(q.k)), q.k)
                 @ (block @ hermitian_coords(vec(rho_j), q.k)))


METHODS = ("series", "analytic-K", "ksmh-ginverse", "ksmh-group")


@dataclass(frozen=True, eq=False)
class TauReport:
    """One route's answer.  ``refusal`` is None when the route gives tau, and
    otherwise the typed reason it cannot; ``artifacts`` references what the
    route computed (read-only arrays, not copies)."""

    method: str
    tau: float | None
    preconditions: dict
    refusal: QhitError | None = None
    artifacts: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.refusal is None

    @property
    def detail(self) -> str:
        return "" if self.refusal is None else str(self.refusal)


class _Problem:
    """The rho-independent work of :func:`tau_channel` on one (S, V).

    Each field is built on first use by the public call that computes it,
    and kept: a second route or a second state reads it.  The calls go
    through this module's names at call time, so a wrapper installed at
    those names (``ksmh.induce``, ``ginverse.hunter_special``, ...) sees
    each one.  A call that raises stores nothing and runs again on the next
    use.  The arrays that artifacts hand out are made read-only.
    """

    def __init__(self, S: SuperOp, V: GoalSubspace):
        self.S, self.V = S, V

    @cached_property
    def maps(self) -> HittingMaps:
        return analytic_HK(self.S, self.V)

    @cached_property
    def qmc(self) -> QMC:
        return induce(self.S, self.V)

    @cached_property
    def sites(self) -> tuple:
        """(D, availability) of :func:`qmc_hitting_operators`; its K_ops
        enter no route."""
        ops = qmc_hitting_operators(self.qmc)
        ops.D.flags.writeable = False
        return ops.D, ops.availability

    @cached_property
    def diag(self) -> ChannelDiagnostics:
        return diagnose(self.S)

    @cached_property
    def hunter(self) -> tuple:
        """(G, kernel) of the ksmh-ginverse route."""
        return self._kernel(ginverse.hunter_special(self.qmc))

    @cached_property
    def group(self) -> tuple:
        """(G, kernel) of the ksmh-group route."""
        return self._kernel(induced_group_inverse(self.qmc).Asharp)

    def _kernel(self, G) -> tuple:
        kern = ksmh_kernel(self.qmc, self.sites[0], G)
        G.flags.writeable = kern.flags.writeable = False
        return G, kern


# The record of (S, V), keyed by the identity of both objects (SuperOp and
# GoalSubspace compare and hash by identity).  Their arrays are read-only,
# and the cache holds S and V, so neither can change or be replaced by a new
# object at the same address while the record is kept.  One problem is kept:
# the next (S, V) replaces it.  A caller keeps the record it was handed, so
# threads that solve different problems stay correct; threads on one problem
# may build a field twice, with the same bits.
_problem = lru_cache(maxsize=1)(_Problem)


def tau_channel(S: SuperOp, V: GoalSubspace, rho, method: str) -> TauReport:
    """Mean hitting time to V from a density in its complement, by one route.

    Routes: direct monitoring series; analytic mean-hitting-time map K;
    KSMH kernel with a Hunter g-inverse of the induced chain (irreducible
    channels), lifted from S by :func:`ginverse.hunter_special`; KSMH kernel
    with the group inverse (spectral condition only), lifted from the
    channel's (I - S)^# by :func:`qmc.induced_group_inverse`.

    Invalid input raises: :class:`ValidationError` (a map that is not trace
    and Hermiticity preserving, refused at each route's entry by
    :func:`monitor.first_visit_series`, :func:`hitting.analytic_HK` and
    :func:`qmc.induce`; a bad shape, density or support of rho) and
    ``ValueError`` for an unknown method.  Every other refusal is returned:
    the report's ``refusal`` is a :class:`SpectralObstructionError` (1 in
    the spectrum of Q.T, carrying the eigenvalues), a
    :class:`NotIrreducibleError`, a :class:`NoGroupInverseError` or a
    :class:`NumericalError` (an inverse that fails its axioms, a series
    that does not converge), with the preconditions found so far.  numpy's
    ``LinAlgError`` is not caught.  ``artifacts`` always references the
    route's results: ``series``; ``K``; or ``qmc``, ``D``, ``G`` and
    ``kernel``.

    Only the series and the final trace depend on rho.  Everything else
    (K; the induced chain, its site operators D and :func:`channel.diagnose`;
    each KSMH route's G and kernel) is kept in one record per (S, V), held
    by a one-entry ``functools.lru_cache`` keyed by the two objects, which
    compare and hash by identity; only the last problem's record is held.
    Routes and states that follow on the same objects read it, so each
    factorization runs once per problem, and a warning such as the rank
    rule's ``RuntimeWarning`` fires on the call that builds the field, not
    on every route.  A field whose build raises is not kept.  The series,
    which keeps no record, checks S on every call, and the shape, density
    and support checks on rho run on every call: rho must lie in V-perp
    here, although :func:`hitting.tau_from_K` also reads the return side.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
    check_shapes(S, V, rho)
    if not is_density(rho):
        raise ValidationError("initial state must be a density matrix")
    if not V.contains_perp(rho):
        raise ValidationError("initial density must be supported in the complement of V")

    if method == "series":
        series = monitor.first_visit_series(S, V, rho)
        pre = {"series_converged": series.converged,
               "hitting_probability": series.cumulative_prob}
        refusal = None if series.converged else NumericalError(
            f"series did not converge in {series.truncated_at} terms")
        return TauReport(method, series.tau, pre, refusal, {"series": series})

    record = _problem(S, V)
    if method == "analytic-K":
        try:
            maps = record.maps
        except SpectralObstructionError as exc:
            return TauReport(method, None, {"assumption_one": False},
                             exc.with_traceback(None))
        return TauReport(method, tau_from_K(maps, rho), {"assumption_one": True},
                         artifacts={"K": maps.K.mat})

    D, availability = record.sites
    pre = {"site0_operator_available": availability[0][0],
           "site1_operator_available": availability[1][0]}
    if not availability[0][0]:
        return TauReport(method, None, pre, SpectralObstructionError(
            "1 lies in the spectrum of Q_0 Phi (equivalently of Q.T)",
            eigenvalues=availability[0][1]))
    try:
        if method == "ksmh-ginverse":
            pre["channel_irreducible"] = record.diag.is_irreducible
            if not record.diag.is_irreducible:
                return TauReport(method, None, pre, NotIrreducibleError(
                    "channel is not irreducible; use ksmh-group"))
            G, kern = record.hunter
        else:  # ksmh-group
            G, kern = record.group
    except (NotIrreducibleError, NoGroupInverseError, NumericalError) as exc:
        # without its traceback the refusal pins no frame of the failed build
        return TauReport(method, None, pre, exc.with_traceback(None))
    q = record.qmc
    return TauReport(method, tau_irreducible_qmc(q, kern, 0, 1, hermitize(rho)), pre,
                     artifacts={"qmc": q, "D": D, "G": G, "kernel": kern})


@dataclass(frozen=True, eq=False)
class KernelLimitPoint:
    p: float
    tau: float
    g_norm: float
    kernel: np.ndarray


@dataclass(frozen=True, eq=False)
class KernelLimitReport:
    points: tuple
    H0_extrapolated: np.ndarray
    tau_extrapolated: float
    H0_direct: np.ndarray
    tau_direct: float
    extrapolation_defect: float
    g_norms_diverge: bool


def _route_or_raise(S: SuperOp, V: GoalSubspace, rho, method: str,
                    p: float) -> TauReport:
    """:func:`tau_channel`, raising its refusal's type with p named."""
    rep = tau_channel(S, V, rho, method)
    if rep.refusal is not None:
        raise type(rep.refusal)(f"p = {p}: {rep.refusal}") from rep.refusal
    return rep


def kernel_limit_study(T: SuperOp, Mprime: SuperOp, V: GoalSubspace, p_values,
                       rho=None) -> KernelLimitReport:
    """Behaviour of the KSMH kernel of the randomization p T + (1-p) M' as p -> 0.

    Each p is the ``ksmh-ginverse`` route of :func:`tau_channel` on the
    randomization (the special Hunter g-inverse G_p and kernel H_p); the
    kernel limit H_0 is extrapolated from the three smallest p values and
    compared with the ``ksmh-group`` route on M' itself.  Both limits' tau
    are read from block (0, 1) by :func:`tau_irreducible_qmc`.  Every check
    of :func:`tau_channel` applies; a route's refusal is raised as its own
    type (:class:`SpectralObstructionError` when site 0 is unavailable,
    :class:`NotIrreducibleError` when the mixture is not irreducible, ...),
    naming p.  On the induced chain H_p does not depend on G_p (D tiled), so
    ||G_p|| may diverge while H_p converges.
    """
    if rho is None:
        # default initial state: normalized projection of the mixed state onto V-perp
        rho = V.Q @ (np.eye(V.ambient_dim) / V.ambient_dim) @ V.Q
        rho = rho / np.trace(rho).real
    ps = sorted(set(float(p) for p in p_values), reverse=True)
    if not ps:
        raise ValidationError("p values are empty; at least one is needed")
    if not all(0 < p <= 1 for p in ps):  # NaN fails
        raise ValidationError("p values must lie in (0, 1]")

    points = []
    for p in ps:
        rep = _route_or_raise(randomize(T, Mprime, p), V, rho, "ksmh-ginverse", p)
        points.append(KernelLimitPoint(
            p=p, tau=rep.tau, g_norm=float(np.linalg.norm(rep.artifacts["G"], 2)),
            kernel=rep.artifacts["kernel"]))

    # polynomial extrapolation to p = 0 from the three smallest p
    tail = points[-3:]
    H0_ext = ginverse._lagrange_at_zero([pt.p for pt in tail],
                                        [pt.kernel for pt in tail])
    limit = _route_or_raise(Mprime, V, rho, "ksmh-group", 0)
    kern0 = limit.artifacts["kernel"]
    tau_ext = tau_irreducible_qmc(limit.artifacts["qmc"], H0_ext, 0, 1, hermitize(rho))

    norms = [pt.g_norm for pt in points]
    diverges = len(norms) >= 2 and norms[-1] > norms[0] and all(
        a <= b * (1 + NORM_GROWTH_REL_TOL) for a, b in zip(norms, norms[1:])
    )
    return KernelLimitReport(
        points=tuple(points),
        H0_extrapolated=H0_ext,
        tau_extrapolated=tau_ext,
        H0_direct=kern0,
        tau_direct=limit.tau,
        extrapolation_defect=float(np.max(np.abs(H0_ext - kern0))),
        g_norms_diverge=diverges,
    )
