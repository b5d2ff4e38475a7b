"""Hitting-time kernels: site hitting operators, the D(I - G + G_d E) kernel
(plain, or fixed-map-corrected for an arbitrary g-inverse), plus the
channel-level dispatcher over all computation routes.  Kernels are plain
ndarrays, read block by block through :func:`qmc.site_slice`.

Site indices are 0-based throughout: for an induced 2-site chain, site 0 is
the goal subspace V and site 1 its complement.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import ginverse, monitor
from .channel import (GoalSubspace, check_shapes, diagnose, is_density,
                      randomize)
from .errors import (NoGroupInverseError, NumericalError,
                     SpectralObstructionError, ValidationError)
from .hitting import analytic_HK, tau_from_K
from .matrep import SuperOp, real_form, vec
from .qmc import QMC, induce, induced_group_inverse, site_slice
from .tolerances import NORM_GROWTH_REL_TOL, STATE_TOL, near_one, real_trace


def _diagonal_blocks(M, n_sites: int, k: int) -> list:
    """The n_sites diagonal k^2 blocks of M, after checking its grid shape."""
    k2 = k * k
    if M.shape != (n_sites * k2, n_sites * k2):
        raise ValidationError(
            f"matrix of shape {M.shape} lacks the {n_sites}x{n_sites} grid of "
            f"order-{k2} blocks"
        )
    return [M[site_slice(i, k), site_slice(i, k)] for i in range(n_sites)]


def _diag_blocks_E(M, n_sites: int, k: int) -> np.ndarray:
    """M_d E, with E the grid of identity blocks: row block i is M_ii repeated
    across every column block."""
    return np.vstack([np.tile(block, (1, n_sites))
                      for block in _diagonal_blocks(M, n_sites, k)])


def _block(M, i: int, j: int, k: int) -> np.ndarray:
    return M[site_slice(i, k), site_slice(j, k)]


def _off_site(q: QMC, i: int) -> np.ndarray:
    """Q_i Phi: a copy of Phi with row block i zeroed."""
    out = q.rep.copy()
    out[site_slice(i, q.k)] = 0.0
    return out


@dataclass(frozen=True)
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
        if i not in self.K_ops:
            raise SpectralObstructionError(
                f"hitting operator for site {i} unavailable",
                eigenvalues=self.availability[i][1],
            )
        return _block(self.K_ops[i], i, j, self.k)


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
    """
    sites = range(q.n_sites)
    N = q.dim
    I = np.eye(N)
    K_ops = {}
    availability = {}
    D = np.zeros((N, N), dtype=np.complex128)
    for i in sites:
        sl = site_slice(i, q.k)
        rest = np.delete(np.delete(q.rep, sl, axis=0), sl, axis=1)
        bad = near_one(np.linalg.eigvals(real_form(rest, q.k)))
        if bad:
            availability[i] = (False, bad)
            continue
        M = np.linalg.inv(I - _off_site(q, i))
        K = q.rep @ M @ M
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
    # of the group-inverse kernel).  Only block (i, i) of Phi B^# and of
    # Phi (B^#)^2 is formed.
    fallback = []
    donor = next((j for j in sites if availability[j][0]), None)
    eIk = vec(np.eye(q.k))
    for i in sites:
        if availability[i][0]:
            continue
        sl = site_slice(i, q.k)
        filled = False
        try:
            Bsharp = ginverse.group_inverse(I - _off_site(q, i)).Asharp
            row = q.rep[sl] @ Bsharp  # row block i of Phi B^#
            ret_defect = np.max(np.abs(eIk.conj() @ row[:, sl] - eIk.conj()))
            if ret_defect < STATE_TOL:
                D[sl, sl] = row @ Bsharp[:, sl]
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
    i of the kernel is D_ii times row block i of the bracket.  Neither E nor
    the zero blocks of D are formed.
    """
    D = np.asarray(D, dtype=np.complex128)
    G = np.asarray(G, dtype=np.complex128)
    n, k = q.n_sites, q.k
    core = np.eye(q.dim) - G + _diag_blocks_E(G, n, k)
    if omega is not None:
        OG = np.asarray(omega) @ G
        core = OG - _diag_blocks_E(OG, n, k) + core
    kernel = np.empty_like(core)
    for i, D_ii in enumerate(_diagonal_blocks(D, n, k)):
        kernel[site_slice(i, k)] = D_ii @ core[site_slice(i, k)]
    return kernel


def _trace_block(kernel_block: np.ndarray, rho, k: int) -> float:
    return real_trace(complex(np.vdot(vec(np.eye(k)), kernel_block @ vec(rho))))


def tau_irreducible_qmc(q: QMC, kernel: np.ndarray, i: int, j: int, rho_j) -> float:
    """Mean hitting time to site i from a density rho_j at site j, read from
    block (i, j) of a kernel of :func:`ksmh_kernel`."""
    rho_j = np.asarray(rho_j, dtype=np.complex128)
    if rho_j.shape != (q.k, q.k):
        raise ValidationError(f"site density must be {q.k}x{q.k}")
    return _trace_block(_block(kernel, i, j, q.k), rho_j, q.k)


def first_step_operator_L(q: QMC, ops: QmcHittingOperators) -> np.ndarray:
    """L = K - (K - D) Phi with K assembled row-wise from the target operators.

    Exposed so the first-step identity Tr(L_ij rho_j) = Tr(rho_j) can be
    asserted; requires every site's hitting operator.
    """
    missing = [i for i in range(q.n_sites) if i not in ops.K_ops]
    if missing:
        raise SpectralObstructionError(
            f"hitting operators unavailable for sites {missing}",
            eigenvalues=sum((ops.availability[i][1] for i in missing), []),
        )
    K = np.zeros((q.dim, q.dim), dtype=np.complex128)
    for i in range(q.n_sites):
        sl = site_slice(i, q.k)
        K[sl] = ops.K_ops[i][sl]
    return K - (K - ops.D) @ q.rep


METHODS = ("series", "analytic-K", "ksmh-ginverse", "ksmh-group")


@dataclass
class TauReport:
    method: str
    tau: float | None
    ok: bool
    preconditions: dict
    detail: str = ""
    artifacts: dict = field(default_factory=dict)


def tau_channel(S: SuperOp, V: GoalSubspace, rho, method: str,
                keep_artifacts: bool = False) -> TauReport:
    """Mean hitting time to V from a density in its complement, by one route.

    Routes: direct monitoring series; analytic mean-hitting-time map K;
    KSMH kernel with a Hunter g-inverse of the induced chain (irreducible
    channels); KSMH kernel with the group inverse (spectral condition only),
    lifted from the channel's (I - S)^# by :func:`qmc.induced_group_inverse`.
    Every route refuses a map that is not trace and Hermiticity preserving
    at its entry (:func:`monitor.first_visit_series`,
    :func:`hitting.analytic_HK`, :func:`qmc.induce`).
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
    check_shapes(S, V, rho)
    if not is_density(rho):
        raise ValidationError("initial state must be a density matrix")
    if not V.contains_perp(rho):
        raise ValidationError("initial density must be supported in the complement of V")

    pre: dict = {}
    art: dict = {}

    if method == "series":
        series = monitor.first_visit_series(S, V, rho)
        pre["series_converged"] = series.converged
        pre["hitting_probability"] = series.cumulative_prob
        if keep_artifacts:
            art["series"] = series
        return TauReport(method=method, tau=series.tau, ok=series.converged,
                         preconditions=pre, artifacts=art)

    if method == "analytic-K":
        try:
            maps = analytic_HK(S, V)
        except SpectralObstructionError:
            pre["assumption_one"] = False
            return TauReport(method=method, tau=None, ok=False, preconditions=pre,
                             detail="1 lies in the spectrum of Q.T")
        pre["assumption_one"] = True
        if keep_artifacts:
            art["K"] = maps.K.mat
        return TauReport(method=method, tau=tau_from_K(maps, rho, "in-V-perp"),
                         ok=True, preconditions=pre, artifacts=art)

    q = induce(S, V)
    ops = qmc_hitting_operators(q)
    pre["site0_operator_available"] = ops.availability[0][0]
    pre["site1_operator_available"] = ops.availability[1][0]
    if not ops.availability[0][0]:
        return TauReport(method=method, tau=None, ok=False, preconditions=pre,
                         detail="1 lies in the spectrum of Q_0 Phi "
                                "(equivalently of Q.T)")

    if method == "ksmh-ginverse":
        diag = diagnose(S)
        pre["channel_irreducible"] = diag.is_irreducible
        if not diag.is_irreducible:
            return TauReport(method=method, tau=None, ok=False, preconditions=pre,
                             detail="channel is not irreducible; use ksmh-group")
        G = ginverse.hunter_special(q)
    else:  # ksmh-group
        G = induced_group_inverse(S, q)

    kern = ksmh_kernel(q, ops.D, G)
    tau = tau_irreducible_qmc(q, kern, 0, 1, rho)
    if keep_artifacts:
        art.update({"qmc": q, "D": ops.D, "G": G, "kernel": kern})
    return TauReport(method=method, tau=tau, ok=True, preconditions=pre,
                     artifacts=art)


@dataclass(frozen=True)
class KernelLimitPoint:
    p: float
    tau: float
    g_norm: float
    kernel: np.ndarray


@dataclass(frozen=True)
class KernelLimitReport:
    points: tuple
    H0_extrapolated: np.ndarray
    tau_extrapolated: float
    H0_direct: np.ndarray
    tau_direct: float
    extrapolation_defect: float
    g_norms_diverge: bool


def kernel_limit_study(T: SuperOp, Mprime: SuperOp, V: GoalSubspace, p_values,
                       rho=None) -> KernelLimitReport:
    """Behaviour of the KSMH kernel of the randomization p T + (1-p) M' as p -> 0.

    For each p the special Hunter g-inverse G_p (:func:`ginverse.hunter_special`
    at its defaults) and kernel H_p are formed; the kernel
    limit H_0 is extrapolated from the three smallest p values and compared
    with the kernel computed directly at p = 0 from the group inverse of the
    induced chain, lifted from (I - M')^# by :func:`qmc.induced_group_inverse`.
    Both limits' tau are read from block (0, 1) as in
    :func:`tau_irreducible_qmc`.
    The divergence of ||G_p|| alongside a convergent H_p is the reported
    finding.
    """
    if rho is None:
        # default initial state: normalized projection of the mixed state onto V-perp
        rho = V.Q @ (np.eye(V.ambient_dim) / V.ambient_dim) @ V.Q
        rho = rho / np.trace(rho).real
    ps = sorted(set(float(p) for p in p_values), reverse=True)
    if any(p <= 0 or p > 1 for p in ps):
        raise ValidationError("p values must lie in (0, 1]")

    points = []
    for p in ps:
        q = induce(randomize(T, Mprime, p), V)
        ops = qmc_hitting_operators(q)
        G = ginverse.hunter_special(q)
        kern = ksmh_kernel(q, ops.D, G)
        tau = tau_irreducible_qmc(q, kern, 0, 1, rho)
        points.append(KernelLimitPoint(p=p, tau=tau,
                                       g_norm=float(np.linalg.norm(G, 2)),
                                       kernel=kern))

    # polynomial extrapolation to p = 0 from the three smallest p
    tail = points[-3:]
    H0_ext = ginverse._lagrange_at_zero([pt.p for pt in tail],
                                        [pt.kernel for pt in tail])

    q0 = induce(Mprime, V)
    ops0 = qmc_hitting_operators(q0)
    kern0 = ksmh_kernel(q0, ops0.D, induced_group_inverse(Mprime, q0))
    tau0 = tau_irreducible_qmc(q0, kern0, 0, 1, rho)
    tau_ext = _trace_block(_block(H0_ext, 0, 1, q0.k), rho, q0.k)

    norms = [pt.g_norm for pt in points]
    diverges = len(norms) >= 2 and norms[-1] > norms[0] and all(
        a <= b * (1 + NORM_GROWTH_REL_TOL) for a, b in zip(norms, norms[1:])
    )
    return KernelLimitReport(
        points=tuple(points),
        H0_extrapolated=H0_ext,
        tau_extrapolated=tau_ext,
        H0_direct=kern0,
        tau_direct=tau0,
        extrapolation_defect=float(np.max(np.abs(H0_ext - kern0))),
        g_norms_diverge=diverges,
    )
