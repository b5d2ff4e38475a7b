"""Acceptance suite: one test per release criterion, each printing a verdict line.

Run ``pytest tests/test_acceptance.py -v`` — the PASSED/FAILED column is the
per-criterion verdict; ``-s`` additionally shows the printed detail lines.
"""

import numpy as np
import pytest

import qhit
from qhit.matrep import vec_form
from conftest import (ROTATION_U, make_sec6_T, random_goal_qubit,
                      random_irreducible_qubit, random_tp_channel)
from dense_oracles import drazin_limit, first_step_operator_L, fundamental_map, mhtf_tau
from expected_matrices import (A0_SHARP, D_QMC, G_QMC, H0, HADAMARD_ASHARP,
                               HADAMARD_KERNEL, K_MAP, K_U, ORDER4_B1,
                               ORDER4_B2, ORDER4_B3, ORDER4_B4, PHI_QMC,
                               PI_QMC, T_REP)


def _verdict(n: int, ok: bool, detail: str):
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, detail


def test_criterion_1_worked_example_reproduction(sec5):
    S, V, q = sec5["S"], sec5["V"], sec5["q"]
    errs = {}
    errs["T"] = np.max(np.abs(S.mat - T_REP))
    errs["K"] = np.max(np.abs(vec_form(qhit.analytic_HK(S, V).K, 2) - K_MAP))
    errs["Phi"] = np.max(np.abs(vec_form(q.real, q.k) - PHI_QMC))
    errs["pi"] = np.max(np.abs(q.stationary_vec() - PI_QMC))
    ops = qhit.qmc_hitting_operators(q)
    # D and G are Hermitian-basis forms; e_1 is the same in both coordinates
    errs["D"] = np.max(np.abs(vec_form(ops.D, 2) - D_QMC))
    e1 = np.eye(8)[0]
    G = vec_form(qhit.hunter_ginverse(q, t=e1, g=e1), 2)
    errs["G"] = np.max(np.abs(G - G_QMC))
    diag = np.kron(np.eye(2), np.ones((4, 4)))  # mask of the diagonal blocks
    errs["G_d"] = np.max(np.abs(diag * G - diag * G_QMC))
    matrices_ok = max(errs.values()) < 1e-9

    taus = {m: qhit.tau_channel(S, V, sec5["rho_phi"], m).tau
            for m in ("series", "analytic-K", "ksmh-ginverse", "ksmh-group")}
    taus_ok = all(abs(t - 6.0) < 1e-8 for t in taus.values())

    _verdict(1, matrices_ok and taus_ok,
             f"matrix errors max {max(errs.values()):.2e}; "
             f"tau by 4 routes {sorted(taus.values())}")


def test_criterion_2_randomization_family(rotation):
    T_rot = rotation["S"]
    V = rotation["V"]
    rho = rotation["rho_phi"]

    k_err = np.max(np.abs(vec_form(qhit.analytic_HK(T_rot, V).K, 2) - K_U))

    grid_ok = True
    worst = 0.0
    for s in (0.1, 0.3, 0.5, 0.7, 0.9):
        Ms = make_sec6_T(s)
        for p in (0.1, 0.3, 0.5, 0.7, 0.9):
            tau = qhit.tau_channel(qhit.randomize(Ms, T_rot, p), V, rho,
                                   "analytic-K").tau
            err = abs(tau - 4.0 / (1 - p + 2 * p * s))
            worst = max(worst, err)
            grid_ok = grid_ok and err < 1e-8

    q0 = qhit.induce(T_rot, V)
    asharp0 = qhit.group_inverse(np.eye(8) - q0.real).Asharp
    asharp_err = np.max(np.abs(vec_form(asharp0, 2) - A0_SHARP))
    ops0 = qhit.qmc_hitting_operators(q0)
    H0_group = qhit.ksmh_kernel(q0, ops0.D, asharp0)
    h0_err = np.max(np.abs(vec_form(H0_group, 2) - H0))

    study = qhit.kernel_limit_study(make_sec6_T(0.5), T_rot, V,
                                    (1e-1, 1e-2, 1e-3, 1e-4), rho=rho)
    norms = {pt.p: pt.g_norm for pt in study.points}
    div_ok = norms[1e-4] > 1e3 * norms[1e-1]
    h0d_err = np.max(np.abs(vec_form(study.H0_direct, 2) - H0))

    ok = (k_err < 1e-9 and grid_ok and asharp_err < 1e-9
          and h0_err < 1e-9 and h0d_err < 1e-8 and div_ok)
    _verdict(2, ok,
             f"K_U err {k_err:.2e}; grid worst {worst:.2e}; A0# err "
             f"{asharp_err:.2e}; H0 err {h0_err:.2e}; H0D err {h0d_err:.2e}; "
             f"|G_p| ratio {norms[1e-4] / norms[1e-1]:.1e}")


def test_criterion_3_hadamard(hadamard):
    S, V, q = hadamard["S"], hadamard["V"], hadamard["q"]
    a1_good, _ = qhit.assumption_one_holds(S, V)
    alpha = 0.5 * np.sqrt(2 + np.sqrt(2))
    Vbad = qhit.GoalSubspace.from_vectors([[alpha, np.sqrt(1 - alpha**2)]])
    a1_bad, _ = qhit.assumption_one_holds(S, Vbad)

    tau = qhit.tau_channel(S, V, hadamard["rho_phi"], "ksmh-group").tau
    asharp = qhit.group_inverse(np.eye(8) - q.real).Asharp
    asharp_err = np.max(np.abs(vec_form(asharp, 2) - HADAMARD_ASHARP))
    ops = qhit.qmc_hitting_operators(q)
    kern = qhit.ksmh_kernel(q, ops.D, asharp)
    kern_err = np.max(np.abs(vec_form(kern, 2) - HADAMARD_KERNEL))

    ok = (a1_good and not a1_bad and abs(tau - 2.0) < 1e-8
          and asharp_err < 1e-9 and kern_err < 1e-9)
    _verdict(3, ok,
             f"assumption verdicts ({a1_good}, {a1_bad}); tau {tau}; "
             f"A# err {asharp_err:.2e}; kernel err {kern_err:.2e}")


def test_criterion_4_order4_walk(order4):
    S, V = order4["S"], order4["V"]

    def tau_of(vec3):
        a, b, d = vec3
        psi = np.array([0.0, a, b, d])
        psi = psi / np.linalg.norm(psi)
        rho = np.outer(psi, psi)
        t = qhit.tau_channel(S, V, rho, "ksmh-group").tau
        return t * np.linalg.norm(np.array(vec3)) ** 2  # undo normalization

    # tau is the quadratic form c1 a^2 + c2 b^2 + c3 d^2 + c4 ab + c5 ad + c6 bd;
    # six independent evaluations determine the coefficients
    points = [(1, 0, 0), (0, 1, 0), (0, 0, 1),
              (1, 1, 0), (1, 0, 1), (0, 1, 1)]
    rows = [[a * a, b * b, d * d, a * b, a * d, b * d] for a, b, d in points]
    coeffs = np.linalg.solve(np.array(rows, dtype=float),
                             np.array([tau_of(p) for p in points]))
    expected = np.array([4.0, 6.0, 10.0, 2.0, -4.0, -6.0])
    coeff_err = np.max(np.abs(coeffs - expected))

    basis_taus = [tau_of(v) for v in ((1, 0, 0), (0, 1, 0), (0, 0, 1))]
    basis_ok = np.max(np.abs(np.array(basis_taus) - [4, 6, 10])) < 1e-8

    K = vec_form(qhit.analytic_HK(S, V).K, 4)
    blocks_err = max(
        np.max(np.abs(K[:8, :8] - ORDER4_B1)),
        np.max(np.abs(K[:8, 8:] - ORDER4_B2)),
        np.max(np.abs(K[8:, :8] - ORDER4_B3)),
        np.max(np.abs(K[8:, 8:] - ORDER4_B4)),
    )

    ok = coeff_err < 1e-8 and basis_ok and blocks_err < 1e-9
    _verdict(4, ok,
             f"recovered coefficients {np.round(coeffs, 10).tolist()} "
             f"(err {coeff_err:.2e}); basis taus {basis_taus}; "
             f"B-block err {blocks_err:.2e}")


def test_criterion_5_classical_embedding_oracle():
    rng = np.random.default_rng(42)
    worst = 0.0
    for trial in range(10):
        n = int(rng.integers(3, 6))
        P = rng.uniform(0.1, 1.0, size=(n, n))
        P = P / P.sum(axis=1, keepdims=True)

        # diagonal-channel embedding: Kraus sqrt(P_ij) |j><i|
        kraus = []
        for i in range(n):
            for j in range(n):
                Vij = np.zeros((n, n))
                Vij[j, i] = np.sqrt(P[i, j])
                kraus.append(Vij)
        S = qhit.represent(qhit.KrausChannel(n, tuple(kraus)))
        k = int(rng.integers(0, n))
        goal = qhit.GoalSubspace.from_vectors([np.eye(n)[k]])

        # classical absorbing-chain solve for mean hitting times to state k
        keep = [i for i in range(n) if i != k]
        m = np.linalg.solve(np.eye(n - 1) - P[np.ix_(keep, keep)],
                            np.ones(n - 1))
        classical = dict(zip(keep, m))

        Z = fundamental_map(S)
        maps = qhit.analytic_HK(S, goal)
        for j in keep:
            tau_fund = mhtf_tau(Z, maps, np.eye(n)[k], np.eye(n)[j])
            rho_j = np.zeros((n, n))
            rho_j[j, j] = 1.0
            tau_gi = qhit.tau_channel(S, goal, rho_j, "ksmh-ginverse").tau
            worst = max(worst, abs(tau_fund - classical[j]),
                        abs(tau_gi - classical[j]))
    _verdict(5, worst < 1e-8,
             f"10 random chains; worst deviation from linear solve {worst:.2e}")


def test_criterion_6_group_inverse_properties():
    rng = np.random.default_rng(7)
    worst = {"axiom": 0.0, "limit": 0.0, "cesaro": 0.0}
    indices_ok = True
    for trial in range(50):
        n = int(rng.integers(2, 5))
        S = random_tp_channel(rng, n)
        targets = [np.eye(n * n) - S.mat]
        v = rng.normal(size=n) + 1j * rng.normal(size=n)
        V = qhit.GoalSubspace.from_vectors([v / np.linalg.norm(v)])
        q = qhit.induce(S, V)
        targets.append(np.eye(q.dim) - q.real)

        for A in targets:
            N = A.shape[0]
            gs = qhit.group_inverse(A)
            indices_ok = indices_ok and gs.index <= 1
            G = gs.Asharp
            scale = np.max(np.abs(A))
            gscale = max(scale, np.max(np.abs(G)))
            worst["axiom"] = max(
                worst["axiom"],
                np.max(np.abs(A @ G @ A - A)) / scale,
                np.max(np.abs(G @ A @ G - G)) / gscale,
                np.max(np.abs(A @ G - G @ A)) / gscale)
            worst["limit"] = max(
                worst["limit"],
                np.max(np.abs(drazin_limit(A) - G)))
            rep = np.eye(N) - A
            cesaro = np.zeros((N, N), dtype=complex)
            M = np.eye(N)
            for _ in range(4096):
                cesaro += M
                M = rep @ M
            worst["cesaro"] = max(
                worst["cesaro"],
                np.max(np.abs(cesaro / 4096 - gs.ergodic_projector)))

    ok = (indices_ok and worst["axiom"] < 1e-9 and worst["limit"] < 1e-6
          and worst["cesaro"] < 1e-3)
    _verdict(6, ok,
             f"50 channels + induced chains: index<=1 {indices_ok}; worst "
             f"axiom {worst['axiom']:.2e}, z-limit {worst['limit']:.2e}, "
             f"Cesaro {worst['cesaro']:.2e}")


def test_criterion_7_route_agreement():
    rng = np.random.default_rng(123)
    worst_spread = 0.0
    worst_trace = 0.0
    done = 0
    while done < 20:
        S = random_irreducible_qubit(rng)
        V = random_goal_qubit(rng)
        phi = V.Q @ (rng.normal(size=2) + 1j * rng.normal(size=2))
        if np.linalg.norm(phi) < 1e-6:
            continue
        phi = phi / np.linalg.norm(phi)
        rho = np.outer(phi, phi.conj())

        taus = []
        for m in ("series", "analytic-K", "ksmh-ginverse", "ksmh-group"):
            rep = qhit.tau_channel(S, V, rho, m)
            if not (rep.ok and rep.tau is not None and np.isfinite(rep.tau)):
                break
            taus.append(rep.tau)
        if len(taus) < 4:
            continue  # spectrally obstructed draw; not an irreducible-route case
        worst_spread = max(worst_spread,
                           (max(taus) - min(taus)) / max(1.0, max(taus)))

        q = qhit.induce(S, V)
        ops = qhit.qmc_hitting_operators(q)
        L = first_step_operator_L(q, ops)
        eI = np.eye(2).reshape(-1)
        for i in range(2):
            for j in range(2):
                B = L[i * 4:(i + 1) * 4, j * 4:(j + 1) * 4]
                # Tr(L_ij rho) = 1 for every density rho
                worst_trace = max(worst_trace,
                                  np.max(np.abs(eI.conj() @ B - eI.conj())))
        done += 1

    ok = worst_spread < 1e-6 and worst_trace < 1e-8
    _verdict(7, ok,
             f"20 channels: worst pairwise tau spread {worst_spread:.2e}; "
             f"worst first-step trace defect {worst_trace:.2e}")


def test_criterion_8_ginverse_independence(sec5):
    q = sec5["q"]
    ops = qhit.qmc_hitting_operators(q)
    omega = qhit.fixed_map(q)
    rho = sec5["rho_phi"]
    rng = np.random.default_rng(31)

    taus = []
    e1 = np.eye(8)[0]
    # two special-form members (plain kernel) ...
    for u, f in ((e1, e1), (None, None)):
        kern = qhit.ksmh_kernel(q, ops.D, qhit.hunter_ginverse(q, t=u, g=f))
        taus.append(qhit.tau_irreducible_qmc(q, kern, 0, 1, rho))
    # ... and three general members (fixed-map-corrected kernel)
    for _ in range(3):
        G = qhit.hunter_ginverse(q, t=rng.normal(size=8), u=rng.normal(size=8),
                                 f=rng.normal(size=8), g=rng.normal(size=8))
        kern = qhit.ksmh_kernel(q, ops.D, G, omega=omega)
        taus.append(qhit.tau_irreducible_qmc(q, kern, 0, 1, rho))

    spread = max(taus) - min(taus)
    ok = spread < 1e-8 and abs(taus[0] - 6.0) < 1e-8
    _verdict(8, ok, f"five Hunter parameterizations: taus {taus} "
                    f"(spread {spread:.2e})")
