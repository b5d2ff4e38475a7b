"""KSMH kernel assembly, route agreement and the kernel-limit study."""

import inspect
from pathlib import Path

import numpy as np
import pytest

import qhit
from conftest import (make_sec6_T, random_goal_qubit, random_irreducible_qubit,
                      random_tp_channel, site_projector)
from expected_matrices import D_QMC, H0, HADAMARD_KERNEL, ORDER4_QFORM
from qhit.cli import load_spec, parse_channel, parse_subspace
from qhit.errors import NumericalError, SpectralObstructionError, ValidationError
from qhit.qmc import site_slice
from qhit.tolerances import EIG_ONE_TOL

CORPUS = Path(__file__).parent / "corpus"

RNG = np.random.default_rng(99)


def test_qmc_hitting_operators_sec5(sec5):
    ops = qhit.qmc_hitting_operators(sec5["q"])
    assert ops.availability[0][0] and ops.availability[1][0]
    assert ops.fallback_sites == ()
    assert np.max(np.abs(ops.D - D_QMC)) < 1e-10


def _random_oqw(rng, n_sites: int, k: int = 2, absorbing=None) -> qhit.QMC:
    """Random OQW: column j is the Q factor of a Gaussian (n_sites k) x k block
    column.  An ``absorbing`` site keeps its mass: its column is a unitary on
    the diagonal, so every other target sees a closed class and is obstructed."""
    grid = [[None] * n_sites for _ in range(n_sites)]
    for j in range(n_sites):
        Z = rng.normal(size=(n_sites * k, k)) + 1j * rng.normal(size=(n_sites * k, k))
        Q, _ = np.linalg.qr(Z)
        for i in range(n_sites):
            grid[i][j] = Q[i * k:(i + 1) * k]
        if j == absorbing:
            for i in range(n_sites):
                grid[i][j] = np.zeros((k, k))
            grid[j][j] = np.linalg.qr(Z[:k])[0]
    return qhit.from_oqw(grid)


def _dense_hitting_operator(q: qhit.QMC, i: int):
    """Reference K^(i) = Phi (I - Q_i Phi)^{-2} with a dense projector Q_i."""
    Qi = np.eye(q.dim) - site_projector(q, i)
    eigvals = np.linalg.eigvals(Qi @ q.rep)
    if any(abs(lam - 1.0) < EIG_ONE_TOL for lam in eigvals):
        return None
    M = np.linalg.inv(np.eye(q.dim) - Qi @ q.rep)
    return q.rep @ M @ M


@pytest.mark.parametrize("seed", range(6))
def test_principal_block_rule_matches_dense_projectors(seed):
    rng = np.random.default_rng(seed)
    n_sites = 2 + seed % 3
    absorbing = n_sites - 1 if seed % 2 else None
    q = _random_oqw(rng, n_sites, absorbing=absorbing)
    ops = qhit.qmc_hitting_operators(q)
    for i in range(n_sites):
        ref = _dense_hitting_operator(q, i)
        assert ops.availability[i][0] == (ref is not None), i
        if ref is None:
            assert i not in ops.K_ops
        else:
            assert np.max(np.abs(ops.K_ops[i] - ref)) < 1e-10
    if absorbing is not None:
        assert [ops.availability[i][0] for i in range(n_sites)] == \
            [i == absorbing for i in range(n_sites)]


def _corpus_problem(name: str):
    spec = load_spec(str(CORPUS / f"{name}.json"))
    S = parse_channel(spec)
    return S, parse_subspace(spec["subspace"], S.dim)


def test_site0_availability_is_assumption_one(hadamard):
    rng = np.random.default_rng(17)
    cases = [(hadamard["S"], hadamard["V"]), _corpus_problem("hadamard_bad_alpha")]
    for n in (2, 3):
        cases.append((random_tp_channel(rng, n),
                      qhit.GoalSubspace.from_vectors([np.eye(n)[0]])))
    verdicts = []
    for S, V in cases:
        ops = qhit.qmc_hitting_operators(qhit.induce(S, V))
        holds = qhit.assumption_one_holds(S, V)[0]
        assert ops.availability[0][0] == holds
        verdicts.append(holds)
    assert verdicts == [True, False, True, True]


def test_ksmh_kernel_matches_dense_identity_grid(sec5):
    # the kernel D (I - G + G_d E), plus Omega G - (Omega G)_d E in the
    # corrected form, against E and D multiplied in densely
    q = sec5["q"]
    ops = qhit.qmc_hitting_operators(q)
    E = np.tile(np.eye(4), (2, 2))
    diag = np.kron(np.eye(2), np.ones((4, 4)))  # mask of the diagonal blocks
    rng = np.random.default_rng(3)
    G = qhit.hunter_ginverse(q, t=rng.normal(size=8), u=rng.normal(size=8),
                             f=rng.normal(size=8), g=rng.normal(size=8))
    plain = np.eye(8) - G + (diag * G) @ E
    omega = qhit.fixed_map(q)
    OG = omega @ G
    corrected = OG - (diag * OG) @ E + plain
    for om, core in ((None, plain), (omega, corrected)):
        kern = qhit.ksmh_kernel(q, ops.D, G, omega=om)
        assert np.max(np.abs(kern - ops.D @ core)) < 1e-12


def _induced_problems(case: str, request) -> list:
    """(S, V) pairs: three random channels with a random goal line for
    "random-n", else the named fixture or corpus spec."""
    if case.startswith("random-"):
        n = int(case.split("-")[1])
        rng = np.random.default_rng(500 + n)
        problems = []
        for _ in range(3):
            v = rng.normal(size=n) + 1j * rng.normal(size=n)
            problems.append((random_tp_channel(rng, n),
                             qhit.GoalSubspace.from_vectors([v])))
        return problems
    if case == "randomization":
        return [_corpus_problem(case)]
    fx = request.getfixturevalue(case)
    return [(fx["S"], fx["V"])]


@pytest.mark.parametrize("case,routes", [
    *[(f"random-{n}", ("hunter", "group")) for n in range(2, 6)],
    ("sec5", ("hunter", "group")), ("randomization", ("hunter", "group")),
    ("hadamard", ("group",)), ("order4", ("group",)),
])
def test_induced_chain_ginverses_satisfy_the_column_identity(request, case, routes):
    # Phi = C [I I] sends [v; -v] to 0, so both g-inverses fix it: G_ii - G_ij
    # = I for i != j, the bracket I - G + G_d E has identity blocks across each
    # row, and the kernel is D's diagonal blocks tiled whatever G is
    for S, V in _induced_problems(case, request):
        q = qhit.induce(S, V)
        D = qhit.qmc_hitting_operators(q).D
        def block(M, i, j):
            return M[site_slice(i, q.k), site_slice(j, q.k)]

        tiled = np.block([[block(D, 0, 0)] * 2, [block(D, 1, 1)] * 2])
        eye = np.eye(q.k * q.k)
        for route in routes:
            G = (qhit.hunter_special(q) if route == "hunter"
                 else qhit.induced_group_inverse(S, q))
            assert np.max(np.abs(block(G, 0, 0) - block(G, 0, 1) - eye)) <= 1e-12
            assert np.max(np.abs(block(G, 1, 1) - block(G, 1, 0) - eye)) <= 1e-12
            kernel = qhit.ksmh_kernel(q, D, G)
            assert np.max(np.abs(kernel - tiled)) <= 1e-12 * max(1.0, np.max(np.abs(D)))


def test_group_route_accepts_near_reducible_mixture():
    # S = p (q T + (1 - q) Hadamard) + (1 - p) id at p = 1e-3.  At q = 1e-2
    # the induced chain's I - Phi has index 1, although squaring it pushes a
    # singular value under the rank cut; at q = 1e-6, I - S has a nonzero
    # eigenvalue of 8e-10 that an absolute 1e-9 cut would call zero
    T = random_tp_channel(np.random.default_rng(0), 2)
    H = qhit.unitary_superop(np.array([[1, 1], [1, -1]]) / np.sqrt(2))
    V = qhit.GoalSubspace.from_vectors([[1, 0]])
    rho = np.diag([0.0, 1.0])
    for q, tau in ((1e-2, 1992.816456), (1e-6, 1999.999279)):
        S = qhit.randomize(qhit.randomize(T, H, q), qhit.identity_superop(2), 1e-3)
        group = qhit.tau_channel(S, V, rho, "ksmh-group")
        analytic = qhit.tau_channel(S, V, rho, "analytic-K")
        assert group.ok and abs(analytic.tau - tau) < 1e-6, q
        assert abs(group.tau - analytic.tau) < 1e-8 * analytic.tau, q


def test_group_route_factors_only_the_channel(monkeypatch):
    # the group route lifts A^# from (I - S)^#: SVDs of order n^2 only,
    # never of the induced chain's order 2n^2
    orders = []
    index_and_rank = qhit.ginverse._index_and_rank

    def recording_index_and_rank(a):
        orders.append(np.shape(a)[0])
        return index_and_rank(a)

    monkeypatch.setattr(qhit.ginverse, "_index_and_rank", recording_index_and_rank)
    rng = np.random.default_rng(4)
    S = random_tp_channel(rng, 3)
    V = qhit.GoalSubspace.from_vectors([np.eye(3)[0]])
    rho = np.diag([0.0, 0.5, 0.5])
    rep = qhit.tau_channel(S, V, rho, "ksmh-group")
    assert rep.ok
    assert orders and set(orders) == {9}


def test_hadamard_site1_obstructed_donor_fallback(hadamard):
    ops = qhit.qmc_hitting_operators(hadamard["q"])
    assert ops.availability[0][0]
    assert not ops.availability[1][0]
    assert ops.fallback_sites == ((1, "donor-0"),)
    # K_block raises for the obstructed site
    with pytest.raises(SpectralObstructionError):
        ops.K_block(1, 0)


def test_rotation_site1_obstructed_abel_fallback(rotation):
    q = qhit.induce(rotation["S"], rotation["V"])
    ops = qhit.qmc_hitting_operators(q)
    assert not ops.availability[1][0]
    assert ops.fallback_sites == ((1, "abel-return"),)
    # the recovered D block reproduces the bottom-right block of the limit kernel
    kern = qhit.ksmh_kernel(
        q, ops.D, qhit.group_inverse(np.eye(q.dim) - q.rep).Asharp)
    assert np.max(np.abs(kern - H0)) < 1e-9


def test_hadamard_kernel_matches_printed(hadamard):
    q = hadamard["q"]
    ops = qhit.qmc_hitting_operators(q)
    G = qhit.group_inverse(np.eye(q.dim) - q.rep).Asharp
    kern = qhit.ksmh_kernel(q, ops.D, G)
    assert np.max(np.abs(kern - HADAMARD_KERNEL)) < 1e-10


def test_tau_irreducible_qmc_sec5(sec5):
    q = sec5["q"]
    ops = qhit.qmc_hitting_operators(q)
    kern = qhit.ksmh_kernel(q, ops.D, qhit.hunter_special(q))
    tau = qhit.tau_irreducible_qmc(q, kern, 0, 1, sec5["rho_phi"])
    assert abs(tau - 6.0) < 1e-10


def test_tau_irreducible_qmc_validates_density_shape(sec5):
    q = sec5["q"]
    ops = qhit.qmc_hitting_operators(q)
    kern = qhit.ksmh_kernel(q, ops.D, qhit.hunter_special(q))
    with pytest.raises(ValidationError):
        qhit.tau_irreducible_qmc(q, kern, 0, 1, np.eye(3))


def test_first_step_operator_traces(sec5):
    q = sec5["q"]
    ops = qhit.qmc_hitting_operators(q)
    L = qhit.first_step_operator_L(q, ops)
    eI = np.eye(2).reshape(-1)
    k2 = 4
    for i in range(2):
        for j in range(2):
            B = L[i * k2:(i + 1) * k2, j * k2:(j + 1) * k2]
            # Tr(L_ij rho) = Tr(rho) for all rho <=> e_I is a left fixed vector
            assert np.max(np.abs(eI.conj() @ B - eI.conj())) < 1e-8


def test_first_step_operator_requires_all_sites(hadamard):
    q = hadamard["q"]
    ops = qhit.qmc_hitting_operators(q)
    with pytest.raises(SpectralObstructionError):
        qhit.first_step_operator_L(q, ops)


def test_tau_channel_four_routes_sec5(sec5):
    for method in ("series", "analytic-K", "ksmh-ginverse", "ksmh-group"):
        rep = qhit.tau_channel(sec5["S"], sec5["V"], sec5["rho_phi"], method)
        assert rep.ok
        assert abs(rep.tau - 6.0) < 1e-8, method


def test_tau_channel_routes_agree_random():
    for trial in range(6):
        rng = np.random.default_rng(200 + trial)
        S = random_irreducible_qubit(rng)
        V = random_goal_qubit(rng)
        phi = V.Q[:, 0]
        if np.linalg.norm(phi) < 1e-8:
            phi = V.Q[:, 1]
        phi = phi / np.linalg.norm(phi)
        rho = np.outer(phi, phi.conj())
        taus = {}
        for method in ("series", "analytic-K", "ksmh-ginverse", "ksmh-group"):
            rep = qhit.tau_channel(S, V, rho, method)
            if rep.ok and rep.tau is not None and np.isfinite(rep.tau):
                taus[method] = rep.tau
        assert len(taus) >= 2
        vals = list(taus.values())
        assert max(vals) - min(vals) < 1e-6 * max(1.0, max(vals))


def test_near_trace_preserving_channel_on_four_routes():
    # amplitude damping (gamma = 0.3) with K0 scaled by sqrt(1 + 5e-10), mixed
    # 1:1 with Hadamard: TP defect 2.5e-10, which the channel accepts and the
    # induced chain inherits exactly.  From |1> each step hits |0> with
    # probability p = 0.4 and keeps mass s = 0.6 + 1.75e-10 on |1>, so
    # tau = p / (1 - s)^2.
    gamma = 0.3
    K0 = np.sqrt(1 + 5e-10) * np.diag([1.0, np.sqrt(1 - gamma)])
    K1 = np.array([[0.0, np.sqrt(gamma)], [0.0, 0.0]])
    AD = qhit.represent(qhit.KrausChannel(2, (K0, K1)))
    H = qhit.unitary_superop(np.array([[1, 1], [1, -1]]) / np.sqrt(2))
    S = qhit.randomize(AD, H, 0.5)
    V = qhit.GoalSubspace.from_vectors([[1, 0]])
    rho = np.diag([0.0, 1.0])
    # the rank rule flags its decision on I - S, whose smallest singular value
    # lies 1.6e-10 relative, just above the cut; the KSMH routes may refuse,
    # but a tau they report must agree
    with pytest.warns(RuntimeWarning, match="ambiguous"):
        assert qhit.diagnose(S).is_trace_preserving
        qhit.induce(S, V)  # same trace-preservation tolerance as the channel
        expected = 0.4 / (0.4 - 1.75e-10) ** 2
        for method in ("series", "analytic-K"):
            rep = qhit.tau_channel(S, V, rho, method)
            assert rep.ok and abs(rep.tau - expected) < 1e-12, method
        for method in ("ksmh-ginverse", "ksmh-group"):
            try:
                rep = qhit.tau_channel(S, V, rho, method)
            except NumericalError:
                continue
            assert not rep.ok or abs(rep.tau - expected) < 1e-8, method


def test_tau_channel_rejects_bad_inputs(sec5):
    with pytest.raises(ValueError):
        qhit.tau_channel(sec5["S"], sec5["V"], sec5["rho_phi"], "bogus")
    with pytest.raises(ValidationError):
        # state with support inside V
        qhit.tau_channel(sec5["S"], sec5["V"], np.outer(sec5["psi"], sec5["psi"]),
                         "series")


@pytest.mark.parametrize("method", ["series", "analytic-K", "ksmh-ginverse",
                                    "ksmh-group"])
def test_tau_channel_rejects_mis_sized_input(hadamard, method):
    # both are refused before any product of S with the state or the subspace
    S, V = hadamard["S"], hadamard["V"]
    with pytest.raises(ValidationError, match=r"2x2, got \(3, 3\)"):
        qhit.tau_channel(S, V, np.diag([0.0, 0.5, 0.5]), method)
    V3 = qhit.GoalSubspace.from_vectors([[1, 0, 0]])
    with pytest.raises(ValidationError, match="dimension 3"):
        qhit.tau_channel(S, V3, np.diag([0.0, 1.0]), method)


@pytest.mark.parametrize("method", ["series", "analytic-K", "ksmh-ginverse",
                                    "ksmh-group"])
def test_tau_channel_refuses_a_map_that_is_not_a_channel(sec5, method):
    # refused before any route runs: diag(0.5, 1, 1, 1) loses half the weight
    # of |0><0| (the analytic route once read tau = -8 from it), and
    # diag(1, i, 1, 1) keeps the trace but breaks Hermiticity
    V, rho = sec5["V"], sec5["rho_phi"]
    with pytest.raises(ValidationError, match="not trace preserving"):
        qhit.tau_channel(qhit.SuperOp(2, np.diag([0.5, 1, 1, 1])), V, rho, method)
    with pytest.raises(ValidationError, match="Hermiticity"):
        qhit.tau_channel(qhit.SuperOp(2, np.diag([1, 1j, 1, 1])), V, rho, method)


def test_spectral_decisions_run_in_real_arithmetic(monkeypatch):
    # Every eigenvalue problem and condition number, and the SVDs of
    # fixed_space, rank_with_margin and index, run on the real
    # Hermitian-basis form; the one complex SVD is group_inverse's, whose
    # kernel pair builds A^# that tau is read from.
    calls = []

    def recording(name, fn):
        def wrapped(a, *args, **kwargs):
            callers = {frame.function for frame in inspect.stack(0)[1:]}
            calls.append((name, np.asarray(a).dtype, callers))
            return fn(a, *args, **kwargs)
        return wrapped

    for name in ("eigvals", "svd", "cond"):
        monkeypatch.setattr(np.linalg, name, recording(name, getattr(np.linalg, name)))
    rng = np.random.default_rng(11)
    S = random_tp_channel(rng, 3)
    V = qhit.GoalSubspace.from_vectors([np.eye(3)[0]])
    rho = np.diag([0.0, 0.5, 0.5])
    for method in ("series", "analytic-K", "ksmh-ginverse", "ksmh-group"):
        assert qhit.tau_channel(S, V, rho, method).ok, method
    qhit.diagnose(S)

    real = np.dtype(np.float64)
    for name in ("eigvals", "cond"):
        dtypes = [dt for fn, dt, _ in calls if fn == name]
        assert dtypes and set(dtypes) == {real}, name
    svds = [(dt, callers) for fn, dt, callers in calls if fn == "svd"]
    for decision in ("fixed_space", "rank_with_margin", "index"):
        assert any(decision in callers for _, callers in svds), decision
    assert {dt for dt, callers in svds if "group_inverse" not in callers} == {real}
    assert any(dt == np.complex128 for dt, callers in svds
               if "group_inverse" in callers)


def test_ksmh_ginverse_refuses_reducible(hadamard):
    rep = qhit.tau_channel(hadamard["S"], hadamard["V"], hadamard["rho_phi"],
                           "ksmh-ginverse")
    assert not rep.ok
    assert rep.tau is None


def test_hadamard_group_route_tau(hadamard):
    rep = qhit.tau_channel(hadamard["S"], hadamard["V"], hadamard["rho_phi"],
                           "ksmh-group")
    assert rep.ok and abs(rep.tau - 2.0) < 1e-10


def test_general_hunter_with_fixed_map_correction(sec5):
    """The corrected kernel makes an arbitrary Hunter member give the same tau."""
    q = sec5["q"]
    ops = qhit.qmc_hitting_operators(q)
    omega = qhit.fixed_map(q)
    rng = np.random.default_rng(5)
    for _ in range(3):
        G = qhit.hunter_ginverse(q, t=rng.normal(size=8), u=rng.normal(size=8),
                                 f=rng.normal(size=8), g=rng.normal(size=8))
        kern = qhit.ksmh_kernel(q, ops.D, G, omega=omega)
        tau = qhit.tau_irreducible_qmc(q, kern, 0, 1, sec5["rho_phi"])
        assert abs(tau - 6.0) < 1e-8


def test_order4_quadratic_form(order4):
    """tau over superpositions of the non-goal basis states is the stated
    quadratic form in the amplitudes."""
    a4, b4, d4, cab, cad, cbd = ORDER4_QFORM
    rng = np.random.default_rng(11)
    for _ in range(5):
        a, b, d = rng.normal(size=3)
        norm = np.sqrt(a * a + b * b + d * d)
        a, b, d = a / norm, b / norm, d / norm
        psi = np.array([0.0, a, b, d])
        rho = np.outer(psi, psi)
        rep = qhit.tau_channel(order4["S"], order4["V"], rho, "ksmh-group")
        expect = (a4 * a * a + b4 * b * b + d4 * d * d
                  + cab * a * b + cad * a * d + cbd * b * d)
        assert rep.ok and abs(rep.tau - expect) < 1e-9


def test_order4_basis_taus(order4):
    for idx, expect in ((1, 4.0), (2, 6.0), (3, 10.0)):
        rho = np.zeros((4, 4))
        rho[idx, idx] = 1.0
        rep = qhit.tau_channel(order4["S"], order4["V"], rho, "ksmh-group")
        assert rep.ok and abs(rep.tau - expect) < 1e-9


def test_kernel_limit_study(rotation):
    T = rotation["S"]
    Mprime = make_sec6_T(0.5)
    V = rotation["V"]
    ps = (0.1, 1e-2, 1e-3, 1e-4, 1e-5)
    report = qhit.kernel_limit_study(Mprime, T, V, ps, rho=rotation["rho_phi"])
    # tau(p) = 4 / (1 - p + 2 p s) at s = 1/2 is constant 4
    for pt in report.points:
        assert abs(pt.tau - 4.0) < 1e-7
    assert report.g_norms_diverge
    assert abs(report.tau_direct - 4.0) < 1e-9
    assert np.max(np.abs(report.H0_direct - H0)) < 1e-9
    assert np.max(np.abs(report.H0_extrapolated - H0)) < 1e-5
    assert abs(report.tau_extrapolated - 4.0) < 1e-5
    assert report.extrapolation_defect < 1e-5


def test_kernel_limit_study_tau_formula():
    """tau of the randomization p T + (1-p) M'(s) is 4 / (1 - p + 2 p s)."""
    T = qhit.unitary_superop(np.array([[np.sqrt(3), -1], [1, np.sqrt(3)]]) / 2)
    V = qhit.GoalSubspace.from_vectors([[1, 0]])
    rho = np.diag([0.0, 1.0])
    for s in (0.25, 0.5, 0.75):
        Mprime = make_sec6_T(s)
        for p in (0.3, 0.6, 0.9):
            S = qhit.randomize(Mprime, T, p)
            rep = qhit.tau_channel(S, V, rho, "analytic-K")
            assert abs(rep.tau - 4.0 / (1 - p + 2 * p * s)) < 1e-9


def test_kernel_limit_study_rejects_bad_p(rotation):
    with pytest.raises(ValidationError):
        qhit.kernel_limit_study(make_sec6_T(0.5), rotation["S"], rotation["V"],
                                (0.0, 0.5))
