"""KSMH kernel assembly, route agreement and the kernel-limit study."""

import gc
import inspect
import json
import warnings
import weakref
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qhit
from conftest import (ROTATION_U, haar_unitary, make_sec6_T, random_goal_qubit,
                      random_irreducible_qubit, random_kraus, random_tp_channel,
                      site_projector)
from dense_oracles import first_step_operator_L
from expected_matrices import D_QMC, H0, HADAMARD_KERNEL, ORDER4_QFORM
from qhit.cli import load_spec, main, parse_channel, parse_subspace
from qhit.errors import (NotIrreducibleError, NumericalError,
                         SpectralObstructionError, ValidationError)
from qhit.matrep import vec_form
from qhit.qmc import site_slice
from qhit.tolerances import EIG_ONE_TOL, near_one

CORPUS = Path(__file__).parent / "corpus"

RNG = np.random.default_rng(99)


def test_qmc_hitting_operators_sec5(sec5):
    ops = qhit.qmc_hitting_operators(sec5["q"])
    assert ops.availability[0][0] and ops.availability[1][0]
    assert ops.fallback_sites == ()
    assert ops.D.dtype == np.float64  # a Hermitian-basis form
    assert np.max(np.abs(vec_form(ops.D, 2) - D_QMC)) < 1e-10


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
    """Reference K^(i) = Phi (I - Q_i Phi)^{-2} with a dense projector Q_i,
    in vec coordinates."""
    Phi = vec_form(q.real, q.k)
    Qi = np.eye(q.dim) - site_projector(q, i)
    eigvals = np.linalg.eigvals(Qi @ Phi)
    if any(abs(lam - 1.0) < EIG_ONE_TOL for lam in eigvals):
        return None
    M = np.linalg.inv(np.eye(q.dim) - Qi @ Phi)
    return Phi @ M @ M


@pytest.mark.parametrize("seed", range(12))
def test_principal_block_rule_matches_dense_projectors(seed):
    # seeds 0-5 are qubit sites, seeds 6-11 classical (k = 1) sites
    rng = np.random.default_rng(seed)
    n_sites = 2 + seed % 3
    absorbing = n_sites - 1 if seed % 2 else None
    q = _random_oqw(rng, n_sites, k=2 if seed < 6 else 1, absorbing=absorbing)
    ops = qhit.qmc_hitting_operators(q)
    for i in range(n_sites):
        ref = _dense_hitting_operator(q, i)
        assert ops.availability[i][0] == (ref is not None), i
        if ref is None:
            assert i not in ops.K_ops
        else:
            assert np.max(np.abs(vec_form(ops.K_ops[i], q.k) - ref)) < 1e-10
    if absorbing is not None:
        assert [ops.availability[i][0] for i in range(n_sites)] == \
            [i == absorbing for i in range(n_sites)]


def test_available_sites_invert_only_their_principal_block(monkeypatch, sec5,
                                                         hadamard, rotation):
    # each available site's K^(i) comes from the resolvent of the chain
    # without site i, of order (n_sites - 1) k^2, never from the full order;
    # an obstructed site's fallback (donor on hadamard, abel-return on
    # rotation) takes no inverse or SVD of the full order either
    cases = [(sec5["q"], ()),
             (_random_oqw(np.random.default_rng(5), 3, k=2), ()),
             (hadamard["q"], ((1, "donor-0"),)),
             (qhit.induce(rotation["S"], rotation["V"]), ((1, "abel-return"),))]
    orders = []

    def recording(call):
        def wrapper(a, *args, **kwargs):
            orders.append(np.shape(a)[0])
            return call(a, *args, **kwargs)
        return wrapper

    for name in ("inv", "svd"):
        monkeypatch.setattr(np.linalg, name, recording(getattr(np.linalg, name)))
    for q, fallback in cases:
        orders.clear()
        ops = qhit.qmc_hitting_operators(q)
        assert ops.fallback_sites == fallback
        principal = (q.n_sites - 1) * q.k**2
        if fallback:
            assert max(orders) == principal
        else:
            assert orders == [principal] * q.n_sites


def _isolated_absorbing_oqw(rng, n_sites: int, k: int) -> qhit.QMC:
    """Random OQW on sites 0..n_sites-2 plus an absorbing last site that no
    other site feeds: every site is obstructed, and returns to each are
    certain, so every site takes the abel-return fill."""
    m = n_sites - 1
    grid = [[np.zeros((k, k))] * n_sites for _ in range(n_sites)]
    for j in range(m):
        Z = rng.normal(size=(m * k, k)) + 1j * rng.normal(size=(m * k, k))
        Q, _ = np.linalg.qr(Z)
        for i in range(m):
            grid[i][j] = Q[i * k:(i + 1) * k]
    Z = rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k))
    grid[m][m] = np.linalg.qr(Z)[0]
    return qhit.from_oqw(grid)


def _full_order_abel(q: qhit.QMC, i: int):
    """Reference return block (Phi B^#)_ii and fill (Phi (B^#)^2)_ii from the
    group inverse of B = I - Q_i Phi at the chain's full order, in vec
    coordinates."""
    Phi = vec_form(q.real, q.k)
    Qi = np.eye(q.dim) - site_projector(q, i)
    Bsharp = qhit.group_inverse(np.eye(q.dim) - Qi @ Phi).Asharp
    sl = site_slice(i, q.k)
    row = Phi[sl] @ Bsharp
    return row[:, sl], row @ Bsharp[:, sl]


@pytest.mark.parametrize("case", ["rotation", *(f"fed-{s}" for s in range(4)),
                                  *(f"isolated-{s}" for s in range(4))])
def test_abel_fill_from_the_principal_block_matches_full_order(request, case):
    # Meyer-Rose: B^# = [[I, 0], [X, C^#]] with C = I - Phi_rr, so the Abel
    # fill needs only C's group inverse.  An absorbing site that the others
    # feed leaves their returns uncertain (donor fill); one they never feed
    # leaves every return certain (abel-return fill).
    if case == "rotation":
        fx = request.getfixturevalue("rotation")
        q, abel = qhit.induce(fx["S"], fx["V"]), True
    else:
        kind, seed = case.split("-")
        rng = np.random.default_rng(200 + int(seed))
        n_sites, k = 2 + int(seed) % 3, 2 if int(seed) < 2 else 1
        if kind == "fed":
            q, abel = _random_oqw(rng, n_sites, k=k, absorbing=0), False
        else:
            q, abel = _isolated_absorbing_oqw(rng, n_sites, k), True
    ops = qhit.qmc_hitting_operators(q)
    obstructed = [i for i in range(q.n_sites) if not ops.availability[i][0]]
    assert obstructed
    eIk = qhit.vec(np.eye(q.k))
    for i in obstructed:
        sl = site_slice(i, q.k)
        ref_ret, ref_fill = _full_order_abel(q, i)
        returns = np.max(np.abs(eIk.conj() @ ref_ret - eIk.conj())) < 1e-8
        assert returns == abel
        if abel:
            assert (i, "abel-return") in ops.fallback_sites
            assert np.max(np.abs(vec_form(ops.D, q.k)[sl, sl] - ref_fill)) <= 1e-10
        else:
            assert (i, "donor-0") in ops.fallback_sites


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


@pytest.mark.parametrize("U", [np.eye(2), np.array([[0, 1], [1, 0]]),
                               np.array([[1, 1], [1, -1]]) / np.sqrt(2)])
def test_a_one_site_chain_is_available_with_K_equal_to_phi(U):
    # removing the only site leaves an empty principal block: 1 is not in its
    # (empty) spectrum, and K^(0) = Phi (I - 0)^{-2} = Phi = D, in the
    # chain's Hermitian basis
    q = qhit.from_oqw([[U]])
    ops = qhit.qmc_hitting_operators(q)
    assert ops.availability == {0: (True, [])}
    assert ops.fallback_sites == ()
    assert np.array_equal(ops.K_ops[0], q.real) and np.array_equal(ops.D, q.real)


def _assert_sliced_spectra_decide_as_the_full_ones(S, V):
    # assumption one and both sites' availability read two blocks of S in a
    # frame adapted to V + V-perp; the full spectra of order n^2, of Q.Q S
    # and of (I - Q.Q) S, must give the same verdicts and near-one
    # eigenvalues.  d = n leaves the V-perp block empty
    n, d = S.dim, V.dim
    QQS = V.sandwich(S.mat)
    full = (np.linalg.eigvals(QQS), np.linalg.eigvals(S.mat - QQS))
    holds, eigs = qhit.assumption_one_holds(S, V)
    assert eigs.shape == ((n - d) ** 2,)
    ops = qhit.qmc_hitting_operators(qhit.induce(S, V))
    verdicts = (holds, ops.availability[0][0], ops.availability[1][0])
    assert verdicts == (not near_one(full[0]),) * 2 + (not near_one(full[1]),)
    for got, ref in ((near_one(eigs), full[0]), (ops.availability[0][1], full[0]),
                     (ops.availability[1][1], full[1])):
        left = near_one(ref)
        assert len(got) == len(left)
        for z in got:
            j = int(np.argmin([abs(z - w) for w in left]))
            assert abs(z - left.pop(j)) <= 1e-12


def _block_channel(rng, n: int, c: int, m: int) -> qhit.SuperOp:
    """Kraus operators A_i (+) B_i of random channels on C^c and C^(n-c)."""
    kraus = []
    for A, B in zip(random_kraus(rng, c, m), random_kraus(rng, n - c, m)):
        K = np.zeros((n, n), dtype=complex)
        K[:c, :c], K[c:, c:] = A, B
        kraus.append(K)
    return qhit.represent(qhit.KrausChannel(n, tuple(kraus)))


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(["random", "block", "rotated-block"]),
       st.integers(min_value=2, max_value=6), st.integers(min_value=1, max_value=6),
       st.integers(min_value=1, max_value=3), st.integers(min_value=0, max_value=2**31 - 1))
def test_sliced_spectra_decide_as_the_full_ones(kind, n, d, m, seed):
    # random channels, and block-reducible ones, plain or rotated by a Haar
    # unitary W; in the block channels V lies in the first block when it
    # fits, so a closed class in V-perp obstructs assumption one and site 0
    rng = np.random.default_rng(seed)
    d = min(d, n)
    basis = rng.normal(size=(n, d)) + 1j * rng.normal(size=(n, d))
    if kind == "random":
        S = random_tp_channel(rng, n, m)
    else:
        c = int(rng.integers(1, n))
        S = _block_channel(rng, n, c, m)
        if d <= c:
            basis[c:] = 0
        if kind == "rotated-block":
            W = haar_unitary(rng, n)
            S = qhit.SuperOp(n, np.kron(W, W.conj()) @ S.mat @ np.kron(W, W.conj()).conj().T)
            basis = W @ basis
    _assert_sliced_spectra_decide_as_the_full_ones(
        S, qhit.GoalSubspace.from_vectors(list(basis.T)))


@pytest.mark.parametrize("name", ["hadamard", "order4", "rotation", "hadamard_bad_alpha",
                                  "U3+U2"])
def test_sliced_spectra_decide_as_the_full_ones_on_named_channels(name):
    # U3 (+) U2 with V = span{e_0} has the dark subspace C^2 in V-perp
    if name == "rotation":
        S, V = qhit.unitary_superop(ROTATION_U), qhit.GoalSubspace.from_vectors([[1, 0]])
    elif name == "U3+U2":
        rng = np.random.default_rng(32)
        U = np.zeros((5, 5), dtype=complex)
        U[:3, :3], U[3:, 3:] = haar_unitary(rng, 3), haar_unitary(rng, 2)
        S, V = qhit.unitary_superop(U), qhit.GoalSubspace.from_vectors([np.eye(5)[0]])
    else:
        S, V = _corpus_problem(name)
    _assert_sliced_spectra_decide_as_the_full_ones(S, V)


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


@pytest.mark.parametrize("case", [*(f"random-{n}" for n in range(2, 9)),
                                  "sec5", "hadamard", "order4", "randomization",
                                  "goal2"])
def test_site0_block_is_the_V_side_of_analytic_K(request, case):
    # routes 3 and 4 read tau from D_00 = (I - Q.Q) S (I - Q.Q S)^{-2}, built
    # on the induced chain of order 2n^2; route 2 from K = S (I - Q.Q S)^{-2}
    # of analytic_HK, built at order n^2
    problems = (_induced_problems(case, request) if case.startswith("random-")
                else [_corpus_problem(case)])
    for S, V in problems:
        D = vec_form(qhit.qmc_hitting_operators(qhit.induce(S, V)).D, S.dim)
        ref = ((np.eye(S.dim**2) - np.kron(V.Q, V.Q.conj()))
               @ vec_form(qhit.analytic_HK(S, V).K, S.dim))
        D00 = D[site_slice(0, S.dim), site_slice(0, S.dim)]
        assert np.max(np.abs(D00 - ref)) <= 1e-12 * np.max(np.abs(ref))


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
                 else qhit.induced_group_inverse(q).Asharp)
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
        if q == 1e-6:
            # site 1 is obstructed, and the group inverse of its principal
            # block in the Abel fallback has a singular value near the cut
            with pytest.warns(RuntimeWarning, match="rank decision is ambiguous"):
                group = qhit.tau_channel(S, V, rho, "ksmh-group")
        else:
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


def _record_factorization_orders(monkeypatch) -> list:
    """The list that np.linalg's svd, inv, eigvals, eigvalsh and solve
    append the order of their matrix argument to, from now on."""
    orders = []
    for name in ("svd", "inv", "eigvals", "eigvalsh", "solve"):
        def recording(a, *args, _f=getattr(np.linalg, name), **kwargs):
            orders.append(np.shape(a)[0])
            return _f(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, recording)
    return orders


def test_ksmh_routes_factor_no_matrix_of_the_chains_order(monkeypatch):
    # both KSMH routes lift what they factor from S: no svd, inv, eigvals,
    # eigvalsh or solve of the induced chain's order 2n^2 on tau's path
    n = 5
    orders = _record_factorization_orders(monkeypatch)
    rng = np.random.default_rng(6)
    S = random_tp_channel(rng, n)
    V = qhit.GoalSubspace.from_vectors([np.eye(n)[0]])
    rho = np.diag([0.0] + [1.0 / (n - 1)] * (n - 1))
    for method in ("ksmh-ginverse", "ksmh-group"):
        orders.clear()
        assert qhit.tau_channel(S, V, rho, method).ok
        assert n * n in orders
        assert 2 * n * n not in orders, method


def _pairs(v) -> list:
    """A complex vector as the spec's [re, im] pairs."""
    return [[z.real, z.imag] for z in np.asarray(v, dtype=complex)]


@pytest.mark.parametrize("case", ["sec5", "goal2", "random-3"])
def test_inverse_constructors_factor_no_matrix_of_the_chains_order(monkeypatch,
                                                                   capsys,
                                                                   tmp_path, case):
    # each inverse of the induced chain has one constructor, lifted from S:
    # the library calls and `qhit ginverse` of either kind factor at order
    # n^2 only, the Hunter family whenever u and f repeat one block per site
    if case == "random-3":
        rng = np.random.default_rng(8)
        S = random_tp_channel(rng, 3)
        v = rng.normal(size=3) + 1j * rng.normal(size=3)
        V = qhit.GoalSubspace.from_vectors([v / np.linalg.norm(v)])
        spec = tmp_path / "random-3.json"
        spec.write_text(json.dumps({
            "kind": "superop", "superop": [_pairs(row) for row in S.mat],
            "subspace": [_pairs(v)]}))
    else:
        S, V = _corpus_problem(case)
        spec = CORPUS / f"{case}.json"
    n2 = S.dim**2
    rng = np.random.default_rng(9)
    # columns t and g of the chain's length, rows u and f one block of S's
    t, g, u, f = (rng.normal(size=m) + 1j * rng.normal(size=m)
                  for m in (2 * n2, 2 * n2, n2, n2))
    cli = ["ginverse", str(spec), "--json", "--kind"]
    calls = {
        "hunter_special": qhit.hunter_special,
        "hunter_ginverse": lambda q: qhit.hunter_ginverse(
            q, t=t, u=np.tile(u, 2), f=np.tile(f, 2), g=g),
        "induced_group_inverse": qhit.induced_group_inverse,
        "stationary_density": qhit.stationary_density,
        "fixed_map": qhit.fixed_map,
        "qmc_hitting_operators": qhit.qmc_hitting_operators,
        "ginverse --kind group": lambda q: main([*cli, "group"]) == 0,
        "ginverse --kind hunter": lambda q: main([*cli, "hunter"]) == 0,
        "ginverse --kind hunter --t --g": lambda q: main(
            [*cli, "hunter", "--t", json.dumps(_pairs(t)), "--g", json.dumps(_pairs(g))]
        ) == 0,
    }
    orders = _record_factorization_orders(monkeypatch)
    for name, call in calls.items():
        # a fresh chain of a fresh S: the cut of the fixed space is kept per
        # S, so a chain of the same S would read the last call's
        q = qhit.induce(qhit.SuperOp(S.dim, S.mat), V)
        orders.clear()
        assert call(q) is not False, name  # the CLI exits 0
        assert capsys.readouterr().err == ""
        assert n2 in orders and 2 * n2 not in orders, name


def test_hadamard_site1_obstructed_donor_fallback(hadamard):
    ops = qhit.qmc_hitting_operators(hadamard["q"])
    assert ops.availability[0][0]
    assert not ops.availability[1][0]
    assert ops.fallback_sites == ((1, "donor-0"),)
    # K_block raises for the obstructed site
    with pytest.raises(SpectralObstructionError):
        ops.K_block(1, 0)


def test_k_block_of_an_available_site_is_the_dense_block(sec5, hadamard):
    # block (i, j) of K^(i) = Phi (I - Q_i Phi)^{-2}, taken with dense projectors
    for q in (sec5["q"], hadamard["q"]):
        ops = qhit.qmc_hitting_operators(q)
        ref = _dense_hitting_operator(q, 0)
        for j in range(q.n_sites):
            block = ref[site_slice(0, q.k), site_slice(j, q.k)]
            assert np.max(np.abs(vec_form(ops.K_block(0, j), q.k) - block)) < 1e-12, j


def test_abel_fill_falls_back_to_the_donor_when_the_group_inverse_fails(monkeypatch,
                                                                      rotation):
    # rotation's site 1 takes the abel-return fill; when the principal
    # block's group inverse refuses, block (1, 1) is the donor's
    def refuse(A):
        raise qhit.errors.NoGroupInverseError("stand-in refusal")
    q = qhit.induce(rotation["S"], rotation["V"])
    monkeypatch.setattr(qhit.ginverse, "group_inverse", refuse)
    ops = qhit.qmc_hitting_operators(q)
    assert ops.fallback_sites == ((1, "donor-0"),)
    sl = site_slice(1, q.k)
    assert np.array_equal(ops.D[sl, sl], ops.K_ops[0][sl, sl])


def test_rotation_site1_obstructed_abel_fallback(rotation):
    q = qhit.induce(rotation["S"], rotation["V"])
    ops = qhit.qmc_hitting_operators(q)
    assert not ops.availability[1][0]
    assert ops.fallback_sites == ((1, "abel-return"),)
    # the recovered D block reproduces the bottom-right block of the limit kernel
    kern = qhit.ksmh_kernel(
        q, ops.D, qhit.group_inverse(np.eye(q.dim) - q.real).Asharp)
    assert np.max(np.abs(vec_form(kern, q.k) - H0)) < 1e-9


def test_hadamard_kernel_matches_printed(hadamard):
    q = hadamard["q"]
    ops = qhit.qmc_hitting_operators(q)
    G = qhit.group_inverse(np.eye(q.dim) - q.real).Asharp
    kern = qhit.ksmh_kernel(q, ops.D, G)
    assert np.max(np.abs(vec_form(kern, q.k) - HADAMARD_KERNEL)) < 1e-10


def test_tau_irreducible_qmc_sec5(sec5):
    q = sec5["q"]
    ops = qhit.qmc_hitting_operators(q)
    kern = qhit.ksmh_kernel(q, ops.D, qhit.hunter_special(q))
    tau = qhit.tau_irreducible_qmc(q, kern, 0, 1, sec5["rho_phi"])
    assert abs(tau - 6.0) < 1e-10


def test_a_hermitian_unit_trace_matrix_with_a_negative_eigenvalue_is_refused():
    # rho = diag(0, 3/2, -1/2) has the right shape, trace 1 and support in
    # V-perp: only the PSD test of is_density refuses it, at every entry
    S = random_tp_channel(np.random.default_rng(23), 3)
    V = qhit.GoalSubspace.from_vectors([np.eye(3)[0]])
    rho = np.diag([0.0, 1.5, -0.5])
    assert V.contains_perp(rho)
    for method in qhit.ksmh.METHODS:
        with pytest.raises(ValidationError, match="initial state must be a density"):
            qhit.tau_channel(S, V, rho, method)
    with pytest.raises(ValidationError, match="not a density matrix"):
        qhit.tau_from_K(qhit.analytic_HK(S, V), rho)
    with pytest.raises(ValidationError, match="initial state must be a density"):
        qhit.first_visit_series(S, V, rho)


def test_tau_irreducible_qmc_validates_density_shape(sec5):
    q = sec5["q"]
    ops = qhit.qmc_hitting_operators(q)
    kern = qhit.ksmh_kernel(q, ops.D, qhit.hunter_special(q))
    with pytest.raises(ValidationError):
        qhit.tau_irreducible_qmc(q, kern, 0, 1, np.eye(3))


def test_tau_irreducible_qmc_refuses_a_kernel_without_the_chains_grid(sec5):
    # sec5's chain has order 8; the parent's matmul died on a 4 x 4 kernel
    with pytest.raises(ValidationError, match=r"shape \(4, 4\) lacks the 2x2 grid"):
        qhit.tau_irreducible_qmc(sec5["q"], np.eye(4), 0, 1, np.eye(2) / 2)


def test_tau_irreducible_qmc_refuses_a_non_hermitian_block_or_state(sec5):
    # tau is read from the block, a Hermitian-basis form, and the coordinates
    # of rho_j, so a complex block (its map does not preserve Hermiticity)
    # and a non-Hermitian rho_j are refused by the one Hermiticity rule
    q = sec5["q"]
    kern = np.eye(q.dim, dtype=complex)
    kern[site_slice(0, 2), site_slice(1, 2)] = np.diag([1, 1j, 1, 1])
    with pytest.raises(ValidationError, match="Hermiticity"):
        qhit.tau_irreducible_qmc(q, kern, 0, 1, sec5["rho_phi"])
    with pytest.raises(ValidationError, match="not Hermitian"):
        qhit.tau_irreducible_qmc(q, np.eye(q.dim), 0, 1, [[0.5, 0.5], [0, 0.5]])


def test_a_density_is_read_through_its_hermitian_part_on_every_route():
    # a Hermiticity defect of 5e-9 passes is_density (STATE_TOL) but would
    # fail the coordinates' HP_TOL rule: every route reads the Hermitian
    # part, so no second Hermiticity rule refuses the density
    S = random_tp_channel(np.random.default_rng(0), 3)
    V = qhit.GoalSubspace.from_vectors([np.eye(3)[0]])
    bent = np.diag([0.0, 0.5, 0.5]).astype(complex)
    bent[1, 2] = 5e-9j
    assert qhit.is_density(bent)
    part = qhit.channel.hermitize(bent)
    for method in qhit.ksmh.METHODS:
        assert (qhit.tau_channel(S, V, bent, method).tau
                == qhit.tau_channel(S, V, part, method).tau), method
    maps = qhit.analytic_HK(S, V)
    assert qhit.tau_from_K(maps, bent) == qhit.tau_from_K(maps, part)


def test_first_step_operator_traces(sec5):
    q = sec5["q"]
    ops = qhit.qmc_hitting_operators(q)
    L = first_step_operator_L(q, ops)
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
        first_step_operator_L(q, ops)


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


def _near_tp_mixture() -> tuple:
    """Amplitude damping (gamma = 0.3) with K0 scaled by sqrt(1 + 5e-10),
    mixed 1:1 with Hadamard, with V = span |0>: (S, V)."""
    gamma = 0.3
    K0 = np.sqrt(1 + 5e-10) * np.diag([1.0, np.sqrt(1 - gamma)])
    K1 = np.array([[0.0, np.sqrt(gamma)], [0.0, 0.0]])
    AD = qhit.represent(qhit.KrausChannel(2, (K0, K1)))
    H = qhit.unitary_superop(np.array([[1, 1], [1, -1]]) / np.sqrt(2))
    return qhit.randomize(AD, H, 0.5), qhit.GoalSubspace.from_vectors([[1, 0]])


def test_near_trace_preserving_channel_on_four_routes():
    # the mixture of _near_tp_mixture has TP defect 2.5e-10, which the channel
    # accepts and the induced chain inherits exactly.  From |1> each step hits
    # |0> with probability p = 0.4 and keeps mass s = 0.6 + 1.75e-10 on |1>,
    # so tau = p / (1 - s)^2.
    S, V = _near_tp_mixture()
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
            rep = qhit.tau_channel(S, V, rho, method)
            assert not rep.ok or abs(rep.tau - expected) < 1e-8, method


def _states_in_perp(rng, V, count: int = 2) -> list:
    """Random mixed densities supported in V-perp."""
    n = V.ambient_dim
    out = []
    for _ in range(count):
        X = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        rho = V.Q @ X @ X.conj().T @ V.Q
        rho = (rho + rho.conj().T) / 2
        out.append(rho / np.trace(rho).real)
    return out


def _route_outcome(S, V, rho, method) -> tuple:
    """Everything a route reports, compared bit for bit by repr."""
    rep = qhit.tau_channel(S, V, rho, method)
    return (repr(rep.tau), rep.ok, rep.detail, repr(rep.preconditions))


def _fresh(S, V) -> tuple:
    return (qhit.SuperOp(S.dim, S.mat.copy()),
            qhit.GoalSubspace(V.ambient_dim, V.basis.copy()))


def _record_problems() -> list:
    """(label, S, V, two states): random channels n = 2..6 with a random goal
    line, four corpus specs, and the near trace-preserving mixture."""
    rng = np.random.default_rng(31)
    problems = []
    for n in range(2, 7):
        v = rng.normal(size=n) + 1j * rng.normal(size=n)
        problems.append((f"random-{n}", random_tp_channel(rng, n),
                         qhit.GoalSubspace.from_vectors([v])))
    for name in ("sec5", "hadamard", "order4", "goal2"):
        problems.append((name, *_corpus_problem(name)))
    problems.append(("near-tp", *_near_tp_mixture()))
    return [(label, S, V, _states_in_perp(rng, V)) for label, S, V in problems]


def test_shared_record_reports_the_same_bits_as_fresh_objects():
    # every route from two states on the same (S, V) objects reads one record
    # per problem; the same calls on fresh copies of S and V rebuild it every
    # time.  Outcomes agree bit for bit, refusals included.  The problems run
    # one after another, and sec5 and hadamard share their shapes, so a
    # record keyed on anything weaker than identity would hand one problem's
    # work to the next.
    problems = _record_problems()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # near-tp's rank rule
        shared = [_route_outcome(S, V, rho, m) for _, S, V, states in problems
                  for rho in states for m in qhit.ksmh.METHODS]
        fresh = [_route_outcome(*_fresh(S, V), rho, m) for _, S, V, states in problems
                 for rho in states for m in qhit.ksmh.METHODS]
    assert shared == fresh
    labels = [label for label, *_ in problems for _ in range(8)]
    assert any(label == "near-tp" and "violates A G A = A" in out[2]
               for label, out in zip(labels, shared))  # near-tp's KSMH refusal
    assert {label for label, out in zip(labels, shared) if out[1] is False} >= {
        "hadamard", "order4"}  # the ksmh-ginverse refusals


def test_alternating_problems_of_equal_shape_keep_their_own_records():
    # two channels of one dimension with goal lines, solved in turn: each
    # call replaces the held record by the other problem's.  The reference
    # solves fresh copies of each problem alone, after a problem of another
    # dimension, so that no record of either is held when it starts.
    rng = np.random.default_rng(32)
    pair = []
    for _ in range(2):
        S = random_tp_channel(rng, 3)
        V = qhit.GoalSubspace.from_vectors([rng.normal(size=3)])
        pair.append((S, V, _states_in_perp(rng, V)))
    other = (random_tp_channel(rng, 2), qhit.GoalSubspace.from_vectors([[1, 0]]),
             np.diag([0.0, 1.0]), "analytic-K")

    def alone(S, V, rho, m):
        _route_outcome(*other)
        return _route_outcome(*_fresh(S, V), rho, m)

    for j in range(2):
        for m in qhit.ksmh.METHODS:
            expected = [alone(S, V, states[j], m) for S, V, states in pair]
            alternating = [_route_outcome(S, V, states[j], m) for S, V, states in pair]
            assert alternating == expected, (j, m)
            assert alternating[0] != alternating[1]


def _modules_binding(name: str) -> list:
    """The qhit modules that bind ``name``, where a spy must be installed to
    see every call."""
    return [m for m in (qhit.channel, qhit.ginverse, qhit.hitting, qhit.ksmh,
                        qhit.monitor, qhit.qmc, qhit.cli) if hasattr(m, name)]


def test_one_problem_runs_each_factorization_once(monkeypatch):
    # one (S, V) from two states through the four routes: the record builds
    # each rho-independent result once, and one kernel per KSMH route.  The
    # records of S and of (S, V) below it make one eigensolve of each sliced
    # block (assumption one and site 0 read the V-perp block, site 1 its
    # complement) and one of order n^2 (diagnose's peripheral spectrum), one
    # real form of S, the record's, and one SVD of order n^2, with vectors,
    # of its I - R: rank_with_margin, index, fixed_space and group_inverse
    # each run once and share it.  Of the four inverses of order n^2 (the
    # resolvent of I - M, site 1's, the group inverse's LU and the Hunter
    # member's W) one is of I - M, which analytic-K and site 0 both read
    counts = Counter()

    def count(module, name):
        fn = getattr(module, name)

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)

    for name in ("induce", "analytic_HK", "qmc_hitting_operators", "diagnose",
                 "induced_group_inverse", "ksmh_kernel"):
        count(qhit.ksmh, name)
    for name in ("hunter_special", "fixed_space", "rank_with_margin", "index",
                 "group_inverse"):
        count(qhit.ginverse, name)
    eig_orders, svds, inverses = [], [], []

    def eigvals(a, _f=np.linalg.eigvals):
        eig_orders.append(np.shape(a)[0])
        return _f(a)

    def svd(a, *args, _f=np.linalg.svd, **kwargs):
        svds.append((np.shape(a), kwargs.get("compute_uv", True)))
        return _f(a, *args, **kwargs)

    def inv(a, _f=np.linalg.inv):
        inverses.append(np.array(a))
        return _f(a)
    monkeypatch.setattr(np.linalg, "eigvals", eigvals)
    monkeypatch.setattr(np.linalg, "svd", svd)
    monkeypatch.setattr(np.linalg, "inv", inv)
    rng = np.random.default_rng(33)
    n = 4
    S = random_tp_channel(rng, n)
    V = qhit.GoalSubspace.from_vectors([rng.normal(size=n)])
    real_forms_of_S = []
    for module in _modules_binding("real_form"):
        def real_form(M, k, _f=module.real_form, _name=module.__name__):
            if np.shape(M) == S.mat.shape and np.array_equal(M, S.mat):
                real_forms_of_S.append(_name)
            return _f(M, k)
        monkeypatch.setattr(module, "real_form", real_form)
    for rho in _states_in_perp(rng, V):
        for m in qhit.ksmh.METHODS:
            assert qhit.tau_channel(S, V, rho, m).ok, m
    assert counts == {"induce": 1, "analytic_HK": 1, "qmc_hitting_operators": 1,
                      "diagnose": 1, "hunter_special": 1,
                      "induced_group_inverse": 1, "ksmh_kernel": 2,
                      "fixed_space": 1, "rank_with_margin": 1, "index": 1,
                      "group_inverse": 1}
    assert sorted(eig_orders) == sorted([(n - 1) ** 2, 2 * n - 1, n * n])
    assert real_forms_of_S == ["qhit.channel"], real_forms_of_S
    assert [s for s in svds if s[0][0] >= n * n] == [((n * n, n * n), True)]
    I_M = np.eye(n * n) - qhit.channel._goal_record(S, V).M
    assert [a.shape for a in inverses if a.shape[0] >= n * n] == [(n * n, n * n)] * 4
    assert sum(np.array_equal(a, I_M) for a in inverses) == 1


def test_a_second_state_forms_no_real_form(monkeypatch):
    # the per-state reads take no real form: the KSMH routes read tau from
    # the kernel block itself, a Hermitian-basis form, between the
    # coordinates of I and of rho; the series and analytic-K read records
    rng = np.random.default_rng(35)
    n = 4
    S = random_tp_channel(rng, n)
    V = qhit.GoalSubspace.from_vectors([rng.normal(size=n)])
    first, second = _states_in_perp(rng, V)
    for m in qhit.ksmh.METHODS:
        assert qhit.tau_channel(S, V, first, m).ok, m
    calls = []
    for module in (qhit.matrep, *_modules_binding("real_form")):
        def real_form(M, k, _f=module.real_form, _name=module.__name__):
            calls.append((_name, np.shape(M)))
            return _f(M, k)
        monkeypatch.setattr(module, "real_form", real_form)
    for m in qhit.ksmh.METHODS:
        assert qhit.tau_channel(S, V, second, m).ok, m
    assert calls == []


def test_a_fresh_solve_factors_in_real_arithmetic_and_maps_no_chain_matrix(monkeypatch):
    # every np.linalg call on a matrix of order >= n^2 gets a float64 array
    # (calls on states and bases, of order n, are exempt); nothing is mapped
    # to vec coordinates on the way to tau, as analytic-K's K and the KSMH
    # artifacts stay Hermitian-basis forms; and the induced chain is handed
    # one float64 map of order 2n^2, so no complex array of its order is built
    n = 3
    rng = np.random.default_rng(36)
    S = random_tp_channel(rng, n)
    V = qhit.GoalSubspace.from_vectors([rng.normal(size=n) + 1j * rng.normal(size=n)])
    linalg_calls, converted, chains = [], [], []

    def recording(name, fn):
        def wrapped(*args, **kwargs):
            for a in (*args, *kwargs.values()):
                if isinstance(a, np.ndarray) and a.ndim >= 2:
                    linalg_calls.append((name, a.shape, a.dtype))
            return fn(*args, **kwargs)
        return wrapped

    for name in ("svd", "inv", "eigvals", "eigvalsh", "eig", "solve", "cond",
                 "norm", "qr", "pinv", "lstsq", "det", "matrix_rank", "matrix_power"):
        monkeypatch.setattr(np.linalg, name, recording(name, getattr(np.linalg, name)))
    for module in (qhit.matrep, *_modules_binding("vec_form")):
        def vec_form(C, k, _f=module.vec_form):
            converted.append(np.shape(C))
            return _f(C, k)
        monkeypatch.setattr(module, "vec_form", vec_form)

    def chain(self, *args, _init=qhit.QMC.__init__, **kwargs):
        chains.append([(a.shape, a.dtype) for a in (*args, *kwargs.values())
                       if isinstance(a, np.ndarray)])
        _init(self, *args, **kwargs)

    monkeypatch.setattr(qhit.QMC, "__init__", chain)
    for rho in _states_in_perp(rng, V):
        for m in qhit.ksmh.METHODS:
            assert qhit.tau_channel(S, V, rho, m).ok, m
    big = [(name, shape, dt) for name, shape, dt in linalg_calls
           if min(shape[-2:]) >= n * n]
    assert {name for name, _, _ in big} >= {"svd", "inv", "eigvals", "cond"}
    assert {dt for _, _, dt in big} == {np.dtype(np.float64)}, big
    assert converted == [], converted
    assert chains == [[((2 * n * n, 2 * n * n), np.dtype(np.float64))]], chains


@pytest.mark.parametrize("case", ["sec5", "goal2", "random-3", "random-4"])
def test_tau_read_in_vec_coordinates_from_the_kernel_matches(case):
    # <vec I| K_01 |vec rho> from the kernel mapped to vec coordinates is
    # the tau that the route reads in the Hermitian basis
    if case.startswith("random-"):
        n = int(case.split("-")[1])
        rng = np.random.default_rng(37 + n)
        S = random_tp_channel(rng, n)
        V = qhit.GoalSubspace.from_vectors([rng.normal(size=n) + 1j * rng.normal(size=n)])
        rho = _states_in_perp(rng, V, 1)[0]
    else:
        S, V = _corpus_problem(case)
        rho = V.Q / np.trace(V.Q).real
    n = S.dim
    for m in ("ksmh-ginverse", "ksmh-group"):
        rep = qhit.tau_channel(S, V, rho, m)
        assert rep.ok and rep.artifacts["kernel"].dtype == np.float64, m
        K01 = vec_form(rep.artifacts["kernel"], n)[site_slice(0, n), site_slice(1, n)]
        tau = np.vdot(qhit.vec(np.eye(n)), K01 @ qhit.vec(rho))
        assert abs(tau - rep.tau) <= 1e-13 * rep.tau, m


def test_record_key_objects_are_read_only_and_one_problem_is_held():
    rng = np.random.default_rng(34)
    S = random_tp_channel(rng, 3)
    V = qhit.GoalSubspace.from_vectors([rng.normal(size=3)])
    for arr in (S.mat, V.basis, V.P, V.Q):
        with pytest.raises(ValueError, match="read-only"):
            arr[0, 0] = 0
    # the caller's own complex128 array is copied, not frozen or aliased
    own = S.mat.copy()
    basis = np.eye(3, 1, dtype=np.complex128)
    T, W = qhit.SuperOp(3, own), qhit.GoalSubspace(3, basis)
    own[0, 0] = basis[0, 0] = 7.0
    assert T.mat[0, 0] == S.mat[0, 0] and W.basis[0, 0] == 1.0
    # the artifacts that the held record hands out are read-only too
    rho = _states_in_perp(rng, V, 1)[0]
    rep = qhit.tau_channel(S, V, rho, "ksmh-group")
    for arr in (rep.artifacts["qmc"].real, rep.artifacts["D"], rep.artifacts["G"],
                rep.artifacts["kernel"]):
        assert not arr.flags.writeable
    # the record holds its problem until another is solved, and then only that
    ref = weakref.ref(S)
    del S, rep
    gc.collect()
    assert ref() is not None
    assert qhit.tau_channel(T, W, np.diag([0.0, 0.5, 0.5]), "analytic-K").ok
    gc.collect()
    assert ref() is None


def _value_objects() -> dict:
    """Name -> builder of one object of each array-holding value type; two
    calls build equal arrays in distinct objects."""
    S = qhit.unitary_superop(np.array([[0, 1], [1, 0]]))
    V = qhit.GoalSubspace.from_vectors([[1, 0]])
    q = qhit.induce(S, V)
    kernel = np.eye(2)
    return {
        "SuperOp": lambda: qhit.identity_superop(2),
        "GoalSubspace": lambda: qhit.GoalSubspace.from_vectors([[1, 0]]),
        "KrausChannel": lambda: qhit.KrausChannel.from_unitary(np.eye(2)),
        "GroupInverse": lambda: qhit.group_inverse(np.diag([1.0, 0.0])),
        "QmcHittingOperators": lambda: qhit.qmc_hitting_operators(q),
        "KernelLimitPoint": lambda: qhit.ksmh.KernelLimitPoint(0.5, 1.0, 1.0, kernel),
        "KernelLimitReport": lambda: qhit.ksmh.KernelLimitReport(
            (), kernel, 1.0, kernel, 1.0, 0.0, False),
        "HittingMaps": lambda: qhit.analytic_HK(S, V),
    }


@pytest.mark.parametrize("name", [
    "GoalSubspace", "GroupInverse", "HittingMaps", "KernelLimitPoint",
    "KernelLimitReport", "KrausChannel", "QmcHittingOperators", "SuperOp"])
def test_value_types_compare_and_hash_by_identity(name):
    # equality on array fields would raise ("truth value of an array is
    # ambiguous"), and so would the hash of a frozen dataclass
    build = _value_objects()[name]
    a, b = build(), build()
    assert a != b and not a == b
    assert a == a
    keyed = {a: 1, b: 2}
    assert keyed[a] == 1 and keyed[b] == 2


def test_reports_compare_and_hash_by_identity(sec5):
    # two reports of one solve, and of fresh copies of its problem: each
    # holds arrays, which value equality would compare elementwise and raise
    S, V, rho = sec5["S"], sec5["V"], sec5["rho_phi"]
    for m in qhit.ksmh.METHODS:
        for a, b in ((qhit.tau_channel(S, V, rho, m), qhit.tau_channel(S, V, rho, m)),
                     (qhit.tau_channel(*_fresh(S, V), rho, m),
                      qhit.tau_channel(*_fresh(S, V), rho, m))):
            assert a.ok and a.artifacts, m
            assert a != b and not a == b, m
            assert a == a and b == b, m
            assert {a: 1, b: 2}[b] == 2


def test_refusals_are_typed_and_carry_their_evidence():
    S, V = _corpus_problem("hadamard_bad_alpha")
    rho = qhit.pure_density(
        load_spec(str(CORPUS / "hadamard_bad_alpha.json"))["initial_state"])
    for m in ("analytic-K", "ksmh-ginverse", "ksmh-group"):
        rep = qhit.tau_channel(S, V, rho, m)
        assert isinstance(rep.refusal, SpectralObstructionError), m
        assert rep.refusal.eigenvalues and not rep.ok and rep.tau is None, m
        assert rep.detail == str(rep.refusal)
    assert rep.detail == "1 lies in the spectrum of Q_0 Phi (equivalently of Q.T)"
    assert qhit.tau_channel(S, V, rho, "analytic-K").detail == (
        "1 lies in the spectrum of Q.T")
    # analytic-K returns the refusal that building K raised
    with pytest.raises(SpectralObstructionError) as raised:
        qhit.analytic_HK(S, V)
    refusal = qhit.tau_channel(S, V, rho, "analytic-K").refusal
    assert str(raised.value) == str(refusal)
    assert raised.value.eigenvalues == refusal.eigenvalues
    assert refusal.__traceback__ is None
    # a refusal raised while an inverse is built is returned with the
    # preconditions found before it
    S, V = _near_tp_mixture()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # the rank rule
        rep = qhit.tau_channel(S, V, np.diag([0.0, 1.0]), "ksmh-group")
    assert isinstance(rep.refusal, NumericalError)
    assert rep.refusal.__traceback__ is None
    assert rep.detail == "group inverse candidate violates A G A = A"
    assert rep.preconditions == {"site0_operator_available": True,
                                 "site1_operator_available": True}


@pytest.mark.parametrize("i,j", [(5, 0), (0, 3), (-1, 1)])
def test_site_indices_outside_the_chain_are_refused(sec5, i, j):
    q = sec5["q"]
    ops = qhit.qmc_hitting_operators(q)
    kern = qhit.ksmh_kernel(q, ops.D, qhit.induced_group_inverse(q).Asharp)
    bad = i if not 0 <= i < 2 else j
    with pytest.raises(ValidationError, match=rf"site {bad} is not in 0\.\.1"):
        ops.K_block(i, j)
    with pytest.raises(ValidationError, match=rf"site {bad} is not in 0\.\.1"):
        qhit.tau_irreducible_qmc(q, kern, i, j, sec5["rho_phi"])


def test_ksmh_kernel_refuses_matrices_off_the_chain_grid(sec5):
    q = sec5["q"]
    with pytest.raises(ValidationError, match="lacks the 2x2 grid of order-4 blocks"):
        qhit.ksmh_kernel(q, np.eye(4), np.eye(8))


def test_tau_channel_returns_a_series_that_does_not_converge(monkeypatch, sec5):
    # the series doubles its terms, so it gives up at 4, the first power of
    # two past the cap of 3
    monkeypatch.setattr(qhit.monitor, "MAX_STEPS", 3)
    rep = qhit.tau_channel(sec5["S"], sec5["V"], sec5["rho_phi"], "series")
    assert isinstance(rep.refusal, NumericalError)
    assert rep.detail == "series did not converge in 4 terms"
    assert rep.preconditions["series_converged"] is False
    assert rep.artifacts["series"].truncated_at == 4


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
    # Every eigenvalue problem and condition number, and the one SVD of
    # order n^2 that fixed_space, rank_with_margin, index and group_inverse
    # share, run on the real Hermitian-basis form, and so do every inverse
    # and the arrays the series sums.  One SVD is complex: from_vectors',
    # whose input is the n x d matrix of spanning vectors, not a map.
    calls = []
    series_args = []
    decided = {}
    run_series = qhit.monitor._run_series

    def spy(*args):
        series_args.append(args)
        return run_series(*args)

    def recording(name, fn):
        def wrapped(a, *args, **kwargs):
            callers = {frame.function for frame in inspect.stack(0)[1:]}
            calls.append((name, np.asarray(a).dtype, np.shape(a), callers))
            return fn(a, *args, **kwargs)
        return wrapped

    def deciding(name, fn):
        def wrapped(a, *args):
            decided.setdefault(name, []).append(a)
            return fn(a, *args)
        return wrapped

    for name in ("eigvals", "svd", "cond", "inv"):
        monkeypatch.setattr(np.linalg, name, recording(name, getattr(np.linalg, name)))
    for name in ("fixed_space", "rank_with_margin", "index", "group_inverse"):
        monkeypatch.setattr(qhit.ginverse, name,
                            deciding(name, getattr(qhit.ginverse, name)))
    monkeypatch.setattr(qhit.monitor, "_run_series", spy)
    rng = np.random.default_rng(11)
    S = random_tp_channel(rng, 3)
    V = qhit.GoalSubspace.from_vectors([np.eye(3)[0]])
    rho = np.diag([0.0, 0.5, 0.5])
    for method in ("series", "analytic-K", "ksmh-ginverse", "ksmh-group"):
        assert qhit.tau_channel(S, V, rho, method).ok, method
    qhit.diagnose(S)

    real = np.dtype(np.float64)
    for name in ("eigvals", "cond"):
        dtypes = [dt for fn, dt, _, _ in calls if fn == name]
        assert dtypes and set(dtypes) == {real}, name
    svds = [(dt, shape, callers) for fn, dt, shape, callers in calls if fn == "svd"]
    assert [shape for _, shape, callers in svds if "from_vectors" in callers] == [(3, 1)]
    assert {dt for dt, _, callers in svds if "from_vectors" not in callers} == {real}
    # the one SVD of order n^2 is of the I - R that S's record keeps, taken
    # by the first decision, diagnose's index; the other decisions are
    # passed that same matrix and read the cut it keeps
    assert [(dt, "index" in callers) for dt, shape, callers in svds
            if shape == (9, 9)] == [(real, True)]
    A = qhit.channel._channel_record(S).A
    assert A.dtype == real
    for decision in ("fixed_space", "rank_with_margin", "index", "group_inverse"):
        assert decided.get(decision) and all(a is A for a in decided[decision]), decision
    assert [(dt, shape) for fn, dt, shape, callers in calls
            if fn == "inv" and "analytic_HK" in callers] == [(real, (9, 9))]
    assert {dt for fn, dt, _, _ in calls if fn == "inv"} == {real}
    assert len(series_args) == 1
    assert [a.dtype for a in series_args[0]] == [real] * 4


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
    assert np.max(np.abs(vec_form(report.H0_direct, 2) - H0)) < 1e-9
    assert np.max(np.abs(vec_form(report.H0_extrapolated, 2) - H0)) < 1e-5
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


def test_kernel_limit_study_refuses_an_obstructed_limit():
    # sec5 mixed into the Hadamard walk with V at the obstructed angle: every
    # p > 0 has a finite tau, but the p = 0 limit has 1 in the spectrum of
    # Q.T, so the limit's route refuses rather than reading a zero block
    T, _ = _corpus_problem("sec5")
    Mprime, V = _corpus_problem("hadamard_bad_alpha")
    rho = load_spec(str(CORPUS / "hadamard_bad_alpha.json"))["initial_state"]
    rho = qhit.pure_density(rho)
    with pytest.raises(SpectralObstructionError, match="p = 0: 1 lies in the spectrum"):
        qhit.kernel_limit_study(T, Mprime, V, (0.1, 0.01, 0.001), rho=rho)


def test_kernel_limit_study_refuses_a_mixture_that_is_not_irreducible():
    # at p = 1 goal2's mixture is its left unitary, whose Hunter g-inverse
    # does not exist; the study refuses as ksmh-ginverse does
    spec = load_spec(str(CORPUS / "goal2.json"))
    S = parse_channel(spec["mix"]["left"])
    Mprime = parse_channel(spec["mix"]["right"])
    V = parse_subspace(spec["subspace"], S.dim)
    with pytest.raises(NotIrreducibleError, match="p = 1.0: channel is not irreducible"):
        qhit.kernel_limit_study(S, Mprime, V, (1,))


def test_kernel_limit_study_refuses_a_p_that_is_not_a_number(rotation):
    with pytest.raises(ValidationError, match=r"p values must lie in \(0, 1\]"):
        qhit.kernel_limit_study(make_sec6_T(0.5), rotation["S"], rotation["V"],
                                (0.5, float("nan")))


def test_kernel_limit_study_rejects_bad_p(rotation):
    with pytest.raises(ValidationError):
        qhit.kernel_limit_study(make_sec6_T(0.5), rotation["S"], rotation["V"],
                                (0.0, 0.5))
    with pytest.raises(ValidationError, match="p values are empty"):
        qhit.kernel_limit_study(make_sec6_T(0.5), rotation["S"], rotation["V"], [])
