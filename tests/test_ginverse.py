"""Group inverse, Drazin limit and the Hunter g-inverse family."""

import warnings

import numpy as np
import pytest

import qhit
from conftest import ROTATION_U, haar_unitary, random_kraus, random_tp_channel
from dense_oracles import drazin_limit
from expected_matrices import A0_SHARP, G_QMC, HADAMARD_ASHARP
from qhit.errors import NoGroupInverseError, NumericalError, ValidationError
from qhit.ginverse import (check_group_axioms, fixed_space, rank_with_margin,
                           verify_ginverse)
from qhit.matrep import (from_hermitian_basis, hermitian_coords, real_form, unvec,
                         vec_form)
from qhit.tolerances import FAITHFUL_TOL

RNG = np.random.default_rng(17)
SX = np.array([[0.0, 1.0], [1.0, 0.0]])
SZ = np.diag([1.0, -1.0])


def test_index_of_invertible_matrix_is_zero():
    A = np.array([[2.0, 1.0], [0.0, 3.0]])
    assert qhit.index(A) == 0


def test_index_of_nilpotent_jordan_block_is_two():
    A = np.array([[0.0, 1.0], [0.0, 0.0]])
    assert qhit.index(A) == 2


def test_index_one_is_decided_without_squaring():
    # rank(A) = 2 under the cut, but the 1e-6 singular value squares to
    # 1e-12, under it; ker(A) = ker(A*) = span{e_3}, so the index is 1
    A = np.diag([1.0, 1e-6, 0.0])
    assert qhit.index(A) == 1


def test_group_inverse_of_invertible_is_inverse():
    A = RNG.normal(size=(4, 4)) + np.eye(4) * 5
    gs = qhit.group_inverse(A)
    assert gs.index == 0
    assert np.max(np.abs(gs.Asharp - np.linalg.inv(A))) < 1e-10


def test_group_inverse_axioms_random_channels():
    for n in (2, 3, 4):
        for _ in range(3):
            S = random_tp_channel(RNG, n)
            A = np.eye(n * n) - S.mat
            gs = qhit.group_inverse(A)
            assert gs.index <= 1
            G = gs.Asharp
            scale = np.max(np.abs(A))
            assert np.max(np.abs(A @ G @ A - A)) < 1e-9 * scale
            assert np.max(np.abs(G @ A @ G - G)) < 1e-9 * max(scale, np.max(np.abs(G)))
            assert np.max(np.abs(A @ G - G @ A)) < 1e-9 * max(scale, np.max(np.abs(G)))


def test_group_inverse_splits_kernel_by_rank():
    # Z = I - S of a lazy channel has max|Z| ~ 2e-3 and a nonzero eigenvalue
    # of 8e-10; an absolute 1e-9 cut would put it into the kernel
    T = random_tp_channel(np.random.default_rng(0), 2)
    H = qhit.unitary_superop(np.array([[1, 1], [1, -1]]) / np.sqrt(2))
    S = qhit.randomize(qhit.randomize(T, H, 1e-6), qhit.identity_superop(2), 1e-3)
    A = np.eye(4) - S.mat
    gs = qhit.group_inverse(A)
    assert gs.index == 1
    G = gs.Asharp
    scale = np.max(np.abs(A))
    assert np.max(np.abs(A @ G @ A - A)) < 1e-9 * scale
    assert np.max(np.abs(G @ A @ G - G)) < 1e-9 * np.max(np.abs(G))
    assert np.max(np.abs(A @ G - G @ A)) < 1e-9 * np.max(np.abs(G))


def test_group_inverse_of_zero_is_zero():
    gs = qhit.group_inverse(np.zeros((3, 3)))
    assert gs.index == 1
    assert np.array_equal(gs.Asharp, np.zeros((3, 3)))


@pytest.mark.parametrize("G,axiom", [
    # A G A = A holds for both; diag(1, 5) is no reflexive inverse, and the
    # rank-one G is not a commuting one
    (np.diag([1.0, 5.0]), "G A G = G"),
    (np.array([[1.0, 1.0], [0.0, 0.0]]), "A G = G A"),
], ids=["GAG", "AG-GA"])
def test_check_group_axioms_names_the_axiom_that_fails(G, axiom):
    with pytest.raises(NumericalError, match=f"violates {axiom}"):
        check_group_axioms(np.diag([1.0, 0.0]), G, 1)


def test_axiom_checks_refuse_a_candidate_that_is_not_finite():
    # a NaN residual compares False with any tolerance: the checks pass
    # only a residual that is <= tol
    G = np.full((2, 2), np.nan)
    with pytest.raises(NumericalError):
        verify_ginverse(np.eye(2), G)
    with pytest.raises(NumericalError, match="violates A G A = A"):
        check_group_axioms(np.eye(2), G, 0)


def test_group_inverse_rejects_index_two():
    A = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(NoGroupInverseError):
        qhit.group_inverse(A)


def test_fixed_space_rejects_index_two():
    # X -> X + Tr(sigma_x X) sigma_z: I - Phi is nonzero and squares to zero
    rep = np.eye(4) + np.outer(qhit.vec(SZ), qhit.vec(SX))
    with pytest.raises(NoGroupInverseError, match="index 2 > 1"):
        fixed_space(np.eye(4) - real_form(rep, 2), 2)


def test_a_badly_conditioned_split_warns_at_the_caller():
    # ker(A) = span{e_1} and range(A) = span{(1, eps)} meet at an angle of
    # about eps, so ||E|| ~ 1 / eps exceeds SPLIT_COND_WARN = 1e8; A is
    # idempotent, so A^# = A
    eps = 1e-9
    A = np.array([[0.0, 1 / eps], [0.0, 1.0]])
    with pytest.warns(RuntimeWarning, match="badly conditioned") as caught:
        gs = qhit.group_inverse(A)
    assert {w.filename for w in caught} == {__file__}
    assert gs.index == 1
    assert np.max(np.abs(gs.Asharp - A)) <= 1e-15 / eps
    # the fixed space of X -> X - Tr(sigma_z X)(sigma_x + eps sigma_z) / 2 is
    # spanned by I, sigma_x and sigma_y, and its range is that same near
    # sigma_x direction; e_I lies in the kernel, so x = E e_I is I / 2
    rep = np.eye(4) - np.outer(qhit.vec(SX + eps * SZ), qhit.vec(SZ)) / 2
    with pytest.warns(RuntimeWarning, match="badly conditioned") as caught:
        kernel, x = fixed_space(np.eye(4) - real_form(rep, 2), 2)
    assert {w.filename for w in caught} == {__file__}
    assert kernel.shape == (4, 3)
    # x is in Hermitian-basis coordinates
    x = from_hermitian_basis(x, 2)
    assert np.max(np.abs(x - qhit.vec(np.eye(2) / 2))) <= 1e-15 / eps


def test_hadamard_group_inverse_matches_printed(hadamard):
    A = np.eye(8) - hadamard["q"].real
    gs = qhit.group_inverse(A)
    assert gs.index == 1
    assert np.max(np.abs(vec_form(gs.Asharp, 2) - HADAMARD_ASHARP)) < 1e-10


def test_rotation_group_inverse_matches_printed():
    S = qhit.unitary_superop(ROTATION_U)
    V = qhit.GoalSubspace.from_vectors([[1, 0]])
    A = np.eye(8) - qhit.induce(S, V).real
    assert np.max(np.abs(vec_form(qhit.group_inverse(A).Asharp, 2) - A0_SHARP)) < 1e-10


def test_drazin_limit_agrees_with_group_inverse():
    S = random_tp_channel(RNG, 3)
    A = np.eye(9) - S.mat
    gs = qhit.group_inverse(A)
    dl = drazin_limit(A)
    assert np.max(np.abs(dl - gs.Asharp)) < 1e-6


def test_group_inverse_on_a_two_dimensional_kernel(hadamard):
    # I - S of the Hadamard channel has a kernel of dimension 2; the eighths
    # are the values the ordered Schur split gave, to 2e-16
    A = np.eye(4) - hadamard["S"].mat
    assert rank_with_margin(A) == 2
    Asharp = qhit.group_inverse(A).Asharp
    schur = np.array([[1, -1, -1, -1], [-1, 3, -1, 1],
                      [-1, -1, 3, 1], [-1, 1, 1, 1]]) / 8
    assert np.max(np.abs(Asharp - schur)) < 1e-12
    assert np.max(np.abs(drazin_limit(A) - Asharp)) < 1e-6


def test_ergodic_projector_matches_cesaro_mean(sec5):
    q = sec5["q"]
    A = np.eye(8) - q.real
    proj = qhit.group_inverse(A).ergodic_projector
    N = 4096
    cesaro = np.zeros((8, 8))
    M = np.eye(8)
    for _ in range(N):
        cesaro += M
        M = q.real @ M
    cesaro /= N
    assert np.max(np.abs(proj - cesaro)) < 1e-3


def test_ergodic_projector_fixes_stationary_state(sec5):
    q = sec5["q"]
    proj = qhit.group_inverse(np.eye(8) - q.real).ergodic_projector
    pi = hermitian_coords(q.stationary_vec(), q.k)
    assert np.max(np.abs(proj @ pi - pi)) < 1e-10
    assert np.max(np.abs(proj @ proj - proj)) < 1e-10


def test_rank_with_margin_warns_on_ambiguity():
    A = np.diag([1.0, 1e-10])  # singular value right at the threshold region
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rank_with_margin(A)
    assert any("ambiguous" in str(w.message).lower() or "rank" in str(w.message).lower()
               for w in caught)


def test_hunter_ginverse_matches_printed(sec5):
    e1 = np.eye(8)[0]
    G = qhit.hunter_ginverse(sec5["q"], t=e1, g=e1)
    # G is a Hermitian-basis form, and e_1 is the same in both coordinates
    assert np.max(np.abs(vec_form(G, 2) - G_QMC)) < 1e-10


def test_hunter_family_refuses_a_reducible_chain_before_building_pi(monkeypatch,
                                                                    hadamard):
    def unreachable(q):
        raise AssertionError("pi built for a chain that the cut refuses")

    monkeypatch.setattr(qhit.QMC, "stationary_vec", unreachable)
    with pytest.raises(qhit.NotIrreducibleError, match="one-dimensional"):
        qhit.hunter_ginverse(hadamard["q"])


def test_hunter_ginverse_default_member_is_hunter_special(sec5):
    # one default member: t = e_1 and u = e_I, the special form of the route
    q = sec5["q"]
    assert np.array_equal(qhit.hunter_ginverse(q), qhit.hunter_special(q))


def test_hunter_family_members_are_ginverses(sec5):
    q = sec5["q"]
    A = np.eye(8) - q.real
    for seed in range(5):
        rng = np.random.default_rng(seed)
        t = rng.normal(size=8)
        u = rng.normal(size=8)
        f = rng.normal(size=8)
        g = rng.normal(size=8)
        G = qhit.hunter_ginverse(q, t=t, u=u, f=f, g=g)
        assert np.max(np.abs(A @ G @ A - A)) < 1e-8


def test_hunter_rejects_degenerate_pairings(sec5):
    q = sec5["q"]
    # t orthogonal to e_I makes the inner matrix singular; the parameters are
    # Hermitian-basis coordinates, whose first two are those of E_11 and E_22
    t = np.array([1.0, -1.0, 0, 0, 0, 0, 0, 0])  # <e_I|t> = 0
    with pytest.raises(ValidationError):
        qhit.hunter_ginverse(q, t=t)
    # and so does u orthogonal to pi
    pi = hermitian_coords(q.stationary_vec(), 2)
    u = np.eye(8)[0] - pi * pi[0].conj() / np.vdot(pi, pi)
    with pytest.raises(ValidationError, match=r"<u\|pi> vanishes"):
        qhit.hunter_ginverse(q, u=u)


@pytest.mark.parametrize("name", ["t", "u", "f", "g"])
def test_hunter_ginverse_refuses_a_parameter_that_is_not_finite(sec5, name):
    # NaN once gave an all-NaN G that passed A G A = A
    v = np.eye(8)[0]
    v[1] = np.nan
    with pytest.raises(ValidationError, match="NaN or Inf"):
        qhit.hunter_ginverse(sec5["q"], **{name: v})


def test_verify_ginverse_accepts_and_rejects():
    A = np.diag([1.0, 0.0])
    assert verify_ginverse(A, A) < 1e-15  # A is its own g-inverse here
    with pytest.raises(NumericalError):
        verify_ginverse(A, np.array([[0.0, 1.0], [1.0, 0.0]]))


def _block_reducible(rng, sizes=(2, 3), rotate=False) -> qhit.SuperOp:
    """Kraus operators A_i (+) B_i of random channels on the blocks, so the
    fixed space holds one state per block; conjugated by a Haar unitary
    when ``rotate``, so that no block is aligned with the basis."""
    blocks = [random_kraus(rng, m) for m in sizes]
    n = sum(sizes)
    U = haar_unitary(rng, n) if rotate else np.eye(n)
    kraus = []
    for ops in zip(*blocks):
        K = np.zeros((n, n), dtype=complex)
        at = 0
        for B in ops:
            K[at:at + len(B), at:at + len(B)] = B
            at += len(B)
        kraus.append(U @ K @ U.conj().T)
    return qhit.represent(qhit.KrausChannel(n, tuple(kraus)))


def _near_reducible(rng) -> qhit.SuperOp:
    """p (q T + (1 - q) Hadamard) + (1 - p) id with q = 1e-6 and p = 0.1: a
    fixed line that the reducible Hadamard part nearly splits."""
    H = qhit.unitary_superop(np.array([[1, 1], [1, -1]]) / np.sqrt(2))
    mix = qhit.randomize(random_tp_channel(rng, 2), H, 1e-6)
    return qhit.randomize(mix, qhit.identity_superop(2), 0.1)


MEMO_CHANNELS = {
    "random-2": lambda rng: random_tp_channel(rng, 2),
    "random-4": lambda rng: random_tp_channel(rng, 4),
    "random-6": lambda rng: random_tp_channel(rng, 6),
    "block-reducible": _block_reducible,
    "haar-rotated": lambda rng: _block_reducible(rng, (1, 2, 2), rotate=True),
    "near-reducible": _near_reducible,
}


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("kind", sorted(MEMO_CHANNELS))
def test_the_kept_cut_answers_as_uncached_calls_on_a_copy(monkeypatch, kind, seed):
    # a fresh S: diagnose takes the one SVD of its record's I - R, and
    # fixed_states and the lifted group inverse read the kept cut.  The
    # reference makes the public calls on a writable copy of I - R, which
    # are never answered from the kept cut, and lifts (I - S)^# itself
    rng = np.random.default_rng([seed, sorted(MEMO_CHANNELS).index(kind)])
    S = MEMO_CHANNELS[kind](rng)
    n = S.dim
    V = qhit.GoalSubspace.from_vectors([rng.normal(size=n)])
    factored = []

    def svd(a, *args, _f=np.linalg.svd, **kwargs):
        factored.append(np.shape(a))
        return _f(a, *args, **kwargs)
    monkeypatch.setattr(np.linalg, "svd", svd)
    d = qhit.diagnose(S)
    states = qhit.fixed_states(S)
    q = qhit.induce(S, V)
    lifted = qhit.induced_group_inverse(q)
    monkeypatch.undo()
    assert factored.count((n * n, n * n)) == 1

    A = np.eye(n * n) - real_form(S.mat, n)
    assert A.flags.writeable
    assert d.fixed_space_dim == n * n - rank_with_margin(A)
    assert d.jordan_trivial_at_1 == (qhit.index(A) <= 1)
    kernel, x = fixed_space(A, n)
    assert len(states) == kernel.shape[1]
    assert np.array_equal(qhit.channel._channel_record(S).fixed[0], kernel)
    faithful = (kernel.shape[1] == 1 and x is not None and np.linalg.eigvalsh(
        qhit.channel.hermitize(unvec(from_hermitian_basis(x, n), n, n))).min() > FAITHFUL_TOL)
    assert d.is_irreducible == faithful
    gs = qhit.group_inverse(A)
    CW = q.real[:, :n * n] @ (gs.Asharp - gs.ergodic_projector)
    X = np.eye(q.dim) + np.hstack([CW, CW])
    assert np.array_equal(lifted.Asharp, X)
    reference = check_group_axioms(np.eye(q.dim) - q.real, X, gs.index)
    assert lifted.index == reference.index
    assert lifted.residuals == reference.residuals
    assert np.array_equal(lifted.ergodic_projector, reference.ergodic_projector)


def test_a_writable_matrix_is_never_answered_from_the_kept_cut():
    # index 1 (a projector), then mutated in place to a nilpotent block of
    # index 2: every call on a writable A factors it afresh
    A = np.array([[1.0, 0.0], [0.0, 0.0]])
    assert qhit.index(A) == 1
    assert np.array_equal(qhit.group_inverse(A).Asharp, A)
    A[:] = [[0.0, 1.0], [0.0, 0.0]]
    assert qhit.index(A) == 2
    with pytest.raises(NoGroupInverseError):
        qhit.group_inverse(A)
    A[:] = [[2.0, 0.0], [0.0, 4.0]]
    assert qhit.index(A) == 0
    assert np.array_equal(qhit.group_inverse(A).Asharp, np.diag([0.5, 0.25]))
    # a read-only matrix is kept; made writable again and changed, it is not
    # answered from its old cut
    B = np.diag([1.0, 0.0])
    B.flags.writeable = False
    assert qhit.index(B) == 1
    assert qhit.ginverse._kept[0] is B
    B.flags.writeable = True
    B[:] = [[0.0, 1.0], [0.0, 0.0]]
    assert qhit.index(B) == 2
    assert rank_with_margin(B) == 1
    # a read-only view of a writable array is not kept: its base can change
    base = np.diag([1.0, 0.0])
    view = base[:]
    view.flags.writeable = False
    assert qhit.index(view) == 1
    assert qhit.ginverse._kept[0] is not view
    base[:] = [[0.0, 1.0], [0.0, 0.0]]
    assert qhit.index(view) == 2


def test_a_decision_read_from_the_kept_cut_warns_as_a_fresh_one(monkeypatch):
    # a singular value next to the rank cut: each decision on the kept
    # matrix warns once, as each does on a writable copy, factored afresh
    A = np.diag([1.0, 2e-10])
    A.flags.writeable = False
    factored = []

    def svd(a, *args, _f=np.linalg.svd, **kwargs):
        factored.append(np.shape(a))
        return _f(a, *args, **kwargs)
    monkeypatch.setattr(np.linalg, "svd", svd)
    for M in (A, A.copy()):
        for decide in (qhit.index, rank_with_margin, qhit.group_inverse):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                decide(M)
            assert [str(w.message) for w in caught] == [
                "rank decision is ambiguous: singular value within a factor of "
                "10 of the threshold"], decide
    assert factored.count((2, 2)) == 1 + 3


def test_equal_channels_each_get_their_own_cut(monkeypatch):
    # two SuperOps with equal matrices have two records and two I - R; each
    # is factored once, on its own first call, never matched by value
    rng = np.random.default_rng(34)
    S1 = random_tp_channel(rng, 3)
    S2 = qhit.SuperOp(3, S1.mat.copy())
    factored = []

    def svd(a, *args, _f=np.linalg.svd, **kwargs):
        factored.append(a)
        return _f(a, *args, **kwargs)
    monkeypatch.setattr(np.linalg, "svd", svd)
    first, second = qhit.diagnose(S1), qhit.diagnose(S2)
    A2 = qhit.channel._channel_record(S2).A
    assert qhit.ginverse._kept[0] is A2
    again = qhit.diagnose(S2)
    assert first == second == again
    factored = [a for a in factored if a.shape == (9, 9)]
    assert len(factored) == 2
    assert factored[0] is not factored[1] and factored[1] is A2
    assert np.array_equal(factored[0], factored[1])
