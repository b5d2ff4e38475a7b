"""Exact mean hitting times, in rational arithmetic over Q(i).

A binary64 number is the rational it denotes (``Fraction(float)`` is exact),
so nothing here rounds.  For a channel S, a goal subspace spanned by the
vectors b_j and a density rho in its complement:

    P   = B (B* B)^-1 B*            (B has as columns the b_j that are not
                                     combinations of earlier ones)
    QQ  = Q (x) conj(Q),  Q = I - P  (row-stacking vec, as in qhit.matrep)
    tau = <vec I| (I - QQ S)^-1 |vec rho>

and the linear system is solved by Gauss-Jordan elimination.
:func:`spec_problem` reads (S, b, rho) from a spec's JSON without qhit's
parsers: S = sum_K K (x) conj(K), p L + (1 - p) R for a mix, and
rho = phi phi* / <phi|phi> for a state vector.  :func:`binary64` takes the
arrays that qhit builds instead, for the exact tau of the problem its routes
receive.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce


class Qi:
    """The Gaussian rational re + im i."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = Fraction(re)
        self.im = Fraction(im)

    def __add__(self, other):
        return Qi(self.re + other.re, self.im + other.im)

    def __sub__(self, other):
        return Qi(self.re - other.re, self.im - other.im)

    def __mul__(self, other):
        return Qi(self.re * other.re - self.im * other.im,
                  self.re * other.im + self.im * other.re)

    def __truediv__(self, other):
        den = other.re * other.re + other.im * other.im
        return Qi((self.re * other.re + self.im * other.im) / den,
                  (self.im * other.re - self.re * other.im) / den)

    def __bool__(self):
        return bool(self.re or self.im)

    def conj(self):
        return Qi(self.re, -self.im)


ZERO, ONE = Qi(0), Qi(1)


def _entry(x) -> Qi:
    """A spec entry: a number, or an [re, im] pair."""
    return Qi(*x) if isinstance(x, list) else Qi(x)


def _matrix(node) -> list:
    return [[_entry(x) for x in row] for row in node]


def _matmul(A, B) -> list:
    cols = list(zip(*B))
    return [[sum((a * b for a, b in zip(row, col) if a and b), ZERO)
             for col in cols] for row in A]


def _adjoint(A) -> list:
    return [[z.conj() for z in col] for col in zip(*A)]


def _conj_kron(A) -> list:
    """A (x) conj(A), the representation of X -> A X A* on row-stacked vec."""
    n = len(A)
    return [[A[i][j] * A[k][l].conj() for j in range(n) for l in range(n)]
            for i in range(n) for k in range(n)]


def _add(A, B, a=1, b=1) -> list:
    """a A + b B."""
    return [[x * Qi(a) + y * Qi(b) for x, y in zip(ra, rb)] for ra, rb in zip(A, B)]


def _minus_from_identity(A) -> list:
    """I - A."""
    return [[(ONE if i == j else ZERO) - z for j, z in enumerate(row)]
            for i, row in enumerate(A)]


def _solve(A, B) -> list:
    """X with A X = B, by exact Gauss-Jordan elimination (A square, invertible)."""
    n = len(A)
    M = [list(ra) + list(rb) for ra, rb in zip(A, B)]
    for c in range(n):
        pivot = next(r for r in range(c, n) if M[r][c])
        M[c], M[pivot] = M[pivot], M[c]
        inv = ONE / M[c][c]
        M[c] = [z * inv for z in M[c]]
        for r in range(n):
            if r != c and M[r][c]:
                f = M[r][c]
                M[r] = [x - f * y for x, y in zip(M[r], M[c])]
    return [row[n:] for row in M]


def _independent(vectors) -> list:
    """The vectors that are not exact combinations of earlier ones.

    Each kept vector is also kept reduced against the earlier kept ones, so
    it vanishes at their leading entries; a vector reduced against all of
    them in order vanishes at every leading entry, and is zero exactly when
    it lies in their span.
    """
    kept, reduced = [], []
    for v in vectors:
        r = list(v)
        for e in reduced:
            lead = next(i for i, z in enumerate(e) if z)
            if r[lead]:
                f = r[lead] / e[lead]
                r = [x - f * y for x, y in zip(r, e)]
        if any(r):
            kept.append(v)
            reduced.append(r)
    return kept


def binary64(array) -> list:
    """The exact Gaussian rationals of a complex numpy matrix's entries."""
    return [[Qi(z.real, z.imag) for z in row] for row in array.tolist()]


def channel(node) -> list:
    """The n^2 x n^2 representation of a spec's channel."""
    kind = node["kind"]
    if kind == "kraus":
        return reduce(_add, (_conj_kron(_matrix(K)) for K in node["kraus"]))
    if kind == "unitary":
        return _conj_kron(_matrix(node["unitary"]))
    if kind == "superop":
        return _matrix(node["superop"])
    if kind == "randomization":
        mix = node["mix"]
        p = Fraction(mix["p"])
        return _add(channel(mix["left"]), channel(mix["right"]), p, 1 - p)
    raise ValueError(f"unknown channel kind {kind!r}")


def state(node) -> list:
    """rho from a density matrix (n rows of length n, as the CLI reads one),
    or phi phi* / <phi|phi> from a vector of numbers or [re, im] pairs."""
    if all(isinstance(row, list) and len(row) == len(node) for row in node):
        return _matrix(node)
    phi = [_entry(x) for x in node]
    norm = sum((z * z.conj() for z in phi), ZERO)
    return [[a * b.conj() / norm for b in phi] for a in phi]


def spec_problem(spec: dict) -> tuple:
    """(S, subspace vectors, rho) of a spec, read from its JSON exactly."""
    return (channel(spec), [[_entry(x) for x in v] for v in spec["subspace"]],
            state(spec["initial_state"]))


def exact_tau(S: list, vectors: list, rho: list) -> Fraction:
    """tau = <vec I| (I - QQ S)^-1 |vec rho>, exactly, with P = B (B* B)^-1 B*
    for B the independent vectors (:func:`_independent`) as columns."""
    n = len(rho)
    B = [list(row) for row in zip(*_independent(vectors))]
    Bh = _adjoint(B)
    P = _matmul(B, _solve(_matmul(Bh, B), Bh))
    Q = _minus_from_identity(P)
    A = _minus_from_identity(_matmul(_conj_kron(Q), S))
    x = _solve(A, [[z] for row in rho for z in row])
    # the imaginary part vanishes when S preserves Hermiticity exactly, as a
    # spec's channel does; a binary64 S may miss that by roundoff
    return sum((x[i * n + i][0] for i in range(n)), ZERO).re
