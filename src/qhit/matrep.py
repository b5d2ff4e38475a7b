"""Row-stacking vec calculus and matrix representations of maps on M_n.

The convention throughout is *row* stacking: ``vec(A)`` lists the rows of
``A`` one after another.  Under this convention ``vec(A X B^T) =
(A kron B) vec(X)``, so the representation of the conjugation
``X -> B X B*`` is ``B kron conj(B)``.

Every completely positive map preserves Hermiticity, so in an orthonormal
basis of Hermitian matrices its matrix is real.  :func:`real_form` changes
to such a basis, and qhit takes every spectral decision there, in real
arithmetic: the eigenvalues behind assumption one, site availability and the
peripheral spectrum, and the rank cuts and index tests of the fixed space.
The change of basis is unitary, so spectra and singular values are those of
the complex matrix.  :func:`hermitian_coords` gives the coordinates of a
state in the same basis, so every tau is read in real arithmetic too: the
analytic resolvent, the monitoring series and the KSMH kernel block meet
real states and a real goal row, and a tau has no imaginary part to judge.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, ValidationError
from .tolerances import HP_TOL, SCALE_FLOOR


def as_complex(A) -> np.ndarray:
    """Coerce input to a complex128 ndarray and reject non-finite entries."""
    M = np.asarray(A, dtype=np.complex128)
    if not np.all(np.isfinite(M.real) & np.isfinite(M.imag)):
        raise ValidationError("matrix contains NaN or Inf entries")
    return M


def _owned_read_only(M: np.ndarray, source) -> np.ndarray:
    """M made read-only, copied first when it shares memory with the
    caller's ``source`` (:func:`as_complex` returns complex128 input
    itself), so that the caller's array stays writable and cannot change M."""
    if np.may_share_memory(M, source):
        M = M.copy()
    M.flags.writeable = False
    return M


def as_matrix(A) -> np.ndarray:
    """float64 for real input, complex128 otherwise; rejects non-finite entries."""
    M = np.asarray(A, dtype=np.float64 if np.isrealobj(A) else np.complex128)
    if not np.all(np.isfinite(M)):
        raise ValidationError("matrix contains NaN or Inf entries")
    return M


def vec(X) -> np.ndarray:
    """Stack the rows of X into a column vector (returned as a 1-d array)."""
    return as_complex(X).reshape(-1)


def unvec(v, rows: int, cols: int) -> np.ndarray:
    """Inverse of :func:`vec` for a ``rows x cols`` matrix."""
    v = np.asarray(v, dtype=np.complex128).reshape(-1)
    if v.size != rows * cols:
        raise DimensionError(
            f"vector of length {v.size} cannot fill a {rows}x{cols} matrix"
        )
    return v.reshape(rows, cols)


def conj_kron(B) -> np.ndarray:
    """Representation ``B kron conj(B)`` of the conjugation ``X -> B X B*``."""
    B = as_complex(B)
    return np.kron(B, B.conj())


@functools.lru_cache(maxsize=None)
def _hermitian_order(k: int) -> tuple:
    """vec positions in M_k of the E_jj, then of the E_jl (j < l), then of
    their transposes E_lj; and the number of pairs.  Cached, so read-only."""
    j, l = np.triu_indices(k, 1)
    order = np.concatenate([np.arange(k) * (k + 1), j * k + l, l * k + j])
    order.flags.writeable = False
    return order, j.size


def _mix_pairs(up, lo, phase: complex) -> None:
    """In place: (up, lo) -> ((up + lo)/sqrt 2, phase (up - lo)/sqrt 2)."""
    up += lo
    lo *= -2.0
    lo += up
    up *= np.sqrt(0.5)
    lo *= phase * np.sqrt(0.5)


def real_form(M, k: int) -> np.ndarray:
    """The real matrix T M T* of a Hermiticity-preserving map M.

    M acts on b sites of k x k matrices (order b k^2), and T = I_b kron T_k,
    where T_k maps vec(X) to the coordinates Tr(B X) of X in the orthonormal
    Hermitian basis of M_k: the E_jj, then the (E_jl + E_lj)/sqrt 2, then the
    i (E_lj - E_jl)/sqrt 2, for j < l.  A row of T_k has at most two
    nonzeros, so T M T* is one gather and two in-place passes, not a
    product.  Raises :class:`ValidationError` when the imaginary part of
    T M T* exceeds ``HP_TOL`` relative to max|M|, i.e. when M does not
    preserve Hermiticity.
    """
    M = as_complex(M)
    k2 = k * k
    N = M.shape[0]
    order, p = _hermitian_order(k)
    perm = (np.arange(N // k2)[:, None] * k2 + order).reshape(-1)
    R = M[np.ix_(perm, perm)]
    rows = R.reshape(-1, k2, N)
    _mix_pairs(rows[:, k:k + p], rows[:, k + p:], 1j)  # T from the left
    cols = R.reshape(N, -1, k2)
    _mix_pairs(cols[:, :, k:k + p], cols[:, :, k + p:], -1j)  # T* from the right
    return _real_part(R, M, "map does not preserve Hermiticity")


def hermitian_coords(v, k: int) -> np.ndarray:
    """The real coordinates T v of a stacked vec over b sites of k x k
    blocks (T = I_b kron T_k, as in :func:`real_form`): the vector
    counterpart of :func:`real_form`.  Raises :class:`ValidationError` when
    the imaginary part of T v exceeds ``HP_TOL`` relative to max|v|, i.e.
    when a block is not Hermitian.
    """
    v = as_complex(v)
    order, p = _hermitian_order(k)
    x = v.reshape(-1, k * k)[:, order]
    _mix_pairs(x[:, k:k + p], x[:, k + p:], 1j)
    return _real_part(x, v, "matrix is not Hermitian").reshape(-1)


def _real_part(R, M, message: str) -> np.ndarray:
    """A contiguous copy of R.real, after checking that R, the Hermitian-basis
    form of M, has an imaginary part within ``HP_TOL`` of max|M|; else
    :class:`ValidationError` with ``message``."""
    if max(R.imag.max(), -R.imag.min()) > HP_TOL * max(np.abs(M).max(), SCALE_FLOOR):
        raise ValidationError(message)
    return R.real.copy()


def from_hermitian_basis(C, k: int) -> np.ndarray:
    """T* C: rows of Hermitian-basis coordinates (b sites of k^2 each, as in
    :func:`real_form`) mapped back to vec form."""
    order, p = _hermitian_order(k)
    Y = np.asarray(C).reshape(-1, k * k, *np.shape(C)[1:])
    sym, anti = Y[:, k:k + p], Y[:, k + p:]
    X = np.empty(Y.shape, dtype=np.complex128)
    X[:, order[:k]] = Y[:, :k]
    X[:, order[k:k + p]] = np.sqrt(0.5) * (sym - 1j * anti)
    X[:, order[k + p:]] = np.sqrt(0.5) * (sym + 1j * anti)
    return X.reshape(np.shape(C))


@dataclass(frozen=True, eq=False)
class SuperOp:
    """Matrix representation of a linear map on M_dim (a dim^2 x dim^2 matrix).

    ``mat`` is read-only, so a SuperOp names one map for its whole life.  It
    compares and hashes by identity, so :func:`ksmh.tau_channel` may key its
    shared work on the object itself.
    """

    dim: int
    mat: np.ndarray

    def __post_init__(self):
        mat = as_complex(self.mat)
        if mat.shape != (self.dim**2, self.dim**2):
            raise DimensionError(
                f"superoperator on M_{self.dim} must be "
                f"{self.dim**2}x{self.dim**2}, got {mat.shape}"
            )
        object.__setattr__(self, "mat", _owned_read_only(mat, self.mat))

    def __call__(self, X) -> np.ndarray:
        return apply(self, X)


def identity_superop(dim: int) -> SuperOp:
    return SuperOp(dim, np.eye(dim**2))


def apply(S: SuperOp, X) -> np.ndarray:
    """Apply a superoperator to a matrix: unvec(S.mat @ vec(X))."""
    X = as_complex(X)
    if X.shape != (S.dim, S.dim):
        raise DimensionError(f"expected a {S.dim}x{S.dim} matrix, got {X.shape}")
    return unvec(S.mat @ vec(X), S.dim, S.dim)
