"""Row-stacking vec calculus and matrix representations of maps on M_n.

The convention throughout is *row* stacking: ``vec(A)`` lists the rows of
``A`` one after another.  Under this convention ``vec(A X B^T) =
(A kron B) vec(X)``, so the representation of the conjugation
``X -> B X B*`` is ``B kron conj(B)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, ValidationError


def as_complex(A) -> np.ndarray:
    """Coerce input to a complex128 ndarray and reject non-finite entries."""
    M = np.asarray(A, dtype=np.complex128)
    if not np.all(np.isfinite(M.real) & np.isfinite(M.imag)):
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


@dataclass(frozen=True)
class SuperOp:
    """Matrix representation of a linear map on M_dim (a dim^2 x dim^2 matrix)."""

    dim: int
    mat: np.ndarray

    def __post_init__(self):
        mat = as_complex(self.mat)
        if mat.shape != (self.dim**2, self.dim**2):
            raise DimensionError(
                f"superoperator on M_{self.dim} must be "
                f"{self.dim**2}x{self.dim**2}, got {mat.shape}"
            )
        object.__setattr__(self, "mat", mat)

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
