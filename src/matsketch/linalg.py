"""Deterministic dense-matrix norms and decompositions.

All functions take anything ``np.asarray`` accepts and validate it as a
finite real matrix.  Tolerances used across the package: 1e-8 for
orthogonality/symmetry checks, 1e-6 * scale for reconstructions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConvergenceError,
    InvalidMatrixError,
    NotSquareError,
    OutOfRangeError,
    ZeroMatrixError,
)

ORTHONORMALITY_TOL = 1e-8
RECONSTRUCTION_TOL = 1e-6


def as_matrix(a, allow_empty: bool = False, check_finite: bool = True) -> np.ndarray:
    """Validate and return ``a`` as a 2-d float64 array with finite entries.

    ``check_finite=False`` checks the shape only, for callers that reject
    non-finite entries on their own.
    """
    arr = np.asarray(a, dtype=np.float64)
    if arr.ndim != 2:
        raise InvalidMatrixError(f"expected a 2-d matrix, got ndim={arr.ndim}")
    if arr.size == 0:
        if allow_empty:
            return arr
        raise InvalidMatrixError(f"matrix has an empty dimension: shape={arr.shape}")
    if check_finite and not np.isfinite(arr).all():
        raise InvalidMatrixError("matrix entries must be finite")
    return arr


def require_square(a, allow_empty: bool = False) -> np.ndarray:
    arr = as_matrix(a, allow_empty=allow_empty)
    if arr.shape[0] != arr.shape[1]:
        raise NotSquareError(f"expected a square matrix, got shape={arr.shape}")
    return arr


def frobenius_norm(a) -> float:
    """Square root of the sum of squared entries."""
    return float(np.linalg.norm(as_matrix(a, allow_empty=True)))


def spectral_norm(a) -> float:
    """Largest singular value (operator norm between Euclidean spaces)."""
    arr = as_matrix(a, allow_empty=True)
    if arr.size == 0:
        return 0.0
    return float(_singular_values(arr)[0])


def sym_spectral_norm(a) -> float:
    """Spectral norm of a symmetric matrix via a symmetric eigensolver."""
    arr = require_square(a, allow_empty=True)
    if arr.size == 0:
        return 0.0
    sym = 0.5 * (arr + arr.T)
    return float(np.abs(np.linalg.eigvalsh(sym)).max())


def numerical_rank(a) -> float:
    """Squared Frobenius norm over squared spectral norm.

    Always between 1 and rank(a); stable under small perturbations, unlike
    the exact rank.
    """
    arr = as_matrix(a)
    values = _singular_values(arr)
    top = float(values[0])
    if top == 0.0:
        raise ZeroMatrixError("numerical rank is undefined for the zero matrix")
    # sum of squared ratios: squaring the norms themselves underflows for tiny entries
    return float(np.sum((values / top) ** 2))


@dataclass(frozen=True)
class SvdResult:
    """Thin SVD: a = left @ diag(values) @ right.T, values nonincreasing."""

    left: np.ndarray
    values: np.ndarray
    right: np.ndarray

    def reconstruct(self) -> np.ndarray:
        return (self.left * self.values) @ self.right.T


def svd(a) -> SvdResult:
    arr = as_matrix(a)
    try:
        u, s, vh = np.linalg.svd(arr, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"SVD backend failed to converge: {exc}") from exc
    return SvdResult(left=u, values=s, right=vh.T)


def _singular_values(arr: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.svd(arr, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"SVD backend failed to converge: {exc}") from exc


def column_lengths(a) -> np.ndarray:
    """Euclidean length of each column."""
    arr = as_matrix(a, allow_empty=True)
    return np.linalg.norm(arr, axis=0)


def column_norm_sum(a) -> float:
    """Sum of the Euclidean lengths of the columns."""
    return float(column_lengths(a).sum())


def top_k_column_average(a, k) -> float:
    """Average of the k largest column Euclidean lengths.

    Fractional ``k`` is rounded up; the result is then clamped to [1, n].
    """
    lengths = column_lengths(a)
    n = lengths.size
    if n == 0:
        return 0.0
    if k <= 0:
        raise OutOfRangeError(f"k must be positive, got {k}")
    kk = min(n, max(1, math.ceil(k)))
    return float(np.sort(lengths)[-kk:].mean())


def diagonal_part(a) -> np.ndarray:
    """Matrix with the same diagonal and zero off-diagonal entries."""
    arr = require_square(a)
    return np.diag(np.diag(arr))
