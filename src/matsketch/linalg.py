"""Deterministic dense-matrix norms and decompositions, and the input
checks the other modules share.

The norms and decompositions take anything ``np.asarray`` accepts and
validate it as a finite real matrix.
"""

from __future__ import annotations

import os
from typing import NamedTuple

import numpy as np

from .errors import InvalidMatrixError, NotSquareError, TooLargeError, ZeroMatrixError

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


def require_allocatable(rows: int, cols: int) -> None:
    """TooLargeError if a rows x cols float64 array exceeds physical memory.

    Called before the array is allocated, so a declared shape that no
    allocation could hold is refused as data.  Skipped where the system
    does not report its page size and page count.
    """
    try:
        page, pages = os.sysconf("SC_PAGE_SIZE"), os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return
    needed, memory = 8 * rows * cols, page * pages
    if page > 0 and pages > 0 and needed > memory:
        raise TooLargeError(
            f"a {rows}x{cols} float64 array needs {needed} bytes, "
            f"more than the {memory} bytes of physical memory"
        )


def require_square(a, allow_empty: bool = False) -> np.ndarray:
    arr = as_matrix(a, allow_empty=allow_empty)
    if arr.shape[0] != arr.shape[1]:
        raise NotSquareError(f"expected a square matrix, got shape={arr.shape}")
    return arr


def spectral_norm(a) -> float:
    """Largest singular value (operator norm between Euclidean spaces)."""
    arr = as_matrix(a, allow_empty=True)
    if arr.size == 0:
        return 0.0
    return float(np.linalg.svd(arr, compute_uv=False)[0])


def sym_spectral_norm(a) -> float:
    """Spectral norm of a symmetric matrix via a symmetric eigensolver."""
    arr = require_square(a, allow_empty=True)
    if arr.size == 0:
        return 0.0
    sym = arr + arr.T
    sym *= 0.5
    return float(np.abs(np.linalg.eigvalsh(sym)).max())


def numerical_rank(a) -> float:
    """Squared Frobenius norm over squared spectral norm.

    Always between 1 and rank(a); stable under small perturbations, unlike
    the exact rank.
    """
    arr = as_matrix(a)
    values = np.linalg.svd(arr, compute_uv=False)
    top = float(values[0])
    if top == 0.0:
        raise ZeroMatrixError("numerical rank is undefined for the zero matrix")
    # sum of squared ratios: squaring the norms themselves underflows for tiny entries
    return float(np.sum((values / top) ** 2))


class SvdResult(NamedTuple):
    """Thin SVD: a = left @ diag(values) @ right.T, values nonincreasing."""

    left: np.ndarray
    values: np.ndarray
    right: np.ndarray


def svd(a) -> SvdResult:
    arr = as_matrix(a)
    u, s, vh = np.linalg.svd(arr, full_matrices=False)
    return SvdResult(left=u, values=s, right=vh.T)
