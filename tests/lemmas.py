"""The paper's lemma checks that no command runs.

Reference computations the unit tests hold the library against: the
empirical second moment, the large-deviation tail value and the Rademacher
moment of the operator law of large numbers (``test_lln``), and the
sign-matrix floor of the infinity-to-one norm (``test_cutnorm``).
"""

from __future__ import annotations

import math

import numpy as np

from matsketch import cutnorm
from matsketch.errors import (
    Error,
    InvariantError,
    NotSquareError,
    OutOfRangeError,
    ShapeMismatchError,
)
from matsketch.linalg import as_matrix
from matsketch.parallel import check_trials
from matsketch.rng import as_generator
from matsketch.sampling import check_c_constant


class NotSignMatrixError(Error, ValueError):
    """Matrix entries must all be +1 or -1."""


def empirical_second_moment(samples) -> np.ndarray:
    """(1/d) sum of y y^T over the sample rows; symmetric PSD."""
    arr = np.asarray(samples, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[0] == 0:
        raise ShapeMismatchError("need a nonempty 2-d array of sample rows")
    if not np.isfinite(arr).all():
        raise ShapeMismatchError("samples must be finite")
    gram = arr.T @ arr / arr.shape[0]
    return 0.5 * (gram + gram.T)


def tail_bound_eval(a: float, t: float, c_constant: float = 1.0) -> float:
    """Large-deviation tail value min(1, 2 exp(-c t^2 / a^2))."""
    if not a > 0:
        raise OutOfRangeError(f"a must be positive, got {a}")
    if not 0 < t < 1:
        raise OutOfRangeError(f"t must lie in (0, 1), got {t}")
    check_c_constant(c_constant)
    return min(1.0, 2.0 * math.exp(-c_constant * t**2 / a**2))


def rademacher_moment_check(vectors, p: float, trials: int, seed: int = 0):
    """Monte-Carlo p-th moment of |sum_i e_i y_i (x) y_i|_2 over random signs.

    Returns (lhs_estimate, rhs_factor) where rhs_factor is the deterministic
    comparison quantity sqrt(p + log k) * max_i |y_i| * |sum_i y_i (x) y_i|^(1/2)
    with k = min(sample count, ambient dimension); callers divide to fit the
    leading constant.
    """
    arr = np.asarray(vectors, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[0] == 0:
        raise ShapeMismatchError("need a nonempty 2-d array of vectors")
    if p < 1:
        raise OutOfRangeError(f"p must be >= 1, got {p}")
    check_trials(trials)
    d, n = arr.shape
    rng = as_generator(seed)
    signs = rng.integers(0, 2, size=(trials, d)) * 2 - 1
    signed_sums = np.einsum("ti,ij,ik->tjk", signs, arr, arr, optimize=True)
    norms = np.abs(np.linalg.eigvalsh(signed_sums)).max(axis=1)
    lhs = float(np.mean(norms**p) ** (1.0 / p))
    k = min(d, n)
    unsigned = np.abs(np.linalg.eigvalsh(arr.T @ arr)).max()
    rhs = math.sqrt(p + math.log(k)) * float(np.linalg.norm(arr, axis=1).max()) * math.sqrt(unsigned)
    return lhs, float(rhs)


def sign_matrix_lower_bound(a) -> float:
    """Exact infinity-to-one norm of a square +-1 matrix.

    Every s x s sign matrix satisfies |a|_{inf->1} >= s^(3/2)/sqrt(2);
    the computed value is checked against that floor before returning.
    The oracle is looked up on ``cutnorm`` at each call, so a test can
    replace it there.
    """
    arr = as_matrix(a, allow_empty=True)
    if arr.size == 0:
        return 0.0
    if arr.shape[0] != arr.shape[1]:
        raise NotSquareError(f"expected a square restriction, got shape {arr.shape}")
    if not np.isin(arr, (-1.0, 1.0)).all():
        raise NotSignMatrixError("entries must all be +1 or -1")
    value = cutnorm.inf_to_one_norm_exact(arr)
    floor = arr.shape[0] ** 1.5 / math.sqrt(2)
    if value < floor - 1e-9:
        raise InvariantError(
            f"infinity-to-one norm {value!r} is below the sign-matrix floor {floor!r}"
        )
    return value
