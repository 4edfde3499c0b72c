"""Exact cut-norm / infinity-to-one oracles, Bernoulli coordinate subsets,
and Monte-Carlo estimates of how submatrix norms shrink under random
restriction.

Both exact oracles enumerate the smaller dimension (transposing first if
needed, which both norms allow) and reject inputs whose smaller dimension
exceeds 24; 2^24 subsets is the practical limit for an exact answer.
Larger inputs raise TooLargeError rather than being approximated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    InvariantError,
    NotSignMatrixError,
    NotSortedError,
    NotSquareError,
    OutOfRangeError,
    ShapeMismatchError,
    TooLargeError,
)
from .linalg import (
    as_matrix,
    column_norm_sum,
    diagonal_part,
    require_square,
    spectral_norm,
    top_k_column_average,
)
from .parallel import run_trials
from .rng import as_generator, spawn

MAX_ENUM = 24
_CHUNK_BITS = 12


@dataclass(frozen=True)
class SubsetMask:
    """Outcome of including each of n coordinates independently."""

    n: int
    included: np.ndarray
    q_expected: float

    @property
    def size(self) -> int:
        return int(np.count_nonzero(self.included))


def full_mask(n: int) -> SubsetMask:
    return SubsetMask(n=n, included=np.ones(n, dtype=bool), q_expected=float(n))


def bernoulli_subset(n: int, q: float, seed=0) -> SubsetMask:
    """Include each coordinate independently with probability q/n."""
    if n < 1:
        raise OutOfRangeError(f"n must be >= 1, got {n}")
    if not 0 <= q <= n:
        raise OutOfRangeError(f"q must lie in [0, {n}], got {q}")
    rng = as_generator(seed)
    return SubsetMask(n=n, included=rng.random(n) < q / n, q_expected=float(q))


def restrict(a, row_mask: SubsetMask, col_mask: SubsetMask | None = None) -> np.ndarray:
    """Submatrix on the selected rows/columns, original order preserved.

    An empty selection yields an empty array whose every norm is 0.
    """
    arr = as_matrix(a, allow_empty=True)
    if col_mask is None:
        col_mask = full_mask(arr.shape[1])
    if row_mask.n != arr.shape[0] or col_mask.n != arr.shape[1]:
        raise ShapeMismatchError(
            f"mask sizes ({row_mask.n}, {col_mask.n}) do not match shape {arr.shape}"
        )
    return arr[np.ix_(row_mask.included, col_mask.included)]


@dataclass(frozen=True)
class CutNormResult:
    """Maximizing row/column index sets and the attained value."""

    value: float
    row_set: tuple[int, ...]
    col_set: tuple[int, ...]


def _combinations(rows: np.ndarray, signed: bool) -> np.ndarray:
    """All 2^k combinations of the rows; bit i adds row i (subtracts it if signed)."""
    table = np.zeros((1, rows.shape[1]))
    for row in rows:
        table = np.vstack([table + row, table - row] if signed else [table, table + row])
    return table


def _enumerate(work: np.ndarray, signed: bool, score) -> tuple[np.ndarray, float, int]:
    """Best ``score`` over all combinations of the rows of the smaller side of ``work``
    (both norms are transpose-invariant), chunk by chunk.  Returns the enumerated
    matrix, the best value and the first combination index attaining it."""
    if work.shape[0] > work.shape[1]:
        work = work.T
    k = work.shape[0]
    if k > MAX_ENUM:
        raise TooLargeError(f"exact enumeration needs min(m, n) <= {MAX_ENUM}, got {k}")
    lo_bits = min(k, _CHUNK_BITS)
    low = _combinations(work[:lo_bits], signed)
    high = _combinations(work[lo_bits:], signed)
    best_value = -1.0
    best_index = 0
    block = np.empty_like(low)  # one buffer: a fresh chunk per step costs page faults
    for h in range(high.shape[0]):
        values = score(np.add(high[h], low, out=block))
        local = int(np.argmax(values))
        if values[local] > best_value:
            best_value = float(values[local])
            best_index = (h << lo_bits) | local
    return work, best_value, best_index


def _cut_score(block: np.ndarray) -> np.ndarray:
    positive = np.where(block > 0, block, 0.0).sum(axis=1)
    return np.maximum(positive, positive - block.sum(axis=1))


def cut_norm_exact(a) -> CutNormResult:
    """Maximum absolute entry sum over all row-subset x column-subset blocks.

    Row subsets are enumerated (chunked); for a fixed row set the best
    column set keeps exactly the positive (or the negative) column sums.
    Includes the empty sets, so the value is always >= 0.
    """
    arr = as_matrix(a, allow_empty=True)
    work, _, best_subset = _enumerate(arr, False, _cut_score)
    rows = tuple(i for i in range(work.shape[0]) if (best_subset >> i) & 1)
    sums = work[list(rows)].sum(axis=0) if rows else np.zeros(work.shape[1])
    value, keep = _signed_part(sums)
    cols = tuple(int(j) for j in np.nonzero(keep)[0])
    if work is not arr:
        rows, cols = cols, rows
    return CutNormResult(value=value, row_set=rows, col_set=cols)


def _signed_part(v: np.ndarray) -> tuple[float, np.ndarray]:
    """Cut norm of diag(v): the larger of v's positive and -(negative) sums, and its entries."""
    pos_total = float(v[v > 0].sum())
    neg_total = float(-v[v < 0].sum())
    return (pos_total, v > 0) if pos_total >= neg_total else (neg_total, v < 0)


def inf_to_one_norm_exact(a) -> float:
    """Operator norm from the max-norm cube into l1, by vertex enumeration.

    The supremum over the cube is attained at a sign vector on the rows of a^T;
    the norm is transpose-invariant, so the smaller dimension is enumerated.
    """
    arr = as_matrix(a, allow_empty=True)
    return _enumerate(arr.T, True, lambda block: np.abs(block).sum(axis=1))[1]


@dataclass(frozen=True)
class DecayEstimate:
    """Monte-Carlo norm decay under random restriction, with bound terms."""

    q: float
    trials: int
    samples: np.ndarray
    subset_sizes: np.ndarray
    mean: float
    bound_terms: tuple[float, ...]
    fitted_constant: float


def _decay_estimate(arr, q, trials, seed, restricted_norm, bound_terms) -> DecayEstimate:
    """Mean of ``restricted_norm(mask)`` over Bernoulli(q/n) masks, then ``bound_terms()``."""

    def run(rng):
        mask = bernoulli_subset(arr.shape[0], q, rng)
        return restricted_norm(mask), mask.size

    samples, sizes = zip(*run_trials(run, trials, seed))
    samples = np.asarray(samples)
    terms = bound_terms()
    mean = float(samples.mean())
    total = float(sum(terms))
    return DecayEstimate(
        q=float(q),
        trials=samples.size,
        samples=samples,
        subset_sizes=np.asarray(sizes, dtype=np.int64),
        mean=mean,
        bound_terms=tuple(float(t) for t in terms),
        fitted_constant=mean / total if total > 0 else 0.0,
    )


def cut_decay_estimate(a, q: float, trials: int, seed: int = 0) -> DecayEstimate:
    """Exact cut norm of a random principal submatrix, averaged over trials.

    Bound terms: (q/n)^2 |a - diag|_C, (q/n) |diag|_C, and
    (q/n)^(3/2) (column length sum of a and of a^T).  Empty subsets count
    with value 0.
    """
    arr = require_square(a)
    n = arr.shape[0]
    if n > MAX_ENUM:
        raise TooLargeError(f"cut decay needs n <= {MAX_ENUM} for the exact oracle, got {n}")
    if not 0 <= q <= n:
        raise OutOfRangeError(f"q must lie in [0, {n}], got {q}")
    delta = q / n
    return _decay_estimate(
        arr, q, trials, seed,
        restricted_norm=lambda mask: cut_norm_exact(restrict(arr, mask, mask)).value,
        bound_terms=lambda: (
            delta**2 * cut_norm_exact(arr - diagonal_part(arr)).value,
            delta * _signed_part(np.diag(arr))[0],
            delta**1.5 * (column_norm_sum(arr) + column_norm_sum(arr.T)),
        ),
    )


def spectral_decay_estimate(a, q: float, trials: int, seed: int = 0) -> DecayEstimate:
    """Spectral norm of a random row restriction, averaged over trials.

    Bound terms: sqrt(q/n) |a|_2 and sqrt(log q) times the average of the
    ceil(n/q) largest column lengths, with sqrt(log q) clamped below at 1.
    """
    arr = require_square(a)
    n = arr.shape[0]
    if not 1 <= q <= n:
        raise OutOfRangeError(f"q must lie in [1, {n}], got {q}")
    log_factor = max(1.0, math.sqrt(math.log(q)))
    return _decay_estimate(
        arr, q, trials, seed,
        restricted_norm=lambda mask: spectral_norm(arr[mask.included]),
        bound_terms=lambda: (
            math.sqrt(q / n) * spectral_norm(arr),
            log_factor * top_k_column_average(arr, math.ceil(n / q)),
        ),
    )


def order_statistics_check(a, delta: float, trials: int, seed: int = 0):
    """Monte-Carlo middle term of the order-statistics sandwich.

    For a nonincreasing nonnegative sequence a and inclusion probability
    delta > 2/n, estimates E[sqrt(log(e + sum b_j)) * max_j b_j a_j] with
    b_j independent Bernoulli(delta), and returns (empirical, lower, upper)
    where the deterministic bounds are (delta/4e) resp. 4*delta times
    sqrt(log(delta n)) times the sum of the top ceil(1/delta) entries.
    """
    seq = np.asarray(a, dtype=np.float64)
    if seq.ndim != 1 or seq.size == 0:
        raise OutOfRangeError("need a nonempty 1-d sequence")
    if (seq < 0).any():
        raise OutOfRangeError("sequence entries must be nonnegative")
    if (np.diff(seq) > 0).any():
        raise NotSortedError("sequence must be nonincreasing")
    n = seq.size
    if not 2.0 / n < delta < 1:
        raise OutOfRangeError(f"delta must lie in (2/{n}, 1), got {delta}")
    if trials < 1:
        raise OutOfRangeError(f"trials must be >= 1, got {trials}")
    rng = spawn(seed)
    values = np.empty(trials)
    batch = 20000
    for start in range(0, trials, batch):
        count = min(batch, trials - start)
        mask = rng.random((count, n)) < delta
        log_term = np.sqrt(np.log(math.e + mask.sum(axis=1)))
        values[start : start + count] = log_term * (mask * seq).max(axis=1)
    head = float(seq[: math.ceil(1.0 / delta)].sum())
    width = math.sqrt(math.log(delta * n)) * head
    return float(values.mean()), (delta / (4 * math.e)) * width, 4 * delta * width


def witness_all_ones(n: int) -> np.ndarray:
    if n < 1:
        raise OutOfRangeError(f"n must be >= 1, got {n}")
    return np.ones((n, n))


def witness_identity(n: int) -> np.ndarray:
    if n < 1:
        raise OutOfRangeError(f"n must be >= 1, got {n}")
    return np.eye(n)


def witness_random_sign(n: int, seed=0) -> np.ndarray:
    """i.i.d. uniform +-1 entries, deterministic per seed."""
    if n < 1:
        raise OutOfRangeError(f"n must be >= 1, got {n}")
    rng = as_generator(seed)
    return (rng.integers(0, 2, size=(n, n)) * 2 - 1).astype(np.float64)


def sign_matrix_lower_bound(a) -> float:
    """Exact infinity-to-one norm of a square +-1 matrix.

    Every s x s sign matrix satisfies |a|_{inf->1} >= s^(3/2)/sqrt(2);
    the computed value is checked against that floor before returning.
    """
    arr = as_matrix(a, allow_empty=True)
    if arr.size == 0:
        return 0.0
    if arr.shape[0] != arr.shape[1]:
        raise NotSquareError(f"expected a square restriction, got shape {arr.shape}")
    if not np.isin(arr, (-1.0, 1.0)).all():
        raise NotSignMatrixError("entries must all be +1 or -1")
    value = inf_to_one_norm_exact(arr)
    floor = arr.shape[0] ** 1.5 / math.sqrt(2)
    if value < floor - 1e-9:
        raise InvariantError(
            f"infinity-to-one norm {value!r} is below the sign-matrix floor {floor!r}"
        )
    return value
