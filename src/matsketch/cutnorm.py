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
from .parallel import run_indexed
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

    def indices(self) -> np.ndarray:
        return np.nonzero(self.included)[0]


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


def _subset_sums(rows: np.ndarray) -> np.ndarray:
    """All 2^k subset sums of the given rows; bit i of the index picks row i."""
    table = np.zeros((1, rows.shape[1]))
    for row in rows:
        table = np.vstack([table, table + row])
    return table


def cut_norm_exact(a) -> CutNormResult:
    """Maximum absolute entry sum over all row-subset x column-subset blocks.

    Row subsets are enumerated (chunked); for a fixed row set the best
    column set keeps exactly the positive (or the negative) column sums.
    Includes the empty sets, so the value is always >= 0.
    """
    arr = as_matrix(a, allow_empty=True)
    if arr.size == 0:
        return CutNormResult(value=0.0, row_set=(), col_set=())
    transposed = arr.shape[0] > arr.shape[1]
    work = arr.T if transposed else arr
    m = work.shape[0]
    if m > MAX_ENUM:
        raise TooLargeError(
            f"exact cut norm enumerates min(m, n) <= {MAX_ENUM} rows, got {m}"
        )
    lo_bits = min(m, _CHUNK_BITS)
    low = _subset_sums(work[:lo_bits])
    high = _subset_sums(work[lo_bits:])
    best_value = -1.0
    best_subset = 0
    for h in range(high.shape[0]):
        block = high[h] + low
        positive = np.where(block > 0, block, 0.0).sum(axis=1)
        values = np.maximum(positive, positive - block.sum(axis=1))
        local = int(np.argmax(values))
        if values[local] > best_value:
            best_value = float(values[local])
            best_subset = (h << lo_bits) | local
    rows = tuple(i for i in range(m) if (best_subset >> i) & 1)
    sums = work[list(rows)].sum(axis=0) if rows else np.zeros(work.shape[1])
    pos_total = float(sums[sums > 0].sum())
    neg_total = float(-sums[sums < 0].sum())
    if pos_total >= neg_total:
        cols = tuple(int(j) for j in np.nonzero(sums > 0)[0])
        value = pos_total
    else:
        cols = tuple(int(j) for j in np.nonzero(sums < 0)[0])
        value = neg_total
    if transposed:
        rows, cols = cols, rows
    return CutNormResult(value=value, row_set=rows, col_set=cols)


def _sign_sums(cols: np.ndarray) -> np.ndarray:
    """All 2^k signed column combinations; bit i of the index flips column i."""
    table = np.zeros((1, cols.shape[0]))
    for col in cols.T:
        table = np.vstack([table + col, table - col])
    return table


def inf_to_one_norm_exact(a) -> float:
    """Operator norm from the max-norm cube into l1, by vertex enumeration.

    The supremum over the cube is attained at a sign vector; the norm is
    transpose-invariant, so the smaller dimension is enumerated.
    """
    arr = as_matrix(a, allow_empty=True)
    if arr.size == 0:
        return 0.0
    work = arr.T if arr.shape[1] > arr.shape[0] else arr
    n = work.shape[1]
    if n > MAX_ENUM:
        raise TooLargeError(
            f"exact norm enumerates 2^min(m, n) sign vectors with min <= {MAX_ENUM}, got {n}"
        )
    lo_bits = min(n, _CHUNK_BITS)
    low = _sign_sums(work[:, :lo_bits])
    high = _sign_sums(work[:, lo_bits:])
    best = 0.0
    for h in range(high.shape[0]):
        best = max(best, float(np.abs(high[h] + low).sum(axis=1).max()))
    return best


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


def _decay_estimate(q, samples, sizes, bound_terms) -> DecayEstimate:
    samples = np.asarray(samples)
    mean = float(samples.mean())
    total = float(sum(bound_terms))
    return DecayEstimate(
        q=float(q),
        trials=samples.size,
        samples=samples,
        subset_sizes=np.asarray(sizes, dtype=np.int64),
        mean=mean,
        bound_terms=tuple(float(t) for t in bound_terms),
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
    if trials < 1:
        raise OutOfRangeError(f"trials must be >= 1, got {trials}")

    def run(trial: int):
        mask = bernoulli_subset(n, q, spawn(seed, trial))
        value = cut_norm_exact(restrict(arr, mask, mask)).value
        return value, mask.size

    outcomes = run_indexed(run, trials)
    delta = q / n
    diag = diagonal_part(arr)
    terms = (
        delta**2 * cut_norm_exact(arr - diag).value,
        delta * cut_norm_exact(diag).value,
        delta**1.5 * (column_norm_sum(arr) + column_norm_sum(arr.T)),
    )
    return _decay_estimate(q, [o[0] for o in outcomes], [o[1] for o in outcomes], terms)


def spectral_decay_estimate(a, q: float, trials: int, seed: int = 0) -> DecayEstimate:
    """Spectral norm of a random row restriction, averaged over trials.

    Bound terms: sqrt(q/n) |a|_2 and sqrt(log q) times the average of the
    ceil(n/q) largest column lengths, with sqrt(log q) clamped below at 1.
    """
    arr = require_square(a)
    n = arr.shape[0]
    if not 1 <= q <= n:
        raise OutOfRangeError(f"q must lie in [1, {n}], got {q}")
    if trials < 1:
        raise OutOfRangeError(f"trials must be >= 1, got {trials}")

    def run(trial: int):
        mask = bernoulli_subset(n, q, spawn(seed, trial))
        return spectral_norm(arr[mask.included]), mask.size

    outcomes = run_indexed(run, trials)
    log_factor = max(1.0, math.sqrt(math.log(q)))
    terms = (
        math.sqrt(q / n) * spectral_norm(arr),
        log_factor * top_k_column_average(arr, math.ceil(n / q)),
    )
    return _decay_estimate(q, [o[0] for o in outcomes], [o[1] for o in outcomes], terms)


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
