"""Exact cut-norm / infinity-to-one oracles, Bernoulli coordinate subsets,
and Monte-Carlo estimates of how submatrix norms shrink under random
restriction.

Both exact oracles enumerate the smaller dimension (transposing first if
needed, which both norms allow) and reject inputs whose smaller dimension
exceeds 24; 2^24 subsets is the practical limit for an exact answer.
Larger inputs raise TooLargeError rather than being approximated.

A random restriction is a boolean mask over the coordinates, from
``bernoulli_subset``; the decay estimates index with it directly,
``a[np.ix_(mask, mask)]`` for a principal submatrix and ``a[mask]`` for
a row restriction.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import NotSortedError, OutOfRangeError, TooLargeError
from .linalg import as_matrix, require_allocatable, require_square, spectral_norm
from .parallel import check_trials, run_trials
from .rng import as_generator, spawn

MAX_ENUM = 24
_CHUNK_BITS = 12
# Bytes of one enumeration step's block (see _span).  Set in bytes, not
# entries: int16 and float64 steps are fastest at different entry counts.
_SPAN_BYTES = 1 << 20


def bernoulli_subset(n: int, q: float, seed=0) -> np.ndarray:
    """Boolean mask that includes each of n coordinates independently with
    probability q/n."""
    if n < 1:
        raise OutOfRangeError(f"n must be >= 1, got {n}")
    if not 0 <= q <= n:
        raise OutOfRangeError(f"q must lie in [0, {n}], got {q}")
    rng = as_generator(seed)
    return rng.random(n) < q / n


class CutNormResult(NamedTuple):
    """Maximizing row/column index sets and the attained value."""

    value: float
    row_set: tuple[int, ...]
    col_set: tuple[int, ...]


def _combinations(rows: np.ndarray, signed: bool) -> np.ndarray:
    """All 2^k combinations of the rows, one column each; bit i adds row i
    (subtracts it if signed).  The table has the dtype of ``rows``."""
    table = np.zeros((rows.shape[1], 1 << rows.shape[0]), dtype=rows.dtype)
    for i, row in enumerate(rows):
        size = 1 << i
        column = row[:, None]
        if signed:
            np.subtract(table[:, :size], column, out=table[:, size : 2 * size])
            table[:, :size] += column
        else:
            np.add(table[:, :size], column, out=table[:, size : 2 * size])
    return table


def _score_dtype(work: np.ndarray) -> type:
    """int16 when every entry is an integer and 2 sum |a| fits in it, else
    float64.  No combination entry, subset sum or score exceeds that bound,
    so int16 scores are exact."""
    if not np.array_equal(work, np.rint(work)):
        return np.float64
    if 2 * float(np.abs(work).sum()) <= np.iinfo(np.int16).max:
        return np.int16
    return np.float64


def _span(low: np.ndarray, columns: int) -> int:
    """High-table columns one enumeration step scores: as many blocks the size
    of ``low`` as fit in ``_SPAN_BYTES``, at least one and at most ``columns``."""
    return min(columns, max(1, _SPAN_BYTES // max(low.nbytes, 1)))


def _enumerate(work: np.ndarray, signed: bool) -> tuple[np.ndarray, np.ndarray, int]:
    """First maximizing combination of the rows of the smaller side of ``work``
    (both norms are transpose-invariant), chunk by chunk.  Returns the
    enumerated matrix, the maximizing combination (1-d, in the score dtype)
    and its index.

    Signed combinations x score sum |x|, the infinity-to-one value; x and -x
    score the same, so only those whose last sign is + are walked.  Subset
    sums c score sum |c| + |sum c| = 2 max(sum c+, sum c-), twice the best cut
    with that row set; a last column of row sums makes |sum c| one more entry
    of the combination, so both scores are sums of absolute entries.  The
    tables hold one combination per column, split at row ``_CHUNK_BITS``
    into a low and a high table.  A chunk is the low table plus one column
    of the high table; each step scores a span of consecutive high columns
    (as many chunks as fit in ``_SPAN_BYTES``) as one block, whose scores
    are its sums over axis 0 after ``abs``, row by row as for one chunk.
    The first maximizer is the first in (high column, low column) order: a
    flat argmax within a span and a strict ``>`` across spans.  Scores run in
    the dtype ``_score_dtype`` picks: exact int16 on small integer input
    (sign matrices, the CLI's witnesses), so the first maximizer is exact;
    float64 otherwise, where on non-integer input a near-tie may select
    another maximizer.
    """
    if work.shape[0] > work.shape[1]:
        work = work.T
    k = work.shape[0]
    if k > MAX_ENUM:
        raise TooLargeError(f"exact enumeration needs min(m, n) <= {MAX_ENUM}, got {k}")
    dtype = _score_dtype(work)
    rows = work.astype(dtype, copy=False)
    if not signed:
        rows = np.column_stack((rows, rows.sum(axis=1, dtype=dtype)))
    lo_bits = min(k, _CHUNK_BITS)
    low = _combinations(rows[:lo_bits], signed)
    high = _combinations(rows[lo_bits:], signed)
    if signed and k:
        if high.shape[1] > 1:
            high = high[:, : high.shape[1] // 2]
        else:
            low = low[:, : low.shape[1] // 2]
    columns, size = high.shape[1], low.shape[1]
    span = _span(low, columns)
    # one reused buffer pair: a fresh block per step costs page faults.  The
    # block is held 2-d, (entries, span * size), so abs, the row-order sum and
    # the argmax run as for one chunk (a 3-d sum is slower at a span of one);
    # a score's flat index, in (high, low) order, is its combination's index.
    values = np.empty(span * size, dtype=dtype)
    block = np.empty((low.shape[0], span * size), dtype=dtype)
    best_value = -1
    best = 0
    for h0 in range(0, columns, span):
        width = min(span, columns - h0)
        chunk, scores = block[:, : width * size], values[: width * size]
        target = chunk.reshape(low.shape[0], width, size)  # a view: splits the last axis
        np.add(low[:, None, :], high[:, h0 : h0 + width, None], out=target)
        np.abs(chunk, out=chunk)
        chunk.sum(axis=0, out=scores)
        i = int(np.argmax(scores))
        if scores[i] > best_value:
            best_value = scores[i]
            best = h0 * size + i
    h, local = divmod(best, size)
    return work, high[:, h] + low[:, local], best


def cut_norm_exact(a) -> CutNormResult:
    """Maximum absolute entry sum over all row-subset x column-subset blocks.

    Row subsets are enumerated (chunked); for a fixed row set the best
    column set keeps exactly the positive (or the negative) column sums.
    Includes the empty sets, so the value is always >= 0.
    """
    arr = as_matrix(a, allow_empty=True)
    work, _, best_subset = _enumerate(arr, False)
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
    The value is summed over the winning combination as one contiguous
    vector, so its bits do not depend on the chunk layout that found it.
    """
    arr = as_matrix(a, allow_empty=True)
    combination = _enumerate(arr.T, True)[1]
    return float(np.abs(combination).sum())


class DecayEstimate(NamedTuple):
    """Monte-Carlo norm decay under random restriction, with bound terms."""

    samples: np.ndarray
    subset_sizes: np.ndarray
    mean: float
    bound_terms: tuple[float, ...]
    fitted_constant: float


def _decay_estimate(arr, q, trials, seed, restricted_norm, bound_terms) -> DecayEstimate:
    """Mean of ``restricted_norm(mask)`` over Bernoulli(q/n) masks, then ``bound_terms()``.

    An empty mask restricts to an empty array, whose every norm is 0.
    """

    def run(rng):
        mask = bernoulli_subset(arr.shape[0], q, rng)
        return restricted_norm(mask), int(np.count_nonzero(mask))

    samples, sizes = zip(*run_trials(run, trials, seed))
    samples = np.asarray(samples)
    terms = bound_terms()
    mean = float(samples.mean())
    total = float(sum(terms))
    return DecayEstimate(
        samples=samples,
        subset_sizes=np.asarray(sizes, dtype=np.int64),
        mean=mean,
        bound_terms=tuple(float(t) for t in terms),
        fitted_constant=mean / total if total > 0 else 0.0,
    )


def check_decay_arguments(norm: str, n: int, q: float, trials: int) -> None:
    """The arguments of a ``norm`` ("cut" or "spectral") decay of an n x n
    matrix, checked before the matrix need exist: n >= 1, a cut decay n <=
    MAX_ENUM (TooLargeError) and q in [0, n], a spectral decay q in [1, n],
    and trials >= 1."""
    if n < 1:
        raise OutOfRangeError(f"n must be >= 1, got {n}")
    if norm == "cut" and n > MAX_ENUM:
        raise TooLargeError(f"cut decay needs n <= {MAX_ENUM} for the exact oracle, got {n}")
    low = 0 if norm == "cut" else 1
    if not low <= q <= n:
        raise OutOfRangeError(f"q must lie in [{low}, {n}], got {q}")
    check_trials(trials)


def cut_decay_estimate(a, q: float, trials: int, seed: int = 0) -> DecayEstimate:
    """Exact cut norm of a random principal submatrix, averaged over trials.

    Bound terms: (q/n)^2 |a - diag|_C, (q/n) |diag|_C, and
    (q/n)^(3/2) (column length sum of a and of a^T).  Empty subsets count
    with value 0.
    """
    arr = require_square(a)
    n = arr.shape[0]
    check_decay_arguments("cut", n, q, trials)
    delta = q / n
    return _decay_estimate(
        arr, q, trials, seed,
        restricted_norm=lambda mask: cut_norm_exact(arr[np.ix_(mask, mask)]).value,
        bound_terms=lambda: (
            delta**2 * cut_norm_exact(arr - np.diag(np.diag(arr))).value,
            delta * _signed_part(np.diag(arr))[0],
            delta**1.5 * (np.linalg.norm(arr, axis=0).sum() + np.linalg.norm(arr.T, axis=0).sum()),
        ),
    )


def spectral_decay_estimate(a, q: float, trials: int, seed: int = 0) -> DecayEstimate:
    """Spectral norm of a random row restriction, averaged over trials.

    Bound terms: sqrt(q/n) |a|_2 and sqrt(log q) times the average of the
    ceil(n/q) largest column lengths, with sqrt(log q) clamped below at 1.
    """
    arr = require_square(a)
    n = arr.shape[0]
    check_decay_arguments("spectral", n, q, trials)
    log_factor = max(1.0, math.sqrt(math.log(q)))
    return _decay_estimate(
        arr, q, trials, seed,
        restricted_norm=lambda mask: spectral_norm(arr[mask]),
        bound_terms=lambda: (
            math.sqrt(q / n) * spectral_norm(arr),
            log_factor * np.sort(np.linalg.norm(arr, axis=0))[-math.ceil(n / q) :].mean(),
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
    if not np.isfinite(seq).all():
        raise OutOfRangeError("sequence entries must be finite")
    if (seq < 0).any():
        raise OutOfRangeError("sequence entries must be nonnegative")
    if (np.diff(seq) > 0).any():
        raise NotSortedError("sequence must be nonincreasing")
    n = seq.size
    if not 2.0 / n < delta < 1:
        raise OutOfRangeError(f"delta must lie in (2/{n}, 1), got {delta}")
    check_trials(trials)
    rng = spawn(seed)
    values = np.empty(trials)
    batch = 20000
    for start in range(0, trials, batch):
        count = min(batch, trials - start)
        mask = rng.random((count, n)) < delta
        log_term = np.sqrt(np.log(math.e + mask.sum(axis=1)))
        # seq is nonincreasing, so the first included entry is the largest
        top = np.where(mask.any(axis=1), seq[mask.argmax(axis=1)], 0.0)
        values[start : start + count] = log_term * top
    head = float(seq[: math.ceil(1.0 / delta)].sum())
    width = math.sqrt(math.log(delta * n)) * head
    return float(values.mean()), (delta / (4 * math.e)) * width, 4 * delta * width


def _check_witness_size(n: int) -> None:
    """OutOfRangeError unless n >= 1; TooLargeError if n x n exceeds physical memory."""
    if n < 1:
        raise OutOfRangeError(f"n must be >= 1, got {n}")
    require_allocatable(n, n)


def witness_all_ones(n: int) -> np.ndarray:
    _check_witness_size(n)
    return np.ones((n, n))


def witness_identity(n: int) -> np.ndarray:
    _check_witness_size(n)
    return np.eye(n)


def witness_random_sign(n: int, seed=0) -> np.ndarray:
    """i.i.d. uniform +-1 entries, deterministic per seed."""
    _check_witness_size(n)
    rng = as_generator(seed)
    return (rng.integers(0, 2, size=(n, n)) * 2 - 1).astype(np.float64)

