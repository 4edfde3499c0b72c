"""Weighted row sampling with replacement and the rescaled sketch.

Rows are drawn independently with probability proportional to their squared
Euclidean length.  A drawn row x is stored as (1/sqrt(d)) * (F/|x|) * x,
where F is the Frobenius norm of the source, so that the expected Gram
matrix of the sketch equals the Gram matrix of the source and every sketch
row has length F/sqrt(d).  A ``Sketch`` holds each distinct drawn row once,
in traversal order, with the draws that took it, so it never holds more
rows than the source or d; no mode builds the d x n sketch matrix.

Two samplers share this law and one block-based core.  Every traversal of
every mode runs through ``_traverse``, the one traversal: it reads row
blocks (see ``streams``), weighs each block with ``row_weights``' reduction
and counts positions; a row's index, as in ``Sketch.chosen_indices``, is
its position in the traversal.  Both end in ``_sketch``, which alone rescales rows.
Non-finite entries give non-finite weights, which every pass rejects: the
weight total is checked by ``total_weight``, and the weights of a replay
or of gathered rows are compared bit for bit with the first pass's.

* ``sample_sketch``          -- a matrix (as a ``MatrixRowStream``, so it is
  sketched as a stream of its rows) or a replayable stream: pass 1
  (``stream_weights``) weighs the rows into a ``WeightPass`` and rejects a
  zero total, then ``WeightPass.draw`` draws the positions and gathers them
  in pass 2 (``materialize_chosen``);
* ``sample_sketch_one_pass`` -- single traversal keeping d independent
  single-item weighted reservoirs, updated once per block.  Same occupant
  law, its own index stream; the reservoirs hold positions.

One ``WeightPass`` serves any number of draws.  Weights do not depend on
the block size, so neither do ``sample_sketch``'s sketches.  ``Sketch.deviation``
is the Gram deviation that ``approx`` certifies and each ``lln`` trial, a
``WeightPass.draw``, measures.
"""

from __future__ import annotations

import math
from typing import Iterator, NamedTuple

import numpy as np

from .errors import (
    InvalidMatrixError,
    NotReplayableError,
    OutOfRangeError,
    ShapeMismatchError,
    TooLargeError,
    ZeroMatrixError,
)
from .linalg import as_matrix, require_allocatable, sym_spectral_norm
from .rng import as_generator
from .streams import BLOCK_ROWS, MatrixRowStream, RowStream

_CEIL_GUARD = 1e-9  # absorbs float noise so exact-integer products do not round up
_GRAM_ARRAYS = 5  # n x n float64 arrays a certified run holds at once, the Gram's included
DRAW_WORDS = 8  # float64 words one draw of a sketch holds at its peak


class Sketch(NamedTuple):
    """The sketch S, held as its distinct rows, plus sampling metadata.

    S is the d x n matrix whose row i is the i-th drawn row, rescaled.
    ``rows`` holds each distinct row of S once, in position order, and draw
    i is row ``inverse[i]`` of ``rows``, so S is ``rows[inverse]``.
    ``blocks``, ``gram`` and ``deviation`` read S^T S off ``rows`` and the multiplicities.
    """

    rows: np.ndarray
    inverse: np.ndarray
    chosen_indices: np.ndarray
    d: int

    def blocks(self) -> Iterator[np.ndarray]:
        """Row blocks B_1, B_2, ... with sum B_j^T B_j = S^T S.

        Each distinct row once, in views of ``rows``, then each row drawn
        c > 1 times again, times sqrt(c - 1): sum_j c_j r_j r_j^T is
        sum_j r_j r_j^T + sum_j (c_j - 1) r_j r_j^T.  At most
        ``BLOCK_ROWS`` rows per block, so no block grows with d.
        """
        rows = self.rows
        for start in range(0, rows.shape[0], BLOCK_ROWS):
            yield rows[start : start + BLOCK_ROWS]
        counts = np.bincount(self.inverse, minlength=rows.shape[0])
        many = np.flatnonzero(counts > 1)
        for start in range(0, many.size, BLOCK_ROWS):
            repeated = many[start : start + BLOCK_ROWS]
            block = rows[repeated]
            block *= np.sqrt(counts[repeated] - 1.0)[:, None]
            yield block

    def gram(self) -> np.ndarray:
        """S^T S, summed over ``blocks``."""
        gram = np.zeros((self.rows.shape[1], self.rows.shape[1]))
        for block in self.blocks():
            gram += block.T @ block
        return gram

    def deviation(self, gram: np.ndarray) -> float:
        """|gram - S^T S|_2; the difference overwrites S^T S, so no third n x n array is made."""
        diff = self.gram()
        return sym_spectral_norm(np.subtract(gram, diff, out=diff))


def required_sample_size(r, epsilon, delta, c_constant=1.0) -> int:
    """Smallest admissible sketch size ceil(c * t * log t), t = r/(eps^4 delta).

    Natural log, clamped below at 1 so the result is never under c * t.
    TooLargeError if the size is not a finite float64.
    """
    if not r >= 1:
        raise OutOfRangeError(f"numerical rank must be >= 1, got {r}")
    check_parameters(epsilon, delta, c_constant)
    scale = epsilon**4 * delta  # underflows to 0 for a tiny epsilon
    t = float(r) / scale if scale > 0 else math.inf
    value = c_constant * t * math.log(max(t, math.e))
    if not math.isfinite(value):
        raise TooLargeError(f"sample size for r={r}, epsilon={epsilon}, delta={delta} exceeds float64")
    return max(1, math.ceil(value - _CEIL_GUARD * max(1.0, value)))


def check_parameters(epsilon, delta, c_constant=1.0, d=None) -> None:
    """OutOfRangeError unless epsilon, delta lie in (0, 1) and 0 < c_constant < inf;
    d by ``check_sketch_size``.

    None of these needs data, so they are checked before any row is read.
    ``d=None`` (the sample-size formula decides) passes.
    """
    if not 0 < epsilon < 1:
        raise OutOfRangeError(f"epsilon must lie in (0, 1), got {epsilon}")
    if not 0 < delta < 1:
        raise OutOfRangeError(f"delta must lie in (0, 1), got {delta}")
    check_c_constant(c_constant)
    if d is not None:
        check_sketch_size(d)


def check_c_constant(c_constant) -> None:
    """OutOfRangeError unless 0 < c_constant < inf."""
    if not 0 < c_constant < math.inf:
        raise OutOfRangeError(f"c_constant must be positive and finite, got {c_constant}")


def row_weights(a) -> np.ndarray:
    """Squared Euclidean length of each row.

    Every sampling mode computes weights with this reduction, one row at a
    time, so the result is bit-identical whether it is computed on a whole
    matrix, block by block, or row by row.
    """
    return _block_weights(as_matrix(a))


def _block_weights(block: np.ndarray) -> np.ndarray:
    # the per-row reduction order depends on the memory layout, not the row count
    block = np.ascontiguousarray(block)
    return np.einsum("ij,ij->i", block, block)


def total_weight(weights) -> float:
    """Sum of row weights; InvalidMatrixError if it overflows float64 (or is NaN)."""
    with np.errstate(over="ignore"):
        return _finite(float(np.add.reduce(weights)))


def _finite(total: float) -> float:
    """``total``, or InvalidMatrixError if it is not finite."""
    if not math.isfinite(total):
        raise InvalidMatrixError(f"squared row lengths sum to {total}, not a finite float64")
    return total


def _check_nonzero(total: float) -> None:
    """The zero-total check of every sampling mode."""
    if total <= 0.0:
        raise ZeroMatrixError("cannot sample rows of a zero matrix")


def row_distribution(a) -> np.ndarray:
    """Sampling probabilities: squared row length over squared Frobenius norm."""
    first = stream_weights(MatrixRowStream(a))
    return first.weights / first.total_sq


def draw_weighted_indices(weights, size: int, rng) -> np.ndarray:
    """Draw ``size`` indices i.i.d. with probability weights[i]/sum(weights).

    Inversion of the cumulative sum in extended precision; rows with zero
    weight are never drawn, and negative or non-finite weights are refused.
    """
    w = np.asarray(weights, dtype=np.longdouble)
    if w.ndim != 1 or w.size == 0:
        raise OutOfRangeError("weights must be a nonempty 1-d sequence")
    if (w < 0).any():
        raise OutOfRangeError("weights must be nonnegative")
    cum = w.cumsum()
    total = cum[-1]
    if not np.isfinite(total):
        raise OutOfRangeError(f"weights must be finite, their sum is {total}")
    if not total > 0:
        raise ZeroMatrixError("all weights are zero")
    u = np.asarray(rng.random(size), dtype=np.longdouble) * total
    return cum.searchsorted(u, side="right").astype(np.int64, copy=False)


def check_sketch_size(d: int) -> None:
    """OutOfRangeError if d < 1; TooLargeError if what grows per draw exceeds memory.

    A sketch holds at most min(d, m) rows of an m-row source, but a draw's uniforms with
    their longdouble copy and product, its int64 positions and ``np.unique``'s sort and
    inverse peak at 6.1 float64 words a draw (tracemalloc): d x ``DRAW_WORDS`` are refused.
    """
    if d < 1:
        raise OutOfRangeError(f"sketch size d must be >= 1, got {d}")
    require_allocatable(d, DRAW_WORDS)


def _sketch(rows: np.ndarray, inverse: np.ndarray, positions: np.ndarray, total_sq: float) -> Sketch:
    """The sketch whose draw i is row ``inverse[i]`` of ``rows``, scaled in place.

    ``positions`` are the d draws' traversal positions.  Each row x becomes
    (1/sqrt(d)) * (F/|x|) * x, |x|^2 by the weight pass's reduction.
    """
    d = positions.size
    f = math.sqrt(total_sq)
    rows *= (f / (math.sqrt(d) * np.sqrt(_block_weights(rows))))[:, None]
    return Sketch(rows=rows, inverse=inverse, chosen_indices=positions, d=d)


def sample_sketch(source, d: int, seed=0) -> Sketch:
    """Draw ``d`` rescaled rows of a matrix or a replayable stream: weight pass, then ``WeightPass.draw``.

    A matrix runs as a ``MatrixRowStream``, so it gives the sketch of a stream of its rows bit for
    bit; a single-shot stream raises NotReplayableError before any row is read.
    """
    stream = source if isinstance(source, RowStream) else MatrixRowStream(source)
    if not stream.replayable:
        raise NotReplayableError("two-pass sampling requires a replayable stream")
    check_sketch_size(d)
    return stream_weights(stream).draw(d, seed)


def _traverse(source) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """One traversal of a stream, yielding (start, block, weights) per block.

    ``start`` is the position of the block's first row.  ``source`` is a
    ``RowStream``, or a ``WeightPass``, whose stream is traversed again: a
    traversal whose weights differ from the pass's bit for bit, or whose row
    count differs, raises ShapeMismatchError.
    """
    stream, expected = (source.stream, source.weights) if isinstance(source, WeightPass) else (source, None)
    start = 0
    for block in stream:
        weights = _block_weights(block)
        stop = start + block.shape[0]
        # == on finite sums of squares is a bitwise test; a slice cut short never matches
        if expected is not None and not np.array_equal(weights, expected[start:stop]):
            where = f"rows {start}..{stop - 1}"
            raise ShapeMismatchError(f"stream replay differs from the first pass in {where}")
        yield start, block, weights
        start = stop
    if expected is not None and start != expected.size:
        raise ShapeMismatchError(f"stream replay has {start} rows, the first pass had {expected.size}")


def check_gram_size(n: int) -> None:
    """TooLargeError if the n x n arrays of a Gram pass exceed physical memory.

    The Gram matrix alone first, so a refusal names its shape where it
    cannot fit; then with ``approx._certify``'s arrays and the eigensolver's
    copy, five at once, as one 5n x n array.  Runs before any row is read.
    """
    require_allocatable(n, n)
    require_allocatable(_GRAM_ARRAYS * n, n)


class WeightPass(NamedTuple):
    """Pass 1 over ``stream``: row ``weights``, their sum ``total_sq`` and, if accumulated, the
    Gram matrix (else None).  Every later pass replays this ``stream`` and checks it against
    ``weights`` bit for bit, so no draw can pair the weights with another stream."""

    stream: RowStream
    weights: np.ndarray
    total_sq: float
    gram: np.ndarray | None

    def draw(self, d: int, seed) -> Sketch:
        """Draw ``d`` positions by the weights, then gather them in ``materialize_chosen``'s pass."""
        check_sketch_size(d)
        positions = draw_weighted_indices(self.weights, d, as_generator(seed))
        return materialize_chosen(self, positions)

    def replay(self) -> Iterator[np.ndarray]:
        """Blocks of a later traversal, checked against the weights by ``_traverse``."""
        return (block for _, block, _ in _traverse(self))


def stream_weights(stream: RowStream, accumulate_gram: bool = False) -> WeightPass:
    """One traversal collecting per-row weights (and optionally the Gram matrix): a ``WeightPass``.

    Its total is checked by ``total_weight``, and a zero total raises ZeroMatrixError.
    The Gram matrix's size is checked by ``check_gram_size`` before the traversal.
    """
    weight_parts = [np.empty(0)]  # an empty stream has no weights
    gram = None
    if accumulate_gram:
        check_gram_size(stream.n_cols)
        gram = np.zeros((stream.n_cols, stream.n_cols))
    for _, block, w in _traverse(stream):
        weight_parts.append(w)
        if gram is not None:
            # a Gram entry overflows only if the weight total does
            with np.errstate(over="ignore", invalid="ignore"):
                gram += block.T @ block
        del block  # freed before the next block is weighed, or it fragments the heap
    w = np.concatenate(weight_parts)
    total = total_weight(w)
    _check_nonzero(total)
    return WeightPass(stream, w, total, gram)


def materialize_chosen(first: WeightPass, positions) -> Sketch:
    """Second pass: collect only the chosen rows of ``first.stream`` and assemble the sketch.

    ``positions`` are traversal positions, which become the sketch's
    ``chosen_indices`` (an int64 array is kept, not copied).  A stream that
    gathers (``RowStream.gather``; a binary file's, when few rows are chosen)
    reads only the distinct chosen rows, holds them once, and checks their
    weights bit for bit against ``first.weights``.  Any other stream is
    replayed in full, holding the distinct chosen rows plus the block being
    read, and every row's weight is checked.  A pass that differs from the
    first traversal raises ShapeMismatchError.  The distinct rows, rescaled
    in place, become the sketch's ``rows``; no d x n array is made.
    """
    positions = np.asarray(positions, dtype=np.int64)
    wanted, inverse = np.unique(positions, return_inverse=True)
    rows = first.stream.gather(wanted)
    if rows is not None:
        # != on finite sums of squares is a bitwise test, and true for a NaN
        differs = _block_weights(rows) != first.weights[wanted]
        if differs.any():
            row = wanted[np.argmax(differs)]
            raise ShapeMismatchError(f"stream replay differs from the first pass in row {row}")
    else:
        rows = np.empty((wanted.size, first.stream.n_cols))
        for start, block, _ in _traverse(first):
            lo, hi = np.searchsorted(wanted, (start, start + block.shape[0]))
            rows[lo:hi] = block[wanted[lo:hi] - start]
    return _sketch(rows, inverse, positions, first.total_sq)


def sample_sketch_one_pass(stream: RowStream, d: int, seed=0) -> Sketch:
    """Sketch a stream in a single traversal.

    Keeps ``d`` independent single-item weighted reservoirs, updated once per
    block (Chao 1982; Efraimidis-Spirakis 2006).  With running weight W
    before a block of total weight w_B, each reservoir independently takes a
    new occupant from the block with probability w_B/(W + w_B), drawn with
    probability proportional to its weight within the block.  A row of
    weight w in block s thus ends as the occupant with probability
    (w/W_s) * prod_{u>s}(W_{u-1}/W_u) = w/W, the row distribution; the
    reservoirs are mutually independent.  A reservoir holds a position; a
    pool holds each row some reservoir may hold once, at most d (``_held``).
    """
    check_sketch_size(d)
    rng = as_generator(seed)
    running = 0.0
    occupants = np.empty(d, dtype=np.int64)  # all set by the first block of positive weight
    pool, pooled = [], 0  # (positions, rows) chunks, and their row count
    for start, block, w in _traverse(stream):
        block_total = total_weight(w)
        if block_total > 0.0:
            # a float sum overflows to inf, as np.sum of the pair does
            running = _finite(running + block_total)
            slots = np.flatnonzero(rng.random(d) < block_total / running)
            if slots.size:
                picks = draw_weighted_indices(w, slots.size, rng)
                occupants[slots] = start + picks
                new = np.bincount(picks).nonzero()[0]
                if pooled + new.size > d:
                    pool, pooled = _held(pool, occupants)
                pool.append((start + new, block[new]))
                pooled += new.size
    _check_nonzero(running)
    [(positions, rows)], _ = _held(pool, occupants)
    return _sketch(rows, positions.searchsorted(occupants), occupants, running)


def _held(pool: list, occupants: np.ndarray) -> tuple[list, int]:
    """``pool``'s (positions, rows) chunks cut to the rows some occupant holds, as one chunk,
    and its size; each chunk is freed once copied, and a current-block occupant lies past the pool."""
    positions = np.concatenate([at for at, _ in pool])
    held = np.bincount(positions.searchsorted(occupants), minlength=positions.size + 1)[:-1].astype(bool)
    rows = np.empty((np.count_nonzero(held), pool[0][1].shape[1]))
    start = stop = 0
    for i, (at, chunk) in enumerate(pool):
        kept = chunk[held[start : start + at.size]]
        rows[stop : stop + kept.shape[0]] = kept
        start, stop, pool[i] = start + at.size, stop + kept.shape[0], None
    return [(positions[held], rows)], rows.shape[0]
