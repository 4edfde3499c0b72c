"""Weighted row sampling with replacement and the rescaled sketch.

Rows are drawn independently with probability proportional to their squared
Euclidean length.  A drawn row x is stored as (1/sqrt(d)) * (F/|x|) * x,
where F is the Frobenius norm of the source, so that the expected Gram
matrix of the sketch equals the Gram matrix of the source and every sketch
row has length F/sqrt(d).

Three modes share this law and one block-based core: every mode reads the
source as row blocks (see ``streams``), computes weights per block with
``row_weights``' reduction, and gathers chosen rows out of the blocks.

* ``sample_sketch``          -- in-memory matrix: two-pass sampling over the
  matrix's blocks, so it is bit-identical to the two-pass mode by
  construction;
* ``sample_sketch_two_pass`` -- replayable stream: pass 1
  (``stream_weights``) accumulates row weights and rejects a zero total,
  then ``draw_sketch`` draws the positions and runs pass 2, which checks
  that it replays the same weights and materializes only the chosen rows;
* ``sample_sketch_one_pass`` -- single traversal keeping d independent
  single-item weighted reservoirs, updated once per block.  Same occupant
  law, its own index stream.

Weights do not depend on the block size, so neither do the sketches of the
in-memory and two-pass modes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    InvalidMatrixError,
    NotReplayableError,
    OutOfRangeError,
    ShapeMismatchError,
    ZeroMatrixError,
)
from .linalg import as_matrix
from .rng import as_generator
from .streams import MatrixRowStream, RowStream

_CEIL_GUARD = 1e-9  # absorbs float noise so exact-integer products do not round up


@dataclass(frozen=True)
class Sketch:
    """Sampled-and-rescaled row sketch plus sampling metadata."""

    matrix: np.ndarray
    chosen_indices: np.ndarray
    frobenius_of_source: float
    d: int
    seed: int | None

    def gram(self) -> np.ndarray:
        return self.matrix.T @ self.matrix


def required_sample_size(r, epsilon, delta, c_constant=1.0) -> int:
    """Smallest admissible sketch size ceil(c * t * log t), t = r/(eps^4 delta).

    Natural log, clamped below at 1 so the result is never under c * t.
    """
    if not r >= 1:
        raise OutOfRangeError(f"numerical rank must be >= 1, got {r}")
    if not 0 < epsilon < 1:
        raise OutOfRangeError(f"epsilon must lie in (0, 1), got {epsilon}")
    if not 0 < delta < 1:
        raise OutOfRangeError(f"delta must lie in (0, 1), got {delta}")
    if not c_constant > 0:
        raise OutOfRangeError(f"c_constant must be positive, got {c_constant}")
    t = float(r) / (epsilon**4 * delta)
    value = c_constant * t * math.log(max(t, math.e))
    return max(1, math.ceil(value - _CEIL_GUARD * max(1.0, value)))


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
        total = float(np.sum(weights))
    if not math.isfinite(total):
        raise InvalidMatrixError(f"squared row lengths sum to {total}, not a finite float64")
    return total


def _check_nonzero(total: float) -> None:
    """The zero-total check of every sampling mode."""
    if total <= 0.0:
        raise ZeroMatrixError("cannot sample rows of a zero matrix")


def row_distribution(a) -> np.ndarray:
    """Sampling probabilities: squared row length over squared Frobenius norm."""
    w, total, _ = stream_weights(MatrixRowStream(a))
    return w / total


def draw_weighted_indices(weights, size: int, rng) -> np.ndarray:
    """Draw ``size`` indices i.i.d. with probability weights[i]/sum(weights).

    Inversion of the cumulative sum in extended precision; rows with zero
    weight are never drawn.
    """
    w = np.asarray(weights, dtype=np.longdouble)
    if w.ndim != 1 or w.size == 0:
        raise OutOfRangeError("weights must be a nonempty 1-d sequence")
    if (w < 0).any():
        raise OutOfRangeError("weights must be nonnegative")
    cum = np.cumsum(w)
    total = cum[-1]
    if not total > 0:
        raise ZeroMatrixError("all weights are zero")
    u = np.asarray(rng.random(size), dtype=np.longdouble) * total
    return np.searchsorted(cum, u, side="right").astype(np.int64)


def _scaled_rows(rows: np.ndarray, weights: np.ndarray, total_sq: float, d: int) -> np.ndarray:
    # (1/sqrt(d)) * (F/|x|) * x for each chosen row x
    f = math.sqrt(total_sq)
    scale = f / (math.sqrt(d) * np.sqrt(weights))
    return rows * scale[:, None]


def _check_size(d: int) -> None:
    if d < 1:
        raise OutOfRangeError(f"sketch size d must be >= 1, got {d}")


def _sketch(matrix, chosen, total_sq: float, d: int, seed) -> Sketch:
    return Sketch(
        matrix=matrix,
        chosen_indices=chosen,
        frobenius_of_source=math.sqrt(total_sq),
        d=int(d),
        seed=seed if isinstance(seed, int) else None,
    )


def sample_sketch(a, d: int, seed=0) -> Sketch:
    """Sample ``d`` rescaled rows of an in-memory matrix.

    Two-pass sampling over the matrix's row blocks, so the in-memory and
    two-pass modes agree bit for bit by construction.

    Parameters
    ----------
    a : array_like
        Source matrix with at least one nonzero row.
    d : int
        Number of rows to draw (with replacement).
    seed : int or numpy Generator
        Drives the draw; identical seeds give identical sketches.
    """
    return sample_sketch_two_pass(MatrixRowStream(a), d, seed)


def stream_weights(stream: RowStream, accumulate_gram: bool = False):
    """One traversal collecting per-row weights (and optionally the Gram matrix).

    Returns (weights, total_sq, gram_or_None); total_sq is checked by
    ``total_weight`` and a zero total raises ZeroMatrixError.
    """
    weight_parts = [np.empty(0)]  # an empty stream has no weights
    gram = np.zeros((stream.n_cols, stream.n_cols)) if accumulate_gram else None
    for _, block in stream:
        weight_parts.append(_block_weights(block))
        if gram is not None:
            # a Gram entry overflows only if the weight total does
            with np.errstate(over="ignore", invalid="ignore"):
                gram += block.T @ block
    w = np.concatenate(weight_parts)
    total = total_weight(w)
    _check_nonzero(total)
    return w, total, gram


def materialize_chosen(stream: RowStream, positions, weights, total_sq: float, d: int, seed) -> Sketch:
    """Second pass: collect only the chosen rows and assemble the sketch.

    ``positions`` are positions in traversal order and ``weights`` the row
    weights of the first pass.  Holds the distinct chosen rows plus the
    block being read.  Each block's weights are recomputed and compared
    bit for bit with the first pass's, and the row count must match, so a
    replay that differs from the first traversal raises ShapeMismatchError.
    """
    positions = np.asarray(positions, dtype=np.int64)
    weights = np.asarray(weights)
    wanted, inverse = np.unique(positions, return_inverse=True)
    rows = np.empty((wanted.size, stream.n_cols))
    chosen = np.empty(wanted.size, dtype=np.int64)
    seen = 0
    for indices, block in stream:
        stop = seen + block.shape[0]
        # weights are sums of squares of finite entries: == is a bitwise test
        if stop > weights.size or not np.array_equal(
            _block_weights(block), weights[seen:stop]
        ):
            raise ShapeMismatchError(
                f"stream replay differs from the first pass in rows {seen}..{stop - 1}"
            )
        lo, hi = np.searchsorted(wanted, (seen, stop))
        if hi > lo:
            local = wanted[lo:hi] - seen
            rows[lo:hi] = block[local]
            chosen[lo:hi] = indices[local]
        seen = stop
    if seen != weights.size:
        raise ShapeMismatchError(
            f"stream replay has {seen} rows, the first pass had {weights.size}"
        )
    matrix = _scaled_rows(rows[inverse], weights[positions], total_sq, d)
    return _sketch(matrix, chosen[inverse], total_sq, d, seed)


def draw_sketch(stream: RowStream, weights, total_sq: float, d: int, seed) -> Sketch:
    """Draw ``d`` positions by ``weights``, then gather them in ``materialize_chosen``'s pass."""
    _check_size(d)
    positions = draw_weighted_indices(weights, d, as_generator(seed))
    return materialize_chosen(stream, positions, weights, total_sq, d, seed)


def sample_sketch_two_pass(stream: RowStream, d: int, seed=0) -> Sketch:
    """Sketch a replayable stream: weight pass, then ``draw_sketch``."""
    if not stream.replayable:
        raise NotReplayableError("two-pass sampling requires a replayable stream")
    _check_size(d)
    weights, total_sq, _ = stream_weights(stream)
    return draw_sketch(stream, weights, total_sq, d, seed)


def sample_sketch_one_pass(stream: RowStream, d: int, seed=0) -> Sketch:
    """Sketch a stream in a single traversal.

    Keeps ``d`` independent single-item weighted reservoirs, updated once per
    block (Chao 1982; Efraimidis-Spirakis 2006).  With running weight W
    before a block of total weight w_B, each reservoir independently takes a
    new occupant from the block with probability w_B/(W + w_B), drawn with
    probability proportional to its weight within the block.  A row of
    weight w in block s thus ends as the occupant with probability
    (w/W_s) * prod_{u>s}(W_{u-1}/W_u) = w/W, the row distribution; the
    reservoirs are mutually independent.
    """
    _check_size(d)
    rng = as_generator(seed)
    running = 0.0
    rows = np.zeros((d, stream.n_cols))
    occupant_index = np.full(d, -1, dtype=np.int64)
    occupant_weight = np.zeros(d)
    for indices, block in stream:
        w = _block_weights(block)
        block_total = total_weight(w)
        if block_total <= 0.0:
            continue
        running = total_weight((running, block_total))
        slots = np.flatnonzero(rng.random(d) < block_total / running)
        if slots.size:
            picks = draw_weighted_indices(w, slots.size, rng)
            rows[slots] = block[picks]
            occupant_index[slots] = indices[picks]
            occupant_weight[slots] = w[picks]
    _check_nonzero(running)
    matrix = _scaled_rows(rows, occupant_weight, running, d)
    return _sketch(matrix, occupant_index, running, d, seed)
