"""Row streams: ordered row-block sources for out-of-core sampling.

Iterating a stream yields ``(indices, block)`` pairs: ``indices`` is an
int64 array of source row indices, strictly increasing across the whole
traversal, and ``block`` is a ``len(indices) x n_cols`` float64 array of at
most ``BLOCK_ROWS`` rows.  Blocks are checked for width, index order and
finite entries, except a ``MatrixRowStream``'s: it checks only its matrix's
shape, because a non-finite entry makes the row weights non-finite, which
every sampling pass rejects (``sampling.total_weight``).  Consumers must
not modify a block; ``MatrixRowStream`` blocks are views.

Replayable streams can be traversed any number of times (each traversal
re-reads the source); single-shot streams refuse a second traversal.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator

import numpy as np

from .errors import InvalidMatrixError, NotReplayableError, ShapeMismatchError
from .linalg import as_matrix

BLOCK_ROWS = 4096  # rows per block handed out by every stream

Row = tuple[int, np.ndarray]
Block = tuple[np.ndarray, np.ndarray]


class RowStream:
    """Base class; subclasses implement ``_blocks()``."""

    def __init__(self, n_cols: int, replayable: bool):
        if n_cols < 1:
            raise ShapeMismatchError(f"row width must be >= 1, got {n_cols}")
        self.n_cols = int(n_cols)
        self.replayable = bool(replayable)

    def _blocks(self) -> Iterator[Block]:
        raise NotImplementedError

    def __iter__(self) -> Iterator[Block]:
        return self._checked(self._blocks())

    def _checked(self, blocks: Iterator[Block]) -> Iterator[Block]:
        last = -1
        for indices, block in blocks:
            indices = np.asarray(indices, dtype=np.int64)
            block = np.asarray(block, dtype=np.float64)
            if block.ndim != 2 or block.shape[1] != self.n_cols:
                raise ShapeMismatchError(
                    f"block of shape {block.shape} after row {last}, "
                    f"expected rows of {self.n_cols} entries"
                )
            if indices.shape != (block.shape[0],):
                raise ShapeMismatchError(
                    f"{indices.size} indices for a block of {block.shape[0]} rows"
                )
            if not indices.size:
                continue
            if indices[0] <= last or (indices[1:] <= indices[:-1]).any():
                raise ShapeMismatchError(
                    f"row indices must be strictly increasing after row {last}"
                )
            finite = np.isfinite(block)
            if not finite.all():
                bad = int(indices[np.argmin(finite.all(axis=1))])
                raise InvalidMatrixError(f"row {bad} contains non-finite entries")
            last = int(indices[-1])
            yield indices, block


class MatrixRowStream(RowStream):
    """Replayable stream over an in-memory matrix; blocks are views of it.

    Only the shape is checked here, so wrapping a matrix scans none of it.
    """

    def __init__(self, matrix):
        self.matrix = as_matrix(matrix, check_finite=False)
        super().__init__(self.matrix.shape[1], replayable=True)

    def __iter__(self) -> Iterator[Block]:
        m = self.matrix.shape[0]
        step = BLOCK_ROWS
        for start in range(0, m, step):
            stop = min(start + step, m)
            yield np.arange(start, stop, dtype=np.int64), self.matrix[start:stop]


class BlockStream(RowStream):
    """Stream over a block factory (replayable) or a one-shot block iterable.

    Pass a zero-argument callable returning a fresh iterator of
    ``(indices, block)`` pairs to get a replayable stream; pass an
    iterator/iterable of such pairs to get a single-shot one.
    """

    def __init__(self, source: Callable[[], Iterable] | Iterable, n_cols: int):
        if callable(source):
            self._factory = source
            self._once = None
            replayable = True
        else:
            self._factory = None
            self._once = iter(source)
            replayable = False
        super().__init__(n_cols, replayable=replayable)

    def _blocks(self) -> Iterator:
        if self._factory is not None:
            return iter(self._factory())
        if self._once is None:
            raise NotReplayableError("single-shot stream was already consumed")
        items, self._once = self._once, None
        return items


class IterableRowStream(BlockStream):
    """Stream over ``(index, row)`` pairs from a factory or a one-shot iterable.

    Rows are copied into a fresh ``BLOCK_ROWS x n_cols`` buffer, which is
    handed out as a block once it is full or the source ends.
    """

    def _blocks(self) -> Iterator[Block]:
        return _pack_rows(super()._blocks(), self.n_cols)


def _pack_rows(rows: Iterable[Row], n_cols: int) -> Iterator[Block]:
    """Group ``(index, row)`` pairs into blocks of at most ``BLOCK_ROWS`` rows."""
    step = BLOCK_ROWS
    indices = np.empty(step, dtype=np.int64)
    buf = np.empty((step, n_cols))
    filled = 0
    for index, row in rows:
        arr = np.asarray(row, dtype=np.float64)
        if arr.shape != (n_cols,):
            raise ShapeMismatchError(
                f"row {index} has {arr.size} entries, expected {n_cols}"
            )
        indices[filled] = index
        buf[filled] = arr
        filled += 1
        if filled == step:
            yield indices, buf
            indices = np.empty(step, dtype=np.int64)
            buf = np.empty((step, n_cols))
            filled = 0
    if filled:
        yield indices[:filled], buf[:filled]
