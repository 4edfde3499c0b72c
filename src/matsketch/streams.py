"""Row streams: sources of float64 row blocks for out-of-core sampling.

Iterating a stream yields 2-d float64 blocks of ``n_cols`` columns; the
readers and ``MatrixRowStream`` hand out at most ``BLOCK_ROWS`` rows per
block.  A row's index is its position in the traversal, counted across
blocks from 0.  A traversal checks only each block's dtype and width.
Entries are scanned for finiteness where they are read: the file readers
reject non-finite values (a binary stream on its first traversal only),
and every sampling pass rejects non-finite row weights
(``sampling.total_weight``; later traversals run through
``sampling._traverse`` with the first pass's weights, which
``sampling.WeightPass.replay`` wraps).  Consumers must not modify a block;
``MatrixRowStream`` blocks are views.

A stream made from a zero-argument callable is replayable: each traversal
calls it for a fresh iterable of blocks.  One made from an iterable is
single-shot and refuses a second traversal.

``gather`` reads given rows directly where the stream can (a binary file's,
see ``matio.open_stream``); ``sampling.materialize_chosen`` checks them
against the first pass.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator

import numpy as np

from .errors import NotReplayableError, ShapeMismatchError
from .linalg import as_matrix

BLOCK_ROWS = 4096  # rows per block handed out by every reader


class RowStream:
    """Stream over a block factory (replayable) or a block iterable (single-shot)."""

    def __init__(self, source: Callable[[], Iterable] | Iterable, n_cols: int):
        if n_cols < 1:
            raise ShapeMismatchError(f"row width must be >= 1, got {n_cols}")
        self.n_cols = int(n_cols)
        self.replayable = callable(source)
        self._source = source if self.replayable else iter(source)

    def gather(self, rows: np.ndarray) -> np.ndarray | None:
        """The rows at positions ``rows`` (sorted, distinct) read directly, or None.

        None here; a binary file's stream reads them (``matio.open_stream``).
        """
        return None

    def __iter__(self) -> Iterator[np.ndarray]:
        if self.replayable:
            blocks = self._source()
        else:
            blocks, self._source = self._source, None
            if blocks is None:
                raise NotReplayableError("single-shot stream was already consumed")
        for block in blocks:
            block = np.asarray(block, dtype=np.float64)
            if block.ndim != 2 or block.shape[1] != self.n_cols:
                raise ShapeMismatchError(
                    f"block of shape {block.shape}, expected rows of {self.n_cols} entries"
                )
            yield block


class MatrixRowStream(RowStream):
    """Replayable stream over an in-memory matrix; blocks are views of it.

    Wrapping a matrix scans none of its entries.
    """

    def __init__(self, matrix):
        self.matrix = as_matrix(matrix, check_finite=False)
        super().__init__(self._views, self.matrix.shape[1])

    def _views(self) -> Iterator[np.ndarray]:
        step = BLOCK_ROWS
        m = self.matrix.shape[0]
        return (self.matrix[start : start + step] for start in range(0, m, step))
