"""Matrix file formats: MatrixMarket, CSV, raw binary.

* MatrixMarket ``array`` (column-major values) and ``coordinate`` (1-based
  ``i j value`` triples, duplicates rejected); only ``real``/``integer``
  fields with ``general`` symmetry are accepted.
* CSV: one matrix row per line, comma-separated.
* Binary: little-endian header of two u64 (rows, cols) followed by
  rows*cols float64 values in row-major order.  Round-trips bit-exactly.

``read_matrix`` reads a file as a dense matrix; ``open_stream`` opens it
as a replayable stream of row blocks (see ``streams``).  CSV and binary
streams re-read the file lazily on each traversal: binary files with one
``np.fromfile`` per block, CSV with the per-line parser (so errors name the
line) packed into blocks.  MatrixMarket sources are parsed fully and then
streamed in row order.  A binary file's size must match its header exactly,
which is checked before any data is read.  Text formats are read as bytes
and decoded line by line, so a non-ASCII byte is a ParseError naming its
line.

Both readers take an optional ``InputDigest``, which hashes the bytes they
read (on a stream's first traversal only) as they are read, so the input's
sha256 needs no second read of the file.
"""

from __future__ import annotations

import hashlib
import io
import os
import struct
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from .errors import ParseError
from .linalg import as_matrix
from . import streams
from .streams import BlockStream, IterableRowStream, MatrixRowStream, RowStream

_BINARY_HEADER = struct.Struct("<QQ")
_MM_MAGIC = "%%MatrixMarket"
_CHUNK_BYTES = 1 << 22  # bytes per read of a dense binary file
_BATCH_BYTES = 1 << 20  # smaller chunks are copied into batches of this size for hashing

FORMATS = ("matrixmarket", "csv", "binary")


class InputDigest:
    """sha256 of the bytes fed to it, hashed in order on one worker thread.

    ``update`` queues a chunk and returns, so hashing overlaps the reader's
    caller; ``hexdigest`` waits for the queue.  A chunk must stay unchanged
    until it is hashed.  Small chunks (text lines) are batched into
    ``_BATCH_BYTES`` pieces.  Use as a context manager: leaving the block
    drops what is still queued and joins the worker.
    """

    def __init__(self):
        self.size = 0  # bytes fed
        self._hash = hashlib.sha256()
        self._pool = ThreadPoolExecutor(max_workers=1)  # sha256 is sequential
        self._queued = []
        self._batch = bytearray()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._pool.shutdown(wait=True, cancel_futures=True)

    def update(self, data, wait: bool = True) -> None:
        """Queue ``data`` after the bytes fed before it.

        With ``wait``, the chunks queued earlier are hashed first, so the
        digest holds at most this chunk when the caller frees its chunks as
        it goes.  ``wait=False`` is for views of a buffer the caller keeps.
        """
        data = memoryview(data).cast("B")
        self.size += data.nbytes
        if data.nbytes < _BATCH_BYTES:
            self._batch += data
            if len(self._batch) >= _BATCH_BYTES:
                self._flush(wait)
        else:
            self._flush(wait)
            self._submit(data, wait)

    def _flush(self, wait: bool) -> None:
        if self._batch:
            self._submit(self._batch, wait)
            self._batch = bytearray()

    def _submit(self, data, wait: bool) -> None:
        if wait:
            self._drain()
        self._queued.append(self._pool.submit(self._hash.update, data))

    def _drain(self) -> None:
        for future in self._queued:
            future.result()
        self._queued.clear()

    def hexdigest(self) -> str:
        self._flush(wait=False)
        self._drain()
        return self._hash.hexdigest()


def detect_format(path) -> str:
    """Guess the format from the leading bytes, falling back to the suffix."""
    p = Path(path)
    with open(p, "rb") as fh:
        head = fh.read(64)
    if head.startswith(_MM_MAGIC.encode()):
        return "matrixmarket"
    suffix = p.suffix.lower()
    if suffix in (".mtx", ".mm"):
        return "matrixmarket"
    if suffix == ".csv":
        return "csv"
    if suffix == ".bin":
        return "binary"
    try:
        text = head.decode("ascii")
    except UnicodeDecodeError:
        return "binary"
    if "," in text:
        return "csv"
    return "binary"


def _resolve(path, fmt: str) -> str:
    if fmt == "auto":
        return detect_format(path)
    if fmt not in FORMATS:
        raise ParseError(f"unknown format {fmt!r}; expected one of {FORMATS} or 'auto'", path=path)
    return fmt


def read_matrix(path, fmt: str = "auto", digest: InputDigest | None = None) -> np.ndarray:
    """Read a matrix file; ``digest`` is fed every byte of it."""
    fmt = _resolve(path, fmt)
    if fmt == "matrixmarket":
        return _read_matrixmarket(path, digest)
    if fmt == "csv":
        return _read_csv(path, digest)
    return _read_binary(path, digest)


def open_stream(path, fmt: str = "auto", digest: InputDigest | None = None) -> RowStream:
    """Replayable stream of row blocks over a matrix file.

    ``digest`` is fed every byte of the file during the first traversal.
    """
    fmt = _resolve(path, fmt)
    if fmt == "matrixmarket":
        return MatrixRowStream(_read_matrixmarket(path, digest))
    feeds = iter([digest])  # next(feeds, None): the digest, then None on later traversals
    if fmt == "csv":
        n_cols = _csv_width(path)
        return IterableRowStream(lambda: _iter_csv_rows(path, n_cols, next(feeds, None)), n_cols)
    with open(path, "rb") as fh:
        m, n = _binary_shape(fh, path)
    return BlockStream(lambda: _iter_binary_blocks(path, m, n, next(feeds, None)), n)


def _text_lines(path, digest: InputDigest | None = None):
    """Yield ``(line number, line)`` of an ASCII file, split as text mode splits it.

    Each raw line is fed to ``digest`` before it is decoded.
    """
    lineno = 0
    with open(path, "rb") as fh:
        for raw in fh:
            if digest is not None:
                digest.update(raw)
            try:
                text = raw.decode("ascii")
            except UnicodeDecodeError as exc:
                raise ParseError(
                    f"non-ASCII byte {raw[exc.start]:#04x}", path=path, line=lineno + 1
                ) from None
            # text mode also ends a line at a lone "\r"
            for line in io.StringIO(text, newline=None) if "\r" in text else (text,):
                lineno += 1
                yield lineno, line


# --- CSV ---------------------------------------------------------------


def _parse_csv_line(line: str, path, lineno: int) -> np.ndarray:
    parts = line.split(",")
    try:
        values = [float(p) for p in parts]
    except ValueError:
        raise ParseError(f"invalid numeric field in {parts!r}", path=path, line=lineno)
    row = np.array(values)
    if not np.isfinite(row).all():
        raise ParseError("non-finite value", path=path, line=lineno)
    return row


def _iter_csv_rows(path, n_cols: int, digest: InputDigest | None = None):
    index = 0
    for lineno, line in _text_lines(path, digest):
        line = line.strip()
        if not line:
            continue
        row = _parse_csv_line(line, path, lineno)
        if row.size != n_cols:
            raise ParseError(
                f"expected {n_cols} fields, got {row.size}", path=path, line=lineno
            )
        yield index, row
        index += 1


def _csv_width(path) -> int:
    for lineno, line in _text_lines(path):
        line = line.strip()
        if line:
            return _parse_csv_line(line, path, lineno).size
    raise ParseError("empty CSV file", path=path)


def _read_csv(path, digest: InputDigest | None = None) -> np.ndarray:
    width = _csv_width(path)
    rows = [row for _, row in _iter_csv_rows(path, width, digest)]
    return np.stack(rows)


def write_csv(path, a) -> None:
    arr = as_matrix(a)
    with open(path, "w", encoding="ascii") as fh:
        for row in arr:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


# --- MatrixMarket ------------------------------------------------------


def _read_matrixmarket(path, digest: InputDigest | None = None) -> np.ndarray:
    lines = [line for _, line in _text_lines(path, digest)]
    if not lines or not lines[0].startswith(_MM_MAGIC):
        raise ParseError("missing MatrixMarket header", path=path, line=1)
    header = lines[0].split()
    if len(header) != 5 or header[1].lower() != "matrix":
        raise ParseError(f"malformed header {lines[0]!r}", path=path, line=1)
    layout, field, symmetry = (tok.lower() for tok in header[2:5])
    if layout not in ("array", "coordinate"):
        raise ParseError(f"unsupported layout {layout!r}", path=path, line=1)
    if field not in ("real", "integer"):
        raise ParseError(f"unsupported field {field!r}", path=path, line=1)
    if symmetry != "general":
        raise ParseError(f"unsupported symmetry {symmetry!r}", path=path, line=1)

    body = [
        (lineno, line.strip())
        for lineno, line in enumerate(lines[1:], start=2)
        if line.strip() and not line.lstrip().startswith("%")
    ]
    if not body:
        raise ParseError("missing size line", path=path)
    size_lineno, size_line = body[0]
    entries = body[1:]

    def ints(tokens, lineno):
        try:
            return [int(t) for t in tokens]
        except ValueError:
            raise ParseError(f"invalid integer in {tokens!r}", path=path, line=lineno)

    if layout == "array":
        dims = ints(size_line.split(), size_lineno)
        if len(dims) != 2 or dims[0] < 1 or dims[1] < 1:
            raise ParseError(f"bad size line {size_line!r}", path=path, line=size_lineno)
        m, n = dims
        values: list[float] = []
        for lineno, line in entries:
            for tok in line.split():
                try:
                    values.append(float(tok))
                except ValueError:
                    raise ParseError(f"invalid value {tok!r}", path=path, line=lineno)
        if len(values) != m * n:
            raise ParseError(
                f"expected {m * n} values, got {len(values)}", path=path
            )
        # array layout stores values column by column
        arr = np.array(values).reshape((n, m)).T
    else:
        dims = ints(size_line.split(), size_lineno)
        if len(dims) != 3 or dims[0] < 1 or dims[1] < 1 or dims[2] < 0:
            raise ParseError(f"bad size line {size_line!r}", path=path, line=size_lineno)
        m, n, nnz = dims
        if len(entries) != nnz:
            raise ParseError(f"expected {nnz} entries, got {len(entries)}", path=path)
        arr = np.zeros((m, n))
        seen: set[tuple[int, int]] = set()
        for lineno, line in entries:
            tokens = line.split()
            if len(tokens) != 3:
                raise ParseError(f"expected 'i j value', got {line!r}", path=path, line=lineno)
            i, j = ints(tokens[:2], lineno)
            try:
                v = float(tokens[2])
            except ValueError:
                raise ParseError(f"invalid value {tokens[2]!r}", path=path, line=lineno)
            if not (1 <= i <= m and 1 <= j <= n):
                raise ParseError(f"entry ({i}, {j}) out of range", path=path, line=lineno)
            if (i, j) in seen:
                raise ParseError(f"duplicate entry ({i}, {j})", path=path, line=lineno)
            seen.add((i, j))
            arr[i - 1, j - 1] = v
    if not np.isfinite(arr).all():
        raise ParseError("non-finite value", path=path)
    return arr


def write_matrixmarket(path, a) -> None:
    arr = as_matrix(a)
    m, n = arr.shape
    with open(path, "w", encoding="ascii") as fh:
        fh.write("%%MatrixMarket matrix array real general\n")
        fh.write(f"{m} {n}\n")
        for j in range(n):
            for i in range(m):
                fh.write(repr(float(arr[i, j])) + "\n")


# --- binary -------------------------------------------------------------


def _binary_shape(fh, path) -> tuple[int, int]:
    """Read the header from the start of ``fh`` and check the file size against it."""
    head = fh.read(_BINARY_HEADER.size)
    if len(head) != _BINARY_HEADER.size:
        raise ParseError("truncated header", path=path)
    m, n = _BINARY_HEADER.unpack(head)
    if m < 1 or n < 1:
        raise ParseError(f"bad dimensions ({m}, {n})", path=path)
    expected = _BINARY_HEADER.size + 8 * m * n
    size = os.fstat(fh.fileno()).st_size
    if size != expected:
        raise ParseError(
            f"file has {size} bytes, a {m}x{n} matrix needs {expected}", path=path
        )
    return int(m), int(n)


def _read_binary(path, digest: InputDigest | None = None) -> np.ndarray:
    """Read the data into one array, ``_CHUNK_BYTES`` at a time.

    Each chunk is handed to ``digest`` as it lands and scanned for
    non-finite values; this is the matrix's only finiteness scan.
    """
    with open(path, "rb") as fh:
        m, n = _binary_shape(fh, path)
        if digest is not None:
            digest.update(_BINARY_HEADER.pack(m, n))
        arr = np.empty((m, n), dtype="<f8")
        flat = arr.reshape(-1)
        data = memoryview(flat).cast("B")
        step = _CHUNK_BYTES // 8
        for start in range(0, m * n, step):
            chunk = data[8 * start : 8 * (start + step)]
            got = fh.readinto(chunk)
            if got != chunk.nbytes:
                raise ParseError(
                    f"expected {m * n} float64 values, got {start + got // 8}", path=path
                )
            if digest is not None:
                digest.update(chunk, wait=False)  # a view of arr, which outlives the digest
            if not np.isfinite(flat[start : start + step]).all():
                raise ParseError("non-finite value", path=path)
    return arr.astype(np.float64, copy=False)


def _iter_binary_blocks(path, m: int, n: int, digest: InputDigest | None = None):
    step = streams.BLOCK_ROWS
    with open(path, "rb") as fh:
        head = fh.read(_BINARY_HEADER.size)
        if digest is not None:
            digest.update(head)
        for start in range(0, m, step):
            rows = min(step, m - start)
            data = np.fromfile(fh, dtype="<f8", count=rows * n)
            if data.size != rows * n:
                raise ParseError(f"truncated at row {start + data.size // n}", path=path)
            if digest is not None:
                digest.update(data)
            block = data.astype(np.float64, copy=False).reshape((rows, n))
            yield np.arange(start, start + rows, dtype=np.int64), block


def write_binary(path, a) -> None:
    arr = as_matrix(a)
    m, n = arr.shape
    with open(path, "wb") as fh:
        fh.write(_BINARY_HEADER.pack(m, n))
        fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()
