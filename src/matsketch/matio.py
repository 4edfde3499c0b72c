"""Matrix file formats: MatrixMarket, CSV, raw binary.

* MatrixMarket ``array`` (column-major values) and ``coordinate`` (1-based
  ``i j value`` triples, duplicates rejected); only ``real``/``integer``
  fields with ``general`` symmetry are accepted.
* CSV: one matrix row per line, comma-separated.
* Binary: little-endian header of two u64 (rows, cols) followed by
  rows*cols float64 values in row-major order.  Round-trips bit-exactly.

``open_stream`` is the one way into a file: it alone calls ``detect_format``
(the file's bytes alone choose its reader) and it reads only the width: a
binary header (the file's size checked), a CSV's first line, or a
MatrixMarket header and size line.  Its stream replays the rows as row
blocks (see ``streams``) in file order, and its ``read`` (``read_matrix``)
returns them as one matrix.  CSV and binary streams re-read the file on each
traversal: CSV with the per-line parser (so errors name the line), whose
blocks ``read`` joins.  One block loop reads binary data for both: a
traversal gets a fresh array per block, ``read`` has each block read into
its place in the result, so a truncated file fails with the same "truncated
at row R" either way, as do a header that no longer declares the shape
opened and a byte after the last row.  A MatrixMarket stream parses the file
once, on its first traversal or read, and keeps the array.  Text formats are
read in 64 KiB byte chunks and split at ``\\n``, ``\\r\\n`` and ``\\r`` alike,
so line numbers are exact for every line end: a non-ASCII byte is a
ParseError naming its line, and so is a last line without a line end (a
file cut inside its last number).

Every reader rejects a non-finite value with a ParseError: the CSV and
MatrixMarket parsers as they parse it, naming its line; the binary block
loop per block (every block of a ``read``, a stream's first traversal
only), naming the first bad row.  A binary stream's later traversals are
not scanned again: the library replays a stream only through
``sampling._traverse`` given the first pass's weights (which
``sampling.WeightPass.replay`` wraps), whose bitwise weight test rejects
any entry that is no longer finite.  Streams do no scan of their own.

A binary stream's ``RowStream.gather`` is ``_gather_binary_rows``, which
alone decides whether a gather runs: sampling's pass two then reads only
the distinct chosen rows, one ``os.preadv`` each, and checks their weights
bit for bit.  It runs only where ``os`` has ``preadv`` (not on Windows)
and the reads cost less than a full traversal, which takes over once the
chosen rows are a large enough share of the file (``_PREAD_BYTES``: about
8% of 100-column rows, 33% of 1000-column ones).  The rows it does not read
are guarded by a stamp of the file (device, inode, size, mtime and ctime
in ns) taken when the stream checks the header: if the stamp differs after
the reads, pass two replays the whole file instead.  A rewrite that keeps
the stamp (on a filesystem with coarse timestamps) and touches no chosen
row goes unseen, and cannot change the sketch.

A binary header and a MatrixMarket size line are checked against physical
memory (``linalg.require_allocatable``) before the matrix is allocated (a
size line when the stream opens), and the MatrixMarket parser holds no
more than that check covered: ``array`` values fill a float64 vector of
m*n entries, ``coordinate`` duplicates are tracked in an m x n bool mask.

``open_stream`` takes an optional ``InputDigest``, which hashes the bytes
its stream's first traversal or read reads, as they are read, on one worker
thread fed through a queue, so the input's sha256 needs no second read of
the file.
"""

from __future__ import annotations

import functools
import hashlib
import math
import os
import queue
import stat
import struct
import threading
from itertools import islice

import numpy as np

from .errors import ParseError
from .linalg import as_matrix, require_allocatable
from . import streams
from .streams import MatrixRowStream, RowStream

_BINARY_HEADER = struct.Struct("<QQ")
_MM_MAGIC = "%%MatrixMarket"
_BATCH_BYTES = 1 << 20  # smaller chunks are copied into batches of this size for hashing
_TEXT_CHUNK_BYTES = 1 << 16  # text files are read in chunks of this size
# a gather reads a w-byte row in about the time a full traversal takes to read
# and weigh _PREAD_BYTES + 2w bytes of rows: a bound on the side of the
# traversal for rows of 16 B to 32 KB (see _gather_binary_rows)
_PREAD_BYTES = 8192


class InputDigest:
    """sha256 of the bytes fed to it, hashed in order on one worker thread.

    ``update`` queues a chunk and returns, so hashing overlaps the reader's
    caller; ``hexdigest`` waits for the queue.  A chunk must stay unchanged
    until it is hashed.  Small chunks (a text reader's 64 KiB chunks) are
    batched into ``_BATCH_BYTES`` pieces (one handoff to the worker a
    megabyte); chunks passed with ``wait=False`` are views the caller keeps
    and are queued as they are, never copied.  The worker is one daemon
    ``threading.Thread`` fed through a ``queue.Queue``: it hashes the pieces
    in order and drops each one before it reports it hashed, so a waiting
    caller finds the chunks it fed before released.  An exception the hash
    raises there comes out of the caller's next wait.  A daemon thread
    blocked on its queue does not keep the interpreter alive.  Use as a
    context manager: leaving the block drops what is still queued and joins
    the worker.
    """

    def __init__(self):
        self.size = 0  # bytes fed
        self._hash = hashlib.sha256()
        self._queue = queue.Queue()  # pieces to hash, then None to stop
        self._closed = False  # set on leaving the block: queued pieces are dropped
        self._error = None  # what the hash raised in the worker
        self._batch = bytearray()
        self._worker = threading.Thread(target=self._work, daemon=True)  # sha256 is sequential
        self._worker.start()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._closed = True
        self._queue.put(None)
        self._worker.join()

    def _work(self) -> None:
        while (piece := self._queue.get()) is not None:
            if not self._closed and self._error is None:
                try:
                    self._hash.update(piece)
                except BaseException as exc:  # raised again in the caller, by _wait
                    self._error = exc
            del piece  # released before the caller hears it is hashed
            self._queue.task_done()

    def update(self, data, wait: bool = True) -> None:
        """Queue ``data`` after the bytes fed before it.

        With ``wait``, the chunks queued earlier are hashed first, so the
        digest holds at most this chunk when the caller frees its chunks as
        it goes.  ``wait=False`` is for views of a buffer the caller keeps.
        """
        data = memoryview(data).cast("B")
        self.size += data.nbytes
        if wait and data.nbytes < _BATCH_BYTES:
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
            self._wait()
        self._queue.put(data)

    def _wait(self) -> None:
        """Wait until every queued piece is hashed; raise what the hash raised."""
        if self._closed:  # the worker is gone, and a join would wait for ever
            raise RuntimeError("the digest's block has been left")
        self._queue.join()
        if self._error is not None:
            raise self._error

    def hexdigest(self) -> str:
        self._flush(wait=False)
        self._wait()
        return self._hash.hexdigest()


def detect_format(path) -> str:
    """The format of a matrix file, from its first 64 bytes alone.

    ``%%MatrixMarket`` at the start means MatrixMarket.  A NUL byte means
    binary: a binary header always holds one, since the top byte of its
    u64 row count is 0 for any file under 512 PiB, and a valid CSV never
    does.  Anything else is CSV, so text with a non-ASCII byte gets the CSV
    reader's error naming its line.  The file's name is not read.  Not a
    regular file (a pipe loses what each earlier open read): ParseError.
    """
    if not stat.S_ISREG(os.stat(path).st_mode):
        raise ParseError("not a regular file", path=path)
    with open(path, "rb") as fh:
        head = fh.read(64)
    if head.startswith(_MM_MAGIC.encode()):
        return "matrixmarket"
    return "binary" if b"\0" in head else "csv"


def read_matrix(source) -> np.ndarray:
    """A matrix file read whole: ``source`` is its path or its stream from ``open_stream``."""
    return (source if isinstance(source, RowStream) else open_stream(source)).read()


def open_stream(path, digest: InputDigest | None = None) -> RowStream:
    """Replayable stream of row blocks over a matrix file, opened by its width alone.

    ``digest`` is fed every byte of the file by the first traversal or
    ``read``.  A binary file is scanned for non-finite entries on the first
    traversal and on every ``read``.  A binary stream's ``read`` is
    ``_read_binary`` and its ``gather`` is ``_gather_binary_rows``.
    """
    fmt = detect_format(path)
    if fmt == "matrixmarket":
        shape = _matrixmarket_header(path)[1][:2]
        require_allocatable(*shape)
        parsed = functools.cache(lambda: _read_matrixmarket(path, shape, digest))
        stream = RowStream(lambda: iter(MatrixRowStream(parsed())), shape[1])
        stream.read = parsed
        return stream
    if fmt == "csv":
        n_cols = next(_iter_csv_rows(path, None)).size
        feeds = iter([digest])  # next(feeds, None): the digest, then None on later traversals
        return RowStream(lambda: _iter_csv_blocks(path, n_cols, next(feeds, None)), n_cols)
    with open(path, "rb") as fh:
        m, n = _binary_shape(fh, path)
        stamp = _file_stamp(fh)
    # the digest and the finiteness scan, then neither (a read always scans): a
    # replay's non-finite entry fails the bitwise weight test of sampling._traverse
    feeds = iter([(digest, _check_finite)])
    stream = RowStream(lambda: _iter_binary_blocks(path, m, n, *next(feeds, (None, None))), n)
    stream.read = lambda: _read_binary(path, m, n, next(feeds, (None,))[0])
    stream.gather = lambda rows: _gather_binary_rows(path, m, n, rows, stamp)
    return stream


def _text_lines(path, digest: InputDigest | None = None):
    """Yield ``(line number, line)`` for each non-blank line of an ASCII file.

    Reads ``_TEXT_CHUNK_BYTES`` chunks, each fed to ``digest``.  A line is
    yielded without its line end and trailing whitespace; line numbers count
    blank lines too.  A non-ASCII byte is a ParseError naming its line, and
    so is a last line without a line end: a file cut inside its last number
    would otherwise read as a different value.
    """
    lineno, carry = 0, bytearray()
    with open(path, "rb") as fh:
        while True:
            chunk = fh.read(_TEXT_CHUNK_BYTES)
            if digest is not None:
                digest.update(chunk)
            carry += chunk
            if chunk and b"\n" not in chunk and b"\r" not in chunk:
                continue  # a long line is split once it ends, not once per chunk
            lines = carry.splitlines(keepends=True)
            # the last piece may go on in the next chunk, or be a "\r" whose "\n" starts it
            carry = lines.pop() if chunk else b""
            for raw in lines:
                lineno += 1
                try:
                    line = raw.decode("ascii")
                except UnicodeDecodeError as exc:
                    raise ParseError(
                        f"non-ASCII byte {raw[exc.start]:#04x}", path=path, line=lineno
                    ) from None
                if not line.endswith(("\n", "\r")):
                    raise ParseError("last line has no line end", path=path, line=lineno)
                line = line.rstrip()
                if line:
                    yield lineno, line
            if not chunk:
                return


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


def _iter_csv_rows(path, n_cols: int | None, digest: InputDigest | None = None):
    """A CSV file's rows, each ``n_cols`` wide (None: the first row's); no row is a ParseError."""
    row = None
    for lineno, line in _text_lines(path, digest):
        row = _parse_csv_line(line, path, lineno)
        n_cols = n_cols or row.size
        if row.size != n_cols:
            raise ParseError(
                f"expected {n_cols} fields, got {row.size}", path=path, line=lineno
            )
        yield row
    if row is None:
        raise ParseError("empty CSV file", path=path)


def _iter_csv_blocks(path, n_cols: int, digest: InputDigest | None = None):
    """Yield blocks of at most ``BLOCK_ROWS`` CSV rows."""
    rows = _iter_csv_rows(path, n_cols, digest)
    while block := list(islice(rows, streams.BLOCK_ROWS)):
        yield np.array(block)


def write_csv(path, a) -> None:
    arr = as_matrix(a)
    with open(path, "w", encoding="ascii") as fh:
        for row in arr:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


# --- MatrixMarket ------------------------------------------------------


def _matrixmarket_header(path, digest: InputDigest | None = None):
    """``(layout, dims, entries)`` of a MatrixMarket file: dims ``[m, n]``
    (array) or ``[m, n, nnz]`` (coordinate), entries the ``(line number,
    line)`` pairs after the size line, comments skipped, read lazily."""
    lines = _text_lines(path, digest)
    lineno, header = next(lines, (None, ""))
    if lineno != 1 or not header.startswith(_MM_MAGIC):
        raise ParseError("missing MatrixMarket header", path=path, line=1)
    tokens = header.split()
    if len(tokens) != 5 or tokens[1].lower() != "matrix":
        raise ParseError(f"malformed header {header!r}", path=path, line=1)
    layout, field, symmetry = (tok.lower() for tok in tokens[2:5])
    if layout not in ("array", "coordinate"):
        raise ParseError(f"unsupported layout {layout!r}", path=path, line=1)
    if field not in ("real", "integer"):
        raise ParseError(f"unsupported field {field!r}", path=path, line=1)
    if symmetry != "general":
        raise ParseError(f"unsupported symmetry {symmetry!r}", path=path, line=1)

    entries = ((lineno, line) for lineno, line in lines if not line.lstrip().startswith("%"))
    size_lineno, size_line = next(entries, (None, None))
    if size_line is None:
        raise ParseError("missing size line", path=path)
    # array: "m n"; coordinate: "m n nnz"
    dims = _ints(size_line.split(), path, size_lineno)
    if len(dims) != (2 if layout == "array" else 3) or dims[0] < 1 or dims[1] < 1 or dims[-1] < 0:
        raise ParseError(f"bad size line {size_line!r}", path=path, line=size_lineno)
    return layout, dims, entries


def _ints(tokens, path, lineno) -> list[int]:
    try:
        return [int(t) for t in tokens]
    except ValueError:
        raise ParseError(f"invalid integer in {tokens!r}", path=path, line=lineno)


def _read_matrixmarket(path, shape: list[int], digest: InputDigest | None = None) -> np.ndarray:
    layout, dims, entries = _matrixmarket_header(path, digest)
    m, n = shape  # the size line open_stream checked against memory
    if dims[:2] != shape:
        raise ParseError(f"size line no longer declares {m}x{n}", path=path)
    if layout == "array":
        values = np.empty(m * n)  # 8 bytes a value, as the allocation check assumed
        count = 0
        for lineno, line in entries:
            for tok in line.split():
                try:
                    values[count] = v = float(tok)
                except ValueError:
                    raise ParseError(f"invalid value {tok!r}", path=path, line=lineno)
                except IndexError:
                    raise ParseError(f"more than the {m * n} values declared", path=path, line=lineno)
                if not math.isfinite(v):
                    raise ParseError("non-finite value", path=path, line=lineno)
                count += 1
        if count != m * n:
            raise ParseError(f"expected {m * n} values, got {count}", path=path)
        # array layout stores values column by column
        arr = values.reshape((n, m)).T
    else:
        arr = np.zeros((m, n))
        seen = np.zeros((m, n), dtype=bool)
        for lineno, line in entries:
            tokens = line.split()
            if len(tokens) != 3:
                raise ParseError(f"expected 'i j value', got {line!r}", path=path, line=lineno)
            i, j = _ints(tokens[:2], path, lineno)
            try:
                v = float(tokens[2])
            except ValueError:
                raise ParseError(f"invalid value {tokens[2]!r}", path=path, line=lineno)
            if not math.isfinite(v):
                raise ParseError("non-finite value", path=path, line=lineno)
            if not (1 <= i <= m and 1 <= j <= n):
                raise ParseError(f"entry ({i}, {j}) out of range", path=path, line=lineno)
            cell = i - 1, j - 1
            if seen[cell]:
                raise ParseError(f"duplicate entry ({i}, {j})", path=path, line=lineno)
            seen[cell] = True
            arr[cell] = v
        count = np.count_nonzero(seen)  # duplicates are refused: one cell an entry
        if count != dims[2]:
            raise ParseError(f"expected {dims[2]} entries, got {count}", path=path)
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


def _file_stamp(fh) -> tuple[int, ...]:
    """Device, inode, size, and mtime and ctime in ns of the open file ``fh``."""
    st = os.fstat(fh.fileno())
    return (st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns, st.st_ctime_ns)


def _gather_binary_rows(path, m: int, n: int, rows: np.ndarray, stamp) -> np.ndarray | None:
    """Rows ``rows`` (sorted, distinct) of an m x n binary file, one ``os.preadv`` each.

    None, before any read, where ``os`` has no ``preadv`` (Windows) or a
    full traversal would be cheaper: where ``rows.size * (_PREAD_BYTES +
    2w)`` exceeds the file's ``m * w`` bytes of rows, ``w = 8n``.  None too
    if, after the reads, the file's ``_file_stamp`` is no longer ``stamp``,
    the one taken when the stream checked the header: the file may have
    changed since, and only a full traversal can check it.  A read cut
    short is a ParseError, "truncated at row R".  The rows are not scanned
    for non-finite values; their weights are checked instead.
    """
    width = 8 * n
    if not hasattr(os, "preadv") or rows.size * (_PREAD_BYTES + 2 * width) > m * width:
        return None
    out = np.empty((rows.size, n), dtype="<f8")
    with open(path, "rb") as fh:
        fd = fh.fileno()
        for row, buf in zip(rows.tolist(), out):
            if os.preadv(fd, [buf], _BINARY_HEADER.size + width * row) != width:
                raise ParseError(f"truncated at row {row}", path=path)
        if _file_stamp(fh) != stamp:
            return None
    return out.astype(np.float64, copy=False)


def _check_finite(values, first: int, n: int, path) -> None:
    """ParseError naming the row of the first non-finite entry, if any.

    ``values`` are the row-major entries of an ``n``-column matrix from
    flat position ``first`` on.  A finite sum clears every entry without a
    bool temporary; only when it is not finite (a non-finite entry, or
    finite entries whose sum overflows) are the entries tested one by one.
    A plain reduction, not a BLAS dot: on a small input that needs no other
    BLAS call, the dot's first call raised peak memory by ~0.2 MiB.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        if math.isfinite(values.sum()):
            return
    finite = np.isfinite(values)
    if not finite.all():
        row = (first + int(np.argmin(finite))) // n
        raise ParseError(f"non-finite value in row {row}", path=path)


def _read_binary(path, m: int, n: int, digest: InputDigest | None = None) -> np.ndarray:
    """Read the m x n data into one array, block by block through ``_iter_binary_blocks``."""
    require_allocatable(m, n)
    arr = np.empty((m, n), dtype="<f8")
    for _ in _iter_binary_blocks(path, m, n, digest, _check_finite, out=arr):
        pass
    return arr.astype(np.float64, copy=False)


def _iter_binary_blocks(path, m: int, n: int, digest: InputDigest | None = None, check=None, out=None):
    """Yield blocks of at most ``BLOCK_ROWS`` rows, each passed to ``check`` if given.

    Each block is read into the rows of ``out`` it covers, if given, else
    into a fresh array.  ``digest`` is fed the header and every block.  A
    header other than m x n's, a short read or a byte after row m - 1: ParseError.
    """
    step = streams.BLOCK_ROWS
    with open(path, "rb") as fh:
        head = fh.read(_BINARY_HEADER.size)
        if head != _BINARY_HEADER.pack(m, n):
            raise ParseError(f"header no longer declares {m}x{n}", path=path)
        if digest is not None:
            digest.update(head)
        for start in range(0, m, step):
            rows = min(step, m - start)
            block = np.empty((rows, n), dtype="<f8") if out is None else out[start : start + rows]
            got = fh.readinto(block)
            if got != block.nbytes:
                raise ParseError(f"truncated at row {start + got // (8 * n)}", path=path)
            if digest is not None:
                # a view of ``out``, which outlives the digest, need not wait
                digest.update(block, wait=out is None)
            if check is not None:
                check(block, start * n, n, path)
            yield block.astype(np.float64, copy=False)
        if fh.read(1):
            raise ParseError(f"bytes after row {m - 1}", path=path)


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
