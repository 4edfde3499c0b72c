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
which is checked before any data is read.
"""

from __future__ import annotations

import os
import struct
from pathlib import Path

import numpy as np

from .errors import ParseError
from .linalg import as_matrix
from . import streams
from .streams import BlockStream, IterableRowStream, MatrixRowStream, RowStream

_BINARY_HEADER = struct.Struct("<QQ")
_MM_MAGIC = "%%MatrixMarket"

FORMATS = ("matrixmarket", "csv", "binary")


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


def read_matrix(path, fmt: str = "auto") -> np.ndarray:
    fmt = _resolve(path, fmt)
    if fmt == "matrixmarket":
        return _read_matrixmarket(path)
    if fmt == "csv":
        return _read_csv(path)
    return _read_binary(path)


def open_stream(path, fmt: str = "auto") -> RowStream:
    """Replayable stream of row blocks over a matrix file."""
    fmt = _resolve(path, fmt)
    if fmt == "matrixmarket":
        return MatrixRowStream(_read_matrixmarket(path))
    if fmt == "csv":
        n_cols = _csv_width(path)
        return IterableRowStream(lambda: _iter_csv_rows(path, n_cols), n_cols)
    m, n = _binary_shape(path)
    return BlockStream(lambda: _iter_binary_blocks(path, m, n), n)


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


def _iter_csv_rows(path, n_cols: int):
    index = 0
    with open(path, "r", encoding="ascii") as fh:
        for lineno, line in enumerate(fh, start=1):
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
    with open(path, "r", encoding="ascii") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if line:
                return _parse_csv_line(line, path, lineno).size
    raise ParseError("empty CSV file", path=path)


def _read_csv(path) -> np.ndarray:
    width = _csv_width(path)
    rows = [row for _, row in _iter_csv_rows(path, width)]
    return np.stack(rows)


def write_csv(path, a) -> None:
    arr = as_matrix(a)
    with open(path, "w", encoding="ascii") as fh:
        for row in arr:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


# --- MatrixMarket ------------------------------------------------------


def _read_matrixmarket(path) -> np.ndarray:
    with open(path, "r", encoding="ascii") as fh:
        lines = fh.readlines()
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


def _binary_shape(path) -> tuple[int, int]:
    with open(path, "rb") as fh:
        head = fh.read(_BINARY_HEADER.size)
    if len(head) != _BINARY_HEADER.size:
        raise ParseError("truncated header", path=path)
    m, n = _BINARY_HEADER.unpack(head)
    if m < 1 or n < 1:
        raise ParseError(f"bad dimensions ({m}, {n})", path=path)
    expected = _BINARY_HEADER.size + 8 * m * n
    size = os.path.getsize(path)
    if size != expected:
        raise ParseError(
            f"file has {size} bytes, a {m}x{n} matrix needs {expected}", path=path
        )
    return int(m), int(n)


def _read_binary(path) -> np.ndarray:
    m, n = _binary_shape(path)
    with open(path, "rb") as fh:
        fh.seek(_BINARY_HEADER.size)
        data = np.fromfile(fh, dtype="<f8", count=m * n)
    if data.size != m * n:
        raise ParseError(f"expected {m * n} float64 values, got {data.size}", path=path)
    arr = data.astype(np.float64, copy=False).reshape((m, n))
    if not np.isfinite(arr).all():
        raise ParseError("non-finite value", path=path)
    return arr


def _iter_binary_blocks(path, m: int, n: int):
    step = streams.BLOCK_ROWS
    with open(path, "rb") as fh:
        fh.seek(_BINARY_HEADER.size)
        for start in range(0, m, step):
            rows = min(step, m - start)
            data = np.fromfile(fh, dtype="<f8", count=rows * n)
            if data.size != rows * n:
                raise ParseError(f"truncated at row {start + data.size // n}", path=path)
            block = data.astype(np.float64, copy=False).reshape((rows, n))
            yield np.arange(start, start + rows, dtype=np.int64), block


def write_binary(path, a) -> None:
    arr = as_matrix(a)
    m, n = arr.shape
    with open(path, "wb") as fh:
        fh.write(_BINARY_HEADER.pack(m, n))
        fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def sha256_file(path) -> str:
    import hashlib

    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()
