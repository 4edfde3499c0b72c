import functools
import hashlib
import os
import struct
import subprocess
import sys
import threading
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matsketch import (
    Error,
    ParseError,
    TooLargeError,
    matio,
    read_matrix,
    sample_sketch,
    streams,
)
from matsketch.cli import main
from matsketch.matio import (
    InputDigest,
    detect_format,
    open_stream,
    sha256_file,
    write_binary,
    write_csv,
    write_matrixmarket,
)
from conftest import write_binary_with_nan


@pytest.fixture
def random_matrix(rng):
    return rng.normal(size=(100, 50))


class TestCsv:
    def test_identity_literal(self, tmp_path):
        path = tmp_path / "id.csv"
        path.write_text("1,0\n0,1\n")
        assert np.array_equal(read_matrix(path), np.eye(2))

    def test_round_trip(self, tmp_path, random_matrix):
        path = tmp_path / "a.csv"
        write_csv(path, random_matrix)
        assert np.array_equal(read_matrix(path), random_matrix)

    def test_ragged_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1,2,3\n4,5\n")
        with pytest.raises(ParseError, match="line 2|:2"):
            read_matrix(path)

    def test_bad_token(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1,two\n")
        with pytest.raises(ParseError):
            read_matrix(path)

    def test_non_finite(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1,nan\n")
        with pytest.raises(ParseError):
            read_matrix(path)

    def test_empty(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ParseError):
            read_matrix(path)

    def test_non_ascii_byte_names_its_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_bytes(b"1,2\n3,\xe94\n")
        with pytest.raises(ParseError, match=r":2: non-ASCII byte 0xe9"):
            read_matrix(path)
        with pytest.raises(ParseError, match=r":2: non-ASCII"):
            list(open_stream(path))

    def test_file_emptied_before_its_rows_are_read(self, tmp_path, monkeypatch, capsys, random_matrix):
        # the width is read, then the file empties before the read the digest
        # is fed: a ParseError (exit 65), not numpy's "need at least one array"
        path = tmp_path / "a.csv"
        write_csv(path, random_matrix)
        lines = matio._text_lines

        def empty_then_read(name, digest=None):
            if digest is not None:
                path.write_bytes(b"")
            return lines(name, digest)

        monkeypatch.setattr(matio, "_text_lines", empty_then_read)
        assert main(["approx-svd", "--input", str(path), "--k", "1", "--out", "-"]) == 65
        assert capsys.readouterr().err == f"matsketch: {path}: empty CSV file\n"

    @pytest.mark.parametrize("newline", [b"\r\n", b"\r"])
    def test_crlf_and_cr_line_ends(self, tmp_path, random_matrix, newline):
        path = tmp_path / "a.csv"
        write_csv(path, random_matrix)
        path.write_bytes(path.read_bytes().replace(b"\n", newline))
        assert np.array_equal(read_matrix(path), random_matrix)


class TestMatrixMarket:
    def test_array_is_column_major(self, tmp_path):
        path = tmp_path / "a.mtx"
        path.write_text(
            "%%MatrixMarket matrix array real general\n"
            "% a 2x3 example\n"
            "2 3\n"
            "1\n2\n3\n4\n5\n6\n"
        )
        expected = np.array([[1.0, 3.0, 5.0], [2.0, 4.0, 6.0]])
        assert np.array_equal(read_matrix(path), expected)

    def test_round_trip(self, tmp_path, random_matrix):
        path = tmp_path / "a.mtx"
        write_matrixmarket(path, random_matrix)
        assert np.array_equal(read_matrix(path), random_matrix)

    def test_coordinate(self, tmp_path):
        path = tmp_path / "c.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real general\n"
            "3 3 2\n"
            "1 1 5.0\n"
            "3 2 -1.5\n"
        )
        expected = np.zeros((3, 3))
        expected[0, 0] = 5.0
        expected[2, 1] = -1.5
        assert np.array_equal(read_matrix(path), expected)

    @pytest.mark.parametrize(
        "layout, size", [("coordinate", "100000000 100000000 1"), ("array", "100000000 100000000")]
    )
    def test_size_beyond_memory_refused_before_allocating(self, tmp_path, monkeypatch, layout, size):
        path = tmp_path / "huge.mtx"
        path.write_text(f"%%MatrixMarket matrix {layout} real general\n{size}\n1 1 1\n")

        def no_allocation(*args, **kwargs):
            pytest.fail("the declared matrix was allocated")

        monkeypatch.setattr(np, "zeros", no_allocation)
        monkeypatch.setattr(np, "array", no_allocation)
        for read in (read_matrix, open_stream):
            with pytest.raises(TooLargeError, match="100000000x100000000"):
                read(path)

    def test_size_line_changed_after_open_is_refused(self, tmp_path, rng):
        path = tmp_path / "a.mtx"
        write_matrixmarket(path, rng.normal(size=(8, 3)))
        stream = open_stream(path)
        write_matrixmarket(path, rng.normal(size=(12, 3)))
        with pytest.raises(ParseError, match="size line no longer declares 8x3"):
            read_matrix(stream)

    def test_coordinate_duplicate_entry(self, tmp_path):
        path = tmp_path / "dup.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real general\n"
            "2 2 2\n"
            "1 1 1.0\n"
            "1 1 2.0\n"
        )
        with pytest.raises(ParseError, match="duplicate"):
            read_matrix(path)

    def test_array_with_too_many_values_names_the_line(self, tmp_path):
        path = tmp_path / "long.mtx"
        path.write_text("%%MatrixMarket matrix array real general\n2 1\n1\n2\n3\n4\n")
        with pytest.raises(ParseError, match=r"long\.mtx:5: more than the 2 values declared"):
            read_matrix(path)

    def test_coordinate_out_of_range(self, tmp_path):
        path = tmp_path / "oob.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real general\n"
            "2 2 1\n"
            "3 1 1.0\n"
        )
        with pytest.raises(ParseError, match="out of range"):
            read_matrix(path)

    def test_unsupported_symmetry(self, tmp_path):
        path = tmp_path / "sym.mtx"
        path.write_text("%%MatrixMarket matrix array real symmetric\n1 1\n1.0\n")
        with pytest.raises(ParseError, match="symmetry"):
            read_matrix(path)

    def test_missing_header(self, tmp_path):
        path = tmp_path / "x.mtx"
        path.write_text("1 1\n1.0\n")
        with pytest.raises(ParseError, match="header"):
            read_matrix(path)

    def test_non_ascii_byte_names_its_line(self, tmp_path):
        path = tmp_path / "bad.mtx"
        path.write_bytes(b"%%MatrixMarket matrix array real general\n2 1\n1\n\xff\n")
        with pytest.raises(ParseError, match=r":4: non-ASCII byte 0xff"):
            read_matrix(path)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("layout", ["array", "coordinate"])
    def test_non_finite_value_names_its_line(self, tmp_path, capsys, layout, value):
        body = {"array": "2 2\n1\n{}\n3\n4\n", "coordinate": "2 2 2\n1 1 1\n2 1 {}\n"}[layout]
        path = tmp_path / "a.mtx"
        path.write_text(f"%%MatrixMarket matrix {layout} real general\n" + body.format(value))
        with pytest.raises(ParseError, match=r"a\.mtx:4: non-finite value"):
            read_matrix(path)
        assert main(["approx-svd", "--input", str(path), "--k", "1", "--out", "-"]) == 65
        assert capsys.readouterr().err == f"matsketch: {path}:4: non-finite value\n"


class TestBinary:
    def test_round_trip_bit_identical(self, tmp_path, random_matrix):
        path = tmp_path / "a.bin"
        write_binary(path, random_matrix)
        digest_before = sha256_file(path)
        read_back = read_matrix(path)
        assert read_back.tobytes() == random_matrix.tobytes()
        write_binary(path, read_back)
        assert sha256_file(path) == digest_before

    def test_truncated(self, tmp_path, random_matrix):
        path = tmp_path / "a.bin"
        write_binary(path, random_matrix)
        data = path.read_bytes()
        path.write_bytes(data[:-8])
        with pytest.raises(ParseError):
            read_matrix(path)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "a.bin"
        path.write_bytes(b"\x01\x00")  # the NUL marks it binary
        with pytest.raises(ParseError, match="truncated header"):
            read_matrix(path)

    @pytest.mark.parametrize("extra", [8, 24])
    def test_trailing_bytes(self, tmp_path, extra):
        path = tmp_path / "a.bin"
        write_binary(path, np.arange(6.0).reshape(3, 2))
        with open(path, "ab") as fh:
            fh.write(bytes(extra))
        with pytest.raises(ParseError, match="bytes"):
            read_matrix(path)
        with pytest.raises(ParseError, match="bytes"):
            open_stream(path)

    def test_size_beyond_memory_refused_before_allocating(self, tmp_path, monkeypatch):
        path = tmp_path / "big.bin"
        with open(path, "wb") as fh:
            fh.write(matio._BINARY_HEADER.pack(1024, 1024))
            fh.truncate(matio._BINARY_HEADER.size + 8 * 1024 * 1024)  # sparse: no data written

        def no_allocation(*args, **kwargs):
            pytest.fail("the declared matrix was allocated")

        # 64 KiB of physical memory: the matrix needs 8 MiB
        monkeypatch.setattr(os, "sysconf", {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 16}.__getitem__)
        monkeypatch.setattr(np, "empty", no_allocation)
        with pytest.raises(TooLargeError, match="1024x1024"):
            read_matrix(path)

    def test_file_shrinking_after_the_size_check(self, tmp_path, monkeypatch, random_matrix):
        path = tmp_path / "a.bin"
        write_binary(path, random_matrix)
        check_size = matio._binary_shape

        def check_then_shrink(fh, name):
            shape = check_size(fh, name)
            os.truncate(path, path.stat().st_size - 8)
            return shape

        monkeypatch.setattr(matio, "_binary_shape", check_then_shrink)
        with pytest.raises(ParseError, match="truncated at row 99"):
            read_matrix(path)

    @pytest.mark.parametrize(
        "change, message",
        [("grown", "bytes after row 7"), ("rewritten", "header no longer declares 8x3")],
    )
    def test_file_changed_after_open_is_refused(self, tmp_path, rng, change, message):
        # a stream opened on 8 rows reads its header and the file's end again, so
        # neither a traversal nor a read returns (or hashes) a prefix of the new file
        path = tmp_path / "a.bin"
        for read in (list, read_matrix):
            write_binary(path, rng.normal(size=(8, 3)))
            stream = open_stream(path)
            if change == "grown":
                with open(path, "ab") as fh:
                    fh.write(rng.normal(size=(4, 3)).tobytes())
            else:
                write_binary(path, rng.normal(size=(12, 3)))
            with pytest.raises(ParseError, match=message):
                read(stream)

    def test_nan_entry_in_a_later_chunk(self, tmp_path, monkeypatch):
        monkeypatch.setattr(streams, "BLOCK_ROWS", 3)  # the last block is short
        path = tmp_path / "a.bin"
        write_binary(path, np.arange(40.0).reshape(10, 4))
        data = bytearray(path.read_bytes())
        data[-16:-8] = struct.pack("<d", float("inf"))  # entry (9, 2)
        path.write_bytes(bytes(data))
        with pytest.raises(ParseError, match="non-finite value in row 9"):
            read_matrix(path)

    def test_stream_names_non_finite_row_in_a_later_block(self, tmp_path, monkeypatch):
        # a binary stream scans each block it reads: entry (9, 2) is in the third block
        monkeypatch.setattr(streams, "BLOCK_ROWS", 4)
        path = tmp_path / "a.bin"
        write_binary(path, np.arange(40.0).reshape(10, 4))
        data = bytearray(path.read_bytes())
        data[-16:-8] = struct.pack("<d", float("inf"))
        path.write_bytes(bytes(data))
        stream = open_stream(path)
        with pytest.raises(ParseError, match=r"a\.bin: non-finite value in row 9"):
            list(stream)

    @pytest.mark.parametrize("big", [1e200, 1e308])
    def test_huge_finite_entries_are_read(self, tmp_path, big):
        # 1e308: the scan's sum overflows, so the entries are tested one by one
        a = np.full((5, 3), big)
        a[1, 2] = -big
        path = tmp_path / "a.bin"
        write_binary(path, a)
        assert np.array_equal(read_matrix(path), a)
        assert np.array_equal(np.concatenate(list(open_stream(path))), a)

    def test_stream_scans_first_traversal_only(self, tmp_path, monkeypatch, random_matrix):
        # later traversals are checked by sampling.replay's weight test
        monkeypatch.setattr(streams, "BLOCK_ROWS", 16)
        scans = []
        check = matio._check_finite
        monkeypatch.setattr(matio, "_check_finite", lambda *args: scans.append(args) or check(*args))
        path = tmp_path / "a.bin"
        write_binary(path, random_matrix)
        stream = open_stream(path)
        for _ in range(3):
            assert np.array_equal(np.concatenate(list(stream)), random_matrix)
        assert [first for _, first, _, _ in scans] == list(range(0, 100 * 50, 16 * 50))

    @pytest.mark.parametrize("hashed", [False, True])
    def test_read_matrix_peak_is_the_matrix(self, tmp_path, monkeypatch, rng, hashed):
        # blocks are read into the result, never joined, and the digest
        # queues views of them, never copies
        monkeypatch.setattr(streams, "BLOCK_ROWS", 64)  # 51 KB blocks
        path = tmp_path / "a.bin"
        write_binary(path, rng.normal(size=(10_000, 100)))  # 8 MB
        with InputDigest() as digest:
            tracemalloc.start()
            try:
                a = read_matrix(open_stream(path, digest=digest if hashed else None))
                digest.hexdigest()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak <= a.nbytes + (1 << 20)

    def test_nan_entry(self, tmp_path):
        path = write_binary_with_nan(tmp_path / "a.bin")
        with pytest.raises(ParseError, match="non-finite"):
            read_matrix(path)

    def test_short_file_rejected_when_opened(self, tmp_path, random_matrix):
        path = tmp_path / "a.bin"
        write_binary(path, random_matrix)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(ParseError, match="bytes"):
            open_stream(path)


class TestTruncatedText:
    """A text file cut short is refused, never read as a smaller matrix."""

    @staticmethod
    def _refused(path, match=None):
        with pytest.raises(ParseError, match=match):
            read_matrix(path)
        with pytest.raises(ParseError, match=match):
            list(open_stream(path))

    @pytest.mark.parametrize(
        "fmt, a, line", [("csv", [[1.5, 2.25], [3.0, 4.75]], 2), ("matrixmarket", [[1.5], [4.75]], 4)]
    )
    def test_cut_inside_the_last_number(self, tmp_path, fmt, a, line):
        # "4.75\n" cut to "4.7" still parses: only the missing line end shows the cut
        path = tmp_path / "a.txt"
        (write_csv if fmt == "csv" else write_matrixmarket)(path, np.array(a))
        path.write_bytes(path.read_bytes()[:-2])
        assert path.read_bytes().endswith(b"4.7")
        self._refused(path, match=rf"a\.txt:{line}: last line has no line end")

    @pytest.mark.parametrize("newline", [b"\n", b"\r\n", b"\r"])
    @pytest.mark.parametrize("fmt", ["csv", "matrixmarket"])
    def test_every_line_end_ends_the_last_line(self, tmp_path, random_matrix, fmt, newline):
        path = tmp_path / "a.txt"
        (write_csv if fmt == "csv" else write_matrixmarket)(path, random_matrix)
        path.write_bytes(path.read_bytes().replace(b"\n", newline))
        assert np.array_equal(read_matrix(path), random_matrix)
        assert np.array_equal(np.concatenate(list(open_stream(path))), random_matrix)

    @pytest.mark.parametrize("layout", ["array", "coordinate"])
    def test_matrixmarket_cut_at_a_line_boundary(self, tmp_path, layout):
        a = np.arange(1.0, 7.0).reshape(2, 3)
        path = tmp_path / "a.mtx"
        if layout == "array":
            write_matrixmarket(path, a)
        else:
            entries = "".join(f"{i + 1} {j + 1} {a[i, j]!r}\n" for i in range(2) for j in range(3))
            path.write_text(f"%%MatrixMarket matrix coordinate real general\n2 3 6\n{entries}")
        data = path.read_bytes()
        cuts = [i + 1 for i, byte in enumerate(data[:-1]) if byte == ord("\n")]
        assert len(cuts) == 7  # after the header, the size line and five of six entries
        for cut in cuts:
            path.write_bytes(data[:cut])
            self._refused(path)

    def test_csv_cut_mid_line(self, tmp_path):
        path = tmp_path / "a.csv"
        write_csv(path, np.arange(1.0, 13.0).reshape(4, 3))
        data = path.read_bytes()
        last = data.rindex(b"\n", 0, -1) + 1  # start of the last line, "10.0,11.0,12.0"
        # a cut before the last comma leaves the line short of fields
        for cut in range(last + 1, data.rindex(b",") + 1):
            path.write_bytes(data[:cut])
            self._refused(path)


class TestLineSource:
    """Both text formats read lines from one chunked source, whatever the line ends."""

    @staticmethod
    def _peak(path):
        tracemalloc.start()
        try:
            read_matrix(path)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("newline", [b"\r\n", b"\r"])
    @pytest.mark.parametrize(
        "data",
        [
            b"1,2\n\n3,4\n5,\xe96\n",
            b"%%MatrixMarket matrix array real general\n2 1\n1\n\xff\n",
        ],
        ids=["csv", "matrixmarket"],
    )
    def test_non_ascii_byte_names_its_line(self, tmp_path, data, newline):
        path = tmp_path / "bad.txt"
        path.write_bytes(data.replace(b"\n", newline))
        for read in (lambda: read_matrix(path), lambda: list(open_stream(path))):
            with pytest.raises(ParseError, match=r"bad\.txt:4: non-ASCII byte"):
                read()

    def test_cr_line_ends_cost_no_memory(self, tmp_path, rng):
        lf, cr = tmp_path / "lf.csv", tmp_path / "cr.csv"
        write_csv(lf, rng.normal(size=(5000, 10)))  # ~0.9 MiB
        cr.write_bytes(lf.read_bytes().replace(b"\n", b"\r"))
        assert self._peak(cr) <= self._peak(lf) + (1 << 19)

    def test_matrixmarket_array_peak(self, tmp_path, rng):
        # no list of the file's lines: Python floats and the matrix only
        path = tmp_path / "a.mtx"
        write_matrixmarket(path, rng.normal(size=(5000, 10)))  # ~0.9 MiB
        assert self._peak(path) < 4 * path.stat().st_size

    @pytest.mark.parametrize("layout", ["array", "coordinate"])
    def test_matrixmarket_holds_only_what_was_checked(self, tmp_path, rng, layout):
        # the allocation check covers 8 bytes a value: no Python float, no set of indices
        a = rng.normal(size=(2000, 50))  # 0.76 MiB
        path = tmp_path / "a.mtx"
        if layout == "array":
            write_matrixmarket(path, a)
        else:
            with open(path, "w") as fh:
                fh.write(f"%%MatrixMarket matrix coordinate real general\n2000 50 {a.size}\n")
                for i, row in enumerate(a.tolist()):
                    fh.writelines(f"{i + 1} {j + 1} {v!r}\n" for j, v in enumerate(row))
        assert self._peak(path) <= 1.5 * a.nbytes + (1 << 19)
        assert np.array_equal(read_matrix(path), a)

    @pytest.mark.parametrize("chunk", [1, 2, 3, 7])
    @pytest.mark.parametrize("newline", [b"\n", b"\r\n", b"\r"])
    @pytest.mark.parametrize("fmt", ["csv", "matrixmarket"])
    def test_lines_split_across_chunks(self, tmp_path, monkeypatch, rng, chunk, newline, fmt):
        # blank lines (and a MatrixMarket comment); every line end meets a chunk boundary somewhere
        monkeypatch.setattr(matio, "_TEXT_CHUNK_BYTES", chunk)
        a = rng.normal(size=(5, 3))
        path = tmp_path / "a.txt"
        (write_csv if fmt == "csv" else write_matrixmarket)(path, a)
        lines = path.read_bytes().split(b"\n")
        lines.insert(1, b"% comment" if fmt == "matrixmarket" else b"")
        lines.insert(3, b"  ")
        path.write_bytes(newline.join(lines))
        with InputDigest() as digest:
            assert np.array_equal(read_matrix(open_stream(path, digest=digest)), a)
            assert digest.hexdigest() == sha256_file(path)
        assert np.array_equal(np.concatenate(list(open_stream(path))), a)


class TestDetectAndIngest:
    def test_detection(self, tmp_path, random_matrix):
        mm = tmp_path / "noext_mm"
        write_matrixmarket(mm, random_matrix)
        csv = tmp_path / "noext_csv"
        write_csv(csv, random_matrix)
        binary = tmp_path / "noext_bin"
        write_binary(binary, random_matrix)
        assert detect_format(mm) == "matrixmarket"
        assert detect_format(csv) == "csv"
        assert detect_format(binary) == "binary"

    @pytest.mark.parametrize(
        "writer, name, fmt",
        [
            (write_csv, "csv.bin", "csv"),
            (write_csv, "csv.mtx", "csv"),
            (write_binary, "bin.csv", "binary"),
            (write_matrixmarket, "mtx.bin", "matrixmarket"),
        ],
    )
    def test_detection_reads_no_suffix(self, tmp_path, random_matrix, writer, name, fmt):
        path = tmp_path / name
        writer(path, random_matrix)
        assert detect_format(path) == fmt
        assert np.array_equal(read_matrix(path), random_matrix)

    def test_bom_prefixed_csv_is_csv(self, tmp_path, random_matrix):
        # CSV, so the CSV reader names the line of the non-ASCII byte
        path = tmp_path / "bom"
        write_csv(path, random_matrix)
        path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        assert detect_format(path) == "csv"
        with pytest.raises(ParseError, match=r"bom:1: non-ASCII byte 0xef"):
            read_matrix(path)

    def test_one_column_csv_without_suffix(self, tmp_path):
        path = tmp_path / "column"
        path.write_text("1.5\n2.5\n3.5\n")
        assert detect_format(path) == "csv"
        assert np.array_equal(read_matrix(path), [[1.5], [2.5], [3.5]])
        out = tmp_path / "r.json"
        assert main(["approx-svd", "--input", str(path), "--k", "1", "--out", str(out)]) == 0

    @pytest.mark.parametrize("shape", [(1, 1), (3, 1), (100, 200)])
    def test_all_zero_binary_without_suffix(self, tmp_path, shape):
        # the header's NUL bytes mark it binary, also where every byte is ASCII
        path = tmp_path / "zeros"
        path.write_bytes(struct.pack("<QQ", *shape) + bytes(8 * shape[0] * shape[1]))
        assert detect_format(path) == "binary"
        assert np.array_equal(read_matrix(path), np.zeros(shape))

    @pytest.mark.parametrize(
        "name, data",
        [
            ("a.csv", b"1,2,3\nnot a row\n"),
            ("a.mtx", b"%%MatrixMarket matrix array real general\n% c\n2 3\nnot a value\n"),
            ("a.mtx", b"%%MatrixMarket matrix coordinate real general\n2 3 9\n1 1\n"),
            ("a.bin", struct.pack("<QQ", 2, 3) + b"\xff" * 48),
        ],
    )
    def test_read_width_reads_no_row(self, tmp_path, name, data):
        # each file's rows are malformed: opening reads only the header or first line
        path = tmp_path / name
        path.write_bytes(data)
        stream = open_stream(path)
        assert stream.n_cols == 3
        with pytest.raises(ParseError):
            read_matrix(stream)

    def test_read_matrix_matches_open_stream(self, tmp_path, random_matrix):
        path = tmp_path / "a.csv"
        write_csv(path, random_matrix)
        dense = read_matrix(path)
        stream = open_stream(path)
        mem = sample_sketch(dense, 17, seed=6)
        streamed = sample_sketch(stream, 17, seed=6)
        assert np.array_equal(mem.chosen_indices, streamed.chosen_indices)
        assert mem.rows[mem.inverse].tobytes() == streamed.rows[streamed.inverse].tobytes()

    @pytest.mark.parametrize(
        "name, command, opens",
        [("a.bin", "none", 3), ("a.bin", "two-pass", 4), ("a.bin", "one-pass", 3),
         ("a.bin", "lln", 3), ("a.bin", "decay", 3),
         ("a.csv", "none", 3), ("a.csv", "two-pass", 4), ("a.csv", "one-pass", 3), ("a.csv", "lln", 3),
         ("a.mtx", "none", 3), ("a.mtx", "two-pass", 3), ("a.mtx", "one-pass", 3), ("a.mtx", "lln", 3)],
    )
    def test_run_opens_its_input(self, tmp_path, monkeypatch, rng, name, command, opens):
        # one open detects the format, one reads the width, then one per traversal
        # or read (a MatrixMarket file is parsed once).  Each open is one more
        # chance for the file to change
        path = tmp_path / name
        {"a.bin": write_binary, "a.csv": write_csv, "a.mtx": write_matrixmarket}[name](
            path, rng.normal(size=(30, 30))  # square for decay
        )
        argv = {
            "none": ["approx-svd", "--k", "2", "--d", "20"],
            "two-pass": ["approx-svd", "--k", "2", "--d", "20", "--stream", "two-pass"],
            "one-pass": ["approx-svd", "--k", "2", "--d", "20", "--stream", "one-pass"],
            "lln": ["lln", "--ensemble", "matrix-rows", "--d", "20", "--trials", "3"],
            "decay": ["decay", "--norm", "spectral", "--witness", "file", "--q", "3", "--trials", "3"],
        }[command]
        calls = {"open": [], "detect_format": [], "_read_matrixmarket": []}

        def counted(attr):
            original = getattr(matio, attr, open)  # matio's open is the builtin
            return lambda file, *args, **kwargs: calls[attr].append(file) or original(file, *args, **kwargs)

        for attr in calls:
            monkeypatch.setattr(matio, attr, counted(attr), raising=False)
        assert main([*argv, "--input", str(path), "--out", str(tmp_path / "r.json")]) == 0
        assert calls["open"] == [str(path)] * opens
        assert calls["detect_format"] == [str(path)]
        assert len(calls["_read_matrixmarket"]) == (name == "a.mtx")

    def test_binary_stream_rows(self, tmp_path, random_matrix):
        path = tmp_path / "a.bin"
        write_binary(path, random_matrix)
        stream = open_stream(path)
        for _ in range(2):  # replayable: the second traversal gives the same blocks
            assert np.array_equal(np.concatenate(list(stream)), random_matrix)


class TestInputDigest:
    """The digest of what a reader read is the sha256 of the whole file."""

    def _files(self, tmp_path, a):
        write_binary(tmp_path / "a.bin", a)
        write_csv(tmp_path / "a.csv", a)
        write_matrixmarket(tmp_path / "a.mtx", a)
        crlf = tmp_path / "crlf.csv"
        crlf.write_bytes((tmp_path / "a.csv").read_bytes().replace(b"\n", b"\r\n"))
        return [tmp_path / "a.bin", tmp_path / "a.csv", tmp_path / "a.mtx", crlf]

    @pytest.mark.parametrize("block_rows", [1, 3, 4096])
    def test_read_matrix(self, tmp_path, random_matrix, monkeypatch, block_rows):
        # 3 rows: many blocks, the last one short
        monkeypatch.setattr(streams, "BLOCK_ROWS", block_rows)
        for path in self._files(tmp_path, random_matrix):
            with InputDigest() as digest:
                assert np.array_equal(read_matrix(open_stream(path, digest=digest)), random_matrix)
                assert digest.hexdigest() == sha256_file(path)
                assert digest.size == path.stat().st_size

    def test_stream_hashes_first_traversal_only(self, tmp_path, rng):
        a = rng.normal(size=(2 * 4096 + 10, 3))
        for path in self._files(tmp_path, a):
            with InputDigest() as digest:
                stream = open_stream(path, digest=digest)
                for _ in range(2):
                    assert np.array_equal(np.concatenate(list(stream)), a)
                assert digest.hexdigest() == sha256_file(path)

    def test_hashes_in_order_under_frequent_thread_switches(self):
        # small pieces are batched, large ones queued as they are, waiting or not
        pieces = [bytes([i % 251]) * (i * 997 % 5000) for i in range(600)]
        for at in (100, 300, 301, 500):
            pieces.insert(at, bytes([at % 256]) * (3 << 20))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with InputDigest() as digest:
                for i, piece in enumerate(pieces):
                    digest.update(piece, wait=i % 2 == 0)
                assert digest.hexdigest() == hashlib.sha256(b"".join(pieces)).hexdigest()
        finally:
            sys.setswitchinterval(interval)

    def test_worker_joined_on_exit(self, tmp_path, random_matrix):
        path = tmp_path / "a.bin"
        write_binary(path, random_matrix)
        baseline = threading.active_count()
        with pytest.raises(RuntimeError):
            with InputDigest() as digest:
                read_matrix(open_stream(path, digest=digest))
                raise RuntimeError
        assert threading.active_count() == baseline

    def test_fed_chunks_are_released_once_hashed(self):
        # the worker drops each piece as it hashes it, so a caller that frees its
        # chunks holds at most one; 2 MiB chunks are queued as they are, not batched
        chunks = [np.full(1 << 18, float(i)) for i in range(2)]
        expected = hashlib.sha256(b"".join(c.tobytes() for c in chunks)).hexdigest()
        with InputDigest() as digest:
            first = weakref.ref(chunks[0])
            digest.update(chunks.pop(0))
            second = weakref.ref(chunks[0])
            digest.update(chunks.pop(0))
            assert first() is None
            assert digest.hexdigest() == expected
            assert second() is None

    def test_hash_error_comes_out_of_hexdigest(self, monkeypatch):
        class FailingHash:
            def update(self, data):
                raise ValueError("hash failed")

        monkeypatch.setattr(matio.hashlib, "sha256", FailingHash)
        baseline = threading.active_count()
        with InputDigest() as digest:
            digest.update(bytes(2 << 20))
            with pytest.raises(ValueError, match="hash failed"):
                digest.hexdigest()
        assert threading.active_count() == baseline

    def test_waiting_after_the_block_raises(self):
        # the worker is joined on leaving the block; a later wait would hang
        with InputDigest() as digest:
            digest.update(b"abc")
        with pytest.raises(RuntimeError):
            digest.hexdigest()

    def test_unclosed_digest_lets_the_interpreter_exit(self):
        # a digest left open keeps its worker blocked on the queue; a non-daemon
        # worker would hold the interpreter at exit until the timeout
        script = (
            "from matsketch.matio import InputDigest\n"
            "digest = InputDigest()\n"
            "digest.update(bytes(2 << 20))\n"
            "print(digest.hexdigest())\n"
        )
        package_root = str(Path(matio.__file__).parents[1])
        result = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, timeout=30,
            env={**os.environ, "PYTHONPATH": package_root},
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == hashlib.sha256(bytes(2 << 20)).hexdigest()


# one small seed file per reader, each read through detection; FUZZ_SEED has
# entries of several magnitudes
FUZZ_SEED = np.array([[1.5, -2.0, 0.0], [3.0, 4.25, -1e-3], [0.0, 7.0, 8.0], [-9.0, 0.5, 2.0]])
FUZZ_NAMES = ("a.csv", "array.mtx", "coord.mtx", "a.bin")


@functools.cache
def _fuzz_seeds(directory):
    """The seed files' bytes, written once into ``directory``."""
    write_csv(directory / "a.csv", FUZZ_SEED)
    write_matrixmarket(directory / "array.mtx", FUZZ_SEED)
    entries = [f"{i + 1} {j + 1} {FUZZ_SEED[i, j]!r}" for i, j in zip(*np.nonzero(FUZZ_SEED))]
    (directory / "coord.mtx").write_text(
        "%%MatrixMarket matrix coordinate real general\n"
        f"% comment\n4 3 {len(entries)}\n" + "\n".join(entries) + "\n"
    )
    write_binary(directory / "a.bin", FUZZ_SEED)
    return {name: (directory / name).read_bytes() for name in FUZZ_NAMES}


def _mutate(data: bytes, kind: str, at: int, payload: bytes) -> bytes:
    at %= len(data) + 1
    if kind == "truncate":
        return data[:at]
    if kind == "delete":
        return data[:at] + data[at + len(payload) :]
    if kind == "overwrite":
        return data[:at] + payload + data[at + len(payload) :]
    return data[:at] + payload + data[at:]


def _outcome(read):
    """The matrix ``read`` returns, or None if it raises a matsketch error."""
    try:
        return read()
    except Error:
        return None


class TestFuzz:
    """A mutated file reads as a matrix exactly when it streams as the same matrix."""

    @settings(max_examples=200, deadline=None)
    @given(
        name=st.sampled_from(sorted(FUZZ_NAMES)),
        kind=st.sampled_from(["truncate", "delete", "overwrite", "insert"]),
        at=st.integers(0, 1 << 10),
        # one mutation of at most 4 bytes: a MatrixMarket size line then
        # declares at most ~1e6 entries, so no example allocates much
        payload=st.binary(min_size=1, max_size=4),
    )
    def test_read_matrix_agrees_with_open_stream(self, tmp_path_factory, name, kind, at, payload):
        directory = tmp_path_factory.getbasetemp() / "fuzz"
        directory.mkdir(exist_ok=True)
        seeds = _fuzz_seeds(directory)
        path = directory / f"mutated-{name}"
        path.write_bytes(_mutate(seeds[name], kind, at, payload))
        dense = _outcome(lambda: read_matrix(path))
        streamed = _outcome(lambda: np.concatenate(list(open_stream(path))))
        assert (dense is None) == (streamed is None)
        if dense is not None:
            assert np.array_equal(dense, streamed)
