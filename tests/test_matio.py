import numpy as np
import pytest

from matsketch import ParseError, read_matrix, sample_sketch, sample_sketch_two_pass
from matsketch.matio import (
    detect_format,
    open_stream,
    sha256_file,
    write_binary,
    write_csv,
    write_matrixmarket,
)


@pytest.fixture
def random_matrix(rng):
    return rng.normal(size=(100, 50))


class TestCsv:
    def test_identity_literal(self, tmp_path):
        path = tmp_path / "id.csv"
        path.write_text("1,0\n0,1\n")
        assert np.array_equal(read_matrix(path, "csv"), np.eye(2))

    def test_round_trip(self, tmp_path, random_matrix):
        path = tmp_path / "a.csv"
        write_csv(path, random_matrix)
        assert np.array_equal(read_matrix(path, "csv"), random_matrix)

    def test_ragged_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1,2,3\n4,5\n")
        with pytest.raises(ParseError, match="line 2|:2"):
            read_matrix(path, "csv")

    def test_bad_token(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1,two\n")
        with pytest.raises(ParseError):
            read_matrix(path, "csv")

    def test_non_finite(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1,nan\n")
        with pytest.raises(ParseError):
            read_matrix(path, "csv")

    def test_empty(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ParseError):
            read_matrix(path, "csv")


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
        assert np.array_equal(read_matrix(path, "matrixmarket"), expected)

    def test_round_trip(self, tmp_path, random_matrix):
        path = tmp_path / "a.mtx"
        write_matrixmarket(path, random_matrix)
        assert np.array_equal(read_matrix(path, "matrixmarket"), random_matrix)

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
        assert np.array_equal(read_matrix(path, "matrixmarket"), expected)

    def test_coordinate_duplicate_entry(self, tmp_path):
        path = tmp_path / "dup.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real general\n"
            "2 2 2\n"
            "1 1 1.0\n"
            "1 1 2.0\n"
        )
        with pytest.raises(ParseError, match="duplicate"):
            read_matrix(path, "matrixmarket")

    def test_coordinate_out_of_range(self, tmp_path):
        path = tmp_path / "oob.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real general\n"
            "2 2 1\n"
            "3 1 1.0\n"
        )
        with pytest.raises(ParseError, match="out of range"):
            read_matrix(path, "matrixmarket")

    def test_unsupported_symmetry(self, tmp_path):
        path = tmp_path / "sym.mtx"
        path.write_text("%%MatrixMarket matrix array real symmetric\n1 1\n1.0\n")
        with pytest.raises(ParseError, match="symmetry"):
            read_matrix(path, "matrixmarket")

    def test_missing_header(self, tmp_path):
        path = tmp_path / "x.mtx"
        path.write_text("1 1\n1.0\n")
        with pytest.raises(ParseError, match="header"):
            read_matrix(path, "matrixmarket")


class TestBinary:
    def test_round_trip_bit_identical(self, tmp_path, random_matrix):
        path = tmp_path / "a.bin"
        write_binary(path, random_matrix)
        digest_before = sha256_file(path)
        read_back = read_matrix(path, "binary")
        assert read_back.tobytes() == random_matrix.tobytes()
        write_binary(path, read_back)
        assert sha256_file(path) == digest_before

    def test_truncated(self, tmp_path, random_matrix):
        path = tmp_path / "a.bin"
        write_binary(path, random_matrix)
        data = path.read_bytes()
        path.write_bytes(data[:-8])
        with pytest.raises(ParseError):
            read_matrix(path, "binary")

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "a.bin"
        path.write_bytes(b"\x01\x02")
        with pytest.raises(ParseError):
            read_matrix(path, "binary")

    @pytest.mark.parametrize("extra", [8, 24])
    def test_trailing_bytes(self, tmp_path, extra):
        path = tmp_path / "a.bin"
        write_binary(path, np.arange(6.0).reshape(3, 2))
        with open(path, "ab") as fh:
            fh.write(bytes(extra))
        with pytest.raises(ParseError, match="bytes"):
            read_matrix(path, "binary")
        with pytest.raises(ParseError, match="bytes"):
            open_stream(path, "binary")

    def test_short_file_rejected_when_opened(self, tmp_path, random_matrix):
        path = tmp_path / "a.bin"
        write_binary(path, random_matrix)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(ParseError, match="bytes"):
            open_stream(path, "binary")


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

    def test_read_matrix_matches_open_stream(self, tmp_path, random_matrix):
        path = tmp_path / "a.csv"
        write_csv(path, random_matrix)
        dense = read_matrix(path)
        stream = open_stream(path)
        mem = sample_sketch(dense, 17, seed=6)
        streamed = sample_sketch_two_pass(stream, 17, seed=6)
        assert np.array_equal(mem.chosen_indices, streamed.chosen_indices)
        assert mem.matrix.tobytes() == streamed.matrix.tobytes()

    def test_binary_stream_rows(self, tmp_path, random_matrix):
        path = tmp_path / "a.bin"
        write_binary(path, random_matrix)
        stream = open_stream(path)
        for _ in range(2):  # replayable: the second traversal gives the same blocks
            blocks = list(stream)
            indices = np.concatenate([i for i, _ in blocks])
            assert np.array_equal(indices, np.arange(100))
            assert np.array_equal(np.concatenate([b for _, b in blocks]), random_matrix)
