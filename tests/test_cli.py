import argparse
import hashlib
import json
import os
import struct
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import matsketch
from matsketch import (
    RowStream,
    approx,
    block_identity_matrix,
    cli,
    cutnorm,
    matio,
    parallel,
    write_binary,
    write_csv,
)
from matsketch.cli import main
from conftest import matrix_with_singular_values, write_binary_with_nan


def read_report(path):
    with open(path) as fh:
        return json.load(fh)


def no_row_read(monkeypatch):
    """Make every reader of a file's rows fail the test; ``open_stream`` reads only the width."""

    def no_read(*args, **kwargs):
        pytest.fail("a row was read")

    for reader in ("_iter_binary_blocks", "_read_binary", "_iter_csv_blocks", "_read_matrixmarket"):
        monkeypatch.setattr(matio, reader, no_read)


@pytest.fixture
def rank3_file(tmp_path, rng):
    a = matrix_with_singular_values(rng, 150, 30, [10.0, 9.0, 8.0])
    path = tmp_path / "rank3.csv"
    write_csv(path, a)
    return path


class TestApproxSvd:
    def test_success_run(self, tmp_path, rank3_file):
        out = tmp_path / "report.json"
        code = main(
            ["approx-svd", "--input", str(rank3_file), "--k", "3", "--seed", "1", "--out", str(out)]
        )
        assert code == 0
        report = read_report(out)
        assert report["command"] == "approx-svd"
        assert report["per_trial"][0]["satisfied"] is True
        assert report["provenance"]["input"] == str(rank3_file)
        assert len(report["provenance"]["sha256"]) == 64

    def test_strict_failure_exits_2(self, tmp_path):
        path = tmp_path / "block.bin"
        write_binary(path, block_identity_matrix(64, 256))
        out = tmp_path / "report.json"
        code = main(
            ["approx-svd", "--input", str(path), "--k", "64", "--d", "1",
             "--strict", "--seed", "0", "--out", str(out)]
        )
        assert code == 2
        assert read_report(out)["per_trial"][0]["satisfied"] is False

    def test_missing_input_is_usage_error(self):
        assert main(["approx-svd", "--k", "3"]) == 64

    def test_unreadable_file_is_data_error(self, tmp_path):
        code = main(["approx-svd", "--input", str(tmp_path / "nope.csv"), "--k", "1"])
        assert code == 65

    @pytest.mark.parametrize("stream", [[], ["--stream", "two-pass"]])
    def test_eigensolver_failure_exits_65(self, tmp_path, rank3_file, monkeypatch, capsys, stream):
        def fail(_):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigvalsh", fail)
        code = main(
            ["approx-svd", "--input", str(rank3_file), "--k", "3",
             "--out", str(tmp_path / "r.json")] + stream
        )
        assert code == 65
        assert "failed to converge" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "stream", [[], ["--stream", "two-pass"], ["--stream", "one-pass", "--d", "5"]]
    )
    @pytest.mark.parametrize("trim", [-8, 24])
    def test_binary_size_mismatch_is_data_error(self, tmp_path, capsys, stream, trim):
        path = tmp_path / "a.bin"
        write_binary(path, np.arange(6.0).reshape(3, 2))
        data = path.read_bytes()
        path.write_bytes(data[:trim] if trim < 0 else data + bytes(trim))
        code = main(["approx-svd", "--input", str(path), "--k", "1", "--out", "-"] + stream)
        assert code == 65
        assert "a 3x2 matrix needs 64" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "stream", [[], ["--stream", "two-pass"], ["--stream", "one-pass", "--d", "5"]]
    )
    def test_nan_entry_is_data_error(self, tmp_path, capsys, stream):
        path = write_binary_with_nan(tmp_path / "a.bin")
        code = main(["approx-svd", "--input", str(path), "--k", "1", "--out", "-"] + stream)
        assert code == 65
        assert "non-finite" in capsys.readouterr().err

    def test_binary_file_turning_non_finite_between_passes(self, tmp_path, capsys, monkeypatch):
        # only the first traversal scans the file; the replay's weight test catches the NaN
        path = tmp_path / "a.bin"
        write_binary(path, np.random.default_rng(0).standard_normal((50, 5)))
        first_pass = approx.stream_weights

        def then_nan(*args, **kwargs):
            result = first_pass(*args, **kwargs)
            with open(path, "r+b") as fh:
                fh.seek(matio._BINARY_HEADER.size + 8 * (17 * 5 + 3))
                fh.write(struct.pack("<d", float("nan")))
            return result

        monkeypatch.setattr(approx, "stream_weights", then_nan)
        argv = ["approx-svd", "--input", str(path), "--k", "2", "--d", "5", "--stream", "two-pass"]
        assert main(argv + ["--out", "-"]) == 65
        assert "stream replay differs from the first pass in rows 0..49" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "stream", [[], ["--stream", "two-pass"], ["--stream", "one-pass", "--d", "20"]]
    )
    def test_overflowing_row_weights_are_data_error(self, tmp_path, capsys, stream):
        path = tmp_path / "a.bin"
        write_binary(path, np.random.default_rng(0).standard_normal((50, 5)) * 1e160)
        code = main(["approx-svd", "--input", str(path), "--k", "2", "--out", "-"] + stream)
        assert code == 65
        assert "not a finite" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "stream", [[], ["--stream", "two-pass"], ["--stream", "one-pass", "--d", "5"]]
    )
    def test_non_ascii_csv_is_data_error(self, tmp_path, capsys, stream):
        path = tmp_path / "bad.csv"
        path.write_bytes(b"1,2\n3,\xe94\n")
        code = main(["approx-svd", "--input", str(path), "--k", "1", "--out", "-"] + stream)
        assert code == 65
        assert "bad.csv:2: non-ASCII byte 0xe9" in capsys.readouterr().err

    def test_non_ascii_matrixmarket_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "bad.mtx"
        path.write_bytes(b"%%MatrixMarket matrix array real general\n2 1\n1\n\xff\n")
        code = main(["approx-svd", "--input", str(path), "--k", "1", "--out", "-"])
        assert code == 65
        assert "bad.mtx:4: non-ASCII byte 0xff" in capsys.readouterr().err

    def test_format_is_read_from_the_bytes_not_the_name(self, tmp_path, capsys, rng):
        # each file is named for another format; each reference file for its own
        a = rng.normal(size=(6, 4))
        own = {write_csv: "a.csv", write_binary: "a.bin", matio.write_matrixmarket: "a.mtx"}

        def argv(path):
            return ["approx-svd", "--input", str(path), "--k", "1", "--d", "4", "--out", "-"]

        def per_trial(path):
            assert main(argv(path)) == 0
            return json.loads(capsys.readouterr().out)["per_trial"]

        for writer, name in [(write_csv, "csv.bin"), (write_csv, "csv.mtx"),
                             (write_binary, "bin.csv"), (matio.write_matrixmarket, "mtx.bin")]:
            writer(tmp_path / own[writer], a)
            writer(tmp_path / name, a)
            assert per_trial(tmp_path / name) == per_trial(tmp_path / own[writer])
        bom = tmp_path / "bom"
        bom.write_bytes(b"\xef\xbb\xbf" + (tmp_path / "a.csv").read_bytes())
        assert main(argv(bom)) == 65
        assert "bom:1: non-ASCII byte 0xef" in capsys.readouterr().err

    def test_sample_size_beyond_float64_is_data_error(self, tmp_path, capsys, rng):
        path = tmp_path / "small.bin"
        write_binary(path, rng.normal(size=(20, 4)))
        code = main(
            ["approx-svd", "--input", str(path), "--k", "2", "--epsilon", "1e-90", "--out", "-"]
        )
        assert code == 65
        assert "epsilon=1e-90, delta=0.5 exceeds float64" in capsys.readouterr().err

    def test_zero_matrix_is_one_data_error_in_every_mode(self, tmp_path, capsys):
        path = tmp_path / "zero.bin"
        write_binary(path, np.zeros((20, 4)))
        errors = set()
        for stream in [[], ["--stream", "two-pass"], ["--stream", "one-pass"]]:
            argv = ["approx-svd", "--input", str(path), "--k", "1", "--d", "3", "--out", "-"]
            assert main(argv + stream) == 65
            errors.add(capsys.readouterr().err)
        assert errors == {"matsketch: cannot sample rows of a zero matrix\n"}

    def test_two_pass_replay_mismatch_is_data_error(self, tmp_path, monkeypatch, capsys, rng):
        base = rng.normal(size=(30, 4))
        traversals = []

        def factory():
            traversals.append(None)
            return iter([base if len(traversals) == 1 else base[::-1]])

        monkeypatch.setattr(matio, "open_stream", lambda *args, **kwargs: RowStream(factory, 4))
        path = tmp_path / "a.bin"
        write_binary(path, base)
        code = main(["approx-svd", "--input", str(path), "--k", "1", "--d", "5",
                     "--stream", "two-pass", "--out", str(tmp_path / "r.json")])
        assert code == 65
        assert "replay differs" in capsys.readouterr().err

    def test_two_pass_matches_in_memory_fields(self, tmp_path, rank3_file):
        out_mem = tmp_path / "mem.json"
        out_str = tmp_path / "str.json"
        argv = ["approx-svd", "--input", str(rank3_file), "--k", "3", "--seed", "5"]
        assert main(argv + ["--out", str(out_mem)]) == 0
        assert main(argv + ["--stream", "two-pass", "--out", str(out_str)]) == 0
        mem = read_report(out_mem)
        streamed = read_report(out_str)
        assert streamed["per_trial"][0] == mem["per_trial"][0]
        assert streamed["results"] == mem["results"]
        assert mem["per_trial"][0]["satisfied"] is True

    def test_fallback_replay_mismatch_is_data_error(self, tmp_path, monkeypatch, capsys, rng):
        # exact rank 3 at k = 3 takes the exact fallback, whose traversal is checked
        base = matrix_with_singular_values(rng, 80, 12, [30.0, 20.0, 10.0])
        traversals = []

        def factory():
            traversals.append(None)
            rows = base if len(traversals) < 3 else base[:-1]
            return iter([rows])

        monkeypatch.setattr(matio, "open_stream", lambda *args, **kwargs: RowStream(factory, 12))
        path = tmp_path / "a.bin"
        write_binary(path, base)
        code = main(["approx-svd", "--input", str(path), "--k", "3", "--stream", "two-pass",
                     "--out", str(tmp_path / "r.json")])
        assert code == 65
        assert "replay has 79 rows" in capsys.readouterr().err
        assert len(traversals) == 3

    @pytest.mark.parametrize("case", ["violated", "satisfied"])
    def test_strict_two_pass_exits_as_in_memory(self, tmp_path, rng, case):
        path = tmp_path / "a.bin"
        if case == "violated":
            write_binary(path, block_identity_matrix(64, 256))
            argv, expected = ["--k", "64", "--d", "1"], 2
        else:
            write_binary(path, matrix_with_singular_values(rng, 150, 30, [10.0, 9.0, 8.0]))
            argv, expected = ["--k", "3"], 0
        argv = ["approx-svd", "--input", str(path), "--strict", "--seed", "0"] + argv
        reports = []
        for stream in [[], ["--stream", "two-pass"]]:
            out = tmp_path / "r.json"
            assert main(argv + stream + ["--out", str(out)]) == expected
            reports.append(read_report(out)["per_trial"])
        assert reports[0] == reports[1]

    def test_one_pass_requires_d(self, tmp_path, rank3_file):
        code = main(
            ["approx-svd", "--input", str(rank3_file), "--k", "3", "--stream", "one-pass"]
        )
        assert code == 64

    def test_one_pass_without_d_is_refused_before_the_input_is_opened(
        self, tmp_path, monkeypatch, capsys, rng
    ):
        argv = ["approx-svd", "--k", "2", "--stream", "one-pass", "--out", "-"]
        assert main(argv + ["--input", str(tmp_path / "missing.bin")]) == 64
        assert capsys.readouterr().err == (
            "matsketch: usage error: --stream one-pass requires an explicit --d\n"
        )
        path = tmp_path / "a.mtx"
        matsketch.write_matrixmarket(path, rng.normal(size=(10, 3)))

        def no_open(*args, **kwargs):
            pytest.fail("the input was opened")

        monkeypatch.setattr(matio, "open_stream", no_open)
        assert main(argv + ["--input", str(path)]) == 64

    @pytest.mark.parametrize(
        "flag",
        [["--epsilon", "1.5"], ["--delta", "0"], ["--c-const", "0"], ["--c-const", "inf"],
         ["--d", "0"]],
    )
    def test_bad_parameters_refused_before_the_matrix_is_read(
        self, monkeypatch, capsys, rank3_file, flag
    ):
        argv = ["approx-svd", "--input", str(rank3_file), "--k", "3", "--out", "-", *flag]
        assert main(argv + ["--stream", "two-pass"]) == 65
        streamed = capsys.readouterr().err

        def no_read(*args, **kwargs):
            pytest.fail("the matrix was read")

        monkeypatch.setattr(matio, "read_matrix", no_read)
        assert main(argv) == 65
        assert capsys.readouterr().err == streamed

    @pytest.mark.parametrize("stream", [[], ["--stream", "two-pass"], ["--stream", "one-pass"]])
    def test_d_beyond_memory_refused_before_any_row_is_read(
        self, monkeypatch, capsys, rank3_file, stream
    ):
        # 409,600 bytes of physical memory hold 10000 draws at four words each (320 KB),
        # but not at the eight words a draw peaks at (640 KB)
        monkeypatch.setattr(os, "sysconf", {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 100}.__getitem__)
        no_row_read(monkeypatch)
        argv = ["approx-svd", "--input", str(rank3_file), "--k", "3", "--d", "10000", *stream]
        assert main([*argv, "--out", "-"]) == 65
        assert capsys.readouterr().err == (
            "matsketch: a 10000x8 float64 array needs 640000 bytes, "
            "more than the 409600 bytes of physical memory\n"
        )

    @pytest.mark.parametrize(
        "stream", [[], ["--stream", "two-pass"], ["--stream", "one-pass", "--d", "5"]]
    )
    def test_k_refused_before_the_matrix_is_read(self, tmp_path, monkeypatch, capsys, stream):
        # the width comes from a binary header, a CSV's first line or a MatrixMarket size line
        files = _matrix_files(tmp_path)
        no_row_read(monkeypatch)
        for path in files:
            argv = ["approx-svd", "--input", str(path), "--k", "13", "--out", "-", *stream]
            assert main(argv) == 65
            assert capsys.readouterr().err == "matsketch: k must lie in [0, 12], got 13\n"

    def test_one_pass_with_d(self, tmp_path, rank3_file):
        out = tmp_path / "one.json"
        code = main(
            ["approx-svd", "--input", str(rank3_file), "--k", "3", "--stream", "one-pass",
             "--d", "60", "--out", str(out)]
        )
        assert code == 0
        assert read_report(out)["per_trial"][0]["error_spectral"] is None


@pytest.mark.usefixtures("gather_always")
class TestGatheredPassTwo:
    """Pass two of a binary file gathers the chosen rows while its stamp holds."""

    ARGV = ["approx-svd", "--k", "2", "--d", "20", "--stream", "two-pass", "--seed", "3"]

    @pytest.fixture
    def path(self, tmp_path):
        path = tmp_path / "a.bin"
        write_binary(path, np.random.default_rng(0).standard_normal((300, 6)))
        return path

    @staticmethod
    def _between_passes(monkeypatch, change):
        first_pass = approx.stream_weights

        def then_change(*args, **kwargs):
            result = first_pass(*args, **kwargs)
            change()
            return result

        monkeypatch.setattr(approx, "stream_weights", then_change)

    @staticmethod
    def _traversals(monkeypatch):
        traversals = []
        iter_blocks = matio._iter_binary_blocks

        def counted(*args, **kwargs):
            traversals.append(None)
            return iter_blocks(*args, **kwargs)

        monkeypatch.setattr(matio, "_iter_binary_blocks", counted)
        return traversals

    def _report(self, path, out):
        assert main(self.ARGV + ["--input", str(path), "--out", str(out)]) == 0
        report = read_report(out)
        del report["started_at"], report["finished_at"]
        return report

    def test_truncated_between_passes_is_data_error(self, path, monkeypatch, capsys):
        ten_rows = matio._BINARY_HEADER.size + 8 * 6 * 10
        self._between_passes(monkeypatch, lambda: os.truncate(path, ten_rows))
        assert main(self.ARGV + ["--input", str(path), "--out", "-"]) == 65
        assert "truncated at row" in capsys.readouterr().err

    def test_replaced_by_a_copy_falls_back_to_a_full_pass(self, path, tmp_path, monkeypatch):
        expected = self._report(path, tmp_path / "r0.json")
        copy = tmp_path / "copy.bin"
        copy.write_bytes(path.read_bytes())
        self._between_passes(monkeypatch, lambda: os.replace(copy, path))
        traversals = self._traversals(monkeypatch)
        assert self._report(path, tmp_path / "r1.json") == expected
        assert len(traversals) == 2

    def test_without_preadv_pass_two_reads_in_full(self, path, tmp_path, monkeypatch):
        expected = self._report(path, tmp_path / "r0.json")
        monkeypatch.delattr(os, "preadv")
        traversals = self._traversals(monkeypatch)
        assert self._report(path, tmp_path / "r1.json") == expected
        assert len(traversals) == 2


def _matrix_files(tmp_path):
    a = np.random.default_rng(4).standard_normal((12, 12))  # square for decay
    write_binary(tmp_path / "a.bin", a)
    write_csv(tmp_path / "a.csv", a)
    matio.write_matrixmarket(tmp_path / "a.mtx", a)
    crlf = tmp_path / "crlf.csv"
    crlf.write_bytes((tmp_path / "a.csv").read_bytes().replace(b"\n", b"\r\n"))
    return [tmp_path / "a.bin", tmp_path / "a.csv", tmp_path / "a.mtx", crlf]


# every command that reads --input; INPUT stands for the file
INPUT_COMMANDS = [
    ["approx-svd", "--input", "INPUT", "--k", "2"],
    ["approx-svd", "--input", "INPUT", "--k", "2", "--stream", "two-pass"],
    ["approx-svd", "--input", "INPUT", "--k", "2", "--stream", "one-pass", "--d", "5"],
    ["decay", "--norm", "spectral", "--witness", "file", "--input", "INPUT", "--q", "3",
     "--trials", "5"],
    ["lln", "--ensemble", "matrix-rows", "--input", "INPUT", "--d", "20", "--trials", "3"],
]


@pytest.mark.parametrize(
    "command",
    [["approx-svd", "--k", "2"], ["approx-svd", "--k", "2", "--stream", "two-pass"],
     ["lln", "--ensemble", "matrix-rows", "--d", "20", "--trials", "3"]],
    ids=["approx-none", "approx-two-pass", "lln-matrix-rows"],
)
@pytest.mark.parametrize("name", ["a.bin", "a.csv", "a.mtx"])
def test_gram_beyond_memory_refused_before_any_row_is_read(
    tmp_path, monkeypatch, capsys, command, name
):
    # 64 KiB of physical memory: a 200 x 200 Gram alone needs 320 KB; the
    # width comes from a binary header, a CSV's first line or a MatrixMarket size line
    a = np.random.default_rng(4).standard_normal((5, 200))
    path = tmp_path / name
    {"a.bin": write_binary, "a.csv": write_csv, "a.mtx": matio.write_matrixmarket}[name](path, a)
    monkeypatch.setattr(os, "sysconf", {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 16}.__getitem__)
    one_pass = ["approx-svd", "--input", str(path), "--k", "2", "--stream", "one-pass", "--d", "5"]
    assert main([*one_pass, "--out", str(tmp_path / "one.json")]) == 0  # one pass forms no Gram
    no_row_read(monkeypatch)
    assert main([*command, "--input", str(path), "--out", "-"]) == 65
    assert capsys.readouterr().err == (
        "matsketch: a 200x200 float64 array needs 320000 bytes, "
        "more than the 65536 bytes of physical memory\n"
    )


class TestProvenance:
    """provenance.sha256 is hashed from the bytes the run read, on one worker thread."""

    @pytest.mark.parametrize("argv", INPUT_COMMANDS)
    def test_digest_is_the_file_sha256(self, tmp_path, monkeypatch, argv):
        files = _matrix_files(tmp_path)
        expected = {path: matio.sha256_file(path) for path in files}

        def no_second_read(path):
            raise AssertionError("the input was read a second time")

        monkeypatch.setattr(matio, "sha256_file", no_second_read)
        for path in files:
            out = tmp_path / "r.json"
            assert main([str(path) if a == "INPUT" else a for a in argv] + ["--out", str(out)]) == 0
            provenance = read_report(out)["provenance"]
            assert provenance == {"input": str(path), "sha256": expected[path]}

    @pytest.mark.parametrize("argv", INPUT_COMMANDS)
    def test_failed_allocation_is_data_error(self, tmp_path, capsys, argv):
        # a 74-byte header declares a 1e8 x 1e8 matrix, which no machine can allocate
        path = tmp_path / "huge.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real general\n100000000 100000000 1\n1 1 1\n"
        )
        assert main([str(path) if a == "INPUT" else a for a in argv] + ["--out", "-"]) == 65
        err = capsys.readouterr().err
        assert err.startswith("matsketch: a 100000000x100000000 float64 array needs")

    def test_input_not_read_has_no_provenance(self, tmp_path, rank3_file):
        out = tmp_path / "r.json"
        code = main(["decay", "--norm", "cut", "--witness", "identity", "--input", str(rank3_file),
                     "--q", "4", "--trials", "5", "--out", str(out)])
        assert code == 0
        assert read_report(out)["provenance"] == {"input": None, "sha256": None}

    def test_worker_thread_joined(self, tmp_path, rank3_file):
        baseline = threading.active_count()
        argv = ["approx-svd", "--input", str(rank3_file), "--k", "3", "--out", str(tmp_path / "r.json")]
        assert main(argv) == 0
        assert threading.active_count() == baseline
        nan_file = write_binary_with_nan(tmp_path / "nan.bin")
        for stream in [[], ["--stream", "two-pass"], ["--stream", "one-pass", "--d", "5"]]:
            argv = ["approx-svd", "--input", str(nan_file), "--k", "1", "--out", "-"]
            assert main(argv + stream) == 65
            assert threading.active_count() == baseline


class TestDecay:
    def test_cut_identity(self, tmp_path):
        out = tmp_path / "decay.json"
        code = main(
            ["decay", "--norm", "cut", "--witness", "identity", "--n", "16",
             "--q", "8", "--trials", "300", "--seed", "0", "--out", str(out)]
        )
        assert code == 0
        report = read_report(out)
        assert abs(report["summary"]["value"]["mean"] - 8.0) <= 1.2
        assert report["results"]["fitted_constant"] > 0

    def test_spectral_identity_mean_formula(self, tmp_path):
        out = tmp_path / "decay.json"
        code = main(
            ["decay", "--norm", "spectral", "--witness", "identity", "--n", "32",
             "--q", "8", "--trials", "400", "--seed", "1", "--out", str(out)]
        )
        assert code == 0
        mean = read_report(out)["summary"]["value"]["mean"]
        exact = 1.0 - (1.0 - 8 / 32) ** 32
        assert abs(mean - exact) <= 0.02

    def test_cut_oracle_limit_is_data_error(self, tmp_path, rng):
        path = tmp_path / "big.csv"
        write_csv(path, rng.normal(size=(32, 32)))
        code = main(
            ["decay", "--norm", "cut", "--witness", "file", "--input", str(path),
             "--q", "8", "--trials", "10"]
        )
        assert code == 65

    def test_file_witness_requires_input(self):
        assert main(["decay", "--norm", "cut", "--witness", "file", "--q", "4"]) == 64

    @pytest.mark.parametrize("witness", ["all-ones", "identity", "random-sign"])
    def test_cut_witness_beyond_the_oracle_refused_before_it_is_built(
        self, monkeypatch, capsys, witness
    ):
        def not_built(*args):
            pytest.fail("the witness was built")

        for name in ("witness_all_ones", "witness_identity", "witness_random_sign"):
            monkeypatch.setattr(cutnorm, name, not_built)
        argv = ["decay", "--norm", "cut", "--witness", witness, "--n", "25", "--q", "4", "--out", "-"]
        assert main(argv) == 65
        err = capsys.readouterr().err
        assert err == "matsketch: cut decay needs n <= 24 for the exact oracle, got 25\n"

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--norm", "spectral", "--witness", "all-ones", "--n", "4000", "--q", "0.5"],
             "q must lie in [1, 4000], got 0.5"),
            (["--norm", "spectral", "--witness", "all-ones", "--n", "4000", "--q", "5",
              "--trials", "0"], "trials must be >= 1, got 0"),
            (["--norm", "spectral", "--witness", "identity", "--n", "0", "--q", "1"],
             "n must be >= 1, got 0"),
            (["--norm", "cut", "--witness", "random-sign", "--n", "16", "--q", "20"],
             "q must lie in [0, 16], got 20.0"),
            (["--norm", "cut", "--witness", "file", "--input", "{wide}", "--q", "4"],
             "cut decay needs n <= 24 for the exact oracle, got 30"),
            (["--norm", "cut", "--witness", "file", "--input", "{small}", "--q", "12"],
             "q must lie in [0, 10], got 12.0"),
            (["--norm", "cut", "--witness", "file", "--input", "{small}", "--q", "4",
              "--trials", "0"], "trials must be >= 1, got 0"),
            (["--norm", "cut", "--witness", "file", "--input", "{wide_mtx}", "--q", "4"],
             "cut decay needs n <= 24 for the exact oracle, got 30"),
            (["--norm", "spectral", "--witness", "file", "--input", "{small}", "--q", "50"],
             "q must lie in [1, 10], got 50.0"),
            (["--norm", "spectral", "--witness", "file", "--input", "{wide}", "--q", "0.5"],
             "q must lie in [1, 30], got 0.5"),
            (["--norm", "spectral", "--witness", "file", "--input", "{wide_mtx}", "--q", "3",
              "--trials", "0"], "trials must be >= 1, got 0"),
        ],
    )
    def test_numbers_checked_before_any_matrix_exists(
        self, tmp_path, rng, monkeypatch, capsys, argv, message
    ):
        # a decay reads only the width of its input file before the check
        write_binary(tmp_path / "wide.bin", rng.normal(size=(30, 30)))
        write_csv(tmp_path / "small.csv", rng.normal(size=(10, 10)))
        matio.write_matrixmarket(tmp_path / "wide.mtx", rng.normal(size=(30, 30)))

        def not_built(*args):
            pytest.fail("a matrix was built or read")

        for name in ("witness_all_ones", "witness_identity", "witness_random_sign"):
            monkeypatch.setattr(cutnorm, name, not_built)
        monkeypatch.setattr(matio, "read_matrix", not_built)
        monkeypatch.setattr(matio, "_read_matrixmarket", not_built)
        paths = {
            "{wide}": str(tmp_path / "wide.bin"),
            "{small}": str(tmp_path / "small.csv"),
            "{wide_mtx}": str(tmp_path / "wide.mtx"),
        }
        argv = ["decay", *(paths.get(a, a) for a in argv), "--out", "-"]
        assert main(argv) == 65
        assert capsys.readouterr().err == f"matsketch: {message}\n"


    def test_matrixmarket_witness_is_parsed_once(self, tmp_path, rng, monkeypatch):
        path = tmp_path / "a.mtx"
        matio.write_matrixmarket(path, rng.normal(size=(8, 8)))
        parse = matio._read_matrixmarket
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return parse(*args, **kwargs)

        monkeypatch.setattr(matio, "_read_matrixmarket", counted)
        argv = ["decay", "--norm", "cut", "--witness", "file", "--input", str(path),
                "--q", "4", "--trials", "5", "--out", str(tmp_path / "r.json")]
        assert main(argv) == 0
        assert len(calls) == 1


class TestLln:
    def test_one_dimensional_deviations_vanish(self, tmp_path):
        out = tmp_path / "lln.json"
        code = main(
            ["lln", "--ensemble", "scaled-basis", "--n", "1", "--d", "16",
             "--trials", "10", "--out", str(out)]
        )
        assert code == 0
        report = read_report(out)
        assert all(t["deviation"] == 0.0 for t in report["per_trial"])

    def test_matrix_rows_from_file(self, tmp_path, rank3_file):
        out = tmp_path / "lln.json"
        code = main(
            ["lln", "--ensemble", "matrix-rows", "--input", str(rank3_file), "--d", "200",
             "--trials", "20", "--out", str(out)]
        )
        assert code == 0
        assert read_report(out)["results"]["a_value"] > 0

    def test_matrix_rows_eigensolver_failure_exits_65(self, tmp_path, rank3_file, monkeypatch, capsys):
        def fail(_):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigvalsh", fail)
        code = main(
            ["lln", "--ensemble", "matrix-rows", "--input", str(rank3_file), "--d", "20",
             "--out", str(tmp_path / "lln.json")]
        )
        assert code == 65
        assert "failed to converge" in capsys.readouterr().err

    def test_matrix_rows_requires_input(self):
        assert main(["lln", "--ensemble", "matrix-rows", "--d", "10"]) == 64

    @pytest.mark.parametrize(
        "argv, message",
        [(["--d", "1"], "d must be >= 2, got 1"),
         (["--d", "4", "--trials", "0"], "trials must be >= 1, got 0"),
         (["--d", "4", "--c-const", "0"], "c_constant must be positive and finite, got 0.0"),
         (["--d", "4", "--c-const", "-1"], "c_constant must be positive and finite, got -1.0"),
         (["--d", "4", "--c-const", "nan"], "c_constant must be positive and finite, got nan"),
         (["--d", "4", "--c-const", "inf"], "c_constant must be positive and finite, got inf")],
    )
    def test_numbers_checked_before_the_input_is_read(
        self, rank3_file, monkeypatch, capsys, argv, message
    ):
        def not_read(*args):
            pytest.fail("the input was read")

        monkeypatch.setattr(matio, "read_matrix", not_read)
        argv = ["lln", "--ensemble", "matrix-rows", "--input", str(rank3_file), *argv, "--out", "-"]
        code = main(argv)
        assert code == 65
        assert capsys.readouterr().err == f"matsketch: {message}\n"

    def test_d_beyond_memory_refused_before_the_input_is_read(self, rank3_file, monkeypatch, capsys):
        # 64 KiB of physical memory: 10000 draws take eight words each, 640 KB
        def not_read(*args):
            pytest.fail("the input was read")

        monkeypatch.setattr(os, "sysconf", {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 16}.__getitem__)
        monkeypatch.setattr(matio, "read_matrix", not_read)
        argv = ["lln", "--ensemble", "matrix-rows", "--input", str(rank3_file), "--d", "10000"]
        assert main([*argv, "--out", "-"]) == 65
        assert capsys.readouterr().err == (
            "matsketch: a 10000x8 float64 array needs 640000 bytes, "
            "more than the 65536 bytes of physical memory\n"
        )

    def test_scaled_basis_beyond_memory_refused_before_it_is_built(self, monkeypatch, capsys):
        # 64 KiB of physical memory: the 200 x 200 identity alone needs 320 KB
        def not_built(*args, **kwargs):
            pytest.fail("the identity was built")

        monkeypatch.setattr(os, "sysconf", {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 16}.__getitem__)
        monkeypatch.setattr(np, "eye", not_built)
        argv = ["lln", "--ensemble", "scaled-basis", "--n", "200", "--d", "8", "--out", "-"]
        assert main(argv) == 65
        assert capsys.readouterr().err == (
            "matsketch: a 200x200 float64 array needs 320000 bytes, "
            "more than the 65536 bytes of physical memory\n"
        )

    @pytest.mark.parametrize("ensemble", ["scaled-basis", "matrix-rows"])
    def test_trial_beyond_memory_refused_before_the_ensemble_is_built(
        self, tmp_path, monkeypatch, capsys, ensemble
    ):
        # 450,560 bytes hold the five 100 x 100 arrays the Gram check counts (400,000)
        # but not a trial with d = 1000 on 100 rows: m + 3n + u + max(u, n) + (5m + 8d) // n + 1
        # = 686 rows of 100 words.  The matrix-rows input is read, its Gram pass is not run
        def not_built(*args, **kwargs):
            pytest.fail("the ensemble was built")

        path = tmp_path / "a.bin"
        write_binary(path, np.eye(100))
        monkeypatch.setattr(os, "sysconf", {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 110}.__getitem__)
        monkeypatch.setattr(np, "eye", not_built)
        monkeypatch.setattr(matsketch.lln, "stream_weights", not_built)
        source = ["--n", "100"] if ensemble == "scaled-basis" else ["--input", str(path)]
        argv = ["lln", "--ensemble", ensemble, *source, "--d", "1000", "--out", "-"]
        assert main(argv) == 65
        assert capsys.readouterr().err == (
            "matsketch: a 686x100 float64 array needs 548800 bytes, "
            "more than the 450560 bytes of physical memory\n"
        )


class TestLapackFailure:
    # (numpy.linalg function, the call that fails, argv); "{input}" is a 150 x 30 CSV
    SITES = {
        "approx-projector-svd": ("svd", 1, ["approx-svd", "--input", "{input}", "--k", "3"]),
        "approx-tsqr-qr": (
            "qr", 1,
            ["approx-svd", "--input", "{input}", "--k", "3", "--stream", "two-pass", "--d", "40"],
        ),
        "approx-certificate-eigvalsh": (
            "eigvalsh", 2, ["approx-svd", "--input", "{input}", "--k", "3"],
        ),
        # call 1 is the ensemble's top eigenvalue, call 2 the first trial's deviation
        "lln-trial-eigvalsh": (
            "eigvalsh", 2, ["lln", "--ensemble", "scaled-basis", "--n", "4", "--d", "8"],
        ),
        "decay-spectral-svd": (
            "svd", 1,
            ["decay", "--norm", "spectral", "--witness", "identity", "--n", "8", "--q", "4"],
        ),
        "optimality-projector-svd": (
            "svd", 1, ["optimality", "--n", "4", "--m", "8", "--d", "6", "--trials", "3"],
        ),
    }

    @pytest.mark.parametrize("site", sorted(SITES))
    def test_exits_65(self, rank3_file, monkeypatch, capsys, site):
        name, failing_call, argv = self.SITES[site]
        real = getattr(np.linalg, name)
        calls = []

        def fails_from_call(*args, **kwargs):
            calls.append(name)
            if len(calls) >= failing_call:
                raise np.linalg.LinAlgError(f"{name} did not converge")
            return real(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, fails_from_call)
        argv = [str(rank3_file) if a == "{input}" else a for a in argv]
        assert main([*argv, "--out", "-"]) == 65
        assert len(calls) == failing_call
        assert "failed to converge" in capsys.readouterr().err


class TestOptimality:
    def test_undersampled_regime(self, tmp_path):
        out = tmp_path / "opt.json"
        code = main(
            ["optimality", "--n", "64", "--m", "256", "--d", "26", "--trials", "50",
             "--seed", "0", "--out", str(out)]
        )
        assert code == 0
        report = read_report(out)
        assert report["results"]["missed_block_fraction"] >= 0.99
        assert report["summary"]["failed"]["mean"] >= 0.99

    @pytest.mark.parametrize(
        "argv, message",
        [(["--m", "16", "--d", "0"], "sketch size d must be >= 1, got 0"),
         (["--m", "16", "--d", "4", "--trials", "0"], "trials must be >= 1, got 0"),
         (["--m", "4096", "--d", "5", "--trials", "2"],
          "a 4096x4 float64 array needs 131072 bytes, more than the 65536 bytes of physical memory")],
    )
    def test_numbers_and_memory_checked_before_the_witness_is_built(
        self, monkeypatch, capsys, argv, message
    ):
        # 64 KiB of physical memory: the 4096 x 4 witness needs 128 KiB
        def not_built(*args, **kwargs):
            pytest.fail("the witness was built")

        monkeypatch.setattr(os, "sysconf", {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 16}.__getitem__)
        monkeypatch.setattr(np, "zeros", not_built)
        assert main(["optimality", "--n", "4", *argv, "--out", "-"]) == 65
        assert capsys.readouterr().err == f"matsketch: {message}\n"


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ["decay", "--norm", "cut", "--witness", "random-sign", "--n", "12", "--q", "6",
             "--trials", "50", "--seed", "3"],
            ["lln", "--ensemble", "scaled-basis", "--n", "8", "--d", "64", "--trials", "25",
             "--seed", "3"],
            ["optimality", "--n", "8", "--m", "32", "--d", "10", "--trials", "25", "--seed", "3"],
            ["approx-svd", "--input", "CSV", "--k", "3", "--seed", "2"],
            ["approx-svd", "--input", "CSV", "--k", "3", "--seed", "2", "--stream", "two-pass"],
            ["approx-svd", "--input", "CSV", "--k", "3", "--seed", "2", "--stream", "one-pass",
             "--d", "40"],
        ],
    )
    def test_per_trial_bytes_reproduce(self, tmp_path, argv):
        csv = tmp_path / "a.csv"
        write_csv(csv, np.random.default_rng(0).standard_normal((300, 20)))
        argv = [str(csv) if arg == "CSV" else arg for arg in argv]
        out1 = tmp_path / "r1.json"
        out2 = tmp_path / "r2.json"
        assert main(argv + ["--out", str(out1)]) == 0
        assert main(argv + ["--out", str(out2)]) == 0
        r1 = read_report(out1)
        r2 = read_report(out2)
        assert json.dumps(r1["per_trial"], sort_keys=True) == json.dumps(
            r2["per_trial"], sort_keys=True
        )
        for key in ("config", "summary", "results", "provenance"):
            assert r1[key] == r2[key]


class TestReportBytesPinned:
    """A seed fixes the bytes of ``per_trial`` and ``results``, projector_sha256 included."""

    PINS = {
        "approx-none": "d778b197b79e2796b672eacb0b95f32b87f5ca76d77cad885db6590009fd438d",
        "approx-two-pass": "d778b197b79e2796b672eacb0b95f32b87f5ca76d77cad885db6590009fd438d",
        "approx-one-pass": "cb0483f01c43bdd98a4e7f8127cf2e97606013ce733272674a8da4fb52edef5f",
        "optimality": "9e622b5ab51b915e4f616aacaec65bc40bbd7f4686e8a17d7cfee0ab28b18f80",
        "lln": "43f6ff7d93f7bb9149846ca1914c49f78b8ec186c733cb2ef907c7517828fd31",
        "decay-cut-file": "faba44c2c5b4c00aa69bd28e9969c40b6b66be525cd78379f63de16a80a3b294",
        "decay-spectral-random-sign": "a232be8533a000aa88ef16fd285ad81fb05e834817030b9fc25c67a77e34f4dc",
    }
    APPROX = ["approx-svd", "--input", "{input}", "--k", "3", "--seed", "7"]
    ARGV = {
        "approx-none": [*APPROX, "--stream", "none"],
        "approx-two-pass": [*APPROX, "--stream", "two-pass"],
        "approx-one-pass": [*APPROX, "--stream", "one-pass", "--d", "40"],
        "optimality": ["optimality", "--n", "4", "--m", "16", "--d", "6", "--trials", "20",
                       "--seed", "3"],
        "lln": ["lln", "--ensemble", "matrix-rows", "--input", "{input}", "--d", "30",
                "--trials", "6", "--c-const", "2.5", "--seed", "5"],
        "decay-cut-file": ["decay", "--norm", "cut", "--witness", "file", "--input", "{signs}",
                           "--q", "5", "--trials", "20", "--seed", "9"],
        "decay-spectral-random-sign": ["decay", "--norm", "spectral", "--witness", "random-sign",
                                       "--n", "16", "--q", "4", "--trials", "20", "--seed", "2"],
    }

    @pytest.mark.parametrize("run", sorted(ARGV))
    def test_seed_pins_report_bytes(self, tmp_path, run):
        path = tmp_path / "a.bin"
        write_binary(path, np.random.default_rng(11).standard_normal((300, 12)))
        signs = tmp_path / "signs.bin"
        write_binary(signs, np.where(np.random.default_rng(13).random((14, 14)) < 0.5, -1.0, 1.0))
        out = tmp_path / "report.json"
        paths = {"{input}": str(path), "{signs}": str(signs)}
        argv = [paths.get(a, a) for a in self.ARGV[run]]
        assert main([*argv, "--out", str(out)]) == 0
        report = read_report(out)
        pinned = json.dumps(
            {"per_trial": report["per_trial"], "results": report["results"]}, sort_keys=True
        )
        assert hashlib.sha256(pinned.encode()).hexdigest() == self.PINS[run]


# runs approx-svd in all three modes on argv[1], each report to stdout
_APPROX_ALL_MODES = """
import sys
from matsketch.cli import main
modes = [[], ["--stream", "two-pass"], ["--stream", "one-pass", "--d", "20"]]
base = ["approx-svd", "--input", sys.argv[1], "--k", "3", "--seed", "2", "--out", "-"]
sys.exit(max(main(base + mode) for mode in modes))
"""


class TestBlasThreads:
    """Every CLI run sets numpy's OpenBLAS to one thread and gives the caller's count back."""

    def test_report_bytes_do_not_depend_on_blas_threads(self, tmp_path):
        # on 40x110 both the in-memory and the two-pass report change between
        # one and two OpenBLAS threads unless the run pins one
        path = tmp_path / "a.bin"
        write_binary(path, np.random.default_rng(0).standard_normal((40, 110)))
        package_root = str(Path(matsketch.__file__).parents[1])
        stdout = {}
        for threads in ("1", "2"):
            result = subprocess.run(
                [sys.executable, "-c", _APPROX_ALL_MODES, str(path)],
                capture_output=True,
                text=True,
                env={**os.environ, "PYTHONPATH": package_root, "OPENBLAS_NUM_THREADS": threads},
            )
            assert result.returncode == 0, result.stderr
            stdout[threads] = [
                line for line in result.stdout.splitlines()
                if '"started_at"' not in line and '"finished_at"' not in line
            ]
        assert sum(line == "{" for line in stdout["1"]) == 3
        assert stdout["1"] == stdout["2"]

    @pytest.fixture
    def blas_threads(self):
        """numpy's OpenBLAS thread getter, with the caller's count set to 2 for the test."""
        api = parallel._openblas_api()
        if api is None:
            pytest.skip("numpy's bundled OpenBLAS not found")
        get, set_ = api
        before = get()
        set_(2)
        yield get
        set_(before)

    @staticmethod
    def _spy(monkeypatch, get):
        """BLAS thread counts seen inside approx.low_rank_approximate, one per call."""
        seen = []
        real = approx.low_rank_approximate

        def spy(*args, **kwargs):
            seen.append(get())
            return real(*args, **kwargs)

        monkeypatch.setattr(approx, "low_rank_approximate", spy)
        return seen

    @pytest.mark.parametrize("zero,code", [(False, 0), (True, 65)])
    def test_pins_one_thread_and_restores(self, tmp_path, monkeypatch, blas_threads, zero, code):
        caller = blas_threads()
        a = np.zeros((20, 4)) if zero else np.random.default_rng(0).standard_normal((20, 4))
        write_binary(tmp_path / "a.bin", a)
        seen = self._spy(monkeypatch, blas_threads)
        argv = ["approx-svd", "--input", str(tmp_path / "a.bin"), "--k", "2", "--out", "-"]
        assert main(argv) == code
        assert seen == [1]
        assert blas_threads() == caller

    def test_no_op_where_openblas_is_not_found(self, tmp_path, monkeypatch, blas_threads):
        caller = blas_threads()
        write_binary(tmp_path / "a.bin", np.random.default_rng(0).standard_normal((20, 4)))
        seen = self._spy(monkeypatch, blas_threads)
        monkeypatch.setattr(parallel, "_openblas_api", lambda: None)
        argv = ["approx-svd", "--input", str(tmp_path / "a.bin"), "--k", "2", "--out", "-"]
        assert main(argv) == 0
        assert seen == [caller]
        assert blas_threads() == caller


def _every_choice():
    """(command, flag, value) for each ``choices`` value of each subcommand flag."""
    parser = cli._build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return [
        (command, action.option_strings[0], value)
        for command, sub in commands.choices.items()
        for action in sub._actions
        if action.choices
        for value in action.choices
    ]


# a tiny run of each command that has a choice; the flag under test, given
# after these, overrides them
SMOKE_ARGV = {
    "approx-svd": ["--k", "1", "--d", "4"],
    "decay": ["--norm", "cut", "--witness", "file", "--n", "4", "--q", "2", "--trials", "2"],
    "lln": ["--ensemble", "matrix-rows", "--n", "4", "--d", "4", "--trials", "2"],
}


@pytest.mark.parametrize("command,flag,value", _every_choice())
def test_every_choice_runs(tmp_path, command, flag, value):
    # square, for decay
    path = tmp_path / "a.bin"
    write_binary(path, np.random.default_rng(4).standard_normal((4, 4)))
    argv = [command, *SMOKE_ARGV[command], "--input", str(path), flag, value]
    assert main(argv + ["--out", str(tmp_path / "r.json")]) == 0


@pytest.mark.parametrize("fmt", ["matrixmarket", "csv", "binary"])
@pytest.mark.parametrize("command", sorted(SMOKE_ARGV))
def test_every_format_runs(tmp_path, command, fmt):
    # square, for decay; a file with no suffix, told apart by its bytes
    path = tmp_path / "a"
    getattr(matio, f"write_{fmt}")(path, np.random.default_rng(4).standard_normal((4, 4)))
    argv = [command, *SMOKE_ARGV[command], "--input", str(path)]
    assert main(argv + ["--out", str(tmp_path / "r.json")]) == 0


@pytest.mark.skipif(not os.path.exists("/dev/stdin"), reason="no /dev/stdin")
def test_piped_input_is_refused_and_redirected_input_is_read(tmp_path):
    # each reader opens the input again, so a pipe would be read from where
    # the last open left it; a redirect from a file is that regular file
    path = tmp_path / "a.csv"
    write_csv(path, np.random.default_rng(4).standard_normal((200, 4)))
    argv = [sys.executable, "-m", "matsketch.cli", "approx-svd", "--k", "1", "--out", "-",
            "--input"]
    env = {**os.environ, "PYTHONPATH": str(Path(matsketch.__file__).parents[1])}
    piped = subprocess.run([*argv, "/dev/stdin"], input=path.read_bytes(), capture_output=True,
                           env=env, timeout=120)
    assert piped.returncode == 65
    assert piped.stderr == b"matsketch: /dev/stdin: not a regular file\n"
    with open(path, "rb") as fh:
        redirected = subprocess.run([*argv, "/dev/stdin"], stdin=fh, capture_output=True,
                                    env=env, timeout=120)
    by_path = subprocess.run([*argv, str(path)], capture_output=True, env=env, timeout=120)
    assert redirected.returncode == by_path.returncode == 0
    report, expected = json.loads(redirected.stdout), json.loads(by_path.stdout)
    assert report["per_trial"] == expected["per_trial"]
    assert report["provenance"]["sha256"] == expected["provenance"]["sha256"]


@pytest.mark.parametrize("command", sorted(SMOKE_ARGV))
def test_format_flag_is_a_usage_error(tmp_path, capsys, command):
    # the format is read from the file's bytes, with no flag to override it
    path = tmp_path / "a.bin"
    write_binary(path, np.random.default_rng(4).standard_normal((4, 4)))
    argv = [command, *SMOKE_ARGV[command], "--input", str(path), "--out", str(tmp_path / "r.json")]
    assert main(argv) == 0
    assert main([*argv, "--format", "binary"]) == 64
    assert "unrecognized arguments: --format binary" in capsys.readouterr().err


def _every_number():
    """(command, flag, value) for each int and float flag of each subcommand and each edge value."""
    parser = cli._build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    values = {int: ["-1", "0"], float: ["nan", "inf", "-inf", "-1", "0", "1e300"]}
    return [
        (command, action.option_strings[0], value)
        for command, sub in commands.choices.items()
        for action in sub._actions
        if action.type in values
        for value in values[action.type]
    ]


# the smallest run of each command; the flag under test, given after these, overrides them
TINY_ARGV = {
    "approx-svd": ["--input", "{input}", "--k", "1", "--d", "4"],
    "decay": ["--norm", "cut", "--witness", "identity", "--n", "4", "--q", "2", "--trials", "2"],
    "lln": ["--ensemble", "scaled-basis", "--n", "4", "--d", "4", "--trials", "2"],
    "optimality": ["--n", "4", "--m", "8", "--d", "2", "--trials", "2"],
}


@pytest.mark.parametrize("command,flag,value", _every_number())
def test_every_number_exits_with_a_documented_code(tmp_path, command, flag, value):
    path = tmp_path / "a.bin"
    write_binary(path, np.random.default_rng(4).standard_normal((4, 4)))
    argv = [str(path) if a == "{input}" else a for a in TINY_ARGV[command]]
    # "--flag=value", or argparse would take "-inf" for an option
    code = main([command, *argv, f"{flag}={value}", "--out", str(tmp_path / "r.json")])
    assert code in (0, 64, 65)


def test_console_entry_point_runs(tmp_path):
    out = tmp_path / "report.json"
    # the child imports the package under test, installed or not
    package_root = str(Path(matsketch.__file__).parents[1])
    result = subprocess.run(
        [sys.executable, "-m", "matsketch.cli", "optimality", "--n", "4", "--m", "8",
         "--d", "2", "--trials", "5", "--out", str(out)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": package_root},
    )
    assert result.returncode == 0
    assert out.exists()


def test_reports_validate_against_schema(tmp_path):
    import jsonschema

    from matsketch.reports import load_schema

    out = tmp_path / "r.json"
    assert main(["decay", "--norm", "spectral", "--witness", "identity", "--n", "8",
                 "--q", "4", "--trials", "20", "--out", str(out)]) == 0
    jsonschema.validate(read_report(out), load_schema())
