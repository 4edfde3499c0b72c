import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import matsketch
from matsketch import IterableRowStream, block_identity_matrix, matio, write_binary, write_csv
from matsketch.cli import main
from conftest import matrix_with_singular_values, write_binary_with_nan


def read_report(path):
    with open(path) as fh:
        return json.load(fh)


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
            return enumerate(base if len(traversals) == 1 else base[::-1])

        monkeypatch.setattr(matio, "open_stream", lambda *args: IterableRowStream(factory, 4))
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
        mem = read_report(out_mem)["per_trial"][0]
        streamed = read_report(out_str)["per_trial"][0]
        assert streamed["error_spectral"] is None
        assert streamed["satisfied"] is None
        assert streamed["d"] == mem["d"]
        assert streamed["numerical_rank"] == mem["numerical_rank"]

    def test_one_pass_requires_d(self, tmp_path, rank3_file):
        code = main(
            ["approx-svd", "--input", str(rank3_file), "--k", "3", "--stream", "one-pass"]
        )
        assert code == 64

    def test_one_pass_with_d(self, tmp_path, rank3_file):
        out = tmp_path / "one.json"
        code = main(
            ["approx-svd", "--input", str(rank3_file), "--k", "3", "--stream", "one-pass",
             "--d", "60", "--out", str(out)]
        )
        assert code == 0
        assert read_report(out)["per_trial"][0]["error_spectral"] is None


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

    def test_block_identity_requires_m(self):
        assert main(["decay", "--norm", "spectral", "--witness", "block-identity", "--q", "4"]) == 64


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

    def test_matrix_rows_requires_input(self):
        assert main(["lln", "--ensemble", "matrix-rows", "--d", "10"]) == 64


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
