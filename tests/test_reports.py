import json
import os
import threading

import jsonschema
import numpy as np
import pytest

import matsketch as ms
from matsketch import OutOfRangeError, cutnorm
from matsketch.parallel import run_indexed, run_trials, thread_count
from matsketch.rng import spawn
from matsketch.reports import ExperimentReport, check_summary, load_schema, summarize


# each Monte-Carlo experiment as a function of the trial count, with its per-trial fields
EXPERIMENTS = {
    "cut_decay": (
        lambda t: ms.cut_decay_estimate(np.eye(12), 6, t, seed=3),
        ("samples", "subset_sizes"),
    ),
    "spectral_decay": (
        lambda t: ms.spectral_decay_estimate(ms.witness_random_sign(10, 1), 4, t, seed=3),
        ("samples", "subset_sizes"),
    ),
    "lln": (
        lambda t: ms.lln_deviation(ms.scaled_basis_ensemble(6), 20, t, seed=3),
        ("deviations",),
    ),
    "optimality": (
        lambda t: ms.optimality_experiment(4, 16, 6, t, seed=3),
        ("missed_blocks", "errors"),
    ),
}


@pytest.fixture
def sample_report():
    per_trial = [
        {"trial": 0, "value": 1.5, "flag": True},
        {"trial": 1, "value": 2.5, "flag": False},
        {"trial": 2, "value": 4.0, "flag": True},
    ]
    return ExperimentReport(
        command="decay",
        config={"seed": 7, "q": np.float64(8.0), "trials": np.int64(3)},
        per_trial=per_trial,
        results={"fitted_constant": np.float64(0.5)},
        started_at="2024-01-01T00:00:00+00:00",
        finished_at="2024-01-01T00:00:01+00:00",
    )


class TestSummary:
    def test_statistics(self):
        summary = summarize([{"x": 1.0}, {"x": 2.0}, {"x": 3.0}])
        assert summary["x"]["mean"] == pytest.approx(2.0)
        assert summary["x"]["min"] == 1.0
        assert summary["x"]["max"] == 3.0
        assert summary["x"]["stddev"] == pytest.approx(np.std([1.0, 2.0, 3.0]))

    def test_bools_become_fractions(self):
        summary = summarize([{"ok": True}, {"ok": False}, {"ok": True}, {"ok": True}])
        assert summary["ok"]["mean"] == pytest.approx(0.75)

    def test_non_numeric_keys_skipped(self):
        assert summarize([{"name": "a", "x": 1.0}]).keys() == {"x"}

    def test_recomputable(self, sample_report):
        assert check_summary(sample_report.to_dict())

    def test_write_serializes_before_opening(self, tmp_path, sample_report):
        # a report that cannot be serialized leaves an earlier file as it was
        path = tmp_path / "report.json"
        path.write_bytes(b"an earlier report\n")
        sample_report.results["fitted_constant"] = float("nan")
        with pytest.raises(ValueError, match="not JSON compliant"):
            sample_report.write(path)
        assert path.read_bytes() == b"an earlier report\n"

    def test_tampering_detected(self, sample_report):
        tampered = sample_report.to_dict()
        tampered["summary"]["value"]["mean"] += 1e-6
        assert not check_summary(tampered)


class TestReportJson:
    def test_round_trip(self, sample_report):
        loaded = json.loads(sample_report.to_json())
        assert loaded == sample_report.to_dict()

    def test_numpy_values_become_builtin(self, sample_report):
        loaded = json.loads(sample_report.to_json())
        assert isinstance(loaded["config"]["q"], float)
        assert isinstance(loaded["config"]["trials"], int)
        assert isinstance(loaded["per_trial"][0]["flag"], bool)

    def test_validates_against_schema(self, sample_report):
        jsonschema.validate(json.loads(sample_report.to_json()), load_schema())

    def test_schema_rejects_missing_sections(self, sample_report):
        broken = json.loads(sample_report.to_json())
        del broken["per_trial"]
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(broken, load_schema())

    def test_deterministic_serialization(self, sample_report):
        assert sample_report.to_json() == sample_report.to_json()


class TestParallel:
    def test_threaded_matches_sequential(self, monkeypatch):
        def work(i):
            return i * i

        sequential = run_indexed(work, 20)
        monkeypatch.setenv("MATSKETCH_THREADS", "4")
        assert run_indexed(work, 20) == sequential

    def test_bad_env_value_falls_back(self, monkeypatch):
        monkeypatch.setenv("MATSKETCH_THREADS", "lots")
        assert run_indexed(lambda i: i, 3) == [0, 1, 2]

    def test_thread_count_capped_at_usable_cpus(self, monkeypatch):
        # read alone, never passed to a pool: no thread is started
        monkeypatch.setenv("MATSKETCH_THREADS", "100000")
        threads = threading.active_count()
        cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
        assert thread_count() == cpus
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert thread_count() == 3
        assert threading.active_count() == threads

    def test_run_trials_seeds_trial_i_with_seed_and_i(self, monkeypatch):
        monkeypatch.setenv("MATSKETCH_THREADS", "4")
        draws = run_trials(lambda rng: rng.random(), 9, seed=7)
        assert draws == [spawn(7, i).random() for i in range(9)]

    @pytest.mark.parametrize("name", sorted(EXPERIMENTS))
    def test_threaded_trial_loop_is_deterministic(self, monkeypatch, name):
        run, fields = EXPERIMENTS[name]
        base = run(40)
        monkeypatch.setenv("MATSKETCH_THREADS", "4")
        threaded = run(40)
        for field in fields:
            assert np.array_equal(getattr(base, field), getattr(threaded, field))

    @pytest.mark.parametrize("name", sorted(EXPERIMENTS))
    def test_zero_trials_rejected(self, name):
        run, _ = EXPERIMENTS[name]
        with pytest.raises(OutOfRangeError, match="trials"):
            run(0)

    def test_trial_count_checked_before_any_oracle_call(self, monkeypatch):
        def oracle(a):
            raise AssertionError("oracle called")

        monkeypatch.setattr(cutnorm, "cut_norm_exact", oracle)
        monkeypatch.setattr(cutnorm, "spectral_norm", oracle)
        with pytest.raises(OutOfRangeError, match="trials"):
            cutnorm.cut_decay_estimate(np.eye(6), 3, 0)
        with pytest.raises(OutOfRangeError, match="trials"):
            cutnorm.spectral_decay_estimate(np.eye(6), 3, 0)
