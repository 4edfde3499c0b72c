"""End-to-end acceptance suite.

Each test exercises one headline guarantee at its stated tolerance and
prints a single PASS/FAIL line (run with ``pytest -s`` to see them).
"""

import json
import math
import time

import numpy as np
import pytest
from scipy import stats as scipy_stats

import matsketch as ms
from matsketch.cli import main as cli_main


def check(tag: str, ok: bool, detail: str, elapsed: float, limit: float):
    line = f"[{tag}] {'PASS' if ok else 'FAIL'}: {detail} ({elapsed:.1f}s, limit {limit:.0f}s)"
    print(line, flush=True)
    assert ok, line
    assert elapsed <= limit, f"{tag}: exceeded runtime limit ({elapsed:.1f}s > {limit:.0f}s)"


def test_ac1_low_rank_guarantee():
    started = time.time()
    rng = np.random.default_rng(20260810)
    u, _ = np.linalg.qr(rng.normal(size=(2000, 120)))
    v, _ = np.linalg.qr(rng.normal(size=(120, 120)))
    values = np.concatenate([np.full(5, 10.0), np.full(115, 0.1)])
    a = (u * values) @ v.T
    satisfied = 0
    d_used = None
    for seed in range(50):
        _, report = ms.low_rank_approximate(
            a, k=5, epsilon=0.5, delta=0.5, c_constant=1.0, seed=seed
        )
        satisfied += bool(report.satisfied)
        d_used = report.d
    check(
        "AC-1",
        satisfied >= 45,
        f"spectral error within sigma_6 + eps*|A|_2 in {satisfied}/50 seeds at d={d_used}",
        time.time() - started,
        120,
    )


def test_ac2_sample_complexity_lower_bound():
    started = time.time()
    result = ms.optimality_experiment(64, 256, 26, trials=200, seed=0)
    unit_error_in_missed_trials = all(
        err >= 1.0 - 1e-6 for missed, err in zip(result.missed_blocks, result.errors) if missed > 0
    )
    ok = result.missed_block_fraction >= 0.99 and unit_error_in_missed_trials
    check(
        "AC-2",
        ok,
        f"missed_block_fraction={result.missed_block_fraction:.3f}, "
        f"unit error in every missed-block trial: {unit_error_in_missed_trials}",
        time.time() - started,
        60,
    )


def test_ac3_projection_error_bound_fuzz():
    started = time.time()
    rng = np.random.default_rng(7)
    checked = 0
    failures = 0
    for trial in range(1000):
        m = int(rng.integers(2, 21))
        n = int(rng.integers(1, 11))
        a = rng.normal(size=(m, n)) * float(rng.choice([0.1, 1.0, 10.0]))
        sketch = ms.sample_sketch(a, int(rng.integers(1, 9)), seed=trial)
        for k in range(1, n + 1):
            checked += 1
            failures += not ms.projection_error_bound(a, sketch, k).holds
    check(
        "AC-3",
        failures == 0,
        f"inequality held in {checked - failures}/{checked} fuzzed (matrix, sketch, k) cases",
        time.time() - started,
        30,
    )


def test_ac4_operator_lln_deviation_profile():
    started = time.time()
    ensemble = ms.scaled_basis_ensemble(256)
    mean_at = {
        d: ms.lln_deviation(ensemble, d, trials=100, seed=0).mean
        for d in (256, 1024, 4096, 16384)
    }
    threshold_d = 4 * math.ceil(256 * math.log(256))  # 5680
    mean_threshold = ms.lln_deviation(ensemble, threshold_d, trials=100, seed=0).mean
    profile = [mean_at[256], mean_at[1024], mean_at[4096], mean_at[16384]]
    ok = (
        all(x >= y for x, y in zip(profile, profile[1:]))
        and mean_threshold < 1.0
        and mean_at[256] > 0.9
    )
    check(
        "AC-4",
        ok,
        f"mean deviations {[round(x, 3) for x in profile]} nonincreasing, "
        f"{mean_threshold:.3f} < 1 at d={threshold_d}, {mean_at[256]:.3f} > 0.9 at d=256",
        time.time() - started,
        120,
    )


def test_ac5_cut_norm_decay():
    started = time.time()
    identity = ms.cut_decay_estimate(ms.witness_identity(16), 8, trials=500, seed=0)
    ones = ms.cut_decay_estimate(ms.witness_all_ones(16), 8, trials=500, seed=0)
    identity_ok = abs(identity.mean - 8.0) <= 0.10 * 8.0
    ones_ok = abs(ones.mean - 68.0) <= 0.15 * 68.0  # E|Q|^2 = 64 + 8*(1/2)
    sign_ok = True
    sign_means = {}
    for q in (4, 8):
        est = ms.cut_decay_estimate(ms.witness_random_sign(16, seed=0), q, trials=500, seed=0)
        cap = 8.0 * (q / 16.0) ** 1.5 * 2.0 * 16.0**1.5
        sign_means[q] = est.mean
        sign_ok = sign_ok and est.mean <= cap
    check(
        "AC-5",
        identity_ok and ones_ok and sign_ok,
        f"identity mean {identity.mean:.2f} (target 8), all-ones {ones.mean:.2f} (target 68), "
        f"random-sign means {({q: round(v, 1) for q, v in sign_means.items()})} under caps",
        time.time() - started,
        120,
    )


def test_ac6_norm_equivalence_and_self_duality():
    started = time.time()
    rng = np.random.default_rng(11)
    violations = 0
    for _ in range(200):
        a = rng.normal(size=(8, 8))
        cut = ms.cut_norm_exact(a).value
        inf_one = ms.inf_to_one_norm_exact(a)
        if not (0.25 * inf_one <= cut + 1e-9 and cut <= inf_one + 1e-9):
            violations += 1
        if abs(ms.cut_norm_exact(a.T).value - cut) > 1e-9:
            violations += 1
        if abs(ms.inf_to_one_norm_exact(a.T) - inf_one) > 1e-9:
            violations += 1
    check(
        "AC-6",
        violations == 0,
        f"equivalence and transpose-invariance held on 200 random 8x8 matrices "
        f"({violations} violations)",
        time.time() - started,
        60,
    )


def test_ac7_spectral_norm_decay():
    started = time.time()
    trials = 2000
    identity = ms.spectral_decay_estimate(ms.witness_identity(64), 16, trials=trials, seed=0)
    p_nonempty = 1.0 - (1.0 - 16 / 64) ** 64
    se = math.sqrt(p_nonempty * (1.0 - p_nonempty) / trials)
    identity_ok = abs(identity.mean - p_nonempty) <= 3 * se
    ones = ms.spectral_decay_estimate(ms.witness_all_ones(64), 16, trials=trials, seed=0)
    ks = np.arange(65)
    pmf = scipy_stats.binom.pmf(ks, 64, 0.25)
    exact_ratio = float((pmf * np.sqrt(ks * 64)).sum()) / 64.0
    ones_ok = abs(ones.mean / 64.0 - exact_ratio) <= 0.15 * exact_ratio
    check(
        "AC-7",
        identity_ok and ones_ok,
        f"identity mean {identity.mean:.8f} vs exact {p_nonempty:.8f} (3se={3 * se:.2e}); "
        f"all-ones ratio {ones.mean / 64.0:.4f} vs exact {exact_ratio:.4f}",
        time.time() - started,
        60,
    )


def test_ac8_order_statistics_bracketing():
    started = time.time()
    rng = np.random.default_rng(17)
    total = 0
    inside = 0
    for case in range(50):
        a = np.sort(rng.random(64))[::-1]
        for delta in (0.1, 0.25, 0.5):
            empirical, lower, upper = ms.order_statistics_check(a, delta, 100_000, seed=case)
            total += 1
            inside += lower <= empirical <= upper
    check(
        "AC-8",
        inside == total,
        f"empirical mean inside [lower, upper] in {inside}/{total} cases",
        time.time() - started,
        120,
    )


def test_ac9_sampler_correctness():
    started = time.time()
    fixed = np.diag([1.0, 1.0, 2.0, 2.0, 3.0, 3.0, 4.0, 4.0])
    counts = np.zeros(8, dtype=np.int64)
    seeds = 100_000
    for seed in range(seeds):
        sketch = ms.sample_sketch_one_pass(ms.MatrixRowStream(fixed), 1, seed=seed)
        counts[sketch.chosen_indices[0]] += 1
    expected = ms.row_distribution(fixed) * seeds
    pvalue = float(scipy_stats.chisquare(counts, expected).pvalue)
    mem = ms.sample_sketch(fixed, 40, seed=123)
    streamed = ms.sample_sketch(ms.MatrixRowStream(fixed), 40, seed=123)
    bit_identical = np.array_equal(
        mem.chosen_indices, streamed.chosen_indices
    ) and mem.rows[mem.inverse].tobytes() == streamed.rows[streamed.inverse].tobytes()
    check(
        "AC-9",
        pvalue > 0.001 and bit_identical,
        f"one-pass occupant chi-square p={pvalue:.4f} over {seeds} seeds; "
        f"two-pass bit-identical to in-memory: {bit_identical}",
        time.time() - started,
        60,
    )


def test_ac10_determinism_and_round_trip(tmp_path):
    started = time.time()
    rng = np.random.default_rng(23)
    matrix_path = tmp_path / "input.csv"
    ms.write_csv(matrix_path, rng.normal(size=(60, 12)))
    commands = [
        ["approx-svd", "--input", str(matrix_path), "--k", "4", "--seed", "9"],
        ["decay", "--norm", "cut", "--witness", "identity", "--n", "16", "--q", "8",
         "--trials", "60", "--seed", "9"],
        ["decay", "--norm", "spectral", "--witness", "all-ones", "--n", "32", "--q", "8",
         "--trials", "60", "--seed", "9"],
        ["lln", "--ensemble", "scaled-basis", "--n", "16", "--d", "128", "--trials", "40",
         "--seed", "9"],
        ["optimality", "--n", "16", "--m", "64", "--d", "20", "--trials", "40", "--seed", "9"],
    ]
    reproducible = True
    for argv in commands:
        first = tmp_path / "first.json"
        second = tmp_path / "second.json"
        assert cli_main(argv + ["--out", str(first)]) == 0
        assert cli_main(argv + ["--out", str(second)]) == 0
        with open(first) as fh:
            r1 = json.load(fh)
        with open(second) as fh:
            r2 = json.load(fh)
        serialized = [
            json.dumps(r[key], sort_keys=True)
            for r in (r1, r2)
            for key in ("per_trial",)
        ]
        if serialized[0] != serialized[1]:
            reproducible = False

    from matsketch.matio import sha256_file

    binary_path = tmp_path / "round.bin"
    original = rng.normal(size=(100, 50))
    ms.write_binary(binary_path, original)
    digest_one = sha256_file(binary_path)
    read_back = ms.read_matrix(binary_path)
    ms.write_binary(binary_path, read_back)
    round_trip = (
        sha256_file(binary_path) == digest_one and read_back.tobytes() == original.tobytes()
    )
    check(
        "AC-10",
        reproducible and round_trip,
        f"per_trial byte-identical across reruns for {len(commands)} commands; "
        f"binary round-trip bit-exact: {round_trip}",
        time.time() - started,
        60,
    )
