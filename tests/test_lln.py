import itertools
import math
import os
import tracemalloc

import numpy as np
import pytest

from matsketch import (
    MatrixRowStream,
    OutOfRangeError,
    ShapeMismatchError,
    TooLargeError,
    ZeroMatrixError,
    lln,
    lln_deviation,
    low_rank_approximate,
    sampling,
    matrix_rows_ensemble,
    scaled_basis_ensemble,
    spectral_norm,
)
from matsketch.rng import spawn
from matsketch.sampling import draw_weighted_indices, stream_weights
from lemmas import empirical_second_moment, rademacher_moment_check, tail_bound_eval


class TestEmpiricalSecondMoment:
    def test_repeated_basis_vector(self):
        samples = np.tile([1.0, 0.0, 0.0], (9, 1))
        assert np.allclose(empirical_second_moment(samples), np.diag([1.0, 0.0, 0.0]))

    def test_two_scaled_basis_vectors(self):
        samples = math.sqrt(2) * np.eye(2)
        assert np.allclose(empirical_second_moment(samples), np.eye(2))

    def test_matches_double_loop(self, rng):
        samples = rng.normal(size=(13, 5))
        naive = np.zeros((5, 5))
        for y in samples:
            for j in range(5):
                for k in range(5):
                    naive[j, k] += y[j] * y[k]
        naive /= 13
        assert np.allclose(empirical_second_moment(samples), naive, atol=1e-12)

    def test_positive_semidefinite(self, rng):
        samples = rng.normal(size=(7, 6))
        eigenvalues = np.linalg.eigvalsh(empirical_second_moment(samples))
        assert eigenvalues.min() >= -1e-10

    def test_empty(self):
        with pytest.raises(ShapeMismatchError):
            empirical_second_moment(np.zeros((0, 3)))


def top_sq(ens) -> float:
    """|A|_2^2, the top eigenvalue of the ensemble's Gram matrix."""
    return float(np.linalg.eigvalsh(ens.gram)[-1])


def bound(ens) -> float:
    """The length M = |A|_F / |A|_2 of every rescaled row."""
    return math.sqrt(ens.total_sq / top_sq(ens))


def drawn_rows(ens, d, rng):
    """The rows ``draw_weighted_indices`` picks from the ensemble, each rescaled to length M."""
    picked = ens.stream.matrix[draw_weighted_indices(ens.weights, d, rng)]
    return picked * (bound(ens) / np.linalg.norm(picked, axis=1))[:, None]


def naive_deviation(ens, d, rng) -> float:
    """|(1/d) sum y y^T - G / |A|_2^2|_2 from the drawn rows, by a dense SVD."""
    gap = empirical_second_moment(drawn_rows(ens, d, rng)) - ens.gram / top_sq(ens)
    return float(np.linalg.svd(gap, compute_uv=False)[0])


class TestEnsembles:
    def test_scaled_basis_fields(self):
        ens = scaled_basis_ensemble(9)
        assert bound(ens) == pytest.approx(3.0)
        assert np.array_equal(ens.stream.matrix, np.eye(9))
        assert np.array_equal(ens.weights, np.ones(9))
        assert np.allclose(ens.gram / top_sq(ens), np.eye(9))

    def test_matrix_rows_second_moment(self, rng):
        a = rng.normal(size=(7, 4))
        ens = matrix_rows_ensemble(a)
        # oracle: probability-weighted sum of the outer products of the rows rescaled to length M
        expected = np.zeros((4, 4))
        for weight, row in zip(ens.weights, a):
            y = bound(ens) * row / np.linalg.norm(row)
            expected += weight / ens.total_sq * np.outer(y, y)
        assert np.allclose(ens.gram / top_sq(ens), expected, atol=1e-10)
        assert np.abs(np.linalg.eigvalsh(ens.gram / top_sq(ens))).max() == pytest.approx(1.0)

    def test_matrix_rows_scale_from_gram_matches_svd(self, rng):
        a = rng.normal(size=(40, 6)) * rng.lognormal(size=(40, 1))
        ens = matrix_rows_ensemble(a)
        top = spectral_norm(a)
        assert bound(ens) == pytest.approx(np.linalg.norm(a) / top, rel=1e-12)
        assert top_sq(ens) == pytest.approx(top**2, rel=1e-12)
        assert np.allclose(ens.gram / top_sq(ens), a.T @ a / top**2, rtol=0, atol=1e-12)

    def test_matrix_rows_bound(self, rng):
        # every row of a sketch, scaled by sqrt(d) / |A|_2, has length M
        ens = matrix_rows_ensemble(rng.normal(size=(6, 3)))
        d = 40
        sketch = ens.draw(d, spawn(0, 0))
        lengths = np.linalg.norm(sketch.rows, axis=1) * math.sqrt(d / top_sq(ens))
        assert np.allclose(lengths, bound(ens))

    def test_matrix_rows_drops_zero_rows(self):
        a = np.array([[2.0, 0.0], [0.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
        ens = matrix_rows_ensemble(a)
        assert ens.weights.tolist() == [4.0, 0.0, 1.0, 0.0]
        for t in range(20):
            sketch = ens.draw(50, spawn(1, t))
            assert set(sketch.chosen_indices.tolist()) == {0, 2}

    def test_zero_matrix(self):
        with pytest.raises(ZeroMatrixError):
            matrix_rows_ensemble(np.zeros((2, 2)))

    def test_gram_beyond_memory_refused(self, monkeypatch, rng):
        # 64 KiB of physical memory: a 200 x 200 Gram alone needs 320 KB
        a = rng.normal(size=(5, 200))
        monkeypatch.setattr(os, "sysconf", {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 16}.__getitem__)
        with pytest.raises(TooLargeError, match="200x200"):
            matrix_rows_ensemble(a)

    def test_scaled_basis_beyond_memory_refused_before_the_identity_exists(self, monkeypatch):
        def not_built(*args, **kwargs):
            pytest.fail("the identity was built")

        monkeypatch.setattr(os, "sysconf", {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 16}.__getitem__)
        monkeypatch.setattr(np, "eye", not_built)
        with pytest.raises(TooLargeError, match="200x200"):
            scaled_basis_ensemble(200)

    def test_ensemble_and_trial_copy_no_rows(self, rng):
        # the ensemble wraps the matrix and a trial holds only its distinct
        # drawn rows: a copy of the 8 MB input would show in the peak
        a = rng.normal(size=(20000, 50))
        tracemalloc.start()
        try:
            ens = matrix_rows_ensemble(a)
            lln_deviation(ens, d=500, trials=1, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ens.stream.matrix is a
        assert peak < 0.25 * a.nbytes

    @pytest.mark.parametrize(
        "m, n, d",
        [(120, 120, 400), (50, 50, 20000), (4000, 20, 500), (60, 80, 1000)],
        ids=["basis", "basis-many-draws", "tall", "wide"],
    )
    def test_trial_check_counts_the_traced_peak(self, monkeypatch, rng, m, n, d):
        # the input, the ensemble and one trial, against check_trial_size's count
        counted = []
        monkeypatch.setattr(lln, "require_allocatable", lambda rows, cols: counted.append(rows * cols))
        lln.check_trial_size(m, n, d)
        a = np.eye(n) if m == n else rng.normal(size=(m, n))
        lln_deviation(scaled_basis_ensemble(2), d=4, trials=1)  # numpy.random imports first
        tracemalloc.start()
        try:
            ens = scaled_basis_ensemble(n) if m == n else matrix_rows_ensemble(a)
            lln_deviation(ens, d=d, trials=1, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak + (0 if m == n else a.nbytes) <= 8 * counted[-1]


class TestLlnDeviation:
    def test_one_dimensional_is_exact(self):
        stats = lln_deviation(scaled_basis_ensemble(1), d=10, trials=5, seed=0)
        assert np.allclose(stats.deviations, 0.0)

    def test_coupon_collector_scale(self):
        # d = 16 * ceil(16 ln 16) = 720 draws cover the basis comfortably
        stats = lln_deviation(scaled_basis_ensemble(16), d=720, trials=100, seed=1)
        assert stats.mean <= 1.0

    def test_mean_deviation_shrinks_with_d(self):
        ens = matrix_rows_ensemble(np.eye(4))
        means = [
            lln_deviation(ens, d=d, trials=60, seed=2).mean for d in (10, 100, 1000)
        ]
        assert means[0] > means[1] > means[2]

    def test_matches_count_formula_and_naive_route(self):
        # same trial generators, two independent computations of the deviation
        ens = scaled_basis_ensemble(8)
        d, trials, seed = 50, 20, 3
        stats = lln_deviation(ens, d=d, trials=trials, seed=seed)
        for t in range(trials):
            counts = np.bincount(draw_weighted_indices(ens.weights, d, spawn(seed, t)), minlength=8)
            formula = np.abs((8 / d) * counts - 1.0).max()
            assert stats.deviations[t] == pytest.approx(formula, abs=1e-10)
            dense = naive_deviation(ens, d, spawn(seed, t))
            assert stats.deviations[t] == pytest.approx(dense, abs=1e-10)

    def test_few_draws_from_many_atoms_match_naive_route(self, rng):
        # d << m: most rows are never drawn in a trial
        ens = matrix_rows_ensemble(rng.normal(size=(5000, 20)))
        d, trials, seed = 50, 4, 7
        stats = lln_deviation(ens, d=d, trials=trials, seed=seed)
        for t in range(trials):
            dense = naive_deviation(ens, d, spawn(seed, t))
            assert stats.deviations[t] == pytest.approx(dense, abs=1e-10)

    def test_trial_is_the_certificate_gram_deviation(self, rng):
        # trial t draws the sketch low_rank_approximate draws from spawn(seed, t),
        # and its deviation is the certificate's over |A|_2^2, bit for bit
        a = rng.normal(size=(60, 8)) * rng.lognormal(size=(60, 1))
        a[::4] = 0.0
        ens = matrix_rows_ensemble(a)
        d, trials, seed = 40, 8, 5
        stats = lln_deviation(ens, d=d, trials=trials, seed=seed)
        for t in range(trials):
            _, report = low_rank_approximate(a, 2, 0.5, 0.5, d=d, seed=spawn(seed, t))
            assert stats.deviations[t] == report.gram_deviation / top_sq(ens)

    def test_log_factor_is_necessary(self):
        # d = n draws miss some coordinate almost surely, deviation stays ~1
        stats = lln_deviation(scaled_basis_ensemble(64), d=64, trials=100, seed=4)
        assert stats.mean >= 0.9

    def test_a_value(self):
        ens = scaled_basis_ensemble(4)
        stats = lln_deviation(ens, d=100, trials=2, seed=0, c_constant=2.0)
        assert stats.a_value == pytest.approx(2.0 * math.sqrt(math.log(100) / 100) * 2.0)

    def test_d_too_small(self):
        with pytest.raises(OutOfRangeError):
            lln_deviation(scaled_basis_ensemble(2), d=1, trials=1)

    def test_pass_without_gram_refused_before_drawing(self, monkeypatch):
        def no_draw(*args, **kwargs):
            pytest.fail("a sketch was drawn")

        first = stream_weights(MatrixRowStream(np.eye(3)))
        monkeypatch.setattr(sampling, "draw_weighted_indices", no_draw)
        with pytest.raises(OutOfRangeError, match="Gram matrix"):
            lln_deviation(first, d=4, trials=2)


class TestTailBound:
    def test_small_t_clamps_to_one(self):
        assert tail_bound_eval(0.5, 1e-9) == 1.0

    def test_direct_value(self):
        assert tail_bound_eval(0.3, 0.3) == pytest.approx(2 * math.exp(-1.0))

    def test_halving_a_fourth_powers_the_exponential(self):
        a, t = 0.3, 0.29  # unclamped regime on both sides
        before = tail_bound_eval(a, t)
        assert before < 1.0
        after = tail_bound_eval(a / 2, t)
        assert after == pytest.approx(min(1.0, 2.0 * (before / 2.0) ** 4), rel=1e-12)

    @pytest.mark.parametrize(
        "a,t,c",
        [(0.0, 0.5, 1.0), (1.0, 0.0, 1.0), (1.0, 1.0, 1.0), (1.0, 0.5, 0.0),
         (1.0, 0.5, math.inf), (1.0, 0.5, math.nan)],
    )
    def test_out_of_range(self, a, t, c):
        with pytest.raises(OutOfRangeError):
            tail_bound_eval(a, t, c)


def exact_sign_moment(vectors: np.ndarray, p: float) -> tuple[float, float]:
    """Enumerate all 2^d sign patterns; returns the exact p-th moment root
    and the standard deviation of the norm (for Monte-Carlo error bars)."""
    d = vectors.shape[0]
    norms = []
    for signs in itertools.product((-1.0, 1.0), repeat=d):
        total = np.zeros((vectors.shape[1], vectors.shape[1]))
        for s, y in zip(signs, vectors):
            total += s * np.outer(y, y)
        norms.append(np.linalg.svd(total, compute_uv=False)[0])
    norms = np.array(norms)
    return float(np.mean(norms**p) ** (1 / p)), float(norms.std(ddof=1))


class TestRademacherMoment:
    def test_single_vector(self, rng):
        y = rng.normal(size=(1, 5))
        length_sq = float(np.sum(y * y))
        for p in (1.0, 2.0, 4.0):
            lhs, rhs = rademacher_moment_check(y, p=p, trials=50, seed=0)
            assert lhs == pytest.approx(length_sq, rel=1e-12)
            assert rhs == pytest.approx(math.sqrt(p) * length_sq, rel=1e-12)
            assert lhs <= rhs

    def test_orthogonal_equal_norm(self):
        vectors = 2.0 * np.eye(4)
        lhs, _ = rademacher_moment_check(vectors, p=1.0, trials=64, seed=1)
        assert lhs == pytest.approx(4.0, rel=1e-12)

    def test_exhaustive_oracle_bounds_constant(self, rng):
        worst = 0.0
        for case in range(100):
            d = int(rng.integers(1, 9))
            n = int(rng.integers(1, 9))
            vectors = rng.normal(size=(d, n))
            exact, _ = exact_sign_moment(vectors, p=1.0)
            _, rhs = rademacher_moment_check(vectors, p=1.0, trials=2, seed=case)
            assert exact <= 4.0 * rhs
            worst = max(worst, exact / rhs)
        print(f"fitted leading constant over 100 cases: {worst:.4f}")

    def test_monte_carlo_matches_enumeration(self, rng):
        for case in range(10):
            d = int(rng.integers(2, 7))
            vectors = rng.normal(size=(d, 5))
            exact, sd = exact_sign_moment(vectors, p=1.0)
            trials = 4000
            lhs, _ = rademacher_moment_check(vectors, p=1.0, trials=trials, seed=case)
            assert abs(lhs - exact) <= 4 * sd / math.sqrt(trials) + 1e-12
