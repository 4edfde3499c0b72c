import itertools
import math
import os
import tracemalloc

import numpy as np
import pytest

from matsketch import (
    OutOfRangeError,
    ShapeMismatchError,
    TooLargeError,
    ZeroMatrixError,
    lln_deviation,
    matrix_rows_ensemble,
    scaled_basis_ensemble,
    spectral_norm,
)
from matsketch.rng import spawn
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


class TestEnsembles:
    def test_scaled_basis_fields(self):
        ens = scaled_basis_ensemble(9)
        assert ens.bound == pytest.approx(3.0)
        assert np.allclose(ens.second_moment, np.eye(9))
        assert np.allclose(ens.atoms, 3.0 * np.eye(9))
        assert np.allclose(ens.probabilities, 1 / 9)

    def test_matrix_rows_second_moment(self, rng):
        a = rng.normal(size=(7, 4))
        ens = matrix_rows_ensemble(a)
        # oracle: probability-weighted sum of atom outer products
        expected = np.zeros((4, 4))
        for prob, atom in zip(ens.probabilities, ens.atoms):
            expected += prob * np.outer(atom, atom)
        assert np.allclose(ens.second_moment, expected, atol=1e-10)
        assert np.abs(np.linalg.eigvalsh(ens.second_moment)).max() == pytest.approx(1.0)

    def test_matrix_rows_scale_from_gram_matches_svd(self, rng):
        a = rng.normal(size=(40, 6)) * rng.lognormal(size=(40, 1))
        ens = matrix_rows_ensemble(a)
        top = spectral_norm(a)
        assert ens.bound == pytest.approx(np.linalg.norm(a) / top, rel=1e-12)
        assert np.allclose(ens.second_moment, a.T @ a / top**2, rtol=0, atol=1e-12)

    def test_matrix_rows_bound(self, rng):
        a = rng.normal(size=(6, 3))
        ens = matrix_rows_ensemble(a)
        lengths = np.linalg.norm(ens.atoms, axis=1)
        assert np.allclose(lengths, ens.bound)

    def test_matrix_rows_drops_zero_rows(self):
        a = np.array([[2.0, 0.0], [0.0, 0.0], [0.0, 1.0]])
        ens = matrix_rows_ensemble(a)
        assert ens.atoms.shape[0] == 2
        assert ens.probabilities.sum() == pytest.approx(1.0)

    def test_zero_matrix(self):
        with pytest.raises(ZeroMatrixError):
            matrix_rows_ensemble(np.zeros((2, 2)))

    def test_gram_beyond_memory_refused(self, monkeypatch, rng):
        # 64 KiB of physical memory: a 200 x 200 Gram alone needs 320 KB
        a = rng.normal(size=(5, 200))
        monkeypatch.setattr(os, "sysconf", {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 16}.__getitem__)
        with pytest.raises(TooLargeError, match="200x200"):
            matrix_rows_ensemble(a)

    def test_atoms_are_one_copy_of_the_rows(self, rng):
        # the kept rows are scaled in place: an indexed copy times the
        # scales would hold two 8 MB copies at once
        a = rng.normal(size=(20000, 50))
        tracemalloc.start()
        try:
            ens = matrix_rows_ensemble(a)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ens.atoms.shape == a.shape
        assert peak < 1.5 * a.nbytes


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
            counts = ens.sample_counts(spawn(seed, t), d)
            formula = np.abs((8 / d) * counts - 1.0).max()
            assert stats.deviations[t] == pytest.approx(formula, abs=1e-10)
            samples = np.repeat(ens.atoms, counts, axis=0)
            gap = empirical_second_moment(samples) - ens.second_moment
            dense = np.linalg.svd(gap, compute_uv=False)[0]
            assert stats.deviations[t] == pytest.approx(dense, abs=1e-10)

    def test_few_draws_from_many_atoms_match_naive_route(self, rng):
        # d << m: most atoms are never drawn in a trial
        ens = matrix_rows_ensemble(rng.normal(size=(5000, 20)))
        d, trials, seed = 50, 4, 7
        stats = lln_deviation(ens, d=d, trials=trials, seed=seed)
        for t in range(trials):
            counts = ens.sample_counts(spawn(seed, t), d)
            assert np.count_nonzero(counts) <= d
            samples = np.repeat(ens.atoms, counts, axis=0)
            gap = empirical_second_moment(samples) - ens.second_moment
            dense = np.linalg.svd(gap, compute_uv=False)[0]
            assert stats.deviations[t] == pytest.approx(dense, abs=1e-10)

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
