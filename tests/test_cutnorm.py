import itertools
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import stats as scipy_stats

from matsketch import (
    NotSignMatrixError,
    NotSortedError,
    NotSquareError,
    OutOfRangeError,
    ShapeMismatchError,
    SubsetMask,
    TooLargeError,
    bernoulli_subset,
    cut_decay_estimate,
    cut_norm_exact,
    cutnorm,
    frobenius_norm,
    full_mask,
    inf_to_one_norm_exact,
    order_statistics_check,
    restrict,
    sign_matrix_lower_bound,
    spectral_decay_estimate,
    spectral_norm,
    witness_all_ones,
    witness_identity,
    witness_random_sign,
)


def all_block_sums(a: np.ndarray) -> np.ndarray:
    """|sum of entries| for every row-subset x column-subset block."""
    m, n = a.shape
    row_masks = np.array(list(itertools.product((0.0, 1.0), repeat=m)))
    col_masks = np.array(list(itertools.product((0.0, 1.0), repeat=n)))
    return np.abs(row_masks @ a @ col_masks.T)


def inf_to_one_by_vertices(a: np.ndarray) -> float:
    signs = np.array(list(itertools.product((-1.0, 1.0), repeat=a.shape[1])))
    return float(np.abs(a @ signs.T).sum(axis=0).max())


small = st.floats(-5, 5, allow_nan=False, allow_infinity=False)
tiny_matrices = st.integers(1, 5).flatmap(
    lambda m: st.integers(1, 5).flatmap(lambda n: arrays(np.float64, (m, n), elements=small))
)


class TestCutNormExact:
    def test_all_ones(self):
        for n in (1, 3, 6):
            result = cut_norm_exact(witness_all_ones(n))
            assert result.value == pytest.approx(n**2)
            assert len(result.row_set) == n and len(result.col_set) == n

    def test_identity(self):
        for n in (1, 4, 9):
            assert cut_norm_exact(witness_identity(n)).value == pytest.approx(n)

    @given(tiny_matrices)
    def test_matches_double_enumeration(self, a):
        assert cut_norm_exact(a).value == pytest.approx(all_block_sums(a).max(), abs=1e-9)

    def test_matches_double_enumeration_rectangular(self, rng):
        for _ in range(20):
            m, n = rng.integers(1, 11, size=2)
            a = rng.normal(size=(m, n))
            assert cut_norm_exact(a).value == pytest.approx(all_block_sums(a).max(), abs=1e-9)

    def test_reported_sets_attain_value(self, rng):
        for _ in range(30):
            a = rng.normal(size=(6, 9))
            result = cut_norm_exact(a)
            block = a[np.ix_(result.row_set, result.col_set)]
            assert abs(block.sum()) == pytest.approx(result.value, abs=1e-9)

    def test_nonnegative_matrix_takes_everything(self, rng):
        a = np.abs(rng.normal(size=(5, 7)))
        assert cut_norm_exact(a).value == pytest.approx(a.sum(), abs=1e-9)

    def test_zero_matrix(self):
        result = cut_norm_exact(np.zeros((3, 3)))
        assert result.value == 0.0

    def test_empty_matrix(self):
        assert cut_norm_exact(np.zeros((0, 0))).value == 0.0

    def test_enumerates_smaller_dimension(self, rng):
        a = rng.normal(size=(40, 6))  # fine: only 2^6 subsets after transpose
        assert cut_norm_exact(a).value == pytest.approx(cut_norm_exact(a.T).value, abs=1e-9)

    def test_too_large(self):
        with pytest.raises(TooLargeError):
            cut_norm_exact(np.zeros((32, 32)))


class TestSignedPart:
    @pytest.mark.parametrize("n", [1, 2, 7, 8, 9, 16])
    @pytest.mark.parametrize("sign", ["mixed", "negative", "zero"])
    def test_is_cut_norm_of_diagonal(self, n, sign):
        v = np.random.default_rng(n).normal(size=n)
        v = {"mixed": v, "negative": -np.abs(v), "zero": np.zeros(n)}[sign]
        assert cutnorm._signed_part(v)[0] == cut_norm_exact(np.diag(v)).value


class TestInfToOneExact:
    def test_identity(self):
        assert inf_to_one_norm_exact(np.eye(7)) == pytest.approx(7.0)

    def test_all_ones(self):
        assert inf_to_one_norm_exact(np.ones((6, 6))) == pytest.approx(36.0)

    @given(tiny_matrices)
    def test_matches_vertex_enumeration(self, a):
        assert inf_to_one_norm_exact(a) == pytest.approx(inf_to_one_by_vertices(a), abs=1e-9)

    def test_too_large(self):
        with pytest.raises(TooLargeError):
            inf_to_one_norm_exact(np.zeros((30, 30)))


class TestNormEquivalence:
    def test_quarter_bracket_and_self_duality(self, rng):
        for _ in range(100):
            a = rng.normal(size=(8, 8))
            cut = cut_norm_exact(a).value
            inf_one = inf_to_one_norm_exact(a)
            assert 0.25 * inf_one <= cut + 1e-9
            assert cut <= inf_one + 1e-9
            assert cut_norm_exact(a.T).value == pytest.approx(cut, abs=1e-9)
            assert inf_to_one_norm_exact(a.T) == pytest.approx(inf_one, abs=1e-9)


class TestBernoulliSubset:
    def test_q_equals_n(self):
        assert bernoulli_subset(10, 10, seed=0).included.all()

    def test_q_zero(self):
        assert not bernoulli_subset(10, 0, seed=0).included.any()

    def test_binomial_mean(self):
        n, q, trials = 100, 30, 100_000
        sizes = np.array([bernoulli_subset(n, q, seed=s).size for s in range(trials)])
        se = math.sqrt(n * 0.3 * 0.7 / trials)
        assert abs(sizes.mean() - q) <= 3 * se

    def test_deterministic(self):
        a = bernoulli_subset(50, 20, seed=9).included
        b = bernoulli_subset(50, 20, seed=9).included
        assert np.array_equal(a, b)

    def test_out_of_range(self):
        with pytest.raises(OutOfRangeError):
            bernoulli_subset(10, 11, seed=0)
        with pytest.raises(OutOfRangeError):
            bernoulli_subset(10, -1, seed=0)


class TestRestrict:
    def test_full_masks(self, rng):
        a = rng.normal(size=(5, 7))
        assert np.array_equal(restrict(a, full_mask(5), full_mask(7)), a)

    def test_identity_restriction(self):
        mask = bernoulli_subset(12, 6, seed=1)
        sub = restrict(np.eye(12), mask, mask)
        assert np.array_equal(sub, np.eye(mask.size))

    def test_composition(self, rng):
        a = rng.normal(size=(9, 9))
        rows = bernoulli_subset(9, 4, seed=2)
        cols = bernoulli_subset(9, 5, seed=3)
        row_restricted = restrict(a, rows)
        two_step = restrict(row_restricted, full_mask(row_restricted.shape[0]), cols)
        assert np.array_equal(two_step, restrict(a, rows, cols))

    def test_empty_selection_has_zero_norms(self, rng):
        a = rng.normal(size=(4, 4))
        none = SubsetMask(n=4, included=np.zeros(4, dtype=bool), q_expected=0.0)
        sub = restrict(a, none, none)
        assert sub.shape == (0, 0)
        assert frobenius_norm(sub) == 0.0
        assert spectral_norm(sub) == 0.0
        assert cut_norm_exact(sub).value == 0.0
        assert inf_to_one_norm_exact(sub) == 0.0

    def test_mask_size_mismatch(self, rng):
        with pytest.raises(ShapeMismatchError):
            restrict(rng.normal(size=(4, 4)), full_mask(5), full_mask(4))


class TestCutDecay:
    def test_identity_mean_is_expected_subset_size(self):
        est = cut_decay_estimate(np.eye(16), 8, 500, seed=0)
        assert abs(est.mean - 8.0) <= 0.1 * 8.0

    def test_all_ones_mean_is_expected_size_squared(self):
        # E|Q|^2 = q^2 + q(1 - q/n) = 68 for n=16, q=8
        est = cut_decay_estimate(np.ones((16, 16)), 8, 500, seed=0)
        assert abs(est.mean - 68.0) <= 0.15 * 68.0

    def test_zero_matrix(self):
        est = cut_decay_estimate(np.zeros((8, 8)), 4, 50, seed=0)
        assert est.mean == 0.0
        assert est.fitted_constant == 0.0

    def test_requires_square(self, rng):
        with pytest.raises(NotSquareError):
            cut_decay_estimate(rng.normal(size=(4, 5)), 2, 10, seed=0)

    def test_oracle_limit(self):
        with pytest.raises(TooLargeError):
            cut_decay_estimate(np.eye(32), 8, 10, seed=0)

    @pytest.mark.parametrize(
        "maker,term_index,ratio_band",
        [
            (witness_all_ones, 0, (0.5, 2.5)),
            (witness_identity, 1, (0.5, 1.5)),
            (lambda n: witness_random_sign(n, seed=99), 2, (0.15, 0.8)),
        ],
    )
    def test_matching_term_explains_the_mean(self, maker, term_index, ratio_band):
        fitted = []
        for n in (8, 16):
            for q in (n // 4, n // 2):
                est = cut_decay_estimate(maker(n), q, 300, seed=5)
                ratio = est.mean / est.bound_terms[term_index]
                assert ratio_band[0] <= ratio <= ratio_band[1]
                assert 0.1 <= est.fitted_constant <= 1.0
                fitted.append(est.fitted_constant)
        assert max(fitted) / min(fitted) <= 2.0

    def test_error_ratio_bounded_across_scales(self):
        # sparse-cut-norm regime: eps chosen as the exact cut-norm density
        for n in (8, 16):
            a = witness_random_sign(n, seed=99)
            eps = cut_norm_exact(a).value / n**2
            for q in (n // 4, n // 2):
                est = cut_decay_estimate(a, q, 300, seed=5)
                ratio = est.mean / (eps * q * q)
                assert 0.0 < ratio <= 6.0


class TestSpectralDecay:
    def test_identity_has_no_decay(self):
        est = spectral_decay_estimate(np.eye(32), 8, 300, seed=0)
        nonempty = est.subset_sizes > 0
        assert np.allclose(est.samples[nonempty], 1.0)
        assert np.allclose(est.samples[~nonempty], 0.0)

    def test_all_ones_matches_binomial_oracle(self):
        n, q, trials = 16, 4, 500
        est = spectral_decay_estimate(np.ones((n, n)), q, trials, seed=1)
        # |ones restricted to k rows|_2 = sqrt(k n); exact mean by summation
        ks = np.arange(n + 1)
        pmf = scipy_stats.binom.pmf(ks, n, q / n)
        exact = float((pmf * np.sqrt(ks * n)).sum())
        assert abs(est.mean - exact) <= 0.15 * exact

    def test_zero_matrix(self):
        est = spectral_decay_estimate(np.zeros((8, 8)), 4, 50, seed=0)
        assert est.mean == 0.0

    def test_bound_terms(self):
        est = spectral_decay_estimate(np.eye(64), 16, 10, seed=0)
        assert est.bound_terms[0] == pytest.approx(0.5)
        assert est.bound_terms[1] == pytest.approx(math.sqrt(math.log(16)))

    def test_log_factor_clamped_for_tiny_q(self):
        est = spectral_decay_estimate(np.eye(8), 2, 10, seed=0)
        assert est.bound_terms[1] == pytest.approx(1.0)  # sqrt(log 2) < 1 clamps

    def test_q_out_of_range(self):
        with pytest.raises(OutOfRangeError):
            spectral_decay_estimate(np.eye(8), 0.5, 10, seed=0)


class TestOrderStatistics:
    def test_all_zero_sequence(self):
        empirical, lower, upper = order_statistics_check(np.zeros(64), 0.25, 1000, seed=0)
        assert empirical == 0.0 and lower == 0.0 and upper == 0.0

    def test_single_spike_matches_binomial_oracle(self):
        # only a_1 = 1 contributes: E = delta * E[sqrt(log(e + 1 + Bin(n-1, delta)))]
        n, delta, trials = 100, 0.5, 200_000
        a = np.zeros(n)
        a[0] = 1.0
        empirical, lower, upper = order_statistics_check(a, delta, trials, seed=1)
        ks = np.arange(n)
        pmf = scipy_stats.binom.pmf(ks, n - 1, delta)
        exact = delta * float((pmf * np.sqrt(np.log(math.e + 1 + ks))).sum())
        per_trial_sd = math.sqrt(max(delta * (np.log(math.e + n) ) - exact**2, 0.0))
        assert abs(empirical - exact) <= 3 * per_trial_sd / math.sqrt(trials) + 1e-9
        assert lower - 1e-12 <= empirical <= upper + 1e-12

    def test_bracketing_on_random_sorted_vectors(self, rng):
        for case in range(50):
            a = np.sort(rng.random(64))[::-1]
            for delta in (0.1, 0.25, 0.5):
                empirical, lower, upper = order_statistics_check(a, delta, 20_000, seed=case)
                assert lower <= empirical <= upper

    def test_not_sorted(self):
        with pytest.raises(NotSortedError):
            order_statistics_check(np.array([1.0, 2.0, 0.5]), 0.5, 10, seed=0)

    def test_delta_range(self):
        with pytest.raises(OutOfRangeError):
            order_statistics_check(np.ones(64), 1.0 / 64, 10, seed=0)

    def test_negative_entries(self):
        with pytest.raises(OutOfRangeError):
            order_statistics_check(np.array([1.0, -0.5]), 0.9, 10, seed=0)


class TestWitnesses:
    def test_all_ones(self):
        assert np.array_equal(witness_all_ones(3), np.ones((3, 3)))

    def test_identity(self):
        assert np.array_equal(witness_identity(4), np.eye(4))

    def test_random_sign_entries(self):
        a = witness_random_sign(16, seed=3)
        assert np.isin(a, (-1.0, 1.0)).all()
        assert np.array_equal(a, witness_random_sign(16, seed=3))
        assert not np.array_equal(a, witness_random_sign(16, seed=4))


class TestSignMatrixLowerBound:
    def test_single_entry(self):
        assert sign_matrix_lower_bound(np.array([[1.0]])) == pytest.approx(1.0)
        assert 1.0 >= 1.0 / math.sqrt(2)

    def test_random_sign_restrictions(self, rng):
        floor = 12**1.5 / math.sqrt(2)
        for case in range(100):
            a = witness_random_sign(12, seed=case)
            assert sign_matrix_lower_bound(a) >= floor - 1e-9

    def test_all_ones_block(self):
        for size in (1, 3, 6):
            value = sign_matrix_lower_bound(np.ones((size, size)))
            assert value == pytest.approx(size**2)
            assert value >= size**1.5 / math.sqrt(2) - 1e-9

    def test_value_below_floor_raises(self, monkeypatch):
        from matsketch import InvariantError, cutnorm

        monkeypatch.setattr(cutnorm, "inf_to_one_norm_exact", lambda a: 1.0)
        with pytest.raises(InvariantError):
            sign_matrix_lower_bound(np.ones((4, 4)))

    def test_rejects_non_sign_entries(self):
        with pytest.raises(NotSignMatrixError):
            sign_matrix_lower_bound(np.eye(3))

    def test_above_enumeration_limit_raises(self):
        with pytest.raises(TooLargeError):
            sign_matrix_lower_bound(np.ones((25, 25)))

    def test_rejects_non_square(self):
        with pytest.raises(NotSquareError):
            sign_matrix_lower_bound(np.ones((2, 3)))
