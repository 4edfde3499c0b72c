import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from matsketch import (
    ConvergenceError,
    InvalidMatrixError,
    NotSquareError,
    OutOfRangeError,
    ZeroMatrixError,
    block_identity_matrix,
    column_norm_sum,
    diagonal_part,
    numerical_rank,
    spectral_norm,
    svd,
    sym_spectral_norm,
    top_k_column_average,
    witness_random_sign,
)

finite_entries = st.floats(-10, 10, allow_nan=False, allow_infinity=False)
small_matrices = st.integers(1, 6).flatmap(
    lambda m: st.integers(1, 6).flatmap(
        lambda n: arrays(np.float64, (m, n), elements=finite_entries)
    )
)


class TestSpectralNorm:
    def test_identity(self):
        assert spectral_norm(np.eye(7)) == pytest.approx(1.0)

    def test_rank_one(self):
        u = np.array([1.0, 2.0, 2.0])  # length 3
        v = np.array([3.0, 4.0])  # length 5
        assert spectral_norm(np.outer(u, v)) == pytest.approx(15.0)

    def test_block_identity_witness(self):
        assert spectral_norm(block_identity_matrix(8, 24)) == pytest.approx(1.0)

    def test_agrees_with_symmetric_route(self, rng):
        a = rng.normal(size=(9, 5))
        assert sym_spectral_norm(a.T @ a) == pytest.approx(spectral_norm(a) ** 2, rel=1e-8)

    def test_rejects_nan(self):
        with pytest.raises(InvalidMatrixError):
            spectral_norm([[1.0, np.nan]])

    def test_rejects_1d(self):
        with pytest.raises(InvalidMatrixError):
            spectral_norm([1.0, 2.0])


class TestNumericalRank:
    def test_identity(self):
        assert numerical_rank(np.eye(11)) == pytest.approx(11.0)

    def test_block_identity_witness(self):
        assert numerical_rank(block_identity_matrix(16, 48)) == pytest.approx(16.0)

    def test_rank_one(self, rng):
        a = np.outer(rng.normal(size=6), rng.normal(size=4))
        assert numerical_rank(a) == pytest.approx(1.0)

    def test_zero_matrix(self):
        with pytest.raises(ZeroMatrixError):
            numerical_rank(np.zeros((3, 3)))

    def test_bounded_by_min_dimension(self, rng):
        a = rng.normal(size=(8, 5))
        r = numerical_rank(a)
        assert 1.0 - 1e-12 <= r <= 5.0 + 1e-12

    @given(small_matrices, st.floats(0.01, 100).filter(lambda c: c != 0))
    def test_scale_invariant(self, a, c):
        if np.linalg.norm(a) == 0:
            return
        assert numerical_rank(c * a) == pytest.approx(numerical_rank(a), rel=1e-9)


class TestSvd:
    def test_sorted_diagonal(self):
        result = svd(np.diag([3.0, 1.0, 2.0]))
        assert np.allclose(result.values, [3.0, 2.0, 1.0])

    def test_reconstruction(self, rng):
        a = rng.normal(size=(10, 7))
        result = svd(a)
        residual = np.linalg.norm(a - result.reconstruct())
        assert residual <= 1e-6 * max(1.0, np.linalg.norm(a))

    def test_orthonormal_factors(self, rng):
        a = rng.normal(size=(9, 6))
        result = svd(a)
        assert np.allclose(result.left.T @ result.left, np.eye(6), atol=1e-8)
        assert np.allclose(result.right.T @ result.right, np.eye(6), atol=1e-8)

    def test_rank_deficient(self, rng):
        base = np.outer(rng.normal(size=5), rng.normal(size=5))
        base += np.outer(rng.normal(size=5), rng.normal(size=5))
        result = svd(base)
        assert result.values[2] <= 1e-8 * result.values[0]

    def test_backend_failure_is_wrapped(self, monkeypatch):
        def boom(*args, **kwargs):
            raise np.linalg.LinAlgError("did not converge")

        monkeypatch.setattr(np.linalg, "svd", boom)
        with pytest.raises(ConvergenceError):
            svd(np.eye(2))


class TestColumnNorms:
    def test_identity(self):
        assert column_norm_sum(np.eye(9)) == pytest.approx(9.0)

    def test_sign_matrix(self):
        a = witness_random_sign(16, seed=5)
        assert column_norm_sum(a) == pytest.approx(16**1.5)
        assert column_norm_sum(a.T) == pytest.approx(16**1.5)

    def test_explicit_columns(self):
        a = np.array([[3.0, 0.0], [4.0, 0.0], [0.0, 5.0]])
        assert column_norm_sum(a) == pytest.approx(10.0)


class TestTopKColumnAverage:
    def test_identity_any_k(self):
        for k in (1, 2, 3, 5):
            assert top_k_column_average(np.eye(5), k) == pytest.approx(1.0)

    def test_sorted_average(self):
        a = np.diag([4.0, 2.0, 1.0, 1.0])
        assert top_k_column_average(a, 2) == pytest.approx(3.0)

    def test_k_equals_n_is_full_average(self, rng):
        a = rng.normal(size=(6, 4))
        assert top_k_column_average(a, 4) == pytest.approx(column_norm_sum(a) / 4)

    def test_fractional_k_rounds_up(self):
        a = np.diag([4.0, 2.0, 1.0, 1.0])
        assert top_k_column_average(a, 1.2) == pytest.approx(3.0)
        assert top_k_column_average(a, 0.3) == pytest.approx(4.0)

    def test_k_above_n_clamps(self, rng):
        a = rng.normal(size=(3, 3))
        assert top_k_column_average(a, 17) == pytest.approx(column_norm_sum(a) / 3)

    def test_nonincreasing_in_k(self, rng):
        a = rng.normal(size=(5, 8))
        values = [top_k_column_average(a, k) for k in range(1, 9)]
        assert all(x >= y - 1e-12 for x, y in zip(values, values[1:]))
        assert values[0] == pytest.approx(np.linalg.norm(a, axis=0).max())

    def test_nonpositive_k(self):
        with pytest.raises(OutOfRangeError):
            top_k_column_average(np.eye(3), 0)


class TestDiagonalPart:
    def test_identity(self):
        assert np.array_equal(diagonal_part(np.eye(4)), np.eye(4))

    def test_all_ones(self):
        assert np.array_equal(diagonal_part(np.ones((5, 5))), np.eye(5))

    def test_strictly_upper(self):
        a = np.triu(np.ones((4, 4)), k=1)
        assert np.array_equal(diagonal_part(a), np.zeros((4, 4)))

    def test_not_square(self):
        with pytest.raises(NotSquareError):
            diagonal_part(np.ones((3, 4)))


@given(small_matrices)
def test_norm_chain(a):
    spec = spectral_norm(a)
    fro = np.linalg.norm(a)
    bound = math.sqrt(min(a.shape)) * spec
    assert spec <= fro + 1e-9 * max(1.0, fro)
    assert fro <= bound + 1e-9 * max(1.0, bound)


@given(small_matrices)
def test_spectral_norm_squares_to_gram_norm(a):
    lhs = spectral_norm(a) ** 2
    rhs = sym_spectral_norm(a.T @ a)
    assert lhs == pytest.approx(rhs, rel=1e-8, abs=1e-10)
