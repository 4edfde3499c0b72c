import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from matsketch import (
    InvalidMatrixError,
    ZeroMatrixError,
    block_identity_matrix,
    numerical_rank,
    spectral_norm,
    svd,
    sym_spectral_norm,
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
        residual = np.linalg.norm(a - (result.left * result.values) @ result.right.T)
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


# far ends of float64: squaring entries of these sizes under- or overflows, so a
# norm computed through A^T A must rescale to stay homogeneous here
SCALES = (1e-150, 1e150)


@pytest.mark.parametrize("scale", SCALES)
@pytest.mark.parametrize("shape", [(40, 7), (7, 40), (25, 25)])
def test_spectral_norm_is_homogeneous_at_extreme_scales(scale, shape):
    a = np.random.default_rng(sum(shape)).normal(size=shape)
    assert math.isclose(spectral_norm(scale * a), scale * spectral_norm(a), rel_tol=1e-12)


@pytest.mark.parametrize("scale", SCALES)
@pytest.mark.parametrize("n", [6, 25, 60])
def test_sym_spectral_norm_is_homogeneous_at_extreme_scales(scale, n):
    a = np.random.default_rng(n).normal(size=(n, n))
    sym = a + a.T
    assert math.isclose(sym_spectral_norm(scale * sym), scale * sym_spectral_norm(sym), rel_tol=1e-12)
