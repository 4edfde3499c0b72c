import math
import os
import sys
import tracemalloc

import numpy as np
import pytest

from matsketch import (
    InvariantError,
    MatrixRowStream,
    OutOfRangeError,
    RowStream,
    ShapeMismatchError,
    Sketch,
    TooLargeError,
    ZeroMatrixError,
    approximation_error,
    block_identity_matrix,
    low_rank_approximate,
    optimality_experiment,
    projection_error_bound,
    projector_top_k,
    sample_sketch,
    spectral_norm,
    svd,
    sym_spectral_norm,
)
from matsketch import approx as approx_module
from matsketch import linalg, parallel
from matsketch import sampling as sampling_module
from matsketch.streams import BLOCK_ROWS
from matsketch.matio import open_stream, write_binary
from matsketch.cli import main
from conftest import matrix_with_singular_values, random_orthonormal


@pytest.fixture
def svd_shapes(monkeypatch):
    """Shapes of the matrices passed to ``np.linalg.svd`` while the test runs."""
    shapes = []
    svd = np.linalg.svd

    def spy(x, *args, **kwargs):
        shapes.append(np.shape(x))
        return svd(x, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", spy)
    return shapes


def identity_sketch(n: int) -> Sketch:
    # a sketch of the identity that reproduces its Gram matrix exactly
    return Sketch(
        rows=np.eye(n),
        inverse=np.arange(n),
        chosen_indices=np.arange(n),
        d=n,
    )


class TestProjector:
    def test_single_direction(self):
        sketch = Sketch(
            rows=np.tile([2.0, 0.0, 0.0], (4, 1)),
            inverse=np.arange(4),
            chosen_indices=np.zeros(4, dtype=np.int64),
            d=4,
        )
        p = projector_top_k(sketch, 1)
        assert np.allclose(p @ p.T, np.diag([1.0, 0.0, 0.0]), atol=1e-12)

    def test_full_rank_projector_is_identity(self, rng):
        a = rng.normal(size=(30, 6))
        sketch = sample_sketch(a, 40, seed=0)
        p = projector_top_k(sketch, 6)
        assert np.allclose(p @ p.T, np.eye(6), atol=1e-10)
        assert approximation_error(a, p) <= 1e-8

    def test_is_orthonormal_and_idempotent(self, rng):
        a = rng.normal(size=(20, 8))
        basis = projector_top_k(sample_sketch(a, 10, seed=1), 3)
        assert np.allclose(basis.T @ basis, np.eye(3), atol=1e-8)
        proj = basis @ basis.T
        assert np.allclose(proj @ proj, proj, atol=1e-8)

    def test_converges_to_top_subspace(self):
        a = np.diag([3.0, 2.0, 1.0])
        sketch = sample_sketch(a, 400_000, seed=2)
        p = projector_top_k(sketch, 2)
        target = np.zeros((3, 2))
        target[0, 0] = target[1, 1] = 1.0
        angle = spectral_norm(target - p @ p.T @ target)
        assert angle <= 1e-2

    def test_k_zero_is_zero_map(self, rng):
        a = rng.normal(size=(5, 4))
        p = projector_top_k(sample_sketch(a, 6, seed=0), 0)
        assert p.shape[1] == 0
        assert approximation_error(a, p) == pytest.approx(spectral_norm(a))

    def test_k_too_large(self, rng):
        sketch = sample_sketch(rng.normal(size=(5, 4)), 6, seed=0)
        with pytest.raises(ShapeMismatchError):
            projector_top_k(sketch, 5)

    def test_rank_capped_at_sketch_rank(self):
        sketch = identity_sketch(3)
        deficient = Sketch(
            rows=sketch.rows[sketch.inverse][:2],  # spans only e1, e2
            inverse=np.arange(2),
            chosen_indices=np.arange(2),
            d=2,
        )
        p = projector_top_k(deficient, 3)
        assert p.shape[1] == 2

    @pytest.mark.parametrize(
        "d, rank",
        [
            (50, 20),  # d >= 2n
            (30, 20),  # n < d < 11n/6
            (12, 12),  # d < n: the sketch itself is decomposed
            (60, 7),  # rank-deficient sketch
        ],
    )
    @pytest.mark.parametrize("k", [5, 20])  # 20 = n
    def test_matches_thin_svd_projector(self, rng, d, rank, k):
        n = 20
        matrix = matrix_with_singular_values(rng, d, n, 0.8 ** np.arange(rank))
        sketch = Sketch(
            rows=matrix, inverse=np.arange(d), chosen_indices=np.arange(d), d=d,
        )
        _, s, vh = np.linalg.svd(matrix, full_matrices=False)
        effective = min(k, int(np.count_nonzero(s > s[0] * max(d, n) * np.finfo(float).eps)))
        reference = vh[:effective].T @ vh[:effective]
        p = projector_top_k(sketch, k)
        assert p.shape[1] == effective == min(k, rank)
        assert spectral_norm(p @ p.T - reference) <= 1e-12

    def test_dimension_mismatch(self, rng):
        p = projector_top_k(sample_sketch(rng.normal(size=(6, 4)), 5, seed=0), 2)
        message = r"matrix has 5 columns, projector lives in R\^4"
        with pytest.raises(ShapeMismatchError, match=message):
            approximation_error(rng.normal(size=(3, 5)), p)


class TestApproximationError:
    def test_sigma3_of_diagonal(self):
        a = np.diag([3.0, 2.0, 1.0])
        basis = np.eye(3)[:, :2]
        assert approximation_error(a, basis) == pytest.approx(1.0)

    def test_best_approximation_floor(self, rng):
        # no rank-k projector beats sigma_{k+1}
        for _ in range(25):
            m, n = rng.integers(2, 9, size=2)
            a = rng.normal(size=(m, n))
            values = svd(a).values
            k = int(rng.integers(0, n + 1))
            basis = random_orthonormal(rng, n, k) if k else np.zeros((n, 0))
            err = approximation_error(a, basis)
            sigma_next = values[k] if k < values.size else 0.0
            assert err >= sigma_next - 1e-8


class TestProjectionErrorBound:
    def test_exact_gram_match_is_tight(self):
        a = np.eye(4)
        check = projection_error_bound(a, identity_sketch(4), 2)
        assert check.lhs == pytest.approx(1.0, abs=1e-10)
        assert check.rhs == pytest.approx(1.0, abs=1e-10)
        assert check.holds

    def test_k_equals_n(self, rng):
        a = rng.normal(size=(20, 10))
        sketch = sample_sketch(a, 20, seed=3)
        check = projection_error_bound(a, sketch, 10)
        assert check.holds
        assert check.lhs <= 1e-10

    def test_fuzz_holds_everywhere(self, rng):
        for trial in range(100):
            m = int(rng.integers(2, 21))
            n = int(rng.integers(1, 11))
            a = rng.normal(size=(m, n)) * rng.choice([0.1, 1.0, 10.0])
            d = int(rng.integers(1, 9))
            sketch = sample_sketch(a, d, seed=trial)
            for k in range(1, n + 1):
                assert projection_error_bound(a, sketch, k).holds


class TestLowRankApproximate:
    def test_exact_low_rank_is_recovered(self, rng):
        a = matrix_with_singular_values(rng, 200, 40, [10.0, 9.0, 8.0])
        projector, report = low_rank_approximate(a, k=3, epsilon=0.5, delta=0.5, seed=0)
        assert report.sigma_kplus1 == pytest.approx(0.0, abs=1e-9)
        assert report.error_spectral <= 0.5 * 10.0
        assert report.satisfied

    def test_k_equals_n_with_spanning_sketch(self, rng):
        a = rng.normal(size=(30, 8))
        _, report = low_rank_approximate(a, k=8, epsilon=0.5, delta=0.5, seed=0, d=50)
        assert report.error_spectral <= 1e-8

    @pytest.mark.parametrize("factor", [2.0, 2.0**-400, 2.0**400], ids=["2", "2**-400", "2**400"])
    def test_scale_equivariance(self, rng, factor):
        a = rng.normal(size=(60, 10))
        p1, r1 = low_rank_approximate(a, k=4, epsilon=0.4, delta=0.4, seed=8)
        p2, r2 = low_rank_approximate(factor * a, k=4, epsilon=0.4, delta=0.4, seed=8)
        assert r1.d == r2.d
        assert r1.satisfied == r2.satisfied
        for name in ("sigma_kplus1", "error_spectral", "bound"):
            scaled = getattr(r1, name) * factor
            assert getattr(r2, name) == pytest.approx(scaled, rel=1e-12), name
        assert np.allclose(p1 @ p1.T, p2 @ p2.T, atol=1e-8)

    def test_gram_deviation_implies_satisfied(self, rng):
        a = matrix_with_singular_values(rng, 100, 20, [5.0, 4.0, 3.0, 1.0])
        for seed in range(20):
            _, report = low_rank_approximate(a, k=2, epsilon=0.6, delta=0.5, seed=seed)
            threshold = 0.5 * (0.6 * spectral_norm(a)) ** 2
            if report.gram_deviation <= threshold:
                assert report.satisfied
            assert report.error_spectral >= report.sigma_kplus1 - 1e-8

    def test_two_pass_stream_matches_dense_projector(self, rng):
        a = rng.normal(size=(80, 9))
        p_mem, r_mem = low_rank_approximate(a, k=3, epsilon=0.5, delta=0.5, seed=4)
        p_str, r_str = low_rank_approximate(
            MatrixRowStream(a), k=3, epsilon=0.5, delta=0.5, seed=4
        )
        assert r_str == r_mem
        assert r_mem.satisfied is not None
        assert np.array_equal(p_str, p_mem)

    @pytest.mark.parametrize("d", [None, 37], ids=["formula", "explicit"])
    @pytest.mark.parametrize("kind", ["matrix", "matrix-stream", "binary-stream"])
    def test_every_replayable_source_draws_the_sampling_sketch(self, rng, tmp_path, kind, d):
        # more rows than one stream block, so the draw spans a block boundary
        a = rng.normal(size=(4500, 6)) * rng.uniform(0.1, 3.0, size=(4500, 1))
        if kind == "matrix":
            source = a
        elif kind == "matrix-stream":
            source = MatrixRowStream(a)
        else:
            write_binary(tmp_path / "a.bin", a)
            source = open_stream(tmp_path / "a.bin")
        projector, report = low_rank_approximate(source, k=3, epsilon=0.6, delta=0.5, seed=5, d=d)
        assert d is None or report.d == d
        expected = projector_top_k(sample_sketch(a, report.d, seed=5), 3)
        assert np.array_equal(projector, expected)

    def test_gram_certificate_matches_exact_values(self, rng, monkeypatch):
        # spectra within [1e-2, 1] * sigma_1, so every error is far above
        # sqrt(eps) * sigma_1 and the certificate must come from the Gram matrix
        def exact_path(*args):
            pytest.fail("the Gram certificate fell back to the exact path")

        def unread_replay(*args):
            # only the exact fallback iterates the replayed blocks
            yield exact_path()

        monkeypatch.setattr(approx_module, "approximation_error", exact_path)
        monkeypatch.setattr(sampling_module.WeightPass, "replay", unread_replay)
        for trial in range(60):
            m = int(rng.integers(3, 41))
            n = int(rng.integers(2, 13))
            rank = min(m, n)
            values = np.sort(10.0 ** rng.uniform(-2.0, 0.0, size=rank))[::-1]
            a = matrix_with_singular_values(rng, m, n, values * rng.choice([0.01, 1.0, 300.0]))
            k = int(rng.integers(1, rank))
            d = int(rng.integers(1, 30))
            projector, report = low_rank_approximate(
                a, k=k, epsilon=0.5, delta=0.5, seed=trial, d=d
            )
            exact = np.linalg.svd(a, compute_uv=False)
            sketch = sample_sketch(a, d, seed=trial)
            deviation = sym_spectral_norm(a.T @ a - sketch.gram())
            assert report.error_spectral == pytest.approx(
                approximation_error(a, projector), rel=1e-9
            )
            assert report.sigma_kplus1 == pytest.approx(exact[k], rel=1e-9)
            assert report.gram_deviation == pytest.approx(deviation, rel=1e-9)
            assert report.numerical_rank == pytest.approx(linalg.numerical_rank(a), rel=1e-9)

    def test_exact_fallback_below_gram_precision(self, rng):
        # Gram-derived values would be ~sqrt(n * eps) * sigma_1 ~ 1e-6 here
        full = rng.normal(size=(40, 12)) * 10.0
        _, report = low_rank_approximate(full, k=12, epsilon=0.5, delta=0.5, seed=1, d=60)
        assert report.error_spectral <= 1e-8
        assert report.sigma_kplus1 == 0.0
        a = matrix_with_singular_values(rng, 80, 12, [30.0, 20.0, 10.0])
        for k in (3, 5):
            _, report = low_rank_approximate(a, k=k, epsilon=0.5, delta=0.5, seed=2)
            assert report.error_spectral <= 1e-8
            assert report.sigma_kplus1 <= 1e-8 * 30.0
            assert report.satisfied

    @pytest.mark.parametrize("k", [3, 12], ids=["rank", "n"])
    def test_two_pass_fallback_matches_in_memory(self, rng, tmp_path, k):
        # exact rank 3: Gram values would give an error near 1e-6, so an error
        # at rounding level shows the exact fallback was taken
        a = matrix_with_singular_values(rng, 80, 12, [30.0, 20.0, 10.0])
        write_binary(tmp_path / "a.bin", a)
        p_mem, r_mem = low_rank_approximate(a, k=k, epsilon=0.5, delta=0.5, seed=3)
        assert r_mem.error_spectral <= 1e-8 and r_mem.satisfied
        for source in (MatrixRowStream(a), open_stream(tmp_path / "a.bin")):
            p_str, r_str = low_rank_approximate(source, k=k, epsilon=0.5, delta=0.5, seed=3)
            assert r_str == r_mem
            assert np.array_equal(p_str, p_mem)

    def test_fallback_traversal_that_differs_raises(self, rng):
        # rank 3 at k = 3 takes the fallback: its (third) traversal is checked too
        a = matrix_with_singular_values(rng, 80, 12, [30.0, 20.0, 10.0])
        traversals = []

        def factory():
            traversals.append(None)
            rows = a if len(traversals) < 3 else a[:-1]
            return iter([rows])

        with pytest.raises(ShapeMismatchError, match="79 rows"):
            low_rank_approximate(RowStream(factory, 12), k=3, epsilon=0.5, delta=0.5, seed=3)
        assert len(traversals) == 3

    def test_broken_gram_invariant_raises(self, rng, monkeypatch, tmp_path):
        # an error above the bound despite a zero Gram deviation is impossible
        broken = lambda first, lam, sketch, projector, k: (0.0, 1e6, 0.0)  # noqa: E731
        monkeypatch.setattr(approx_module, "_certify", broken)
        a = rng.normal(size=(30, 6))
        with pytest.raises(InvariantError):
            low_rank_approximate(a, k=2, epsilon=0.5, delta=0.5, seed=0)
        path = tmp_path / "a.csv"
        np.savetxt(path, a, delimiter=",")
        assert main(["approx-svd", "--input", str(path), "--k", "2", "--out", "-"]) == 65

    @pytest.mark.parametrize("single_shot", [False, True])
    def test_no_svd_of_more_than_n_rows(self, rng, svd_shapes, single_shot):
        # the 400 x 12 sketch is reduced to its 12 x 12 R before any SVD
        a = rng.normal(size=(3000, 12))
        source = RowStream(iter([a]), 12) if single_shot else a
        low_rank_approximate(source, 3, 0.5, 0.5, seed=0, d=400)
        assert svd_shapes
        assert max(rows for rows, _ in svd_shapes) <= 12

    def test_no_svd_of_more_than_n_rows_in_the_fallback(self, rng, svd_shapes):
        a = matrix_with_singular_values(rng, 600, 10, [1.0, 1e-9])
        low_rank_approximate(a, 1, 0.5, 0.5, seed=0, d=300)
        assert len(svd_shapes) >= 2  # the projector, then the exact fallback
        assert max(rows for rows, _ in svd_shapes) <= 10

    @pytest.mark.parametrize("d", [0, -1])
    def test_two_pass_rejects_d_below_one(self, rng, d):
        stream = MatrixRowStream(rng.normal(size=(20, 5)))
        with pytest.raises(OutOfRangeError):
            low_rank_approximate(stream, k=2, epsilon=0.5, delta=0.5, d=d)

    @pytest.mark.parametrize("replayable", [True, False], ids=["two-pass", "one-pass"])
    @pytest.mark.parametrize(
        "k, d, error, match",
        [
            (6, 8, ShapeMismatchError, r"k must lie in \[0, 5\], got 6"),
            (-1, 8, ShapeMismatchError, r"k must lie in \[0, 5\], got -1"),
            (2, 0, OutOfRangeError, "sketch size d must be >= 1, got 0"),
            (2, 10**12, TooLargeError, "1000000000000x8"),
        ],
        ids=["k-above-n", "k-negative", "d-zero", "d-beyond-memory"],
    )
    def test_bad_k_or_d_refused_before_reading(self, replayable, k, d, error, match):
        def unread():
            pytest.fail("the stream was traversed")
            yield

        stream = RowStream(unread if replayable else unread(), 5)
        with pytest.raises(error, match=match):
            low_rank_approximate(stream, k=k, epsilon=0.5, delta=0.5, d=d)

    def test_gram_beyond_memory_refused_before_reading(self, monkeypatch):
        # 64 KiB of physical memory: an 80 x 80 Gram alone fits in 51.2 KB,
        # but not with the certificate's four more 80 x 80 arrays
        def unread():
            pytest.fail("the stream was traversed")
            yield

        monkeypatch.setattr(os, "sysconf", {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 16}.__getitem__)
        with pytest.raises(TooLargeError, match="400x80"):
            low_rank_approximate(RowStream(unread, 80), k=2, epsilon=0.5, delta=0.5)

    @pytest.mark.parametrize(
        "changed, match",
        [
            ({"epsilon": 1.0}, r"epsilon must lie in \(0, 1\), got 1.0"),
            ({"delta": 0.0}, r"delta must lie in \(0, 1\), got 0.0"),
            ({"c_constant": 0.0}, "c_constant must be positive and finite, got 0.0"),
            ({"c_constant": -2.0}, "c_constant must be positive and finite, got -2.0"),
        ],
        ids=["epsilon", "delta", "c-zero", "c-negative"],
    )
    def test_bad_accuracy_parameters_refused_before_reading(self, changed, match):
        def unread():
            pytest.fail("the stream was traversed")
            yield

        arguments = {"k": 2, "epsilon": 0.5, "delta": 0.5, **changed}
        with pytest.raises(OutOfRangeError, match=match):
            low_rank_approximate(RowStream(unread, 5), **arguments)

    def test_one_pass_requires_d(self, rng):
        a = rng.normal(size=(20, 5))
        stream = RowStream(iter([a]), 5)
        with pytest.raises(OutOfRangeError):
            low_rank_approximate(stream, k=2, epsilon=0.5, delta=0.5, seed=0)

    def test_one_pass_with_d(self, rng):
        a = matrix_with_singular_values(rng, 200, 40, [10.0, 9.0, 8.0])
        stream = RowStream(iter([a]), 40)
        projector, report = low_rank_approximate(
            stream, k=3, epsilon=0.5, delta=0.5, seed=0, d=100
        )
        assert report.error_spectral is None
        assert approximation_error(a, projector) <= 1e-8

    def test_epsilon_range(self, rng):
        with pytest.raises(OutOfRangeError):
            low_rank_approximate(rng.normal(size=(4, 3)), k=1, epsilon=1.5, delta=0.5)

    def test_zero_matrix(self):
        with pytest.raises(ZeroMatrixError):
            low_rank_approximate(np.zeros((4, 3)), k=1, epsilon=0.5, delta=0.5)


class TestDistinctRowSketch:
    """A sketch holds each chosen row once; its Gram and projector are the d x n S's."""

    @pytest.mark.parametrize("block_rows", [BLOCK_ROWS, 7])
    def test_gram_and_projector_match_the_full_sketch(self, rng, monkeypatch, block_rows):
        # 7-row blocks fold the R factor and the repeated rows over several blocks
        monkeypatch.setattr(sampling_module, "BLOCK_ROWS", block_rows)
        a = matrix_with_singular_values(rng, 40, 8, 2.0 ** -np.arange(8))
        sketch = sample_sketch(a, 300, seed=1)
        full = sketch.rows[sketch.inverse]
        assert full.shape == (300, 8) and sketch.rows.shape[0] < 40
        gram = full.T @ full
        assert spectral_norm(sketch.gram() - gram) <= 1e-12 * spectral_norm(gram)
        _, _, vh = np.linalg.svd(full, full_matrices=False)
        for k in (1, 3, 8):
            reference = vh[:k].T @ vh[:k]
            p = projector_top_k(sketch, k)
            assert spectral_norm(p @ p.T - reference) <= 1e-12

    def test_two_pass_memory_does_not_grow_with_d(self, rng):
        # at d = 4m a d x n sketch alone would take four copies of the input;
        # the distinct rows take at most one, and the rest is O(d) indices and
        # blocks of BLOCK_ROWS rows, which m = 5 BLOCK_ROWS keeps small
        m, n = 5 * BLOCK_ROWS, 50
        a = rng.normal(size=(m, n))
        tracemalloc.start()
        try:
            low_rank_approximate(a, 3, 0.5, 0.5, seed=0, d=4 * m)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * m * n * 8

    def test_certificate_memory_is_covered_by_the_gram_check(self, rng):
        # the Gram, then one work array for (I - P) G (I - P), then the
        # sketch's Gram, formed into G - S^T S in place, with one block
        # product or the symmetrized copy: 3.2 n x n arrays at the peak,
        # and the eigensolver's own copy, untraced, makes one more
        m, n = 100, 800
        a = rng.normal(size=(m, n))
        tracemalloc.start()
        try:
            low_rank_approximate(a, 5, 0.5, 0.5, seed=0, d=200)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 3.5 * n * n * 8
        assert peak + n * n * 8 <= sampling_module._GRAM_ARRAYS * n * n * 8


class TestBlockIdentity:
    def test_explicit_2x4(self):
        a = block_identity_matrix(2, 4)
        h = math.sqrt(0.5)
        assert np.allclose(a, [[h, 0.0], [h, 0.0], [0.0, h], [0.0, h]])

    def test_orthonormal_columns(self):
        a = block_identity_matrix(16, 64)
        assert np.allclose(a.T @ a, np.eye(16), atol=1e-12)

    def test_one_entry_per_row(self):
        a = block_identity_matrix(8, 24)
        assert np.all(np.count_nonzero(a, axis=1) == 1)
        assert np.allclose(a[a != 0], math.sqrt(8 / 24))

    @pytest.mark.parametrize("n,m", [(4, 10), (4, 4), (8, 4), (0, 8)])
    def test_bad_shapes(self, n, m):
        with pytest.raises(ShapeMismatchError):
            block_identity_matrix(n, m)


class TestOptimalityExperiment:
    def test_single_draw_always_fails(self):
        result = optimality_experiment(4, 16, 1, trials=30, seed=0)
        assert result.failure_fraction == 1.0
        assert result.missed_block_fraction == 1.0

    def test_missed_block_forces_unit_error(self):
        result = optimality_experiment(16, 64, 20, trials=50, seed=1)
        for missed, error in zip(result.missed_blocks, result.errors):
            if missed > 0:
                assert error >= 1.0 - 1e-6
            else:
                assert error <= 1e-8

    def test_missed_count_matches_exact_expectation(self):
        # each draw hits a uniform block; P(block missed) = (1 - 1/n)^d
        n, m, d, trials = 16, 64, 30, 400
        result = optimality_experiment(n, m, d, trials=trials, seed=2)
        exact = n * (1 - 1 / n) ** d
        observed = result.missed_blocks.mean()
        se = result.missed_blocks.std(ddof=1) / math.sqrt(trials)
        assert abs(observed - exact) <= 4 * se + 1e-9

    def test_trials_share_one_weight_pass(self, monkeypatch):
        # one traversal weighs the witness; each trial's draw replays it once
        traversals = []
        views = MatrixRowStream._views

        def counted(stream):
            traversals.append(stream.matrix.shape)
            return views(stream)

        monkeypatch.setattr(MatrixRowStream, "_views", counted)
        optimality_experiment(8, 32, 10, trials=7, seed=0)
        assert traversals == [(32, 8)] * (1 + 7)

    def test_threads_sharing_the_pass_match_sequential_trials(self, monkeypatch):
        # eight workers on the one weight pass, switching often, draw what one worker draws
        base = optimality_experiment(8, 32, 10, trials=24, seed=5)
        monkeypatch.setattr(parallel, "thread_count", lambda: 8)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threaded = optimality_experiment(8, 32, 10, trials=24, seed=5)
        finally:
            sys.setswitchinterval(interval)
        assert np.array_equal(threaded.missed_blocks, base.missed_blocks)
        assert np.array_equal(threaded.errors, base.errors)

    def test_generous_sampling_covers_blocks(self):
        n = 16
        d = math.ceil(10 * n * math.log(n))
        result = optimality_experiment(n, 64, d, trials=50, seed=3)
        assert result.missed_block_fraction <= 0.01
        assert result.failure_fraction <= 0.01
