import math
import weakref

import numpy as np
import pytest
from scipy import stats

from matsketch import streams
from matsketch.lln import matrix_rows_ensemble
from matsketch.sampling import materialize_chosen, row_weights, stream_weights
from matsketch.matio import open_stream, write_binary

from matsketch import (
    BlockStream,
    InvalidMatrixError,
    IterableRowStream,
    MatrixRowStream,
    NotReplayableError,
    OutOfRangeError,
    ShapeMismatchError,
    ZeroMatrixError,
    required_sample_size,
    row_distribution,
    sample_sketch,
    sample_sketch_one_pass,
    sample_sketch_two_pass,
)

# eight rows with squared lengths 1,1,4,4,9,9,16,16: a small but non-uniform law
FIXED_8ROW = np.diag([1.0, 1.0, 2.0, 2.0, 3.0, 3.0, 4.0, 4.0])


class TestRowDistribution:
    def test_identity_uniform(self):
        assert np.allclose(row_distribution(np.eye(6)), np.full(6, 1 / 6))

    def test_two_rows(self):
        a = np.array([[3.0, 0.0], [0.0, 4.0]])
        assert np.allclose(row_distribution(a), [9 / 25, 16 / 25])

    def test_zero_row_gets_zero(self):
        a = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 2.0]])
        p = row_distribution(a)
        assert p[1] == 0.0
        assert p.sum() == pytest.approx(1.0, abs=1e-12)

    def test_zero_matrix(self):
        with pytest.raises(ZeroMatrixError):
            row_distribution(np.zeros((2, 2)))

    def test_weights_match_row_loop(self, rng):
        a = rng.normal(size=(50, 13)) * rng.lognormal(size=(50, 1))
        weights = row_weights(a)
        per_row = np.array([row_weights(a[i : i + 1])[0] for i in range(50)])
        assert weights.tobytes() == per_row.tobytes()
        assert weights.tobytes() == row_weights(np.asfortranarray(a)).tobytes()
        dot_loop = np.array([float(np.dot(row, row)) for row in a])
        assert np.allclose(weights, dot_loop, rtol=1e-14, atol=0.0)


class TestRequiredSampleSize:
    def test_direct_evaluation(self):
        # t = 100 / (0.5^4 * 0.5) = 3200; ceil(3200 * ln 3200) = 25827
        assert required_sample_size(100, 0.5, 0.5, 1.0) == 25827

    def test_degenerate_limit(self):
        assert required_sample_size(1.0, 1 - 1e-12, 1 - 1e-12, 1.0) == 1

    def test_doubling_r_at_least_doubles(self):
        for r in (1.5, 4.0, 37.0, 200.0):
            d1 = required_sample_size(r, 0.3, 0.2, 1.0)
            d2 = required_sample_size(2 * r, 0.3, 0.2, 1.0)
            assert d2 >= 2 * d1

    def test_monotone_in_parameters(self):
        base = required_sample_size(10, 0.5, 0.5, 1.0)
        assert required_sample_size(20, 0.5, 0.5, 1.0) >= base
        assert required_sample_size(10, 0.25, 0.5, 1.0) >= base
        assert required_sample_size(10, 0.5, 0.25, 1.0) >= base

    @pytest.mark.parametrize(
        "r,eps,delta,c",
        [(0.5, 0.5, 0.5, 1.0), (1, 1.5, 0.5, 1.0), (1, 0.5, 0.0, 1.0), (1, 0.5, 0.5, 0.0)],
    )
    def test_out_of_range(self, r, eps, delta, c):
        with pytest.raises(OutOfRangeError):
            required_sample_size(r, eps, delta, c)

    def test_default_constant_is_one(self):
        assert required_sample_size(100, 0.5, 0.5) == required_sample_size(100, 0.5, 0.5, 1.0)
        assert required_sample_size(100, 0.5, 0.5) == 25827


class TestSampleSketch:
    def test_point_mass(self):
        a = np.array([[0.0, 0.0, 0.0], [3.0, 4.0, 0.0]])
        sketch = sample_sketch(a, 7, seed=1)
        assert np.array_equal(sketch.chosen_indices, np.full(7, 1))
        target = np.array([3.0, 4.0, 0.0]) * (5.0 / (math.sqrt(7) * 5.0))
        assert np.allclose(sketch.matrix, np.tile(target, (7, 1)))

    def test_equal_row_lengths(self, rng):
        a = rng.normal(size=(12, 5))
        sketch = sample_sketch(a, 30, seed=2)
        expected = sketch.frobenius_of_source / math.sqrt(30)
        lengths = np.linalg.norm(sketch.matrix, axis=1)
        assert np.allclose(lengths, expected, rtol=1e-8)

    def test_index_frequencies(self):
        d = 100_000
        sketch = sample_sketch(np.eye(4), d, seed=11)
        freq = np.bincount(sketch.chosen_indices, minlength=4) / d
        se = math.sqrt(0.25 * 0.75 / d)
        assert np.all(np.abs(freq - 0.25) <= 3 * se)

    def test_unbiased_gram(self, rng):
        a = rng.normal(size=(4, 3))
        target = a.T @ a
        trials = 10_000
        total = np.zeros((3, 3))
        total_sq = np.zeros((3, 3))
        for s in range(trials):
            g = sample_sketch(a, 10, seed=s).gram()
            total += g
            total_sq += g**2
        mean = total / trials
        variance = total_sq / trials - mean**2
        se = np.sqrt(np.maximum(variance, 0.0) / trials)
        assert np.all(np.abs(mean - target) <= 4 * se + 1e-9)

    def test_deterministic(self, rng):
        a = rng.normal(size=(9, 4))
        s1 = sample_sketch(a, 6, seed=42)
        s2 = sample_sketch(a, 6, seed=42)
        assert np.array_equal(s1.chosen_indices, s2.chosen_indices)
        assert s1.matrix.tobytes() == s2.matrix.tobytes()

    def test_zero_rows_never_chosen(self, rng):
        a = rng.normal(size=(6, 3))
        a[2] = 0.0
        a[5] = 0.0
        sketch = sample_sketch(a, 500, seed=3)
        assert not np.isin(sketch.chosen_indices, [2, 5]).any()

    def test_scaling_preserves_indices(self, rng):
        a = rng.normal(size=(15, 6))
        s1 = sample_sketch(a, 40, seed=9)
        for c in (2.0, 3.7):
            s2 = sample_sketch(c * a, 40, seed=9)
            assert np.array_equal(s1.chosen_indices, s2.chosen_indices)

    def test_bad_d(self):
        with pytest.raises(OutOfRangeError):
            sample_sketch(np.eye(2), 0, seed=0)


class TestTwoPass:
    def test_bit_identical_to_in_memory(self, rng):
        a = rng.normal(size=(40, 7))
        mem = sample_sketch(a, 25, seed=4)
        streamed = sample_sketch_two_pass(MatrixRowStream(a), 25, seed=4)
        assert np.array_equal(mem.chosen_indices, streamed.chosen_indices)
        assert mem.matrix.tobytes() == streamed.matrix.tobytes()
        assert mem.frobenius_of_source == streamed.frobenius_of_source

    def test_identity_contract(self):
        sketch = sample_sketch_two_pass(MatrixRowStream(np.eye(5)), 12, seed=0)
        assert np.allclose(np.linalg.norm(sketch.matrix, axis=1), math.sqrt(5) / math.sqrt(12))

    def test_single_shot_rejected(self, rng):
        a = rng.normal(size=(5, 3))
        stream = IterableRowStream(iter([(i, a[i]) for i in range(5)]), 3)
        with pytest.raises(NotReplayableError):
            sample_sketch_two_pass(stream, 3, seed=0)

    def test_peak_resident_rows(self, rng):
        base = rng.normal(size=(2000, 200))
        d = 500
        refs: list[weakref.ref] = []
        peak = [0]

        def factory():
            for i in range(base.shape[0]):
                row = base[i].copy()
                refs.append(weakref.ref(row))
                stored = sum(r() is not None for r in refs[:-2])
                peak[0] = max(peak[0], stored + 1)
                yield i, row

        stream = IterableRowStream(factory, base.shape[1])
        sketch = sample_sketch_two_pass(stream, d, seed=7)
        assert sketch.matrix.shape == (d, 200)
        assert peak[0] <= d + 1

    @staticmethod
    def _replay_differs(base, second):
        """Row factory whose second traversal yields ``second(base)`` instead of ``base``."""
        traversals = []

        def factory():
            traversals.append(None)
            rows = second(base.copy()) if len(traversals) == 2 else base
            return enumerate(rows)

        return IterableRowStream(factory, base.shape[1])

    def test_replay_with_changed_row_rejected(self, rng):
        base = rng.normal(size=(40, 7))

        def change_one(rows):
            rows[17, 3] += 1.0
            return rows

        with pytest.raises(ShapeMismatchError, match="differs"):
            sample_sketch_two_pass(self._replay_differs(base, change_one), 5, seed=0)

    def test_replay_with_added_row_rejected(self, rng):
        base = rng.normal(size=(40, 7))
        stream = self._replay_differs(base, lambda rows: np.vstack([rows, rows[:1]]))
        with pytest.raises(ShapeMismatchError):
            sample_sketch_two_pass(stream, 5, seed=0)

    def test_replay_with_dropped_row_rejected(self, rng):
        base = rng.normal(size=(40, 7))
        stream = self._replay_differs(base, lambda rows: rows[:-1])
        with pytest.raises(ShapeMismatchError, match="39 rows"):
            sample_sketch_two_pass(stream, 5, seed=0)

    def test_matrix_changed_to_nan_after_wrapping_fails_weight_pass(self, rng):
        stream = MatrixRowStream(rng.normal(size=(40, 7)))
        stream.matrix[17, 3] = np.nan
        with pytest.raises(InvalidMatrixError, match="not a finite"):
            sample_sketch_two_pass(stream, 5, seed=0)
        with pytest.raises(InvalidMatrixError, match="not a finite"):
            sample_sketch_one_pass(stream, 5, seed=0)

    def test_matrix_changed_to_nan_between_passes_fails_replay(self, rng):
        stream = MatrixRowStream(rng.normal(size=(40, 7)))
        weights, total_sq, _ = stream_weights(stream)
        stream.matrix[17, 3] = np.nan
        with pytest.raises(ShapeMismatchError, match="differs"):
            materialize_chosen(stream, np.arange(5), weights, total_sq, 5, seed=0)


# every squared row length overflows / finite squared lengths whose sum overflows
OVERFLOWING = {
    "row": np.random.default_rng(0).standard_normal((50, 5)) * 1e160,
    "sum": np.full((4, 1), 1e154),
}


@pytest.mark.parametrize("kind", sorted(OVERFLOWING))
class TestWeightOverflow:
    """A weight total past the float64 range is a data error in every mode."""

    def test_row_distribution(self, kind):
        with pytest.raises(InvalidMatrixError, match="not a finite"):
            row_distribution(OVERFLOWING[kind])

    def test_in_memory(self, kind):
        with pytest.raises(InvalidMatrixError, match="not a finite"):
            sample_sketch(OVERFLOWING[kind], 10)

    def test_weight_and_gram_pass(self, kind):
        with pytest.raises(InvalidMatrixError, match="not a finite"):
            stream_weights(MatrixRowStream(OVERFLOWING[kind]), accumulate_gram=True)

    @pytest.mark.parametrize("block_rows", [1, 4096])
    def test_one_pass(self, kind, block_rows, monkeypatch):
        # with one row per block, only the running total of "sum" overflows
        monkeypatch.setattr(streams, "BLOCK_ROWS", block_rows)
        with pytest.raises(InvalidMatrixError, match="not a finite"):
            sample_sketch_one_pass(MatrixRowStream(OVERFLOWING[kind]), 10)

    def test_lln_ensemble(self, kind):
        with pytest.raises(InvalidMatrixError, match="not a finite"):
            matrix_rows_ensemble(OVERFLOWING[kind])


class TestBlockSize:
    """Sketches must not depend on how the source is cut into blocks."""

    def test_in_memory_and_two_pass_independent_of_block_size(self, rng, tmp_path, monkeypatch):
        m = 2 * 4096 + 100  # at least three blocks at every size tried
        a = rng.normal(size=(m, 5)) * rng.lognormal(size=(m, 1))
        path = tmp_path / "a.bin"
        write_binary(path, a)
        results = []
        for block_rows in (1, 7, 4096):
            monkeypatch.setattr(streams, "BLOCK_ROWS", block_rows)
            assert len(list(MatrixRowStream(a))) == -(-m // block_rows)
            sources = [
                sample_sketch(a, 300, seed=8),
                sample_sketch_two_pass(MatrixRowStream(a), 300, seed=8),
                sample_sketch_two_pass(IterableRowStream(lambda: enumerate(a), 5), 300, seed=8),
                sample_sketch_two_pass(open_stream(path), 300, seed=8),
            ]
            results.extend((s.chosen_indices.tobytes(), s.matrix.tobytes()) for s in sources)
        assert all(r == results[0] for r in results)

    @pytest.mark.parametrize("block_rows", [1, 3, 7])
    def test_blocked_reservoir_law(self, monkeypatch, block_rows):
        # FIXED_8ROW spans several blocks, so reservoirs change hands between blocks
        monkeypatch.setattr(streams, "BLOCK_ROWS", block_rows)
        d = 40_000
        sketch = sample_sketch_one_pass(MatrixRowStream(FIXED_8ROW), d, seed=block_rows)
        counts = np.bincount(sketch.chosen_indices, minlength=8)
        result = stats.chisquare(counts, row_distribution(FIXED_8ROW) * d)
        assert result.pvalue > 0.001


class TestOnePass:
    def test_point_mass(self):
        rows = [(0, np.zeros(2)), (1, np.array([3.0, 4.0])), (2, np.zeros(2))]
        stream = IterableRowStream(iter(rows), 2)
        sketch = sample_sketch_one_pass(stream, 6, seed=0)
        assert np.array_equal(sketch.chosen_indices, np.full(6, 1))

    def test_zero_stream(self):
        stream = IterableRowStream(iter([(0, np.zeros(3)), (1, np.zeros(3))]), 3)
        with pytest.raises(ZeroMatrixError):
            sample_sketch_one_pass(stream, 2, seed=0)

    def test_deterministic(self):
        s1 = sample_sketch_one_pass(MatrixRowStream(FIXED_8ROW), 3, seed=5)
        s2 = sample_sketch_one_pass(MatrixRowStream(FIXED_8ROW), 3, seed=5)
        assert np.array_equal(s1.chosen_indices, s2.chosen_indices)
        assert s1.matrix.tobytes() == s2.matrix.tobytes()

    def test_occupant_distribution_chi_square(self):
        trials = 20_000
        counts = np.zeros(8, dtype=np.int64)
        for s in range(trials):
            sketch = sample_sketch_one_pass(MatrixRowStream(FIXED_8ROW), 1, seed=s)
            counts[sketch.chosen_indices[0]] += 1
        expected = row_distribution(FIXED_8ROW) * trials
        result = stats.chisquare(counts, expected)
        assert result.pvalue > 0.001

    def test_reservoirs_independent(self):
        trials = 100_000
        joint = np.zeros((8, 8), dtype=np.int64)
        for s in range(trials):
            i, j = sample_sketch_one_pass(MatrixRowStream(FIXED_8ROW), 2, seed=s).chosen_indices
            joint[i, j] += 1
        p = row_distribution(FIXED_8ROW)
        expected = np.outer(p, p) * trials
        result = stats.chisquare(joint.ravel(), expected.ravel())
        assert result.pvalue > 0.001


def test_stream_validation_wrong_width():
    stream = IterableRowStream(iter([(0, np.ones(3)), (1, np.ones(4))]), 3)
    with pytest.raises(ShapeMismatchError):
        list(stream)


def test_stream_validation_decreasing_indices():
    stream = IterableRowStream(iter([(1, np.ones(2)), (0, np.ones(2))]), 2)
    with pytest.raises(ShapeMismatchError):
        list(stream)


def test_stream_validation_decreasing_across_blocks():
    blocks = [(np.array([0, 5]), np.ones((2, 2))), (np.array([5, 6]), np.ones((2, 2)))]
    with pytest.raises(ShapeMismatchError):
        list(BlockStream(iter(blocks), 2))


def test_stream_validation_names_non_finite_row():
    block = np.ones((3, 2))
    block[1, 0] = np.inf
    with pytest.raises(InvalidMatrixError, match="row 11"):
        list(BlockStream(iter([(np.array([10, 11, 12]), block)]), 2))


def test_rows_are_packed_into_blocks(monkeypatch):
    monkeypatch.setattr(streams, "BLOCK_ROWS", 4)
    rows = np.arange(20.0).reshape(10, 2)
    blocks = list(IterableRowStream(iter(enumerate(rows)), 2))
    assert [b.shape[0] for _, b in blocks] == [4, 4, 2]
    assert np.array_equal(np.concatenate([b for _, b in blocks]), rows)
    assert np.array_equal(np.concatenate([i for i, _ in blocks]), np.arange(10))


def test_single_shot_refuses_second_traversal():
    stream = IterableRowStream(iter([(0, np.ones(2))]), 2)
    list(stream)
    with pytest.raises(NotReplayableError):
        list(stream)
