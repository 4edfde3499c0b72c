import hashlib
import math
import os
import struct
import tracemalloc
import weakref

import numpy as np
import pytest
from scipy import stats

from matsketch import matio, sampling, streams
from matsketch.approx import low_rank_approximate
from matsketch.lln import matrix_rows_ensemble
from matsketch.sampling import draw_weighted_indices, materialize_chosen, row_weights, stream_weights
from matsketch.matio import open_stream, write_binary, write_csv, write_matrixmarket

from matsketch import (
    InvalidMatrixError,
    MatrixRowStream,
    NotReplayableError,
    OutOfRangeError,
    RowStream,
    ShapeMismatchError,
    TooLargeError,
    ZeroMatrixError,
    required_sample_size,
    row_distribution,
    sample_sketch,
    sample_sketch_one_pass,
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

    @pytest.mark.parametrize("eps", [1e-90, 1e-80])
    def test_size_beyond_float64_is_too_large(self, eps):
        # eps**4 underflows to 0 at 1e-90; at 1e-80 it is subnormal and t overflows to inf
        with pytest.raises(TooLargeError, match=rf"r=2, epsilon={eps}, delta=0.5"):
            required_sample_size(2, eps, 0.5)


class TestSampleSketch:
    def test_point_mass(self):
        a = np.array([[0.0, 0.0, 0.0], [3.0, 4.0, 0.0]])
        sketch = sample_sketch(a, 7, seed=1)
        assert np.array_equal(sketch.chosen_indices, np.full(7, 1))
        target = np.array([3.0, 4.0, 0.0]) * (5.0 / (math.sqrt(7) * 5.0))
        assert np.allclose(sketch.rows[sketch.inverse], np.tile(target, (7, 1)))

    def test_equal_row_lengths(self, rng):
        a = rng.normal(size=(12, 5))
        sketch = sample_sketch(a, 30, seed=2)
        expected = np.linalg.norm(a) / math.sqrt(30)
        lengths = np.linalg.norm(sketch.rows[sketch.inverse], axis=1)
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
        assert s1.rows[s1.inverse].tobytes() == s2.rows[s2.inverse].tobytes()

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
        streamed = sample_sketch(MatrixRowStream(a), 25, seed=4)
        assert np.array_equal(mem.chosen_indices, streamed.chosen_indices)
        assert mem.rows[mem.inverse].tobytes() == streamed.rows[streamed.inverse].tobytes()

    def test_identity_contract(self):
        sketch = sample_sketch(MatrixRowStream(np.eye(5)), 12, seed=0)
        assert np.allclose(np.linalg.norm(sketch.rows[sketch.inverse], axis=1), math.sqrt(5) / math.sqrt(12))

    @pytest.mark.parametrize(
        "sketch",
        [
            lambda d: sample_sketch(FIXED_8ROW, d),
            lambda d: sample_sketch(MatrixRowStream(FIXED_8ROW), d),
            lambda d: low_rank_approximate(FIXED_8ROW, 2, 0.5, 0.5, d=d),
        ],
        ids=["in-memory", "two-pass", "low-rank"],
    )
    def test_sketch_beyond_memory_refused_before_drawing(self, monkeypatch, sketch):
        def no_draw(*args, **kwargs):
            pytest.fail("the sketch rows were drawn")

        monkeypatch.setattr(sampling, "draw_weighted_indices", no_draw)
        with pytest.raises(TooLargeError, match="1000000000000x8"):
            sketch(10**12)

    def test_single_shot_rejected(self, rng):
        a = rng.normal(size=(5, 3))
        stream = RowStream(iter([a]), 3)
        with pytest.raises(NotReplayableError):
            sample_sketch(stream, 3, seed=0)

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
                yield row[None]

        stream = RowStream(factory, base.shape[1])
        sketch = sample_sketch(stream, d, seed=7)
        assert sketch.rows[sketch.inverse].shape == (d, 200)
        assert peak[0] <= d + 1

    @staticmethod
    def _replay_differs(base, second):
        """Row factory whose second traversal yields ``second(base)`` instead of ``base``."""
        traversals = []

        def factory():
            traversals.append(None)
            rows = second(base.copy()) if len(traversals) == 2 else base
            return iter([rows])

        return RowStream(factory, base.shape[1])

    def test_replay_with_changed_row_rejected(self, rng):
        base = rng.normal(size=(40, 7))

        def change_one(rows):
            rows[17, 3] += 1.0
            return rows

        with pytest.raises(ShapeMismatchError, match="differs"):
            sample_sketch(self._replay_differs(base, change_one), 5, seed=0)

    def test_replay_with_added_row_rejected(self, rng):
        base = rng.normal(size=(40, 7))
        stream = self._replay_differs(base, lambda rows: np.vstack([rows, rows[:1]]))
        with pytest.raises(ShapeMismatchError):
            sample_sketch(stream, 5, seed=0)

    def test_replay_with_dropped_row_rejected(self, rng):
        base = rng.normal(size=(40, 7))
        stream = self._replay_differs(base, lambda rows: rows[:-1])
        with pytest.raises(ShapeMismatchError, match="39 rows"):
            sample_sketch(stream, 5, seed=0)

    def test_matrix_changed_to_nan_after_wrapping_fails_weight_pass(self, rng):
        stream = MatrixRowStream(rng.normal(size=(40, 7)))
        stream.matrix[17, 3] = np.nan
        with pytest.raises(InvalidMatrixError, match="not a finite"):
            sample_sketch(stream, 5, seed=0)
        with pytest.raises(InvalidMatrixError, match="not a finite"):
            sample_sketch_one_pass(stream, 5, seed=0)

    def test_matrix_changed_to_nan_between_passes_fails_replay(self, rng):
        stream = MatrixRowStream(rng.normal(size=(40, 7)))
        first = stream_weights(stream)
        stream.matrix[17, 3] = np.nan
        with pytest.raises(ShapeMismatchError, match="differs"):
            materialize_chosen(first, np.arange(5))


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
        write_csv(tmp_path / "a.csv", a)
        results = []
        for block_rows in (1, 7, 4096):
            monkeypatch.setattr(streams, "BLOCK_ROWS", block_rows)
            assert len(list(MatrixRowStream(a))) == -(-m // block_rows)
            sources = [
                sample_sketch(a, 300, seed=8),
                sample_sketch(MatrixRowStream(a), 300, seed=8),
                sample_sketch(open_stream(tmp_path / "a.csv"), 300, seed=8),
                sample_sketch(open_stream(path), 300, seed=8),
            ]
            results.extend((s.chosen_indices.tobytes(), s.rows[s.inverse].tobytes()) for s in sources)
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


def _pinned_matrix():
    # 23 rows: row 5 is zero, rows 9 and 16 repeat row 2
    rng = np.random.default_rng(2024)
    a = rng.normal(size=(23, 4)) * rng.lognormal(size=(23, 1))
    a[5] = 0.0
    a[[9, 16]] = a[2]
    return a


def _sha256(x) -> str:
    return hashlib.sha256(np.asarray(x).tobytes()).hexdigest()


class TestSeedPinsBytes:
    """A seed fixes every mode's output bytes; 5-row blocks split the source into five."""

    SKETCH = {
        "in-memory": (
            "f0d744ea1e8f876d610e9db15388d9d28ee3cded638b2b0d3b22874f2c693c67",
            "1d65bcaa859aed5a31482958e7612b6f5a9ee4f226813cb54691aff07b1ac416",
        ),
        "two-pass": (
            "f0d744ea1e8f876d610e9db15388d9d28ee3cded638b2b0d3b22874f2c693c67",
            "1d65bcaa859aed5a31482958e7612b6f5a9ee4f226813cb54691aff07b1ac416",
        ),
        "one-pass": (
            "df4f0660b422b4e4a1b222740fc87eb17a999930285e89219a5799e809766584",
            "e8695f312622b28d7010270a89c17e0ce84a2202ec8f3d021191826133e21727",
        ),
    }

    @pytest.mark.parametrize("mode", sorted(SKETCH))
    def test_sketch(self, monkeypatch, mode):
        monkeypatch.setattr(streams, "BLOCK_ROWS", 5)
        a = _pinned_matrix()
        sample = {
            "in-memory": lambda: sample_sketch(a, 40, seed=7),
            "two-pass": lambda: sample_sketch(MatrixRowStream(a), 40, seed=7),
            "one-pass": lambda: sample_sketch_one_pass(MatrixRowStream(a), 40, seed=7),
        }[mode]
        sketch = sample()
        assert (_sha256(sketch.chosen_indices), _sha256(sketch.rows[sketch.inverse])) == self.SKETCH[mode]

    def test_weights_and_gram(self, monkeypatch):
        monkeypatch.setattr(streams, "BLOCK_ROWS", 5)
        first = stream_weights(MatrixRowStream(_pinned_matrix()), accumulate_gram=True)
        weights, gram = first.weights, first.gram
        assert (_sha256(weights), _sha256(gram)) == (
            "6c9eae660808385bb9996f50179f75cae117b652a9e1a021d413985ae9823f01",
            "807a708b5619cf2ade54b580e9c951c0bd4363b04e060d1429eb2d672ae91906",
        )

    def test_two_pass_file(self, monkeypatch, tmp_path, gather_always):
        # pass two gathers the chosen rows of the file: the in-memory bytes still
        monkeypatch.setattr(streams, "BLOCK_ROWS", 5)
        write_binary(tmp_path / "a.bin", _pinned_matrix())
        sketch = sample_sketch(open_stream(tmp_path / "a.bin"), 40, seed=7)
        assert (_sha256(sketch.chosen_indices), _sha256(sketch.rows[sketch.inverse])) == self.SKETCH["in-memory"]


@pytest.mark.parametrize("d", [3, 9, 40])
@pytest.mark.parametrize("mode", ["in-memory", "two-pass", "one-pass"])
def test_sketch_holds_distinct_rows_in_position_order(monkeypatch, mode, d):
    # 5-row blocks: the one-pass pool ends in several chunks, and at d = 3 it is
    # cut to the rows a reservoir holds twice before the traversal ends
    monkeypatch.setattr(streams, "BLOCK_ROWS", 5)
    a = _pinned_matrix()
    sketch = {
        "in-memory": lambda: sample_sketch(a, d, seed=7),
        "two-pass": lambda: sample_sketch(MatrixRowStream(a), d, seed=7),
        "one-pass": lambda: sample_sketch_one_pass(MatrixRowStream(a), d, seed=7),
    }[mode]()
    wanted = np.unique(sketch.chosen_indices)
    assert sketch.rows.shape[0] == wanted.size
    assert np.array_equal(wanted[sketch.inverse], sketch.chosen_indices)
    scale = np.linalg.norm(a) / (math.sqrt(d) * np.linalg.norm(a[wanted], axis=1))
    assert np.allclose(sketch.rows, a[wanted] * scale[:, None], rtol=1e-14, atol=0)


class TestGather:
    """Pass two of a binary file reads only the distinct chosen rows, each checked bitwise."""

    @staticmethod
    def _file(tmp_path, rng):
        a = rng.normal(size=(500, 6)) * rng.lognormal(size=(500, 1))
        write_binary(tmp_path / "a.bin", a)
        return a, tmp_path / "a.bin"

    @pytest.mark.parametrize("block_rows", [1, 3, 4096])
    def test_reads_each_chosen_row_once(self, tmp_path, rng, monkeypatch, block_rows, gather_always):
        a, path = self._file(tmp_path, rng)
        reference = sample_sketch(a, 60, seed=4)
        traversals, reads = [], []
        iter_blocks, preadv = matio._iter_binary_blocks, os.preadv

        def counted_blocks(*args, **kwargs):
            traversals.append(None)
            return iter_blocks(*args, **kwargs)

        def counted_preadv(*args):
            reads.append(args[2])
            return preadv(*args)

        monkeypatch.setattr(matio, "_iter_binary_blocks", counted_blocks)
        monkeypatch.setattr(os, "preadv", counted_preadv)
        monkeypatch.setattr(streams, "BLOCK_ROWS", block_rows)
        sketch = sample_sketch(open_stream(path), 60, seed=4)
        assert len(traversals) == 1
        assert len(reads) == np.unique(sketch.chosen_indices).size < 60
        assert sketch.chosen_indices.tobytes() == reference.chosen_indices.tobytes()
        assert sketch.rows[sketch.inverse].tobytes() == reference.rows[reference.inverse].tobytes()

    @pytest.mark.parametrize("chosen", [True, False])
    def test_rewrite_under_an_unchanged_stamp(self, tmp_path, rng, monkeypatch, chosen, gather_always):
        # a coarse-timestamp filesystem: only the chosen rows are checked, and only they count
        a, path = self._file(tmp_path, rng)
        monkeypatch.setattr(matio, "_file_stamp", lambda fh: None)
        stream = open_stream(path)
        first = stream_weights(stream)
        positions = draw_weighted_indices(first.weights, 60, np.random.default_rng(4))
        unchosen = np.setdiff1d(np.arange(500), positions)
        row = int((np.unique(positions) if chosen else unchosen)[7])
        with open(path, "r+b") as fh:
            fh.seek(matio._BINARY_HEADER.size + 8 * 6 * row)
            fh.write(struct.pack("<d", a[row, 0] + 1.0))
        if chosen:
            with pytest.raises(ShapeMismatchError, match=rf"first pass in row {row}$"):
                materialize_chosen(first, positions)
        else:
            sketch = materialize_chosen(first, positions)
            reference = materialize_chosen(stream_weights(MatrixRowStream(a)), positions)
            assert sketch.rows[sketch.inverse].tobytes() == reference.rows[reference.inverse].tobytes()

    def test_gathers_only_while_cheaper_than_a_full_pass(self, tmp_path, rng, monkeypatch):
        a, path = rng.normal(size=(500, 200)), tmp_path / "wide.bin"
        write_binary(path, a)
        width = 8 * a.shape[1]
        most = a.shape[0] * width // (matio._PREAD_BYTES + 2 * width)
        reads = []
        preadv = os.preadv

        def counted_preadv(*args):
            reads.append(args[2])
            return preadv(*args)

        monkeypatch.setattr(os, "preadv", counted_preadv)
        stream = open_stream(path)
        assert stream.gather(np.arange(most + 1)) is None
        assert reads == []
        assert np.array_equal(stream.gather(np.arange(most)), a[:most])
        assert len(reads) == most

    def test_only_binary_streams_gather(self, tmp_path, rng, gather_always):
        a, path = self._file(tmp_path, rng)
        write_csv(tmp_path / "a.csv", a)
        write_matrixmarket(tmp_path / "a.mtx", a)
        others = [MatrixRowStream(a), open_stream(tmp_path / "a.csv"), open_stream(tmp_path / "a.mtx")]
        for stream in others:
            assert stream.gather(np.array([1, 3])) is None
        assert np.array_equal(open_stream(path).gather(np.array([1, 3])), a[[1, 3]])


class TestOnePass:
    def test_point_mass(self):
        rows = np.array([[0.0, 0.0], [3.0, 4.0], [0.0, 0.0]])
        stream = RowStream(iter([rows]), 2)
        sketch = sample_sketch_one_pass(stream, 6, seed=0)
        assert np.array_equal(sketch.chosen_indices, np.full(6, 1))

    def test_zero_stream(self):
        stream = RowStream(iter([np.zeros((2, 3))]), 3)
        with pytest.raises(ZeroMatrixError):
            sample_sketch_one_pass(stream, 2, seed=0)

    def test_reservoirs_beyond_memory_refused_before_allocating(self, monkeypatch):
        stream = MatrixRowStream(FIXED_8ROW)

        def no_allocation(*args, **kwargs):
            pytest.fail("the reservoirs were allocated")

        monkeypatch.setattr(np, "zeros", no_allocation)
        monkeypatch.setattr(np, "full", no_allocation)
        with pytest.raises(TooLargeError, match="1000000000000x8"):
            sample_sketch_one_pass(stream, 10**12, seed=0)

    def test_memory_does_not_grow_with_d_times_n(self, rng):
        # d x n float64 reservoirs would take 5000 * 1000 * 8 = 40 MB; the
        # reservoirs hold positions and the pool at most the 50 source rows
        stream = MatrixRowStream(rng.normal(size=(50, 1000)))
        tracemalloc.start()
        try:
            sketch = sample_sketch_one_pass(stream, 5000, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sketch.rows.shape[0] <= 50
        assert peak < 5000 * 1000 * 8 / 10

    def test_deterministic(self):
        s1 = sample_sketch_one_pass(MatrixRowStream(FIXED_8ROW), 3, seed=5)
        s2 = sample_sketch_one_pass(MatrixRowStream(FIXED_8ROW), 3, seed=5)
        assert np.array_equal(s1.chosen_indices, s2.chosen_indices)
        assert s1.rows[s1.inverse].tobytes() == s2.rows[s2.inverse].tobytes()

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


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_draw_rejects_non_finite_weights(bad):
    # an infinite total used to draw index len(weights), a NaN one to claim all-zero weights
    with pytest.raises(OutOfRangeError, match="finite"):
        draw_weighted_indices([1.0, bad], 4, np.random.default_rng(0))


def test_stream_validation_wrong_width():
    stream = RowStream(iter([np.ones((1, 3)), np.ones((1, 4))]), 3)
    with pytest.raises(ShapeMismatchError):
        list(stream)


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_non_finite_stream_fails_both_passes(bad):
    # a stream does not scan its entries: the sampling passes reject the weights
    block = np.ones((3, 2))
    block[1, 0] = bad
    with pytest.raises(InvalidMatrixError, match="not a finite"):
        sample_sketch(RowStream(lambda: iter([np.ones((2, 2)), block]), 2), 4)
    with pytest.raises(InvalidMatrixError, match="not a finite"):
        sample_sketch_one_pass(RowStream(iter([np.ones((2, 2)), block]), 2), 4)


def test_chosen_indices_are_traversal_positions():
    # uneven blocks of 3, 1 and 5 rows: a row's index counts rows across blocks
    a = np.arange(1.0, 19.0).reshape(9, 2)

    def blocks():
        return iter(np.split(a, [3, 4]))

    for sketch in (
        sample_sketch(RowStream(blocks, 2), 50, seed=3),
        sample_sketch_one_pass(RowStream(blocks(), 2), 50, seed=3),
    ):
        rows = sketch.rows[sketch.inverse] / np.linalg.norm(sketch.rows[sketch.inverse], axis=1)[:, None]
        drawn = a[sketch.chosen_indices]
        assert np.allclose(rows, drawn / np.linalg.norm(drawn, axis=1)[:, None])
    assert np.array_equal(
        sample_sketch(RowStream(blocks, 2), 50, seed=3).chosen_indices,
        sample_sketch(a, 50, seed=3).chosen_indices,
    )


def test_rows_are_packed_into_blocks(monkeypatch, tmp_path):
    # a CSV stream parses line by line into blocks of at most BLOCK_ROWS rows
    monkeypatch.setattr(streams, "BLOCK_ROWS", 4)
    rows = np.arange(20.0).reshape(10, 2)
    write_csv(tmp_path / "a.csv", rows)
    blocks = list(open_stream(tmp_path / "a.csv"))
    assert [b.shape[0] for b in blocks] == [4, 4, 2]
    assert np.array_equal(np.concatenate(blocks), rows)


def test_single_shot_refuses_second_traversal():
    stream = RowStream(iter([np.ones((1, 2))]), 2)
    list(stream)
    with pytest.raises(NotReplayableError):
        list(stream)
