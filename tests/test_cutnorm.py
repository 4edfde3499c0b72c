import hashlib
import itertools
import math
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import stats as scipy_stats

from matsketch import (
    NotSortedError,
    NotSquareError,
    OutOfRangeError,
    TooLargeError,
    bernoulli_subset,
    cut_decay_estimate,
    cut_norm_exact,
    cutnorm,
    inf_to_one_norm_exact,
    order_statistics_check,
    spectral_decay_estimate,
    spectral_norm,
    witness_all_ones,
    witness_identity,
    witness_random_sign,
)
from matsketch.rng import spawn
from lemmas import NotSignMatrixError, sign_matrix_lower_bound


def decay_digests(est) -> dict:
    """sha256 of the bytes of each per-trial and bound-term array of a DecayEstimate."""
    return {
        name: hashlib.sha256(np.asarray(getattr(est, name)).tobytes()).hexdigest()
        for name in ("samples", "subset_sizes", "bound_terms")
    }


def all_block_sums(a: np.ndarray) -> np.ndarray:
    """|sum of entries| for every row-subset x column-subset block."""
    m, n = a.shape
    row_masks = np.array(list(itertools.product((0.0, 1.0), repeat=m)))
    col_masks = np.array(list(itertools.product((0.0, 1.0), repeat=n)))
    return np.abs(row_masks @ a @ col_masks.T)


def cut_norm_reference(a: np.ndarray) -> tuple[float, tuple, tuple]:
    """``cut_norm_exact`` by the direct score max(sum c+, sum c-) of each subset's
    column sums c: first maximizer in bit order (bit i = row i) over the smaller side."""
    work = a.T if a.shape[0] > a.shape[1] else a
    masks = np.array(list(itertools.product((0.0, 1.0), repeat=work.shape[0])))[:, ::-1]
    sums = masks @ work
    positive = np.where(sums > 0, sums, 0.0).sum(axis=1)
    negative = np.where(sums < 0, -sums, 0.0).sum(axis=1)
    best = int(np.argmax(np.maximum(positive, negative)))
    c = sums[best]
    keep = c > 0 if positive[best] >= negative[best] else c < 0
    rows = tuple(int(i) for i in np.nonzero(masks[best])[0])
    cols = tuple(int(j) for j in np.nonzero(keep)[0])
    if work is not a:
        rows, cols = cols, rows
    return float(max(positive[best], negative[best])), rows, cols


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


def integer_matrix(rng, m, n, ties):
    a = rng.integers(-3, 4, size=(m, n)).astype(float)
    if ties:  # a zero row and a duplicate row on the enumerated side
        side = a if m <= n else a.T
        side[0] = 0.0
        side[-1] = side[1 % side.shape[0]]
    return a


# High-table columns one enumeration step scores, in place of the byte budget
# of cutnorm._span: one chunk per step; three, which leaves a partial last step
# (the high tables have 2^j columns); and the whole table in one step.
SPANS = {
    "one": lambda columns: 1,
    "three": lambda columns: min(3, columns),
    "all": lambda columns: columns,
}


def use_span(monkeypatch, span):
    monkeypatch.setattr(cutnorm, "_span", lambda column_bytes, columns: SPANS[span](columns))


class TestChunkSeams:
    """Both oracles at chunk sizes and spans that split the enumeration at every seam."""

    # a one-column span is the plain chunk loop, so its id is the chunk size alone
    @pytest.fixture(
        params=[(bits, span) for bits in (1, 3, 12) for span in SPANS],
        ids=lambda p: str(p[0]) if p[1] == "one" else f"{p[0]}-{p[1]}",
        autouse=True,
    )
    def chunk_layout(self, request, monkeypatch):
        bits, span = request.param
        monkeypatch.setattr(cutnorm, "_CHUNK_BITS", bits)
        use_span(monkeypatch, span)

    @pytest.mark.parametrize("ties", [False, True])
    def test_cut_norm_matches_direct_score_on_integers(self, ties):
        rng = np.random.default_rng(17)
        shapes = [(1, 4), (2, 5), (5, 3), (7, 9), (9, 7), (13, 13), (14, 10)]
        for m, n in shapes:
            a = integer_matrix(rng, m, n, ties)
            result = cut_norm_exact(a)
            assert (result.value, result.row_set, result.col_set) == cut_norm_reference(a)
        zero = cut_norm_exact(np.zeros((5, 6)))
        assert (zero.value, zero.row_set, zero.col_set) == cut_norm_reference(np.zeros((5, 6)))

    @pytest.mark.parametrize("scale", [2.0**-300, 2.0**300])
    def test_cut_norm_matches_double_enumeration_on_scaled_floats(self, scale):
        rng = np.random.default_rng(23)
        for m, n in [(1, 6), (4, 4), (6, 8), (8, 5)]:
            a = rng.normal(size=(m, n)) * scale
            expected = all_block_sums(a).max()
            assert cut_norm_exact(a).value == pytest.approx(expected, rel=1e-9, abs=0.0)

    @pytest.mark.parametrize("k", [1, 2, 12, 13])
    def test_inf_to_one_equals_vertex_enumeration_on_integers(self, k):
        rng = np.random.default_rng(k)
        a = integer_matrix(rng, 15, k, ties=k > 1)
        assert inf_to_one_norm_exact(a) == inf_to_one_by_vertices(a)
        assert inf_to_one_norm_exact(a.T) == inf_to_one_by_vertices(a)

    @pytest.mark.parametrize(
        "total,dtype",
        [(16383, np.int16), (16384, np.float64), (2**30 - 1, np.float64), (2**30, np.float64)],
    )
    def test_score_dtype_seams(self, total, dtype):
        # sum |a| = total; the all-positive and all-negative inputs reach the
        # score bound 2 * total at the full row set, so int16 one unit past
        # its seam wraps there and the first maximizer moves; past the seam,
        # float64 scores integers exactly
        rng = np.random.default_rng(total % 1000)
        cells = rng.multinomial(total, np.full(63, 1 / 63)).reshape(7, 9).astype(float)
        signs = rng.choice([-1.0, 1.0], size=cells.shape)
        for a in (cells, -cells, signs * cells, cells.T):
            assert cutnorm._score_dtype(a) == dtype
            result = cut_norm_exact(a)
            assert (result.value, result.row_set, result.col_set) == cut_norm_reference(a)
            assert inf_to_one_norm_exact(a) == inf_to_one_by_vertices(a)

    @pytest.mark.parametrize(
        "case,dtype",
        [("large_integers", np.float64), ("one_half", np.float64), ("negative_zero", np.int16)],
    )
    def test_inputs_off_the_integer_path(self, case, dtype):
        rng = np.random.default_rng(29)
        a = integer_matrix(rng, 7, 9, ties=True)
        if case == "large_integers":
            a *= 1e12  # integral floats, every sum still exact in float64
        elif case == "one_half":
            a[2, 3] = 0.5
        else:
            a[a == 0] = -0.0
        for b in (a, np.full((5, 6), -0.0) if case == "negative_zero" else -a):
            assert cutnorm._score_dtype(b) == dtype
            result = cut_norm_exact(b)
            assert (result.value, result.row_set, result.col_set) == cut_norm_reference(b)
            assert inf_to_one_norm_exact(b) == inf_to_one_by_vertices(b)

    @pytest.mark.parametrize(
        "b,k,n,padding",
        [(127, 9, 11, 0), (128, 9, 11, 0), (63, 7, 11, 1), (42, 8, 13, 2), (20, 12, 13, 2)],
        ids=["b127", "b128", "b63-pad1", "b42-pad2", "b20-pad2"],
    )
    def test_int8_boundary(self, b, k, n, padding):
        # the enumerated side is k x n, and its largest column absolute sum is b:
        # int8 tables up to b = 127, in zero-padded groups of at most 127 // b
        # rows when n is not a multiple of the group size; int16 from b = 128
        rng = np.random.default_rng(b)
        a = np.empty((k, n))
        for j in range(n):
            total = b if j == 2 else int(rng.integers(0, b + 1))
            a[:, j] = rng.multinomial(total, np.full(k, 1 / k)) * rng.choice([-1, 1], size=k)
        groups = cutnorm._int8_groups(a)
        assert (groups > 0) == (b <= 127)
        if groups:
            assert groups * -(-n // groups) - n == padding
        for case in (a, a.T, -a):
            result = cut_norm_exact(case)
            assert (result.value, result.row_set, result.col_set) == cut_norm_reference(case)
            assert inf_to_one_norm_exact(case) == inf_to_one_by_vertices(case)

    @pytest.mark.parametrize("shape", [(0, 5), (5, 0)])
    def test_empty_inputs(self, shape):
        a = np.zeros(shape)
        assert inf_to_one_norm_exact(a) == inf_to_one_by_vertices(a) == 0.0
        assert cut_norm_exact(a) == cutnorm.CutNormResult(0.0, (), ())


@pytest.mark.parametrize(
    "shape,dtype",
    [
        ((21, 4096), np.int16),
        ((21, 4096), np.float64),
        ((3, 8), np.int16),
        ((0, 1), np.float64),
        ((20, 4096), np.int8),
    ],
)
@pytest.mark.parametrize("columns", [1, 5, 4096])
def test_span_fills_the_byte_budget(shape, dtype, columns):
    # a step over (block rows, low-table columns) = shape: each high column it
    # spans holds a block column and the scores of its combinations (int16
    # scores under int8 tables), and on int8 tables one partial per group of
    # at most 127 // 20 = 6 rows
    rows, size = shape
    groups = -(-rows // 6) if dtype is np.int8 else 0
    score_bytes = np.dtype(np.int16 if dtype is np.int8 else dtype).itemsize
    column_bytes = size * (rows * np.dtype(dtype).itemsize + groups + score_bytes)
    span = cutnorm._span(column_bytes, columns)
    assert 1 <= span <= columns
    assert span == 1 or span * column_bytes <= cutnorm._SPAN_BYTES
    assert span == columns or (span + 1) * column_bytes > cutnorm._SPAN_BYTES


def sign_matrix(n):
    return witness_random_sign(n, seed=n)


# (input, walk, bytes per high-table column of every per-step array): the block
# (entries, zero-padded to whole int8 groups, plus a cut's |sum c| row on wider
# tables), one int8 partial per group and one score, per low-table column
STEP_ACCOUNTS = {
    # b = 20: 4 groups of 5 rows, the term in the int16 scores
    "int8-cut": (lambda: sign_matrix(20), cut_norm_exact, 4096 * (20 + 4 + 2)),
    "int8-inf": (lambda: sign_matrix(20), inf_to_one_norm_exact, 4096 * (20 + 4 + 2)),
    # b = 15: 2 groups of 8 rows, one of them zero-padded
    "int8-cut-padded": (lambda: sign_matrix(15), cut_norm_exact, 4096 * (16 + 2 + 2)),
    # b = 13 * 20 > 127: int16 tables, 13 entries and the |sum c| row
    "int16-cut": (lambda: 20.0 * sign_matrix(13), cut_norm_exact, 4096 * (14 * 2 + 2)),
    "int16-inf": (lambda: 20.0 * sign_matrix(13), inf_to_one_norm_exact, 4096 * (13 * 2 + 2)),
    "float64-cut": (lambda: sign_matrix(16) / 3, cut_norm_exact, 4096 * (17 * 8 + 8)),
}


@pytest.mark.parametrize("case", list(STEP_ACCOUNTS))
def test_span_counts_every_step_array(monkeypatch, case):
    # _span is the one seam that sets a step's width, and the chunk-seam tests
    # force their spans through it: an enumerator that sized its steps without
    # asking would pass them without splitting anything, and fails here
    make, oracle, expected = STEP_ACCOUNTS[case]
    asked = []
    span = cutnorm._span

    def recorded(column_bytes, columns):
        asked.append(column_bytes)
        return span(column_bytes, columns)

    monkeypatch.setattr(cutnorm, "_span", recorded)
    oracle(make())
    assert asked == [expected]


@pytest.mark.parametrize("k,dtype", [(20, np.int8), (16, np.float64)])
def test_working_set_stays_in_the_step_budget(k, dtype):
    # one call's tracemalloc peak: the low and high tables plus at most
    # _SPAN_BYTES for everything else (the step arrays fill the budget)
    a = sign_matrix(k) if dtype is np.int8 else np.random.default_rng(k).normal(size=(k, k))
    lo_bits = min(k, cutnorm._CHUNK_BITS)
    tables = k * ((1 << lo_bits) + (1 << (k - lo_bits))) * np.dtype(dtype).itemsize
    cut_norm_exact(a)
    tracemalloc.start()
    try:
        cut_norm_exact(a)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= cutnorm._SPAN_BYTES + tables


def test_every_decay_submatrix_matches_the_reference(monkeypatch):
    # the principal submatrices cut_decay_estimate's masks draw from a 20 x 20
    # sign matrix at q = 15 (15 +- 2 rows: int8 tables in spans of several chunks)
    monkeypatch.setenv("MATSKETCH_THREADS", "1")
    seen = []
    oracle = cutnorm.cut_norm_exact
    monkeypatch.setattr(cutnorm, "cut_norm_exact", lambda a: seen.append(a) or oracle(a))
    trials = 20
    cut_decay_estimate(witness_random_sign(20, seed=0), 15, trials=trials, seed=0)
    assert len(seen) == trials + 1  # and the bound term's full matrix, last
    for sub in seen[:trials]:
        result = oracle(sub)
        assert (result.value, result.row_set, result.col_set) == cut_norm_reference(sub)


def test_enumerator_throughput_smoke():
    # k = 16 > _CHUNK_BITS: 16 chunks of 2^12 subsets, scored at the default byte
    # budget in spans of 7, 7 and 2 high columns; no timing is asserted
    a = witness_random_sign(16, seed=4)
    result = cut_norm_exact(a)
    assert (result.value, result.row_set, result.col_set) == cut_norm_reference(a)


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

    @pytest.mark.parametrize("span", list(SPANS))
    def test_float_value_is_bitwise_stable(self, monkeypatch, span):
        use_span(monkeypatch, span)
        # hex values of the row-local sum |x| of the maximizing sign vector; on
        # the 16x16 case a column-major score of that vector is one ulp lower
        rng = np.random.default_rng(3)
        values = [inf_to_one_norm_exact(rng.normal(size=(n, n))) for n in (12, 16)]
        rng = np.random.default_rng(5)
        values += [inf_to_one_norm_exact(rng.normal(size=s)) for s in ((13, 20), (20, 13), (1, 7))]
        # the sum of its 15 signed rows moves by one ulp if the chunk split moves from row 12
        values.append(inf_to_one_norm_exact(np.random.default_rng(8).normal(size=(15, 16))))
        assert [float(v).hex() for v in values] == [
            "0x1.f222cbee635d2p+5",
            "0x1.7c9f721ecc258p+6",
            "0x1.61e046c2cf6e2p+6",
            "0x1.6a80a47d81afap+6",
            "0x1.8e125c11c144bp+2",
            "0x1.6a5a2ea57d437p+6",
        ]

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
        assert bernoulli_subset(10, 10, seed=0).all()

    def test_q_zero(self):
        assert not bernoulli_subset(10, 0, seed=0).any()

    def test_binomial_mean(self):
        n, q, trials = 100, 30, 100_000
        sizes = np.array([np.count_nonzero(bernoulli_subset(n, q, seed=s)) for s in range(trials)])
        se = math.sqrt(n * 0.3 * 0.7 / trials)
        assert abs(sizes.mean() - q) <= 3 * se

    def test_deterministic(self):
        a = bernoulli_subset(50, 20, seed=9)
        b = bernoulli_subset(50, 20, seed=9)
        assert a.dtype == bool and a.shape == (50,)
        assert np.array_equal(a, b)

    def test_out_of_range(self):
        with pytest.raises(OutOfRangeError):
            bernoulli_subset(10, 11, seed=0)
        with pytest.raises(OutOfRangeError):
            bernoulli_subset(10, -1, seed=0)


class TestRestrict:
    def test_identity_restriction(self):
        mask = bernoulli_subset(12, 6, seed=1)
        sub = np.eye(12)[np.ix_(mask, mask)]
        assert np.array_equal(sub, np.eye(np.count_nonzero(mask)))

    def test_empty_selection_has_zero_norms(self, rng):
        a = rng.normal(size=(4, 4))
        none = np.zeros(4, dtype=bool)
        sub = a[np.ix_(none, none)]
        assert sub.shape == (0, 0)
        assert a[none].shape == (0, 4)
        assert np.linalg.norm(sub) == 0.0
        assert spectral_norm(sub) == 0.0
        assert spectral_norm(a[none]) == 0.0
        assert cut_norm_exact(sub).value == 0.0
        assert inf_to_one_norm_exact(sub) == 0.0


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

    def test_bound_terms(self):
        a = np.array([[1.0, 2.0], [-3.0, 4.0]])
        est = cut_decay_estimate(a, 1, 1, seed=0)
        delta = 0.5
        # off-diagonal part [[0, 2], [-3, 0]]: its best block is the -3 alone
        assert est.bound_terms[0] == pytest.approx(delta**2 * 3.0)
        assert est.bound_terms[1] == pytest.approx(delta * 5.0)
        columns = math.sqrt(10) + math.sqrt(20)
        rows = math.sqrt(5) + math.sqrt(25)
        assert est.bound_terms[2] == pytest.approx(delta**1.5 * (columns + rows))

    @pytest.mark.parametrize("threads", ["1", "2"])
    @pytest.mark.parametrize(
        "n,q,trials,expected",
        [
            (16, 8, 50, {
                "samples": "f8b3da5b1f985594c3df9e5e95a176422520b79ef4c613370a9b49c3d278f26a",
                "subset_sizes": "29a66be02ab24d5be66364c001287181b5828140ae9370402f8215da0f7119d4",
                "bound_terms": "40adc9e7437d03579b2bd47c40c5d502eb955616f524a6dec068f009a8f3b777",
            }),
            # subsets of about 15 rows: the enumeration runs past the first chunk
            (20, 15, 20, {
                "samples": "9b9fa30964c4fd259fbd04341fe0fa6dfdd536430c401b7d778387bf8fae3d03",
                "subset_sizes": "c5a1ecad3920eb71e311c8488a1ba07451d9ad27f297855926d02b7416619469",
                "bound_terms": "fac7454821dd279f3041340be1d886dc57edba49cdcd11a0013363e22ddeb5bf",
            }),
        ],
        ids=["n16-q8", "n20-q15"],
    )
    def test_seed_pins_bytes(self, monkeypatch, threads, n, q, trials, expected):
        monkeypatch.setenv("MATSKETCH_THREADS", threads)
        est = cut_decay_estimate(witness_random_sign(n, seed=0), q, trials=trials, seed=0)
        digests = {
            name: hashlib.sha256(np.asarray(getattr(est, name)).tobytes()).hexdigest()
            for name in ("samples", "subset_sizes", "bound_terms")
        }
        assert digests == expected

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_seed_pins_bytes_on_real_entries(self, monkeypatch, threads):
        # distinct column lengths and a nonzero diagonal, unlike a sign matrix
        monkeypatch.setenv("MATSKETCH_THREADS", threads)
        a = np.random.default_rng(0).normal(size=(12, 12))
        assert decay_digests(cut_decay_estimate(a, 5, trials=20, seed=0)) == {
            "samples": "af44bb51f591c90c06b2d07e49e5555093880e64ac7d037bbec17cceed7cf8fb",
            "subset_sizes": "50d26c824533953d61c2b24f2f478ee8a6103a620427629f4e00093030504929",
            "bound_terms": "6d4f1259b965d803eedcd31d52d3181d5d0596b208829c37a0065323f3afc960",
        }

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

    def test_bound_term_averages_the_longest_columns(self):
        # ceil(4 / 3) = 2 columns: the lengths 4 and 2 average to 3
        est = spectral_decay_estimate(np.diag([1.0, 4.0, 1.0, 2.0]), 3, 1, seed=0)
        assert est.bound_terms[1] == pytest.approx(math.sqrt(math.log(3)) * 3.0)

    def test_log_factor_clamped_for_tiny_q(self):
        est = spectral_decay_estimate(np.eye(8), 2, 10, seed=0)
        assert est.bound_terms[1] == pytest.approx(1.0)  # sqrt(log 2) < 1 clamps

    def test_q_out_of_range(self):
        with pytest.raises(OutOfRangeError):
            spectral_decay_estimate(np.eye(8), 0.5, 10, seed=0)

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_seed_pins_bytes(self, monkeypatch, threads):
        # n/q = 20/6 is not an integer: the ceil(n/q) = 4 longest of 20
        # distinct column lengths are averaged
        monkeypatch.setenv("MATSKETCH_THREADS", threads)
        a = np.random.default_rng(0).normal(size=(20, 20))
        assert decay_digests(spectral_decay_estimate(a, 6, trials=50, seed=0)) == {
            "samples": "11dd89a9e2b4c8f8896c2216477a55b4eacceba677fca0b34931499da2d24640",
            "subset_sizes": "936e8250446ba262baf52ab7ccb1e69ae0f07d97d735b4780e3f553065f3bfe8",
            "bound_terms": "41546cdbb84466cd72c8f86865d1bb33b361f2082a735decc45d175dca0dc0a5",
        }


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

    @pytest.mark.parametrize("a", [[np.inf, 1.0], [1.0, np.nan], [np.nan, 1.0], [2.0, 1.0, np.inf]])
    def test_non_finite_entries(self, a):
        # 0 * inf is NaN, so such an entry would turn the estimate into NaN
        with pytest.raises(OutOfRangeError, match="finite"):
            order_statistics_check(np.array(a), 0.9, 10, seed=0)

    def test_matches_masked_maximum(self, rng):
        # the largest included entry, taken as the first one, equals
        # max(mask * seq) bit for bit on a nonincreasing sequence with ties
        a = np.sort(rng.integers(0, 5, size=40).astype(float))[::-1]
        delta, trials = 0.1, 3000
        mask = spawn(3).random((trials, a.size)) < delta
        expected = (np.sqrt(np.log(math.e + mask.sum(axis=1))) * (mask * a).max(axis=1)).mean()
        assert order_statistics_check(a, delta, trials, seed=3)[0] == float(expected)


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

    @pytest.mark.parametrize("maker", [witness_all_ones, witness_identity, witness_random_sign])
    def test_size_beyond_memory_refused_before_allocating(self, monkeypatch, maker):
        # 64 KiB of physical memory: a 1024 x 1024 witness needs 8 MiB
        monkeypatch.setattr(os, "sysconf", {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 16}.__getitem__)
        with pytest.raises(TooLargeError, match="1024x1024"):
            maker(1024)


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
