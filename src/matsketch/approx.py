"""Rank-k projectors from sketches and the approximation-error machinery.

The projector acts on input space: it is assembled from the sketch's right
singular vectors, i.e. the top eigenvectors of the sketch Gram matrix.  (A
d x n sketch's left singular vectors live in R^d and cannot project R^n;
see README "Design notes".)  Singular directions whose values vanish at
working precision are dropped, so the projector rank never exceeds the
numerical rank of the sketch: a sketch that misses part of the row space
yields a genuinely smaller projector instead of an arbitrary completion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .errors import InvariantError, OutOfRangeError, ShapeMismatchError, ZeroMatrixError
from .linalg import _singular_values, as_matrix, spectral_norm, sym_spectral_norm
from .parallel import run_trials
from .rng import as_generator
from .sampling import (
    Sketch,
    draw_weighted_indices,
    materialize_chosen,
    required_sample_size,
    sample_sketch,
    sample_sketch_one_pass,
    stream_weights,
)
from .streams import MatrixRowStream, RowStream

# squared values read off a Gram matrix below this many n * eps * |G|_2 are
# recomputed exactly from the matrix
_GRAM_FLOOR = 1e3


@dataclass(frozen=True)
class Projector:
    """Orthogonal projection onto the span of ``basis`` columns (in R^n)."""

    basis: np.ndarray

    @property
    def k(self) -> int:
        return self.basis.shape[1]

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    def matrix(self) -> np.ndarray:
        return self.basis @ self.basis.T

    def apply_to_rows(self, a) -> np.ndarray:
        """Project each row of ``a``: returns a @ basis @ basis.T."""
        arr = as_matrix(a, allow_empty=True)
        if arr.shape[1] != self.dim:
            raise ShapeMismatchError(
                f"matrix has {arr.shape[1]} columns, projector lives in R^{self.dim}"
            )
        return (arr @ self.basis) @ self.basis.T


def projector_top_k(sketch: Sketch, k: int) -> Projector:
    """Projection onto the top-k right singular vectors of the sketch.

    k = 0 is the zero map.  Directions with numerically zero singular value
    are excluded, so the returned rank is min(k, rank of the sketch).
    """
    mat = sketch.matrix
    n = mat.shape[1]
    if k < 0 or k > n:
        raise ShapeMismatchError(f"k must lie in [0, {n}], got {k}")
    if k == 0:
        return Projector(basis=np.zeros((n, 0)))
    u, s, vh = np.linalg.svd(mat, full_matrices=False)
    cutoff = s[0] * max(mat.shape) * np.finfo(np.float64).eps if s.size else 0.0
    effective = min(k, int(np.count_nonzero(s > cutoff)))
    return Projector(basis=vh[:effective].T.copy())


def approximation_error(a, projector: Projector) -> float:
    """Spectral norm of a - a P."""
    arr = as_matrix(a)
    return spectral_norm(arr - projector.apply_to_rows(arr))


class BoundCheck(NamedTuple):
    lhs: float
    rhs: float
    holds: bool


def projection_error_bound(a, sketch: Sketch, k: int) -> BoundCheck:
    """Deterministic comparison of the projection error with the Gram gap.

    lhs = |a - a P_k|_2^2, rhs = sigma_{k+1}(a)^2 + 2 |a^T a - s^T s|_2
    where s is the sketch.  Holds for every matrix, sketch, and k: this is
    the deterministic inequality of Drineas, Kannan and Mahoney ("Fast
    Monte Carlo algorithms for matrices II", SIAM J. Comput. 36, 2006).
    Computed exactly from ``a``; it is the reference for the Gram
    certificate of ``low_rank_approximate``.
    """
    arr = as_matrix(a)
    if sketch.matrix.shape[1] != arr.shape[1]:
        raise ShapeMismatchError(
            f"sketch has {sketch.matrix.shape[1]} columns, matrix has {arr.shape[1]}"
        )
    projector = projector_top_k(sketch, k)
    lhs = approximation_error(arr, projector) ** 2
    values = _singular_values(arr)
    sigma_next = float(values[k]) if k < values.size else 0.0
    gram_gap = sym_spectral_norm(arr.T @ arr - sketch.gram())
    rhs = sigma_next**2 + 2.0 * gram_gap
    return BoundCheck(lhs=lhs, rhs=rhs, holds=bool(lhs <= rhs + 1e-8))


@dataclass(frozen=True)
class ApproxReport:
    """Outcome of one end-to-end approximation run.

    ``numerical_rank`` is |A|_F^2 / lambda_max(A^T A), taken from the n x n
    Gram matrix G = A^T A of the weight pass; it is None for single-shot
    streams, which never form G.  The certificate fields (``sigma_kplus1``,
    ``error_spectral``, ``bound``, ``gram_deviation``, ``satisfied``)
    default to None, which is what streams report.  For in-memory matrices
    they come from G as well:
    sigma_{k+1}^2 is the (k+1)-th largest eigenvalue of G,
    |A - AP|_2^2 = lambda_max((I-P) G (I-P)) and ``gram_deviation`` is
    |G - S^T S|_2 for the sketch S.  Where G is too coarse for a value (see
    ``_certify``), sigma_{k+1} and the error are recomputed exactly from A.
    """

    k: int
    d: int
    epsilon: float
    delta: float
    numerical_rank: float | None
    sigma_kplus1: float | None = None
    error_spectral: float | None = None
    bound: float | None = None
    gram_deviation: float | None = None
    satisfied: bool | None = None


def low_rank_approximate(
    source,
    k: int,
    epsilon: float,
    delta: float,
    c_constant: float = 1.0,
    seed: int = 0,
    d: int | None = None,
) -> tuple[Projector, ApproxReport]:
    """Sample a sketch sized by the numerical rank and build its projector.

    ``source`` is a dense matrix or a RowStream.  Dense matrices and
    replayable streams run the same two-pass sampling and give the same
    d, numerical rank and projector for the same seed; single-shot streams
    take one traversal but require an explicit ``d`` (the reservoir count
    must be fixed before the pass).  ``d`` overrides the sample-size
    formula in every mode.
    """
    if not 0 < epsilon < 1:
        raise OutOfRangeError(f"epsilon must lie in (0, 1), got {epsilon}")
    if not 0 < delta < 1:
        raise OutOfRangeError(f"delta must lie in (0, 1), got {delta}")
    stream = source if isinstance(source, RowStream) else MatrixRowStream(source)
    if stream.replayable:
        run = _sample_two_pass(stream, k, epsilon, delta, c_constant, seed, d)
        projector, rank, d = run.projector, run.rank, run.sketch.d
    elif d is None:
        raise OutOfRangeError(
            "single-shot streams need an explicit sketch size d; "
            "the sample-size formula requires a replayable source"
        )
    else:
        projector = projector_top_k(sample_sketch_one_pass(stream, d, seed), k)
        rank = None
    report = ApproxReport(
        k=int(k),
        d=int(d),
        epsilon=float(epsilon),
        delta=float(delta),
        numerical_rank=rank,
    )
    if stream is source:
        # only an in-memory matrix is at hand for the exact fallback of _certify
        return projector, report
    sigma_next, error, gram_deviation = _certify(stream.matrix, run, k)
    top = math.sqrt(float(run.eigenvalues[-1]))
    bound = sigma_next + epsilon * top
    satisfied = bool(error <= bound * (1.0 + 1e-12))
    # small Gram deviation forces success: error^2 <= sigma^2 + 2*dev
    if not satisfied and gram_deviation <= 0.5 * (epsilon * top) ** 2 - 1e-9 * top**2:
        raise InvariantError(
            f"error {error!r} exceeds the bound {bound!r} although the Gram deviation "
            f"{gram_deviation!r} is at most (epsilon * |A|_2)^2 / 2"
        )
    return projector, replace(
        report,
        sigma_kplus1=sigma_next,
        error_spectral=error,
        bound=bound,
        gram_deviation=gram_deviation,
        satisfied=satisfied,
    )


class _TwoPass(NamedTuple):
    projector: Projector
    sketch: Sketch
    gram: np.ndarray
    eigenvalues: np.ndarray  # of gram, ascending
    rank: float


def _sample_two_pass(stream, k, epsilon, delta, c_constant, seed, d) -> _TwoPass:
    """Weight-and-Gram pass, index draw and materialise pass, then the projector."""
    weights, total_sq, gram = stream_weights(stream, accumulate_gram=True)
    if total_sq <= 0.0:
        raise ZeroMatrixError("cannot approximate the zero matrix")
    eigenvalues = np.linalg.eigvalsh(gram)
    rank = total_sq / float(eigenvalues[-1])
    if d is None:
        # the Gram ratio of a rank-one matrix can round to just below 1
        d = required_sample_size(max(1.0, rank), epsilon, delta, c_constant)
    elif d < 1:
        raise OutOfRangeError(f"sketch size d must be >= 1, got {d}")
    positions = draw_weighted_indices(weights, d, as_generator(seed))
    sketch = materialize_chosen(stream, positions, weights, total_sq, d, seed)
    return _TwoPass(projector_top_k(sketch, k), sketch, gram, eigenvalues, rank)


def _certify(arr: np.ndarray, run: _TwoPass, k: int) -> tuple[float, float, float]:
    """sigma_{k+1}, |A - AP|_2 and |A^T A - S^T S|_2 from the Gram matrix G.

    Squared values read off G carry an absolute error of order
    n * eps * |G|_2 (the condition number is squared).  So sigma_{k+1} and
    the error are recomputed exactly from ``arr`` when either squared value
    falls below ``_GRAM_FLOOR * n * eps * |G|_2``, or when the Gram values
    break error^2 <= sigma_{k+1}^2 + 2 * deviation, which exact values
    always satisfy (see ``projection_error_bound``).
    """
    gram, lam, basis = run.gram, run.eigenvalues, run.projector.basis
    n = gram.shape[0]
    lam_next = float(lam[n - 1 - k]) if k < n else 0.0
    # (I - P) G (I - P) with P = basis @ basis.T
    left = gram - basis @ (basis.T @ gram)
    residual = left - (left @ basis) @ basis.T
    error_sq = float(np.linalg.eigvalsh(0.5 * (residual + residual.T))[-1])
    gram_deviation = sym_spectral_norm(gram - run.sketch.gram())
    floor = _GRAM_FLOOR * n * np.finfo(np.float64).eps * float(lam[-1])
    coarse = error_sq < floor or (k < n and lam_next < floor)
    if coarse or error_sq > lam_next + 2.0 * gram_deviation:
        values = _singular_values(arr)
        sigma_next = float(values[k]) if k < values.size else 0.0
        return sigma_next, approximation_error(arr, run.projector), gram_deviation
    return math.sqrt(lam_next), math.sqrt(error_sq), gram_deviation


def block_identity_matrix(n: int, m: int) -> np.ndarray:
    """m x n matrix of m/n stacked identical-row blocks, orthonormal columns.

    Row i (1-based) has a single entry sqrt(n/m) in column ceil(n*i/m); each
    column carries m/n such entries, so spectral norm is 1 and the squared
    Frobenius norm is n.
    """
    if n < 1 or m <= n or m % n != 0:
        raise ShapeMismatchError(f"need n < m with n dividing m, got n={n}, m={m}")
    arr = np.zeros((m, n))
    value = math.sqrt(n / m)
    for i in range(1, m + 1):
        arr[i - 1, math.ceil(n * i / m) - 1] = value
    return arr


def _block_of_row(row_index: int, n: int, m: int) -> int:
    return math.ceil(n * (row_index + 1) / m) - 1


@dataclass(frozen=True)
class OptimalityResult:
    """Per-trial record of block coverage and projection failure."""

    failure_fraction: float
    missed_block_fraction: float
    failed: np.ndarray
    missed_blocks: np.ndarray
    errors: np.ndarray


def optimality_experiment(n: int, m: int, d: int, trials: int, seed: int = 0) -> OptimalityResult:
    """Sample the block-identity witness and test the full-rank projector.

    A trial "misses a block" when none of its rows is drawn; the witness
    column of that block then lies in the projector kernel and the
    approximation error is at least 1.
    """
    if d < 1:
        raise OutOfRangeError(f"d must be >= 1, got {d}")
    arr = block_identity_matrix(n, m)

    def run(rng):
        sketch = sample_sketch(arr, d, rng)
        blocks = {_block_of_row(int(i), n, m) for i in sketch.chosen_indices}
        missed = n - len(blocks)
        error = approximation_error(arr, projector_top_k(sketch, n))
        return missed, error

    outcomes = run_trials(run, trials, seed)
    missed_blocks = np.array([o[0] for o in outcomes], dtype=np.int64)
    errors = np.array([o[1] for o in outcomes])
    failed = errors >= 1.0 - 1e-6
    return OptimalityResult(
        failure_fraction=float(failed.mean()),
        missed_block_fraction=float((missed_blocks > 0).mean()),
        failed=failed,
        missed_blocks=missed_blocks,
        errors=errors,
    )
