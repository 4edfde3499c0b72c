"""Rank-k projectors from sketches and the approximation-error machinery.

The projector acts on input space and is handed out as its orthonormal
basis B, a plain n x k' float64 array (the projection is B @ B.T, never
formed): the sketch's top right singular vectors, i.e. the top
eigenvectors of the sketch Gram matrix, taken from the SVD of the
sketch's n x n R factor, which TSQR folds from the sketch's distinct rows
(``Sketch.blocks``).  (A d x n sketch's left singular vectors live in R^d
and cannot project R^n; none is formed, nor is the d x n sketch itself.
See README "Design notes".)  Singular directions whose values vanish at
working precision are dropped, so k' never exceeds the numerical rank of
the sketch: a sketch that misses part of the row space yields a genuinely
smaller projector instead of an arbitrary completion.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import InvariantError, OutOfRangeError, ShapeMismatchError
from .linalg import as_matrix, require_allocatable, spectral_norm, sym_spectral_norm
from .parallel import check_trials, run_trials
from .sampling import (
    Sketch,
    check_parameters,
    check_sketch_size,
    required_sample_size,
    sample_sketch_one_pass,
    stream_weights,
)
from .streams import MatrixRowStream, RowStream

# squared values read off a Gram matrix below this many n * eps * |G|_2 are
# recomputed exactly from the matrix
_GRAM_FLOOR = 1e3


def projector_top_k(sketch: Sketch, k: int) -> np.ndarray:
    """Orthonormal basis (n x k') of the sketch's top-k right singular vectors.

    The projection onto their span is ``basis @ basis.T``; k = 0 gives an
    n x 0 basis, the zero map.  Directions with numerically zero singular
    value are excluded, so k' = min(k, rank of the sketch).  A d x n
    sketch S = QR has the singular values and right singular vectors of
    its R, at most n x n, so only R is decomposed.  R is folded from
    ``sketch.blocks()``, whose rows have S's Gram matrix, so neither S nor
    any other d x n factor is formed.  The cutoff stays relative to S's
    shape.
    """
    n = sketch.rows.shape[1]
    check_k(k, n)
    _, s, vh = np.linalg.svd(_r_factor(sketch.blocks(), n), full_matrices=False)
    cutoff = s[0] * max(sketch.d, n) * np.finfo(np.float64).eps if s.size else 0.0
    effective = min(k, int(np.count_nonzero(s > cutoff)))
    return vh[:effective].T.copy()


def _r_factor(blocks, n: int) -> np.ndarray:
    """The R of A = QR, A the rows of ``blocks`` stacked, folded block by block.

    TSQR (Demmel, Grigori, Hoemmen, Langou, SIAM J. Sci. Comput. 34, 2012):
    each block is stacked under the R so far and factored again, so A is
    never formed.  R^T R = A^T A, so R has A's singular values and right
    singular vectors.
    """
    r = np.empty((0, n))
    for block in blocks:
        r = np.linalg.qr(np.vstack((r, block)) if r.size else block, mode="r")
    return r


def check_k(k: int, n: int) -> None:
    """ShapeMismatchError unless 0 <= k <= n."""
    if k < 0 or k > n:
        raise ShapeMismatchError(f"k must lie in [0, {n}], got {k}")


def approximation_error(a, basis: np.ndarray) -> float:
    """Spectral norm of a - a P, P = basis @ basis.T the projection onto its columns."""
    arr = as_matrix(a)
    if arr.shape[1] != basis.shape[0]:
        raise ShapeMismatchError(
            f"matrix has {arr.shape[1]} columns, projector lives in R^{basis.shape[0]}"
        )
    return spectral_norm(arr - (arr @ basis) @ basis.T)


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
    if sketch.rows.shape[1] != arr.shape[1]:
        raise ShapeMismatchError(
            f"sketch has {sketch.rows.shape[1]} columns, matrix has {arr.shape[1]}"
        )
    lhs = approximation_error(arr, projector_top_k(sketch, k)) ** 2
    values = np.linalg.svd(arr, compute_uv=False)
    sigma_next = float(values[k]) if k < values.size else 0.0
    gram_gap = sketch.deviation(arr.T @ arr)
    rhs = sigma_next**2 + 2.0 * gram_gap
    return BoundCheck(lhs=lhs, rhs=rhs, holds=bool(lhs <= rhs + 1e-8))


class ApproxReport(NamedTuple):
    """Outcome of one end-to-end approximation run.

    ``numerical_rank`` is |A|_F^2 / lambda_max(A^T A), taken from the n x n
    Gram matrix G = A^T A of the weight pass.  The certificate fields
    (``sigma_kplus1``, ``error_spectral``, ``bound``, ``gram_deviation``,
    ``satisfied``) come from G as well: sigma_{k+1}^2 is the (k+1)-th
    largest eigenvalue of G, |A - AP|_2^2 = lambda_max((I-P) G (I-P)) and
    ``gram_deviation`` is |G - S^T S|_2 for the sketch S.  Where G is too
    coarse for a value (see ``_certify``), sigma_{k+1} and the error are
    recomputed exactly from an R factor of A.  Single-shot streams never
    form G, so they report None for the rank and every certificate field.
    """

    d: int
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
) -> tuple[np.ndarray, ApproxReport]:
    """Sample a sketch sized by the numerical rank; return its projector's basis and the report.

    ``source`` is a matrix, run as a ``MatrixRowStream``, or a RowStream, so a
    matrix and a stream of its rows give one report for one seed.  A
    replayable source's Gram pass (``stream_weights``) gives the rank and d
    and rejects a zero matrix; its ``WeightPass.draw`` draws and gathers the
    rows and ``_certify`` certifies the projector.  A single-shot stream takes one
    traversal, needs ``d`` (it fixes the reservoir count) and is not
    certified.  ``d`` overrides the sample-size formula in every mode.  A bad
    ``epsilon``, ``delta``, ``c_constant``, ``d`` (``check_parameters``) or
    ``k`` is refused before any row is read.
    """
    check_parameters(epsilon, delta, c_constant, d)
    stream = source if isinstance(source, RowStream) else MatrixRowStream(source)
    check_k(k, stream.n_cols)
    if not stream.replayable:
        if d is None:
            raise OutOfRangeError(
                "single-shot streams need an explicit sketch size d; "
                "the sample-size formula requires a replayable source"
            )
        basis = projector_top_k(sample_sketch_one_pass(stream, d, seed), k)
        return basis, ApproxReport(d=int(d), numerical_rank=None)
    first = stream_weights(stream, accumulate_gram=True)
    eigenvalues = np.linalg.eigvalsh(first.gram)
    rank = first.total_sq / float(eigenvalues[-1])
    if d is None:
        # the Gram ratio of a rank-one matrix can round to just below 1
        d = required_sample_size(max(1.0, rank), epsilon, delta, c_constant)
    sketch = first.draw(d, seed)
    basis = projector_top_k(sketch, k)
    sigma_next, error, gram_deviation = _certify(first, eigenvalues, sketch, basis, k)
    top = math.sqrt(float(eigenvalues[-1]))
    bound = sigma_next + epsilon * top
    satisfied = bool(error <= bound * (1.0 + 1e-12))
    # small Gram deviation forces success: error^2 <= sigma^2 + 2*dev
    if not satisfied and gram_deviation <= 0.5 * (epsilon * top) ** 2 - 1e-9 * top**2:
        raise InvariantError(
            f"error {error!r} exceeds the bound {bound!r} although the Gram deviation "
            f"{gram_deviation!r} is at most (epsilon * |A|_2)^2 / 2"
        )
    return basis, ApproxReport(
        d=int(d), numerical_rank=rank, sigma_kplus1=sigma_next, error_spectral=error, bound=bound,
        gram_deviation=gram_deviation, satisfied=satisfied,
    )


def _certify(first, lam, sketch, basis, k) -> tuple[float, float, float]:
    """sigma_{k+1}, |A - AP|_2 and |A^T A - S^T S|_2 from the Gram matrix G.

    ``first`` is the weight pass over A that carries G = ``first.gram``,
    ``lam`` holds the eigenvalues of G in ascending order, S is ``sketch`` and P is
    ``basis @ basis.T``.  error^2 = |(I - P) G (I - P)|_2 and the deviation both go
    through ``sym_spectral_norm``.  Squared values read off G carry an absolute error
    of order n * eps * |G|_2 (the condition number is squared).  So sigma_{k+1}
    and the error are recomputed exactly when either squared value falls
    below ``_GRAM_FLOOR * n * eps * |G|_2``, or when the Gram values break
    error^2 <= sigma_{k+1}^2 + 2 * deviation, which exact values always
    satisfy (see ``projection_error_bound``): from the R of A = QR, folded
    block by block (TSQR; Demmel, Grigori, Hoemmen, Langou, SIAM J. Sci.
    Comput. 34, 2012).  Q has orthonormal columns, so sigma(R) = sigma(A)
    and |A - AP|_2 = |R - RP|_2.  Only the fallback reads A again, through
    ``first.replay()``, which checks each row against the weight pass.
    """
    n = first.gram.shape[0]
    lam_next = float(lam[n - 1 - k]) if k < n else 0.0
    # (I - P) G (I - P) is PSD: its computed negative eigenvalues are rounding of
    # order n * eps * |G|_2, far below the floor, so the norm is its top eigenvalue
    # whenever error^2 >= floor; below the floor, coarse takes the exact fallback
    work = first.gram - basis @ (basis.T @ first.gram)
    work -= (work @ basis) @ basis.T
    error_sq = sym_spectral_norm(work)
    del work  # freed before the sketch's Gram is formed
    gram_deviation = sketch.deviation(first.gram)
    floor = _GRAM_FLOOR * n * np.finfo(np.float64).eps * float(lam[-1])
    coarse = error_sq < floor or (k < n and lam_next < floor)
    if coarse or error_sq > lam_next + 2.0 * gram_deviation:
        r = _r_factor(first.replay(), n)
        values = np.linalg.svd(r, compute_uv=False)
        sigma_next = float(values[k]) if k < values.size else 0.0
        return sigma_next, approximation_error(r, basis), gram_deviation
    return math.sqrt(lam_next), math.sqrt(error_sq), gram_deviation


def block_identity_matrix(n: int, m: int) -> np.ndarray:
    """m x n matrix of m/n stacked identical-row blocks, orthonormal columns.

    Row i (0-based) has a single entry sqrt(n/m) in column i // (m/n), the
    block it lies in; each column carries m/n such entries, so spectral norm
    is 1 and the squared Frobenius norm is n.  Its memory is checked first.
    """
    if n < 1 or m <= n or m % n != 0:
        raise ShapeMismatchError(f"need n < m with n dividing m, got n={n}, m={m}")
    require_allocatable(m, n)
    arr = np.zeros((m, n))
    rows = np.arange(m)
    arr[rows, rows // (m // n)] = math.sqrt(n / m)
    return arr


class OptimalityResult(NamedTuple):
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
    approximation error is at least 1.  ``d`` and ``trials`` are checked
    first.  One weight pass over the witness serves every trial's draw.
    """
    check_sketch_size(d)
    check_trials(trials)
    arr = block_identity_matrix(n, m)
    first = stream_weights(MatrixRowStream(arr))

    def run(rng):
        sketch = first.draw(d, rng)
        drawn_per_block = np.bincount(sketch.chosen_indices // (m // n), minlength=n)
        missed = n - np.count_nonzero(drawn_per_block)
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
