"""Empirical concentration of sums of rank-one outer products, on the sampling core.

The random vector y is a row of a matrix A drawn with probability
|a_i|^2 / |A|_F^2 and rescaled to length M = |A|_F / |A|_2, so that
E y (x) y = A^T A / |A|_2^2 has spectral norm 1.  An ensemble is the
``sampling.WeightPass`` over A's rows that carries G = A^T A; d draws of y
are a sketch S of A (``WeightPass.draw``), and (1/d) sum y y^T is
S^T S / |A|_2^2.  So each ``lln_deviation`` trial is ``Sketch.deviation``,
|G - S^T S|_2 over |A|_2^2: the Gram deviation that ``approx`` certifies,
by the same code, scaled.  The deviation scale to compare against is
a = C * sqrt(log(d)/d) * M.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import OutOfRangeError
from .linalg import require_allocatable
from .parallel import check_trials, run_trials
from .sampling import (
    DRAW_WORDS, WeightPass, check_c_constant, check_gram_size, check_sketch_size, stream_weights,
)
from .streams import MatrixRowStream


def scaled_basis_ensemble(n: int) -> WeightPass:
    """sqrt(n) e_1 ... sqrt(n) e_n, uniform, as the rows of the n x n identity; second moment I.

    Its n x n arrays are checked by ``check_gram_size`` before the identity is built.
    """
    if n < 1:
        raise OutOfRangeError(f"dimension must be >= 1, got {n}")
    check_gram_size(n)
    return matrix_rows_ensemble(np.eye(n))


def matrix_rows_ensemble(a) -> WeightPass:
    """The rows of ``a`` weighted by squared length: ``stream_weights``' Gram pass.

    A zero matrix raises ZeroMatrixError, and a Gram matrix beyond physical
    memory TooLargeError, in ``stream_weights``.
    """
    return stream_weights(MatrixRowStream(a), accumulate_gram=True)


class DeviationStats(NamedTuple):
    deviations: np.ndarray
    mean: float
    max: float
    a_value: float


def check_deviation_arguments(d: int, trials: int, c_constant: float = 1.0) -> None:
    """``lln_deviation``'s first check, which needs no data.

    OutOfRangeError unless d >= 2, trials >= 1 and 0 < c_constant < inf;
    TooLargeError if d draws exceed memory (``sampling.check_sketch_size``).
    """
    if d < 2:
        raise OutOfRangeError(f"d must be >= 2, got {d}")
    check_sketch_size(d)
    check_trials(trials)
    check_c_constant(c_constant)


def check_trial_size(m: int, n: int, d: int) -> None:
    """TooLargeError if an m x n ensemble and one trial of d draws exceed physical memory.

    After ``check_gram_size``, in rows of n words: the input's m, G and two n x n work
    arrays, the sketch's u = min(d, m) distinct rows, the larger of its copy of up to u
    repeated rows and the eigensolver's n x n copy, 5m words of weights and the draw's
    extended-precision sums, and ``DRAW_WORDS`` a draw: 6.1 n^2 for the scaled basis at
    n = 300, d = 1000, where tracemalloc measures 5.85 n^2 without the eigensolver's copy.
    """
    n = max(n, 1)  # a smaller width is refused where the ensemble is built
    u = min(d, m)
    check_gram_size(n)
    require_allocatable(m + 3 * n + u + max(u, n) + (5 * m + DRAW_WORDS * d) // n + 1, n)


def lln_deviation(
    ensemble: WeightPass, d: int, trials: int, seed: int = 0, c_constant: float = 1.0
) -> DeviationStats:
    """Per-trial spectral-norm deviation of the empirical second moment.

    ``ensemble`` is a weight pass that carries its Gram matrix G; one without
    raises OutOfRangeError before any draw.  |A|_2^2 is G's top eigenvalue.
    Trial t draws a sketch S of d rows with the generator spawned from
    (seed, t) and returns |G - S^T S|_2 / |A|_2^2.
    """
    check_deviation_arguments(d, trials, c_constant)
    if ensemble.gram is None:
        raise OutOfRangeError("an ensemble needs the Gram matrix of its weight pass")
    top_sq = float(np.linalg.eigvalsh(ensemble.gram)[-1])

    def run(rng) -> float:
        return ensemble.draw(d, rng).deviation(ensemble.gram) / top_sq

    deviations = np.array(run_trials(run, trials, seed))
    a_value = c_constant * math.sqrt(math.log(d) / d) * math.sqrt(ensemble.total_sq / top_sq)
    return DeviationStats(
        deviations=deviations,
        mean=float(deviations.mean()),
        max=float(deviations.max()),
        a_value=float(a_value),
    )
