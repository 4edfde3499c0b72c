"""Empirical concentration of sums of rank-one outer products.

A bounded random vector y with |E y (x) y|_2 <= 1 is modelled as a discrete
ensemble of atoms with probabilities.  ``lln_deviation`` measures, per
trial, the spectral-norm distance between the empirical second moment of d
draws and the exact one.  The deviation scale to compare against is
a = C * sqrt(log(d)/d) * M with M the norm bound of the ensemble.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import OutOfRangeError
from .parallel import check_trials, run_trials
from .rng import as_generator
from .sampling import check_c_constant, draw_weighted_indices, stream_weights
from .streams import MatrixRowStream


@dataclass(frozen=True)
class VectorEnsemble:
    """Discrete distribution over row vectors ("atoms") in R^n.

    ``bound`` is the maximum atom length M and ``second_moment`` the exact
    E y (x) y, normalized to spectral norm at most 1.
    """

    bound: float
    second_moment: np.ndarray
    atoms: np.ndarray
    probabilities: np.ndarray

    def sample_counts(self, rng_or_seed, size: int) -> np.ndarray:
        """Draw ``size`` atoms and return how often each atom occurred."""
        rng = as_generator(rng_or_seed)
        idx = draw_weighted_indices(self.probabilities, size, rng)
        return np.bincount(idx, minlength=self.atoms.shape[0])


def scaled_basis_ensemble(n: int) -> VectorEnsemble:
    """Atoms sqrt(n) e_1 ... sqrt(n) e_n, uniform; second moment identity."""
    if n < 1:
        raise OutOfRangeError(f"dimension must be >= 1, got {n}")
    return VectorEnsemble(
        bound=math.sqrt(n),
        second_moment=np.eye(n),
        atoms=math.sqrt(n) * np.eye(n),
        probabilities=np.full(n, 1.0 / n),
    )


def matrix_rows_ensemble(a) -> VectorEnsemble:
    """Length-normalized rows of ``a`` weighted by squared length.

    The matrix is rescaled by its spectral norm first, so the exact second
    moment (the rescaled Gram matrix) has unit spectral norm.  The squared
    norm is the top eigenvalue of the Gram matrix that the weight pass
    accumulates.  A zero matrix raises ZeroMatrixError, and a Gram matrix
    beyond physical memory TooLargeError, in ``stream_weights``.
    """
    stream = MatrixRowStream(a)
    weights, total, gram = stream_weights(stream, accumulate_gram=True)
    top_sq = float(np.linalg.eigvalsh(gram)[-1])
    fro = math.sqrt(total / top_sq)
    keep = weights > 0
    # each atom is its row rescaled to length fro, in place; the spectral norm cancels
    atoms = stream.matrix[keep]
    atoms *= (fro / np.sqrt(weights[keep]))[:, None]
    return VectorEnsemble(
        bound=fro,
        second_moment=gram / top_sq,
        atoms=atoms,
        probabilities=weights[keep] / total,
    )


@dataclass(frozen=True)
class DeviationStats:
    deviations: np.ndarray
    mean: float
    max: float
    a_value: float


def check_deviation_arguments(d: int, trials: int, c_constant: float = 1.0) -> None:
    """OutOfRangeError unless d >= 2, trials >= 1, 0 < c_constant < inf; ``lln_deviation``'s first check."""
    if d < 2:
        raise OutOfRangeError(f"d must be >= 2, got {d}")
    check_trials(trials)
    check_c_constant(c_constant)


def lln_deviation(
    ensemble: VectorEnsemble, d: int, trials: int, seed: int = 0, c_constant: float = 1.0
) -> DeviationStats:
    """Per-trial spectral-norm deviation of the empirical second moment.

    Trial t draws d atoms with the generator spawned from (seed, t).  The
    empirical moment is accumulated over the atoms drawn (sum_i y_i y_i^T
    equals sum_j count_j v_j v_j^T over the at most d atoms with a nonzero
    count) and its deviation from the exact moment is read off a symmetric
    eigensolver.
    """
    check_deviation_arguments(d, trials, c_constant)
    atoms = ensemble.atoms
    exact = ensemble.second_moment

    def run(rng) -> float:
        counts = ensemble.sample_counts(rng, d)
        drawn = np.flatnonzero(counts)
        chosen = atoms[drawn]
        empirical = chosen.T @ (counts[drawn, None] * chosen) / d
        gap = 0.5 * (empirical + empirical.T) - exact
        return float(np.abs(np.linalg.eigvalsh(gap)).max())

    deviations = np.array(run_trials(run, trials, seed))
    a_value = c_constant * math.sqrt(math.log(d) / d) * ensemble.bound
    return DeviationStats(
        deviations=deviations,
        mean=float(deviations.mean()),
        max=float(deviations.max()),
        a_value=float(a_value),
    )

