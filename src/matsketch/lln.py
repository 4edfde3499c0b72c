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

from .errors import OutOfRangeError, ShapeMismatchError, ZeroMatrixError
from .linalg import as_matrix
from .parallel import run_trials
from .rng import as_generator
from .sampling import draw_weighted_indices, row_weights, total_weight


@dataclass(frozen=True)
class VectorEnsemble:
    """Discrete distribution over row vectors ("atoms") in R^n.

    ``bound`` is the maximum atom length M and ``second_moment`` the exact
    E y (x) y, normalized to spectral norm at most 1.
    """

    kind: str
    dimension: int
    bound: float
    second_moment: np.ndarray
    atoms: np.ndarray
    probabilities: np.ndarray

    def sample(self, rng_or_seed, size: int) -> np.ndarray:
        rng = as_generator(rng_or_seed)
        idx = draw_weighted_indices(self.probabilities, size, rng)
        return self.atoms[idx]

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
        kind="scaled_basis",
        dimension=n,
        bound=math.sqrt(n),
        second_moment=np.eye(n),
        atoms=math.sqrt(n) * np.eye(n),
        probabilities=np.full(n, 1.0 / n),
    )


def matrix_rows_ensemble(a) -> VectorEnsemble:
    """Length-normalized rows of ``a`` weighted by squared length.

    The matrix is rescaled by its spectral norm first, so the exact second
    moment (the rescaled Gram matrix) has unit spectral norm.
    """
    arr = as_matrix(a)
    weights = row_weights(arr)
    total = total_weight(weights)
    if total <= 0.0:
        raise ZeroMatrixError("ensemble needs at least one nonzero row")
    top = float(np.linalg.svd(arr, compute_uv=False)[0])
    arr = arr / top
    weights = weights / top**2
    total = total / top**2
    fro = math.sqrt(total)
    keep = weights > 0
    atoms = arr[keep] * (fro / np.sqrt(weights[keep]))[:, None]
    return VectorEnsemble(
        kind="matrix_rows",
        dimension=arr.shape[1],
        bound=fro,
        second_moment=arr.T @ arr,
        atoms=atoms,
        probabilities=weights[keep] / total,
    )


def empirical_second_moment(samples) -> np.ndarray:
    """(1/d) sum of y y^T over the sample rows; symmetric PSD."""
    arr = np.asarray(samples, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[0] == 0:
        raise ShapeMismatchError("need a nonempty 2-d array of sample rows")
    if not np.isfinite(arr).all():
        raise ShapeMismatchError("samples must be finite")
    gram = arr.T @ arr / arr.shape[0]
    return 0.5 * (gram + gram.T)


@dataclass(frozen=True)
class DeviationStats:
    d: int
    trials: int
    deviations: np.ndarray
    mean: float
    max: float
    a_value: float


def lln_deviation(
    ensemble: VectorEnsemble, d: int, trials: int, seed: int = 0, c_constant: float = 1.0
) -> DeviationStats:
    """Per-trial spectral-norm deviation of the empirical second moment.

    Trial t draws d atoms with the generator spawned from (seed, t).  The
    empirical moment is accumulated atom by atom (sum_i y_i y_i^T equals
    sum_j count_j v_j v_j^T) and its deviation from the exact moment is read
    off a symmetric eigensolver.
    """
    if d < 2:
        raise OutOfRangeError(f"d must be >= 2, got {d}")
    atoms = ensemble.atoms
    exact = ensemble.second_moment

    def run(rng) -> float:
        counts = ensemble.sample_counts(rng, d)
        empirical = atoms.T @ (counts[:, None] * atoms) / d
        gap = 0.5 * (empirical + empirical.T) - exact
        return float(np.abs(np.linalg.eigvalsh(gap)).max())

    deviations = np.array(run_trials(run, trials, seed))
    a_value = c_constant * math.sqrt(math.log(d) / d) * ensemble.bound
    return DeviationStats(
        d=int(d),
        trials=int(trials),
        deviations=deviations,
        mean=float(deviations.mean()),
        max=float(deviations.max()),
        a_value=float(a_value),
    )


def tail_bound_eval(a: float, t: float, c_constant: float = 1.0) -> float:
    """Large-deviation tail value min(1, 2 exp(-c t^2 / a^2))."""
    if not a > 0:
        raise OutOfRangeError(f"a must be positive, got {a}")
    if not 0 < t < 1:
        raise OutOfRangeError(f"t must lie in (0, 1), got {t}")
    if not c_constant > 0:
        raise OutOfRangeError(f"c_constant must be positive, got {c_constant}")
    return min(1.0, 2.0 * math.exp(-c_constant * t**2 / a**2))


def rademacher_moment_check(vectors, p: float, trials: int, seed: int = 0):
    """Monte-Carlo p-th moment of |sum_i e_i y_i (x) y_i|_2 over random signs.

    Returns (lhs_estimate, rhs_factor) where rhs_factor is the deterministic
    comparison quantity sqrt(p + log k) * max_i |y_i| * |sum_i y_i (x) y_i|^(1/2)
    with k = min(sample count, ambient dimension); callers divide to fit the
    leading constant.
    """
    arr = np.asarray(vectors, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[0] == 0:
        raise ShapeMismatchError("need a nonempty 2-d array of vectors")
    if p < 1:
        raise OutOfRangeError(f"p must be >= 1, got {p}")
    if trials < 1:
        raise OutOfRangeError(f"trials must be >= 1, got {trials}")
    d, n = arr.shape
    rng = as_generator(seed)
    signs = rng.integers(0, 2, size=(trials, d)) * 2 - 1
    signed_sums = np.einsum("ti,ij,ik->tjk", signs, arr, arr, optimize=True)
    norms = np.abs(np.linalg.eigvalsh(signed_sums)).max(axis=1)
    lhs = float(np.mean(norms**p) ** (1.0 / p))
    k = min(d, n)
    unsigned = np.abs(np.linalg.eigvalsh(arr.T @ arr)).max()
    rhs = math.sqrt(p + math.log(k)) * float(np.linalg.norm(arr, axis=1).max()) * math.sqrt(unsigned)
    return lhs, float(rhs)
