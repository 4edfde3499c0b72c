"""matsketch: randomized row sampling, low-rank approximation, and
submatrix norm-decay experiments for dense real matrices."""

from .approx import (
    ApproxReport,
    BoundCheck,
    OptimalityResult,
    approximation_error,
    block_identity_matrix,
    low_rank_approximate,
    optimality_experiment,
    projection_error_bound,
    projector_top_k,
)
from .cutnorm import (
    CutNormResult,
    DecayEstimate,
    bernoulli_subset,
    cut_decay_estimate,
    cut_norm_exact,
    inf_to_one_norm_exact,
    order_statistics_check,
    spectral_decay_estimate,
    witness_all_ones,
    witness_identity,
    witness_random_sign,
)
from .errors import (
    Error,
    InvalidMatrixError,
    InvariantError,
    NotReplayableError,
    NotSortedError,
    NotSquareError,
    OutOfRangeError,
    ParseError,
    ShapeMismatchError,
    TooLargeError,
    ZeroMatrixError,
)
from .linalg import (
    SvdResult,
    numerical_rank,
    spectral_norm,
    svd,
    sym_spectral_norm,
)
from .lln import (
    DeviationStats,
    lln_deviation,
    matrix_rows_ensemble,
    scaled_basis_ensemble,
)
from .matio import open_stream, read_matrix, write_binary, write_csv, write_matrixmarket
from .reports import ExperimentReport
from .sampling import (
    Sketch,
    WeightPass,
    required_sample_size,
    row_distribution,
    sample_sketch,
    sample_sketch_one_pass,
)
from .streams import MatrixRowStream, RowStream

__version__ = "0.1.0"
