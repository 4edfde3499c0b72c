"""Command-line harness.

Subcommands::

    matsketch approx-svd   sample a sketch, build the rank-k projector,
                           report the spectral approximation error
    matsketch decay        Monte-Carlo cut-norm or spectral-norm decay of
                           random submatrices of a witness or input matrix
    matsketch lln          deviation of empirical second moments
    matsketch optimality   block-identity coverage/failure experiment

Every command is deterministic given its flags and seed and writes a JSON
report (see report_schema.json) whose ``config`` records every flag of the
subcommand except ``--out``.  Exit codes: 0 success, 2 guarantee
violation under --strict, 64 usage error, 65 data error (including an
input that is not a regular file, an input, its n x n Gram work or a
generated witness too large to allocate, a cut-decay witness larger than
the exact oracle takes, and a linear-algebra routine that fails to
converge: numpy's ``LinAlgError`` is mapped to 65 in ``main`` alone).
``approx-svd``, ``decay`` and ``lln`` open ``--input`` once (``matio.open_stream``
reads its header or first line) and check their numbers against its width
before they build a witness or read a row.
"""

from __future__ import annotations

import argparse
import hashlib
import sys

import numpy as np

from . import approx, cutnorm, lln, matio, parallel, reports, sampling
from .errors import Error
from .streams import RowStream

EXIT_OK = 0
EXIT_VIOLATION = 2
EXIT_USAGE = 64
EXIT_DATA = 65


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="matsketch", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    common = _Parser(add_help=False)
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--out", default="report.json")

    p = sub.add_parser("approx-svd", parents=[common], help="low-rank approximation from a row sketch")
    p.add_argument("--input", required=True, help="matrix file")
    p.add_argument("--k", type=int, required=True, help="projector rank")
    p.add_argument("--epsilon", type=float, default=0.5)
    p.add_argument("--delta", type=float, default=0.5)
    p.add_argument("--c-const", type=float, default=1.0, dest="c_const")
    p.add_argument("--d", type=int, default=None, help="override the sample-size formula")
    p.add_argument("--stream", default="none", choices=("none", "one-pass", "two-pass"))
    p.add_argument("--strict", action="store_true", help="exit 2 if the error bound fails")

    p = sub.add_parser("decay", parents=[common], help="norm decay of random submatrices")
    p.add_argument("--norm", required=True, choices=("cut", "spectral"))
    p.add_argument("--q", type=float, required=True, help="expected subset size")
    p.add_argument("--trials", type=int, default=500)
    p.add_argument(
        "--witness",
        default="identity",
        choices=("all-ones", "identity", "random-sign", "file"),
    )
    p.add_argument("--n", type=int, default=16, help="witness size")
    p.add_argument("--input", default=None, help="matrix file for --witness file")

    p = sub.add_parser("lln", parents=[common], help="empirical second-moment deviations")
    p.add_argument("--ensemble", required=True, choices=("scaled-basis", "matrix-rows"))
    p.add_argument("--n", type=int, default=16, help="dimension for scaled-basis")
    p.add_argument("--input", default=None, help="matrix file for matrix-rows")
    p.add_argument("--d", type=int, required=True, help="samples per trial")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--c-const", type=float, default=1.0, dest="c_const")

    p = sub.add_parser("optimality", parents=[common], help="block-identity sample-size experiment")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--trials", type=int, default=200)

    return parser


def _provenance(path, digest: matio.InputDigest) -> dict:
    """The input file and the sha256 of the bytes the run read; nulls if it read none."""
    if path is None or not digest.size:
        return {"input": None, "sha256": None}
    return {"input": str(path), "sha256": digest.hexdigest()}


def _cmd_approx_svd(args, digest):
    """Run ``approx.low_rank_approximate`` on the input, read whole or streamed.

    ``--epsilon``, ``--delta``, ``--c-const`` and ``--d`` are checked before
    the input is opened, by the library's own ``check_parameters``, and
    ``--k`` by its ``check_k`` against the width of the input's stream,
    before any row is read; so is the n x n Gram work of every mode but
    one-pass, by ``sampling.check_gram_size``.
    """
    if args.stream == "one-pass" and args.d is None:
        raise UsageError("--stream one-pass requires an explicit --d")
    sampling.check_parameters(args.epsilon, args.delta, args.c_const, args.d)
    source = matio.open_stream(args.input, digest=digest)
    approx.check_k(args.k, source.n_cols)
    if args.stream != "one-pass":
        sampling.check_gram_size(source.n_cols)
    if args.stream == "none":
        source = matio.read_matrix(source)
    elif args.stream == "one-pass":
        # one traversal of the file's blocks, refused a second time
        source = RowStream(iter(source), source.n_cols)
    basis, report = approx.low_rank_approximate(
        source,
        k=args.k,
        epsilon=args.epsilon,
        delta=args.delta,
        c_constant=args.c_const,
        seed=args.seed,
        d=args.d,
    )
    exit_code = EXIT_VIOLATION if args.strict and report.satisfied is False else EXIT_OK
    # decided by the drawn sample in every mode, streams included
    projector_sha256 = hashlib.sha256(basis.tobytes()).hexdigest()
    results = {"d": report.d, "satisfied": report.satisfied, "projector_sha256": projector_sha256}
    return [{"trial": 0, **report._asdict()}], results, exit_code


def _trials(**columns) -> list[dict]:
    """One row per trial: ``{"trial": i, name: column[i], ...}``; the report converts numpy values."""
    return [{"trial": i, **dict(zip(columns, row))} for i, row in enumerate(zip(*columns.values()))]


def _witness_matrix(args, digest) -> np.ndarray:
    """The input matrix, or the generated n x n witness.

    The decay's arguments are checked before a witness is built or the
    input is read, with n = ``--n`` or the width of the input's stream.
    """
    if args.witness == "file":
        if args.input is None:
            raise UsageError("--witness file requires --input")
        stream = matio.open_stream(args.input, digest=digest)
        cutnorm.check_decay_arguments(args.norm, stream.n_cols, args.q, args.trials)
        return matio.read_matrix(stream)
    cutnorm.check_decay_arguments(args.norm, args.n, args.q, args.trials)
    if args.witness == "all-ones":
        return cutnorm.witness_all_ones(args.n)
    if args.witness == "identity":
        return cutnorm.witness_identity(args.n)
    return cutnorm.witness_random_sign(args.n, args.seed)


def _cmd_decay(args, digest):
    matrix = _witness_matrix(args, digest)
    estimator = cutnorm.cut_decay_estimate if args.norm == "cut" else cutnorm.spectral_decay_estimate
    estimate = estimator(matrix, args.q, args.trials, args.seed)
    return _trials(subset_size=estimate.subset_sizes, value=estimate.samples), {
        "norm": args.norm,
        "mean": estimate.mean,
        "bound_terms": list(estimate.bound_terms),
        "fitted_constant": estimate.fitted_constant,
    }, EXIT_OK


def _cmd_lln(args, digest):
    """``--d`` (its memory too), ``--trials`` and ``--c-const`` are checked first, the Gram's size
    (``sampling.check_gram_size``) before a row of ``--input`` is read, and a trial's memory
    (``lln.check_trial_size``) before the scaled basis is built or the input's Gram pass runs."""
    if args.ensemble == "matrix-rows" and args.input is None:
        raise UsageError("--ensemble matrix-rows requires --input")
    lln.check_deviation_arguments(args.d, args.trials, args.c_const)
    if args.ensemble == "scaled-basis":
        lln.check_trial_size(args.n, args.n, args.d)
        ensemble = lln.scaled_basis_ensemble(args.n)
    else:
        stream = matio.open_stream(args.input, digest=digest)
        sampling.check_gram_size(stream.n_cols)
        matrix = matio.read_matrix(stream)
        lln.check_trial_size(*matrix.shape, args.d)
        ensemble = lln.matrix_rows_ensemble(matrix)
    stats = lln.lln_deviation(ensemble, args.d, args.trials, args.seed, args.c_const)
    return _trials(deviation=stats.deviations), {
        "a_value": stats.a_value,
        "mean_deviation": stats.mean,
        "max_deviation": stats.max,
    }, EXIT_OK


def _cmd_optimality(args, digest):
    result = approx.optimality_experiment(args.n, args.m, args.d, args.trials, args.seed)
    per_trial = _trials(
        missed_blocks=result.missed_blocks, error_spectral=result.errors, failed=result.failed
    )
    return per_trial, {
        "failure_fraction": result.failure_fraction,
        "missed_block_fraction": result.missed_block_fraction,
    }, EXIT_OK


_COMMANDS = {
    "approx-svd": _cmd_approx_svd,
    "decay": _cmd_decay,
    "lln": _cmd_lln,
    "optimality": _cmd_optimality,
}


def _run(args) -> int:
    """Run one subcommand and write its report; returns the exit code."""
    config = {k: v for k, v in vars(args).items() if k not in ("command", "out")}
    started = reports.utc_now()
    # the input is hashed on one worker thread while the command reads it;
    # one BLAS thread keeps the report's bytes independent of the BLAS setting
    with parallel.one_blas_thread(), matio.InputDigest() as digest:
        per_trial, results, exit_code = _COMMANDS[args.command](args, digest)
        provenance = _provenance(getattr(args, "input", None), digest)
    report = reports.ExperimentReport(
        command=args.command,
        config=config,
        per_trial=per_trial,
        results=results,
        provenance=provenance,
        started_at=started,
        finished_at=reports.utc_now(),
    )
    if args.out == "-":
        sys.stdout.write(report.to_json())
    else:
        report.write(args.out)
    return exit_code


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _run(args)
    except UsageError as exc:
        print(f"matsketch: usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except np.linalg.LinAlgError as exc:
        print(f"matsketch: linear algebra failed to converge: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (Error, OSError, MemoryError) as exc:
        print(f"matsketch: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
