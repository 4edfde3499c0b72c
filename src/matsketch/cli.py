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
violation under --strict, 64 usage error, 65 data error.
"""

from __future__ import annotations

import argparse
import hashlib
import sys

import numpy as np

from . import approx, cutnorm, lln, matio, reports
from .errors import Error
from .streams import BlockStream

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

    p = sub.add_parser("approx-svd", help="low-rank approximation from a row sketch")
    p.add_argument("--input", required=True, help="matrix file")
    p.add_argument("--format", default="auto", choices=("auto",) + matio.FORMATS)
    p.add_argument("--k", type=int, required=True, help="projector rank")
    p.add_argument("--epsilon", type=float, default=0.5)
    p.add_argument("--delta", type=float, default=0.5)
    p.add_argument("--c-const", type=float, default=1.0, dest="c_const")
    p.add_argument("--d", type=int, default=None, help="override the sample-size formula")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--stream", default="none", choices=("none", "one-pass", "two-pass"))
    p.add_argument("--strict", action="store_true", help="exit 2 if the error bound fails")
    p.add_argument("--out", default="report.json")

    p = sub.add_parser("decay", help="norm decay of random submatrices")
    p.add_argument("--norm", required=True, choices=("cut", "spectral"))
    p.add_argument("--q", type=float, required=True, help="expected subset size")
    p.add_argument("--trials", type=int, default=500)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--witness",
        default="identity",
        choices=("all-ones", "identity", "random-sign", "block-identity", "file"),
    )
    p.add_argument("--n", type=int, default=16, help="witness size")
    p.add_argument("--m", type=int, default=None, help="rows for block-identity")
    p.add_argument("--input", default=None, help="matrix file for --witness file")
    p.add_argument("--format", default="auto", choices=("auto",) + matio.FORMATS)
    p.add_argument("--out", default="report.json")

    p = sub.add_parser("lln", help="empirical second-moment deviations")
    p.add_argument("--ensemble", required=True, choices=("scaled-basis", "matrix-rows"))
    p.add_argument("--n", type=int, default=16, help="dimension for scaled-basis")
    p.add_argument("--input", default=None, help="matrix file for matrix-rows")
    p.add_argument("--format", default="auto", choices=("auto",) + matio.FORMATS)
    p.add_argument("--d", type=int, required=True, help="samples per trial")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--c-const", type=float, default=1.0, dest="c_const")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="report.json")

    p = sub.add_parser("optimality", help="block-identity sample-size experiment")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="report.json")

    return parser


def _provenance(path, digest: matio.InputDigest) -> dict:
    """The input file and the sha256 of the bytes the run read; nulls if it read none."""
    if path is None or not digest.size:
        return {"input": None, "sha256": None}
    return {"input": str(path), "sha256": digest.hexdigest()}


def _cmd_approx_svd(args, digest):
    if args.stream == "none":
        source = matio.read_matrix(args.input, args.format, digest)
    else:
        source = matio.open_stream(args.input, args.format, digest)
        if args.stream == "one-pass":
            if args.d is None:
                raise UsageError("--stream one-pass requires an explicit --d")
            # one traversal of the file's blocks, refused a second time
            source = BlockStream(iter(source), source.n_cols)
    projector, report = approx.low_rank_approximate(
        source,
        k=args.k,
        epsilon=args.epsilon,
        delta=args.delta,
        c_constant=args.c_const,
        seed=args.seed,
        d=args.d,
    )
    trial = {
        "trial": 0,
        "d": report.d,
        "numerical_rank": report.numerical_rank,
        "sigma_kplus1": report.sigma_kplus1,
        "error_spectral": report.error_spectral,
        "bound": report.bound,
        "gram_deviation": report.gram_deviation,
        "satisfied": report.satisfied,
    }
    exit_code = EXIT_VIOLATION if args.strict and report.satisfied is False else EXIT_OK
    # decided by the drawn sample in every mode, streams included
    projector_sha256 = hashlib.sha256(projector.basis.tobytes()).hexdigest()
    results = {"d": report.d, "satisfied": report.satisfied, "projector_sha256": projector_sha256}
    return [trial], results, exit_code


def _witness_matrix(args, digest) -> np.ndarray:
    if args.witness == "file":
        if args.input is None:
            raise UsageError("--witness file requires --input")
        return matio.read_matrix(args.input, args.format, digest)
    if args.witness == "all-ones":
        return cutnorm.witness_all_ones(args.n)
    if args.witness == "identity":
        return cutnorm.witness_identity(args.n)
    if args.witness == "random-sign":
        return cutnorm.witness_random_sign(args.n, args.seed)
    if args.m is None:
        raise UsageError("--witness block-identity requires --m")
    return approx.block_identity_matrix(args.n, args.m)


def _cmd_decay(args, digest):
    matrix = _witness_matrix(args, digest)
    estimator = cutnorm.cut_decay_estimate if args.norm == "cut" else cutnorm.spectral_decay_estimate
    estimate = estimator(matrix, args.q, args.trials, args.seed)
    per_trial = [
        {"trial": i, "subset_size": int(s), "value": float(v)}
        for i, (s, v) in enumerate(zip(estimate.subset_sizes, estimate.samples))
    ]
    return per_trial, {
        "norm": args.norm,
        "mean": estimate.mean,
        "bound_terms": list(estimate.bound_terms),
        "fitted_constant": estimate.fitted_constant,
    }, EXIT_OK


def _cmd_lln(args, digest):
    if args.ensemble == "scaled-basis":
        ensemble = lln.scaled_basis_ensemble(args.n)
    else:
        if args.input is None:
            raise UsageError("--ensemble matrix-rows requires --input")
        ensemble = lln.matrix_rows_ensemble(matio.read_matrix(args.input, args.format, digest))
    stats = lln.lln_deviation(ensemble, args.d, args.trials, args.seed, args.c_const)
    per_trial = [{"trial": i, "deviation": float(v)} for i, v in enumerate(stats.deviations)]
    return per_trial, {
        "a_value": stats.a_value,
        "mean_deviation": stats.mean,
        "max_deviation": stats.max,
    }, EXIT_OK


def _cmd_optimality(args, digest):
    result = approx.optimality_experiment(args.n, args.m, args.d, args.trials, args.seed)
    per_trial = [
        {
            "trial": i,
            "missed_blocks": int(mb),
            "error_spectral": float(err),
            "failed": bool(fl),
        }
        for i, (mb, err, fl) in enumerate(zip(result.missed_blocks, result.errors, result.failed))
    ]
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
    # the input is hashed on one worker thread while the command reads it
    with matio.InputDigest() as digest:
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
    except (Error, OSError) as exc:
        print(f"matsketch: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
