"""Output checks for the reports of one benchmark run.

The checks test the law each command promises, not byte digests, so a
change that keeps the law but draws other indices is not a failure:

* every workload: exit code 0, the report validates against
  ``reports.load_schema()``, and ``reports.check_summary`` holds;
* ``approx-dense``: ``satisfied`` is true, ``numerical_rank`` matches the
  exact value from ``gen.py`` to 1e-9 relative, and
  ``d == required_sample_size(rank, epsilon, delta)``;
* ``stream-two-pass``: ``numerical_rank`` is at least the exact value (the
  streamed estimate may only inflate) and ``d`` is the requested one;
* ``decay-cut``: every per-trial value lies in [0, cut norm of the full
  matrix], ``per_trial`` is identical in every report of the run (same seed),
  and the mean recomputes from ``per_trial``.

Run as a process: ``python3 perfbench/check.py JOB.json`` prints one JSON
list with the failure reasons of each report (empty when it passed).
"""

import json
import math
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import jsonschema  # noqa: E402
import numpy as np  # noqa: E402
from matsketch import reports  # noqa: E402
from matsketch.sampling import required_sample_size  # noqa: E402


def _flag(argv, name):
    return argv[argv.index(name) + 1]


def check_report(workload: str, argv: list, exit_code: int, report_path, reference: dict,
                 first_per_trial=None) -> list[str]:
    """Failure reasons for one CLI invocation; an empty list means it passed."""
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    try:
        report = json.loads(Path(report_path).read_text())
        jsonschema.validate(report, reports.load_schema())
    except (OSError, ValueError, jsonschema.ValidationError) as exc:
        return [f"unreadable or invalid report: {str(exc).splitlines()[0]}"]
    failures = []
    if not reports.check_summary(report):
        failures.append("summary does not recompute from per_trial")
    trials = report["per_trial"]
    if workload == "decay-cut":
        values = [t["value"] for t in trials]
        if len(values) != int(_flag(argv, "--trials")):
            failures.append(f"{len(values)} trials reported")
        if not all(0.0 <= v <= reference["cut_norm"] * (1 + 1e-12) for v in values):
            failures.append("a per-trial cut norm lies outside [0, cut norm of the full matrix]")
        if first_per_trial is not None and trials != first_per_trial:
            failures.append("per_trial differs from the first report of the same seed")
        mean = report["results"]["mean"]
        if not values or not math.isclose(mean, float(np.mean(values)), rel_tol=1e-12, abs_tol=1e-12):
            failures.append("results.mean does not recompute from per_trial")
        return failures

    trial = trials[0] if len(trials) == 1 else {}
    d = report["results"].get("d")
    if trial.get("d") != d:
        failures.append("per_trial d differs from results d")
    rank = trial.get("numerical_rank")
    exact = reference["numerical_rank"]
    if workload == "approx-dense":
        eps, delta = float(_flag(argv, "--epsilon")), float(_flag(argv, "--delta"))
        if report["results"].get("satisfied") is not True or trial.get("satisfied") is not True:
            failures.append("approximation guarantee not satisfied")
        if rank is None or not math.isclose(rank, exact, rel_tol=1e-9):
            failures.append(f"numerical_rank {rank} != exact {exact}")
        if d != required_sample_size(exact, eps, delta):
            failures.append(f"d {d} != required_sample_size({exact}, {eps}, {delta})")
    else:
        if rank is None or rank < exact * (1 - 1e-9):
            failures.append(f"numerical_rank {rank} below exact {exact}")
        if d != int(_flag(argv, "--d")):
            failures.append(f"d {d} != requested {_flag(argv, '--d')}")
    return failures


def check_run(workload: str, argv: list, invocations: list, reference: dict) -> list[list[str]]:
    """Check every ``(exit_code, report_path)`` of a run; per_trial is compared to the first."""
    results = []
    first = None
    for exit_code, path in invocations:
        failures = check_report(workload, argv, exit_code, path, reference, first)
        if not failures and first is None and workload == "decay-cut":
            first = json.loads(Path(path).read_text())["per_trial"]
        results.append(failures)
    return results


if __name__ == "__main__":
    job = json.loads(Path(sys.argv[1]).read_text())
    print(json.dumps(check_run(job["workload"], job["argv"], job["invocations"], job["reference"])))
