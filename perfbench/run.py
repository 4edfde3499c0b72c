"""matsketch benchmark: run one workload as a user would and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--tiny]

Steps, each CLI call in a fresh interpreter (``child.py``), one at a time
(a closed loop with one client):

1. ``gen.py`` writes the workload's input from ``--seed`` in its own process,
   so this launcher never holds it: a child's peak RSS includes the peak of
   the process that started it.  This file imports no numpy for that reason.
2. ``--trace 0``: repeat the CLI call until ``--seconds`` have passed (at
   least three times; no round starts that would end past the window), with
   an import-only interpreter after each call for more set-up samples.  Prints ``wall_s``, ``setup_s``, ``peak_rss_mb`` and
   ``success_rate`` (medians over the calls).
   ``--trace 1``: alternate an untimed-layer call with a traced call (and,
   on ``decay-cut``, a traced call at ``MATSKETCH_THREADS=2`` for
   ``parallel.speedup``), at least twice, and print the per-layer metrics
   (medians over the traced calls).
3. ``check.py`` checks every report the calls wrote.

The line before the last is a JSON record of the run: inputs with shape and
sha256, environment, quartiles and sample counts.  The last line is the
result: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import SCALING_THREADS, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_CALLS = 3
MIN_TRACED_ROUNDS = 2
CHILD_TIMEOUT_S = 60
READ_RATIO_BASE = (
    "cached read: np.fromfile of the input while it sits in the page cache, in the traced "
    "process; not a measurement of disk or DRAM bandwidth"
)


class BenchError(Exception):
    pass


def _python(args, env, cwd, timeout=CHILD_TIMEOUT_S) -> subprocess.CompletedProcess:
    # subprocess.run kills and waits for the child if the timeout expires
    return subprocess.run(
        [sys.executable, *args], env=env, cwd=cwd, capture_output=True, text=True, timeout=timeout
    )


def _child(mode_args, env, cwd) -> dict | None:
    """Run child.py; its JSON result, or None if the interpreter itself failed."""
    try:
        proc = _python([str(HERE / "child.py"), *mode_args], env, cwd)
    except subprocess.TimeoutExpired:
        return None
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-2000:])
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _stats(values: list[float]) -> dict:
    if len(values) >= 2:
        p25, median, p75 = statistics.quantiles(values, n=4)
    else:
        p25 = median = p75 = values[0]
    return {"median": median, "p25": p25, "p75": p75, "n": len(values), "values": values}


def _env(workload, threads=None) -> dict:
    env = dict(os.environ)
    # setup_s times the import of byte-compiled modules, as an installed package
    # has them; the untimed warm-up import writes src/matsketch/__pycache__
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["MATSKETCH_THREADS"] = str(workload.threads if threads is None else threads)
    env["OPENBLAS_NUM_THREADS"] = str(workload.blas_threads)
    return env


class Run:
    """One benchmark run: inputs, CLI calls, checks."""

    def __init__(self, workload, seed: int, tiny: bool):
        self.workload = workload
        self.size = "tiny" if tiny else "full"
        self.work = HERE / ".work" / workload.name
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.env = _env(workload)
        proc = _python(
            [str(HERE / "gen.py"), "--workload", workload.name, "--seed", str(seed),
             "--out", str(self.work), *(["--tiny"] if tiny else [])],
            self.env, self.work,
        )
        if proc.returncode != 0:
            raise BenchError(f"input generation failed:\n{proc.stderr[-2000:]}")
        self.inputs = json.loads((self.work / "inputs.json").read_text())
        self.input_path = self.inputs["inputs"][workload.input]["path"]
        self.calls: list[tuple[int, str]] = []  # (exit code, report path) per CLI call

    def argv(self, index: int) -> list[str]:
        out = str(self.work / f"report-{index}.json")
        return self.workload.argv(self.input_path, out, self.size)

    def call(self, mode_args, env=None) -> dict | None:
        argv = self.argv(len(self.calls))
        result = _child([*mode_args, "--", *argv], env or self.env, self.work)
        self.calls.append((-1 if result is None else result["exit"], argv[-1]))
        return result

    def import_sample(self) -> float | None:
        result = _child(["import"], self.env, self.work)
        return None if result is None else result["import_s"]

    def check(self) -> list[list[str]]:
        job = self.work / "check-job.json"
        job.write_text(json.dumps({
            "workload": self.workload.name,
            "argv": self.argv(0),
            "invocations": self.calls,
            "reference": self.inputs["reference"],
        }))
        proc = _python([str(HERE / "check.py"), str(job)], self.env, self.work)
        if proc.returncode != 0:
            raise BenchError(f"output checker failed:\n{proc.stderr[-2000:]}")
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def remove_inputs(self) -> None:
        for spec in self.inputs["inputs"].values():
            Path(spec["path"]).unlink(missing_ok=True)


class Window:
    """The measuring window: room for another round if the last one still fits.

    Stopping before a round that would overrun keeps a run within ``seconds``
    instead of up to one call past it.
    """

    def __init__(self, seconds: float):
        self.deadline = time.monotonic() + seconds
        self.last = None  # start of the round in progress
        self.round_s = 0.0

    def room(self) -> bool:
        now = time.monotonic()
        if self.last is not None:
            self.round_s = now - self.last
        self.last = now
        return now + self.round_s <= self.deadline


def timed(run: Run, seconds: float) -> tuple[dict, dict]:
    if run.import_sample() is None:  # warm-up: byte-compile once, untimed
        raise BenchError("cannot import matsketch.cli")
    walls, setups, rss = [], [], []
    window = Window(seconds)
    while window.room() or len(run.calls) < MIN_CALLS:
        result = run.call(["time"])
        if result is not None:
            walls.append(result["wall_s"])
            setups.append(result["import_s"])
            rss.append(result["peak_rss_mb"])
        sample = run.import_sample()
        if sample is not None:
            setups.append(sample)
    if not walls:
        raise BenchError("no CLI call completed")
    record = {"wall_s": _stats(walls), "setup_s": _stats(setups), "peak_rss_mb": _stats(rss)}
    return {name: stats["median"] for name, stats in record.items()}, record


def traced(run: Run, seconds: float) -> tuple[dict, dict]:
    decay = run.workload.name == "decay-cut"
    stream = run.workload.input == "stream"
    ref = ["--read-ref", run.input_path] if stream else []
    walls, traced_walls, layers, scaled_walls = [], [], [], []
    rounds = 0
    window = Window(seconds)
    while window.room() or rounds < MIN_TRACED_ROUNDS:
        rounds += 1
        result = run.call(["time"])
        if result is not None:
            walls.append(result["wall_s"])
        spans = ["--spans", str(run.work / f"spans-{rounds}.json")]
        result = run.call(["trace", *ref, *spans])
        if result is not None:
            traced_walls.append(result["wall_s"])
            layers.append(result["layers"])
        if decay:
            result = run.call(["trace"], _env(run.workload, threads=SCALING_THREADS))
            if result is not None:
                scaled_walls.append(result["layers"]["parallel.wall_s"])
    if not walls or not layers:
        raise BenchError("no CLI call completed")

    def median(key):
        return statistics.median(layer[key] for layer in layers)

    metrics = {name: median(name) for name in layers[0] if name != "streams.cached_read_s"}
    ratios = [
        layer["streams.iter_s"] / layer["streams.passes"] / layer["streams.cached_read_s"]
        for layer in layers
        if layer["streams.passes"]
    ]
    metrics["streams.read_ratio"] = statistics.median(ratios) if ratios else 0
    # the traced calls run the workload's single worker; speedup is that
    # run_indexed time over the one at SCALING_THREADS workers
    scaled_wall = statistics.median(scaled_walls) if scaled_walls else 0
    metrics["parallel.speedup"] = metrics["parallel.wall_s"] / scaled_wall if scaled_wall else 0
    metrics["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(walls)
    record = {
        "wall_s": _stats(walls),
        "traced_wall_s": _stats(traced_walls),
        "scaled_parallel_wall_s": _stats(scaled_walls) if scaled_walls else None,
        "scaled_threads": SCALING_THREADS if scaled_walls else None,
        "streams.read_ratio_base": READ_RATIO_BASE if stream else None,
        "cached_read_s": _stats([l["streams.cached_read_s"] for l in layers]) if stream else None,
    }
    return metrics, record


def count_failures(outcomes: list[list[str]]) -> tuple[int, int]:
    """(attempted, failed): a call fails on a non-zero exit or any failed output check."""
    return len(outcomes), sum(1 for reasons in outcomes if reasons)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="matsketch benchmark (see perfbench/README.md)")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="small inputs, for the self-test")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "matsketch" / "__init__.py").is_file():
        print(f"perfbench: no matsketch sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        run = Run(WORKLOADS[args.workload], args.seed, args.tiny)
        try:
            measure = traced if args.trace else timed
            metrics, record = measure(run, args.seconds)
            outcomes = run.check()
        finally:
            run.remove_inputs()
    except (BenchError, OSError, subprocess.SubprocessError, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    attempted, failed = count_failures(outcomes)
    if not args.trace:
        metrics["success_rate"] = (attempted - failed) / attempted
    record.update({
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": run.size,
        "inputs": run.inputs["inputs"],
        "env": {**run.inputs["env"], "load": "closed loop, one client, one CLI process at a time"},
        "error_rate": failed / attempted,
        "failures": [reasons for reasons in outcomes if reasons],
    })
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    print(json.dumps(record))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
