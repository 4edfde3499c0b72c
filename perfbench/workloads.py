"""Workload table shared by the launcher, the input generator and the checker.

Standard library only: the launcher imports this module and must never load
numpy, so that the peak RSS of the CLI processes it starts is their own.

Each workload names the input it needs, the CLI arguments that use it, and
the environment the CLI runs in.  ``full`` sizes are the measured ones;
``tiny`` sizes exist for the self-test and run in about a second.
"""

from __future__ import annotations

from dataclasses import dataclass

# Input shapes by size.  "dense" and "stream" are binary matrix files of a
# low-rank signal plus noise; "sign" is a square +-1 matrix.
INPUT_SHAPES = {
    "full": {"dense": (50000, 200), "stream": (100000, 100), "sign": (20, 20)},
    "tiny": {"dense": (2000, 40), "stream": (4000, 30), "sign": (10, 10)},
}

# The benchmark seed only makes the input files; the CLI's own --seed is fixed.
# decay-cut's work is sum(2^|S|) over its random subsets S, which depend on the
# CLI seed alone, so a per-run CLI seed would change the work from run to run.
CLI_SEED = 1

# decay-cut's timed calls run one worker thread: two GIL-sharing workers on the
# two vCPUs of a shared host varied by +-20% per call (one worker: +-6%).  The
# traced run adds a call at this many threads for parallel.speedup.
SCALING_THREADS = 2


@dataclass(frozen=True)
class Workload:
    name: str
    input: str
    threads: int  # MATSKETCH_THREADS
    blas_threads: int  # OPENBLAS_NUM_THREADS; threads x blas_threads <= nproc = 2

    def argv(self, input_path: str, out_path: str, size: str) -> list[str]:
        tiny = size == "tiny"
        if self.name == "approx-dense":
            extra = ["--k", "10", "--epsilon", "0.5", "--delta", "0.5"]
        elif self.name == "stream-two-pass":
            extra = ["--stream", "two-pass", "--d", "200" if tiny else "2000", "--k", "10"]
        else:
            return [
                "decay", "--norm", "cut", "--witness", "file", "--input", input_path,
                "--q", "6" if tiny else "15", "--trials", "20" if tiny else "200",
                "--seed", str(CLI_SEED), "--out", out_path,
            ]
        return ["approx-svd", "--input", input_path, *extra, "--seed", str(CLI_SEED), "--out", out_path]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("approx-dense", "dense", threads=1, blas_threads=2),
        Workload("stream-two-pass", "stream", threads=1, blas_threads=2),
        Workload("decay-cut", "sign", threads=1, blas_threads=1),
    )
}
