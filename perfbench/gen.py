"""Generate one workload's seeded input file and the values its checks need.

Runs as its own process before any timing, so that the launcher never holds
the inputs (a forked child inherits its parent's peak RSS).  Writes
``inputs.json`` next to the input file:

* ``inputs``: the file's path, shape, size in bytes and sha256;
* ``reference``: values computed here with plain numpy, independently of
  matsketch: the exact numerical rank of dense/stream inputs, the cut norm
  of the full sign matrix;
* ``env``: nproc, Python/numpy/BLAS versions, thread settings, cache sizes.

Usage: python3 perfbench/gen.py --workload NAME --seed N --out DIR [--tiny]
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import os
import platform
import struct
import sys
from pathlib import Path

import numpy as np

from workloads import INPUT_SHAPES, WORKLOADS

_HEADER = struct.Struct("<QQ")


def low_rank_plus_noise(rng, m, n, rank, decay, noise):
    """Rank-``rank`` signal with singular values ~ sqrt(m) * decay**i, plus noise."""
    left = rng.normal(size=(m, rank)) * decay ** np.arange(rank)
    right, _ = np.linalg.qr(rng.normal(size=(n, rank)))
    return left @ right.T + noise * rng.normal(size=(m, n))


def make_input(kind, shape, rng):
    m, n = shape
    if kind == "dense":
        return low_rank_plus_noise(rng, m, n, rank=10, decay=0.85, noise=0.05)
    if kind == "stream":
        # log-normal row scales make the row weights uneven
        a = low_rank_plus_noise(rng, m, n, rank=8, decay=0.8, noise=0.05)
        return a * np.exp(rng.normal(size=(m, 1)))
    return rng.integers(0, 2, size=shape).astype(np.float64) * 2.0 - 1.0


def numerical_rank(a) -> float:
    top = np.linalg.svd(a, compute_uv=False)[0]
    return float(np.sum(a * a) / top**2)


def cut_norm(a) -> float:
    """max over row sets S of max(sum of positive, -sum of negative) column sums."""
    m = a.shape[0]
    lo = min(m, 10)

    def subset_sums(rows):
        k = rows.shape[0]
        bits = (np.arange(1 << k)[:, None] >> np.arange(k)) & 1
        return bits.astype(np.float64) @ rows

    low, high = subset_sums(a[:lo]), subset_sums(a[lo:])
    best = 0.0
    for h in high:
        sums = low + h
        pos = np.clip(sums, 0.0, None).sum(axis=1)
        neg = -np.clip(sums, None, 0.0).sum(axis=1)
        best = max(best, float(np.maximum(pos, neg).max()))
    return best


def sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def cache_sizes() -> dict:
    """CPU cache sizes as the kernel reports them for cpu0 (read-only sysfs)."""
    sizes = {}
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        try:
            level = Path(index, "level").read_text().strip()
            kind = Path(index, "type").read_text().strip()
            size = Path(index, "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            sizes[f"L{level}"] = size
    return sizes


def openblas_threads():
    """Runtime thread count of the OpenBLAS that numpy loaded, if found."""
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(input_bytes: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "MATSKETCH_THREADS": os.environ.get("MATSKETCH_THREADS"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "openblas_threads": openblas_threads(),
        "caches": cache_sizes(),
        "input_bytes": input_bytes,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)

    kind = WORKLOADS[args.workload].input
    shape = INPUT_SHAPES["tiny" if args.tiny else "full"][kind]
    rng = np.random.default_rng(args.seed)
    a = make_input(kind, shape, rng)
    path = Path(args.out).resolve() / f"{kind}.bin"
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(*shape))
        fh.write(np.ascontiguousarray(a, dtype="<f8").tobytes())
        fh.flush()
        os.fsync(fh.fileno())  # write back now, not during the timed calls
    reference = {"cut_norm": cut_norm(a)} if kind == "sign" else {"numerical_rank": numerical_rank(a)}
    size = path.stat().st_size
    record = {
        "inputs": {kind: {"path": str(path), "shape": list(shape), "bytes": size, "sha256": sha256(path)}},
        "reference": reference,
        "env": environment(size),
    }
    Path(args.out, "inputs.json").write_text(json.dumps(record, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
