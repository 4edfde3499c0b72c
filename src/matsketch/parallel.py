"""Thread policy: the trial fan-out and the BLAS thread count of a CLI run.

``run_trials`` gives trial i the generator ``SeedSequence([seed, i])``, so
results do not depend on scheduling; output order is always trial order.
The env var ``MATSKETCH_THREADS`` caps the worker count (default 1 =
sequential), and the CPUs this process may run on cap it in turn.  The
thread pool (``concurrent.futures``, which loads ``logging``) is imported
inside ``run_indexed`` when more than one worker runs, so a one-worker run,
and the import of the package, never load it.

``one_blas_thread`` runs its body with numpy's bundled OpenBLAS on one
thread and gives the caller's thread count back on exit; the CLI runs every
command inside it.  BLAS results can depend on how many threads split a
product, so this makes reports independent of ``OPENBLAS_NUM_THREADS``.
Where numpy's OpenBLAS is not found (MKL, Accelerate, a source build) it
does nothing.
"""

from __future__ import annotations

import ctypes
import os
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .errors import OutOfRangeError
from .rng import spawn


def thread_count() -> int:
    try:
        wanted = int(os.environ.get("MATSKETCH_THREADS", "1"))
    except ValueError:
        return 1
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        cpus = os.cpu_count() or 1
    return max(1, min(wanted, cpus))


def run_indexed(fn, count: int) -> list:
    """Evaluate ``fn(i)`` for i in range(count); results ordered by index."""
    workers = thread_count()
    if workers == 1 or count <= 1:
        return [fn(i) for i in range(count)]
    from concurrent.futures import ThreadPoolExecutor  # imported here: a one-worker run never needs it

    with ThreadPoolExecutor(max_workers=min(workers, count)) as pool:
        return list(pool.map(fn, range(count)))


def check_trials(trials: int) -> None:
    """OutOfRangeError unless trials >= 1."""
    if trials < 1:
        raise OutOfRangeError(f"trials must be >= 1, got {trials}")


def run_trials(fn, trials: int, seed) -> list:
    """Evaluate ``fn(spawn(seed, i))`` for trial i in range(trials), in trial order."""
    check_trials(trials)
    return run_indexed(lambda i: fn(spawn(seed, i)), trials)


def _openblas_api():
    """``(get, set)`` thread-count functions of numpy's bundled OpenBLAS, or None."""
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for path in libs.glob("*openblas*"):
        lib = ctypes.CDLL(str(path))
        get = getattr(lib, "scipy_openblas_get_num_threads64_", None)
        set_ = getattr(lib, "scipy_openblas_set_num_threads64_", None)
        if get is not None and set_ is not None:
            get.restype = ctypes.c_int
            set_.argtypes = [ctypes.c_int]
            set_.restype = None
            return get, set_
    return None


@contextmanager
def one_blas_thread():
    """Run the body with numpy's OpenBLAS on one thread; no-op where it is not found."""
    api = _openblas_api()
    if api is None:
        yield
        return
    get, set_ = api
    before = get()
    set_(1)
    try:
        yield
    finally:
        set_(before)
