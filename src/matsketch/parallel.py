"""Optional thread fan-out for Monte-Carlo trial loops.

``run_trials`` gives trial i the generator ``SeedSequence([seed, i])``, so
results do not depend on scheduling; output order is always trial order.
The env var ``MATSKETCH_THREADS`` caps the worker count (default 1 = sequential).
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor

from .errors import OutOfRangeError
from .rng import spawn


def thread_count() -> int:
    raw = os.environ.get("MATSKETCH_THREADS", "1")
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


def run_indexed(fn, count: int) -> list:
    """Evaluate ``fn(i)`` for i in range(count); results ordered by index."""
    workers = thread_count()
    if workers == 1 or count <= 1:
        return [fn(i) for i in range(count)]
    with ThreadPoolExecutor(max_workers=min(workers, count)) as pool:
        return list(pool.map(fn, range(count)))


def run_trials(fn, trials: int, seed) -> list:
    """Evaluate ``fn(spawn(seed, i))`` for trial i in range(trials), in trial order."""
    if trials < 1:
        raise OutOfRangeError(f"trials must be >= 1, got {trials}")
    return run_indexed(lambda i: fn(spawn(seed, i)), trials)
