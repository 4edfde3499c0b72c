"""One fresh interpreter: import ``matsketch.cli`` and call ``cli.main(argv)``.

Modes (the result is one JSON object on the last line of stdout):

* ``import``: time ``import matsketch.cli`` only (a set-up sample);
* ``time -- ARGV``: import time, ``cli.main(argv)`` time and exit code, and
  the peak RSS of this process;
* ``trace [--read-ref FILE] [--spans FILE] -- ARGV``: the same call with
  every layer wrapped by ``tracer``; prints the per-layer metrics and writes
  the spans to ``--spans``.  ``--read-ref`` times a plain ``np.fromfile`` of
  the input afterwards, the base of ``streams.read_ratio``.

The package is imported from ``src/`` of the checkout holding this file.
"""

import json
import resource
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def _import_cli():
    t0 = perf_counter()
    import matsketch.cli as cli

    import_s = perf_counter() - t0
    if not Path(cli.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"matsketch imported from {cli.__file__}, not from {ROOT / 'src'}")
    return cli, import_s


def _cached_read_s(path: str) -> float:
    """Median of three plain reads of a binary matrix file (page cache warm)."""
    import numpy as np

    times = []
    for _ in range(3):
        t0 = perf_counter()
        np.fromfile(path, dtype="<f8", offset=16)
        times.append(perf_counter() - t0)
    return sorted(times)[1]


def main(argv: list[str]) -> dict:
    mode, rest = argv[0], argv[1:]
    if mode == "import":
        return {"import_s": _import_cli()[1]}
    split = rest.index("--")
    opts = dict(zip(rest[:split:2], rest[1:split:2]))
    cli_argv = rest[split + 1 :]
    cli, import_s = _import_cli()
    if mode == "time":
        t0 = perf_counter()
        code = cli.main(cli_argv)
        wall_s = perf_counter() - t0
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return {"import_s": import_s, "wall_s": wall_s, "exit": code, "peak_rss_mb": peak_kib / 1024}

    import tracer

    rec = tracer.Tracer()
    tracer.install(rec)
    t0 = perf_counter()
    code = rec.call("cli.main", cli.main, cli_argv)
    wall_s = perf_counter() - t0
    metrics = tracer.layer_metrics(rec)
    if "--read-ref" in opts:
        metrics["streams.cached_read_s"] = _cached_read_s(opts["--read-ref"])
    if "--spans" in opts:
        Path(opts["--spans"]).write_text(json.dumps(rec.spans))
    return {"import_s": import_s, "wall_s": wall_s, "exit": code, "layers": metrics}


if __name__ == "__main__":
    print(json.dumps(main(sys.argv[1:])))
