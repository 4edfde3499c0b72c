"""Serializable experiment reports.

A report records the command, full configuration (seed included), per-trial
measurements, and summary statistics.  Re-running with the same config and
seed reproduces the ``per_trial`` section byte for byte; only the
timestamps differ.  ``report_schema.json``, shipped inside the package,
describes the JSON layout of version ``SCHEMA_VERSION``, the one written.
"""

from __future__ import annotations

import json
import math
from datetime import datetime, timezone
from importlib import resources
from pathlib import Path

import numpy as np

SCHEMA_VERSION = 1


def utc_now() -> str:
    return datetime.now(timezone.utc).isoformat()


def _plain(value):
    """Convert numpy scalars/arrays to builtin types for JSON."""
    if isinstance(value, (np.generic, np.ndarray)):
        return value.tolist()
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    return value


def summarize(per_trial: list[dict]) -> dict:
    """mean/min/max/stddev (population) for every numeric per-trial key."""
    summary: dict[str, dict] = {}
    if not per_trial:
        return summary
    for key in per_trial[0]:
        values = [t[key] for t in per_trial]
        if any(v is None or isinstance(v, str) for v in values):
            continue
        arr = np.asarray(values, dtype=np.float64)
        summary[key] = {
            "mean": float(arr.mean()),
            "min": float(arr.min()),
            "max": float(arr.max()),
            "stddev": float(arr.std()),
        }
    return summary


class ExperimentReport:
    """One run's report; numpy values in ``config``, ``per_trial`` and ``results`` become builtins,
    and ``summary`` is computed from ``per_trial``."""

    def __init__(
        self,
        command: str,
        config: dict,
        per_trial: list[dict],
        results: dict | None = None,
        provenance: dict | None = None,
        started_at: str = "",
        finished_at: str = "",
    ):
        self.command = command
        self.config = _plain(config)
        self.per_trial = [_plain(t) for t in per_trial]
        self.results = _plain({} if results is None else results)
        self.provenance = {"input": None, "sha256": None} if provenance is None else provenance
        self.started_at = started_at
        self.finished_at = finished_at
        self.summary = summarize(self.per_trial)

    def to_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "command": self.command,
            "config": self.config,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "per_trial": self.per_trial,
            "summary": self.summary,
            "results": self.results,
            "provenance": self.provenance,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True, allow_nan=False) + "\n"

    def write(self, path) -> None:
        Path(path).write_text(self.to_json(), encoding="ascii")  # to_json runs before the file opens


def load_schema() -> dict:
    text = resources.files("matsketch").joinpath("report_schema.json").read_text()
    return json.loads(text)


def check_summary(report: dict) -> bool:
    """Recompute the summary from per_trial and compare within 1e-12 (relative or absolute)."""
    fresh = summarize(report["per_trial"])
    stored = report["summary"]
    if fresh.keys() != stored.keys():
        return False
    for key, stats in fresh.items():
        for name, value in stats.items():
            if not math.isclose(value, stored[key][name], rel_tol=1e-12, abs_tol=1e-12):
                return False
    return True
