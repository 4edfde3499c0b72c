"""The experiment scripts in scripts/ run end to end at tiny sizes."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import matsketch

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"

RUNS = {
    "decay_profile-cut": ["decay_profile.py", "--n", "8", "--trials", "3", "--norm", "cut"],
    "decay_profile-spectral": ["decay_profile.py", "--n", "8", "--trials", "3", "--norm", "spectral"],
    "lln_curve": ["lln_curve.py", "--n", "8", "--trials", "3"],
    "optimality_sweep": ["optimality_sweep.py", "--n", "4", "--m", "16", "--trials", "3"],
}


def test_every_script_has_a_run():
    assert {path.name for path in SCRIPTS.glob("*.py")} == {argv[0] for argv in RUNS.values()}


@pytest.mark.parametrize("argv", RUNS.values(), ids=RUNS.keys())
def test_script_runs(argv):
    # the child imports the package under test, installed or not
    package_root = str(Path(matsketch.__file__).parents[1])
    result = subprocess.run(
        [sys.executable, str(SCRIPTS / argv[0]), *argv[1:]],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": package_root},
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip()
