"""Checks on the library source itself."""

import ast
import importlib.util
from pathlib import Path

import matsketch
import matsketch.cli  # noqa: F401  (loads every module the benchmark tracer reaches)

SOURCES = sorted(Path(matsketch.__file__).parent.glob("*.py"))
TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"

# Names perfbench/tracer.py's ``install`` binds outside its TRACED table.
TRACER_EXTRA = [
    ("matio", "open_stream"),
    ("parallel", "run_indexed"),
    ("parallel", "thread_count"),
    ("reports", "ExperimentReport.__init__"),
    ("reports", "ExperimentReport.write"),
]


def test_library_has_no_assert_statements():
    # invariants are explicit checks: ``python -O`` strips assert statements
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert SOURCES and not found, found


def test_names_the_benchmark_tracer_binds_exist():
    # the tracer looks each name up with a bare getattr, so a renamed function
    # breaks only the benchmark's traced mode; ``install`` is not called, since
    # it rebinds module globals for the rest of the process
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    names = [(module, attr) for module, attrs in tracer.TRACED.items() for attr in attrs]
    missing = []
    for module, dotted in names + TRACER_EXTRA:
        value = importlib.import_module(f"matsketch.{module}")
        for attr in dotted.split("."):
            value = getattr(value, attr, None)
        if value is None:
            missing.append(f"{module}.{dotted}")
    assert len(names) > 10 and not missing, missing
