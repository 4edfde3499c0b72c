"""Checks on the library source itself."""

import ast
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import matsketch
import matsketch.cli  # noqa: F401  (loads every module the benchmark tracer reaches)

SOURCES = sorted(Path(matsketch.__file__).parent.glob("*.py"))
ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"

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


def test_only_the_cli_names_linalgerror():
    # numpy's LinAlgError passes through the library; cli.main alone maps it to exit 65
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        if path.name != "cli.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        if "LinAlgError" in (getattr(node, key, None) for key in ("id", "attr", "name"))
    ]
    assert len(SOURCES) > 1 and not found, found


def test_module_constants_are_read():
    # a module-level name that no code in the package reads is dead
    trees = [ast.parse(path.read_text(encoding="utf-8"), filename=str(path)) for path in SOURCES]
    read = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.alias):
                read.add(node.name)
    assigned = [
        (path.name, target.id)
        for path, tree in zip(SOURCES, trees)
        for node in tree.body
        if isinstance(node, (ast.Assign, ast.AnnAssign))
        for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
        if isinstance(target, ast.Name)
    ]
    unread = [
        f"{module}:{name}"
        for module, name in assigned
        if not (name.startswith("__") and name.endswith("__")) and name not in read
    ]
    assert len(assigned) > 10 and not unread, unread


def test_class_fields_are_read():
    # an annotated class field that no code reads as ``x.field`` is dead; a
    # read of the argparse namespace ``args`` reads a flag, not a field
    trees = ("src", "tests", "scripts", "perfbench")
    readers = [path for tree in trees for path in (ROOT / tree).rglob("*.py")]
    read = {
        node.attr
        for path in readers
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
        and not (isinstance(node.value, ast.Name) and node.value.id == "args")
    }
    fields = [
        (path.name, cls.name, node.target.id)
        for path in SOURCES
        for cls in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)
    ]
    unread = [f"{module}:{cls}.{name}" for module, cls, name in fields if name not in read]
    assert len(fields) > 10 and not unread, unread


def _names(node) -> set:
    """Every identifier ``node`` loads, imports or spells out in a string
    (the benchmark tracer looks functions up by name).  A stored name calls
    nothing, and an attribute read off ``np`` is numpy's: ``np.linalg.svd``
    is no caller of ``linalg.svd``."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute) and _root(sub) != "np":
            names.add(sub.attr)
        elif isinstance(sub, ast.alias):
            names.add(sub.name.split(".")[-1])
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            names.update(sub.value.split("."))
    return names


def _callers(node):
    """The names ``node`` uses as callers: a function's own name inside it is
    recursion, not a caller, and a class is read member by member."""
    if isinstance(node, ast.FunctionDef):
        return _names(node) - {node.name}
    if isinstance(node, ast.ClassDef):
        heads = [*node.bases, *node.keywords, *node.decorator_list]
        return set().union(*map(_names, heads), *map(_callers, node.body))
    return _names(node)


def _public_functions(node):
    """``(dotted name, name)`` of a public function, or of each public method
    of a public class (``Sketch.gram``, ``gram``)."""
    if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
        return [(node.name, node.name)]
    if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
        return [
            (f"{node.name}.{item.name}", item.name)
            for item in node.body
            if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")
        ]
    return []


def _root(node):
    """The name an attribute chain ``a.b.c`` starts from, or None."""
    while isinstance(node, ast.Attribute):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


# Public functions that only the benchmark calls.  ROADMAP items 1, 6 and 8
# free them: once perfbench/ reads reports and traces spans without them,
# they go.
BENCHMARK_ONLY = {
    "linalg.svd", "linalg.numerical_rank", "sampling.row_weights", "reports.check_summary",
    "reports.load_schema",
}


def test_public_functions_have_a_caller():
    # a public function or method that only unit tests call belongs in the
    # tests; the writers are documented for users, and write_matrixmarket has
    # no caller
    documented = {"write_matrixmarket"}
    named = set()
    defined = []
    for path in SOURCES:
        if path.name == "__init__.py":
            continue
        for node in ast.parse(path.read_text(encoding="utf-8"), filename=str(path)).body:
            defined.extend((f"{path.stem}.{dotted}", name) for dotted, name in _public_functions(node))
            named |= _callers(node)
    for path in [*(ROOT / "scripts").rglob("*.py"), ROOT / "tests" / "test_acceptance.py"]:
        named |= _names(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
    benchmark = set()
    for path in (ROOT / "perfbench").rglob("*.py"):
        benchmark |= _names(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
    called = named | documented
    uncalled = [dotted for dotted, name in defined if name not in called | benchmark]
    assert len(defined) > 20 and not uncalled, uncalled
    only_benchmark = {dotted for dotted, name in defined if name not in called}
    assert only_benchmark == BENCHMARK_ONLY


def _defaulted_options(tree):
    """``(callee, name, position)`` for each defaulted parameter of a public
    function or method, and each defaulted field of a ``NamedTuple`` record;
    an ``__init__`` and a record are called by their class name.  A
    keyword-only parameter has no position."""
    options = []

    def function(node, callee, offset):
        args = node.args
        positional = args.posonlyargs + args.args
        first = len(positional) - len(args.defaults)
        options.extend((callee, a.arg, i - offset) for i, a in enumerate(positional) if i >= first)
        options.extend(
            (callee, a.arg, None) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None
        )

    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            function(node, node.name, 0)
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and item.name == "__init__":
                    function(item, node.name, 1)
                elif isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    function(item, item.name, 1)
            if "NamedTuple" in {n for base in node.bases for n in _names(base)}:
                fields = [
                    item for item in node.body
                    if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
                ]
                options.extend(
                    (node.name, item.target.id, i)
                    for i, item in enumerate(fields)
                    if item.value is not None
                )
    return options


def test_defaulted_parameters_are_set_by_a_caller():
    # a default that no caller outside the unit tests overrides is a fixed
    # value, not an option; a call sets it by keyword, by position, or by
    # *args / **kwargs, and calls match by the name they spell
    options = [
        (path.name, *option)
        for path in SOURCES
        for option in _defaulted_options(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
    ]
    callers = [*(ROOT / "src").rglob("*.py"), *(ROOT / "scripts").rglob("*.py"),
               *(ROOT / "perfbench").rglob("*.py"), ROOT / "tests" / "test_acceptance.py"]
    calls = [
        node
        for path in callers
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        if isinstance(node, ast.Call)
    ]

    def sets(call, callee, name, position):
        func = call.func
        if (func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)) != callee:
            return False
        return (
            any(k.arg in (name, None) for k in call.keywords)
            or any(isinstance(a, ast.Starred) for a in call.args)
            or (position is not None and len(call.args) > position)
        )

    unset = [
        f"{module}:{callee}({name})"
        for module, callee, name, position in options
        if not any(sets(call, callee, name, position) for call in calls)
    ]
    assert len(options) > 20 and not unset, unset


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


def traced_approx_layers(tmp_path, *stream, setup=""):
    """Per-layer metrics of ``approx-svd --k 2 --d 20`` on a 300 x 6 binary file, traced.

    The benchmark's traced mode subclasses the stream open_stream returns;
    ``install`` rebinds module globals, so the traced run gets its own process.
    ``setup`` runs in it first.
    """
    path = tmp_path / "a.bin"
    matsketch.write_binary(path, np.random.default_rng(0).normal(size=(300, 6)))
    script = f"""
import json, sys
sys.path.insert(0, {str(TRACER.parent)!r})
import tracer
import matsketch.cli as cli
from matsketch import matio
{setup}
rec = tracer.Tracer()
tracer.install(rec)
argv = ["approx-svd", "--input", {str(path)!r}, "--k", "2", "--d", "20", *{list(stream)!r},
        "--out", {str(tmp_path / "r.json")!r}]
code = rec.call("cli.main", cli.main, argv)
print(json.dumps({{"exit": code, "layers": tracer.layer_metrics(rec)}}))
"""
    package_root = str(Path(matsketch.__file__).parents[1])
    result = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": package_root},
    )
    assert result.returncode == 0, result.stderr
    outcome = json.loads(result.stdout.splitlines()[-1])
    assert outcome["exit"] == 0
    return outcome["layers"]


def test_traced_two_pass_run_counts_both_passes(tmp_path):
    # the tracer's hooks read result fields: ``chosen_indices`` and ``d`` of the
    # sketch ``materialize_chosen`` returns, ``error_spectral`` and ``bound`` of
    # the report ``low_rank_approximate`` returns second; the two ratios need all four
    layers = traced_approx_layers(tmp_path, "--stream", "two-pass")
    assert layers["streams.passes"] == 2
    assert layers["streams.rows"] > 0
    assert 0 < layers["sampling.distinct_ratio"] <= 1
    assert 0 < layers["approx.bound_ratio"] <= 1


def test_traced_gathered_two_pass_run_counts_one_pass(tmp_path):
    # a gathered pass two reads its rows without traversing the stream, so the
    # tracer's pass count covers full traversals only
    setup = "matio._PREAD_BYTES = -(1 << 40)  # gather whatever share of the rows is chosen"
    layers = traced_approx_layers(tmp_path, "--stream", "two-pass", setup=setup)
    assert layers["streams.passes"] == 1
    assert layers["streams.rows"] > 0


def test_traced_in_memory_run_opens_no_stream(tmp_path):
    # the benchmark's in-memory workload must count no stream pass: perfbench/run.py:214
    # divides a traced call's pass time by streams.cached_read_s, which only a run
    # given --read-ref records, so a pass counted here raises KeyError there.  Drop
    # this test once the benchmark guards that division
    layers = traced_approx_layers(tmp_path)
    assert layers["streams.passes"] == 0
    assert layers["sampling.materialize_s"] > 0


def test_runs_do_not_import_numpy_ma(tmp_path):
    # plain np.unique and np.isin import numpy.ma on first call, about 14 ms;
    # np.unique(..., return_inverse=True) does not
    path = tmp_path / "a.bin"
    matsketch.write_binary(path, np.random.default_rng(0).normal(size=(300, 6)))
    script = f"""
import sys
from matsketch.cli import main
approx = ["approx-svd", "--input", {str(path)!r}, "--k", "2", "--out", "-"]
runs = [
    approx,
    approx + ["--stream", "two-pass"],
    approx + ["--stream", "one-pass", "--d", "20"],
    ["decay", "--norm", "cut", "--witness", "random-sign", "--n", "6", "--q", "3",
     "--trials", "4", "--out", "-"],
    ["decay", "--norm", "spectral", "--witness", "identity", "--n", "6", "--q", "3",
     "--trials", "4", "--out", "-"],
    ["optimality", "--n", "4", "--m", "16", "--d", "6", "--trials", "4", "--out", "-"],
    ["lln", "--ensemble", "scaled-basis", "--n", "6", "--d", "10", "--trials", "4", "--out", "-"],
    ["lln", "--ensemble", "matrix-rows", "--input", {str(path)!r}, "--d", "10", "--trials", "4",
     "--out", "-"],
]
codes = [main(argv) for argv in runs]
print(codes, "numpy.ma" in sys.modules, file=sys.stderr)
"""
    package_root = str(Path(matsketch.__file__).parents[1])
    result = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": package_root},
    )
    assert result.returncode == 0, result.stderr
    assert result.stderr.splitlines()[-1] == "[0, 0, 0, 0, 0, 0, 0, 0] False"


def test_runs_load_no_dataclasses_or_executor(tmp_path):
    # importing dataclasses builds every record class at import, and
    # concurrent.futures pulls in logging; a command on one worker needs
    # neither, so the CLI starts in little more than numpy's import time
    path = tmp_path / "a.bin"
    matsketch.write_binary(path, np.random.default_rng(0).normal(size=(300, 6)))
    script = f"""
import sys
from matsketch.cli import main
approx = ["approx-svd", "--input", {str(path)!r}, "--k", "2", "--out", "-"]
runs = [
    approx,
    approx + ["--stream", "two-pass"],
    ["decay", "--norm", "cut", "--witness", "random-sign", "--n", "6", "--q", "3",
     "--trials", "4", "--out", "-"],
]
codes = [main(argv) for argv in runs]
print(codes, sorted({{"dataclasses", "concurrent.futures", "logging"}} & set(sys.modules)), file=sys.stderr)
"""
    package_root = str(Path(matsketch.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": package_root}
    env.pop("MATSKETCH_THREADS", None)  # the default: one trial worker
    result = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=120, env=env,
    )
    assert result.returncode == 0, result.stderr
    assert result.stderr.splitlines()[-1] == "[0, 0, 0] []"
