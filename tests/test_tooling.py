"""Checks on the package as a body of code rather than on its results.

The traced benchmark run wraps graphonham functions and methods by name;
installing and removing its tracer here makes a renamed or deleted target
fail in the unit suite instead of in a traced benchmark run.
"""

import ast
import shlex
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_installs_and_uninstalls(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    targets = [(ns, attr) for _, ns, attr in tracing.FUNCTIONS]
    targets += [(cls, attr) for _, cls, attr in tracing.METHODS]
    originals = [vars(ns)[attr] for ns, attr in targets]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert all(vars(ns)[a] is not old for (ns, a), old in zip(targets, originals))
    finally:
        tracer.uninstall()
    assert all(vars(ns)[a] is old for (ns, a), old in zip(targets, originals))


def test_readme_command_lines_parse():
    from graphonham.cli import build_parser

    text = (PERFBENCH.parent / "README.md").read_text(encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [line for line in block.splitlines() if line.startswith("graphonham ")]
    assert len(lines) >= 5
    parser = build_parser()
    for line in lines:
        parser.parse_args(shlex.split(line, comments=True)[1:])


def _python_output(code: str, *args: str) -> str:
    """Standard output of `python -c code *args` in a fresh interpreter."""
    import os
    import subprocess
    import sys

    src = Path(__file__).resolve().parents[1] / "src"
    return subprocess.run(
        [sys.executable, "-c", code, *args],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=str(src)),
        timeout=60, check=True,
    ).stdout


def test_import_leaves_scipy_unloaded():
    """scipy loads on the first `FiniteGraph.build`, not on import, so runs
    that never build a FiniteGraph pay nothing for it."""
    out = _python_output("import sys, graphonham; print('scipy' in sys.modules)")
    assert out.strip() == "False"


def test_sampling_leaves_scipy_unloaded(tmp_path):
    """Sampling (by coins or, for a 0/1 kernel, from the types), degree
    properties, `write_graph` and `graphonham sample` build no FiniteGraph,
    so none of them loads scipy."""
    code = (
        "import sys\n"
        "from graphonham import ExperimentConfig, degree_concentration_report, get_preset, run_trial, sample_graph\n"
        "from graphonham.cli import main\n"
        "from graphonham.sampler import write_graph\n"
        "for name in ('constant-0.3', 'narrow-three-block'):\n"
        "    g = sample_graph(get_preset(name), 200, 0)\n"
        "    g.degrees(); degree_concentration_report(g)\n"
        "    write_graph(g, sys.argv[1])\n"
        "main(['sample', 'power-half', '-n', '50', '-o', sys.argv[1]])\n"
        "config = ExperimentConfig.from_dict({'graphon': 'constant-0.3', 'n_values': [200], 'trials': 1,\n"
        "    'seed': 0, 'properties': ['min_degree_ge_2', 'degree_concentration']})\n"
        "run_trial(config, 200, 0)\n"
        "print('scipy' in sys.modules)"
    )
    assert _python_output(code, str(tmp_path / "g.txt")).splitlines()[-1] == "False"


def test_no_thread_outlives_import_or_sampling():
    """`import graphonham` starts no thread, and a sample whose coin blocks
    ran on several threads has joined them all when it returns, so a
    process pool (`experiment --jobs`) never forks a process mid-draw."""
    code = (
        "import threading\n"
        "import graphonham\n"
        "from graphonham import get_preset, sampler\n"
        "print(threading.active_count())\n"
        "import concurrent.futures\n"
        "pools = []\n"
        "class Pool(concurrent.futures.ThreadPoolExecutor):\n"
        "    def __init__(self, workers):\n"
        "        pools.append(workers)\n"
        "        super().__init__(workers)\n"
        "concurrent.futures.ThreadPoolExecutor = Pool\n"
        "sampler._sampling_threads = lambda: 3\n"
        "sampler.sample_graph(get_preset('constant-0.3'), 2000, 0)\n"
        "print(pools, threading.active_count())\n"
    )
    assert _python_output(code).split() == ["1", "[3]", "1"]


def test_no_bare_asserts_in_package():
    """`python -O` strips `assert` statements, so every check in the package
    is an explicit raise; this keeps a new bare `assert` from slipping in."""
    package = Path(__file__).resolve().parents[1] / "src" / "graphonham"
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def _adjacency_calls(node, func=None):
    """(enclosing function name, line) of each `.adjacency()` call under node."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _adjacency_calls(child, child.name)
            continue
        if isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute) and child.func.attr == "adjacency":
            yield func, child.lineno
        yield from _adjacency_calls(child, func)


def test_adjacency_lists_only_in_backtracking():
    """The search code reads the CSR; Python neighbour lists are built only
    for the budgeted backtracking search."""
    package = Path(__file__).resolve().parents[1] / "src" / "graphonham"
    found = [
        f"{path.name}:{line} in {func}"
        for path in sorted(package.glob("*.py"))
        for func, line in _adjacency_calls(ast.parse(path.read_text(encoding="utf-8")))
        if (path.name, func) != ("hamilton.py", "_backtrack")
    ]
    assert found == []


def _assertion_raises(node, func=None):
    """(enclosing function name, line) of each `raise AssertionError` under node."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _assertion_raises(child, child.name)
            continue
        if isinstance(child, ast.Raise) and child.exc is not None:
            exc = child.exc.func if isinstance(child.exc, ast.Call) else child.exc
            if isinstance(exc, ast.Name) and exc.id == "AssertionError":
                yield func, child.lineno
        yield from _assertion_raises(child, func)


def test_assertion_errors_only_check_caller_objects():
    """AssertionError means "the object you passed in is invalid": only the
    public `validate` methods and the argument checks of `build_certificate`
    raise it.  A failed check on the package's own output is a bug and
    raises InvariantViolation instead."""
    allowed = {"validate", "build_certificate"}
    package = Path(__file__).resolve().parents[1] / "src" / "graphonham"
    found = [
        f"{path.name}:{line} in {func}"
        for path in sorted(package.glob("*.py"))
        for func, line in _assertion_raises(ast.parse(path.read_text(encoding="utf-8")))
        if func not in allowed
    ]
    assert found == []
