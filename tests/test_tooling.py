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


def test_spot_check_runs_on_every_workload(monkeypatch):
    """The benchmark replays trials through the public API (`classify` with
    `budget` and `posa_restarts`, `config.budget`, `graph_peninsula(...).A`,
    `sampled.type_block`); running its spot check on each workload, shrunk to
    n=60 and 4 trials, makes a dropped name fail here."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import worker
    from workloads import WORKLOADS

    from graphonham import ExperimentConfig, run_experiment

    for name, workload in WORKLOADS.items():
        config = ExperimentConfig.from_dict({**workload.config, "n_values": [60], "trials": 4})
        _, records = run_experiment(config, jobs=1)
        assert [r.error for r in records] == [None] * 4, name
        assert worker.spot_check(config, records) == [], name


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
    """scipy loads on the first use of a graph's CSR or matching, not on
    import, so runs that never need one pay nothing for it."""
    out = _python_output("import sys, graphonham; print('scipy' in sys.modules)")
    assert out.strip() == "False"


def test_sampling_leaves_scipy_unloaded(tmp_path):
    """Sampling (by coins or, for a 0/1 kernel, from the types), degree
    properties, `write_graph` and `graphonham sample` build no CSR or
    matching, so none of them loads scipy."""
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


def test_trap_trial_leaves_scipy_unloaded():
    """A narrow-three-block trap trial is decided from the sample's types on
    its edge array alone, with no CSR and no matching, so scipy stays
    unloaded; a trial with fvcn = n/2 is decided from the block graph, its
    cycle validated on the blocks, so scipy stays unloaded there too."""
    code = (
        "import sys\n"
        "import graphonham\n"
        "from graphonham import ExperimentConfig, run_trial\n"
        "config = ExperimentConfig.from_dict({'graphon': 'narrow-three-block', 'n_values': [400], 'trials': 1,\n"
        "    'seed': 0, 't': 4, 'properties': ['connected', 'min_degree_ge_2', 'hamiltonian', 'fvcn_ge_half']})\n"
        "for index in (0, 51):\n"
        "    o = run_trial(config, 400, index).outcomes\n"
        "    print(o['ham_obstruction'], o['fvcn'] == 200, 'scipy' in sys.modules)\n"
    )
    assert _python_output(code).splitlines() == ["narrow_graph_peninsula False False", "None True False"]


#: `campaign_digest` of the trap-campaign config below, before the block
#: route: the rows it writes must not move.
TRAP_CAMPAIGN_2000_HASH = "270cfdfb2419b4f00f749c7627086434d53abcb33d2d2263fc1c5aff43d9a248"


def test_trap_campaign_leaves_scipy_unloaded(tmp_path):
    """The benchmark's trap-campaign config run for trials 0-1999 at seed 0
    decides every trial from the block graph: scipy never loads, the one
    tight trial (1854) is still `unknown`, and no row moved."""
    from conftest import campaign_digest

    code = (
        "import sys\n"
        "from graphonham import ExperimentConfig, run_experiment\n"
        "config = ExperimentConfig.from_dict({'graphon': 'narrow-three-block', 'n_values': [400], 'trials': 2000,\n"
        "    'seed': 0, 't': 4, 'properties': ['connected', 'min_degree_ge_2', 'hamiltonian', 'fvcn_ge_half']})\n"
        "_, records = run_experiment(config, out_dir=sys.argv[1])\n"
        "print([r.trial_index for r in records if r.outcomes['ham_status'] == 'unknown'], 'scipy' in sys.modules)\n"
    )
    assert _python_output(code, str(tmp_path)).splitlines() == ["[1854] False"]
    assert campaign_digest(str(tmp_path)) == TRAP_CAMPAIGN_2000_HASH


def test_no_thread_outlives_import_or_sampling():
    """`import graphonham` starts no thread, and a sample whose coin blocks
    ran on several threads has joined them all when it returns, so a
    process pool (`experiment --jobs`) never forks a process mid-draw.
    Assembling the edge array on first read opens no pool either."""
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
        "s = sampler.sample_graph(get_preset('constant-0.3'), 2000, 0)\n"
    )
    report = "print(pools, threading.active_count())\n"
    for read in ("", "s.edges\ns.to_finite_graph()\n"):
        assert _python_output(code + read + report).split() == ["1", "[3]", "1"], read


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


def test_no_adjacency_lists_in_the_package():
    """Every search, edge membership and backtracking included, reads the
    CSR: no code in the package calls `adjacency()` for Python neighbour
    lists."""
    package = Path(__file__).resolve().parents[1] / "src" / "graphonham"
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "adjacency"
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


def _catches_assertion_error(handler: ast.ExceptHandler) -> bool:
    caught = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
    return any(isinstance(t, ast.Name) and t.id == "AssertionError" for t in caught)


def test_no_failed_check_is_swallowed():
    """A failed `validate` on the package's own output is a bug: every
    handler in the package that catches AssertionError ends in a `raise`
    (InvariantViolation, or FormatError for a payload's certificate), so no
    failed check reads as an answer."""
    package = Path(__file__).resolve().parents[1] / "src" / "graphonham"
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ExceptHandler) and _catches_assertion_error(node)
        and not isinstance(node.body[-1], ast.Raise)
    ]
    assert found == []


def _foreign_state(tree):
    """Line of each `object.__setattr__(x, ...)`, `vars(x)` or `x.__dict__`
    under tree whose x is not `self`."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and ast.unparse(node.func) in ("object.__setattr__", "vars"):
            target = node.args[0] if node.args else None
        elif isinstance(node, ast.Attribute) and node.attr == "__dict__":
            target = node.value
        else:
            continue
        if not (isinstance(target, ast.Name) and target.id == "self"):
            yield node.lineno


def test_instances_keep_only_declared_state():
    """A frozen object's fields are declared and its caches are its own
    `cached_property`s: the package reaches into an instance's attribute
    dict only from that instance's own methods, never into an object it
    was passed."""
    package = Path(__file__).resolve().parents[1] / "src" / "graphonham"
    found = [
        f"{path.name}:{line}"
        for path in sorted(package.glob("*.py"))
        for line in _foreign_state(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert found == []
