"""Command-line interface.

Subcommands: analyze, sample, test, certify, experiment, pathsys.  Any
validation failure, and any file that cannot be read or written, exits with
status 2 and a machine-readable error object on stderr.  A campaign in which
some trial hit an internal invariant violation (a bug, not bad input) writes
its outputs and then exits with status 3.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict

from .errors import FormatError, GraphonHamError, InvariantViolation
from .fracmatch import _edge_list_text, fmn_half, fvcn_half, graph_peninsula
from .graphon import _frac, analyze, load_graphon_file
from .harness import ExperimentConfig, records_to_csv, run_experiment
from .hamilton import DEFAULT_BACKTRACK_BUDGET, classify
from .pathsys import check_path_system, low_degree_path_system
from .presets import PRESET_NAMES, get_preset
from .sampler import load_graph, sample_graph, write_graph


def _load_model(source: str):
    if source in PRESET_NAMES:
        return get_preset(source)
    return load_graphon_file(source)


def _cmd_analyze(args) -> int:
    report = analyze(_load_model(args.graphon))
    print(json.dumps(report.to_dict(), indent=1))
    return 0


def _cmd_sample(args) -> int:
    g = _load_model(args.graphon)
    graph = sample_graph(g, args.n, args.seed, args.trial)
    if args.output:
        meta = write_graph(graph, args.output)
        print(json.dumps({"edges": len(graph.edges), "output": args.output, "sidecar": meta}))
    else:
        sys.stdout.write(_edge_list_text(graph.n, graph.edges))
    return 0


def _cmd_test(args) -> int:
    for flag in ("budget", "restarts", "seed"):
        if getattr(args, flag) < 0:
            raise FormatError("must be nonnegative", f"--{flag}")
    g = load_graph(args.graph)
    verdict = classify(g, budget=args.budget, seed=args.seed, posa_restarts=args.restarts)
    print(json.dumps(verdict.to_dict(), indent=1))
    return 0


def _cmd_certify(args) -> int:
    g = load_graph(args.graph)
    cover = fvcn_half(g)
    matching = fmn_half(g)
    pen = graph_peninsula(g)
    out = {
        "n": g.n,
        "fvcn": str(cover.weight),
        "fmn": str(matching.weight),
        "cover_values": [str(v) for v in cover.values],
        # the trap is the uniquely-half-covered witness, so one call gives both
        "uniquely_half_covered": pen is None,
        "uhc_witness": [str(v) for v in pen.values] if pen else None,
        "peninsula": {"kind": pen.kind, "A": list(pen.A), "B": list(pen.B)} if pen else None,
    }
    print(json.dumps(out, indent=1))
    return 0


def _cmd_experiment(args) -> int:
    if args.jobs < 1:
        raise FormatError("must be at least 1", "--jobs")
    with open(args.config, "r", encoding="utf-8") as fh:
        config = ExperimentConfig.from_json(fh.read())
    report, records = run_experiment(config, out_dir=args.output, jobs=args.jobs)
    if args.format == "csv":
        sys.stdout.write(records_to_csv(records))
    else:
        print(json.dumps(report.to_dict(), indent=1, sort_keys=True))
    # run_trial stores every exception as an error string; a bug must not
    # pass for an errored trial
    violated = [r for r in records if (r.error or "").startswith(f"{InvariantViolation.__name__}:")]
    if violated:
        error = {"type": InvariantViolation.__name__, "trials": len(violated), "first": violated[0].error}
        print(json.dumps({"error": error}), file=sys.stderr)
        return 3
    return 0


def _cmd_pathsys(args) -> int:
    g = load_graph(args.graph)
    alpha = _frac(args.alpha, "alpha")
    system = low_degree_path_system(g, alpha)
    chk = check_path_system(g, system, alpha)
    print(json.dumps({"paths": [list(p) for p in system.paths], "checks": asdict(chk)}, indent=1))
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="graphonham",
        description="Structural and Monte Carlo analysis of graphon random graphs",
    )
    sub = p.add_subparsers(dest="command", required=True)

    a = sub.add_parser("analyze", help="condition report for a graphon file or preset")
    a.add_argument("graphon", help=f"graphon JSON file or preset ({', '.join(PRESET_NAMES)})")
    a.set_defaults(func=_cmd_analyze)

    s = sub.add_parser("sample", help="sample one graph, write edge list + sidecar")
    s.add_argument("graphon")
    s.add_argument("-n", type=int, required=True)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--trial", type=int, default=0)
    s.add_argument("-o", "--output", default=None)
    s.set_defaults(func=_cmd_sample)

    t = sub.add_parser("test", help="Hamiltonicity verdict for an edge-list file")
    t.add_argument("graph")
    t.add_argument("--budget", type=int, default=DEFAULT_BACKTRACK_BUDGET)
    t.add_argument("--seed", type=int, default=0)
    t.add_argument("--restarts", type=int, default=20)
    t.set_defaults(func=_cmd_test)

    c = sub.add_parser("certify", help="matching / cover / trap certificates")
    c.add_argument("graph")
    c.set_defaults(func=_cmd_certify)

    e = sub.add_parser("experiment", help="run a Monte Carlo campaign from a config file")
    e.add_argument("config")
    e.add_argument("-o", "--output", default=None, help="directory for trials.csv + report.json")
    e.add_argument("--jobs", type=int, default=1)
    e.add_argument("--format", choices=("json", "csv"), default="json")
    e.set_defaults(func=_cmd_experiment)

    ps = sub.add_parser("pathsys", help="low-degree covering path system")
    ps.add_argument("graph")
    ps.add_argument("--alpha", required=True)
    ps.set_defaults(func=_cmd_pathsys)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except GraphonHamError as exc:
        print(json.dumps({"error": exc.as_dict()}), file=sys.stderr)
        return 2
    except (OSError, UnicodeDecodeError) as exc:
        kind = "FileNotFound" if isinstance(exc, FileNotFoundError) else type(exc).__name__
        print(json.dumps({"error": {"type": kind, "message": str(exc)}}), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
