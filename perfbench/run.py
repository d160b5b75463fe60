"""Campaign benchmark for graphonham.

    python3 perfbench/run.py --workload trap-campaign --seed 0 --seconds 55 --trace 0

Run from the root of a source checkout; the program is imported from its
`src/`, nothing is installed.  Workloads are described in workloads.py.

--trace 0 measures the end-to-end metrics.  It starts `SETUP_PROBES` fresh
processes that only set up, then one that sets up and runs the campaign in
batches for --seconds (at least the workload's prefix batches).  set-up time
is the median over all of them.

--trace 1 measures the per-layer metrics.  It replays the same fixed number
of batches (about --seconds/2 of work each) in an untraced process and then
in a traced one, whose wrappers (tracing.py) time the calls into each layer.
The two must give identical verdict digests.

Times are scaled to the reference host (hostspeed.py): each batch's trial
times and wall time are multiplied by the workload's `ref_s` over the time of
its hostspeed kernel around that batch, and the median set-up time of the
processes by `ref_s` over the mean of every kernel time the run took (one
second of set-up is too short to time the host's speed beside it).  The raw
figures are printed on the `raw` line.  `trials_per_s` is the median over
batches of a batch's trials over its scaled wall time, so a rare trial that
runs for seconds (about 1% of trap-campaign's, in the rotation heuristic)
does not make it depend on the seed; `hamilton.posa_ms` shows that cost.

Every run checks the program's output: each row against the invariants in
checks.py, the first trials of each verdict kind against their certificates
(worker.spot_check) and, at the default seed, every row against
reference.json.  The printed digest covers the prefix batches, so runs of
two commits at the same seed compare the same trials.  The last line of
standard output is the JSON result; the lines above it repeat every metric
with its unit and record the machine, versions and program state.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

from checks import check_rows, digest, load_reference, strip_runtime
from workloads import DEFAULT_SEED, MAX_SEED, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_PROBES = 3
#: A run must end within 180 s; a worker still going at this point is killed.
BUDGET_S = 170.0

# (name, unit, what it measures).  Trial times come from the program's own
# TrialRecord runtimes (sample + properties).  Times are scaled to the
# reference host; peak_rss_mb is not a time and is not scaled.
END_TO_END = (
    ("trials_per_s", "1/s", "median over batches of trials / wall time of run_experiment, incl. aggregate "
     "and writing outputs"),
    ("trial_p50_ms", "ms", "median per-trial time"),
    ("trial_p90_ms", "ms", "90th percentile per-trial time"),
    ("setup_s", "s", "process start to ready: import, config, analyze, one warm-up trial; median of processes"),
    ("peak_rss_mb", "MB", "ru_maxrss of the campaign process"),
)

# Per trial means over the traced trials.  `_ms` is a span's total time,
# children included, unless it says self; the split.* shares divide
# run_trial's time into disjoint self times.  Where a metric should move:
#   sampler.*: trials_per_s / trial_p50_ms on sample-scale, peak_rss_mb via
#     peak_alloc_mb; flat elsewhere
#   to_finite_graph, build, adjacency, is_connected: trial_p50_ms on
#     trap-campaign; nothing on sample-scale
#   fvcn, validate, graph_peninsula: trial_p50_ms / trials_per_s on
#     trap-campaign
#   hamilton.*: on trap-campaign only the cheap obstructions run, so these
#     stay flat unless a change routes trials past them.  Routes are exact
#     counts and move only when a change says its verdict routes change
#   harness.*, graphon.analyze_ms: setup_s and trials_per_s everywhere
PER_LAYER = (
    ("sampler.sample_ms", "ms/trial", ("total", "sampler.sample_graph")),
    ("sampler.pairs_per_s", "1/s", None),
    ("sampler.edges", "count", None),
    ("sampler.peak_alloc_mb", "MB", None),
    ("sampler.to_finite_graph_ms", "ms/trial", ("total", "sampler.to_finite_graph")),
    ("fracmatch.build_ms", "ms/trial", ("total", "fracmatch.build")),
    ("fracmatch.adjacency_calls", "1/trial", ("calls", "fracmatch.adjacency")),
    ("fracmatch.adjacency_ms", "ms/trial", ("total", "fracmatch.adjacency")),
    ("fracmatch.is_connected_calls", "1/trial", ("calls", "fracmatch.is_connected")),
    ("fracmatch.is_connected_ms", "ms/trial", ("total", "fracmatch.is_connected")),
    ("fracmatch.fvcn_calls", "1/trial", None),
    ("fracmatch.fvcn_value_ms", "ms/trial", ("total", "fracmatch.fvcn_value")),
    ("fracmatch.fvcn_half_ms", "ms/trial", ("total", "fracmatch.fvcn_half")),
    ("fracmatch.validate_ms", "ms/trial", ("total", "fracmatch.validate")),
    ("fracmatch.graph_peninsula_ms", "ms/trial", ("total", "fracmatch.graph_peninsula")),
    ("hamilton.classify_ms", "ms/trial", ("total", "hamilton.classify")),
    ("hamilton.cheap_obstructions_ms", "ms/trial", ("total", "hamilton.cheap_obstructions")),
    ("hamilton.posa_ms", "ms/trial", ("total", "hamilton.posa_heuristic")),
    ("hamilton.posa_calls", "1/trial", ("calls", "hamilton.posa_heuristic")),
    ("hamilton.posa_success_ratio", "ratio", None),
    ("hamilton.exact_ms", "ms/trial", ("self", "hamilton.classify")),
    ("hamilton.validate_cycle_ms", "ms/trial", ("total", "hamilton.validate_cycle")),
    *((f"hamilton.route.{r}", "count", None) for r in (
        "disconnected", "min_degree", "narrow", "heuristic", "exact_yes", "exact_no", "unknown")),
    ("harness.run_trial_self_ms", "ms/trial", ("self", "harness.run_trial")),
    ("harness.aggregate_ms", "ms/trial", ("self", "harness.aggregate")),
    ("harness.write_ms", "ms/trial", ("self", "harness.run_experiment")),
    ("graphon.analyze_ms", "ms/trial", ("total", "graphon.analyze")),
    ("split.sampler_pct", "%", None),
    ("split.graph_build_pct", "%", None),
    ("split.fracmatch_pct", "%", None),
    ("split.hamilton_pct", "%", None),
    ("split.harness_pct", "%", None),
    ("trace.trials", "count", None),
    ("trace.overhead_pct", "%", None),
)


class BenchError(Exception):
    """The benchmark could not produce a result."""


def spawn(root: str, spec: dict, deadline: float) -> dict:
    """Run worker.py on `spec` in a fresh process and return its JSON."""
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    spec = dict(spec, root=root, spawned_at=time.clock_gettime(time.CLOCK_MONOTONIC))
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "worker.py"), json.dumps(spec)],
        cwd=root, env=env, stdout=subprocess.PIPE, text=True,
    )
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"{spec['workload']} {spec['mode']} worker ran past the time budget") from None
    if proc.returncode != 0:
        raise BenchError(f"{spec['workload']} {spec['mode']} worker exited with {proc.returncode}")
    return json.loads(out.splitlines()[-1])


def measure(root: str, workload: str, seed: int, seconds: float, trace: bool,
            prefix_batches=None) -> dict:
    """Run one workload and check it; returns the result and report lines."""
    deadline = time.monotonic() + BUDGET_S
    wl = WORKLOADS[workload]
    prefix = prefix_batches or wl.prefix_batches
    spec = {"workload": workload, "seed": seed, "seconds": seconds, "min_batches": prefix, "batches": None}
    if trace:
        spec["batches"] = max(prefix, int(seconds / 2 / wl.batch_seconds))
        runs = [spawn(root, dict(spec, mode=m), deadline) for m in ("timed", "traced")]
    else:
        probes = [spawn(root, dict(spec, mode="probe"), deadline) for _ in range(SETUP_PROBES)]
        runs = [spawn(root, dict(spec, mode="timed"), deadline)]

    problems = [p for r in runs for p in r["problems"]]
    ref = load_reference(workload) if seed == DEFAULT_SEED else None
    digests, bad_rows, attempted, compared = [], 0, 0, 0
    for r in runs:
        stripped = [strip_runtime(b["csv"]) for b in r["batches"]]
        digests.append(digest([text for text, _ in stripped[:prefix]]))
        rows = [row for _, batch_rows in stripped for row in batch_rows]
        found = check_rows(rows, wl, ref["rows"] if ref else None)
        attempted += len(rows)
        bad_rows += len(found)
        compared += min(len(rows), len(ref["rows"])) if ref else 0
        problems += found
    if len(set(digests)) > 1:
        problems.append(f"traced and untraced runs disagree: digests {digests}")
    lines = [f"digest {digests[0]} ({prefix} batches x {wl.batch_trials} trials, seed {seed})"]
    if ref is not None:
        lines.append(f"reference: {compared} of {attempted} rows compared with reference.json")
        if prefix == ref["prefix_batches"] and digests[0] != ref["digest"]:
            problems.append("prefix digest differs from reference.json")

    if trace:
        metrics = per_layer_metrics(wl, runs[0], runs[1])
    else:
        metrics = end_to_end_metrics(wl, runs[0], probes + runs[:1])
        raw = end_to_end_metrics(wl, runs[0], probes + runs[:1], scaled=False)
        samples = sum(len(b["trial_ms"]) for b in runs[0]["batches"])
        lines.append(f"trial times: {samples} samples, {samples // 10} above trial_p90_ms")
        cal = statistics.fmean(b["cal_s"] for b in runs[0]["batches"])
        lines.append(f"hostspeed: {wl.calibration} kernel {1000 * cal:.4g} ms (mean over batches), "
                     f"reference {1000 * wl.ref_s:.4g} ms")
        lines.append("raw " + ", ".join(f"{k} {v:.6g}" for k, v in raw.items() if k != "peak_rss_mb"))
    units = dict((name, unit) for name, unit, *_ in END_TO_END + PER_LAYER)
    result = {
        "correct": not problems,
        "attempted": attempted,
        # each failing row counts once, and so does each failed run-level check
        "failed": len(problems),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    lines.append(f"trial_error_share {bad_rows / attempted:.6g} share ({bad_rows} of {attempted} trials)")
    return {"result": result, "lines": lines, "problems": problems, "digests": digests,
            "versions": runs[0]["versions"]}


def scale(wl, cal_s: float, scaled: bool = True) -> float:
    """Factor that turns a time measured where the workload's hostspeed
    kernel took `cal_s` into the time on the reference host."""
    return wl.ref_s / cal_s if scaled else 1.0


def trials_per_s(wl, run: dict, scaled: bool = True) -> float:
    return statistics.median(
        len(b["trial_ms"]) / (b["wall_s"] * scale(wl, b["cal_s"], scaled)) for b in run["batches"]
    )


def end_to_end_metrics(wl, run: dict, setup_runs: list[dict], scaled: bool = True) -> dict:
    trial_ms = [ms * scale(wl, b["cal_s"], scaled) for b in run["batches"] for ms in b["trial_ms"]]
    cuts = statistics.quantiles(trial_ms, n=10, method="inclusive")
    run_cal_s = statistics.fmean([b["cal_s"] for b in run["batches"]] + [r["cal_s"] for r in setup_runs])
    return {
        "trials_per_s": trials_per_s(wl, run, scaled),
        "trial_p50_ms": statistics.median(trial_ms),
        "trial_p90_ms": cuts[8],
        "setup_s": statistics.median(r["setup_s"] for r in setup_runs) * scale(wl, run_cal_s, scaled),
        "peak_rss_mb": run["peak_rss_mb"],
    }


def per_layer_metrics(wl, plain: dict, traced: dict) -> dict:
    tr = traced["trace"]
    total, self_time, calls = tr["total"], tr["self"], tr["calls"]
    trials = sum(len(b["trial_ms"]) for b in traced["batches"])

    samples = calls.get("sampler.sample_graph", 0)
    sample_s = total.get("sampler.sample_graph", 0.0)
    posa_calls = calls.get("hamilton.posa_heuristic", 0)
    trial_s = total["harness.run_trial"]

    def share(names):
        return 100 * sum(self_time.get(n, 0.0) for n in names) / trial_s

    graph_build = ["sampler.to_finite_graph", "fracmatch.build"]
    sampler = [n for n in self_time if n.startswith("sampler.") and n not in graph_build]
    fracmatch = [n for n in self_time if n.startswith("fracmatch.") and n not in graph_build]
    out = {}
    for name, _, source in PER_LAYER:
        if source is not None:
            kind, span = source
            table = {"total": total, "self": self_time, "calls": calls}[kind]
            scale = 1 if kind == "calls" else 1000
            out[name] = scale * table.get(span, 0) / trials
    out.update({
        "sampler.pairs_per_s": samples * math.comb(wl.n, 2) / sample_s if sample_s else 0.0,
        "sampler.edges": tr["edges"] / samples if samples else 0.0,
        "sampler.peak_alloc_mb": tr["peak_alloc_bytes"] / 2**20,
        "fracmatch.fvcn_calls": (calls.get("fracmatch.fvcn_value", 0) + calls.get("fracmatch.fvcn_half", 0)) / trials,
        "hamilton.posa_success_ratio": tr["posa_found"] / posa_calls if posa_calls else 0.0,
        **{f"hamilton.route.{r}": c for r, c in tr["routes"].items()},
        "split.sampler_pct": share(sampler),
        "split.graph_build_pct": share(graph_build),
        "split.fracmatch_pct": share(fracmatch),
        "split.hamilton_pct": share([n for n in self_time if n.startswith("hamilton.")]),
        "split.harness_pct": share(["harness.run_trial"]),
        "trace.trials": trials,
        "trace.overhead_pct": 100 * (trials_per_s(wl, plain) / trials_per_s(wl, traced) - 1),
    })
    return {name: out[name] for name, *_ in PER_LAYER}


def program_state(root: str) -> dict:
    """Recorded with every run, never gated on."""
    state = {"nproc": os.cpu_count(), "git_sha": None, "git_dirty": None}
    if os.path.isdir(os.path.join(root, ".git")):
        env = dict(os.environ, GIT_OPTIONAL_LOCKS="0")
        git = ["git", "-C", root]
        sha = subprocess.run(git + ["rev-parse", "HEAD"], capture_output=True, text=True, env=env)
        dirty = subprocess.run(git + ["status", "--porcelain"], capture_output=True, text=True, env=env)
        if sha.returncode == 0:
            state["git_sha"] = sha.stdout.strip()
            state["git_dirty"] = bool(dirty.stdout.strip())
    src_lines = 0
    for dirpath, _, files in os.walk(os.path.join(root, "src")):
        for f in files:
            if f.endswith(".py"):
                with open(os.path.join(dirpath, f), encoding="utf-8") as fh:
                    src_lines += sum(1 for _ in fh)
    state["src_lines"] = src_lines
    return state


def main(argv=None) -> int:
    if not __debug__:
        print("run.py: refusing to run under python -O: the program's soundness asserts "
              "would be stripped, so the run would time a program without its checks", file=sys.stderr)
        return 2
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=55)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not 0 <= args.seed <= MAX_SEED:
        ap.error(f"--seed must be in [0, {MAX_SEED}]")
    if not 0 < args.seconds <= 120:
        ap.error("--seconds must be in (0, 120]")
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "graphonham", "__init__.py")):
        print(f"run.py: no src/graphonham under {root}; run from the root of a checkout", file=sys.stderr)
        return 2
    try:
        out = measure(root, args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 3
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    print("state " + json.dumps({**program_state(root), **out["versions"]}, sort_keys=True))
    print("\n".join(report(out)))
    return 0


def report(out: dict) -> list[str]:
    """Report lines of a `measure` result; the last is the JSON result."""
    lines = out["lines"] + ["PROBLEM " + p for p in out["problems"][:20]]
    lines += [f"{name} {m['value']:.6g} {m['unit']}" for name, m in out["result"]["metrics"].items()]
    return lines + [json.dumps(out["result"])]


if __name__ == "__main__":
    sys.exit(main())
