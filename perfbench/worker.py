"""One workload in one fresh process; started by run.py, never by hand.

argv[1] is a JSON spec: root, workload, seed, mode ("probe" | "timed" |
"traced"), seconds, min_batches, batches, spawned_at.  The process sets up
(import, config parsing, `analyze`, one warm-up trial), then for a probe it
stops; otherwise it runs batches of the campaign and prints one JSON object
with the raw `trials.csv` of every batch and the timings read from the
program's own `TrialRecord`s.  Set-up time runs from `spawned_at`, taken by
the parent on the system-wide monotonic clock just before it started this
process.  The workload's hostspeed kernel is timed after set-up and after
every batch (`cal_s`), so run.py can scale the times to the reference host.
"""

from __future__ import annotations

import contextlib
import json
import os
import resource
import shutil
import sys
import time
from collections import deque
from dataclasses import replace
from fractions import Fraction

import hostspeed
from workloads import WARMUP_SEED, WARMUP_TRIAL_INDEX, WORKLOADS, batch_seed


def main() -> None:
    spec = json.loads(sys.argv[1])
    if not __debug__:
        sys.exit("worker: refusing to run with assertions stripped (python -O)")
    root = spec["root"]
    import graphonham
    from graphonham import ExperimentConfig, analyze, harness, run_trial

    src = os.path.join(root, "src") + os.sep
    if not os.path.abspath(graphonham.__file__).startswith(src):
        sys.exit(f"worker: imported graphonham from {graphonham.__file__}, not from {src}")

    wl = WORKLOADS[spec["workload"]]
    config = ExperimentConfig.from_dict(wl.config)
    analyze(config.graphon)
    warm = run_trial(replace(config, seed=WARMUP_SEED), wl.n, WARMUP_TRIAL_INDEX)
    out = {"setup_s": time.clock_gettime(time.CLOCK_MONOTONIC) - spec["spawned_at"]}
    out["cal_s"] = hostspeed.probe(wl.calibration)
    out["problems"] = [f"warm-up trial failed: {warm.error}"] if warm.error else []
    if spec["mode"] == "probe":
        print(json.dumps(out))
        return

    tracer = None
    if spec["mode"] == "traced":
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    work_dir = os.path.join(root, ".bench_work", f"{wl.name}-{os.getpid()}")
    try:
        batches, first_records = _run_batches(harness, config, wl, spec, work_dir, out["cal_s"])
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(work_dir, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by another worker
            os.rmdir(os.path.dirname(work_dir))
    out["batches"] = batches
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        out["trace"] = tracer.summary()
    else:
        out["problems"] += spot_check(config, first_records)
    out["versions"] = _versions()
    print(json.dumps(out))


def _run_batches(harness, config, wl, spec, work_dir, cal_before):
    """Fixed `batches`, or at least `min_batches` and then until `seconds` pass.

    A batch's `cal_s` is the mean of the kernel times just before and just
    after it."""
    fixed = spec["batches"]
    deadline = time.perf_counter() + spec["seconds"]
    batches, first_records = [], None
    k = 0
    while k < fixed if fixed is not None else (k < spec["min_batches"] or time.perf_counter() < deadline):
        batch = replace(config, seed=batch_seed(spec["seed"], k), trials=wl.batch_trials)
        out_dir = os.path.join(work_dir, str(k))
        t0 = time.perf_counter()
        _, records = harness.run_experiment(batch, out_dir, jobs=1)
        wall = time.perf_counter() - t0
        cal_after = hostspeed.probe(wl.calibration)
        with open(os.path.join(out_dir, "trials.csv"), encoding="utf-8") as fh:
            csv_text = fh.read()
        shutil.rmtree(out_dir)
        batches.append({
            "wall_s": wall,
            "cal_s": (cal_before + cal_after) / 2,
            "csv": csv_text,
            "trial_ms": [
                1000 * (r.runtime.get("sample", 0.0) + r.runtime.get("properties", 0.0))
                for r in records
            ],
        })
        if first_records is None:
            first_records = records
        cal_before = cal_after
        k += 1
    return batches, first_records


def _versions() -> dict:
    from importlib.metadata import version

    import numpy

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": version("scipy"),
    }


# ---------------------------------------------------------------------------
# independent re-check of a few verdicts, outside the timed region


def spot_check(config, records, limit: int = 3) -> list[str]:
    """Replay up to `limit` trials of the first batch, one per distinct
    verdict, and check each certificate against the sampled edge list with
    code of the benchmark's own.  A `exact_search_exhausted` verdict has no
    certificate that is cheap to check, so it is replayed only."""
    import numpy as np
    from graphonham import classify, graph_peninsula, hamilton, sample_graph

    problems, seen = [], set()
    for rec in records:
        o = rec.outcomes
        key = (o.get("ham_status"), o.get("ham_obstruction"))
        if key in seen or rec.error:
            continue
        seen.add(key)
        if len(seen) > limit:
            break
        tag = f"seed {rec.seed} trial {rec.trial_index}"
        sampled = sample_graph(config.graphon, rec.n, rec.seed, rec.trial_index)
        n = sampled.n
        if "degree_concentration" in o:
            block_deg = np.array([float(d) for d in config.graphon.block_degrees()])
            deg = np.bincount(sampled.edges.ravel(), minlength=n)
            value = float(np.max(np.abs(deg / n - block_deg[sampled.type_block])))
            if abs(value - o["degree_concentration"]) > 1e-12:
                problems.append(f"{tag}: degree_concentration {o['degree_concentration']} != {value}")
        if "ham_status" not in o:
            continue
        edges = {(int(u), int(v)) for u, v in sampled.edges.tolist()}
        graph = sampled.to_finite_graph()
        # the harness seeds the rotation heuristic with seed ^ trial_index
        verdict = classify(
            graph,
            budget=config.budget,
            seed=rec.seed ^ rec.trial_index,
            posa_restarts=config.posa_restarts,
        )
        if (verdict.status, verdict.obstruction) != key:
            problems.append(f"{tag}: replay gave {verdict.status}/{verdict.obstruction}, row has {key}")
            continue
        if verdict.status == hamilton.STATUS_HAMILTONIAN and not _is_hamilton_cycle(n, edges, verdict.witness):
            problems.append(f"{tag}: witness is not a Hamilton cycle")
        elif verdict.obstruction == hamilton.OBSTRUCTION_DISCONNECTED and _is_connected(n, edges):
            problems.append(f"{tag}: 'disconnected' graph is connected")
        elif verdict.obstruction == hamilton.OBSTRUCTION_MIN_DEGREE and _min_degree(n, edges) >= 2:
            problems.append(f"{tag}: 'min degree' graph has minimum degree >= 2")
        elif verdict.obstruction == hamilton.OBSTRUCTION_NARROW:
            cert = graph_peninsula(graph)
            if cert is None or not _is_narrow_trap(n, edges, cert.A, cert.B):
                problems.append(f"{tag}: narrow trap certificate does not hold")
    return problems


def _is_hamilton_cycle(n, edges, cycle) -> bool:
    if cycle is None or len(cycle) != n or set(cycle) != set(range(n)):
        return False
    return all((min(a, b), max(a, b)) in edges for a, b in zip(cycle, cycle[1:] + cycle[:1]))


def _is_connected(n, edges) -> bool:
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    seen, todo = {0}, deque([0])
    while todo:
        for w in adj[todo.popleft()]:
            if w not in seen:
                seen.add(w)
                todo.append(w)
    return len(seen) == n


def _min_degree(n, edges) -> int:
    deg = [0] * n
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    return min(deg)


def _is_narrow_trap(n, edges, A, B) -> bool:
    a, b = set(A), set(B)
    if not a or a & b:
        return False
    if any((u in a and (v in a or v in b)) or (v in a and u in b) for u, v in edges):
        return False
    return Fraction(len(a)) > Fraction(n - len(b), 2)


if __name__ == "__main__":
    main()
