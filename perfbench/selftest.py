"""Quick self-test of the benchmark (about a minute).

    python3 perfbench/selftest.py

Run from the root of a checkout.  Each workload runs one batch untraced and
traced at the default seed; the test checks that every metric in
BENCHMARK.json is printed with its unit, that the unscaled times are printed
beside the scaled ones, that both runs give the same verdict digest, that
the reference comparison passes and catches a changed row, and that the
benchmark refuses to run under `python -O` or outside a checkout.  Exits
non-zero on the first failure.
"""

from __future__ import annotations

import contextlib
import json
import os
import shutil
import subprocess
import sys
import time

from checks import check_rows, load_reference, strip_runtime
from run import END_TO_END, PER_LAYER, measure, report, spawn
from workloads import DEFAULT_SEED, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))


def check(ok: bool, what: str) -> None:
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        sys.exit(1)


def main() -> None:
    root = os.getcwd()
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    declared = {
        False: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        True: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    check(declared[False] == {n: u for n, u, _ in END_TO_END}, "end_to_end metrics match run.END_TO_END")
    check(declared[True] == {n: u for n, u, _ in PER_LAYER}, "per_layer metrics match run.PER_LAYER")
    check({w["name"]: w["why"] for w in bench["workloads"]} == {n: w.why for n, w in WORKLOADS.items()},
          "workloads and their reasons match workloads.WORKLOADS")

    for name, wl in WORKLOADS.items():
        digests = []
        for trace in (False, True):
            out = measure(root, name, DEFAULT_SEED, 0, trace, prefix_batches=1)
            lines = report(out)
            result = json.loads(lines[-1])
            tag = f"{name} trace={int(trace)}"
            check(result["correct"] and result["failed"] == 0, f"{tag}: correct, no failures {out['problems'][:3]}")
            check(set(result["metrics"]) == set(declared[trace]), f"{tag}: JSON holds exactly the declared metrics")
            check(all(f"{n} " in "\n".join(lines) and m["unit"] == declared[trace][n]
                      for n, m in result["metrics"].items()), f"{tag}: every metric printed with its unit")
            check(any(line.startswith("reference: ") for line in lines), f"{tag}: rows compared with the reference")
            if not trace:
                check(any(line.startswith("raw ") for line in lines), f"{tag}: unscaled times printed")
            digests += out["digests"]
        check(len(set(digests)) == 1, f"{name}: traced and untraced verdict digests agree")

    # the reference comparison must catch a row that changed
    wl = WORKLOADS["trap-campaign"]
    spec = {"workload": wl.name, "seed": DEFAULT_SEED, "seconds": 0, "mode": "timed",
            "min_batches": 1, "batches": 1}
    _, rows = strip_runtime(spawn(root, spec, deadline=time.monotonic() + 120)["batches"][0]["csv"])
    ref_rows = load_reference(wl.name)["rows"]
    check(check_rows(rows, wl, ref_rows) == [], "reference rows match the program")
    flipped = [dict(r) for r in rows]
    flipped[2]["trial_index"] = "3"
    check(len(check_rows(flipped, wl, ref_rows)) == 1, "a changed row is reported once")

    args = ["--workload", "trap-campaign", "--seconds", "1"]
    opt = subprocess.run([sys.executable, "-O", os.path.join(HERE, "run.py"), *args],
                         cwd=root, capture_output=True, text=True, timeout=60)
    check(opt.returncode != 0 and not opt.stdout.strip(), "refuses under python -O")
    empty = os.path.join(root, ".bench_work", "selftest-empty")
    os.makedirs(empty, exist_ok=True)
    try:
        bare = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), *args],
                              cwd=empty, capture_output=True, text=True, timeout=60)
    finally:
        shutil.rmtree(empty)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(empty))
    check(bare.returncode != 0 and not bare.stdout.strip(), "refuses outside a checkout")
    print("selftest passed")


if __name__ == "__main__":
    main()
