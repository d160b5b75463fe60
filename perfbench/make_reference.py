"""Regenerate reference.json, the verdict rows of the default seed.

    python3 perfbench/make_reference.py [workload ...]

Run from the root of a checkout.  It stores one short hash per row (runtime
columns dropped) for the first `BATCHES[workload]` batches, about three times
what a run at the benchmark's `run_seconds` gets through today, and the digest
of the prefix batches.  Rows past the end are checked by the invariants
only.  Regenerate only for a change that alters verdicts on purpose, and
say so in that change.
"""

from __future__ import annotations

import json
import os
import sys
import time

from checks import REFERENCE_PATH, check_rows, digest, row_hash, strip_runtime
from run import spawn
from workloads import DEFAULT_SEED, WORKLOADS

BATCHES = {"trap-campaign": 130, "sample-scale": 100}


def main(names: list[str]) -> int:
    root = os.getcwd()
    ref = {"seed": DEFAULT_SEED, "workloads": {}}
    if os.path.exists(REFERENCE_PATH):
        with open(REFERENCE_PATH, encoding="utf-8") as fh:
            ref = json.load(fh)
    for name in names or sorted(WORKLOADS):
        wl = WORKLOADS[name]
        spec = {"workload": name, "seed": DEFAULT_SEED, "seconds": 0, "mode": "timed",
                "min_batches": BATCHES[name], "batches": BATCHES[name]}
        out = spawn(root, spec, deadline=time.monotonic() + 3600)
        stripped = [strip_runtime(b["csv"]) for b in out["batches"]]
        rows = [row for _, batch_rows in stripped for row in batch_rows]
        problems = out["problems"] + check_rows(rows, wl)
        if problems:
            print(f"{name}: refusing to store a reference with problems:", *problems[:10], sep="\n  ")
            return 1
        ref["workloads"][name] = {
            "batch_trials": wl.batch_trials,
            "prefix_batches": wl.prefix_batches,
            "digest": digest([text for text, _ in stripped[: wl.prefix_batches]]),
            "rows": [row_hash(row) for row in rows],
        }
        print(f"{name}: {len(rows)} rows")
    with open(REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(ref, fh, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
