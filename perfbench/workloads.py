"""The campaign benchmark's workloads.

Each workload is one experiment config run through the public API
(`ExperimentConfig.from_dict` then `run_experiment(..., jobs=1)`), alone in a
fresh process, one trial after another (a closed loop with one client).  A
run is a sequence of batches: batch k is the config with `trials` set to
`batch_trials` and `seed` set to `batch_seed(seed, k)`, so the inputs follow
from the benchmark's `--seed` and every trial is replayable from its row.

Why these two, and the layer split each showed in a traced run at the
default seed when the benchmark was defined (2 vCPUs, Python 3.11.7, numpy
2.4.6, scipy 1.17.1; the host's speed drifted by up to 2x within seconds,
so read times as shares):

trap-campaign
    README's example campaign at its largest n (narrow-three-block, n=400,
    t=4).  About 99% of trials end at the certified narrow trap; there
    fracmatch (the double-cover matching, `fvcn_half`, `graph_peninsula`,
    `HalfCover.validate`) takes 61% of trial time, building the `FiniteGraph`
    35% and sampling 1.5%, with 2 `is_connected`, 3 fvcn and 3 adjacency
    calls per trial.  The other ~1% have fvcn = n/2; the rotation heuristic
    then fails for about 10 s and the verdict is `unknown` (2 of 104 trials
    at seed 10, 0 of 240 at seed 0).  How many a run meets depends on the
    seed, so `trials_per_s` is a median over batches, which they do not
    move; `hamilton.posa_ms` shows their cost.  The workload for a graph
    core, integer half-units and computing fvcn once per trial.
sample-scale
    constant-0.3 at n=4000 with only degree properties, so no `FiniteGraph`
    is built: the sampler module takes 99.9% (`sample_graph` about 88%, the
    two degree bincounts the rest), with a 366 MB traced allocation peak in
    `sample_graph` and 429 MB peak RSS.  The workload for drawing coins in
    row blocks; n=10^4 is left out because it needs 2.3 GB per process.

Each is the workload where its layers' optimisations should show, and the
prediction on the other is no change.

A third workload was measured and left out.  exact-dumbbell (step kernel
with masses 1/2, 1/2 and densities 3/5 inside, 1/40 across; n=22;
property `hamiltonian`) is the only one that reaches exact search:
`hamilton` took 98% of its time (rotation heuristic 55%, bitmask DP 43%
deciding 21% of trials).  Its run-to-run spread over ten seeds (trials_per_s
22%, trial_p50_ms 28%, peak_rss_mb 12% with 35 s runs) did not fit the
bounds: the DP share and its peak memory vary with the seed.  Dropping it
let the other two run 55 s each.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

#: The seed whose verdict rows are stored in reference.json.
DEFAULT_SEED = 0

#: The untimed warm-up trial of set-up.  Its key is fixed, not taken from
#: --seed, so set-up does the same work in every run; its index lies outside
#: every timed batch, whose indices are below `batch_trials`.
WARMUP_SEED = 0
WARMUP_TRIAL_INDEX = 1 << 40

#: Batch seeds pack (seed, k) as seed << 16 | k.
MAX_SEED = (1 << 32) - 1
MAX_BATCHES = 1 << 16


@dataclass(frozen=True)
class Workload:
    name: str
    config: dict
    #: trials per `run_experiment` call
    batch_trials: int
    #: batches every run completes, deadline or not; the printed digest
    #: covers exactly these, so two commits are compared on the same trials
    prefix_batches: int
    #: wall time of one batch when the benchmark was defined; it sizes the
    #: traced run, which replays a fixed number of batches
    batch_seconds: float
    why: str
    #: hostspeed kernel timed around every batch, and about its time in
    #: seconds on the 2-vCPU host where the benchmark was defined, in that
    #: host's fast state; run.py scales the batch's times by ref_s / kernel time
    calibration: str
    ref_s: float
    #: largest max |deg(i)/n - 0.3| a correct sample can show (see below)
    concentration_cap: Optional[float] = None

    @property
    def n(self) -> int:
        return self.config["n_values"][0]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="trap-campaign",
            config={
                "graphon": "narrow-three-block",
                "n_values": [400],
                "trials": 1,
                "seed": 0,
                "t": 4,
                "properties": ["connected", "min_degree_ge_2", "hamiltonian", "fvcn_ge_half"],
            },
            batch_trials=4,
            prefix_batches=3,
            batch_seconds=2.0,
            why=(
                "README campaign at n=400; ~99% of trials end at the narrow trap. Seed split: fracmatch "
                "61%, graph build 35%, sampling 1.5%; the other ~1% spend ~10 s failing in the rotation heuristic"
            ),
            calibration="fractions",
            ref_s=0.006,
        ),
        Workload(
            name="sample-scale",
            config={
                "graphon": "constant-0.3",
                "n_values": [4000],
                "trials": 1,
                "seed": 0,
                "properties": ["min_degree_ge_2", "degree_concentration"],
            },
            batch_trials=4,
            prefix_batches=2,
            batch_seconds=2.6,
            why=(
                "constant-0.3 at n=4000, degree properties only, no FiniteGraph: the sampler is 99.9% "
                "(sample_graph ~88%), 366 MB allocation peak, 429 MB peak RSS"
            ),
            calibration="coins",
            ref_s=0.015,
            # sd of deg(i)/n is sqrt(0.21/4000) = 0.0072, so 0.1 is about 14 sd
            # above the expected maximum over 4000 vertices (about 4 sd)
            concentration_cap=0.1,
        ),
    )
}


def batch_seed(seed: int, k: int) -> int:
    if not (0 <= seed <= MAX_SEED and 0 <= k < MAX_BATCHES):
        raise ValueError(f"batch key out of range: seed={seed}, k={k}")
    return (seed << 16) | k
