"""Host-speed calibration for the benchmark's timings.

On a small shared host the speed a process gets drifts by up to 2x within
seconds: on a 2-vCPU cloud VM a fixed Python loop took about 6 ms in some
half-second stretches and 10-11 ms in others, the share of slow stretches
drifted from minute to minute, and CPU time drifted with wall time, so the
slowdown is the hardware's, not the scheduler's.  Over a 55 s run that drift
moved a workload's median trial time by 15-50% between runs of the same code.

So each worker times a small fixed kernel of the benchmark's own before and
after every batch, and run.py rescales the batch's times by
`ref_s / kernel time`: a time is reported as it would read on a host where
the kernel takes `ref_s`.  The kernels do not call the program, so a change
to the program moves the scaled times by the same factor as the raw ones.
run.py prints the raw figures too.

The kernel does the same kind of work as its workload: the Fraction kernel
did not follow the numpy-bound sample-scale (its scaled times spread more
between runs than the raw ones), the coin-drawing kernel did.
"""

from __future__ import annotations

import gc
import statistics
import time
from fractions import Fraction

import numpy as np


def fractions_kernel() -> None:
    """Exact rational arithmetic and small containers, as in fracmatch."""
    total = Fraction(0)
    rows = {}
    for i in range(1, 2000):
        total += Fraction(1, i % 97 + 1)
        rows[i] = [i] * 5


def coins_kernel() -> None:
    """One small graph's edge coins drawn the way the sampler draws them."""
    n = 900
    gen = np.random.Generator(np.random.Philox(key=7))
    iu, ju = np.triu_indices(n, k=1)
    sel = gen.random(len(iu)) < 0.3
    edges = np.column_stack([iu[sel], ju[sel]]).astype(np.int32)
    np.bincount(edges.ravel(), minlength=n)


KERNELS = {"fractions": fractions_kernel, "coins": coins_kernel}


def probe(kind: str, repeats: int = 3) -> float:
    """Mean wall time of `repeats` calls of a kernel, in seconds.

    A shared host can switch between a fast and a slow state within a
    second, so a mean, which weighs the two by how often they show,
    estimates the slowdown a longer piece of work meets; a median would
    pick one state."""
    kernel = KERNELS[kind]
    times = []
    # the kernels make no reference cycles; with the collector off their time
    # does not depend on how many objects the program holds
    gc.disable()
    try:
        for _ in range(repeats):
            t0 = time.perf_counter()
            kernel()
            times.append(time.perf_counter() - t0)
    finally:
        gc.enable()
    return statistics.fmean(times)


if __name__ == "__main__":
    # python3 perfbench/hostspeed.py: time each kernel, to set a workload's ref_s
    for name in KERNELS:
        runs = [probe(name) for _ in range(100)]
        q = statistics.quantiles(runs, n=4)
        print(f"{name}: median {1000 * statistics.median(runs):.3f} ms, "
              f"quartiles {1000 * q[0]:.3f} / {1000 * q[2]:.3f} ms")
