"""Two-stage random graph generation from a graphon, with replayable seeding.

Stage one draws n i.i.d. latent types; stage two flips one coin per vertex
pair, row-major over i < j, with success probability equal to the kernel at
the two types.  Each (seed, trial_index) pair keys its own pair of
counter-based Philox streams (one for types, one for edges), so trials can
run in any order, in parallel, and still replay bit-exactly.  The coins are
drawn in blocks of consecutive rows, each block's upper-triangle run into
one flat buffer.  A counter-based stream can be positioned at any coin, so
each block opens the edge stream at its own first coin and the blocks run on
every CPU the process has: the coins are those of one large draw, whatever
the block size or the thread count, and no array holds every pair.  A step
kernel whose densities are all 0 or 1 fixes every coin's outcome, so its
edges come from the types alone and the edge stream is not drawn;
`edge_coin` still replays every coin.
"""

from __future__ import annotations

import os
import queue
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import FormatError
from .fracmatch import FiniteGraph, _edge_list_text
from .graphon import Graphon, PowerFamilyGraphon, StepGraphon

_TYPE_CHANNEL = 0
_EDGE_CHANNEL = 1
#: Cells of the (rows x row length) rectangles that the blocks of edge
#: coins drawn at one time span together; a block holds at least one row.
_BLOCK_COINS = 1 << 20


def _check_seed(seed: int) -> None:
    """A seed keys the streams as one 64-bit word, so any other would alias one."""
    if not 0 <= seed < 1 << 64:
        raise FormatError("must be in [0, 2**64)", "seed")


def _philox(seed: int, trial_index: int, channel: int) -> np.random.Philox:
    """The bit generator of one (seed, trial_index, channel) stream."""
    _check_seed(seed)
    if not 0 <= trial_index < 1 << 62:
        raise FormatError("trial_index out of range", "trial_index")
    key = np.array([np.uint64(seed), np.uint64((trial_index << 1) | channel)], dtype=np.uint64)
    return np.random.Philox(key=key)


def _stream(seed: int, trial_index: int, channel: int) -> np.random.Generator:
    return np.random.Generator(_philox(seed, trial_index, channel))


def _edge_stream_at(seed: int, trial_index: int, pos: int) -> np.random.Generator:
    """The edge stream of a trial, positioned at its pos-th coin.

    Philox emits four 64-bit words per counter tick, so advancing the raw
    counter by pos // 4 and discarding pos % 4 draws lands exactly there.
    """
    bg = _philox(seed, trial_index, _EDGE_CHANNEL)
    bg.advance(pos // 4)
    gen = np.random.Generator(bg)
    gen.random(pos % 4)
    return gen


def _sampling_threads() -> int:
    """The threads one sample draws its coin blocks on: every CPU in the
    process's affinity, or 1 in a multiprocessing worker, whose pool
    already spreads trials over the CPUs."""
    import multiprocessing

    if multiprocessing.parent_process() is not None:
        return 1
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@dataclass(frozen=True)
class SampledGraph:
    """One sampled graph together with its latent types and replay key."""

    model: Graphon
    n: int
    edges: np.ndarray  # (m, 2) int32, u < v, row-major, read-only
    type_block: Optional[np.ndarray]  # int64 per vertex, None for power family
    type_offset: np.ndarray  # float64 per vertex
    seed: int
    trial_index: int
    _degrees: np.ndarray = field(repr=False, compare=False)  # int64 per vertex, read-only

    def degrees(self) -> np.ndarray:
        """Degree of every vertex, counted while the edges were drawn."""
        return self._degrees

    def to_finite_graph(self) -> FiniteGraph:
        return FiniteGraph.build(self.n, self.edges)

    def sidecar_dict(self) -> dict:
        d = {
            "seed": self.seed,
            "trial_index": self.trial_index,
            "n": self.n,
            "model": self.model.to_dict(),
            "type_offset": [float(o) for o in self.type_offset],
        }
        if self.type_block is not None:
            d["type_block"] = [int(b) for b in self.type_block]
        return d


def _cumulative_masses(g: StepGraphon) -> np.ndarray:
    cum = np.cumsum(np.array([float(m) for m in g.block_masses], dtype=np.float64))
    cum[-1] = 1.0  # guard against float drift; u lives in [0, 1)
    return cum


def sample_types(
    g: Graphon, n: int, seed: int, trial_index: int = 0
) -> tuple[Optional[np.ndarray], np.ndarray]:
    """Stage one alone: n i.i.d. latent types, deterministic in the key.

    Returns (block, offset): the block index of each vertex and its offset
    within the block.  The analytic family has no blocks; `block` is None
    and `offset` is the position in [0, 1).
    """
    if n < 1:
        raise FormatError("n must be at least 1", "n")
    gen = _stream(seed, trial_index, _TYPE_CHANNEL)
    u = gen.random(n)
    if isinstance(g, PowerFamilyGraphon):
        return None, u
    cum = _cumulative_masses(g)
    block = np.searchsorted(cum, u, side="right").astype(np.int64)
    low = np.concatenate([[0.0], cum[:-1]])
    width = cum[block] - low[block]
    offset = np.where(width > 0, (u - low[block]) / np.where(width > 0, width, 1.0), 0.0)
    return block, offset


def sample_graph(g: Graphon, n: int, seed: int, trial_index: int = 0) -> SampledGraph:
    """Both stages; the edges are the pairs i < j whose coin, in row-major
    order, falls below the kernel at the two types.

    A step kernel whose every density is 0 or 1 draws no edge coin: a coin
    lies in [0, 1), so it always falls below 1 and never below 0, and the
    edges are read off the types (`_type_edges`).  Every other kernel draws
    exactly C(n, 2) coins (`_coin_edges`).  Both give the same int32 (m, 2)
    array in row-major order, read-only, so `to_finite_graph` can keep it.
    """
    block, offset = sample_types(g, n, seed, trial_index)
    dens = None
    if isinstance(g, StepGraphon):
        dens = np.array([[float(d) for d in row] for row in g.densities])
    if dens is not None and ((dens == 0) | (dens == 1)).all():
        edges, deg = _type_edges(dens == 1, block)
    else:
        edges, deg = _coin_edges(g, dens, block, offset, seed, trial_index)
    edges.flags.writeable = False
    deg.flags.writeable = False
    return SampledGraph(g, n, edges, block, offset, seed, trial_index, deg)


def _type_edges(ones: np.ndarray, block: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The edges of a 0/1 step kernel, where ones[a, b] says density 1, and
    the degree of every vertex.

    Block a's partners are the ids j, ascending, with ones[a, block[j]];
    row i's upper neighbours are the suffix of its block's list after i.
    All lists lie in one array keyed a*n + j, so one `searchsorted` finds
    every row's suffix, and one gather from that array writes the pairs.
    """
    n = len(block)
    part_block, part = np.nonzero(ones[:, block])
    key = part_block * n + part
    first = np.searchsorted(key, block * n + np.arange(n), side="right")
    count = np.searchsorted(key, (block + 1) * n) - first
    e = np.empty((int(count.sum()), 2), dtype=np.int32)
    e[:, 0] = np.repeat(np.arange(n, dtype=np.int32), count)
    at = np.repeat(first - (np.cumsum(count) - count), count)
    at += np.arange(len(e))
    column = part[at]
    e[:, 1] = column
    return e, count + np.bincount(column, minlength=n)


def _coin_edges(
    g: Graphon,
    dens: Optional[np.ndarray],
    block: Optional[np.ndarray],
    offset: np.ndarray,
    seed: int,
    trial_index: int,
) -> tuple[np.ndarray, np.ndarray]:
    """The edges from C(n, 2) coins drawn in row-major i < j order, and the
    degree of every vertex.

    Rows i..i+r-1, w = n-1-i cells long, are drawn together as one flat run
    of their r*w - r(r-1)/2 upper cells, row t starting at position
    t*w - t(t-1)/2 with the pair (i+t, i+t+1).  A kernel of one density is
    compared with that scalar; any other meets the run with the upper cells
    of its (r x w) probability block, read in row-major order.  Each block
    opens the edge stream at its own first coin, counts its hits per row
    into its slice of `rowcount` and returns its columns with their counts,
    so the blocks may run in any order; on several threads each spans about
    `_BLOCK_COINS // threads` coins, so as many coins are in flight as on
    one.  The pairs are written once the columns are in and the coin
    buffers freed: column 1 first, dropping each block's part as it is
    copied, then column 0 from the row counts, so the assembly holds at
    most 1.5 times the edge array.
    """
    n = len(offset)
    step = dens is not None
    scalar = step and (dens == dens[0, 0]).all()
    threads = _sampling_threads()
    spans = []  # (first row, rows) of each block
    i = 0
    while i < n - 1:
        w = n - 1 - i
        spans.append((i, min(w, max(1, _BLOCK_COINS // threads // w))))
        i += spans[-1][1]
    threads = max(1, min(threads, len(spans)))
    # r*w <= max(_BLOCK_COINS // threads, w), so one buffer per thread serves every block
    buffers = queue.SimpleQueue()
    for _ in range(threads):
        buffers.put(np.empty(min(n * (n - 1) // 2, _BLOCK_COINS // threads + n)))
    rowcount = np.zeros(n, dtype=np.int64)

    def draw(span: tuple[int, int]) -> tuple[np.ndarray, np.ndarray]:
        i, r = span
        w = n - 1 - i
        t = np.arange(r)
        start = t * w - t * (t - 1) // 2
        buf = buffers.get()
        try:
            gen = _edge_stream_at(seed, trial_index, edge_stream_offset(n, i, i + 1))
            coins = gen.random(out=buf[:r * w - r * (r - 1) // 2])
            if scalar:
                p = dens[0, 0]
            else:
                if step:
                    p = np.take(dens[block[i:i + r]], block[i + 1:], axis=1)
                else:
                    p = np.clip(np.multiply.outer(offset[i:i + r], offset[i + 1:]) ** float(g.beta), 0.0, 1.0)
                p = p[np.arange(w) >= t[:, None]]
            hits = np.flatnonzero(coins < p)
        finally:
            buffers.put(buf)
        count = np.diff(np.searchsorted(hits, start), append=len(hits))
        rowcount[i:i + r] = count
        hits += np.repeat(i + 1 + t - start, count)  # now the column of each hit
        return hits.astype(np.int32), np.bincount(hits, minlength=n)

    deg = np.zeros(n, dtype=np.int64)
    parts = []
    pool = None
    if threads > 1:
        from concurrent.futures import ThreadPoolExecutor

        pool = ThreadPoolExecutor(threads)
    try:
        for column, column_count in (pool.map if pool else map)(draw, spans):
            parts.append(column)
            deg += column_count
    finally:
        if pool is not None:
            # on an error the blocks not yet started are dropped; either way
            # no thread outlives the sample (`experiment --jobs` forks)
            pool.shutdown(cancel_futures=True)
    del buffers  # freed before the edge array is made
    deg += rowcount
    e = np.empty((sum(len(c) for c in parts), 2), dtype=np.int32)
    at = 0
    for k in range(len(parts)):
        e[at:at + len(parts[k]), 1] = parts[k]
        at += len(parts[k])
        parts[k] = None
    e[:, 0] = np.repeat(np.arange(n, dtype=np.int32), rowcount)
    return e, deg


def edge_stream_offset(n: int, i: int, j: int) -> int:
    """Position of pair {i, j} (i < j) in the row-major coin stream."""
    if not 0 <= i < j < n:
        raise FormatError("need 0 <= i < j < n", "pair")
    return i * (2 * n - i - 1) // 2 + (j - i - 1)

def edge_coin(seed: int, trial_index: int, offset: int) -> float:
    """The offset-th edge coin of a trial, regenerated from the counter alone
    (`_edge_stream_at`); this is what makes per-pair accounting testable."""
    if offset < 0:
        raise FormatError("must be nonnegative", "offset")
    return float(_edge_stream_at(seed, trial_index, offset).random())


def degree_concentration_report(graph: SampledGraph) -> float:
    """max over vertices of |deg(i)/n - kernel degree at the vertex's type|."""
    n = graph.n
    deg = graph.degrees() / n
    g = graph.model
    if isinstance(g, StepGraphon):
        block_deg = np.array([float(d) for d in g.block_degrees()])
        expected = block_deg[graph.type_block]
    else:
        expected = g.degree_at(graph.type_offset)
    return float(np.max(np.abs(deg - expected)))


# ---------------------------------------------------------------------------
# file interface: edge-list text plus a structured sidecar


def write_graph(graph: SampledGraph, path: str) -> str:
    """Write edge-list text to `path` and the sidecar to `path + '.meta.json'`."""
    import json

    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_edge_list_text(graph.n, graph.edges))
    meta = path + ".meta.json"
    with open(meta, "w", encoding="utf-8") as fh:
        json.dump(graph.sidecar_dict(), fh, indent=1)
    return meta


def load_graph(path: str) -> FiniteGraph:
    with open(path, "r", encoding="utf-8") as fh:
        return FiniteGraph.from_edge_list_text(fh.read())
