"""Two-stage random graph generation from a graphon, with replayable seeding.

Stage one draws n i.i.d. latent types; stage two flips one coin per vertex
pair, row-major over i < j, with success probability equal to the kernel at
the two types.  Each (seed, trial_index) pair keys its own pair of
counter-based Philox streams (one for types, one for edges), so trials can
run in any order, in parallel, and still replay bit-exactly.  The coins are
drawn in blocks of consecutive rows, each block's upper-triangle cells as
one flat run of raw 64-bit Philox words.  A coin is the double
(x >> 11) * 2**-53 of its word x, so it falls below a density p exactly when
x >> 11 < ceil(p * 2**53): step kernels compare the words with such integer
thresholds and never form the doubles.  A counter-based stream can be
positioned at any coin, so each block opens the edge stream at its own first
coin and the blocks run on every CPU the process has: the coins are those of
one large draw, whatever the block size or the thread count, and no array
holds every pair.  A sample is its graph, one `FiniteGraph` made when it is
sampled and defined by what the sampler drew: the blocks' row counts and
int32 columns, half the edge array, from which the graph assembles its
edge array on first read.  A step kernel whose densities are all 0 or 1
fixes every coin's outcome: the sample's graph is then the blow-up of the
kernel's 0/1 table over the types, defined by the two alone, and the edge
stream is not drawn; `edge_coin` still replays every coin.
"""

from __future__ import annotations

import os
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


def _edge_stream_at(seed: int, trial_index: int, pos: int) -> np.random.Philox:
    """The edge stream of a trial, positioned at its pos-th coin.

    Philox emits four 64-bit words per counter tick, one word per coin, so
    advancing the raw counter by pos // 4 and discarding pos % 4 words lands
    exactly there.
    """
    bg = _philox(seed, trial_index, _EDGE_CHANNEL)
    bg.advance(pos // 4)
    bg.random_raw(pos % 4, output=False)
    return bg


def _threshold(p: float | np.ndarray) -> np.ndarray:
    """The integer K with `(x >> 11) * 2**-53 < p` iff `x >> 11 < K` for
    every 64-bit word x: x >> 11 is an integer, and p * 2**53 only rescales
    the float64 p, so K = ceil(p * 2**53).  Density 0 gives 0 and density 1
    gives 2**53."""
    return np.ceil(np.asarray(p, dtype=np.float64) * 2.0**53).astype(np.uint64)


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


@dataclass(frozen=True, eq=False)
class SampledGraph:
    """One sampled graph together with its latent types and replay key.  The
    graph is `_graph`, made at sampling time: the blow-up of a 0/1 kernel's
    table over the blocks, or the rows any other kernel's coins drew, with
    a step kernel's blocks.  Its edge array is built on first read."""

    model: Graphon
    n: int
    type_block: Optional[np.ndarray]  # int64 per vertex, None for power family
    type_offset: np.ndarray  # float64 per vertex
    seed: int
    trial_index: int
    _degrees: np.ndarray = field(repr=False, compare=False)  # int64 per vertex, read-only
    _graph: FiniteGraph = field(repr=False, compare=False)

    @property
    def edges(self) -> np.ndarray:
        """The (m, 2) int32 edges u < v, row-major, read-only, column-major:
        the graph's `edge_array`, built there on the first read of either."""
        return self._graph.edge_array

    def degrees(self) -> np.ndarray:
        """Degree of every vertex, read-only: counted while the coins were
        drawn, or on a 0/1 kernel the graph's own (`FiniteGraph._degrees`)."""
        return self._degrees

    def to_finite_graph(self) -> FiniteGraph:
        """The sample's one graph, handed only its definition and, on a step
        kernel, its vertex blocks, which speed how its degrees, traps, fvcn
        and connectivity are read but cannot change them.  Neither the
        kernel's densities nor the degrees counted here are handed over."""
        return self._graph

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
    u = np.random.Generator(_philox(seed, trial_index, _TYPE_CHANNEL)).random(n)
    if isinstance(g, PowerFamilyGraphon):
        return None, u
    block = g._cumulative_masses.searchsorted(u, side="right").astype(np.int64, copy=False)
    # the search puts u in the block b with cum[b - 1] <= u < cum[b], so its
    # float width cum[b] - cum[b - 1] is positive and no guard is read
    low, width = g._block_spans
    return block, (u - low[block]) / width[block]


def sample_graph(g: Graphon, n: int, seed: int, trial_index: int = 0) -> SampledGraph:
    """Both stages; the edges are the pairs i < j whose coin, in row-major
    order, falls below the kernel at the two types.

    A step kernel whose every density is 0 or 1 draws no edge coin: a coin
    lies in [0, 1), so it always falls below 1 and never below 0, and the
    graph is the blow-up of the kernel's 0/1 table over the types, kept as
    that definition; its edges are built only when read (`FiniteGraph`), and
    its degrees are the graph's own, read off its blocks with no pass over
    the edges.  Every other kernel draws
    exactly C(n, 2) coins (`_coin_edges`), whose rows define the graph, so
    either way the sample's one `FiniteGraph` is made here and builds its
    read-only int32 (m, 2) edge array, row-major, only when first read.
    """
    block, offset = sample_types(g, n, seed, trial_index)
    step = isinstance(g, StepGraphon)
    ones = g._zero_one_table if step else None
    if ones is not None:
        graph = FiniteGraph(n, None, block, ones)
        deg = graph._degrees
    else:
        rows, deg = _coin_edges(g, g._float_densities if step else None, block, offset, seed, trial_index)
        graph = FiniteGraph(n, None, block, _rows=rows)
        deg.flags.writeable = False
    return SampledGraph(g, n, block, offset, seed, trial_index, deg, graph)


def _coin_edges(
    g: Graphon,
    dens: Optional[np.ndarray],
    block: Optional[np.ndarray],
    offset: np.ndarray,
    seed: int,
    trial_index: int,
) -> tuple[tuple, np.ndarray]:
    """The edges from C(n, 2) coins drawn in row-major i < j order, as the
    rows that define the sample's graph (`FiniteGraph._rows`), and the
    degree of every vertex.

    Rows i..i+r-1, w = n-1-i cells long, are drawn together as one flat run
    of r*w - r(r-1)/2 raw words for their upper cells, row t starting at
    position t*w - t(t-1)/2 with the pair (i+t, i+t+1).  A kernel of one
    density p (0 < p < 1: a 0/1 kernel draws no coin) compares each word x
    with the one word `_threshold(p) << 11`.  Other step kernels shift the
    words to x >> 11 and meet them with the upper cells of the (r x w)
    block of the k x k threshold table, read in row-major order, so
    densities 0 and 1 need no special case.  A power kernel turns the
    shifted words into the coins (x >> 11) * 2**-53 and compares them with
    its probabilities.  Each block opens the edge stream at its own first
    coin, counts its hits per row into its slice of `rowcount`, keeps its
    int32 columns in its slot of `parts` and returns how often each column
    occurs, so the blocks may run in any order; on several threads each
    spans about `_BLOCK_COINS // threads` coins, so as many coins are in
    flight as on one.  The row counts and parts, half the size of the edge
    array, are all that is kept: the graph assembles the array only when it
    is read (`fracmatch._row_edges`).
    """
    n = len(offset)
    step = dens is not None
    scalar = step and (dens == dens[0, 0]).all()
    if scalar:
        bound = np.uint64(int(_threshold(dens[0, 0])) << 11)
    elif step:
        table = _threshold(dens)
    threads = _sampling_threads()
    spans = []  # (first row, rows) of each block
    i = 0
    while i < n - 1:
        w = n - 1 - i
        spans.append((i, min(w, max(1, _BLOCK_COINS // threads // w))))
        i += spans[-1][1]
    threads = max(1, min(threads, len(spans)))
    rowcount = np.zeros(n, dtype=np.int64)
    parts = [None] * len(spans)  # the int32 columns of each block's hits

    def draw(k: int) -> np.ndarray:
        i, r = spans[k]
        w = n - 1 - i
        t = np.arange(r)
        start = t * w - t * (t - 1) // 2
        words = _edge_stream_at(seed, trial_index, edge_stream_offset(n, i, i + 1)).random_raw(
            r * w - r * (r - 1) // 2
        )
        if scalar:
            hit = words < bound
        else:
            upper = np.arange(w) >= t[:, None]
            words >>= 11
            if step:
                hit = words < np.take(table[block[i:i + r]], block[i + 1:], axis=1)[upper]
            else:
                p = np.clip(np.multiply.outer(offset[i:i + r], offset[i + 1:]) ** float(g.beta), 0.0, 1.0)
                hit = words * 2.0**-53 < p[upper]
        hits = np.flatnonzero(hit)
        del words, hit  # the block's largest arrays, freed before its smaller ones are made
        count = np.diff(np.searchsorted(hits, start), append=len(hits))
        rowcount[i:i + r] = count
        hits += np.repeat(i + 1 + t - start, count)  # now the column of each hit
        parts[k] = hits.astype(np.int32)
        return np.bincount(hits, minlength=n)

    deg = np.zeros(n, dtype=np.int64)
    pool = None
    if threads > 1:
        from concurrent.futures import ThreadPoolExecutor

        pool = ThreadPoolExecutor(threads)
    try:
        # reading each result raises a block's error
        for column_count in (pool.map if pool else map)(draw, range(len(spans))):
            deg += column_count
    finally:
        if pool is not None:
            # on an error the blocks not yet started are dropped; either way
            # no thread outlives the sample (`experiment --jobs` forks)
            pool.shutdown(cancel_futures=True)
    return (rowcount, parts), deg + rowcount


def edge_stream_offset(n: int, i: int, j: int) -> int:
    """Position of pair {i, j} (i < j) in the row-major coin stream."""
    if not 0 <= i < j < n:
        raise FormatError("need 0 <= i < j < n", "pair")
    return i * (2 * n - i - 1) // 2 + (j - i - 1)

def edge_coin(seed: int, trial_index: int, offset: int) -> float:
    """The offset-th edge coin of a trial, the double (x >> 11) * 2**-53 of
    its raw word x, regenerated from the counter alone (`_edge_stream_at`);
    this is what makes per-pair accounting testable."""
    if offset < 0:
        raise FormatError("must be nonnegative", "offset")
    return (_edge_stream_at(seed, trial_index, offset).random_raw() >> 11) * 2.0**-53


def degree_concentration_report(graph: SampledGraph) -> float:
    """max over vertices of |deg(i)/n - kernel degree at the vertex's type|."""
    n = graph.n
    deg = graph.degrees() / n
    g = graph.model
    if isinstance(g, StepGraphon):
        expected = g._float_block_degrees[graph.type_block]
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
