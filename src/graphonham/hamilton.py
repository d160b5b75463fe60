"""Hamiltonicity decisions: cheap certified obstructions, a rotation
heuristic, and an exact bitmask dynamic program for small graphs.

Verdict soundness contract: a `hamiltonian` verdict always carries a witness
cycle that is re-validated edge by edge; a `not_hamiltonian` verdict carries
the obstruction that was itself re-validated (or came from an exhaustive
search); `unknown` is a first-class outcome and is never coerced.
"""

from __future__ import annotations

import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .errors import FormatError, InvariantViolation
from .fracmatch import FiniteGraph, GraphPeninsula, _are_edges, fvcn_value, graph_peninsula, is_connected

STATUS_HAMILTONIAN = "hamiltonian"
STATUS_NOT_HAMILTONIAN = "not_hamiltonian"
STATUS_UNKNOWN = "unknown"

OBSTRUCTION_DISCONNECTED = "disconnected"
OBSTRUCTION_MIN_DEGREE = "min_degree_below_2"
OBSTRUCTION_NARROW = "narrow_graph_peninsula"
OBSTRUCTION_EXHAUSTED = "exact_search_exhausted"

#: Above this the exact bitmask DP is not attempted.
DP_VERTEX_CAP = 24
DEFAULT_BACKTRACK_BUDGET = 200_000


@dataclass(frozen=True)
class HamiltonVerdict:
    status: str
    witness: Optional[tuple[int, ...]] = None
    obstruction: Optional[str] = None

    def to_dict(self) -> dict:
        return {
            "status": self.status,
            "witness": list(self.witness) if self.witness else None,
            "obstruction": self.obstruction,
        }


def validate_cycle(g: FiniteGraph, cycle) -> bool:
    """Spanning, no repeats, consecutive pairs (wrap included) all edges."""
    if len(cycle) != g.n or g.n < 3:
        return False
    if set(cycle) != set(range(g.n)):
        return False
    c = np.asarray(cycle)
    return bool(_are_edges(g, c, np.roll(c, -1)).all())


def _checked_cycle(g: FiniteGraph, cycle) -> tuple[int, ...]:
    """A cycle a search found, as a tuple; it must validate."""
    if not validate_cycle(g, cycle):
        raise InvariantViolation(f"search returned an invalid Hamilton cycle on {len(cycle)} vertices")
    return tuple(cycle)


def cheap_obstructions(g: FiniteGraph) -> Optional[str]:
    """First certified necessary-condition failure, if any.

    Checked in order: connectivity, minimum degree 2, then a narrow trap
    (fvcn < n/2, which already rules out a perfect fractional matching).
    The trap's certificate is a validated `GraphPeninsula`: on a step-kernel
    sample the block cover lifted through its blocks, when that weighs less
    than n/2 (no matching is solved), else the one `graph_peninsula` folds
    from the double-cover matching.
    """
    if not is_connected(g):
        return OBSTRUCTION_DISCONNECTED
    if g.n == 0 or min(g.degrees()) < 2:
        return OBSTRUCTION_MIN_DEGREE
    if isinstance(g._type_cover, GraphPeninsula):
        return OBSTRUCTION_NARROW
    if fvcn_value(g) < Fraction(g.n, 2):
        cert = graph_peninsula(g)
        if cert is None or cert.kind != "narrow":
            raise InvariantViolation("fvcn < n/2 but no narrow certificate was extracted")
        return OBSTRUCTION_NARROW
    return None


# ---------------------------------------------------------------------------
# exact search


def _adjacency_bits(g: FiniteGraph) -> list[int]:
    """Neighbour bitmask per vertex; int64 suffices, as the DP needs n <= DP_VERTEX_CAP."""
    bits = np.zeros(g.n, dtype=np.int64)
    np.add.at(bits, np.repeat(np.arange(g.n), np.diff(g.indptr)), np.left_shift(1, g.indices, dtype=np.int64))
    return bits.tolist()


def _dp_layers(adj: list[int], n: int):
    """Reachability DP over vertex subsets, vectorized per layer.

    Layer L holds the sorted masks of size L reachable by a path from vertex
    0, each with the bitmask of feasible path endpoints.  A mask gains the
    endpoint w exactly when w is outside the mask and adjacent to one of its
    current endpoints, so the whole layer transitions with one vectorized
    pass per vertex, merged by a single sort/reduce.
    """
    layers = [(np.array([1], dtype=np.int32), np.array([1], dtype=np.int32))]
    adj_arr = [np.int32(a & ((1 << 31) - 1)) for a in adj]
    for _ in range(n - 1):
        masks, ends = layers[-1]
        chunks_m: list[np.ndarray] = []
        chunks_b: list[np.ndarray] = []
        for w in range(n):
            wb = np.int32(1 << w)
            sel = ((masks & wb) == 0) & ((ends & adj_arr[w]) != 0)
            cnt = int(sel.sum())
            if cnt == 0:
                continue
            chunks_m.append(masks[sel] | wb)
            chunks_b.append(np.full(cnt, wb, dtype=np.int32))
        if not chunks_m:
            return layers
        allm = np.concatenate(chunks_m)
        allb = np.concatenate(chunks_b)
        order = np.argsort(allm, kind="stable")
        allm, allb = allm[order], allb[order]
        uniq, first = np.unique(allm, return_index=True)
        layers.append((uniq, np.bitwise_or.reduceat(allb, first)))
    return layers


def _reconstruct(layers, adj: list[int], n: int, last: int) -> list[int]:
    path = [last]
    mask = (1 << n) - 1
    v = last
    for level in range(n - 1, 0, -1):
        masks, ends = layers[level - 1]
        prev_mask = mask ^ (1 << v)
        idx = int(np.searchsorted(masks, prev_mask))
        if idx == len(masks) or masks[idx] != prev_mask:
            raise InvariantViolation("DP layer lost a mask on the reconstructed path")
        cands = int(ends[idx]) & adj[v]
        if not cands:
            raise InvariantViolation(f"DP layer has no predecessor for vertex {v}")
        u = (cands & -cands).bit_length() - 1
        path.append(u)
        mask = prev_mask
        v = u
    path.reverse()
    if path[0] != 0:
        raise InvariantViolation("reconstructed path does not start at vertex 0")
    return path


def _exact_dp(g: FiniteGraph) -> HamiltonVerdict:
    n = g.n
    adj = _adjacency_bits(g)
    layers = _dp_layers(adj, n)
    if len(layers) == n:
        masks, ends = layers[-1]
        full = (1 << n) - 1
        idx = int(np.searchsorted(masks, full))
        if idx < len(masks) and masks[idx] == full:
            closable = int(ends[idx]) & adj[0] & ~1
            if closable:
                last = (closable & -closable).bit_length() - 1
                cycle = _reconstruct(layers, adj, n, last)
                return HamiltonVerdict(STATUS_HAMILTONIAN, _checked_cycle(g, cycle))
    return HamiltonVerdict(STATUS_NOT_HAMILTONIAN, obstruction=OBSTRUCTION_EXHAUSTED)


def _backtrack(g: FiniteGraph, budget: int) -> HamiltonVerdict:
    n = g.n
    ptr, ind = g.indptr.tolist(), g.indices.tolist()
    in_path = [False] * n
    path = [0]
    in_path[0] = True
    nodes = 0

    def rec() -> Optional[bool]:
        # True = cycle found (path holds it), None = budget exhausted
        nonlocal nodes
        nodes += 1
        if nodes > budget:
            return None
        v = path[-1]
        row = ind[ptr[v]:ptr[v + 1]]
        if len(path) == n:
            return 0 in row
        for w in row:
            if in_path[w]:
                continue
            path.append(w)
            in_path[w] = True
            res = rec()
            if res:
                return True
            path.pop()
            in_path[w] = False
            if res is None:
                return None
        return False

    # one frame per path vertex: the recursion limit is raised for this search only
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(limit, 2 * n + 200))
    try:
        res = rec()
    finally:
        sys.setrecursionlimit(limit)
    if res is True:
        return HamiltonVerdict(STATUS_HAMILTONIAN, _checked_cycle(g, path))
    if res is False:
        return HamiltonVerdict(STATUS_NOT_HAMILTONIAN, obstruction=OBSTRUCTION_EXHAUSTED)
    return HamiltonVerdict(STATUS_UNKNOWN)


def exact_hamilton(g: FiniteGraph, budget: int = DEFAULT_BACKTRACK_BUDGET) -> HamiltonVerdict:
    """Exact decision: bitmask DP up to 24 vertices, budgeted backtracking above.

    The DP answer is unconditional; the backtracking answer is exact unless
    the node budget runs out, in which case the verdict is `unknown`: at
    once for a budget below 1, as the search would stop at its first node.
    """
    if g.n < 3:
        return HamiltonVerdict(STATUS_NOT_HAMILTONIAN, obstruction=OBSTRUCTION_EXHAUSTED)
    if g.n <= DP_VERTEX_CAP:
        return _exact_dp(g)
    if budget < 1:
        return HamiltonVerdict(STATUS_UNKNOWN)
    return _backtrack(g, budget)


# ---------------------------------------------------------------------------
# rotation heuristic


def posa_heuristic(g: FiniteGraph, seed: int = 0, restarts: int = 20) -> Optional[tuple[int, ...]]:
    """Randomized longest-path growth with endpoint rotations, at most 50 n
    rotations per restart.

    Sound but incomplete: any returned cycle is verified spanning; returning
    None proves nothing.  When the working path closes into a non-spanning
    cycle, the cycle is reopened at a vertex with an outside neighbor and
    growth continues.  Candidates are read off the CSR rows in ascending
    order, so a seed replays the same cycle on every interpreter.
    """
    if seed < 0:
        raise FormatError("must be nonnegative", "seed")  # Random(-s) replays Random(s)
    n = g.n
    if n < 3:
        return None
    ptr, nbr = g.indptr.tolist(), g.indices
    rng = random.Random(seed)
    for _ in range(restarts):
        start = rng.randrange(n)
        # the working path is path[:k]; pos[v] is v's place on it, -1 off it
        path = np.empty(n, dtype=nbr.dtype)
        pos = np.full(n, -1, dtype=np.int64)
        path[0], pos[start], k = start, 0, 1
        rotations = 0
        while rotations <= 50 * n:
            tail = path[k - 1]
            row = nbr[ptr[tail]:ptr[tail + 1]]
            at = pos[row]
            fresh = row[at < 0]
            if len(fresh):
                w = rng.choice(fresh)
                path[k], pos[w] = w, k
                k += 1
                continue
            closes = (at == 0).any()
            if closes and k == n:
                return _checked_cycle(g, path.tolist())
            if closes:
                # non-spanning cycle: reopen it after its first vertex that
                # sees outside, which becomes the tail and grows next step
                for idx in range(k):
                    c = path[idx]
                    if (pos[nbr[ptr[c]:ptr[c + 1]]] < 0).any():
                        break
                else:
                    break  # component exhausted, restart
                path[:k] = np.roll(path[:k], -(idx + 1))
                pos[path[:k]] = np.arange(k)
                continue
            # rotation: the tail's neighbours are all on the path
            pivots = row[at != k - 2]
            if not len(pivots):
                break
            i = pos[rng.choice(pivots)] + 1
            path[i:k] = path[i:k][::-1]
            pos[path[i:k]] = np.arange(i, k)
            rotations += 1
    return None


# ---------------------------------------------------------------------------
# pipeline


def classify(
    g: FiniteGraph,
    budget: int = DEFAULT_BACKTRACK_BUDGET,
    seed: int = 0,
    posa_restarts: int = 20,
) -> HamiltonVerdict:
    """cheap obstructions -> rotation heuristic -> exact search -> unknown."""
    if seed < 0:
        raise FormatError("must be nonnegative", "seed")
    if g.n < 3:
        return HamiltonVerdict(STATUS_NOT_HAMILTONIAN, obstruction=OBSTRUCTION_MIN_DEGREE)
    obs = cheap_obstructions(g)
    if obs is not None:
        return HamiltonVerdict(STATUS_NOT_HAMILTONIAN, obstruction=obs)
    cycle = posa_heuristic(g, seed=seed, restarts=posa_restarts)
    if cycle is not None:
        return HamiltonVerdict(STATUS_HAMILTONIAN, cycle)
    return exact_hamilton(g, budget)
