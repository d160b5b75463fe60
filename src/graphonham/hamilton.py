"""Hamiltonicity decisions, tried in this order by `classify`: cheap
certified obstructions; on a graph its vertex blocks prove complete, a
Hamilton cycle lifted from the block graph, else a tight trap, a
`GraphPeninsula` of weight n/2 that proves there is none; a rotation
heuristic; an exact bitmask dynamic program for small graphs and budgeted
backtracking above.

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

from .errors import FormatError, InvariantViolation, _self_checked
from .fracmatch import FiniteGraph, GraphPeninsula, _are_edges, fvcn_value, graph_peninsula, is_connected
from .graphon import _closures, _cover_flow, _reach

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
    if g.n == 0 or g._min_degree() < 2:
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
# a complete blow-up, decided from its block graph
#
# On a graph its blocks prove complete (E = F, `fracmatch._type_blocks`) the
# vertices of a block are twins.  A Hamilton cycle then projects to a closed
# walk on the occupied block graph that visits each block a exactly c_a
# times.  Conversely, a connected multigraph x on the occupied pairs (loops
# on looped blocks) in which each nonempty block a has degree 2 c_a has an
# Euler circuit (Hierholzer 1873) visiting a exactly c_a times; giving the
# i-th visit of a to the i-th vertex of a lifts it to a Hamilton cycle for
# n >= 3.  So g is Hamiltonian exactly when such an x exists.


def _euler_walk(x: list[list[int]], start: int) -> list[int]:
    """The blocks of an Euler circuit of the connected multigraph x (x[a][b]
    edges a-b, x[a][a] loops at a) from `start`, in order; the edge back to
    `start` closes it.  Hierholzer's stack, each block scanning on from the
    first block it may still have an edge to."""
    k = len(x)
    left, first = [row[:] for row in x], [0] * k
    stack, walk = [start], []
    while stack:
        a = stack[-1]
        row, b = left[a], first[a]
        while b < k and not row[b]:
            b += 1
        first[a] = b
        if b == k:
            walk.append(stack.pop())
            continue
        row[b] -= 1
        if b != a:
            left[b][a] -= 1
        stack.append(b)
    return walk[:-1]


def _lift(types: np.ndarray, walk: list[int]) -> np.ndarray:
    """The walk with its i-th visit of block a replaced by the i-th vertex of
    a: two stable sorts group the visits (in walk order) and the vertices (in
    id order) by block, and the groups have the same sizes."""
    cycle = np.empty(len(types), dtype=np.int64)
    cycle[np.argsort(walk, kind="stable")] = np.argsort(types, kind="stable")
    return cycle


def _block_cycle(g: FiniteGraph) -> Optional[tuple[int, ...]]:
    """A validated Hamilton cycle of a complete g lifted from its block
    graph, or None when none was found (which proves nothing).

    g's block flow f (`g._block_flow`, f[a][b] on the arc from a's left
    copy to b's right copy) totals n exactly when fvcn = n/2, and
    then x = f + f^T (x[a][a] = f[a][a]) gives block a degree 2 c_a.  When
    the support of x is disconnected, one unit is forced onto an occupied
    pair that joins two of its parts, the one with the most capacity left,
    and the flow is run again on what is left; each forced unit joins two
    parts for good, so at most (nonempty blocks - 1) are forced.
    """
    blocks = g._blocks
    count, occupied = blocks.count.tolist(), blocks.occupied.tolist()
    k, nonempty = len(count), np.flatnonzero(blocks.count).tolist()
    flow, arcs, _, _ = g._block_flow
    rows, cols = count[:], count[:]  # the capacities the forced units leave
    forced = [[0] * k for _ in range(k)]
    for _ in nonempty:
        if flow < sum(rows):
            return None
        f = [[p + q for p, q in zip(arow, frow)] for arow, frow in zip(arcs, forced)]
        x = [[f[a][b] + f[b][a] if a != b else f[a][a] for b in range(k)] for a in range(k)]
        part: dict[int, int] = {}  # block -> the first block of its part
        for a in nonempty:
            if a not in part:
                part.update(dict.fromkeys(_reach(x, a), a))
        if len(set(part.values())) == 1:
            return _checked_cycle(g, _lift(g._types, _euler_walk(x, nonempty[0])).tolist())
        joins = [(a, b) for a in nonempty for b in nonempty
                 if occupied[a][b] and part[a] != part[b] and rows[a] and cols[b]]
        if not joins:
            return None
        a, b = max(joins, key=lambda ab: rows[ab[0]] + cols[ab[1]])
        forced[a][b] += 1
        rows[a] -= 1
        cols[b] -= 1
        flow, arcs, _, _ = _cover_flow(rows, occupied, cols)
    return None


def _tight_trap(g: FiniteGraph) -> Optional[GraphPeninsula]:
    """A tight trap of a complete g, a `GraphPeninsula` of weight n/2 with
    B nonempty checked as it was built, or None when the block graph shows
    none.

    With fvcn = n/2 the block flow is perfect, and each of its closures
    (`graphon._closures`, nonempty blocks ascending) lifts to a half cover
    of weight n/2 that is 0 on A, 1/2 on B and 1 on R, so |A| = |R|; the
    first that leaves B nonempty is the trap.  G - R then has each vertex
    of A alone and B besides, more than |R| components, so g is not 1-tough
    and not Hamiltonian (Chvatal, Discrete Math. 5, 1973).  Its check is
    every trap's: on a blow-up it reads the occupied block pairs, no edge.
    """
    flow, _, _, r = g._block_flow
    if flow < g.n:
        return None
    count = g._blocks.count.tolist()
    for units in _closures(r, [v for v, c in enumerate(count) if c]):
        if any(h == 1 and c for h, c in zip(units, count)):
            trap = GraphPeninsula(np.array(units, dtype=np.int64)[g._types], Fraction(flow, 2))
            return _self_checked(trap, g)
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
    """cheap obstructions -> block cycle -> tight trap -> rotation heuristic
    -> exact search -> unknown.

    The block cycle and the tight trap run only on a graph its blocks prove
    complete (a sample of a 0/1 kernel), where the cheap obstructions leave
    fvcn = n/2.  A cycle lifted from the block graph (`_block_cycle`) is the
    answer.  A tight trap (`_tight_trap`), checked like every trap on the
    occupied block pairs with no edge, proves that no cycle exists, so with
    a budget below 1 above `DP_VERTEX_CAP` it answers `unknown` at once, as
    the heuristic and the search would; it is not yet reported as an
    obstruction.  Every other case keeps the order after it.
    """
    if seed < 0:
        raise FormatError("must be nonnegative", "seed")
    if g.n < 3:
        return HamiltonVerdict(STATUS_NOT_HAMILTONIAN, obstruction=OBSTRUCTION_MIN_DEGREE)
    obs = cheap_obstructions(g)
    if obs is not None:
        return HamiltonVerdict(STATUS_NOT_HAMILTONIAN, obstruction=obs)
    blocks = g._blocks
    if blocks is not None and blocks.complete:
        cycle = _block_cycle(g)
        if cycle is not None:
            return HamiltonVerdict(STATUS_HAMILTONIAN, cycle)
        if budget < 1 and g.n > DP_VERTEX_CAP and _tight_trap(g) is not None:
            return HamiltonVerdict(STATUS_UNKNOWN)
    cycle = posa_heuristic(g, seed=seed, restarts=posa_restarts)
    if cycle is not None:
        return HamiltonVerdict(STATUS_HAMILTONIAN, cycle)
    return exact_hamilton(g, budget)
