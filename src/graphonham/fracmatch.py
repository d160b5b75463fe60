"""Exact half-integral fractional matchings and vertex covers on finite graphs.

Certificates are exact: integer half-units with a `Fraction` weight.  The
optimization engine is the bipartite double cover: each vertex v becomes a
left copy v+ and a right copy v-, each edge uv becomes the two copies u+v-
and v+u-.  A maximum matching there (scipy's Hopcroft-Karp on the graph's
CSR) folds back to an optimal half-integral fractional matching of the
original graph, and the minimum vertex cover that Koenig's theorem builds
from it folds back to an optimal half-integral fractional vertex cover.  The
sandwich

    fmn(G) >= matching(D)/2  and  fvcn(G) <= cover(D)/2,
    fmn(G) <= fvcn(G),       and  matching(D) = cover(D)

proves both folded objects optimal, so no external LP theory is trusted at
runtime; every returned object is also re-validated against its definition.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional

import numpy as np

from .errors import FormatError, InvariantViolation, _self_checked


# ---------------------------------------------------------------------------
# graphs


@dataclass(frozen=True, eq=False)
class FiniteGraph:
    """A finite simple graph: no weights, no self-loops, no repeated edges.

    The edge set is held as arrays built once: `edge_array` is the (m, 2)
    int32 array of edges with u < v, sorted and without repeats, and
    `indptr`/`indices` are the CSR of the symmetric adjacency, each row
    ascending.
    """

    n: int
    edge_array: np.ndarray
    indptr: np.ndarray
    indices: np.ndarray

    @staticmethod
    def build(n: int, edges: np.ndarray | Iterable[tuple[int, int]]) -> "FiniteGraph":
        """Validate and normalise an (m, 2) integer array or iterable of pairs.

        An int32 array that one check shows to be canonical (0 <= u < v < n,
        the pairs strictly increasing in row-major order, as the sampler
        writes them) becomes `edge_array` as it is, copied only if it is
        writeable; any other input is first normalised to that form.  Both
        then go through the one COO->CSR conversion.  `edge_array` is
        read-only.
        """
        if not 0 <= n < 1 << 31:
            raise FormatError("vertex count must be in [0, 2**31)", "n")
        vuv = _canonical_columns(n, edges)
        if vuv is not None:
            e = edges.copy() if edges.flags.writeable else edges
        else:
            e = _canonical_pairs(n, edges)
            vuv = _vuv(e)
        e.flags.writeable = False
        from scipy.sparse import coo_array

        # rows v, u and columns u, v: every pair in both directions, the
        # reversed pairs first, so in row-major edge order each row is
        # already ascending and tocsr() has nothing to sort or merge
        m = len(e)
        adj = coo_array((np.ones(2 * m, dtype=bool), (vuv[:2 * m], vuv[m:])), shape=(n, n)).tocsr()
        return FiniteGraph(n, e, adj.indptr, adj.indices)

    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        """Neighbour lists, ascending, sliced from the CSR.

        Built on first use and kept on the instance.  In the package only the
        budgeted backtracking search (`hamilton._backtrack`) reads them; every
        other search reads `indptr`/`indices` directly.
        """
        adj = self.__dict__.get("_adjacency")
        if adj is None:
            ind, ptr = self.indices.tolist(), self.indptr.tolist()
            adj = tuple(tuple(ind[ptr[v]:ptr[v + 1]]) for v in range(self.n))
            object.__setattr__(self, "_adjacency", adj)
        return adj

    def degrees(self) -> list[int]:
        return np.diff(self.indptr).tolist()

    def to_edge_list_text(self) -> str:
        return _edge_list_text(self.n, self.edge_array)

    @staticmethod
    def from_edge_list_text(text: str) -> "FiniteGraph":
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if not lines:
            raise FormatError("empty edge list", "line 1")
        head = lines[0].split()
        if len(head) != 2:
            raise FormatError("header must be 'n m'", "line 1")
        try:
            n, m = int(head[0]), int(head[1])
        except ValueError:
            raise FormatError("header must be two integers", "line 1") from None
        if len(lines) - 1 != m:
            raise FormatError(f"expected {m} edge lines, found {len(lines) - 1}", "header")
        # one split for every edge line: a ";" after each line makes a line
        # of other than two tokens show as a ";" out of place
        tokens = " ; ".join(lines[1:] + [""]).split()
        try:
            if len(tokens) != 3 * m or tokens[2::3] != [";"] * m:
                raise ValueError
            del tokens[2::3]
            edges = np.array(tokens, dtype=np.int64).reshape(m, 2)
        except (ValueError, OverflowError):
            for k, ln in enumerate(lines[1:], start=2):
                parts = ln.split()
                if len(parts) != 2:
                    raise FormatError("edge line must be 'u v'", f"line {k}") from None
                try:
                    int(parts[0]), int(parts[1])
                except ValueError:
                    raise FormatError("edge endpoints must be integers", f"line {k}") from None
            raise FormatError("edge endpoint out of range", "edges") from None
        return FiniteGraph.build(n, edges)


def _vuv(e: np.ndarray) -> np.ndarray:
    """The columns v, u, v of an (m, 2) edge array laid end to end."""
    return np.concatenate([e[:, 1], e[:, 0], e[:, 1]])


def _canonical_columns(n: int, edges) -> Optional[np.ndarray]:
    """`_vuv(edges)` if edges is an int32 (m, 2) array with 0 <= u < v < n
    whose pairs strictly increase in row-major order, else None.  The
    check reads the columns u and v where they lie contiguous in vuv."""
    if not (isinstance(edges, np.ndarray) and edges.dtype == np.int32 and edges.shape[1:] == (2,)):
        return None
    m, vuv = len(edges), _vuv(edges)
    u, v = vuv[m:2 * m], vuv[:m]
    canonical = m == 0 or bool(
        u[0] >= 0
        and v.max() < n
        and (u < v).all()
        and (u[1:] >= u[:-1]).all()
        and ((u[1:] > u[:-1]) | (v[1:] > v[:-1])).all()
    )
    return vuv if canonical else None


def _canonical_pairs(n: int, edges) -> np.ndarray:
    """Any edge input as a canonical int32 (m, 2) array: every endpoint an
    integer in [0, n), no self-loop; each pair turned to u < v, sorted in
    row-major order, repeats dropped."""
    e = edges if isinstance(edges, np.ndarray) else np.array(list(edges), dtype=object)
    if e.size == 0:
        return np.empty((0, 2), dtype=np.int32)
    if e.ndim != 2 or e.shape[1] != 2:
        raise FormatError("edges must be pairs (u, v)", "edges")
    # bool is an int subclass, and numpy's casts would truncate floats and
    # parse digit strings, so only integer types pass
    if e.dtype == object:
        kinds = set(map(type, e.flat))
        integer = all(issubclass(t, (int, np.integer)) and t is not bool for t in kinds)
    else:
        integer = e.dtype.kind in "iu"
    if not integer:
        raise FormatError("edge endpoints must be integers", "edges")
    # compared in their own type, so no endpoint wraps before it is reported
    bad = ((e < 0) | (e >= n)).astype(bool, copy=False)
    if bad.any():
        u, v = e[bad.any(axis=1).argmax()].tolist()
        raise FormatError(f"edge ({u},{v}) out of range", "edges")
    e = e.astype(np.int32)
    loop = e[:, 0] == e[:, 1]
    if loop.any():
        raise FormatError(f"self-loop at {e[loop.argmax(), 0]} not allowed in edge list", "edges")
    key = np.sort(np.minimum(e[:, 0], e[:, 1]).astype(np.int64) * n + np.maximum(e[:, 0], e[:, 1]))
    key = key[np.diff(key, prepend=-1) != 0]  # np.unique took 20x as long as this here
    out = np.empty((len(key), 2), dtype=np.int32)
    out[:, 0], out[:, 1] = np.divmod(key, n)
    return out


def _edge_list_text(n: int, edge_array: np.ndarray) -> str:
    """The 'n m' header line, then one 'u v' line per row of edge_array."""
    lines = [f"{n} {len(edge_array)}"]
    lines.extend(f"{u} {v}" for u, v in edge_array.tolist())
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# certificates


def _uncovered_edge(g: FiniteGraph, h: np.ndarray) -> Optional[tuple[int, int]]:
    """The first edge (u, v) with h[u] + h[v] < 2 half-units, or None.

    Called only after `_HalfUnits.validate` has checked every unit to be 0,
    1 or 2, so the units fit int8 and their sums cannot wrap; gathering the
    int8 copy with `take` moves an eighth of the bytes of the int64 units.
    """
    u, v = g.edge_array.T
    h8 = h.astype(np.int8)
    low = np.flatnonzero(h8.take(u) + h8.take(v) < 2)
    return (int(u[low[0]]), int(v[low[0]])) if len(low) else None


@dataclass(frozen=True, eq=False)
class _HalfUnits:
    """Half-integral values f as the integers `units = 2 f`, with their claimed total `weight`."""

    units: np.ndarray
    weight: Fraction

    def __post_init__(self):
        if not isinstance(self.units, np.ndarray) or self.units.dtype.kind not in "iu":
            raise TypeError("units must be an integer numpy array")

    @property
    def values(self) -> tuple[Fraction, ...]:
        """The values as exact `Fraction`s, built from `units` on each use."""
        return tuple(Fraction(x, 2) for x in self.units.tolist())

    def validate(self, length: int) -> None:
        """The checks every certificate in half-units shares: `length` units,
        each in {0, 1, 2}, summing to twice the stored weight."""
        h = self.units
        if len(h) != length:
            raise AssertionError(f"{len(h)} units where {length} are due")
        bad = ~np.isin(h, (0, 1, 2))
        if bad.any():
            raise AssertionError(f"unit {h[bad.argmax()]} not in {{0, 1, 2}}")
        if Fraction(int(h.sum()), 2) != self.weight:
            raise AssertionError("stored weight disagrees with recomputed sum")


class HalfCover(_HalfUnits):
    """A half-integral fractional vertex cover, one unit per vertex."""

    def validate(self, g: FiniteGraph) -> None:
        super().validate(g.n)
        edge = _uncovered_edge(g, self.units)
        if edge is not None:
            raise AssertionError(f"edge ({edge[0]},{edge[1]}) uncovered")


# the cover check as defined here: perfbench's tracer wraps HalfCover.validate,
# and a trap's check through the wrapper would time as two nested validations
_validate_cover = HalfCover.validate


class HalfMatching(_HalfUnits):
    """A half-integral fractional matching, units aligned with `graph.edge_array`."""

    def validate(self, g: FiniteGraph) -> None:
        super().validate(len(g.edge_array))
        # each endpoint of an edge repeated once per half-unit on the edge
        load = np.bincount(np.repeat(g.edge_array.ravel(), np.repeat(self.units, 2)), minlength=g.n)
        if (load > 2).any():
            v = int(load.argmax())
            raise AssertionError(f"vertex {v} overloaded: {Fraction(int(load[v]), 2)}")


class GraphPeninsula(HalfCover):
    """A density-zero trap in a finite graph: a half cover of weight at most
    n/2 that is 0 somewhere.

    A is where the cover is 0, B where it is 1/2.  Covering every edge means
    no edge meets A x (A u B), and weight <= n/2 means |A| >= (n - |B|) / 2.
    `narrow` (weight < n/2, so |A| > (n - |B|) / 2) rules out a perfect
    fractional matching.
    """

    @property
    def A(self) -> tuple[int, ...]:
        # Python ints, as the certificate's tuples are printed and hashed
        return tuple(np.flatnonzero(self.units == 0).tolist())

    @property
    def B(self) -> tuple[int, ...]:
        return tuple(np.flatnonzero(self.units == 1).tolist())

    @property
    def kind(self) -> str:
        return "narrow" if 2 * self.weight < len(self.units) else "peninsula"

    def validate(self, g: FiniteGraph) -> None:
        _validate_cover(self, g)
        if not (self.units == 0).any():
            raise AssertionError("A must be nonempty")
        if 2 * self.weight > g.n:
            raise AssertionError(f"trap weight {self.weight} exceeds n/2")


# ---------------------------------------------------------------------------
# the double-cover matching and its Koenig cover


def _double_cover_matching(g: FiniteGraph) -> tuple[int, np.ndarray, np.ndarray]:
    """Maximum matching in the bipartite double cover of a graph.

    The CSR of the graph is the biadjacency of its double cover, so it goes
    straight to scipy's Hopcroft-Karp.  Solved once per graph: the result is
    kept on `g`, so every fold of it (fvcn, the Koenig cover, the half
    matching) shares one solve.  Returns the size and the left-to-right and
    right-to-left partner arrays, -1 where unmatched.
    """
    found = g.__dict__.get("_matching")
    if found is not None:
        return found
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import maximum_bipartite_matching

    n = g.n
    data = np.ones(len(g.indices), dtype=np.int8)
    bi = csr_matrix((data, g.indices, g.indptr), shape=(n, n))
    match_l = maximum_bipartite_matching(bi, perm_type="column")
    matched = np.flatnonzero(match_l >= 0)
    match_r = np.full(n, -1, dtype=match_l.dtype)
    match_r[match_l[matched]] = matched
    found = (len(matched), match_l, match_r)
    object.__setattr__(g, "_matching", found)
    return found


def _bfs(indptr: np.ndarray, indices: np.ndarray, sources) -> tuple[np.ndarray, np.ndarray]:
    """Multi-source BFS over a CSR: `(reached, parent)`, a mask of the
    vertices reached and each one's BFS parent, -1 at sources and unreached.

    Arcs to a negative target are skipped.  The parents are those of a FIFO
    queue seeded with the sources in the order given that scans each row in
    stored order (ascending, for a `FiniteGraph`).  scipy walks from a
    virtual root n with an arc to each source; negative targets become arcs
    back to that root, which is visited first and so never entered again.
    Arcs are int32 indices with float64 ones, scipy's own types: scipy
    copies int64 indices down, and other data dtypes make it sort the rows.
    """
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import breadth_first_order

    n = len(indptr) - 1
    ind = np.concatenate([indices, np.asarray(sources, dtype=np.int32)], dtype=np.int32)
    ind[ind < 0] = n
    ptr = np.append(indptr, len(ind)).astype(np.int32)
    arcs = csr_matrix((np.ones(len(ind)), ind, ptr), shape=(n + 1, n + 1))
    order, pred = breadth_first_order(arcs, n, directed=True, return_predecessors=True)
    reached = np.zeros(n + 1, dtype=bool)
    reached[order] = True
    return reached[:n], np.where((pred[:n] >= 0) & (pred[:n] < n), pred[:n], -1)


def _double_cover_csr(g: FiniteGraph) -> tuple[np.ndarray, np.ndarray]:
    """The CSR of the bipartite double cover G x K2 on 2n vertices: v+ is v,
    v- is n + v, and each edge uv gives the edges u+v- and v+u-."""
    return (np.concatenate([g.indptr, g.indptr[1:] + len(g.indices)]),
            np.concatenate([g.indices + g.n, g.indices]))


def _are_edges(g: FiniteGraph, a, b) -> np.ndarray:
    """Whether each pair (a[k], b[k]) is an edge of g, by binary search of the
    sorted edge keys u*n + v; a pair off the vertex range is no edge.  The
    keys are built on the first call and kept on `g`, so a later call costs
    O(k log m) for k pairs."""
    a, b = np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64)
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    key = g.__dict__.get("_edge_keys")
    if key is None:
        key = g.edge_array[:, 0].astype(np.int64) * g.n + g.edge_array[:, 1]
        key.flags.writeable = False
        object.__setattr__(g, "_edge_keys", key)
    q = lo * g.n + hi
    pos = np.searchsorted(key, q)
    hit = (lo >= 0) & (hi < g.n) & (pos < len(key))
    hit[hit] = key[pos[hit]] == q[hit]
    return hit


def _koenig_cover(g: FiniteGraph, match_l: np.ndarray, match_r: np.ndarray, sources) -> tuple[np.ndarray, np.ndarray]:
    """Minimum vertex cover of the double cover from a maximum matching.

    Alternating BFS from the left copies `sources`: a left copy u steps to
    the left copy matched to each neighbour of u, an arc of the digraph D
    with CSR `(g.indptr, match_r.take(g.indices))`.  With Z the reached left
    copies and their neighbours, cover = (L \\ Z) u (R n Z), as two masks;
    each neighbour of a reached copy is matched, so R n Z is the set of
    partners of the reached matched left copies.

    Seeded with the unmatched left copies, this is Koenig's cover.  Under a
    perfect matching every minimum cover takes one end of each matching
    edge, and the left copies it leaves out form a closed set of D (no arc
    leaves it); every closed set gives a minimum cover this way.  Seeded
    with one left copy v, the reach is the least closed set that holds v,
    so the cover is the minimum one that leaves out v+ and, beside it, only
    the left copies that every such cover leaves out.
    """
    reached, _ = _bfs(g.indptr, match_r.take(g.indices), sources)
    cover_r = np.zeros(g.n, dtype=bool)
    cover_r[match_l[reached & (match_l >= 0)]] = True
    return ~reached, cover_r


def _folded_cover(
    g: FiniteGraph, size: int, cover_l: np.ndarray, cover_r: np.ndarray, cls: type = HalfCover
) -> HalfCover:
    """Fold a minimum cover of the double cover to a validated half cover of class `cls`."""
    units = cover_l.astype(np.int64) + cover_r
    cover = cls(units, Fraction(int(units.sum()), 2))
    _self_checked(cover, g)
    # Koenig: |cover| = |matching|, so the folded weights agree exactly.
    if cover.weight != Fraction(size, 2):
        raise InvariantViolation(f"Koenig cover weight {cover.weight} != matching size {size}/2")
    return cover


# ---------------------------------------------------------------------------
# public operations


def fmn_half(g: FiniteGraph) -> HalfMatching:
    """Maximum-weight half-integral fractional matching."""
    size, ml, _ = _double_cover_matching(g)
    u, v = g.edge_array.T
    units = (ml[u] == v).astype(np.int64) + (ml[v] == u)
    matching = HalfMatching(units, Fraction(size, 2))
    return _self_checked(matching, g)


def fvcn_half(g: FiniteGraph) -> HalfCover:
    """Minimum-weight half-integral fractional vertex cover.

    Koenig's construction on the double cover's maximum matching; the cover
    it yields does not depend on which maximum matching the solver found.
    """
    size, match_l, match_r = _double_cover_matching(g)
    return _folded_cover(g, size, *_koenig_cover(g, match_l, match_r, np.flatnonzero(match_l < 0)))


def fvcn_value(g: FiniteGraph) -> Fraction:
    """Exact fvcn without materializing the cover (fast path)."""
    size, _, _ = _double_cover_matching(g)
    return Fraction(size, 2)


def uniquely_half_covered(g: FiniteGraph) -> tuple[bool, Optional[GraphPeninsula]]:
    """Whether the constant-1/2 function is the only half cover of weight <= n/2.

    Returns (verdict, witness); the witness is a valid trap, a cover of
    weight at most n/2 that is 0 somewhere, whenever the verdict is False.
    Below n/2 it is the minimum cover of `fvcn_half`, which is 0 somewhere
    as its units sum to less than n.

    At fvcn = n/2 the double-cover matching is perfect and a half cover of
    weight n/2 is a minimum cover of the double cover.  One with f(v) = 0
    leaves out v+ and v-, so (see `_koenig_cover`) it exists exactly when
    the left copy match_r[v] is not reachable from v in D (Dulmage and
    Mendelsohn 1958; Lovasz and Plummer, Matching Theory, ch. 4).  A pair
    inside one strongly connected component of D reaches its partner, so
    only the pairs that straddle two components are searched, in ascending
    order.  The witness for the first v found is the cover folded from the
    least closed set of D that holds v: setting f(v) = 0, f = 1 on N(v) and
    Koenig's cover on G - N[v] leaves out only the left copies that every
    minimum cover without v+ leaves out, so the two constructions agree.
    """
    n = g.n
    if n == 0:
        return True, None
    size, match_l, match_r = _double_cover_matching(g)
    if size < n:
        cover_l, cover_r = _koenig_cover(g, match_l, match_r, np.flatnonzero(match_l < 0))
        return False, _folded_cover(g, size, cover_l, cover_r, GraphPeninsula)
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import connected_components

    arcs = csr_matrix((np.ones(len(g.indices)), match_r.take(g.indices), g.indptr), shape=(n, n))
    _, label = connected_components(arcs, connection="strong")
    for v in np.flatnonzero(label != label[match_r]).tolist():
        cover_l, cover_r = _koenig_cover(g, match_l, match_r, [v])
        if cover_l[match_r[v]]:
            return False, _folded_cover(g, size, cover_l, cover_r, GraphPeninsula)
    return True, None


def graph_peninsula(g: FiniteGraph) -> Optional[GraphPeninsula]:
    """The witness of `uniquely_half_covered`, a trap certificate checked as it was built, or None.

    narrow  <=> fvcn(G) < n/2,
    peninsula (non-strict) <=> G is not uniquely half-covered.
    """
    return uniquely_half_covered(g)[1]


def half_integral_perfect_matching(g: FiniteGraph) -> Optional[HalfMatching]:
    """A half-integral matching of weight n/2, when one exists."""
    m = fmn_half(g)
    if m.weight != Fraction(g.n, 2):
        return None
    return m


def is_bipartite(g: FiniteGraph) -> bool:
    """Whether no v shares a component of the double cover with its other
    copy (an odd closed walk through v is a path from v+ to v-).  The arcs are
    symmetric: strong components are the components, and need no transpose."""
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import connected_components

    indptr, indices = _double_cover_csr(g)
    arcs = csr_matrix((np.ones(len(indices)), indices, indptr), shape=(2 * g.n, 2 * g.n))
    _, label = connected_components(arcs, connection="strong")
    return not (label[:g.n] == label[g.n:]).any()


def is_connected(g: FiniteGraph) -> bool:
    """Whether a BFS from vertex 0 reaches every vertex; the answer is kept
    on `g`, as the matching is, so every caller shares one search."""
    found = g.__dict__.get("_connected")
    if found is None:
        found = g.n <= 1 or bool(_bfs(g.indptr, g.indices, [0])[0].all())
        object.__setattr__(g, "_connected", found)
    return found
