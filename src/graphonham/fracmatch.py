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
A step-kernel sample's graph carries its vertex blocks (`_types`): one count
of its edges per block pair checks covers constant on the blocks, and on a
graph it shows to be the blow-up of its occupied block graph, `fvcn_value`,
`is_connected` and edge membership are read off that block graph, before any
CSR or matching is built.  A 0/1 kernel's sample is that blow-up by
definition, its blocks and the kernel's 0/1 table (`_ones`), so no edge is
counted.  Every sample's graph is made when it is sampled, and its edge
array, a blow-up's or the rows a coin sample drew (`_rows`), is built and
checked against that definition only when read.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Optional

import numpy as np

from .errors import FormatError, InvariantViolation, _self_checked
from .graphon import _cover_flow, _reach


# ---------------------------------------------------------------------------
# graphs


@dataclass(frozen=True, eq=False)
class FiniteGraph:
    """A finite simple graph: no weights, no self-loops, no repeated edges.

    The edge set is `edge_array`, the (m, 2) int32 array of edges with
    u < v, sorted and without repeats, read-only: given (`build`), or on a
    sample's graph built on first read from the graph's definition.  A 0/1
    kernel's sample is defined by its vertex blocks (`_types`) and the
    table `_ones` of the block pairs joined; any other sample by the rows
    its coins drew (`_rows`), and may also carry its vertex blocks, which
    can speed an answer but not change it: the cover lifted through them is
    checked like every certificate the package builds, and proves fvcn only
    on a graph they show complete.  All else is a
    `cached_property` derived on first use, such as the CSR
    `indptr`/`indices` of the adjacency, rows ascending: the graph's one
    adjacency index, which the searches, edge membership and the matching
    read, and which a complete graph (E = F, `_type_blocks`) needs for none
    of its answers but the heuristic's and the searches'.
    """

    n: int
    _edges: Optional[np.ndarray]  # the edge array as given, None on a sample
    _types: Optional[np.ndarray] = field(default=None, repr=False)  # block per vertex
    _ones: Optional[np.ndarray] = field(default=None, repr=False)  # bool k x k: block pairs joined
    # a coin sample's (int64 hits per row, int32 columns of each block), None
    # once `edge_array` is published
    _rows: Optional[tuple] = field(default=None, repr=False)

    @staticmethod
    def build(n: int, edges: np.ndarray | Iterable[tuple[int, int]]) -> "FiniteGraph":
        """Validate and normalise an (m, 2) integer array or iterable of pairs.

        An int32 array that one check shows to be canonical (0 <= u < v < n,
        the pairs strictly increasing in row-major order), such as a
        sample's `edges`, becomes `edge_array` as it is, in either memory
        layout, copied column-major only if it is writeable; any other input
        is first normalised to that form, column-major as a sample's array
        is.  `edge_array` is read-only.  A sample's own graph is not built
        here: it is made at sampling time from the sample's definition.
        """
        if not 0 <= n < 1 << 31:
            raise FormatError("vertex count must be in [0, 2**31)", "n")
        if _is_canonical(n, edges):
            e = edges.copy(order="F") if edges.flags.writeable else edges
        else:
            e = _canonical_pairs(n, edges)
        e.flags.writeable = False
        return FiniteGraph(n, e)

    @cached_property
    def edge_array(self) -> np.ndarray:
        """The edges as given, or those the graph's definition gives, built
        on first read: a blow-up's, an edge between two distinct vertices
        whose blocks `_ones` joins, or a coin sample's, its `_rows` joined
        (`_row_edges`).  Either is held to its definition: canonical as
        `build` checks it, and a blow-up's with every vertex pair of each
        occupied pair of blocks and none of any other, or
        `InvariantViolation`.  Published before the rows are released, so a
        reader that came meanwhile returns the same array."""
        if self._edges is not None:
            return self._edges
        rows = self._rows
        if self._ones is not None:
            e = _blowup_edges(self._ones, self._types)
            b = self._blocks
            held = _is_canonical(self.n, e) and np.array_equal(_block_pairs(self._types, len(b.count), e), b.pairs)
        elif rows is not None:
            e = _row_edges(*rows)
            held = _is_canonical(self.n, e)
        else:  # published by another reader
            return vars(self)["edge_array"]
        if not held:
            raise InvariantViolation("the edges built disagree with the graph's definition")
        e.flags.writeable = False
        e = vars(self).setdefault("edge_array", e)
        object.__setattr__(self, "_rows", None)
        return e

    @cached_property
    def indptr(self) -> np.ndarray:
        return self._csr()[0]

    @cached_property
    def indices(self) -> np.ndarray:
        return self._csr()[1]

    def _csr(self) -> tuple[np.ndarray, np.ndarray]:
        """The one COO->CSR conversion; both arrays are kept on the instance."""
        from scipy.sparse import coo_array

        # rows v, u and columns u, v: every pair in both directions, the
        # reversed pairs first, so in row-major edge order each row is
        # already ascending and tocsr() has nothing to sort or merge
        m, vuv = len(self.edge_array), _vuv(self.edge_array)
        adj = coo_array((np.ones(2 * m, dtype=bool), (vuv[:2 * m], vuv[m:])), shape=(self.n, self.n)).tocsr()
        self.__dict__.update(indptr=adj.indptr, indices=adj.indices)
        return adj.indptr, adj.indices

    @cached_property
    def _adjacency(self) -> tuple[tuple[int, ...], ...]:
        ind, ptr = self.indices.tolist(), self.indptr.tolist()
        return tuple(tuple(ind[ptr[v]:ptr[v + 1]]) for v in range(self.n))

    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        """Neighbour lists, ascending, sliced from the CSR on first use.

        No search in the package reads them: every search, edge membership
        included, reads `indptr`/`indices` directly.
        """
        return self._adjacency

    @cached_property
    def _degrees(self) -> np.ndarray:
        """The degree of every vertex, read-only: on a complete graph (E = F,
        `_type_blocks`), with no CSR, the sizes of the blocks occupied pairs
        join its block to, less one on a loop; else the CSR row lengths."""
        b = self._blocks
        complete = b is not None and b.complete
        deg = (b.occupied @ b.count - b.occupied.diagonal())[self._types] if complete else np.diff(self.indptr)
        deg.flags.writeable = False
        return deg

    def degrees(self) -> list[int]:
        """The degree of every vertex (`_degrees`), as a list."""
        return self._degrees.tolist()

    def _min_degree(self) -> int:
        """The least degree of a graph with a vertex."""
        return int(self._degrees.min())

    @cached_property
    def _matching(self) -> tuple[int, np.ndarray, np.ndarray]:
        """Maximum matching in the bipartite double cover, whose biadjacency is
        the CSR, by scipy's Hopcroft-Karp: every fold of it (fvcn, the Koenig
        cover, the half matching) shares this one solve.  The size and the
        left-to-right and right-to-left partners, -1 where unmatched."""
        from scipy.sparse import csr_matrix
        from scipy.sparse.csgraph import maximum_bipartite_matching

        n = self.n
        data = np.ones(len(self.indices), dtype=np.int8)
        bi = csr_matrix((data, self.indices, self.indptr), shape=(n, n))
        match_l = maximum_bipartite_matching(bi, perm_type="column")
        matched = np.flatnonzero(match_l >= 0)
        match_r = np.full(n, -1, dtype=match_l.dtype)
        match_r[match_l[matched]] = matched
        return len(matched), match_l, match_r

    @cached_property
    def _blocks(self) -> Optional[_BlockCounts]:
        return _type_blocks(self)

    @cached_property
    def _block_flow(self) -> Optional[tuple[int, list[list[int]], list[int], list[list[int]]]]:
        """`graphon._cover_flow` on the block sizes and the occupied pairs: its
        value, flow per arc, least min cut folded to half-units per block and
        residual table; None without blocks."""
        b = self._blocks
        return None if b is None else _cover_flow(b.count.tolist(), b.occupied.tolist())

    @cached_property
    def _type_cover(self) -> Optional[HalfCover]:
        return _lifted_cover(self)

    @cached_property
    def _connected(self) -> bool:
        found = True if self.n <= 1 else _type_connected(self)
        return bool(_bfs(self.indptr, self.indices, [0])[0].all()) if found is None else found

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


#: Rows `_is_canonical` checks at a time, so its temporaries stay small whatever m is.
_CANONICAL_ROWS = 1 << 16


def _is_canonical(n: int, edges) -> bool:
    """Whether edges is an int32 (m, 2) array with 0 <= u < v < n whose pairs
    strictly increase in row-major order.  The rows are checked in runs of
    `_CANONICAL_ROWS`, each with the row after it, so the order holds across
    the seams too."""
    if not (isinstance(edges, np.ndarray) and edges.dtype == np.int32 and edges.shape[1:] == (2,)):
        return False
    runs = (edges[lo:lo + _CANONICAL_ROWS + 1].T for lo in range(0, len(edges), _CANONICAL_ROWS))
    return all(
        u[0] >= 0 and v.max() < n and (u < v).all() and (u[1:] >= u[:-1]).all()
        and ((u[1:] > u[:-1]) | (v[1:] > v[:-1])).all()
        for u, v in runs
    )


def _canonical_pairs(n: int, edges) -> np.ndarray:
    """Any edge input as a canonical int32 (m, 2) array, column-major: every
    endpoint an integer in [0, n), no self-loop; each pair turned to u < v,
    sorted in row-major order, repeats dropped."""
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
    out = np.empty((2, len(key)), dtype=np.int32)
    out[0], out[1] = np.divmod(key, n)
    return out.T


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
        if len(h) and (h.min() < 0 or h.max() > 2):
            bad = (h < 0) | (h > 2)
            raise AssertionError(f"unit {h[bad.argmax()]} not in {{0, 1, 2}}")
        if Fraction(int(h.sum()), 2) != self.weight:
            raise AssertionError("stored weight disagrees with recomputed sum")


class HalfCover(_HalfUnits):
    """A half-integral fractional vertex cover, one unit per vertex."""

    def validate(self, g: FiniteGraph) -> None:
        super().validate(g.n)
        edge = None if _covers_blocks(g, self.units) else _uncovered_edge(g, self.units)
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
        # the units lie in {0, 1, 2} once the cover is checked
        if not len(self.units) or self.units.min() > 0:
            raise AssertionError("A must be nonempty")
        if 2 * self.weight > g.n:
            raise AssertionError(f"trap weight {self.weight} exceeds n/2")


# ---------------------------------------------------------------------------
# the double-cover matching and its Koenig cover


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
    """Whether each pair (a[k], b[k]) is an edge of g, every pair at once; a
    pair off the vertex range is no edge.  On a graph its blocks prove
    complete (E = F, `_type_blocks`) a pair is an edge exactly when its ends
    differ and their blocks are occupied, read with no CSR.  Otherwise b[k]
    is binary-searched in the ascending CSR row a[k].  No copy of the edge
    set is made, so once the CSR is built a call costs O(k log d) for k
    pairs and d the top degree."""
    a, b = np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64)
    hit = (a >= 0) & (a < g.n) & (b >= 0) & (b < g.n)
    blocks = g._blocks
    if blocks is not None and blocks.complete:
        u, v = a[hit], b[hit]
        hit[hit] = (u != v) & blocks.occupied[g._types[u], g._types[v]]
        return hit
    want, ind = b[hit], g.indices
    lo, hi = g.indptr[a[hit]].astype(np.int64), g.indptr[a[hit] + 1].astype(np.int64)
    # b[k], if in row a[k], lies in ind[lo[k]:hi[k]]; each pass halves that span
    for _ in range(int((hi - lo).max(initial=0)).bit_length()):
        mid = (lo + hi) >> 1
        right = ind.take(mid, mode="clip") <= want
        lo, hi = np.where(right, mid, lo), np.where(right, hi, mid)
    found = lo < hi
    found[found] = ind[lo[found]] == want[found]
    hit[hit] = found
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
# a step-kernel sample's blocks


@dataclass(frozen=True, eq=False)
class _BlockCounts:
    count: np.ndarray  # vertices per block
    pairs: np.ndarray  # k x k, read-only: edges per unordered pair of blocks
    occupied: np.ndarray  # k x k: whether some edge joins the two blocks
    complete: bool  # whether E = F (see `_type_blocks`)


def _blowup_edges(ones: np.ndarray, block: np.ndarray) -> np.ndarray:
    """The edge array of the blow-up of the block graph `ones` over the
    blocks `block`: (m, 2) int32, u < v, row-major, column-major.

    Block a's partners are the ids j, ascending, with ones[a, block[j]];
    row i's upper neighbours are the suffix of its block's list after i.
    All lists lie in one array keyed a*n + j, so one `searchsorted` finds
    every row's suffix, and one gather from the lists' int32 ids gives
    column 1, which `_row_edges` completes as one part.
    """
    n = len(block)
    part_block, part = np.nonzero(ones[:, block])
    key = part_block * n + part
    first = np.searchsorted(key, block * n + np.arange(n), side="right")
    count = np.searchsorted(key, (block + 1) * n) - first
    at = np.repeat(first - (np.cumsum(count) - count), count)
    at += np.arange(len(at))
    return _row_edges(count, [part.astype(np.int32)[at]])


def _row_edges(rowcount: np.ndarray, columns: list) -> np.ndarray:
    """The (m, 2) int32 edge array, column-major, of rows 0..n-1 holding
    rowcount[i] edges each, whose columns, in row-major order, are the
    parts `columns` laid end to end.  Column 1 is the parts joined, and
    column 0 is written part by part, each row's id repeated once per edge
    over the rows whose edges end in the part, so no temporary is larger
    than one part."""
    e = np.empty((2, int(rowcount.sum())), dtype=np.int32)
    if columns:  # none at n = 1
        np.concatenate(columns, out=e[1])
    ends = np.cumsum(rowcount)  # the edges up to the end of each row
    lo = a = 0
    for part in columns:  # its rows: those whose edges end in a..b, empty ones included
        b = a + len(part)
        hi = int(np.searchsorted(ends, b, side="right"))
        e[0, a:b] = np.repeat(np.arange(lo, hi, dtype=np.int32), rowcount[lo:hi])
        lo, a = hi, b
    return e.T


def _vertex_pairs(count: np.ndarray) -> np.ndarray:
    """The k x k count of vertex pairs per pair of blocks of sizes count:
    c_a*c_b, and C(c_a, 2) on the diagonal."""
    full = count[:, None] * count
    full.flat[::len(count) + 1] = count * (count - 1) // 2
    return full


def _block_pairs(block: np.ndarray, k: int, edges: np.ndarray) -> np.ndarray:
    """The symmetric k x k count of edges per unordered pair of blocks, each
    edge once, in one pass that codes each edge's pair a*k + b in the least
    unsigned dtype holding k*k - 1 (uint8 while k <= 16); one block holds
    every edge, with no pass."""
    if k == 1:
        return np.array([[len(edges)]])
    code = block.astype(np.min_scalar_type(k * k - 1))
    u, v = edges.T
    pairs = np.bincount(code.take(u) * k + code.take(v), minlength=k * k).reshape(k, k)
    return pairs + pairs.T - np.diag(pairs.diagonal())


def _type_blocks(g: FiniteGraph) -> Optional[_BlockCounts]:
    """g's blocks, k of them for k - 1 the largest label, their sizes, edge
    counts per pair and occupied pairs; None when g carries no blocks or
    they do not label its vertices.

    A pair of blocks is occupied when it holds an edge.  Let F be the
    blow-up of the occupied block graph: an edge between any two distinct
    vertices whose blocks are occupied.  g is complete when each occupied
    pair holds all of its vertex pairs, c_a*c_b (C(c_a, 2) on the diagonal)
    for c the block sizes: then E is a subset of F holding as many edges as
    F in each pair, and as g's edges never repeat, E = F.  Each block is
    then a twin class (Grohe, Kersting, Mladenov and Selman, ESA 2014): an
    independent set or a clique with one set of outside neighbours.

    A graph defined as a blow-up (`_ones`) is complete by definition: a
    pair holds all of its vertex pairs when the table joins it and none
    otherwise, so no edge is read.  Any other graph's edges are counted per
    pair (`_block_pairs`).  No kernel enters: the blocks partition the
    vertices, and `_ones` is the graph's own definition.
    """
    block = g._types
    if block is None or len(block) != g.n or g.n == 0 or block.min() < 0:
        return None
    count = np.bincount(block)
    k = len(count)
    full = _vertex_pairs(count)
    pairs = _block_pairs(block, k, g.edge_array) if g._ones is None else np.where(g._ones[:k, :k], full, 0)
    pairs.flags.writeable = False
    complete = g._ones is not None or bool(((pairs == 0) | (pairs == full)).all())
    return _BlockCounts(count, pairs, pairs > 0, complete)


def _covers_blocks(g: FiniteGraph, h: np.ndarray) -> bool:
    """Whether units h, constant on each block of g, give every occupied
    pair of blocks a, b h_a + h_b >= 2: exactly the per-edge check, as each
    edge lies in an occupied pair and each occupied pair holds an edge.
    False when g has no blocks or h is not constant on them."""
    blocks = g._blocks
    if blocks is None:
        return False
    per = np.zeros(len(blocks.count), dtype=np.int64)
    per[g._types] = h
    if not (per[g._types] == h).all():
        return False
    per = per.tolist()
    return all(
        per[a] + per[b] >= 2 for a, row in enumerate(blocks.occupied.tolist()) for b, joined in enumerate(row) if joined
    )


def _lifted_cover(g: FiniteGraph) -> Optional[HalfCover]:
    """The best half cover of g's occupied block graph lifted through its
    blocks, a certificate checked as it was built (a `GraphPeninsula` when
    it weighs less than n/2); None only when g carries no blocks.  Kept on
    g as `g._type_cover`.

    The cover is the folded least min cut of g's block flow (`g._block_flow`);
    a diagonal is occupied only if its block holds an edge, and so two
    vertices.  Every edge lies in an occupied pair, so the lift covers g
    whatever the partition, and a failed check is a bug that raises
    `InvariantViolation`.  So is an integer flow
    f(v, x) on the arcs v -> k + x, which are occupied pairs, with a row sum
    above c_v, a column sum above c_x, or a total other than the cover's
    half-units.  On a complete g (E = F, `_type_blocks`) the cover is then
    minimum by this module's sandwich: pair f(v, x) left copies of block v
    with right copies of block x, a block giving its left copies in list
    order and its right copies from the list rotated by one, its loop first
    on both sides: no copy is used twice, and no pair is u+u-, as a loop's
    block holds two vertices.  The pairs are edges of F = E, a double-cover
    matching as large as the cover.
    """
    if g._block_flow is None:
        return None
    count = g._blocks.count.tolist()
    flow, arcs, cut, _ = g._block_flow
    out_of, into = [sum(row) for row in arcs], [sum(col) for col in zip(*arcs)]
    over = any(s > c for s, c in zip(out_of, count)) or any(s > c for s, c in zip(into, count))
    if over or sum(into) != flow:
        raise InvariantViolation(f"block flow {flow} exceeds a block or disagrees with its arcs")
    units = np.array(cut, dtype=np.int64)
    return _self_checked((GraphPeninsula if flow < g.n else HalfCover)(units[g._types], Fraction(flow, 2)), g)


def _type_connected(g: FiniteGraph) -> Optional[bool]:
    """Whether g is connected, read off its block-pair counts; None when g
    has no blocks or the counts cannot tell.  Disconnected: no occupied
    pair joins two parts of the nonempty blocks, or two or more vertices
    have no edge.  Otherwise connected if g is complete, as two blocks of an
    occupied pair are then completely joined, and a lone block is a clique.
    """
    blocks = g._blocks
    if blocks is None:
        return None
    occupied = blocks.occupied.tolist()
    nonempty = [a for a, c in enumerate(blocks.count.tolist()) if c]
    if len(_reach(occupied, nonempty[0])) < len(nonempty) or (g.n > 1 and not any(map(any, occupied))):
        return False
    return True if blocks.complete else None


# ---------------------------------------------------------------------------
# public operations


def fmn_half(g: FiniteGraph) -> HalfMatching:
    """Maximum-weight half-integral fractional matching."""
    size, ml, _ = g._matching
    u, v = g.edge_array.T
    units = (ml[u] == v).astype(np.int64) + (ml[v] == u)
    matching = HalfMatching(units, Fraction(size, 2))
    return _self_checked(matching, g)


def fvcn_half(g: FiniteGraph) -> HalfCover:
    """Minimum-weight half-integral fractional vertex cover.

    Koenig's construction on the double cover's maximum matching; the cover
    it yields does not depend on which maximum matching the solver found.
    """
    size, match_l, match_r = g._matching
    return _folded_cover(g, size, *_koenig_cover(g, match_l, match_r, np.flatnonzero(match_l < 0)))


def fvcn_value(g: FiniteGraph) -> Fraction:
    """Exact fvcn without materializing the cover: the weight of the lifted
    block cover when g's blocks prove g complete (E = F, `_lifted_cover`),
    else half the size of the double-cover matching."""
    cover = g._type_cover
    if cover is not None and g._blocks.complete:
        return cover.weight
    size, _, _ = g._matching
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
    size, match_l, match_r = g._matching
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


def is_connected(g: FiniteGraph) -> bool:
    """Whether g is connected: read off a step-kernel sample's block-pair
    counts when `_type_connected` can, else whether a BFS from vertex 0
    reaches every vertex.  The answer is kept on `g` (`g._connected`), as
    the matching is, so every caller shares one search."""
    return g._connected
