"""Constructive path machinery: odd walks, binary-tree path decompositions,
and the low-degree covering path system.

The covering construction sweeps the low-degree vertices in ascending degree
order, grants each one two fresh neighbors, decomposes the resulting binary
forest into paths whose endpoints are leaves (hence high degree), and then
merges paths that share an unused common neighbor until no pair is mergeable.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import ceil
from typing import Optional

import numpy as np

from .errors import BipartiteOrDisconnected, FormatError, GreedyStuck, InvariantViolation, NotBinaryTree, _self_checked
from .fracmatch import FiniteGraph, _are_edges, _bfs, is_connected


@dataclass(frozen=True)
class PathSystem:
    """Vertex-disjoint paths over a host graph."""

    paths: tuple[tuple[int, ...], ...]

    def vertices(self) -> set[int]:
        return {v for p in self.paths for v in p}

    def validate(self, host: FiniteGraph) -> None:
        is_edge = iter(_are_edges(
            host, [a for p in self.paths for a in p[:-1]], [b for p in self.paths for b in p[1:]]
        ).tolist())
        seen: set[int] = set()
        for p in self.paths:
            if not p:
                raise AssertionError("empty path")
            for v in p:
                if v in seen:
                    raise AssertionError(f"vertex {v} appears in two paths")
                seen.add(v)
            for a, b in zip(p, p[1:]):
                if not next(is_edge):
                    raise AssertionError(f"({a},{b}) is not a host edge")


# ---------------------------------------------------------------------------
# odd walks


def odd_walk(h: FiniteGraph, i: int, j: int) -> list[int]:
    """A walk of odd length at most 2|V| - 1 from i to j.

    Needs a connected non-bipartite host: a spanning tree is 2-colored by
    depth and any same-color non-tree edge closes an odd cycle; whichever of
    the tree path / the detour through that edge has odd parity is returned.
    """
    n = h.n
    if not (0 <= i < n and 0 <= j < n):
        raise BipartiteOrDisconnected("endpoint out of range")
    depth, parent = _bfs(h.indptr, h.indices, [0])
    if (depth < 0).any():
        raise BipartiteOrDisconnected("graph is disconnected")
    u, v = h.edge_array.T
    same = np.flatnonzero((depth[u] - depth[v]) % 2 == 0)
    if not len(same):
        raise BipartiteOrDisconnected("graph is bipartite")
    odd_edge = h.edge_array[same[0]].tolist()
    depth, parent = depth.tolist(), parent.tolist()

    def tree_path(a: int, b: int) -> list[int]:
        pa, pb = [a], [b]
        x, y = a, b
        while depth[x] > depth[y]:
            x = parent[x]
            pa.append(x)
        while depth[y] > depth[x]:
            y = parent[y]
            pb.append(y)
        while x != y:
            x = parent[x]
            y = parent[y]
            pa.append(x)
            pb.append(y)
        return pa[:-1] + pb[::-1]

    direct = tree_path(i, j)
    if (len(direct) - 1) % 2 == 1:
        return direct
    u, v = odd_edge
    detour = tree_path(i, u) + tree_path(v, j)
    if (len(detour) - 1) % 2 != 1 or len(detour) - 1 > 2 * n - 1:
        raise InvariantViolation(f"detour of length {len(detour) - 1} is not an odd walk of length <= 2n-1")
    return detour


# ---------------------------------------------------------------------------
# binary-tree decomposition


def _rooted_children(t: FiniteGraph, root: int) -> list[list[int]]:
    _, parent = _bfs(t.indptr, t.indices, [root])
    children: list[list[int]] = [[] for _ in range(t.n)]
    for v, p in enumerate(parent.tolist()):
        if p >= 0:
            children[p].append(v)
    return children


def _decompose_rooted(root: int, children: list[list[int]]) -> list[list[int]]:
    """Paths partitioning a rooted binary forest tree; endpoints are leaves.

    The root (two children) sits in the middle of its path; every internal
    vertex continues its path through its first child and spawns the second
    child as a new sub-root.
    """
    paths: list[list[int]] = []
    stack = [root]
    while stack:
        r = stack.pop()
        kids = children[r]
        if not kids:
            paths.append([r])
            continue
        if len(kids) != 2:
            raise InvariantViolation(f"internal vertex {r} has {len(kids)} children, not 2")
        left = _spine(kids[0], children, stack)
        right = _spine(kids[1], children, stack)
        paths.append(left[::-1] + [r] + right)
    return paths


def _spine(v: int, children: list[list[int]], stack: list[int]) -> list[int]:
    seq = [v]
    cur = v
    while children[cur]:
        a, b = children[cur]
        stack.append(b)
        seq.append(a)
        cur = a
    return seq


def decompose_binary_tree(t: FiniteGraph) -> PathSystem:
    """Partition a binary tree into paths whose endpoint union is its leaf set.

    Binary tree here means: exactly one vertex of degree 2 (the root), any
    number of degree-3 internal vertices, any number of degree-1 leaves.
    """
    n = t.n
    if n < 3 or len(t.edge_array) != n - 1:
        raise NotBinaryTree("not a tree of order at least 3")
    deg = t.degrees()
    roots = [v for v in range(n) if deg[v] == 2]
    if len(roots) != 1 or any(d not in (1, 2, 3) for d in deg) or deg.count(2) != 1:
        raise NotBinaryTree("degrees must be one 2, rest in {1, 3}")
    if not is_connected(t):
        raise NotBinaryTree("tree must be connected")
    children = _rooted_children(t, roots[0])
    paths = _decompose_rooted(roots[0], children)
    system = _self_checked(PathSystem(tuple(tuple(p) for p in paths)), t)
    if system.vertices() != set(range(n)):
        raise InvariantViolation("tree decomposition misses a vertex")
    leaves = {v for v in range(n) if deg[v] == 1}
    endpoints = {p[0] for p in system.paths} | {p[-1] for p in system.paths}
    if endpoints != leaves:
        raise InvariantViolation("tree decomposition endpoints are not the leaves")
    return system


# ---------------------------------------------------------------------------
# low-degree covering system


def low_degree_path_system(g: FiniteGraph, alpha) -> PathSystem:
    """Cover every vertex of degree < alpha*n by short disjoint paths whose
    endpoints have degree >= alpha*n.

    Vertices of degree below twice the ceiling threshold are processed in
    ascending degree order; each receives two not-yet-used neighbors, forming
    a binary forest whose leaves automatically have high degree.  The forest
    is decomposed into paths, single-leaf paths are dropped (they contain no
    low-degree vertex), and remaining paths are merged greedily through
    unused common neighbors of their endpoints to drive the path count below
    2/alpha.

    Raises GreedyStuck when a low-degree vertex has fewer than two fresh
    neighbors; that means the input is outside the light-tail regime the
    construction is designed for, and is reported rather than masked.
    """
    n = g.n
    alpha = Fraction(alpha)
    if not 0 < alpha < Fraction(1, 2):
        raise FormatError("alpha must lie in (0, 1/2)", "alpha")
    if n < 3:
        raise FormatError("need at least 3 vertices", "n")
    theta = ceil(alpha * n)  # integer degree threshold for "low"
    deg = np.diff(g.indptr)
    low = np.flatnonzero(deg < 2 * theta)
    low = low[np.argsort(deg[low], kind="stable")].tolist()  # by (degree, index)
    if not low:
        return PathSystem(())
    taken = np.zeros(n, dtype=bool)  # chosen neighbors and low vertices swept so far
    used = np.zeros(n, dtype=bool)  # chosen neighbors
    children: list[list[int]] = [[] for _ in range(n)]
    for v in low:
        row = g.indices[g.indptr[v]:g.indptr[v + 1]]
        pick = row[~taken[row]][:2]  # lowest index, deterministic
        if len(pick) < 2:
            raise GreedyStuck(v)
        children[v] = pick.tolist()
        taken[pick] = used[pick] = True
        taken[v] = True
    roots = [v for v in low if not used[v]]
    paths: list[list[int]] = []
    for root in roots:
        paths.extend(_decompose_rooted(root, children))
    # single-leaf paths carry no low-degree vertex; they are not needed
    paths = [p for p in paths if len(p) > 1]
    merged = _merge_paths(g, paths, theta)
    return _self_checked(PathSystem(tuple(tuple(p) for p in merged)), g)


def _merge_paths(g: FiniteGraph, paths: list[list[int]], theta: int) -> list[list[int]]:
    """First-fit merging through an unused degree->=theta common neighbor."""
    while True:
        free = np.diff(g.indptr) >= theta  # may join a merge: high degree, outside the system
        free[[v for p in paths for v in p]] = False
        paths.sort(key=len)
        done = True
        for ai in range(len(paths)):
            for bi in range(ai + 1, len(paths)):
                hit = _mergeable(g, paths[ai], paths[bi], free)
                if hit is None:
                    continue
                pa, pb, w = hit
                rest = [paths[k] for k in range(len(paths)) if k not in (ai, bi)]
                paths = rest + [pa + [w] + pb]
                done = False
                break
            if not done:
                break
        if done:
            return paths


def _mergeable(g: FiniteGraph, pa, pb, free):
    ptr, nbr = g.indptr, g.indices
    for a_end in (pa[::-1], pa[:]):  # orient pa to end at the probed endpoint
        for b_end in (pb[:], pb[::-1]):
            x, y = a_end[-1], b_end[0]
            common = np.intersect1d(nbr[ptr[x]:ptr[x + 1]], nbr[ptr[y]:ptr[y + 1]], assume_unique=True)
            common = common[free[common]]
            if len(common):
                return a_end, b_end, int(common[0])
    return None


@dataclass(frozen=True)
class PathSystemCheck:
    min_three_vertices: bool   # (a)
    low_degree_covered: bool   # (b)
    endpoint_degrees: bool     # (c)
    covered_vertex_count: int  # (d), reported not asserted
    few_paths: bool            # (e)

    def all_asserted(self) -> bool:
        return (
            self.min_three_vertices
            and self.low_degree_covered
            and self.endpoint_degrees
            and self.few_paths
        )


def check_path_system(g: FiniteGraph, system: PathSystem, alpha) -> PathSystemCheck:
    """Validate the covering-path-system contract against its host graph."""
    alpha = Fraction(alpha)
    n = g.n
    deg = g.degrees()
    theta = ceil(alpha * n)
    covered = system.vertices()
    system.validate(g)
    return PathSystemCheck(
        min_three_vertices=all(len(p) >= 3 for p in system.paths),
        low_degree_covered=all(v in covered for v in range(n) if deg[v] < theta),
        endpoint_degrees=all(
            deg[p[0]] >= theta and deg[p[-1]] >= theta for p in system.paths
        ),
        covered_vertex_count=len(covered),
        few_paths=len(system.paths) < 2 / alpha,
    )
