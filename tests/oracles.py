"""Independent brute-force oracles used to pin expected values.

Everything here is deliberately naive: exhaustive enumeration over tiny
domains, kept free of the library's optimization machinery so the two routes
stay independent.  `best_trap_margin` is the block-support enumeration
that `find_peninsula` ran before it read traps off one max flow, and
`peninsula_kind_via_cover` is a further trap detector built on exhaustive
half-integral covers of the weighted block graph.
`bipartite_split_reference` is the scan over every block assignment that
`check_exact_bipartite_split` ran before it flipped whole components.  The
`validate_*_reference` functions are the plain `Fraction` loops the
certificate validators were before they became integer array checks,
`bfs_reference` is the plain queue loop that the CSR traversal replaced,
`is_bipartite_reference` the plain 2-colouring that the double-cover
labelling replaced, and
`uniquely_half_covered_reference` is the per-vertex loop of matching solves
that the reachability test on one double-cover matching replaced, and
`sample_graph_reference` is the whole-draw sampler, one array entry per
vertex pair, that the row-block draw replaced, and
`sample_types_reference` its type stage with the block ends and guarded
widths formed on every draw, as before the kernel kept them as tables.  `build_reference` derives
the arrays of `FiniteGraph.build` from a sorted set of oriented pairs, and
`classify_types_reference` is the per-vertex loop that `classify_types`
replaced with array comparisons.  `posa_heuristic_reference` is the rotation
heuristic as it ran on Python neighbour sets, before it read the CSR.
`refine_reference` is the two-pointer walk over two partitions that
`cutnorm._refine` replaced with cumulative cuts, and
`empirical_step_function_reference` the per-cell loop that array arithmetic
replaced.  `edge_tuples` is the tuple view of a graph's edges that
`FiniteGraph` once carried for text I/O and tests.  `reach_reference` is
the block-graph BFS that tested every entry of a row in Python before the
row scan moved to `itertools.compress`, and `cover_flow_reference` the
block flow built on it.
"""

from fractions import Fraction
from itertools import product

HALF = Fraction(1, 2)
VALUES = (Fraction(0), HALF, Fraction(1))


def edge_tuples(g) -> tuple[tuple[int, int], ...]:
    """A `FiniteGraph`'s edges as ascending (u, v) tuples of plain ints."""
    return tuple(map(tuple, g.edge_array.tolist()))


def min_half_cover_weight(g) -> Fraction:
    """Exhaustive minimum over all {0, 1/2, 1} vertex assignments."""
    return min_weighted_half_cover(g.n, edge_tuples(g), [Fraction(1)] * g.n, ())


def min_weighted_half_cover(k, edges, weights, loops) -> Fraction:
    """Exhaustive minimum of sum w(v) f(v) over f in {0, 1/2, 1}^k.

    Every edge uv needs f(u) + f(v) >= 1 and every loop at v needs
    f(v) >= 1/2; branches whose partial weight reaches the best total so far
    are cut, the constant-one function being the first such total.
    """
    adj_lower = [[] for _ in range(k)]
    for u, v in edges:
        a, b = (u, v) if u > v else (v, u)
        adj_lower[a].append(b)
    looped = set(loops)
    best = [sum(weights, Fraction(0))]
    assignment = [Fraction(0)] * k

    def rec(i: int, total: Fraction) -> None:
        if total >= best[0]:
            return
        if i == k:
            best[0] = total
            return
        for val in VALUES:
            if i in looped and val < HALF:
                continue
            if all(assignment[u] + val >= 1 for u in adj_lower[i]):
                assignment[i] = val
                rec(i + 1, total + weights[i] * val)
        assignment[i] = Fraction(0)

    rec(0, Fraction(0))
    return best[0]


def max_half_matching_weight(g) -> Fraction:
    """Exhaustive maximum over all {0, 1/2, 1} edge assignments."""
    m = len(edge_tuples(g))
    load = [Fraction(0)] * g.n
    best = [Fraction(0)]

    def rec(i: int, total: Fraction) -> None:
        if i == m:
            if total > best[0]:
                best[0] = total
            return
        # optimistic bound: every remaining edge at weight 1
        if total + (m - i) <= best[0]:
            return
        u, v = edge_tuples(g)[i]
        for val in (Fraction(1), HALF, Fraction(0)):
            if load[u] + val <= 1 and load[v] + val <= 1:
                load[u] += val
                load[v] += val
                rec(i + 1, total + val)
                load[u] -= val
                load[v] -= val

    rec(0, Fraction(0))
    return best[0]


def uniquely_half_covered_oracle(g) -> bool:
    """Is every half-integral cover of weight <= n/2 the constant half one?

    Cover values are counted in half units (0, 1, 2), so an edge needs a sum
    of at least 2 and the weight bound is n.
    """
    n = g.n
    adj_lower = [[] for _ in range(n)]
    for u, v in edge_tuples(g):
        a, b = (u, v) if u > v else (v, u)
        adj_lower[a].append(b)
    assignment = [0] * n
    found = [False]

    def rec(i: int, total: int, non_constant: bool) -> None:
        if found[0] or total > n:
            return
        if i == n:
            if non_constant:
                found[0] = True
            return
        for val in (0, 1, 2):
            if all(assignment[u] + val >= 2 for u in adj_lower[i]):
                assignment[i] = val
                rec(i + 1, total + val, non_constant or val != 1)
        assignment[i] = 0

    rec(0, 0, False)
    return not found[0]


def _induced_without(g, removed: set[int]):
    import numpy as np
    from graphonham import FiniteGraph

    keep = np.ones(g.n, dtype=bool)
    keep[list(removed)] = False
    remap = np.cumsum(keep) - 1
    u, v = g.edge_array.T
    return FiniteGraph.build(int(keep.sum()), remap[g.edge_array[keep[u] & keep[v]]])


def uniquely_half_covered_reference(g):
    """`(verdict, witness)` by one matching solve of G - N[v] per vertex v.

    The first v with |N(v)| + fvcn(G - N[v]) <= n/2 gives the witness: 0 at
    v, 1 on N(v), and the minimum cover of the rest.
    """
    import numpy as np
    from graphonham import HalfCover, InvariantViolation, fvcn_half, fvcn_value

    n = g.n
    if n == 0:
        return True, None
    half_n = Fraction(n, 2)
    base = fvcn_half(g)
    if base.weight < half_n:
        return False, base
    adj = g.adjacency()
    for v in range(n):
        neigh = set(adj[v])
        removed = neigh | {v}
        rest = _induced_without(g, removed)
        # f(v) = 0 forces f on N(v) to be 1; the remainder is covered optimally.
        if len(neigh) + fvcn_value(rest) <= half_n:
            keep = [u for u in range(n) if u not in removed]
            sub = fvcn_half(rest)
            values = [Fraction(0)] * n
            for u in neigh:
                values[u] = Fraction(1)
            for i, u in enumerate(keep):
                values[u] = sub.values[i]
            values[v] = Fraction(0)
            witness = HalfCover(np.array([int(2 * x) for x in values]), sum(values, Fraction(0)))
            witness.validate(g)
            if witness.weight > half_n:
                raise InvariantViolation(f"witness weight {witness.weight} exceeds n/2")
            return False, witness
    return True, None


def build_reference(n: int, pairs) -> tuple[list, list[int], list[int]]:
    """`(edges, indptr, indices)` of the simple graph on n vertices with these pairs.

    The edges are the sorted set of pairs oriented u < v; row u of the CSR
    lists u's neighbours ascending.
    """
    edges = sorted({(min(u, v), max(u, v)) for u, v in pairs})
    rows = [[] for _ in range(n)]
    for u, v in edges:
        rows[u].append(v)
        rows[v].append(u)
    indptr = [0]
    for row in rows:
        indptr.append(indptr[-1] + len(row))
    return [list(e) for e in edges], indptr, [v for row in rows for v in sorted(row)]


def classify_types_reference(cert, g, block, offset) -> tuple[int, int, int]:
    """(n_a, n_b, n_c): vertex by vertex, offset below A_b/m_b is A, below
    (A_b+B_b)/m_b is B, and the rest is C."""
    n_a = n_b = n_c = 0
    fa = [float(cert.A_fractions[i] / g.block_masses[i]) for i in range(g.k)]
    fb = [float((cert.A_fractions[i] + cert.B_fractions[i]) / g.block_masses[i]) for i in range(g.k)]
    for b, off in zip(block, offset):
        if off < fa[b]:
            n_a += 1
        elif off < fb[b]:
            n_b += 1
        else:
            n_c += 1
    return n_a, n_b, n_c


def sample_types_reference(g, n: int, seed: int, trial_index: int = 0):
    """The (block, offset) of `sample_types` for a step kernel, each block's
    lower end and width formed per draw, a width not above 0 guarded."""
    import numpy as np
    from graphonham.sampler import _TYPE_CHANNEL, _philox

    u = np.random.Generator(_philox(seed, trial_index, _TYPE_CHANNEL)).random(n)
    cum = np.cumsum(np.array([float(m) for m in g.block_masses], dtype=np.float64))
    cum[-1] = 1.0
    block = np.searchsorted(cum, u, side="right").astype(np.int64)
    low = np.concatenate([[0.0], cum[:-1]])
    width = cum[block] - low[block]
    offset = np.where(width > 0, (u - low[block]) / np.where(width > 0, width, 1.0), 0.0)
    return block, offset


def sample_graph_reference(g, n: int, seed: int, trial_index: int = 0):
    """The edge array of `sample_graph` from one draw of all C(n, 2) coins."""
    import numpy as np
    from graphonham import StepGraphon, sample_types
    from graphonham.sampler import _EDGE_CHANNEL, _philox

    if isinstance(g, StepGraphon):
        block, offset = sample_types_reference(g, n, seed, trial_index)
    else:
        block, offset = sample_types(g, n, seed, trial_index)
    gen = np.random.Generator(_philox(seed, trial_index, _EDGE_CHANNEL))
    iu, ju = np.triu_indices(n, k=1)
    coins = gen.random(len(iu))
    if isinstance(g, StepGraphon):
        dens = np.array([[float(d) for d in row] for row in g.densities])
        p = dens[block[iu], block[ju]]
    else:
        p = np.clip((offset[iu] * offset[ju]) ** float(g.beta), 0.0, 1.0)
    sel = coins < p
    return np.column_stack([iu[sel], ju[sel]]).astype(np.int32)


def graph_peninsula_oracle(g) -> tuple[bool, bool]:
    """(nonstrict exists, narrow exists) by scanning all candidate sets A.

    For a fixed independent A the best companion B is everything outside
    A and its neighborhood, so only A needs enumeration; the defining
    inequality |A| >= (n - |B|)/2 becomes 2|A| + |B| >= n.
    """
    n = g.n
    adj_bits = [0] * n
    for u, v in edge_tuples(g):
        adj_bits[u] |= 1 << v
        adj_bits[v] |= 1 << u
    has = narrow = False
    for amask in range(1, 1 << n):
        bits = [v for v in range(n) if (amask >> v) & 1]
        if any(adj_bits[v] & amask for v in bits):
            continue  # A not independent
        nb = 0
        for v in bits:
            nb |= adj_bits[v]
        nb &= ~amask
        b_size = n - len(bits) - bin(nb).count("1")
        score = 2 * len(bits) + b_size
        if score >= n:
            has = True
        if score > n:
            narrow = True
        if has and narrow:
            break
    return has, narrow


def trap_margin(g, zmask: int) -> Fraction:
    """mass(Z) - mass(N(Z) \\ Z) for the block set Z = zmask."""
    bits = [i for i in range(g.k) if (zmask >> i) & 1]
    neigh = {j for i in bits for j in range(g.k) if g.densities[i][j] > 0} - set(bits)
    return sum((g.block_masses[i] for i in bits), Fraction(0)) - sum(
        (g.block_masses[j] for j in neigh), Fraction(0)
    )


def best_trap_margin(g):
    """The largest `trap_margin` over the nonempty block sets that are
    loop-free and pairwise zero-density, or None when there is none."""
    best = None
    for zmask in range(1, 1 << g.k):
        bits = [i for i in range(g.k) if (zmask >> i) & 1]
        if any(g.densities[i][j] != 0 for i in bits for j in bits):
            continue
        margin = trap_margin(g, zmask)
        if best is None or margin > best:
            best = margin
    return best


def step_peninsula_oracle_sets(g) -> tuple[bool, bool]:
    """(exists, narrow) via independent block-set enumeration.

    A support Z must be loop-free and pairwise zero-density; it works iff
    mass(Z) >= mass(N(Z)), strictly for the narrow kind.
    """
    best = best_trap_margin(g)
    return best is not None and best >= 0, best is not None and best > 0


def step_peninsula_oracle_labels(g) -> tuple[bool, bool]:
    """(exists, narrow) via the 3-label per-block search.

    Each block is wholly labelled A, B, or C; the fractional placements
    reduce to these corners because the existence score 2*mass(A) + mass(B)
    is linear in the per-block fractions.  A trap exists iff some valid
    labelling scores >= 1, narrow iff > 1.
    """
    k = g.k
    dens = g.densities
    masses = g.block_masses
    has = narrow = False
    for labels in product("ABC", repeat=k):
        a_blocks = [i for i in range(k) if labels[i] == "A"]
        if not a_blocks:
            continue
        b_blocks = [i for i in range(k) if labels[i] == "B"]
        if any(dens[i][j] != 0 for i in a_blocks for j in a_blocks):
            continue
        if any(dens[i][j] != 0 for i in a_blocks for j in b_blocks):
            continue
        score = 2 * sum((masses[i] for i in a_blocks), Fraction(0)) + sum(
            (masses[j] for j in b_blocks), Fraction(0)
        )
        if score >= 1:
            has = True
        if score > 1:
            narrow = True
        if has and narrow:
            break
    return has, narrow


def block_positivity_graph(g, keep=None):
    """The weighted block graph of a step graphon (or of the blocks `keep`).

    Returned as (k, edges, weights, loops): vertices are blocks carrying
    their masses as weights, edges join distinct blocks of positive density,
    and a positive diagonal becomes a self-loop.
    """
    keep = list(range(g.k)) if keep is None else keep
    remap = {b: i for i, b in enumerate(keep)}
    edges = [
        (remap[a], remap[b])
        for a in keep
        for b in keep
        if a < b and g.densities[a][b] > 0
    ]
    loops = [remap[b] for b in keep if g.densities[b][b] > 0]
    weights = [g.block_masses[b] for b in keep]
    return len(keep), edges, weights, loops


def peninsula_kind_via_cover(g):
    """Trap verdict through half-integral covers of the weighted block graph.

    A trap corresponds to a non-constant half-integral cover of total weight
    at most 1/2; the narrow kind to weight strictly below 1/2.  The constant
    half function always covers, so the optimal weight never exceeds 1/2, and
    a non-constant cover of weight at most 1/2 must zero out some loop-free
    block, whose positive-density neighbors are then forced to one.
    """
    if min_weighted_half_cover(*block_positivity_graph(g)) < HALF:
        return "narrow"
    for i in range(g.k):
        if g.densities[i][i] != 0:
            continue
        removed = {i} | {j for j in range(g.k) if g.densities[i][j] > 0}
        keep = [j for j in range(g.k) if j not in removed]
        neigh_mass = sum(
            (g.block_masses[j] for j in removed if j != i), Fraction(0)
        )
        if neigh_mass > HALF:
            continue
        sub = block_positivity_graph(g, keep)
        if neigh_mass + min_weighted_half_cover(*sub) <= HALF:
            return "peninsula"
    return None


def bipartite_split_reference(g):
    """(possible, S_blocks, T_blocks, split_block) by scanning every side
    assignment of the non-isolated blocks in bitmask order; the first that
    fits is kept, with the isolated blocks packed into S in index order."""
    k = g.k
    isolated = [i for i in range(k) if all(g.densities[i][j] == 0 for j in range(k))]
    others = [i for i in range(k) if i not in isolated]
    iso_mass = sum((g.block_masses[i] for i in isolated), Fraction(0))
    dens = g.densities
    for assign in range(1 << len(others)):
        s_blocks = [others[p] for p in range(len(others)) if (assign >> p) & 1]
        t_blocks = [others[p] for p in range(len(others)) if not (assign >> p) & 1]
        if any(dens[i][j] != 0 for i in s_blocks for j in s_blocks):
            continue
        if any(dens[i][j] != 0 for i in t_blocks for j in t_blocks):
            continue
        m_s = sum((g.block_masses[i] for i in s_blocks), Fraction(0))
        if not (m_s <= HALF <= m_s + iso_mass):
            continue
        # pack isolated blocks into S in index order until mass 1/2
        need = HALF - m_s
        s_full, split = list(s_blocks), None
        t_full = list(t_blocks)
        for i in isolated:
            if need == 0:
                t_full.append(i)
            elif g.block_masses[i] <= need:
                s_full.append(i)
                need -= g.block_masses[i]
            else:
                split = (i, need)
                need = Fraction(0)
        return True, tuple(sorted(s_full)), tuple(sorted(t_full)), split
    return False, (), (), None


def validate_half_cover_reference(cover, g) -> None:
    """The per-vertex, per-edge `Fraction` loop that `HalfCover.validate`
    replaced; raises AssertionError exactly when a cover is invalid."""
    if len(cover.values) != g.n:
        raise AssertionError("cover has wrong length")
    for f in cover.values:
        if f not in VALUES:
            raise AssertionError(f"cover value {f} not in {{0, 1/2, 1}}")
    for u, v in edge_tuples(g):
        if cover.values[u] + cover.values[v] < 1:
            raise AssertionError(f"edge ({u},{v}) uncovered")
    if sum(cover.values, Fraction(0)) != cover.weight:
        raise AssertionError("stored weight disagrees with recomputed sum")


def validate_half_matching_reference(matching, g) -> None:
    """The loop that `HalfMatching.validate` replaced."""
    if len(matching.values) != len(edge_tuples(g)):
        raise AssertionError("matching has wrong length")
    for m in matching.values:
        if m not in VALUES:
            raise AssertionError(f"matching value {m} not in {{0, 1/2, 1}}")
    load = [Fraction(0)] * g.n
    for (u, v), m in zip(edge_tuples(g), matching.values):
        load[u] += m
        load[v] += m
    for v, l in enumerate(load):
        if l > 1:
            raise AssertionError(f"vertex {v} overloaded: {l}")
    if sum(matching.values, Fraction(0)) != matching.weight:
        raise AssertionError("stored weight disagrees with recomputed sum")


def validate_peninsula_reference(cert, g) -> None:
    """The set-membership loop that `GraphPeninsula.validate` replaced.

    It trusts A and B to be distinct in-range vertices, which the array
    validator checks as well.
    """
    sa, sb = set(cert.A), set(cert.B)
    if not sa:
        raise AssertionError("A must be nonempty")
    if sa & sb:
        raise AssertionError("A and B must be disjoint")
    for u, v in edge_tuples(g):
        if (u in sa and (v in sa or v in sb)) or (v in sa and (u in sa or u in sb)):
            raise AssertionError(f"edge ({u},{v}) meets A x (A u B)")
    bound = Fraction(g.n - len(cert.B), 2)
    if cert.kind == "narrow":
        if not len(cert.A) > bound:
            raise AssertionError("narrow requires |A| > (n-|B|)/2")
    elif cert.kind == "peninsula":
        if not len(cert.A) >= bound:
            raise AssertionError("peninsula requires |A| >= (n-|B|)/2")
    else:
        raise AssertionError(f"unknown kind {cert.kind!r}")


def cut_norm_subset_oracle(f) -> Fraction:
    """Max over all subset pairs of |sum of mass-weighted values|."""
    k = f.k
    best = Fraction(0)
    for smask in range(1 << k):
        s = [i for i in range(k) if (smask >> i) & 1]
        for tmask in range(1 << k):
            t = [j for j in range(k) if (tmask >> j) & 1]
            total = Fraction(0)
            for i in s:
                for j in t:
                    total += f.masses[i] * f.masses[j] * f.values[i][j]
            best = max(best, abs(total))
    return best


def refine_reference(ma, mb) -> list[tuple[Fraction, int, int]]:
    """Common refinement cells as (mass, index in a, index in b) by a
    two-pointer walk over both partitions, zero cells dropped."""
    from graphonham import InvariantViolation

    cells = []
    ia = ib = 0
    ra, rb = ma[0], mb[0]
    while True:
        step = min(ra, rb)
        if step > 0:
            cells.append((step, ia, ib))
        ra -= step
        rb -= step
        if ra == 0:
            ia += 1
            if ia == len(ma):
                break
            ra = ma[ia]
        if rb == 0:
            ib += 1
            if ib == len(mb):
                break
            rb = mb[ib]
    if sum(c[0] for c in cells) != 1:
        raise InvariantViolation("refinement cells do not sum to mass 1")
    return cells


def empirical_step_function_reference(graph):
    """Type-class masses and exact edge densities of a sampled graph, one
    cell at a time: c_i c_j vertex pairs off the diagonal, c_i (c_i - 1)
    ordered pairs on it, and density 0 where a cell has no pair."""
    import numpy as np
    from graphonham import StepFunction

    k = graph.model.k
    counts = np.bincount(graph.type_block, minlength=k)
    pair_counts = np.zeros((k, k), dtype=np.int64)
    if len(graph.edges):
        bu = graph.type_block[graph.edges[:, 0]]
        bv = graph.type_block[graph.edges[:, 1]]
        np.add.at(pair_counts, (bu, bv), 1)
        np.add.at(pair_counts, (bv, bu), 1)  # diagonal gets 2 per within-edge
    masses = tuple(Fraction(int(c), graph.n) for c in counts)
    dens = []
    for i in range(k):
        row = []
        for j in range(k):
            if i == j:
                denom = int(counts[i]) * (int(counts[i]) - 1)
            else:
                denom = int(counts[i]) * int(counts[j])
            row.append(Fraction(int(pair_counts[i][j]), denom) if denom else Fraction(0))
        dens.append(tuple(row))
    return StepFunction(masses, tuple(dens))


def bfs_reference(indptr, indices, sources) -> tuple[list[int], list[int]]:
    """FIFO BFS over a CSR: `(depth, parent)`, -1 where unreached.

    The queue is seeded with the sources in the order given, each row is
    scanned in stored order, and negative targets are skipped.
    """
    from collections import deque

    n = len(indptr) - 1
    depth, parent = [-1] * n, [-1] * n
    q = deque()
    for s in sources:
        if depth[s] == -1:
            depth[s] = 0
            q.append(s)
    while q:
        u = q.popleft()
        for v in indices[indptr[u]:indptr[u + 1]]:
            if v >= 0 and depth[v] == -1:
                depth[v], parent[v] = depth[u] + 1, u
                q.append(v)
    return depth, parent


def posa_heuristic_reference(g, seed: int = 0, restarts: int = 20):
    """Rotation-extension search over one Python set per vertex.

    Same restarts, rotation cap and `random.Random` calls as
    `posa_heuristic`, but candidates come in set-iteration order and a
    rotation finds its pivot with `list.index`.  Returns the path as a tuple
    when it closes into a spanning cycle (unvalidated), else None.
    """
    import random

    n = g.n
    if n < 3:
        return None
    adj = [set(a) for a in g.adjacency()]
    rng = random.Random(seed)
    for _ in range(restarts):
        start = rng.randrange(n)
        path = [start]
        in_path = [False] * n
        in_path[start] = True
        rotations = 0
        while rotations <= 50 * n:
            tail = path[-1]
            fresh = [w for w in adj[tail] if not in_path[w]]
            if fresh:
                w = rng.choice(fresh)
                path.append(w)
                in_path[w] = True
                continue
            closes = path[0] in adj[tail]
            if closes and len(path) == n:
                return tuple(path)
            if closes:
                # non-spanning cycle: reopen at a vertex that sees outside
                reopened = False
                for idx, c in enumerate(path):
                    out = [w for w in adj[c] if not in_path[w]]
                    if out:
                        path = path[idx + 1:] + path[: idx + 1]
                        w = rng.choice(out)
                        path.append(w)
                        in_path[w] = True
                        reopened = True
                        break
                if reopened:
                    continue
                break  # component exhausted, restart
            # rotation: tail's neighbors are all internal
            pivots = [w for w in adj[tail] if w != path[-2]]
            if not pivots:
                break
            v = rng.choice(pivots)
            i = path.index(v)
            path[i + 1:] = reversed(path[i + 1:])
            rotations += 1
    return None


def is_bipartite_reference(g) -> bool:
    """Two-colour each component by a stack walk from its least vertex."""
    adj = g.adjacency()
    colour = [-1] * g.n
    for root in range(g.n):
        if colour[root] != -1:
            continue
        colour[root] = 0
        stack = [root]
        while stack:
            u = stack.pop()
            for v in adj[u]:
                if colour[v] == colour[u]:
                    return False
                if colour[v] == -1:
                    colour[v] = 1 - colour[u]
                    stack.append(v)
    return True


def min_odd_walk_length(g, i: int, j: int):
    """BFS over (vertex, parity) pairs; None when no odd walk exists."""
    from collections import deque

    adj = g.adjacency()
    dist = [[None, None] for _ in range(g.n)]
    dist[i][0] = 0
    q = deque([(i, 0)])
    while q:
        u, p = q.popleft()
        for v in adj[u]:
            if dist[v][p ^ 1] is None:
                dist[v][p ^ 1] = dist[u][p] + 1
                q.append((v, p ^ 1))
    return dist[j][1]


def exact_binomial_upper_tail(n: int, threshold: int) -> Fraction:
    """P[Bin(n, 1/2) >= threshold], exact."""
    from math import comb

    total = sum(comb(n, k) for k in range(threshold, n + 1))
    return Fraction(total, 2**n)


def reach_reference(r, source: int) -> dict[int, int]:
    """BFS over the arcs u -> w with r[u][w] > 0, every entry tested in
    Python: the BFS parent of each reached node, in BFS order."""
    parent = {source: source}
    queue = [source]
    for u in queue:
        for w, cap in enumerate(r[u]):
            if cap > 0 and w not in parent:
                parent[w] = u
                queue.append(w)
    return parent


def cover_flow_reference(weights, positive, drains=None):
    """`graphon._cover_flow` as it ran on `reach_reference`: the flow, the
    residual capacities and the least min cut's reach."""
    k, uncuttable = len(weights), sum(weights) + 1
    source, sink = 2 * k, 2 * k + 1
    r = [[0] * (2 * k + 2) for _ in range(2 * k + 2)]
    for v, cap in enumerate(weights):
        r[source][v] = cap
        r[k + v][sink] = cap if drains is None else drains[v]
        for w in range(k):
            if positive[v][w]:
                r[v][k + w] = uncuttable
    flow = 0
    while sink in (parent := reach_reference(r, source)):
        path = [sink]
        while path[-1] != source:
            path.append(parent[path[-1]])
        push = min(r[u][w] for w, u in zip(path, path[1:]))
        for w, u in zip(path, path[1:]):
            r[u][w] -= push
            r[w][u] += push
        flow += push
    return flow, r, parent
