from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphonham import (
    BipartiteOrDisconnected,
    FiniteGraph,
    FormatError,
    GreedyStuck,
    NotBinaryTree,
    PathSystem,
    check_path_system,
    decompose_binary_tree,
    low_degree_path_system,
    odd_walk,
)
from conftest import random_graph
from oracles import edge_tuples, min_odd_walk_length


def cycle(n):
    return FiniteGraph.build(n, [(i, (i + 1) % n) for i in range(n)])


class TestOddWalk:
    def test_triangle_closed(self):
        w = odd_walk(cycle(3), 0, 0)
        assert w[0] == w[-1] == 0 and (len(w) - 1) % 2 == 1 and len(w) - 1 <= 5

    def test_adjacent_pair_uses_edge(self):
        assert odd_walk(cycle(5), 0, 1) == [0, 1]

    def test_bipartite_rejected(self):
        with pytest.raises(BipartiteOrDisconnected):
            odd_walk(FiniteGraph.build(4, [(0, 1), (1, 2), (2, 3)]), 0, 3)

    def test_disconnected_rejected(self):
        g = FiniteGraph.build(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
        with pytest.raises(BipartiteOrDisconnected):
            odd_walk(g, 0, 5)

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_parity_length_and_oracle(self, data):
        r = data.draw(st.integers(3, 12))
        pairs = [(u, v) for u in range(r) for v in range(u + 1, r)]
        edges = data.draw(
            st.lists(st.sampled_from(pairs), unique=True, min_size=r, max_size=len(pairs))
        )
        g = FiniteGraph.build(r, edges)
        i, j = data.draw(st.integers(0, r - 1)), data.draw(st.integers(0, r - 1))
        try:
            walk = odd_walk(g, i, j)
        except BipartiteOrDisconnected:
            return
        length = len(walk) - 1
        assert length % 2 == 1 and length <= 2 * r - 1
        assert walk[0] == i and walk[-1] == j
        eset = set(edge_tuples(g))
        assert all(((a, b) if a < b else (b, a)) in eset for a, b in zip(walk, walk[1:]))
        assert min_odd_walk_length(g, i, j) <= length


class TestBinaryTreeDecomposition:
    def test_cherry(self):
        system = decompose_binary_tree(FiniteGraph.build(3, [(0, 1), (0, 2)]))
        assert system.paths == ((1, 0, 2),)

    def test_seven_vertex_tree(self):
        t = FiniteGraph.build(7, [(0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (2, 6)])
        system = decompose_binary_tree(t)
        assert system.vertices() == set(range(7))
        endpoints = {p[0] for p in system.paths} | {p[-1] for p in system.paths}
        assert endpoints == {3, 4, 5, 6}

    def test_long_path_rejected(self):
        with pytest.raises(NotBinaryTree):
            decompose_binary_tree(FiniteGraph.build(4, [(0, 1), (1, 2), (2, 3)]))

    def test_non_tree_rejected(self):
        with pytest.raises(NotBinaryTree):
            decompose_binary_tree(cycle(4))

    def test_random_binary_trees(self, rng):
        for _ in range(40):
            # grow a random binary tree: repeatedly give a leaf two children
            edges = [(0, 1), (0, 2)]
            leaves = [1, 2]
            nxt = 3
            for _ in range(rng.randrange(0, 6)):
                v = leaves.pop(rng.randrange(len(leaves)))
                edges += [(v, nxt), (v, nxt + 1)]
                leaves += [nxt, nxt + 1]
                nxt += 2
            t = FiniteGraph.build(nxt, edges)
            system = decompose_binary_tree(t)
            system.validate(t)
            assert system.vertices() == set(range(nxt))
            deg = t.degrees()
            endpoints = {p[0] for p in system.paths} | {p[-1] for p in system.paths}
            assert endpoints == {v for v in range(nxt) if deg[v] == 1}


class TestLowDegreePathSystem:
    def test_no_low_degree_vertices(self):
        k8 = FiniteGraph.build(8, [(i, j) for i in range(8) for j in range(i + 1, 8)])
        assert low_degree_path_system(k8, Fraction(1, 10)).paths == ()

    def test_clique_with_degree_two_attachment(self):
        edges = [(i, j) for i in range(20) for j in range(i + 1, 20)]
        edges += [(0, 20), (1, 20)]
        g = FiniteGraph.build(21, edges)
        system = low_degree_path_system(g, Fraction(1, 5))
        chk = check_path_system(g, system, Fraction(1, 5))
        assert chk.all_asserted()
        assert any(20 in p for p in system.paths)
        assert all(len(p) >= 3 for p in system.paths)

    def test_pendant_vertex_reports_stuck(self):
        edges = [(i, j) for i in range(20) for j in range(i + 1, 20)] + [(0, 20)]
        with pytest.raises(GreedyStuck) as err:
            low_degree_path_system(FiniteGraph.build(21, edges), Fraction(1, 5))
        assert err.value.vertex == 20

    def test_merging_brings_path_count_down(self, rng):
        # several low-degree vertices hanging off a dense core by disjoint
        # attachment pairs, so each can claim two fresh neighbors
        core = 60
        edges = [(i, j) for i in range(core) for j in range(i + 1, core) if rng.random() < 0.5]
        extra = []
        n = core
        for p in range(6):
            extra += [(2 * p, n), (2 * p + 1, n)]
            n += 1
        g = FiniteGraph.build(n, edges + extra)
        alpha = Fraction(1, 6)
        system = low_degree_path_system(g, alpha)
        chk = check_path_system(g, system, alpha)
        assert chk.all_asserted()
        assert len(system.paths) < 2 / alpha

    def test_alpha_range_validated(self):
        with pytest.raises(FormatError) as exc:
            low_degree_path_system(cycle(5), Fraction(3, 4))
        assert exc.value.position == "alpha"
        with pytest.raises(FormatError) as exc:
            low_degree_path_system(FiniteGraph.build(2, [(0, 1)]), Fraction(1, 4))
        assert exc.value.position == "n"

    def test_validator_rejects_overlapping_paths(self):
        g = cycle(6)
        bad = PathSystem(((0, 1, 2), (2, 3, 4)))
        with pytest.raises(AssertionError):
            bad.validate(g)

    @pytest.mark.parametrize("pair", [(0, 2), (0, 8), (-1, 11)])
    def test_validator_rejects_non_edges(self, pair):
        """(0, 8) and (-1, 11) have the keys u*6 + v of the edges (1, 2) and
        (0, 5); a pair off the vertex range must still be no edge."""
        with pytest.raises(AssertionError, match="is not a host edge"):
            PathSystem((pair,)).validate(cycle(6))


def test_path_system_reads_the_csr():
    from graphonham import get_preset, sample_graph

    g = sample_graph(get_preset("power-half"), 500, 1010, 0).to_finite_graph()
    system = low_degree_path_system(g, Fraction(1, 20))
    assert check_path_system(g, system, Fraction(1, 20)).all_asserted()
    assert "_adjacency" not in vars(g)
