import itertools
import random
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from graphonham import (
    FiniteGraph,
    HamiltonVerdict,
    cheap_obstructions,
    classify,
    exact_hamilton,
    posa_heuristic,
    validate_cycle,
)
from graphonham.hamilton import _block_cycle, _exact_dp, _tight_trap
from conftest import random_graph
from oracles import edge_tuples

PETERSEN = FiniteGraph.build(
    10,
    [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0),
     (0, 5), (1, 6), (2, 7), (3, 8), (4, 9),
     (5, 7), (7, 9), (9, 6), (6, 8), (8, 5)],
)


def cycle(n):
    return FiniteGraph.build(n, [(i, (i + 1) % n) for i in range(n)])


def complete(n):
    return FiniteGraph.build(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def brute_hamiltonian(g) -> bool:
    if g.n < 3:
        return False
    eset = set(edge_tuples(g))
    for perm in itertools.permutations(range(1, g.n)):
        cyc = (0,) + perm
        if all(
            ((a, b) if a < b else (b, a)) in eset
            for a, b in zip(cyc, cyc[1:] + (cyc[0],))
        ):
            return True
    return False


def test_validate_cycle_rejects_short_and_repeating_cycles():
    g = complete(4)
    assert validate_cycle(g, [0, 1, 2, 3])
    assert not validate_cycle(g, [0, 1, 2])
    # every consecutive pair is an edge, but 2 and 3 are never visited
    assert not validate_cycle(g, [0, 1, 0, 1])


class TestExact:
    def test_c6(self):
        v = exact_hamilton(cycle(6))
        assert v.status == "hamiltonian"
        assert validate_cycle(cycle(6), v.witness)

    def test_petersen(self):
        v = exact_hamilton(PETERSEN)
        assert v.status == "not_hamiltonian"
        assert v.obstruction == "exact_search_exhausted"

    def test_k33(self):
        g = FiniteGraph.build(6, [(i, 3 + j) for i in range(3) for j in range(3)])
        assert exact_hamilton(g).status == "hamiltonian"

    def test_matches_permutation_oracle(self, rng):
        for _ in range(120):
            g = random_graph(rng, rng.randrange(3, 9), rng.choice([0.2, 0.4, 0.6, 0.8]))
            v = exact_hamilton(g)
            assert (v.status == "hamiltonian") == brute_hamiltonian(g)
            if v.witness:
                assert validate_cycle(g, v.witness)

    def test_backtracking_route(self, rng):
        # above the DP cap, generous budget: complete graph stays decidable
        g = complete(26)
        v = exact_hamilton(g, budget=10_000)
        assert v.status == "hamiltonian" and validate_cycle(g, v.witness)


class TestCheapObstructions:
    def test_disconnected(self):
        g = FiniteGraph.build(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
        assert cheap_obstructions(g) == "disconnected"

    def test_min_degree(self):
        assert cheap_obstructions(FiniteGraph.build(4, [(0, 1), (1, 2), (2, 3)])) == "min_degree_below_2"

    def test_narrow_trap(self):
        k34 = FiniteGraph.build(7, [(i, 3 + j) for i in range(3) for j in range(4)])
        assert cheap_obstructions(k34) == "narrow_graph_peninsula"

    def test_none_on_cycle(self):
        assert cheap_obstructions(cycle(5)) is None


class TestPosa:
    def test_complete_graph(self):
        c = posa_heuristic(complete(10), seed=3)
        assert c is not None and validate_cycle(complete(10), c)

    def test_disconnected_returns_none(self):
        g = FiniteGraph.build(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
        assert posa_heuristic(g, seed=3) is None

    def test_success_rate_on_gnp(self):
        from graphonham import StepGraphon, sample_graph

        found = 0
        for trial in range(40):
            s = sample_graph(StepGraphon.constant("1/2"), 100, seed=91, trial_index=trial)
            if posa_heuristic(s.to_finite_graph(), seed=trial) is not None:
                found += 1
        assert found >= 39

    def test_absorbs_nonspanning_cycle(self):
        # triangle with a pendant path forcing cycle-reopen before failure;
        # the graph is not hamiltonian so posa must simply terminate
        g = FiniteGraph.build(5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4)])
        assert posa_heuristic(g, seed=1, restarts=5) is None

    def test_negative_seed_rejected(self):
        # random.Random(-7) replays random.Random(7), so -7 would alias 7
        from graphonham import FormatError

        for g in (complete(10), complete(2)):
            with pytest.raises(FormatError) as exc:
                posa_heuristic(g, seed=-7)
            assert exc.value.position == "seed"
        triangles = FiniteGraph.build(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
        k34 = FiniteGraph.build(7, [(i, 3 + j) for i in range(3) for j in range(4)])
        # classify checks the seed whichever route decides: too small,
        # disconnected, a narrow trap, the heuristic, the exact search
        for g in (complete(2), triangles, k34, complete(10), PETERSEN):
            assert classify(g).status in ("hamiltonian", "not_hamiltonian")
            with pytest.raises(FormatError) as exc:
                classify(g, seed=-1)
            assert exc.value.position == "seed"


def test_heuristic_succeeds_where_reference_did():
    """Reading the CSR changes the order candidates are drawn in, not what the
    search can find: on sampled Hamiltonian-regime graphs that pass the cheap
    checks, every cycle found validates and no fewer graphs are solved than
    by the set-based reference."""
    from graphonham import get_preset, sample_graph
    from oracles import posa_heuristic_reference

    graphs = [
        (sample_graph(get_preset(preset), n, 1111, trial).to_finite_graph(), trial)
        for preset in ("constant-0.3", "power-half", "bipartite-plus-clique")
        for n in (60, 200)
        for trial in range(50)
    ]
    graphs = [(g, seed) for g, seed in graphs if cheap_obstructions(g) is None]
    assert len(graphs) >= 200
    found = reference = 0
    for g, seed in graphs:
        c = posa_heuristic(g, seed=seed)
        if c is not None:
            assert validate_cycle(g, c)
            found += 1
        reference += posa_heuristic_reference(g, seed=seed) is not None
    assert found >= reference


class TestClassify:
    def test_cycle_hamiltonian(self):
        assert classify(cycle(7)).status == "hamiltonian"

    def test_star_not(self):
        v = classify(FiniteGraph.build(6, [(0, i) for i in range(1, 6)]))
        assert v.status == "not_hamiltonian" and v.obstruction == "min_degree_below_2"

    def test_budget_exhaustion_yields_unknown(self):
        # two cliques glued at a cut vertex: no cheap obstruction fires, the
        # rotation heuristic cannot succeed, and the budget is tiny
        edges = [(i, j) for i in range(15) for j in range(i + 1, 15)]
        others = [0] + list(range(15, 30))
        edges += [
            (min(a, b), max(a, b))
            for ai, a in enumerate(others)
            for b in others[ai + 1:]
        ]
        g = FiniteGraph.build(30, edges)
        v = classify(g, budget=2_000, posa_restarts=3)
        assert v.status == "unknown"

    def test_posa_subset_of_exact(self, rng):
        for _ in range(60):
            g = random_graph(rng, rng.randrange(4, 15), rng.choice([0.2, 0.4, 0.6, 0.8]))
            c = posa_heuristic(g, seed=5)
            if c is not None:
                assert validate_cycle(g, c)
                v = exact_hamilton(g)
                assert v.status == "hamiltonian"
                assert cheap_obstructions(g) is None


def test_trap_route_never_builds_edge_tuples(monkeypatch):
    """A 0/1 kernel's sample is decided off its blocks alone on the narrow
    trap, block cycle and fvcn routes: neither its edge array, nor the
    sample's edges, nor adjacency lists, nor the CSR, nor the double-cover
    matching is built."""
    from graphonham import ExperimentConfig, fracmatch, fvcn_value, get_preset, is_connected, run_trial, sample_graph
    from graphonham.sampler import SampledGraph

    counted = []
    type_blocks = fracmatch._type_blocks
    monkeypatch.setattr(fracmatch, "_type_blocks", lambda g: counted.append(g) or type_blocks(g))
    unbuilt = {"edge_array", "_adjacency", "indptr", "indices", "_matching"}

    s = sample_graph(get_preset("narrow-three-block"), 200, 4, 0)
    g = s.to_finite_graph()
    assert sum(g.degrees()) >= 2 * 4000  # a graph of trap-campaign size
    assert is_connected(g) and min(g.degrees()) >= 2
    assert classify(g).obstruction == "narrow_graph_peninsula"
    assert fvcn_value(g) < g.n / 2
    assert not unbuilt & set(vars(g)) and "edge_array" not in vars(s.to_finite_graph())

    built = []
    to_finite_graph = SampledGraph.to_finite_graph

    def keep_graph(sampled):
        built.append((sampled, to_finite_graph(sampled)))
        return built[-1][1]

    monkeypatch.setattr(SampledGraph, "to_finite_graph", keep_graph)
    routes = [
        ("narrow-three-block", 4, ["connected", "hamiltonian"], ("ham_obstruction", "narrow_graph_peninsula")),
        ("bipartite-plus-clique", 0, ["connected", "hamiltonian"], ("ham_status", "hamiltonian")),
        ("narrow-three-block", 4, ["fvcn_ge_half"], ("fvcn_ge_half", False)),
    ]
    for preset, seed, properties, (key, value) in routes:
        config = ExperimentConfig.from_dict({
            "graphon": preset, "n_values": [200], "trials": 1, "seed": seed, "properties": properties,
        })
        rec = run_trial(config, 200, 0)
        assert rec.error is None and rec.outcomes[key] == value, preset
    assert len(built) == len(routes)
    for sampled, graph in built:
        assert graph is to_finite_graph(sampled)
        assert not unbuilt & set(vars(graph)) and "edge_array" not in vars(to_finite_graph(sampled))
    assert [id(x) for x in counted] == [id(g)] + [id(graph) for _, graph in built]


def test_zero_budget_is_unknown_before_any_search():
    """A budget below 1 stops backtracking at its first node, so the verdict
    is `unknown` before the CSR is built or the interpreter's recursion
    limit is raised (to 2n + 200 = 252 at n = 26)."""
    import random
    import sys

    g = random_graph(random.Random(26), 26, 0.3)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(250)
    try:
        assert exact_hamilton(g, budget=0).status == "unknown"
        assert sys.getrecursionlimit() == 250
    finally:
        sys.setrecursionlimit(limit)
    assert "indptr" not in vars(g)


def test_backtracking_restores_the_recursion_limit():
    """Backtracking recurses once per path vertex, so it raises the
    interpreter's recursion limit for its own search only: the caller's limit
    is back after a search that ran out of budget, and after one that went
    deeper than that limit allows."""
    import sys

    g = cycle(600)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(250)
    try:
        assert exact_hamilton(g, budget=5).status == "unknown"
        assert sys.getrecursionlimit() == 250
        assert exact_hamilton(g, budget=601).witness == tuple(range(600))
        assert sys.getrecursionlimit() == 250
    finally:
        sys.setrecursionlimit(limit)


def test_heuristic_route_reads_the_csr():
    """A Hamiltonian verdict from the rotation heuristic carries a witness of
    plain ints (what `to_dict` and the CLI serialise) and builds no
    adjacency lists."""
    from graphonham import get_preset, sample_graph

    g = sample_graph(get_preset("constant-0.3"), 200, 7, 0).to_finite_graph()
    v = classify(g)
    assert v.status == "hamiltonian" and validate_cycle(g, v.witness)
    assert all(type(x) is int for x in v.witness)
    assert "_adjacency" not in vars(g)


@pytest.mark.parametrize("preset, wrong", [("constant-0.3", 1), ("narrow-three-block", 0)])
def test_a_sample_hands_its_graph_no_fact_that_changes_a_verdict(preset, wrong):
    """A sample's graph is handed its blocks and either its edges or, on a
    0/1 kernel, the kernel's 0/1 table, the graph's own definition, and
    nothing else, so a corrupt degree vector kept on the sample cannot
    reach a verdict: the graph answers as the same edges read with no hint
    do."""
    from dataclasses import fields

    import numpy as np

    from graphonham import get_preset, sample_graph

    s = sample_graph(get_preset(preset), 200, 0)
    object.__setattr__(s, "_degrees", np.full(s.n, wrong, dtype=np.int64))
    g = s.to_finite_graph()
    assert [f.name for f in fields(FiniteGraph)] == ["n", "_edges", "_types", "_ones", "_rows"]
    assert (g._ones is None) == (g._rows is not None) == (preset == "constant-0.3") and g._edges is None
    assert classify(g) == classify(FiniteGraph.build(s.n, s.edges))


# ---------------------------------------------------------------------------
# complete blow-ups, decided from their block graphs

BIPARTITE = ((0, 1), (1, 0))
BIPARTITE_PLUS_CLIQUE = ((0, 1), (1, 1))
NARROW_THREE_BLOCK = ((0, 0, 1), (0, 1, 1), (1, 1, 1))
# K_{k,k} on blocks A and R, and a clique Q joined to R
BIPARTITE_AND_CLIQUE_ON_R = ((0, 1, 0), (1, 0, 1), (0, 1, 1))


def blowup(count, occupied) -> FiniteGraph:
    """The complete blow-up of a block graph, handed its blocks as a sample's
    graph is: count[a] vertices in block a, numbered block by block, and an
    edge between any two distinct vertices whose blocks are occupied."""
    types = np.repeat(np.arange(len(count)), count)
    n = len(types)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if occupied[types[u]][types[v]]]
    return replace(FiniteGraph.build(n, edges), _types=types)


def assert_block_cycle(g):
    """g is decided Hamiltonian from its blocks: the cycle validates on the
    same edges with no blocks, and g built no CSR and solved no matching."""
    v = classify(g)
    assert v.status == "hamiltonian"
    assert validate_cycle(FiniteGraph.build(g.n, g.edge_array), v.witness)
    assert all(type(x) is int for x in v.witness)
    assert not {"indptr", "indices", "_matching"} & set(vars(g))


@pytest.mark.parametrize("k", [2, 3, 7, 40])
def test_complete_bipartite_blowups(k):
    assert_block_cycle(blowup([k, k], BIPARTITE))
    g = blowup([k, k + 1], BIPARTITE)
    assert _block_cycle(g) is None
    assert classify(g).obstruction == "narrow_graph_peninsula"


@pytest.mark.parametrize("k", [2, 5, 30])
def test_bipartite_plus_clique_blowups(k):
    assert_block_cycle(blowup([k, k], BIPARTITE_PLUS_CLIQUE))
    assert _block_cycle(blowup([k + 1, k], BIPARTITE_PLUS_CLIQUE)) is None


@pytest.mark.parametrize("a, b", [(2, 2), (5, 3), (30, 20)])
def test_narrow_three_block_blowups(a, b):
    """|A| = |C| - 1 gives a cycle.  |A| = |C| with B nonempty has
    fvcn = n/2 and no cycle, the first flow routing B to itself: the trap
    is tight, with A, B and C its A, B and R."""
    assert_block_cycle(blowup([a, b, a + 1], NARROW_THREE_BLOCK))
    g = blowup([a, b, a], NARROW_THREE_BLOCK)
    assert cheap_obstructions(g) is None and _block_cycle(g) is None
    assert _tight_trap(g).units.tolist() == [0] * a + [1] * b + [2] * a


def test_forced_unit_takes_the_pair_with_most_capacity_left():
    """Two 2-cliques joined through two lone vertices: the first flow keeps
    one clique to itself, and a unit forced onto the pair with the least
    capacity left would leave no flow that closes."""
    two_cliques_and_two_bridges = ((1, 0, 1, 1), (0, 1, 1, 1), (1, 1, 0, 0), (1, 1, 0, 0))
    assert_block_cycle(blowup([2, 2, 1, 1], two_cliques_and_two_bridges))


def test_bipartite_and_a_clique_on_one_side_is_tight():
    """K_{k,k} is Hamiltonian and its half cover of weight n/2 has no B, so
    it is no tight trap; a clique joined to its R side makes one."""
    for k in (2, 3, 20):
        assert _tight_trap(blowup([k, k], BIPARTITE)) is None
        g = blowup([k, k, 3], BIPARTITE_AND_CLIQUE_ON_R)
        assert cheap_obstructions(g) is None and _block_cycle(g) is None
        assert _tight_trap(g).units.tolist() == [0] * k + [2] * k + [1] * 3


def test_tight_trap_above_the_dp_cap_is_unknown_at_once():
    """With no budget above `DP_VERTEX_CAP` a tight trap answers `unknown`
    before the heuristic, with no CSR, as today's order answers after it,
    and on a graph defined as a blow-up, as a 0/1 kernel's sample is, with
    no edge array; with a budget, or at the DP's sizes, the order after it
    decides."""
    g = blowup([10, 6, 10], NARROW_THREE_BLOCK)
    assert classify(g, budget=0) == HamiltonVerdict("unknown")
    assert "indptr" not in vars(g)
    defined = FiniteGraph(26, None, g._types, np.array(NARROW_THREE_BLOCK, dtype=bool))
    assert classify(defined, budget=0) == HamiltonVerdict("unknown")
    assert "indptr" not in vars(defined) and "edge_array" not in vars(defined)
    g = blowup([10, 6, 10], NARROW_THREE_BLOCK)
    assert classify(g, budget=5000, posa_restarts=1).status == "unknown"
    assert "indptr" in vars(g)  # the heuristic and backtracking ran
    small = blowup([8, 6, 8], NARROW_THREE_BLOCK)
    assert classify(small, budget=0).obstruction == "exact_search_exhausted"


def test_block_route_agrees_with_the_exact_dp():
    """On seeded complete blow-ups with k <= 4 blocks and 3 <= n <= 12 that
    pass the cheap obstructions, a lifted cycle is a cycle of the graph, a
    tight trap is a graph with none, and `classify` answers as the DP."""
    rng = random.Random(11)
    found = Counter()
    for _ in range(400):
        k = rng.randint(1, 4)
        count = [rng.randint(0, 4) for _ in range(k)]
        if not 3 <= sum(count) <= 12:
            continue
        occupied = [[False] * k for _ in range(k)]
        for a in range(k):
            for b in range(a, k):
                on = count[a] and count[b] and (a != b or count[a] > 1) and rng.random() < 0.6
                occupied[a][b] = occupied[b][a] = bool(on)
        g = blowup(count, occupied)
        ref = FiniteGraph.build(g.n, g.edge_array)
        want = _exact_dp(ref).status
        assert classify(g).status == want
        if cheap_obstructions(g) is not None:
            continue
        cycle, tight = _block_cycle(g), _tight_trap(g)
        if cycle is not None:
            assert want == "hamiltonian" and validate_cycle(ref, cycle)
        if tight is not None:
            assert want == "not_hamiltonian"
        found[want, cycle is not None, tight is not None] += 1
    assert found["hamiltonian", True, False] >= 100 and found["not_hamiltonian", False, True] >= 5


def test_a_lift_off_by_one_raises(monkeypatch):
    """The lifted cycle is validated like every cycle the package finds: an
    off-by-one in the visit rank (the i-th visit of a block given its
    (i+1)-th vertex) repeats a vertex and raises `InvariantViolation`."""
    from graphonham import InvariantViolation, hamilton

    def off_by_one(types, walk):
        cycle = np.empty(len(types), dtype=np.int64)
        rank = np.minimum(np.arange(len(types)) + 1, len(types) - 1)
        cycle[np.argsort(walk, kind="stable")] = np.argsort(types, kind="stable")[rank]
        return cycle

    g = blowup([4, 2, 5], NARROW_THREE_BLOCK)
    assert_block_cycle(g)
    monkeypatch.setattr(hamilton, "_lift", off_by_one)
    with pytest.raises(InvariantViolation):
        classify(blowup([4, 2, 5], NARROW_THREE_BLOCK))


def test_a_tight_trap_that_fails_its_check_raises(monkeypatch):
    """A tight trap is checked as it is built, like every trap: a closure
    that keeps only block v's left copy puts all of C's neighbours of A into
    B, which the cover check rejects as a bug."""
    from graphonham import InvariantViolation, graphon

    g = blowup([10, 6, 10], NARROW_THREE_BLOCK)
    assert g._block_flow[0] == g.n  # the flow, run before the closure scan is broken
    monkeypatch.setattr(graphon, "_reach", lambda r, v: {v: v})
    with pytest.raises(InvariantViolation):
        _tight_trap(g)


class TestInvariants:
    """Soundness checks are raises, not asserts, so `python -O` keeps them."""

    def test_invalid_cycle_raises_invariant_violation(self, monkeypatch):
        from graphonham import InvariantViolation, hamilton

        monkeypatch.setattr(hamilton, "validate_cycle", lambda g, cycle: False)
        with pytest.raises(InvariantViolation):
            posa_heuristic(complete(10), seed=3)
        with pytest.raises(InvariantViolation):
            exact_hamilton(cycle(6))
        with pytest.raises(InvariantViolation):
            exact_hamilton(complete(26), budget=10_000)

    def test_verdicts_unchanged_under_optimize_flag(self, tmp_path):
        import json
        import os
        import subprocess
        import sys
        from pathlib import Path

        from graphonham import ExperimentConfig, get_preset, run_experiment, sample_graph
        from conftest import campaign_digest

        script = (
            "import json, sys\n"
            "from graphonham import ExperimentConfig, FiniteGraph, classify, get_preset, "
            "run_experiment, sample_graph\n"
            "edges, trap, campaigns = json.loads(sys.stdin.read())\n"
            "graphs = [FiniteGraph.build(10, edges), "
            "sample_graph(get_preset('narrow-three-block'), *trap).to_finite_graph()]\n"
            "for config, out_dir in campaigns:\n"
            "    run_experiment(ExperimentConfig.from_dict(config), out_dir=out_dir)\n"
            "print(json.dumps([__debug__] + [classify(g, budget=1000).to_dict() for g in graphs]))\n"
        )
        trap = [200, 4, 0]
        campaigns = [
            ({"graphon": preset, "n_values": [60], "trials": 4, "seed": 2024,
              "properties": ["connected", "min_degree_ge_2", "hamiltonian", "fvcn_ge_half"],
              "budget": 5000}, str(tmp_path / "optimized" / preset))
            for preset in ("narrow-three-block", "power-one")
        ]
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        out = subprocess.run(
            [sys.executable, "-O", "-c", script], input=json.dumps([edge_tuples(PETERSEN), trap, campaigns]),
            capture_output=True, text=True, env=env, timeout=300, check=True,
        ).stdout

        trap_graph = sample_graph(get_preset("narrow-three-block"), *trap).to_finite_graph()
        expected = [classify(g, budget=1000).to_dict() for g in (PETERSEN, trap_graph)]
        assert expected[0]["obstruction"] == "exact_search_exhausted"
        assert expected[1]["obstruction"] == "narrow_graph_peninsula"
        assert json.loads(out) == [False] + expected
        for config, optimized_dir in campaigns:
            normal_dir = str(tmp_path / "normal" / config["graphon"])
            _, records = run_experiment(ExperimentConfig.from_dict(config), out_dir=normal_dir)
            assert all(r.error is None for r in records)
            assert campaign_digest(optimized_dir) == campaign_digest(normal_dir)
