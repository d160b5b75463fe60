import itertools

import pytest

from graphonham import (
    FiniteGraph,
    cheap_obstructions,
    classify,
    exact_hamilton,
    posa_heuristic,
    validate_cycle,
)
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
    """The narrow-trap route reads the edge and CSR arrays only: the
    adjacency lists of budgeted backtracking are not built."""
    from graphonham import ExperimentConfig, fvcn_value, get_preset, is_connected, run_trial, sample_graph
    from graphonham.sampler import SampledGraph

    g = sample_graph(get_preset("narrow-three-block"), 200, 4, 0).to_finite_graph()
    assert len(g.edge_array) >= 4000  # a graph of trap-campaign size
    assert is_connected(g) and min(g.degrees()) >= 2
    assert classify(g).obstruction == "narrow_graph_peninsula"
    assert fvcn_value(g) < g.n / 2
    assert "_adjacency" not in vars(g)

    built = []
    to_finite_graph = SampledGraph.to_finite_graph

    def keep_graph(sampled):
        built.append(to_finite_graph(sampled))
        return built[-1]

    monkeypatch.setattr(SampledGraph, "to_finite_graph", keep_graph)
    config = ExperimentConfig.from_dict({
        "graphon": "narrow-three-block", "n_values": [200], "trials": 1, "seed": 4,
        "properties": ["connected", "hamiltonian"],
    })
    rec = run_trial(config, 200, 0)
    assert rec.error is None and rec.outcomes["ham_obstruction"] == "narrow_graph_peninsula"
    assert len(built) == 1
    assert "_adjacency" not in vars(built[0])


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
