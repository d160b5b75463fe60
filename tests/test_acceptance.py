"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Every tolerance is pinned here; the random inputs are seeded, so the
whole suite is reproducible bit for bit.
"""

import math
import random
import time
from fractions import Fraction

import pytest

from graphonham import (
    BipartiteOrDisconnected,
    ExperimentConfig,
    FiniteGraph,
    GreedyStuck,
    StepGraphon,
    check_path_system,
    cheap_obstructions,
    classify,
    cut_norm_exact,
    cut_norm_heuristic,
    exact_hamilton,
    find_peninsula,
    fmn_half,
    fvcn_half,
    fvcn_value,
    get_preset,
    graph_peninsula,
    low_degree_path_system,
    odd_walk,
    posa_heuristic,
    run_experiment,
    sample_graph,
    uniquely_half_covered,
    validate_cycle,
)
from conftest import random_graph, random_step_graphon
from oracles import (
    cut_norm_subset_oracle,
    exact_binomial_upper_tail,
    graph_peninsula_oracle,
    is_bipartite_reference,
    max_half_matching_weight,
    min_half_cover_weight,
    min_odd_walk_length,
    peninsula_kind_via_cover,
    step_peninsula_oracle_labels,
    step_peninsula_oracle_sets,
    uniquely_half_covered_oracle,
)
from test_cutnorm import random_step_function

HALF = Fraction(1, 2)


def report(criterion: str, ok: bool, detail: str = "") -> None:
    print(f"\n[ACCEPTANCE] {criterion}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, f"{criterion}: {detail}"


# ---------------------------------------------------------------------------


def test_criterion_01_duality_suite():
    rng = random.Random(101)
    t0 = time.perf_counter()
    for _ in range(1000):
        n = rng.randrange(2, 41)
        p = rng.choice([0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9])
        g = random_graph(rng, n, p)
        assert fmn_half(g).weight == fvcn_half(g).weight
    checked = 0
    while checked < 300:
        n = rng.randrange(2, 11)
        g = random_graph(rng, n, rng.choice([0.15, 0.25, 0.35]))
        if len(g.edge_array) > 12:
            continue
        w = fvcn_half(g).weight
        assert w == fmn_half(g).weight
        assert w == min_half_cover_weight(g)
        assert w == max_half_matching_weight(g)
        checked += 1
    elapsed = time.perf_counter() - t0
    report(
        "1 duality",
        elapsed < 120,
        f"1000 exact dual pairs + 300 enumeration matches in {elapsed:.1f}s",
    )


def test_criterion_02_graph_peninsula_correspondence():
    rng = random.Random(202)
    t0 = time.perf_counter()
    narrow_seen = flat_seen = 0
    for _ in range(300):
        n = rng.randrange(1, 13)
        g = random_graph(rng, n, rng.choice([0.15, 0.3, 0.5, 0.7]))
        cert = graph_peninsula(g)
        has_oracle, narrow_oracle = graph_peninsula_oracle(g)
        narrow_lib = fvcn_value(g) < Fraction(g.n, 2)
        uhc, _ = uniquely_half_covered(g)
        assert narrow_lib == narrow_oracle == (cert is not None and cert.kind == "narrow")
        assert (not uhc) == has_oracle == (cert is not None)
        if cert is not None:
            cert.validate(g)
            narrow_seen += cert.kind == "narrow"
            flat_seen += cert.kind == "peninsula"
    elapsed = time.perf_counter() - t0
    report(
        "2 graph peninsula correspondence",
        elapsed < 300,
        f"300 graphs, {narrow_seen} narrow / {flat_seen} non-strict, {elapsed:.1f}s",
    )


def test_criterion_03_step_graphon_reduction():
    rng = random.Random(303)
    found = narrow_found = 0
    for _ in range(500):
        k = rng.randrange(1, 9)
        g = random_step_graphon(rng, k, zero_prob=rng.choice([0.35, 0.55, 0.75]))
        cert = find_peninsula(g)
        has1, narrow1 = step_peninsula_oracle_sets(g)
        has2, narrow2 = step_peninsula_oracle_labels(g)
        assert (has1, narrow1) == (has2, narrow2)
        assert (cert is not None) == has1
        # third route: half-integral covers of the weighted block graph
        kind = peninsula_kind_via_cover(g)
        assert kind == (None if cert is None else cert.kind)
        if cert is not None:
            cert.validate(g)
            assert (cert.kind == "narrow") == narrow1
            found += 1
            narrow_found += cert.kind == "narrow"
    report(
        "3 step-graphon peninsula reduction",
        True,
        f"500 graphons agree across three routes ({found} traps, {narrow_found} narrow)",
    )


def test_criterion_04_uhc_implies_nonbipartite_and_perfect_matching():
    rng = random.Random(404)
    seen = 0
    attempts = 0
    while seen < 500:
        attempts += 1
        assert attempts < 20000
        n = rng.randrange(3, 13)
        g = random_graph(rng, n, rng.choice([0.5, 0.65, 0.8]))
        verdict, _ = uniquely_half_covered(g)
        if not verdict:
            continue
        assert uniquely_half_covered_oracle(g)
        seen += 1
        assert not is_bipartite_reference(g)
        m = fmn_half(g)
        assert m.weight == Fraction(g.n, 2)
        m.validate(g)
    report("4 uniquely-half-covered consequences", True, f"500/500 graphs, {attempts} sampled")


# ---------------------------------------------------------------------------
# criterion 5: trichotomy presets (n in [100, 400], >= 300 trials each)

TRIALS = 300
_t5_start = None


def _elapsed5() -> float:
    return time.perf_counter() - _t5_start if _t5_start else 0.0


def test_criterion_05a_constant_hamiltonian():
    global _t5_start
    _t5_start = time.perf_counter()
    cfg = ExperimentConfig.from_dict(
        {
            "graphon": "constant-0.3",
            "n_values": [100],
            "trials": TRIALS,
            "seed": 5051,
            "properties": ["hamiltonian"],
        }
    )
    rep, _ = run_experiment(cfg)
    found = rep.per_n[100]["hamiltonian"]["found"] / TRIALS
    report("5a constant-0.3 hamiltonian", found >= 0.99, f"found frequency {found:.4f}")


def test_criterion_05b_balanced_bipartite_fvcn_band():
    n, t = 400, 4
    cfg = ExperimentConfig.from_dict(
        {
            "graphon": "balanced-bipartite",
            "n_values": [n],
            "trials": TRIALS,
            "seed": 5052,
            "t": t,
            "properties": ["fvcn_ge_half", "hamiltonian"],
        }
    )
    rep, records = run_experiment(cfg)
    # an errored trial would count in the frequency denominator as a miss
    assert rep.per_n[n]["errors"] == 0
    assert len(records) == TRIALS
    freq = rep.per_n[n]["fvcn_ge_half"]["frequency"]
    ham_found = rep.per_n[n]["hamiltonian"]["found"] / TRIALS
    report(
        "5b' balanced-bipartite hamiltonian cap",
        ham_found <= 0.55,
        f"hamiltonian-found frequency {ham_found:.4f}",
    )
    # Exact law of the statistic for this kernel: the sample is complete
    # bipartite K_{N, n-N} between the type classes, so fvcn = min(N, n - N)
    # with N ~ Bin(n, 1/2), and the event reads |2N - n| <= t.  Each trial's
    # types are replayed (bit-exact) to recount N and check the record.
    half = Fraction(n - t, 2)
    fvcn_wrong = ham_unsound = 0
    for r in records:
        block = sample_graph(cfg.graphon, n, cfg.seed, r.trial_index).type_block
        big_n = int((block == 0).sum())
        law = min(big_n, n - big_n)
        o = r.outcomes
        fvcn_wrong += o["fvcn"] != law or o["fvcn_ge_half"] != (law >= half)
        # K_{N, n-N} is Hamiltonian iff N = n - N
        status = o["ham_status"]
        ham_unsound += (status == "hamiltonian" and 2 * big_n != n) or (
            status == "not_hamiltonian" and 2 * big_n == n
        )
    report(
        "5b balanced-bipartite per-trial fvcn = min(N, n-N) and sound hamiltonian verdicts",
        fvcn_wrong == 0 and ham_unsound == 0,
        f"{fvcn_wrong} fvcn records and {ham_unsound} verdicts disagree over {TRIALS} trials",
    )
    # P[|2N - n| <= t] = P[c <= N <= n - c] with c = ceil((n - t) / 2); the
    # band is 3 standard deviations of a frequency over TRIALS trials at p0.
    c = -((t - n) // 2)
    p0 = float(exact_binomial_upper_tail(n, c) - exact_binomial_upper_tail(n, n - c + 1))
    band = 3 * math.sqrt(p0 * (1 - p0) / TRIALS)
    report(
        "5b balanced-bipartite fvcn >= (n-t)/2 frequency follows P[|2N - n| <= t], N ~ Bin(n, 1/2)",
        abs(freq - p0) <= band,
        f"frequency {freq:.4f}; exact binomial law of this event gives {p0:.4f} (band {band:.4f})",
    )


def test_criterion_05c_narrow_preset_certified():
    cfg = ExperimentConfig.from_dict(
        {
            "graphon": "narrow-three-block",
            "n_values": [400],
            "trials": TRIALS,
            "seed": 5053,
            "properties": ["hamiltonian"],
        }
    )
    rep, records = run_experiment(cfg)
    narrow = sum(
        1
        for r in records
        if r.outcomes.get("ham_status") == "not_hamiltonian"
        and r.outcomes.get("ham_obstruction") == "narrow_graph_peninsula"
    )
    freq = narrow / TRIALS
    report("5c narrow trap certified", freq >= 0.99, f"certified frequency {freq:.4f}")


def test_criterion_05d_disconnected_preset():
    cfg = ExperimentConfig.from_dict(
        {
            "graphon": "two-component",
            "n_values": [100],
            "trials": TRIALS,
            "seed": 5054,
            "properties": ["connected"],
        }
    )
    rep, _ = run_experiment(cfg)
    freq = rep.per_n[100]["connected"]["frequency"]
    report("5d two-component disconnected", freq <= 0.01, f"connected frequency {freq:.4f}")


def test_criterion_05e_isolated_block_preset():
    cfg = ExperimentConfig.from_dict(
        {
            "graphon": "isolated-block",
            "n_values": [200],
            "trials": TRIALS,
            "seed": 5055,
            "properties": ["min_degree_ge_2"],
        }
    )
    _, records = run_experiment(cfg)
    isolated = sum(1 for r in records if r.outcomes["min_degree"] == 0)
    freq = isolated / TRIALS
    ok = freq >= 0.99 and _elapsed5() < 1800
    report(
        "5e isolated-vertex frequency",
        ok,
        f"frequency {freq:.4f}; trichotomy presets took {_elapsed5():.0f}s total (< 1800s)",
    )


# ---------------------------------------------------------------------------


def test_criterion_06_type_count_fluctuation():
    u = get_preset("balanced-bipartite")
    cert = find_peninsula(u)
    cfg = ExperimentConfig(
        graphon=u,
        n_values=(1001,),
        trials=2000,
        seed=606,
        properties=("peninsula_counts",),
        t=0,
        certificate=cert,
    )
    rep, _ = run_experiment(cfg)
    summary = rep.per_n[1001]
    freq = summary["peninsula_counts"]["frequency"]
    # exact law: N_A > N_C  <=>  Bin(1001, 1/2) >= 501, an exact half
    oracle = float(exact_binomial_upper_tail(1001, 501))
    ok = summary["errors"] == 0 and abs(freq - oracle) <= 0.03
    report(
        "6 type-count fluctuation",
        ok,
        f"frequency {freq:.4f} vs exact {oracle:.4f} (band 0.03)",
    )


def test_criterion_07_degree_concentration():
    from graphonham import degree_concentration_report

    half = StepGraphon.constant("1/2")
    hits = 0
    for trial in range(100):
        g = sample_graph(half, 2000, seed=707, trial_index=trial)
        if degree_concentration_report(g) <= 0.05:
            hits += 1
    report("7 degree concentration", hits >= 95, f"{hits}/100 trials within 0.05")


def test_criterion_08_sampling_distance_and_cut_norm():
    from graphonham import sample_distance

    half = StepGraphon.constant("1/2")
    good = 0
    for trial in range(20):
        g = sample_graph(half, 1000, seed=808, trial_index=trial)
        est = sample_distance(g, half)
        if est.upper <= Fraction(1, 20):
            good += 1
    rng = random.Random(808)
    ratio_ok = 0
    for trial in range(200):
        f = random_step_function(rng, rng.randrange(1, 13))
        exact = cut_norm_exact(f).value
        h = cut_norm_heuristic(f, restarts=50, seed=trial)
        assert h.value <= exact
        if exact == 0 or h.value >= Fraction(99, 100) * exact:
            ratio_ok += 1
    ok = good >= 19 and ratio_ok == 200
    report(
        "8 sampling distance + cut norm",
        ok,
        f"upper<=0.05 in {good}/20 trials; heuristic>=0.99*exact on {ratio_ok}/200",
    )


def test_criterion_09_posa_vs_exact():
    rng = random.Random(909)
    posa_hits = 0
    for i in range(300):
        n = rng.randrange(4, 21)
        p = rng.choice([0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9])
        g = random_graph(rng, n, p)
        cycle = posa_heuristic(g, seed=i)
        if cycle is None:
            continue
        posa_hits += 1
        assert validate_cycle(g, cycle)
        assert exact_hamilton(g).status == "hamiltonian"
        assert cheap_obstructions(g) is None
    petersen = FiniteGraph.build(
        10,
        [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0),
         (0, 5), (1, 6), (2, 7), (3, 8), (4, 9),
         (5, 7), (7, 9), (9, 6), (6, 8), (8, 5)],
    )
    t0 = time.perf_counter()
    verdict = exact_hamilton(petersen)
    petersen_s = time.perf_counter() - t0
    ok = verdict.status == "not_hamiltonian" and petersen_s < 1.0
    report(
        "9 rotation heuristic vs exact",
        ok,
        f"{posa_hits}/300 heuristic successes all confirmed; petersen {petersen_s:.3f}s",
    )


def test_criterion_10_path_system_and_odd_walks():
    pw = get_preset("power-half")
    alpha = Fraction(1, 20)
    passed = 0
    for trial in range(100):
        g = sample_graph(pw, 500, seed=1010, trial_index=trial).to_finite_graph()
        try:
            system = low_degree_path_system(g, alpha)
        except GreedyStuck:
            continue
        chk = check_path_system(g, system, alpha)
        if chk.all_asserted():
            passed += 1
    rng = random.Random(1010)
    walks = 0
    while walks < 200:
        r = rng.randrange(3, 13)
        g = random_graph(rng, r, rng.choice([0.3, 0.45, 0.6]))
        i, j = rng.randrange(r), rng.randrange(r)
        try:
            walk = odd_walk(g, i, j)
        except BipartiteOrDisconnected:
            continue
        length = len(walk) - 1
        assert length % 2 == 1 and length <= 2 * r - 1
        assert min_odd_walk_length(g, i, j) <= length
        walks += 1
    report(
        "10 path system + odd walks",
        passed >= 95,
        f"path-system validator {passed}/100; 200 odd walks within parity/length bounds",
    )
