"""Golden hashes of small campaigns, sampled graphs and certificates.

The hashes pin the bytes a campaign writes (with the runtime columns of
`trials.csv` dropped), the edge-list text of a few sampled graphs, and the
contents of the half-integral certificates on a fixed set of small graphs,
so a change to the graph core, the matching or the certificate checks that
moves any verdict, fvcn value, edge or certificate shows up here.  The
campaign and graph hashes were taken before the graph core became
array-backed, the certificate hash while graphs under 4000 edges still went
through a second matching engine, and the search hash (the exact DP's
witness cycles and the low-degree path systems) while both still read
Python adjacency lists; none may be regenerated to make a change pass: a
mismatch means behaviour changed.
"""

import hashlib
import random
from fractions import Fraction

import pytest

from graphonham import (
    ExperimentConfig,
    GreedyStuck,
    PRESET_NAMES,
    analyze,
    exact_hamilton,
    StepGraphon,
    find_peninsula,
    fmn_half,
    fvcn_half,
    get_preset,
    graph_peninsula,
    low_degree_path_system,
    run_experiment,
    sample_graph,
    uniquely_half_covered,
)
from conftest import campaign_digest, random_graph
from oracles import edge_tuples

CAMPAIGN_HASHES = {
    "constant-0.3": "fb16309959ff14f388abb6367bde48e7fe1d9f4043a4bd64da1769f0963459f1",
    "balanced-bipartite": "bb617328b737ff20626640176ebc7e42f72174364b5fcbdf4e9971ae0f10e0d9",
    "bipartite-plus-clique": "4a844d7999154bb45d14e8ef10ad6767fbd383c1f93da43f47eed1950573d1c3",
    "narrow-three-block": "f3e938b4a2c8c063d2ba6627ab4efb65ee5458b4dc59c29856a083477d87e61f",
    "two-component": "5dcc32f99ef83e0504e8849d9dce80af321a5ec9892fda27a213776b1865a637",
    "isolated-block": "cddecd8c559f929f85c13111ea49d4590075d35897a82717cde78789e0b12244",
    "power-half": "d23f1ce195ce04cd04df069035ac53c8d2bb74243401c38db0d91177f35b36fb",
    "power-one": "53d42cffca8d07f7fdb1ad08bbd371e68c43b9c40ec672728f6be952f08c3fb8",
    "power-two": "62f159dc2b53f9c22215f271915d20a26c68ddd82c6eaa15551e98be9f91a513",
}

GRAPH_HASHES = {
    ("constant-0.3", 50, 11):
        "4c2d7b7eb0041356b8871cc31163816d1bfbf2703a0783ae47a3f15e693717bf",
    ("narrow-three-block", 80, 12):
        "1307be62b3ca879807b8b1a3a8e27745cc4d14761dd31b2f92832022f5ceebbc",
    ("power-one", 60, 13):
        "66f941741fd4ee2aa2e76a73d46765e800d69c2e457491ce39d1dbe058ec1080",
}

# Graphs above one block of 2**20 edge coins (n=4000, seed 0, trial 0): the
# sha256 of the int32 edge array's bytes then the int64 degrees' bytes.
# Taken while the coins were still drawn as doubles from a Generator.
MULTI_BLOCK_HASHES = {
    "constant-0.3": "33ca5bd4d8d4a82107e512a30ee112138e9ba6a0f896ebdf3fbcc47469f08141",
    "fractional-two-block": "20198d0e38e84e54c7744147d65567c9d40df2b6f2e8bf15ed0cb950ad0a663b",
}
MULTI_BLOCK_KERNELS = {
    "constant-0.3": get_preset("constant-0.3"),
    "fractional-two-block": StepGraphon.build(["1/3", "2/3"], [["3/10", "7/10"], ["7/10", "1/5"]]),
}

CERTIFICATE_HASH = "a66dc48359fa07ff96cd9a50efd7fa664d560cf83a1e858de89d58ee948719e0"

SEARCH_HASH = "d3dfd5775f8053d7424c6aaabef6bb4e25998629f02c3b05ef85f8b5ff773e9a"

# Campaigns that fill the columns the preset campaigns leave empty: every
# property, with the analyzer's certificate for the type counts, and a
# campaign in which every trial errors (the power family carries no block
# types, which cut_distance needs).  Taken before the CSV columns were
# written from a single table.
ALL_COLUMNS_HASH = "8c17c959568e524bc53220b7992c13ecb0502e4263ee43d2f92a0e0a8cfaa5e1"
ALL_ERRORS_HASH = "bbbca2785f2820368ffe378c1a4d71c351e6d23c2a1691f306ad6faaf9ab6697"

# The type counts of criterion 6's config (balanced-bipartite, n = 1001,
# 2,000 trials, seed 606) and its event count, then the bytes of two
# peninsula_counts-only campaigns.  Taken while the counts came from a
# separate type-stage driver and such campaigns still drew every edge coin.
PENINSULA_COUNTS_HASH = "22745176d8c19b6b61e8feeabf28510f49c98cb50066965ee10e4af39d8a83eb"


def test_every_preset_is_pinned():
    assert set(CAMPAIGN_HASHES) == set(PRESET_NAMES)


@pytest.mark.parametrize("preset", sorted(CAMPAIGN_HASHES))
def test_campaign_bytes_unchanged(preset, tmp_path):
    config = ExperimentConfig.from_dict({
        "graphon": preset,
        "n_values": [20, 60],
        "trials": 6,
        "seed": 2024,
        "properties": ["connected", "min_degree_ge_2", "hamiltonian", "fvcn_ge_half"],
        "budget": 5000,
    })
    _, records = run_experiment(config, out_dir=str(tmp_path))
    assert all(r.error is None for r in records)
    assert campaign_digest(str(tmp_path)) == CAMPAIGN_HASHES[preset]


def test_every_column_bytes_unchanged(tmp_path):
    preset = "narrow-three-block"
    config = ExperimentConfig.from_dict({
        "graphon": preset,
        "n_values": [20, 60],
        "trials": 4,
        "seed": 2024,
        "properties": [
            "connected", "min_degree_ge_2", "hamiltonian", "fvcn_ge_half",
            "peninsula_counts", "degree_concentration", "cut_distance",
        ],
        "budget": 5000,
        "certificate": analyze(get_preset(preset)).peninsula.to_dict(),
    })
    _, records = run_experiment(config, out_dir=str(tmp_path))
    assert all(r.error is None for r in records)
    assert campaign_digest(str(tmp_path)) == ALL_COLUMNS_HASH


def test_errored_campaign_bytes_unchanged(tmp_path):
    config = ExperimentConfig.from_dict({
        "graphon": "power-half",
        "n_values": [20, 60],
        "trials": 4,
        "seed": 2024,
        "properties": ["cut_distance"],
    })
    _, records = run_experiment(config, out_dir=str(tmp_path))
    assert all(r.error is not None for r in records)
    assert campaign_digest(str(tmp_path)) == ALL_ERRORS_HASH


def test_peninsula_counts_unchanged(tmp_path):
    u = get_preset("balanced-bipartite")
    config = ExperimentConfig(
        graphon=u, n_values=(1001,), trials=2000, seed=606,
        properties=("peninsula_counts",), certificate=find_peninsula(u),
    )
    report, records = run_experiment(config)
    counts = [(r.outcomes["n_a"], r.outcomes["n_b"], r.outcomes["n_c"]) for r in records]
    h = hashlib.sha256(repr((counts, report.per_n[1001]["peninsula_counts"]["count"])).encode())
    for preset in ("balanced-bipartite", "narrow-three-block"):
        config = ExperimentConfig.from_dict({
            "graphon": preset,
            "n_values": [31, 400],
            "trials": 3,
            "seed": 2024,
            "properties": ["peninsula_counts"],
            "certificate": find_peninsula(get_preset(preset)).to_dict(),
        })
        _, records = run_experiment(config, out_dir=str(tmp_path / preset))
        assert all(r.error is None for r in records)
        h.update(campaign_digest(str(tmp_path / preset)).encode())
    assert h.hexdigest() == PENINSULA_COUNTS_HASH


@pytest.mark.parametrize("key", sorted(GRAPH_HASHES))
def test_edge_list_text_unchanged(key):
    preset, n, seed = key
    g = sample_graph(get_preset(preset), n, seed).to_finite_graph()
    digest = hashlib.sha256(g.to_edge_list_text().encode()).hexdigest()
    assert digest == GRAPH_HASHES[key]


@pytest.mark.parametrize("name", sorted(MULTI_BLOCK_HASHES))
def test_multi_block_graphs_unchanged(name):
    s = sample_graph(MULTI_BLOCK_KERNELS[name], 4000, 0, 0)
    assert s.edges.dtype == "<i4" and s.degrees().dtype == "<i8"
    digest = hashlib.sha256(s.edges.tobytes() + s.degrees().tobytes()).hexdigest()
    assert digest == MULTI_BLOCK_HASHES[name]


def _certificate_graphs():
    rng = random.Random(4711)
    for _ in range(150):
        yield random_graph(rng, rng.randrange(1, 40), rng.choice([0.05, 0.1, 0.2, 0.4, 0.7]))
    for preset in ("constant-0.3", "balanced-bipartite", "narrow-three-block", "power-one"):
        for trial in range(3):
            yield sample_graph(get_preset(preset), 60, 31, trial).to_finite_graph()


def test_certificates_unchanged():
    h = hashlib.sha256()
    for g in _certificate_graphs():
        _, witness = uniquely_half_covered(g)
        cert = graph_peninsula(g)
        h.update(repr((
            g.n,
            edge_tuples(g),
            [str(x) for x in fvcn_half(g).values],
            str(fmn_half(g).weight),
            None if witness is None else [str(x) for x in witness.values],
            None if cert is None else (cert.kind, cert.A, cert.B),
        )).encode() + b"\n")
    assert h.hexdigest() == CERTIFICATE_HASH


def _search_results():
    """Exact verdicts with their DP witness cycles, then low-degree path
    systems (or the vertex the greedy got stuck at), on seeded graphs."""
    rng = random.Random(1111)
    for _ in range(300):
        g = random_graph(rng, rng.randrange(1, 17), rng.choice([0.1, 0.2, 0.3, 0.5, 0.8]))
        yield exact_hamilton(g).to_dict()
    for _ in range(12):  # up to the DP cap, sparse enough to stay quick
        g = random_graph(rng, rng.randrange(19, 25), rng.choice([0.1, 0.15, 0.2]))
        yield exact_hamilton(g).to_dict()
    graphs = [
        (random_graph(rng, rng.randrange(3, 80), rng.choice([0.05, 0.1, 0.2, 0.4, 0.7])),
         Fraction(rng.randrange(1, 10), 20))
        for _ in range(300)
    ]
    graphs += [
        (sample_graph(get_preset("power-half"), 500, 1212, trial).to_finite_graph(), Fraction(1, 20))
        for trial in range(20)
    ]
    for g, alpha in graphs:
        try:
            yield low_degree_path_system(g, alpha).paths
        except GreedyStuck as exc:
            yield ("stuck", exc.vertex)


def test_search_results_unchanged():
    h = hashlib.sha256()
    for result in _search_results():
        h.update(repr(result).encode() + b"\n")
    assert h.hexdigest() == SEARCH_HASH
