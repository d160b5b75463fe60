import math
import random
import tracemalloc

import numpy as np
import pytest

from graphonham import (
    FiniteGraph,
    FormatError,
    PowerFamilyGraphon,
    StepGraphon,
    degree_concentration_report,
    edge_coin,
    edge_stream_offset,
    get_preset,
    sample_graph,
    sample_types,
)
from graphonham import sampler
from graphonham.presets import PRESET_NAMES
from graphonham.sampler import write_graph, load_graph
from oracles import edge_tuples, sample_graph_reference

HALF_HALF = StepGraphon.build(["1/2", "1/2"], [["0", "1"], ["1", "0"]])


def test_constant_one_gives_complete_graph():
    g = sample_graph(StepGraphon.constant("1"), 10, seed=0)
    assert len(g.edges) == 45
    # degree (n-1)/n against kernel degree 1
    assert degree_concentration_report(g) == pytest.approx(0.1)


def test_constant_zero_gives_empty_graph():
    g = sample_graph(StepGraphon.constant("0"), 5, seed=0)
    assert len(g.edges) == 0
    assert degree_concentration_report(g) == 0.0


def test_single_block_types():
    block, offset = sample_types(StepGraphon.constant("0.5"), 20, seed=1)
    assert len(block) == len(offset) == 20
    assert all(b == 0 for b in block)
    assert all(0 <= o < 1 for o in offset)


def test_n_zero_rejected():
    with pytest.raises(FormatError):
        sample_types(StepGraphon.constant("0.5"), 0, seed=1)


def test_trial_index_out_of_range_rejected():
    with pytest.raises(FormatError, match="trial_index"):
        sample_graph(HALF_HALF, 5, seed=1, trial_index=1 << 62)
    with pytest.raises(FormatError, match="trial_index"):
        edge_coin(1, 1 << 62, 0)


def test_negative_coin_offset_rejected():
    # advancing the Philox counter by a negative amount would wrap it round
    with pytest.raises(FormatError, match="offset") as exc:
        edge_coin(0, 0, -1)
    assert exc.value.position == "offset"
    stream = np.random.Generator(np.random.Philox(key=np.array([0, 1], dtype=np.uint64)))
    assert edge_coin(0, 0, 0) == stream.random()


def test_seed_outside_64_bits_rejected():
    """The seed keys the streams as one 64-bit word: 2**64 would draw seed
    0's graphs and -1 those of 2**64 - 1."""
    for seed in (-1, 1 << 64, (1 << 64) + 5):
        with pytest.raises(FormatError, match="seed") as exc:
            sample_graph(HALF_HALF, 5, seed)
        assert exc.value.position == "seed"
        with pytest.raises(FormatError, match="seed"):
            edge_coin(seed, 0, 0)
    for seed in (0, (1 << 64) - 1):
        stream = np.random.Generator(np.random.Philox(key=np.array([seed, 1], dtype=np.uint64)))
        assert edge_coin(seed, 0, 0) == stream.random()
        assert sample_graph(HALF_HALF, 5, seed).seed == seed


def test_replay_determinism():
    a = sample_graph(HALF_HALF, 60, seed=123, trial_index=7)
    b = sample_graph(HALF_HALF, 60, seed=123, trial_index=7)
    assert np.array_equal(a.edges, b.edges)
    assert np.array_equal(a.type_block, b.type_block)
    assert np.array_equal(a.type_offset, b.type_offset)
    c = sample_graph(HALF_HALF, 60, seed=123, trial_index=8)
    assert not np.array_equal(a.edges, c.edges)


def test_balanced_bipartite_edges_cross_classes_only():
    g = sample_graph(HALF_HALF, 80, seed=5)
    blocks = g.type_block
    assert all(blocks[u] != blocks[v] for u, v in g.edges)
    n0 = int((blocks == 0).sum())
    assert len(g.edges) == n0 * (80 - n0)  # cross density is exactly 1


def test_block_count_within_three_sigma():
    # binomial CLT band; a diagnostic, checked at this pinned seed
    n = 100_000
    block, _ = sample_types(HALF_HALF, n, seed=2024)
    count = int((block == 0).sum())
    sigma = math.sqrt(n / 4)
    assert abs(count - n / 2) <= 3 * sigma


def test_edge_coins_consumed_in_row_major_order():
    n = 25
    key_stream = np.random.Generator(
        np.random.Philox(key=np.array([np.uint64(11), np.uint64((3 << 1) | 1)], dtype=np.uint64))
    )
    full = key_stream.random(n * (n - 1) // 2)
    for i, j in [(0, 1), (0, n - 1), (4, 9), (n - 2, n - 1), (10, 20)]:
        off = edge_stream_offset(n, i, j)
        assert edge_coin(11, 3, off) == full[off]


def test_pair_offsets_are_distinct_and_contiguous():
    n = 9
    offs = [edge_stream_offset(n, i, j) for i in range(n) for j in range(i + 1, n)]
    assert offs == list(range(n * (n - 1) // 2))


FIVE_PRESETS = ["constant-0.3", "narrow-three-block", "bipartite-plus-clique", "power-half", "power-two"]


def _random_zero_one_kernel(rng: random.Random, k: int) -> StepGraphon:
    masses = [rng.randrange(1, 6) for _ in range(k)]
    ones = [[0] * k for _ in range(k)]
    for a in range(k):
        for b in range(a, k):
            ones[a][b] = ones[b][a] = rng.randrange(2)
    return StepGraphon.build([f"{m}/{sum(masses)}" for m in masses], [[str(x) for x in row] for row in ones])


_RNG = random.Random(17)
# step kernels whose every density is 0 or 1: the sampler reads their edges
# off the types and draws no edge coin
ZERO_ONE_KERNELS = {
    **{f"zero-one-k{k}": _random_zero_one_kernel(_RNG, k) for k in range(1, 7)},
    "all-zero": StepGraphon.build(["1/4", "1/4", "1/2"], [["0"] * 3] * 3),
    "all-one": StepGraphon.build(["1/3", "2/3"], [["1"] * 2] * 2),
}
# one density of 1 among fractional ones: drawn with coins like any other
ONE_AMONG_FRACTIONAL = StepGraphon.build(["1/3", "2/3"], [["1", "3/10"], ["3/10", "1/5"]])
# a step kernel of distinct fractional densities, and one of several blocks
# sharing one density, which the sampler compares as a scalar
EXTRA_KERNELS = {
    "fractional-step": StepGraphon.build(["1/3", "2/3"], [["3/10", "7/10"], ["7/10", "1/5"]]),
    "equal-density-blocks": StepGraphon.build(["1/3", "1/6", "1/2"], [["2/5"] * 3] * 3),
    **ZERO_ONE_KERNELS,
    "one-among-fractional": ONE_AMONG_FRACTIONAL,
}


@pytest.mark.parametrize("preset", FIVE_PRESETS + ["balanced-bipartite"] + list(EXTRA_KERNELS))
def test_row_blocks_match_whole_draw(preset, monkeypatch):
    g = EXTRA_KERNELS[preset] if preset in EXTRA_KERNELS else get_preset(preset)
    for n in (1, 2, 3, 37, 400, 2000):
        for trial in (0, 3):
            ref = sample_graph_reference(g, n, 8, trial)
            # the default block, one row per block, short multi-row tail
            # blocks, and a first block ending exactly at the end of row 0
            for coins in (sampler._BLOCK_COINS, 1, 5, n - 1):
                monkeypatch.setattr(sampler, "_BLOCK_COINS", coins)
                edges = sample_graph(g, n, 8, trial).edges
                assert edges.dtype == np.int32
                assert np.array_equal(edges, ref), (n, trial, coins)
            monkeypatch.undo()


@pytest.mark.parametrize("preset", FIVE_PRESETS)
def test_finite_graph_keeps_sampled_edges(preset, tmp_path):
    """The sampler's edges are already in `FiniteGraph` form, so building
    the graph keeps them as they are and `write_graph` can print them."""
    for n in (1, 2, 3, 60, 400):
        s = sample_graph(get_preset(preset), n, 5, 1)
        g = s.to_finite_graph()
        assert g.edge_array.dtype == np.int32 and np.array_equal(g.edge_array, s.edges)
        assert g.edge_array is s.edges  # kept, not copied
        for edges in (s.edges, g.edge_array):
            with pytest.raises(ValueError):
                edges[...] = 0
        write_graph(s, str(tmp_path / "g.txt"))
        assert (tmp_path / "g.txt").read_text() == g.to_edge_list_text()


def test_zero_one_kernels_draw_no_edge_coin(monkeypatch):
    channels = []
    stream = sampler._stream

    def recorded(seed, trial_index, channel):
        channels.append(channel)
        return stream(seed, trial_index, channel)

    monkeypatch.setattr(sampler, "_stream", recorded)
    zero_one = [get_preset(p) for p in ("balanced-bipartite", "bipartite-plus-clique", "narrow-three-block")]
    for g in zero_one + list(ZERO_ONE_KERNELS.values()):
        sample_graph(g, 50, 1)
    assert channels and sampler._EDGE_CHANNEL not in channels
    sample_graph(ONE_AMONG_FRACTIONAL, 50, 1)
    assert channels[-1] == sampler._EDGE_CHANNEL


@pytest.mark.parametrize("name", ["narrow-three-block", "bipartite-plus-clique", "zero-one-k5", "zero-one-k6"])
def test_zero_one_edges_follow_their_coins(name):
    """No coin is drawn for a 0/1 kernel, yet each pair is an edge exactly
    when its replayed coin falls below the density, so replay still holds."""
    g = ZERO_ONE_KERNELS.get(name) or get_preset(name)
    n, seed, trial = 300, 9, 2
    s = sample_graph(g, n, seed, trial)
    dens = np.array([[float(d) for d in row] for row in g.densities])
    edges = set(map(tuple, s.edges.tolist()))
    rng = random.Random(4)
    pairs = [(0, 1), (0, n - 1), (n - 2, n - 1)] + [tuple(sorted(rng.sample(range(n), 2))) for _ in range(300)]
    assert 0 < sum(p in edges for p in pairs) < len(pairs)
    for i, j in pairs:
        coin = edge_coin(seed, trial, edge_stream_offset(n, i, j))
        assert ((i, j) in edges) == (coin < dens[s.type_block[i], s.type_block[j]]), (i, j)


def test_edge_coins_match_stream_across_block_cuts():
    # blocks are whole rows, so the first and last pair of every row lie on
    # both sides of each cut, whatever the block size
    n = 2000
    assert math.comb(n, 2) > sampler._BLOCK_COINS  # more than one block
    g = StepGraphon.build(["1/3", "2/3"], [["3/10", "7/10"], ["7/10", "1/5"]])
    s = sample_graph(g, n, seed=21, trial_index=4)
    dens = np.array([[0.3, 0.7], [0.7, 0.2]])
    edges = set(map(tuple, s.edges.tolist()))
    pairs = [(i, j) for i in range(n - 1) for j in {i + 1, n - 1}]
    assert len(pairs) == 2 * (n - 1) - 1
    for i, j in pairs:
        coin = edge_coin(21, 4, edge_stream_offset(n, i, j))
        p = dens[s.type_block[i], s.type_block[j]]
        assert ((i, j) in edges) == (coin < p), (i, j)


def test_sample_peak_memory_is_bounded():
    g = StepGraphon.constant("0.3")
    tracemalloc.start()
    try:
        sample_graph(g, 4000, 0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # one array entry per pair would need 366 MB here
    assert peak <= 100 * 2**20


def test_degrees_allocate_less_than_a_copy_of_both_columns():
    s = sample_graph(StepGraphon.constant("0.3"), 4000, 0)
    tracemalloc.start()
    try:
        s.degrees()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # an int64 copy of both endpoint columns would be 2 * edges.nbytes
    assert peak <= 1.25 * s.edges.nbytes


@pytest.mark.parametrize("preset", ["narrow-three-block", "constant-0.3"])
def test_build_on_sampled_edges_allocates_under_four_copies(preset):
    s = sample_graph(get_preset(preset), 2000, 0)
    FiniteGraph.build(3, [(0, 1)])  # scipy's import is not the build's
    tracemalloc.start()
    try:
        g = FiniteGraph.build(s.n, s.edges)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert g.edge_array is s.edges
    # the CSR's indices alone are one edges.nbytes; an int64 copy, bool
    # masks and re-reading the upper triangle would take about 9
    assert peak <= 4 * s.edges.nbytes


@pytest.mark.parametrize("preset", PRESET_NAMES)
def test_degrees_count_every_endpoint(preset):
    for n in (1, 2, 3, 60, 400):
        s = sample_graph(get_preset(preset), n, 6, 2)
        deg = s.degrees()
        assert deg.dtype == np.int64
        assert np.array_equal(deg, np.bincount(s.edges.ravel(), minlength=n)), n


def test_degrees_counted_once():
    s = sample_graph(HALF_HALF, 40, seed=3)
    deg = s.degrees()
    assert s.degrees() is deg
    assert np.array_equal(deg, np.bincount(s.edges.ravel(), minlength=40))
    assert not deg.flags.writeable


def test_empirical_edge_density_near_p():
    p = 0.35
    g = StepGraphon.constant("0.35")
    for trial in range(100):
        s = sample_graph(g, 200, seed=77, trial_index=trial)
        density = len(s.edges) / (200 * 199 / 2)
        assert abs(density - p) < 0.02


def test_power_family_sampling():
    g = sample_graph(PowerFamilyGraphon.build("1/2"), 50, seed=9)
    assert g.type_block is None
    assert all(0 <= o < 1 for o in g.type_offset)
    assert len(g.edges) > 0


def test_degree_concentration_half(rng):
    g = sample_graph(StepGraphon.constant("1/2"), 800, seed=31)
    assert degree_concentration_report(g) <= 0.08


def test_graph_file_roundtrip(tmp_path):
    g = sample_graph(HALF_HALF, 30, seed=1, trial_index=2)
    path = tmp_path / "g.txt"
    meta = write_graph(g, str(path))
    back = load_graph(str(path))
    assert back.n == 30
    assert edge_tuples(back) == edge_tuples(g.to_finite_graph())
    import json

    with open(meta) as fh:
        side = json.load(fh)
    assert side["seed"] == 1 and side["trial_index"] == 2
    assert len(side["type_block"]) == 30


def test_edge_list_reads_python_integer_forms():
    g = FiniteGraph.from_edge_list_text("11 2\n+0 007\n1_0 \t 3\n")
    assert g.edge_array.tolist() == [[0, 7], [3, 10]]


def test_edge_list_parse_errors():
    with pytest.raises(FormatError, match="line 1"):
        FiniteGraph.from_edge_list_text("")
    with pytest.raises(FormatError, match="line 2"):
        FiniteGraph.from_edge_list_text("3 1\nx y\n")
    with pytest.raises(FormatError, match="header"):
        FiniteGraph.from_edge_list_text("3 2\n0 1\n")
    with pytest.raises(FormatError, match="line 3"):
        FiniteGraph.from_edge_list_text("3 2\n0 1\n1 2 0\n")
    with pytest.raises(FormatError, match="line 2"):  # token count evens out over the file
        FiniteGraph.from_edge_list_text("3 2\n0 1 2\n1\n")
    with pytest.raises(FormatError, match="line 3"):
        FiniteGraph.from_edge_list_text("3 3\n0 1\n1 two\n0 2\n")
    with pytest.raises(FormatError, match="edges"):
        FiniteGraph.from_edge_list_text("3 1\n0 99999999999999999999\n")
