import math
import os
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
from oracles import edge_tuples, sample_graph_reference, sample_types_reference

HALF_HALF = StepGraphon.build(["1/2", "1/2"], [["0", "1"], ["1", "0"]])


def test_constant_one_gives_complete_graph():
    g = sample_graph(StepGraphon.constant("1"), 10, seed=0)
    assert len(g.edges) == 45
    # degree (n-1)/n against kernel degree 1
    assert degree_concentration_report(g) == pytest.approx(0.1)


def test_degree_concentration_on_power_kernel():
    g = sample_graph(get_preset("power-two"), 300, seed=4)
    deg = [0] * g.n
    for u, v in g.edges.tolist():
        deg[u] += 1
        deg[v] += 1
    expected = g.type_offset**2 / 3  # (x*y)**2 has degree x**2 / 3
    want = max(abs(d / g.n - e) for d, e in zip(deg, expected.tolist()))
    assert len(g.edges) > 0
    assert degree_concentration_report(g) == pytest.approx(want, abs=1e-12)


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
# a step kernel of distinct fractional densities; one of several blocks
# sharing one density, which the sampler compares as a scalar; one holding
# 0, 1 and a fractional density, whose integer thresholds are 0 and 2**53
# beside a fractional one; and constant 1/2, where p * 2**53 is an integer
EXTRA_KERNELS = {
    "fractional-step": StepGraphon.build(["1/3", "2/3"], [["3/10", "7/10"], ["7/10", "1/5"]]),
    "equal-density-blocks": StepGraphon.build(["1/3", "1/6", "1/2"], [["2/5"] * 3] * 3),
    "zero-one-fractional": StepGraphon.build(
        ["1/4", "1/4", "1/2"], [["0", "1", "1/3"], ["1", "0", "0"], ["1/3", "0", "7/10"]]
    ),
    "constant-half": StepGraphon.constant("1/2"),
    **ZERO_ONE_KERNELS,
    "one-among-fractional": ONE_AMONG_FRACTIONAL,
}


def _draws_coins(name: str) -> bool:
    """Whether the kernel draws edge coins: a 0/1 step kernel has no block plan to thread."""
    g = EXTRA_KERNELS.get(name) or get_preset(name)
    return not isinstance(g, StepGraphon) or any(d not in (0, 1) for row in g.densities for d in row)


@pytest.mark.parametrize("preset, threads", [
    pytest.param(p, t, id=p if t == 1 else f"{p}-{t}-threads")
    for p in FIVE_PRESETS + ["balanced-bipartite"] + list(EXTRA_KERNELS)
    for t in (1, 2, 3)
    if t == 1 or _draws_coins(p)
])
def test_row_blocks_match_whole_draw(preset, threads, monkeypatch):
    """Each block opens the edge stream at its own first coin, so the edges
    are those of one whole draw whatever the block plan or thread count.
    Blocks of one row each cost a thread hand-off apiece, so on several
    threads they run at n=400 (hundreds of blocks) and not at n=2000."""
    g = EXTRA_KERNELS[preset] if preset in EXTRA_KERNELS else get_preset(preset)
    default = sampler._BLOCK_COINS
    for n in (1, 2, 3, 37, 400, 2000):
        for trial in (0, 3):
            ref = sample_graph_reference(g, n, 8, trial)
            ref_deg = np.bincount(ref.ravel(), minlength=n)
            # the default block, one row per block, short multi-row tail
            # blocks, and a first block ending exactly at the end of row 0
            for coins in (default, 1, 5, n - 1) if threads == 1 or n < 2000 else (default, 5 * n):
                monkeypatch.setattr(sampler, "_sampling_threads", lambda: threads)
                # each block spans `coins`, the plan of one thread
                monkeypatch.setattr(sampler, "_BLOCK_COINS", coins * threads)
                s = sample_graph(g, n, 8, trial)
                assert s.edges.dtype == np.int32
                assert np.array_equal(s.edges, ref), (n, trial, coins)
                assert np.array_equal(s.degrees(), ref_deg), (n, trial, coins)
            monkeypatch.undo()


def test_many_threads_under_fast_switching_match_whole_draw(monkeypatch):
    """Eight threads switching every microsecond finish their blocks in any
    order; the edges are still the whole draw's, in row-major order."""
    import sys
    import time

    g = StepGraphon.build(["1/3", "2/3"], [["3/10", "7/10"], ["7/10", "1/5"]])
    n = 2000
    ref = sample_graph_reference(g, n, 13, 1)
    monkeypatch.setattr(sampler, "_sampling_threads", lambda: 8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        began = time.perf_counter()
        for coins in (sampler._BLOCK_COINS, 40 * n):  # 17 blocks, then 215
            monkeypatch.setattr(sampler, "_BLOCK_COINS", coins)
            s = sample_graph(g, n, 13, 1)
            assert np.array_equal(s.edges, ref), coins
            assert np.array_equal(s.degrees(), np.bincount(ref.ravel(), minlength=n))
        elapsed = time.perf_counter() - began
    finally:
        sys.setswitchinterval(interval)
    assert elapsed < 30


def test_failed_block_cancels_the_rest_and_joins_its_threads(monkeypatch):
    """An error in one block reaches the caller; the blocks not yet started
    are dropped, and the threads are joined before `sample_graph` raises."""
    import threading

    calls = []
    stream_at = sampler._edge_stream_at

    def failing(seed, trial_index, pos):
        calls.append(pos)
        if len(calls) == 3:
            raise MemoryError("block 3")
        return stream_at(seed, trial_index, pos)

    monkeypatch.setattr(sampler, "_edge_stream_at", failing)
    monkeypatch.setattr(sampler, "_sampling_threads", lambda: 2)
    monkeypatch.setattr(sampler, "_BLOCK_COINS", 2)  # one row per block: 1999 blocks
    before = threading.active_count()
    with pytest.raises(MemoryError, match="block 3"):
        sample_graph(StepGraphon.constant("0.3"), 2000, 0)
    assert threading.active_count() == before
    assert len(calls) < 1999  # some blocks never started


def test_failed_last_block_joins_its_threads(monkeypatch):
    """An error in the last block, after every earlier part has landed,
    still reaches the caller with every thread joined."""
    import threading

    n = 2000
    last = edge_stream_offset(n, n - 2, n - 1)
    stream_at = sampler._edge_stream_at
    calls = []

    def failing(seed, trial_index, pos):
        calls.append(pos)
        if pos == last:
            raise MemoryError("last block")
        return stream_at(seed, trial_index, pos)

    monkeypatch.setattr(sampler, "_edge_stream_at", failing)
    monkeypatch.setattr(sampler, "_sampling_threads", lambda: 2)
    monkeypatch.setattr(sampler, "_BLOCK_COINS", 2)  # one row per block: 1999 blocks
    before = threading.active_count()
    with pytest.raises(MemoryError, match="last block"):
        sample_graph(StepGraphon.constant("0.3"), n, 0)
    assert threading.active_count() == before
    assert sorted(calls) == [edge_stream_offset(n, i, i + 1) for i in range(n - 1)]


THRESHOLD_DENSITIES = [2.0**-53, 1 / 3, 0.3, 0.5, 0.375, 0.7, 1 - 2.0**-53, 1.0]


@pytest.mark.parametrize("p", THRESHOLD_DENSITIES)
def test_integer_threshold_decides_as_the_double(p):
    """`x >> 11 < K` with K = ceil(p * 2**53) holds exactly when the coin
    (x >> 11) * 2**-53 of the word x falls below p: at the words on both
    sides of K << 11, at both ends of the range, and at seeded words."""
    k = int(sampler._threshold(p))
    assert k == math.ceil(p * 2**53) and sampler._threshold(np.array([[p]])).dtype == np.uint64
    # K << 11 and past it lie above 2**64 - 1 only at p = 1
    edge = [x for x in (0, (k << 11) - 1, k << 11, (k << 11) + 2047, 2**64 - 1) if x < 2**64]
    for x in edge:
        assert ((x >> 11) < k) == ((x >> 11) * 2**-53 < p) == (x < k << 11), x
    words = np.concatenate([np.array(edge, dtype=np.uint64), np.random.default_rng(53).integers(0, 2**64, 10**5, dtype=np.uint64)])
    by_int = (words >> np.uint64(11)) < np.uint64(k)
    by_double = (words >> np.uint64(11)) * 2.0**-53 < p
    assert np.array_equal(by_int, by_double)


def test_edge_coin_is_the_double_of_its_word():
    """`edge_coin` returns the double a Generator draws at the same place:
    at positions 0-7, which cover every word of two Philox ticks, and on
    both sides of the first block cut of one thread's plan at n=2000."""
    n = 2000
    rows = sampler._BLOCK_COINS // (n - 1)
    cut = edge_stream_offset(n, rows, rows + 1)
    positions = list(range(8)) + [cut - 1, cut, cut + 1]
    bg = np.random.Philox(key=np.array([5, (2 << 1) | 1], dtype=np.uint64))
    doubles = np.random.Generator(bg).random(cut + 2)
    for pos in positions:
        coin = edge_coin(5, 2, pos)
        assert type(coin) is float and coin == doubles[pos], pos


def test_pool_workers_sample_on_one_thread():
    """A process pool (`experiment --jobs`) already spreads trials over the
    CPUs, so its workers draw each sample's blocks on one thread."""
    from concurrent.futures import ProcessPoolExecutor

    assert 1 <= sampler._sampling_threads() <= (os.cpu_count() or 1)
    with ProcessPoolExecutor(max_workers=1) as pool:
        assert pool.submit(sampler._sampling_threads).result() == 1


@pytest.mark.parametrize("preset", PRESET_NAMES)
def test_finite_graph_keeps_sampled_edges(preset, tmp_path):
    """A sample is its one graph, whose edge array is the sample's edges,
    so `write_graph` prints what the graph holds."""
    for n in (1, 2, 3, 60, 400):
        s = sample_graph(get_preset(preset), n, 5, 1)
        g = s.to_finite_graph()
        assert s.to_finite_graph() is g
        assert g.edge_array.dtype == np.int32 and np.array_equal(g.edge_array, s.edges)
        assert s.edges is g.edge_array  # kept, not copied
        for edges in (s.edges, g.edge_array):
            with pytest.raises(ValueError):
                edges[...] = 0
        write_graph(s, str(tmp_path / "g.txt"))
        assert (tmp_path / "g.txt").read_text() == g.to_edge_list_text()


def test_zero_one_kernels_draw_no_edge_coin(monkeypatch):
    channels = []
    philox = sampler._philox

    def recorded(seed, trial_index, channel):
        channels.append(channel)
        return philox(seed, trial_index, channel)

    monkeypatch.setattr(sampler, "_philox", recorded)
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


def test_sample_assembly_holds_one_and_a_half_edge_arrays(monkeypatch):
    """A sample keeps its blocks' int32 columns, half an edge array, and its
    first `edges` read writes them into one array, column 0 from the row
    counts; the parts are released only once the array is published.  A
    list of (m, 2) parts joined at the end would hold the edge array twice.
    The array is kept, read-only, and is the one its graph holds; threads
    that read a fresh sample's edges at once all get that one array."""
    import sys
    import threading

    g = StepGraphon.constant("0.3")
    sample_graph(g, 200, 0).edges
    tracemalloc.start()
    try:
        s = sample_graph(g, 4000, 0)
        edges = s.edges
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # 8 bytes for each of the coins in flight, their buffers or one
    # block's temporaries, whichever is held at the peak
    assert peak <= 1.5 * edges.nbytes + 8 * sampler._BLOCK_COINS
    assert s.edges is edges and s.to_finite_graph()._rows is None
    with pytest.raises(ValueError):
        edges[0, 0] = 1
    assert s.to_finite_graph().edge_array is edges

    # once through `edges` and once calling the assembly itself, past the
    # lock `cached_property` takes before Python 3.12, so that a reader which
    # assembles while the other publishes must return the published array
    n = 1000
    ref = sample_graph_reference(g, n, 4, 1)
    monkeypatch.setattr(sampler, "_BLOCK_COINS", 40 * n)  # a dozen blocks or more
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for read in [lambda s: s.edges, lambda s: FiniteGraph.edge_array.func(s.to_finite_graph())] * 10:
            s = sample_graph(g, n, 4, 1)
            barrier = threading.Barrier(4)
            got = [None] * 4

            def reader(k):
                barrier.wait(timeout=30)
                got[k] = read(s)

            threads = [threading.Thread(target=reader, args=(k,)) for k in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
                assert not t.is_alive()
            assert all(e is s.edges for e in got)
            assert np.array_equal(s.edges, ref) and not s.edges.flags.writeable
    finally:
        sys.setswitchinterval(interval)


def _assert_published_column_major(s, ref):
    e = s.edges
    assert np.array_equal(e, ref) and e.dtype == np.int32 and e.tobytes() == ref.tobytes()
    assert not e.flags.writeable and e.T.flags.c_contiguous and s.to_finite_graph()._rows is None


def test_column_0_is_repeated_part_by_part(monkeypatch):
    """Column 0 is written one part at a time, each row's id repeated once
    per hit over the rows the part's hits end, so rows with no hit at a
    part's edge and parts with no hit at all must leave it as the whole
    draw's.  A sparse step kernel on one-row and few-row blocks has both."""
    g = StepGraphon.build(["1/2", "1/2"], [["1/40", "0"], ["0", "1/20"]])
    monkeypatch.setattr(sampler, "_sampling_threads", lambda: 1)
    empty_part = quiet_edge = False
    for n in (1, 2, 3, 60):
        for coins in (sampler._BLOCK_COINS, 1, 2 * n):
            monkeypatch.setattr(sampler, "_BLOCK_COINS", coins)
            for trial in range(4):
                s = sample_graph(g, n, 3, trial)
                rowcount, columns = s.to_finite_graph()._rows
                ends = np.cumsum(rowcount).tolist()
                bounds = np.cumsum([len(c) for c in columns]).tolist()
                empty_part |= any(len(c) == 0 for c in columns)
                # a row with no hit beside a part boundary ends where its neighbour does
                quiet_edge |= any(ends.count(b) > 1 for b in bounds)
                _assert_published_column_major(s, sample_graph_reference(g, n, 3, trial))
    assert empty_part and quiet_edge
    # a 0/1 kernel keeps no parts, only its graph, whose edge array it publishes
    for n in (1, 2, 3, 60):
        s = sample_graph(HALF_HALF, n, 3, 1)
        g = s.to_finite_graph()
        assert g._rows is None and "edge_array" not in vars(g)
        _assert_published_column_major(s, sample_graph_reference(HALF_HALF, n, 3, 1))


def test_degree_only_trial_never_assembles_edges():
    """A trial that reads only degrees keeps the blocks' int32 columns, half
    an edge array, and never allocates the (m, 2) one."""
    from graphonham import harness

    g = StepGraphon.constant("0.3")
    config = harness.ExperimentConfig(g, (2000,), 1, 0, ("min_degree_ge_2", "degree_concentration"))
    s = sample_graph(g, 2000, 0)
    rec = harness.TrialRecord(n=2000, trial_index=0, seed=0)
    harness._evaluate_properties(config, s, (s.type_block, s.type_offset), rec)
    assert rec.outcomes["min_degree_ge_2"] and rec.outcomes["degree_concentration"] > 0
    assert "edge_array" not in vars(s.to_finite_graph())

    sample_graph(g, 200, 0)
    tracemalloc.start()
    try:
        s = sample_graph(g, 8000, 0)
        m = int(s.degrees().sum()) // 2
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert "edge_array" not in vars(s.to_finite_graph())
    # the (m, 2) int32 array would be 8m bytes on its own
    assert peak <= 0.75 * 8 * m


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
    # n=2000 draws more than one block of coins
    for n in (1, 2, 3, 60, 400, 2000):
        s = sample_graph(get_preset(preset), n, 6, 2)
        deg = s.degrees()
        assert deg.dtype == np.int64
        assert np.array_equal(deg, np.bincount(s.edges.ravel(), minlength=n)), n
        # the graph counts its own: off its blocks on a 0/1 kernel, else off its CSR
        assert s.to_finite_graph().degrees() == deg.tolist(), n


def test_samples_compare_by_identity():
    """A sample holds numpy arrays, so it compares and hashes by identity,
    as `FiniteGraph` does, rather than raising."""
    a, b = sample_graph(HALF_HALF, 20, seed=1), sample_graph(HALF_HALF, 20, seed=1)
    assert a == a and a != b
    assert hash(a) == hash(a) and len({a, b, a}) == 2


def test_float_tables_are_built_once_per_graphon():
    """A step graphon is frozen, so the float tables every trial reads (the
    densities, cumulative masses, block spans, the 0/1 table and the float
    block degrees) are built from its fractions once, read-only."""
    g = get_preset("narrow-three-block")
    sample_graph(g, 30, 0, 0)
    degree_concentration_report(sample_graph(g, 30, 0, 0))
    names = ("_float_densities", "_cumulative_masses", "_block_spans", "_zero_one_table", "_float_block_degrees")
    tables = [getattr(g, name) for name in names]
    sample_graph(g, 30, 0, 1)
    sample_types(g, 30, 0, 2)
    degree_concentration_report(sample_graph(g, 30, 0, 3))
    assert all(getattr(g, name) is table for name, table in zip(names, tables))
    dens, cum, (low, width), ones, deg = tables
    assert not any(a.flags.writeable for a in (dens, cum, low, width, ones, deg))
    assert dens.tolist() == [[float(d) for d in row] for row in g.densities]
    assert cum.tolist() == [0.4, 0.7, 1.0]
    assert low.tolist() == [0.0, 0.4, 0.7] and width.tolist() == [0.4, 0.7 - 0.4, 1.0 - 0.7]
    assert ones.dtype == bool and ones.tolist() == [[d == 1 for d in row] for row in g.densities]
    assert deg.tolist() == [float(d) for d in g.block_degrees()]
    assert get_preset("constant-0.3")._zero_one_table is None
    assert get_preset("isolated-block")._zero_one_table is None


@pytest.mark.parametrize("name", [p for p in PRESET_NAMES if not p.startswith("power")] + ["tiny-block"])
def test_type_stage_reads_the_kernel_tables_bit_for_bit(name):
    """The types read through the kernel's block spans are bit for bit those
    of `oracles.sample_graph_reference`'s type stage, which forms the block
    ends and guarded widths on every draw, on every step preset and on a
    kernel whose block of mass 10^-30 has float width 0, so its guard is
    read."""
    from fractions import Fraction

    if name == "tiny-block":
        tiny = Fraction(1, 10**30)
        g = StepGraphon((Fraction(1, 2), tiny, Fraction(1, 2) - tiny), ((Fraction(3, 10),) * 3,) * 3)
        cum = g._cumulative_masses
        assert cum[1] - cum[0] == 0 and g._block_spans[1].tolist() == [0.5, 1.0, 0.5]
    else:
        g = get_preset(name)
    for n, trial in [(1, 0), (7, 1), (400, 2), (400, 3)]:
        block, offset = sample_types(g, n, 11, trial)
        ref_block, ref_offset = sample_types_reference(g, n, 11, trial)
        assert block.dtype == ref_block.dtype and block.tobytes() == ref_block.tobytes()
        assert offset.dtype == ref_offset.dtype and offset.tobytes() == ref_offset.tobytes()
        s = sample_graph(g, n, 11, trial)
        assert s.type_block.tobytes() == block.tobytes() and s.type_offset.tobytes() == offset.tobytes()


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
    assert back.degrees() == g.degrees().tolist()
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
