import random
import warnings
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphonham import (
    FiniteGraph,
    FormatError,
    GraphPeninsula,
    HalfCover,
    HalfMatching,
    StepGraphon,
    classify,
    fmn_half,
    fvcn_half,
    fvcn_value,
    get_preset,
    graph_peninsula,
    is_connected,
    sample_graph,
    uniquely_half_covered,
    validate_cycle,
)
from conftest import random_graph, random_step_graphon
from graphonham.fracmatch import _covers_blocks, _type_connected
from graphonham.presets import PRESET_NAMES
from oracles import (
    bfs_reference,
    build_reference,
    edge_tuples,
    graph_peninsula_oracle,
    is_bipartite_reference,
    max_half_matching_weight,
    min_half_cover_weight,
    uniquely_half_covered_oracle,
    uniquely_half_covered_reference,
    validate_half_cover_reference,
    validate_half_matching_reference,
    validate_peninsula_reference,
)

HALF = Fraction(1, 2)
UNITS = (0, 1, 2)  # half-units of the cover values 0, 1/2, 1


def cycle(n):
    return FiniteGraph.build(n, [(i, (i + 1) % n) for i in range(n)])


def complete_bipartite(a, b):
    return FiniteGraph.build(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def complete(n):
    return FiniteGraph.build(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


class TestCovers:
    def test_c5_constant_half(self):
        cover = fvcn_half(cycle(5))
        assert cover.weight == Fraction(5, 2) == min_half_cover_weight(cycle(5))
        assert all(v == HALF for v in cover.values)

    def test_star_center(self):
        star = FiniteGraph.build(4, [(0, 1), (0, 2), (0, 3)])
        cover = fvcn_half(star)
        assert cover.weight == Fraction(1) == min_half_cover_weight(star)
        assert cover.values[0] == 1

    def test_empty_graph(self):
        cover = fvcn_half(FiniteGraph.build(4, []))
        assert cover.weight == 0
        assert all(v == 0 for v in cover.values)


class TestMatchings:
    def test_triangle(self):
        m = fmn_half(complete(3))
        assert m.weight == Fraction(3, 2) == max_half_matching_weight(complete(3))
        assert all(v == HALF for v in m.values)

    def test_path3(self):
        p3 = FiniteGraph.build(3, [(0, 1), (1, 2)])
        assert fmn_half(p3).weight == Fraction(1) == max_half_matching_weight(p3)

    def test_single_edge_perfect(self):
        m = fmn_half(FiniteGraph.build(2, [(0, 1)]))
        assert m.weight == 1


class TestDuality:
    @pytest.mark.parametrize(
        "g,expected",
        [
            (complete(3), Fraction(3, 2)),
            (complete_bipartite(3, 4), Fraction(3)),
            (FiniteGraph.build(4, []), Fraction(0)),
        ],
    )
    def test_examples(self, g, expected):
        assert fmn_half(g).weight == fvcn_half(g).weight == expected

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(2, 12),
        data=st.data(),
    )
    def test_duality_property(self, n, data):
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        sub = data.draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs)))
        g = FiniteGraph.build(n, sub)
        assert fmn_half(g).weight == fvcn_half(g).weight

    def test_oracle_equivalence_small(self, rng):
        for _ in range(60):
            n = rng.randrange(2, 9)
            g = random_graph(rng, n, rng.choice([0.2, 0.4, 0.6]))
            if len(g.edge_array) > 10:
                continue
            assert fvcn_half(g).weight == min_half_cover_weight(g)
            assert fmn_half(g).weight == max_half_matching_weight(g)


class TestUniquelyHalfCovered:
    def test_c5_true(self):
        assert uniquely_half_covered(cycle(5)) == (True, None)

    def test_k33_false_with_indicator_witness(self):
        verdict, witness = uniquely_half_covered(complete_bipartite(3, 3))
        assert not verdict
        witness.validate(complete_bipartite(3, 3))
        assert witness.weight == 3
        assert sorted(witness.values) == [0, 0, 0, 1, 1, 1]

    def test_k4_true(self):
        assert uniquely_half_covered(complete(4))[0]

    def test_oracle_agreement(self, rng):
        for _ in range(80):
            g = random_graph(rng, rng.randrange(2, 9), rng.choice([0.3, 0.5, 0.7]))
            got, witness = uniquely_half_covered(g)
            assert got == uniquely_half_covered_oracle(g)
            if witness is not None:
                witness.validate(g)
                assert witness.weight <= Fraction(g.n, 2)
                assert any(v != HALF for v in witness.values)


class TestGraphPeninsula:
    def test_k34_narrow(self):
        cert = graph_peninsula(complete_bipartite(3, 4))
        assert cert.kind == "narrow"
        assert sorted(cert.A) == [3, 4, 5, 6] and cert.B == ()

    def test_balanced_bipartite_nonstrict(self):
        cert = graph_peninsula(complete_bipartite(4, 4))
        assert cert is not None and cert.kind == "peninsula"

    def test_c7_none(self):
        assert graph_peninsula(cycle(7)) is None

    def test_oracle_agreement(self, rng):
        for _ in range(80):
            g = random_graph(rng, rng.randrange(1, 11), rng.choice([0.2, 0.4, 0.7]))
            cert = graph_peninsula(g)
            has, narrow = graph_peninsula_oracle(g)
            assert (cert is not None) == has
            if cert is not None:
                cert.validate(g)
                assert (cert.kind == "narrow") == narrow


class TestPerfectMatching:
    """A half-integral perfect matching is a maximum one, `fmn_half`, of weight n/2."""

    def test_c5_perfect(self):
        m = fmn_half(cycle(5))
        assert m.weight == Fraction(5, 2) and all(v == HALF for v in m.values)

    def test_k34_none(self):
        assert fmn_half(complete_bipartite(3, 4)).weight < Fraction(7, 2)

    def test_k2(self):
        assert fmn_half(FiniteGraph.build(2, [(0, 1)])).weight == 1

    def test_uhc_implies_nonbipartite_and_perfect(self, rng):
        seen = 0
        while seen < 60:
            g = random_graph(rng, rng.randrange(3, 13), rng.choice([0.4, 0.6, 0.8]))
            if not uniquely_half_covered(g)[0]:
                continue
            seen += 1
            assert not is_bipartite_reference(g)
            m = fmn_half(g)
            assert m.weight == Fraction(g.n, 2)
            m.validate(g)


def test_fvcn_value_matches_cover(rng):
    for _ in range(30):
        g = random_graph(rng, rng.randrange(2, 20), 0.3)
        assert fvcn_value(g) == fvcn_half(g).weight


def test_adjacency_and_double_cover_solved_once_per_graph(rng, monkeypatch):
    from scipy.sparse import csgraph

    g = random_graph(rng, 40, 0.3)
    adj = g.adjacency()
    assert adj is g.adjacency()
    assert all(isinstance(a, tuple) and list(a) == sorted(a) for a in adj)
    calls = []
    solve = csgraph.maximum_bipartite_matching

    def counted(*args, **kwargs):
        calls.append(args)
        return solve(*args, **kwargs)

    monkeypatch.setattr(csgraph, "maximum_bipartite_matching", counted)
    assert fvcn_value(g) == fvcn_half(g).weight == fmn_half(g).weight
    assert len(calls) == 1
    # the peninsula route reads unique half-coverage off that same solve
    g = sample_graph(get_preset("constant-0.3"), 400, 0).to_finite_graph()
    assert fvcn_half(g).weight == 200
    assert uniquely_half_covered(g) == (True, None)
    assert graph_peninsula(g) is None
    assert len(calls) == 2


def test_membership_searches_the_csr_rows(rng):
    """Edge membership is a binary search in the CSR rows: it agrees with the
    edge set on every pair, off the vertex range, on loops (v, v) and on
    empty rows, and a check after the CSR is built copies no O(m) array
    (`validate_cycle`, `odd_walk` and `PathSystem.validate` each ask about a
    few pairs)."""
    import tracemalloc

    from graphonham.fracmatch import _are_edges

    graphs = [random_graph(rng, n, p) for n, p in [(0, 0.5), (1, 0.5), (2, 1.0), (7, 0.0), (30, 0.3), (40, 0.9)]]
    for g in graphs + [FiniteGraph.build(6, [(1, 4), (2, 4), (4, 5)])]:  # rows 0 and 3 empty
        n, edges = g.n, set(edge_tuples(g))
        a, b = np.meshgrid(np.arange(-2, n + 2), np.arange(-2, n + 2))
        a, b = a.ravel(), b.ravel()
        want = [(min(x, y), max(x, y)) in edges for x, y in zip(a.tolist(), b.tolist())]
        assert _are_edges(g, a, b).tolist() == want
        assert _are_edges(g, [], []).tolist() == []

    g = sample_graph(get_preset("constant-0.3"), 400, 0).to_finite_graph()
    (u, v), m = g.edge_array[7], len(g.edge_array)
    assert _are_edges(g, [u, v, 0, -1], [v, u, 0, 0]).tolist() == [True, True, False, False]
    tracemalloc.start()
    try:
        assert _are_edges(g, [v, u, 399], [u, u, 400]).tolist() == [True, False, False]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < m // 4  # any copy of the edge set takes a byte or more per edge


# ---------------------------------------------------------------------------
# unique half-coverage read off one matching, against the per-vertex loop


def _same_coverage(g) -> bool:
    """Assert that the reference loop, run on a fresh copy with its own
    solves, gives the same verdict and witness values; return whether the
    witness has weight n/2, the branch the reachability test decides."""
    verdict, witness = uniquely_half_covered(g)
    want, want_witness = uniquely_half_covered_reference(FiniteGraph.build(g.n, g.edge_array))
    assert verdict == want, edge_tuples(g)
    assert (None if witness is None else witness.values) == (
        None if want_witness is None else want_witness.values), edge_tuples(g)
    return witness is not None and witness.weight == Fraction(g.n, 2)


def test_uniquely_half_covered_matches_reference_loop():
    rng = random.Random(4242)
    tight = sum(_same_coverage(random_graph(rng, rng.randrange(1, 30),
                                            rng.choice([0.05, 0.1, 0.2, 0.3, 0.5, 0.8])))
                for _ in range(3000))
    assert tight > 100
    presets = ("constant-0.3", "power-half", "narrow-three-block", "balanced-bipartite",
               "bipartite-plus-clique")
    for preset in presets:
        for n, trials in ((60, 3), (400, 1)):
            for trial in range(trials):
                _same_coverage(sample_graph(get_preset(preset), n, 7, trial).to_finite_graph())


# ---------------------------------------------------------------------------
# the CSR traversal against the queue loop it replaced


def _bfs_agrees(indptr, indices, sources) -> None:
    from graphonham.fracmatch import _bfs

    reached, parent = _bfs(indptr, indices, sources)
    depth, want_parent = bfs_reference(indptr.tolist(), indices.tolist(), sources)
    assert (reached.tolist(), parent.tolist()) == ([d >= 0 for d in depth], want_parent)


def test_bfs_matches_fifo_reference(rng):
    shapes = set()
    for k in range(3000):
        n = rng.randrange(1, 30)
        g = random_graph(rng, n, rng.choice([0.0, 0.05, 0.1, 0.3, 0.6]))
        reached, _ = bfs_reference(g.indptr.tolist(), g.indices.tolist(), [0])
        shapes.add("edgeless" if not len(g.edge_array) else "disconnected" if -1 in reached else "connected")
        indices = g.indices
        if k % 3 == 0:  # targets mapped through a partial matching, as in the Koenig search
            indices = np.array([rng.randrange(-1, n) for _ in range(n)])[indices]
        _bfs_agrees(g.indptr, indices, [rng.randrange(n) for _ in range(rng.randint(1, 3))])
    assert shapes == {"edgeless", "connected", "disconnected"}
    n = 20_000
    path = FiniteGraph.build(n, [(i, i + 1) for i in range(n - 1)])
    for g, sources in ((path, [0]), (path, [n // 3, n - 1]), (cycle(n), [0])):
        _bfs_agrees(g.indptr, g.indices, sources)


# ---------------------------------------------------------------------------
# integer half-unit validators against the Fraction loops they replaced


def _accepted(check, obj, g) -> bool:
    try:
        check(obj, g)
    except AssertionError:
        return False
    return True


def _agree(obj, g, reference) -> bool:
    new = _accepted(type(obj).validate, obj, g)
    assert new == _accepted(reference, obj, g), (obj, edge_tuples(g))
    return new


def test_array_validators_accept_what_the_loops_accept(rng):
    verdicts = []
    for _ in range(300):
        n = rng.randrange(1, 12)
        g = random_graph(rng, n, rng.choice([0.2, 0.5, 0.8]))
        best = fvcn_half(g)
        covers = [best, HalfCover(best.units, best.weight + HALF)]
        for _ in range(6):
            units = np.array([rng.choice(UNITS) for _ in range(n)])
            if rng.random() < 0.1:
                units[rng.randrange(n)] = 3
            weight = Fraction(int(units.sum()), 2)
            covers.append(HalfCover(units, weight if rng.random() < 0.8 else weight + 1))
        verdicts += [_agree(c, g, validate_half_cover_reference) for c in covers]
        matchings = [fmn_half(g)]
        for _ in range(4):
            units = np.array([rng.choice(UNITS) if rng.random() < 0.3 else 0 for _ in g.edge_array], dtype=np.int64)
            matchings.append(HalfMatching(units, Fraction(int(units.sum()), 2)))
        verdicts += [_agree(m, g, validate_half_matching_reference) for m in matchings]
        certs = [c for c in [graph_peninsula(g)] if c is not None]
        for _ in range(4):
            # A twice as likely as B or the rest, as the units 0, 0, 1, 2
            units = np.array([rng.choice((0, 0, 1, 2)) for _ in range(n)])
            certs.append(GraphPeninsula(units, Fraction(int(units.sum()), 2)))
        verdicts += [_agree(c, g, validate_peninsula_reference) for c in certs]
    assert 300 < sum(verdicts) < len(verdicts) - 300


def _corrupted_certificates():
    c5 = cycle(5)
    yield "uncovered edge", c5, HalfCover(np.array([0, 1, 1, 1, 1]), Fraction(2))
    yield "value 3/2", c5, HalfCover(np.array([1, 1, 3, 1, 1]), Fraction(7, 2))
    yield "wrong weight", c5, HalfCover(np.ones(5, dtype=np.int64), Fraction(3))
    yield "A empty", c5, GraphPeninsula(np.ones(5, dtype=np.int64), Fraction(5, 2))
    path = FiniteGraph.build(4, [(0, 1), (1, 2), (2, 3)])
    yield "edge in A x A", path, GraphPeninsula(np.array([0, 0, 2, 0]), Fraction(1))
    yield "edge in A x B", path, GraphPeninsula(np.array([0, 1, 2, 0]), Fraction(3, 2))
    yield "weight above n/2", path, GraphPeninsula(np.array([0, 2, 2, 2]), Fraction(3))
    star = FiniteGraph.build(4, [(0, 1), (0, 2), (0, 3)])
    yield "overloaded vertex", star, HalfMatching(np.ones(3, dtype=np.int64), Fraction(3, 2))


@pytest.mark.parametrize("what, g, cert", list(_corrupted_certificates()), ids=lambda x: x if isinstance(x, str) else "")
def test_corrupted_certificates_rejected_by_both(what, g, cert):
    reference = {
        HalfCover: validate_half_cover_reference,
        HalfMatching: validate_half_matching_reference,
        GraphPeninsula: validate_peninsula_reference,
    }[type(cert)]
    with pytest.raises(AssertionError):
        reference(cert, g)
    with pytest.raises(AssertionError):
        cert.validate(g)


@pytest.mark.parametrize("units", [np.array([0.5, 1.5]), np.array([1.0, 1.0]), (1, 1), [1, 1]])
def test_half_units_must_be_an_integer_array(units):
    """Units of 0.5 would pass the edge and weight checks as the values
    1/4 and 3/4; a cover or matching holds integers only."""
    for kind in (HalfCover, HalfMatching, GraphPeninsula):
        with pytest.raises(TypeError):
            kind(units, Fraction(1))


def test_peninsula_rejects_repeated_or_foreign_vertices():
    """Units hold one value per vertex, so a repeated or negative vertex has no
    form; a vertex beyond the graph is a unit too many."""
    g = FiniteGraph.build(4, [(2, 3)])
    GraphPeninsula(np.array([0, 0, 2, 2]), Fraction(2)).validate(g)
    with pytest.raises(AssertionError):
        GraphPeninsula(np.array([0, 2, 2, 2, 0]), Fraction(3)).validate(g)


# ---------------------------------------------------------------------------
# FiniteGraph.build


def _same_graph(a, b):
    assert a.n == b.n
    assert edge_tuples(a) == edge_tuples(b)
    assert a.adjacency() == b.adjacency()
    assert np.array_equal(a.edge_array, b.edge_array)
    assert np.array_equal(a.indptr, b.indptr) and np.array_equal(a.indices, b.indices)


def test_build_normalises_every_input_form():
    ref = FiniteGraph.build(5, [(0, 1), (0, 4), (1, 2), (2, 4)])
    assert edge_tuples(ref) == ((0, 1), (0, 4), (1, 2), (2, 4))
    assert ref.adjacency() == ((1, 4), (0, 2), (1, 4), (), (0, 2))
    assert ref.degrees() == [2, 2, 2, 0, 2]
    forms = [
        [(2, 4), (1, 0), (4, 0), (2, 1)],
        ((4, 2), (0, 1), (1, 2), (0, 4), (2, 1), (4, 0)),
        iter([[1, 2], [0, 1], [0, 4], [4, 2], [0, 1]]),
        np.array([(2, 4), (1, 0), (4, 0), (2, 1), (1, 0)], dtype=np.int32),
        np.array([(0, 1), (0, 4), (1, 2), (2, 4)], dtype=np.int64),
    ]
    for edges in forms:
        _same_graph(FiniteGraph.build(5, edges), ref)
    csr = np.zeros((5, 5), dtype=int)
    for u, v in edge_tuples(ref):
        csr[u, v] = csr[v, u] = 1
    assert ref.indptr.tolist() == [0] + np.cumsum(csr.sum(axis=1)).tolist()
    assert ref.indices.tolist() == [v for u in range(5) for v in range(5) if csr[u, v]]


@pytest.mark.parametrize("edge", [(-1, 2), (0, 5), (2**40, 1), (1, 2**40), (2**70, 0), (3, 3)])
def test_build_rejects_bad_endpoints(edge):
    for edges in ([(0, 1), edge], np.array([(0, 1), edge], dtype=object)):
        with pytest.raises(FormatError, match="edges"):
            FiniteGraph.build(5, edges)
    if max(edge) < 2**63:
        with pytest.raises(FormatError, match="edges"):
            FiniteGraph.build(5, np.array([(0, 1), edge], dtype=np.int64))


@pytest.mark.parametrize("edges", [
    [[0.5, 1.7], [1, 2]],
    np.array([[0.5, 1.7], [1, 2]]),
    np.array([(0, 1), (1, 2)], dtype=np.float64),
    [(0, 1.0)],
    [(True, 1)],
    np.array([(True, False)]),
    [(np.bool_(True), 2)],
    [("0", "1")],
    np.array([("0", "1")]),
    np.array([(0, np.nan)]),
    [(0, Fraction(1))],
    np.array([(0, 1), (1, 2.5)], dtype=object),
])
def test_build_rejects_non_integer_endpoints(edges):
    """numpy's integer cast would truncate floats, take bools and digit
    strings, and warn on NaN; only integer types are endpoints."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FormatError, match="integers") as exc:
            FiniteGraph.build(5, edges)
    assert exc.value.position == "edges"


@pytest.mark.parametrize("edges", [
    np.array([(0, 1), (1, 2)], dtype=np.uint64),
    np.array([(1, 0), (2, 1)], dtype=np.int16),
    np.array([(2, 1), (0, 1)], dtype=np.uint8),
    [(np.int64(0), np.uint8(1)), (1, np.int32(2))],
    np.array([(0, 1), (np.int64(2), 1)], dtype=object),
])
def test_build_accepts_every_integer_type(edges):
    assert edge_tuples(FiniteGraph.build(3, edges)) == ((0, 1), (1, 2))


@pytest.mark.parametrize("endpoint", [2**63 + 1, 2**64 - 1])
def test_build_reports_unsigned_endpoints_unwrapped(endpoint):
    with pytest.raises(FormatError, match=rf"edge \(0,{endpoint}\) out of range"):
        FiniteGraph.build(5, np.array([(0, 1), (0, endpoint)], dtype=np.uint64))


# int32 arrays of five vertices, each with one flaw
FLAWED_INT32_PAIRS = [
    [(0, 1), (1, 2), (2, 5)],
    [(-1, 2), (0, 1)],
    [(0, 1), (3, 3)],
    [(0, 1), (0, 1), (2, 3)],
    [(0, 2), (0, 1)],
    [(1, 0), (2, 3)],
    [(0, 3), (1, 2), (0, 4)],
]


@pytest.mark.parametrize("pairs", FLAWED_INT32_PAIRS)
def test_build_checks_int32_arrays_in_order(pairs):
    """An int32 array kept as it is must be in range and strictly
    increasing; one flaw sends it to the normalising path."""
    e = np.array(pairs, dtype=np.int32)
    e.flags.writeable = False
    if any(not 0 <= x < 5 for pair in pairs for x in pair) or any(u == v for u, v in pairs):
        with pytest.raises(FormatError, match="edges"):
            FiniteGraph.build(5, e)
        return
    g = FiniteGraph.build(5, e)
    edges, indptr, indices = build_reference(5, pairs)
    assert g.edge_array is not e and g.edge_array.tolist() == [list(p) for p in edges]
    assert g.indptr.tolist() == indptr and g.indices.tolist() == indices


def test_build_keeps_a_canonical_array_and_copies_a_writeable_one():
    e = np.array([(0, 1), (0, 2), (1, 2)], dtype=np.int32)
    g = FiniteGraph.build(3, e)
    assert g.edge_array is not e and np.array_equal(g.edge_array, e)
    assert g.edge_array.T.flags.c_contiguous
    assert e.flags.writeable and not g.edge_array.flags.writeable
    e.flags.writeable = False
    assert FiniteGraph.build(3, e).edge_array is e
    for edges in ([(0, 1)], np.array([(1, 0)], dtype=np.int64), np.zeros((0, 2), dtype=np.int32)):
        assert not FiniteGraph.build(3, edges).edge_array.flags.writeable


def _column_major(e: np.ndarray) -> np.ndarray:
    """A read-only copy of e laid out as the sampler lays its edges out."""
    f = np.asfortranarray(e)
    assert f.T.flags.c_contiguous or len(f) < 2
    f.flags.writeable = False
    return f


def test_build_reads_both_layouts_alike(monkeypatch):
    """A sample's edge array is column-major.  Canonical, it is kept as it
    is; flawed, it takes the normalising path just as the C-order array
    does, to the same graph or the same error.  The readers of the edge
    array answer alike on either layout."""
    from graphonham import fracmatch

    routed = []
    canonical_pairs = fracmatch._canonical_pairs
    monkeypatch.setattr(fracmatch, "_canonical_pairs", lambda n, e: routed.append(e) or canonical_pairs(n, e))
    for pairs in FLAWED_INT32_PAIRS:
        c = np.array(pairs, dtype=np.int32)
        c.flags.writeable = False
        answers = []
        for e in (c, _column_major(c)):
            routed.clear()
            try:
                answers.append(FiniteGraph.build(5, e))
            except FormatError as exc:
                answers.append(str(exc))
            assert len(routed) == 1 and routed[0] is e, pairs
        if isinstance(answers[0], str):
            assert answers[0] == answers[1]
        else:
            _same_graph(*answers)
            assert all(g.edge_array.T.flags.c_contiguous for g in answers)
    monkeypatch.undo()

    rng = random.Random(5)
    for n in (2, 5, 30):
        c = np.array(sorted({tuple(sorted(rng.sample(range(n), 2))) for _ in range(3 * n)}), dtype=np.int32)
        c.flags.writeable = False
        f = _column_major(c)
        a, b = FiniteGraph.build(n, c), FiniteGraph.build(n, f)
        assert a.edge_array is c and b.edge_array is f
        _same_graph(a, b)
        assert a.to_edge_list_text() == b.to_edge_list_text()
        assert np.array_equal(fracmatch._vuv(c), fracmatch._vuv(f))
        # a maximum matching passes on both; 1 on every edge overloads the same vertex on both
        assert _rejection(fmn_half(a), b) is None and _rejection(fmn_half(b), a) is None
        full = HalfMatching(np.full(len(c), 2), Fraction(len(c)))
        rejected = _rejection(full, a)
        assert rejected == _rejection(full, b) and (rejected is not None) == (n > 2)


def _rejection(cert, g):
    """The message of the check that `cert.validate(g)` fails, or None."""
    try:
        cert.validate(g)
    except AssertionError as exc:
        return str(exc)
    return None


def test_build_empty_graphs():
    for n, edges in [(0, []), (0, np.zeros((0, 2), dtype=np.int32)), (3, []), (3, ())]:
        g = FiniteGraph.build(n, edges)
        assert g.n == n and edge_tuples(g) == () and len(g.edge_array) == 0
        assert g.adjacency() == ((),) * n
        assert g.degrees() == [0] * n
        assert g.indptr.tolist() == [0] * (n + 1)
        assert fvcn_value(g) == 0


def _random_pairs(rng: random.Random, n: int) -> list[tuple[int, int]]:
    """Pairs of a random graph on n vertices: sometimes sorted and oriented
    u < v without repeats (the sampler's form), otherwise with repeats, both
    orientations and shuffled order."""
    p = rng.random()
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    if pairs and rng.random() < 0.75:
        pairs += rng.choices(pairs, k=rng.randrange(len(pairs) + 1))
        pairs = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in pairs]
        rng.shuffle(pairs)
    return pairs


def test_build_matches_reference():
    rng = random.Random(31)
    for _ in range(2000):
        n = rng.randrange(41)
        pairs = _random_pairs(rng, n)
        edges, indptr, indices = build_reference(n, pairs)
        for form in (pairs, np.array(pairs, dtype=np.int32), np.array(pairs, dtype=np.int64)):
            g = FiniteGraph.build(n, form)
            assert g.edge_array.dtype == g.indptr.dtype == g.indices.dtype == np.int32
            assert g.edge_array.shape == (len(edges), 2) and g.edge_array.tolist() == edges
            assert g.indptr.tolist() == indptr and g.indices.tolist() == indices


# ---------------------------------------------------------------------------
# step-kernel samples decided from their types


def _hinted_samples():
    """Samples of every preset and of seeded random step kernels, k <= 6,
    n from 3 to 400, every other one with its positive densities set to 1."""
    for name in PRESET_NAMES:
        for n in (3, 10, 60, 400):
            yield sample_graph(get_preset(name), n, 2, 1)
    rng = random.Random(2021)
    for trial in range(200):
        g = random_step_graphon(rng, rng.randint(1, 6), zero_prob=rng.choice([0.3, 0.5, 0.7]))
        if trial % 2:
            g = StepGraphon(g.block_masses, tuple(tuple(Fraction(int(d > 0)) for d in row) for row in g.densities))
        yield sample_graph(g, rng.choice([3, 4, 5, 8, 13, 30, 60, 150, 400]), rng.randrange(1 << 30), trial)


def _same_answers(g, ref):
    """g decides as ref, the same edges with no blocks, and whatever g's
    blocks produced validates on g; a cycle found from the blocks may differ
    from ref's, and validates on ref's edges."""
    assert is_connected(g) == is_connected(ref)
    assert min(g.degrees(), default=None) == min(ref.degrees(), default=None)
    assert fvcn_value(g) == fvcn_value(ref)
    verdict, want = classify(g, budget=2000, posa_restarts=2), classify(ref, budget=2000, posa_restarts=2)
    assert (verdict.status, verdict.obstruction) == (want.status, want.obstruction)
    assert verdict.witness is None or validate_cycle(ref, verdict.witness)
    cover = g._type_cover
    if cover is not None:
        cover.validate(g)
        assert isinstance(cover, GraphPeninsula) == (2 * cover.weight < g.n)
        assert cover.weight >= fvcn_value(ref)
        if g._blocks.complete:
            assert cover.weight == fvcn_value(ref)
    assert _type_connected(g) in (None, is_connected(ref))


def _zero_one(s) -> bool:
    return all(d in (0, 1) for row in s.model.densities for d in row)


def _with_blocks(n, edges, block):
    return replace(FiniteGraph.build(n, edges), _types=block)


def test_type_hint_answers_as_the_graph_does():
    """A sample's graph carries its blocks exactly when the kernel is a step
    kernel.  A 0/1 kernel's sample is complete, the blow-up of its occupied
    block graph, and on a complete graph the blocks decide fvcn and
    connectivity outright."""
    for s in _hinted_samples():
        g, ref = s.to_finite_graph(), FiniteGraph.build(s.n, s.edges)
        assert g._types is s.type_block and ref._types is None
        _same_answers(g, ref)
        assert (g._type_cover is None) == (s.type_block is None)
        if s.type_block is not None:
            complete = g._blocks.complete
            assert complete or not _zero_one(s)
            assert _type_connected(g) is not None or not complete


def _mutated(block, wrong, rng):
    """A partition of the vertices that is not the sample's blocks."""
    k = int(block.max()) + 1
    if wrong == "shuffled":
        return rng.permutation(block)
    if wrong == "merged":  # block a joins block b; no change when k = 1
        a, b = rng.choice(k, size=2, replace=k < 2)
        return np.where(block == a, b, block)
    if wrong == "one_moved":
        block = block.copy()
        v = rng.integers(len(block))
        block[v] = (block[v] + rng.integers(1, k + 1)) % (k + 1)
        return block
    # "split": half of one block, every other vertex of it, takes a new label
    members = np.flatnonzero(block == rng.choice(block))
    block = block.copy()
    block[members[::2]] = k
    return block


@pytest.mark.parametrize("wrong", ["shuffled", "merged", "one_moved", "split"])
def test_wrong_type_hint_falls_back(wrong):
    """A partition other than the sample's blocks fails its checks on the
    graph, or passes them, and either way gives the graph's own answers.
    Every partition lifts a cover, as every edge lies in an occupied pair.  A
    split block is still a set of twins, so the split partition is never
    wrong: its blocks keep E = F, and every 0/1-kernel sample stays exact."""
    rng = np.random.default_rng(7)
    fell_back = 0
    for s in _hinted_samples():
        if s.type_block is None:
            continue
        g, ref = _with_blocks(s.n, s.edges, _mutated(s.type_block, wrong, rng)), FiniteGraph.build(s.n, s.edges)
        _same_answers(g, ref)
        assert g._type_cover is not None
        fell_back += _zero_one(s) and not g._blocks.complete
    assert fell_back == 0 if wrong == "split" else fell_back >= 10


def _cover_outcome(cover, g):
    try:
        cover.validate(g)
    except AssertionError as e:
        return str(e)
    return None


@pytest.mark.parametrize("hint", ["true", "one_vertex_mislabelled", "zero_to_one"])
def test_block_cover_check_agrees_with_the_edges(hint):
    """On a graph with blocks `HalfCover.validate` accepts and rejects the
    covers the per-edge check does, with its message.  A cover constant on
    the blocks is decided from the block pairs that hold an edge: not from
    the kernel's positive pairs, some of which draw no edge, nor from every
    block pair (`zero_to_one`: each zero of the kernel read as positive)."""
    rng = random.Random(23)
    phantom = 0
    for s in _hinted_samples():
        if s.type_block is None:
            continue
        block = s.type_block.copy()
        k = len(s.model.densities)
        positive = np.array([[d > 0 for d in row] for row in s.model.densities])
        if hint == "one_vertex_mislabelled":
            if k < 2:
                continue
            v = rng.randrange(s.n)
            block[v] = (block[v] + rng.randrange(1, k)) % k
        elif hint == "zero_to_one":
            positive[:] = True
        g, ref = _with_blocks(s.n, s.edges, block), FiniteGraph.build(s.n, s.edges)
        occupied = {(int(block[u]), int(block[v])) for u, v in s.edges.tolist()}
        occupied |= {(b, a) for a, b in occupied}
        units = [np.array([rng.choice(UNITS) for _ in range(s.n)]) for _ in range(2)]
        per_block = [np.array([rng.choice(UNITS) for _ in range(k)]) for _ in range(3)]
        for a in range(k):
            for b in range(a, k):
                h = np.full(k, 2)
                if (a, b) not in occupied:
                    h[[a, b]] = 0  # valid iff (a, a), (b, b) hold no edge either
                elif a == b:
                    h[a] = 0  # leaves exactly the occupied pair (a, a) uncovered
                elif (b, b) not in occupied or (a, a) not in occupied:
                    h[[a, b]] = (1, 0) if (b, b) not in occupied else (0, 1)
                per_block.append(h)
        units += [h[block] for h in per_block]
        for x in units:
            cover = HalfCover(x, Fraction(int(x.sum()), 2))
            outcome = _cover_outcome(cover, ref)
            assert _cover_outcome(cover, g) == outcome
            constant = all(len(set(x[block == c].tolist())) <= 1 for c in range(k))
            assert _covers_blocks(g, x) == (constant and outcome is None)
            h = np.zeros(k, dtype=int)
            h[block] = x
            phantom += outcome is None and constant and bool((h[:, None] + h < 2)[positive].any())
    assert phantom > 0 or hint == "one_vertex_mislabelled"


@pytest.mark.parametrize("change", ["drop", "add"])
def test_completeness_is_checked_not_declared(change):
    """A 0/1-kernel sample with one edge dropped or added keeps its sample's
    blocks but is not complete, and answers as the graph without blocks."""
    rng = random.Random(5)
    for name in ("balanced-bipartite", "bipartite-plus-clique", "narrow-three-block"):
        for n in (10, 60):
            s = sample_graph(get_preset(name), n, 3, 0)
            assert _zero_one(s) and s.to_finite_graph()._blocks.complete
            edges = s.edges.tolist()
            if change == "drop":
                edges.pop(rng.randrange(len(edges)))
            else:
                have = set(map(tuple, edges))
                edges.append(rng.choice([(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in have]))
            g, ref = _with_blocks(n, edges, s.type_block), FiniteGraph.build(n, edges)
            assert not g._blocks.complete
            _same_answers(g, ref)


def _zero_one_kernel(rng, k):
    """A random 0/1 step kernel on k blocks.  A kernel's masses are positive,
    so about one block in three is made so light (1/2000 of the heaviest's
    weight) that it draws no vertex or one even at n = 400; each diagonal is
    joined or empty at random, so such a one-vertex block may be looped."""
    weights = [Fraction(1, 2000) if rng.random() < 0.35 else Fraction(rng.randint(1, 4)) for _ in range(k)]
    masses = tuple(w / sum(weights) for w in weights)
    dens = [[Fraction(0)] * k for _ in range(k)]
    for a in range(k):
        for b in range(a, k):
            dens[a][b] = dens[b][a] = Fraction(rng.random() < 0.6)
    return StepGraphon(masses, tuple(map(tuple, dens)))


def test_blowup_agrees_with_its_edges():
    """A 0/1 kernel's sample is defined by its blocks and the kernel's 0/1
    table.  Its block counts, read off that definition, equal those counted
    on the edges of the reference sampler's whole draw handed the same
    blocks; it answers as that copy does; every witness validates on the
    edges alone; and its edge array, once read, is the reference's."""
    from graphonham.fracmatch import _type_blocks
    from graphonham.hamilton import _tight_trap
    from oracles import sample_graph_reference

    rng = random.Random(32)
    seen = Counter()
    for trial in range(40):
        kernel = _zero_one_kernel(rng, rng.randint(1, 6))
        seed = rng.randrange(1 << 30)
        for n in (1, 2, 3, 7, 40, 400):
            s = sample_graph(kernel, n, seed, trial)
            g, edges = s.to_finite_graph(), sample_graph_reference(kernel, n, seed, trial)
            copy, bare = _with_blocks(n, edges, s.type_block), FiniteGraph.build(n, edges)
            blocks, counted = g._blocks, _type_blocks(copy)
            assert "edge_array" not in vars(g) and copy._ones is None
            assert np.array_equal(blocks.count, counted.count) and blocks.complete and counted.complete
            assert np.array_equal(blocks.occupied, counted.occupied)
            loops, size = blocks.occupied.diagonal(), blocks.count
            ones = np.array([[d == 1 for d in row] for row in kernel.densities])[:len(size), :len(size)]
            seen["empty block"] += (size == 0).any() or len(size) < kernel.k
            seen["one-vertex looped block"] += (ones.diagonal() & (size == 1)).any()
            seen["empty diagonal"] += (~ones.diagonal() & (size >= 2)).any()
            assert not (loops & (size < 2)).any()

            assert is_connected(g) == is_connected(copy) and g.degrees() == copy.degrees() == s.degrees().tolist()
            assert fvcn_value(g) == fvcn_value(copy) == fvcn_value(bare)
            verdict = classify(g, budget=0, posa_restarts=1)
            assert verdict == classify(copy, budget=0, posa_restarts=1)
            assert verdict.witness is None or validate_cycle(bare, verdict.witness)
            if g._type_cover is not None:
                g._type_cover.validate(bare)
            trap = _tight_trap(g) if verdict.status == "unknown" else None
            if trap is not None:
                trap.validate(bare)
                assert trap.B and 2 * trap.weight == n
            assert np.array_equal(g.edge_array, edges) and g.edge_array is s.edges
    assert seen["empty block"] and seen["one-vertex looped block"] and seen["empty diagonal"], seen


@pytest.mark.parametrize("corrupt", ["drop_an_edge", "swap_two_rows"])
def test_a_blowup_built_against_its_definition_raises(monkeypatch, corrupt):
    """The edge array of a graph defined as a blow-up is held to that
    definition when built: one dropped edge changes a block pair's count,
    two swapped rows the canonical order.  Either raises
    `InvariantViolation` on every read of the edges, and no route that
    reads them returns a verdict; the routes that read only the blocks
    still answer."""
    from graphonham import InvariantViolation, fracmatch, posa_heuristic
    from graphonham.sampler import write_graph

    build = fracmatch._blowup_edges

    def broken(ones, block):
        e = build(ones, block)
        return e[1:] if corrupt == "drop_an_edge" else np.asfortranarray(e[[1, 0, *range(2, len(e))]])

    monkeypatch.setattr(fracmatch, "_blowup_edges", broken)
    s = sample_graph(get_preset("bipartite-plus-clique"), 60, 0)
    g = s.to_finite_graph()
    assert classify(g).status == "hamiltonian"  # the block cycle reads no edge
    for read in (lambda: g.edge_array, lambda: s.edges, lambda: posa_heuristic(g),
                 lambda: write_graph(s, "/dev/null")):
        with pytest.raises(InvariantViolation):
            read()
    assert "edge_array" not in vars(g) and "edge_array" not in vars(s.to_finite_graph())


@pytest.mark.parametrize("preset", ["constant-0.3", "power-half"])
@pytest.mark.parametrize("corrupt", ["swap_two_rows", "repeat_an_edge"])
def test_coin_rows_built_against_their_definition_raise(monkeypatch, preset, corrupt):
    """A coin sample's edge array, joined from the rows its coins drew, is
    held to the canonical form when built, as a given array is by `build`:
    two swapped rows or a repeated edge raise `InvariantViolation` on every
    read of the edges, and the rows are kept, never published."""
    from graphonham import InvariantViolation, fracmatch, posa_heuristic

    join = fracmatch._row_edges

    def broken(rowcount, columns):
        e = join(rowcount, columns)
        return np.asfortranarray(e[[1, 0, *range(2, len(e))]] if corrupt == "swap_two_rows" else e[[0, *range(len(e))]])

    monkeypatch.setattr(fracmatch, "_row_edges", broken)
    s = sample_graph(get_preset(preset), 60, 0)
    g = s.to_finite_graph()
    for read in (lambda: s.edges, lambda: s.to_finite_graph().edge_array, lambda: posa_heuristic(g)):
        with pytest.raises(InvariantViolation):
            read()
    assert "edge_array" not in vars(g) and g._rows is not None


def test_a_blowup_sample_has_one_edge_array():
    """A 0/1 kernel's sample and its graph share one edge array, whichever
    of the two is read first."""
    kernel = get_preset("narrow-three-block")
    first = sample_graph(kernel, 60, 5)
    e = first.edges
    assert first.to_finite_graph().edge_array is e and first.edges is e
    second = sample_graph(kernel, 60, 5)
    e = second.to_finite_graph().edge_array
    assert second.edges is e and second.to_finite_graph().edge_array is e
    assert np.array_equal(first.edges, second.edges) and not e.flags.writeable and e.T.flags.c_contiguous


def test_a_narrow_trial_allocates_under_one_int32_column():
    """A trap-campaign trial on a 0/1 kernel builds no edge array: its
    traced allocation peak stays below 4 m bytes, one int32 column."""
    import tracemalloc

    from graphonham import ExperimentConfig, run_trial

    config = ExperimentConfig.from_dict({
        "graphon": "narrow-three-block", "n_values": [400], "trials": 1, "seed": 0, "t": 4,
        "properties": ["connected", "min_degree_ge_2", "hamiltonian", "fvcn_ge_half"],
    })
    run_trial(config, 400, 1)  # imports and the kernel's kept tables
    tracemalloc.start()
    try:
        rec = run_trial(config, 400, 0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rec.error is None and rec.outcomes["ham_obstruction"] == "narrow_graph_peninsula"
    m = int(sample_graph(config.graphon, 400, 0).degrees().sum()) // 2
    assert m > 40_000 and peak < 4 * m


def test_blocks_alone_decide_a_graph_read_from_a_file(tmp_path):
    """The blocks are all a graph needs beside its edges: a sample written to
    a file and read back, then handed its sample's blocks and no kernel, gets
    the sample's own lifted cover and connectivity, both read off the blocks."""
    from graphonham.sampler import load_graph, write_graph

    s = sample_graph(get_preset("narrow-three-block"), 60, 0)
    write_graph(s, str(tmp_path / "g.txt"))
    back, g = replace(load_graph(str(tmp_path / "g.txt")), _types=s.type_block), s.to_finite_graph()
    cover, got = g._type_cover, back._type_cover
    assert isinstance(cover, GraphPeninsula) and g._blocks.complete and back._blocks.complete
    assert np.array_equal(got.units, cover.units) and got.weight == cover.weight
    assert is_connected(back) == is_connected(g)
    assert back.degrees() == s.degrees().tolist()
    assert "indptr" not in vars(back)


def test_full_occupied_pairs_are_proved_exact_whatever_the_kernel():
    """Completeness reads the edges, not the kernel: a sample of a kernel
    with a density strictly between 0 and 1 that holds every vertex pair of
    each block pair it drew an edge in, and no edge in some pair that its
    kernel makes positive, is the blow-up of its occupied block graph, and
    its lifted cover is proved exact."""
    rng = random.Random(43)
    for trial in range(400):
        kernel = random_step_graphon(rng, rng.randint(2, 3), zero_prob=0.3)
        s = sample_graph(kernel, rng.randint(4, 8), rng.randrange(1 << 30), trial)
        g, ref = s.to_finite_graph(), FiniteGraph.build(s.n, s.edges)
        blocks = g._blocks
        count = np.bincount(s.type_block, minlength=kernel.k)
        pairs = np.outer(count, count) - np.diag(count * (count + 1) // 2)
        positive = np.array([[d > 0 for d in row] for row in kernel.densities])
        occupied = np.zeros((kernel.k, kernel.k), dtype=bool)
        occupied[:len(blocks.count), :len(blocks.count)] = blocks.occupied
        if len(s.edges) and not _zero_one(s) and blocks.complete and (positive & (pairs > 0) & ~occupied).any():
            break
    else:
        pytest.fail("no sample full on its occupied pairs and empty on a positive one found")
    assert g._blocks.complete and g._type_cover.weight == fvcn_value(ref)
    assert _type_connected(g) in (None, is_connected(ref))
    _same_answers(g, ref)


def test_complete_fractional_sample_is_proved_exact():
    """Completeness is a fact about the graph, not the kernel: a sample of a
    kernel with a density strictly between 0 and 1 that drew every pair its
    kernel allows is proved exact from its types."""
    rng = random.Random(41)
    for trial in range(400):
        kernel = random_step_graphon(rng, rng.randint(2, 3), zero_prob=0.4)
        s = sample_graph(kernel, rng.randint(3, 6), rng.randrange(1 << 30), trial)
        g, ref = s.to_finite_graph(), FiniteGraph.build(s.n, s.edges)
        if not _zero_one(s) and g._blocks.complete:
            break
    else:
        pytest.fail("no complete sample of a fractional kernel found")
    assert g._blocks.complete and g._type_cover.weight == fvcn_value(ref)
    assert _type_connected(g) == is_connected(ref)
    _same_answers(g, ref)


@pytest.mark.parametrize("corrupt", ["reach_drops_a_right_copy", "phantom_flow", "arc_loses_a_unit"])
def test_a_broken_block_flow_raises(monkeypatch, corrupt):
    """The lifted cover is a certificate the package builds, so a corrupted
    max flow is a bug, never a cover read as unproved: a folded least cut
    missing a right copy (a half-unit less on a block) lifts units that do
    not sum to the flow, a phantom flow of 10^6 on one arc overfills its
    blocks, and an arc that loses a unit leaves arcs that no longer total
    the flow."""
    from graphonham import InvariantViolation, fracmatch

    g = sample_graph(get_preset("narrow-three-block"), 60, 0).to_finite_graph()
    assert classify(g).obstruction == "narrow_graph_peninsula"
    flow_of = fracmatch._cover_flow

    def broken(weights, positive):
        flow, arcs, cut, r = flow_of(weights, positive)
        k = len(weights)
        if corrupt == "reach_drops_a_right_copy":
            cut[cut.index(2)] -= 1  # a block whose right copy alone was reached
        elif corrupt == "arc_loses_a_unit":
            v, x = next((v, x) for v in range(k) for x in range(k) if arcs[v][x])
            arcs[v][x] -= 1
        else:
            v, x = next((v, x) for v in range(k) for x in range(k) if positive[v][x])
            arcs[v][x] += 10 ** 6
        return flow, arcs, cut, r

    monkeypatch.setattr(fracmatch, "_cover_flow", broken)
    with pytest.raises(InvariantViolation):
        classify(sample_graph(get_preset("narrow-three-block"), 60, 0).to_finite_graph())


#: A step kernel with a density strictly between 0 and 1, so its samples
#: take the coin route and carry their blocks: occupied pairs (0, 1),
#: (0, 2), (1, 1) and (2, 2) at n = 60.
COIN_BLOCKS = StepGraphon.build(
    ["2/5", "3/10", "3/10"], [["0", "1/2", "1/2"], ["1/2", "1/2", "0"], ["1/2", "0", "1"]]
)


@pytest.mark.parametrize("route", ["blowup", "coins"])
def test_cover_checks_reject_bad_units_on_a_graph_with_blocks(route):
    """On a 0/1 kernel's blow-up and on a coin sample that carries its
    blocks, the cover checks still reject bad units: `_covers_blocks` units
    constant on the blocks that leave one occupied pair under 2 half-units
    (the edge check then names an edge of that pair) and units not constant
    on a block; `_HalfUnits.validate` a unit of 3, a unit of -1 and a wrong
    weight; `GraphPeninsula.validate` an empty A and a weight above n/2."""
    kernel = get_preset("narrow-three-block") if route == "blowup" else COIN_BLOCKS
    g = sample_graph(kernel, 60, 0).to_finite_graph()
    block, occupied = g._types, g._blocks.occupied
    assert block is not None and (g._ones is not None) == (route == "blowup")
    k = len(occupied)
    pairs = [(a, b) for a in range(k) for b in range(a, k) if occupied[a, b]]
    assert len(pairs) >= 3
    for per in (np.ones(k, dtype=np.int64), np.full(k, 2)):
        assert _covers_blocks(g, per[block])
    checked = 0
    for a, b in pairs:
        per = np.full(k, 2)
        if a == b:
            per[a] = 0
        elif not occupied[a, a]:
            per[a], per[b] = 0, 1
        elif not occupied[b, b]:
            per[a], per[b] = 1, 0
        else:
            continue  # both blocks looped: units constant on them cover (a, b)
        checked += 1
        under = [(x, y) for x, y in pairs if per[x] + per[y] < 2]
        assert under == [(a, b)]
        units = per[block]
        assert not _covers_blocks(g, units)
        with pytest.raises(AssertionError, match="uncovered") as err:
            HalfCover(units, Fraction(int(units.sum()), 2)).validate(g)
        u, v = map(int, str(err.value).split("(")[1].split(")")[0].split(","))
        assert {int(block[u]), int(block[v])} == {a, b}
    assert checked >= 3
    # not constant on a block: a valid cover (checked edge by edge) and an invalid one
    v = int(np.flatnonzero(np.asarray(g.degrees()) > 0)[0])
    for base, changed in ((2, 1), (1, 0)):
        units = np.full(g.n, base)
        units[v] = changed
        assert not _covers_blocks(g, units)
        outcome = _cover_outcome(HalfCover(units, Fraction(int(units.sum()), 2)), g)
        assert (outcome is None) == (base == 2)
    cover = g._type_cover
    for bad, message in ((3, "unit 3 not in"), (-1, "unit -1 not in")):
        units = cover.units.copy()
        units[g.n // 2] = bad
        with pytest.raises(AssertionError, match=message):
            HalfCover(units, Fraction(int(units.sum()), 2)).validate(g)
    with pytest.raises(AssertionError, match="stored weight disagrees"):
        HalfCover(cover.units, cover.weight + HALF).validate(g)
    with pytest.raises(AssertionError, match="A must be nonempty"):
        GraphPeninsula(np.ones(g.n, dtype=np.int64), Fraction(g.n, 2)).validate(g)
    heavy = np.full(g.n, 2)
    heavy[v] = 0  # a valid cover with A = {v}, weighing n - 1
    with pytest.raises(AssertionError, match="exceeds n/2"):
        GraphPeninsula(heavy, Fraction(g.n - 1)).validate(g)


def test_edge_membership_on_a_complete_graph_reads_the_blocks():
    """On a graph its blocks prove complete, a pair is an edge exactly when
    its ends differ and their blocks are occupied: membership agrees with
    the edge set on every pair, off the vertex range and on loops included,
    and builds no CSR."""
    from graphonham.fracmatch import _are_edges

    for name in ("narrow-three-block", "bipartite-plus-clique", "balanced-bipartite"):
        g = sample_graph(get_preset(name), 40, 5).to_finite_graph()
        assert g._blocks.complete
        edges = set(edge_tuples(g))
        a, b = np.meshgrid(np.arange(-2, 42), np.arange(-2, 42))
        a, b = a.ravel(), b.ravel()
        want = [(min(x, y), max(x, y)) in edges for x, y in zip(a.tolist(), b.tolist())]
        assert _are_edges(g, a, b).tolist() == want
        assert "indptr" not in vars(g)


def _per_edge_block_count(g) -> np.ndarray:
    """The k x k count of g's edges per unordered pair of blocks, one edge at a time."""
    k = int(g._types.max()) + 1
    count = np.zeros((k, k), dtype=np.int64)
    for u, v in edge_tuples(g):
        a, b = g._types[u], g._types[v]
        count[a, b] += 1
        if a != b:
            count[b, a] += 1
    return count


@pytest.mark.parametrize("edges", [
    [(i, j) for i in range(6) for j in range(i + 1, 6)],
    [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)],
    [],
], ids=["complete", "path", "edgeless"])
def test_one_block_is_counted_without_a_pass(edges):
    """One block holds every edge, so its count is m and no edge is read:
    the same count, occupancy and completeness as the per-edge count."""
    from graphonham import fracmatch

    g = replace(FiniteGraph.build(6, edges), _types=np.zeros(6, dtype=np.int64))
    ref = _per_edge_block_count(g)
    blocks = fracmatch._type_blocks(g)
    assert blocks.count.tolist() == [6] and np.array_equal(blocks.occupied, ref > 0)
    assert blocks.complete == (ref[0, 0] in (0, 15))
    assert np.array_equal(fracmatch._block_pairs(g._types, 1, g.edge_array), ref)
    # endpoints far off any block array: a pass over them would raise
    assert fracmatch._block_pairs(g._types, 1, np.full((4, 2), 10 ** 6, dtype=np.int32)).tolist() == [[4]]


@pytest.mark.parametrize("units, first_bad", [
    (np.array([0, 2, -1, 3], dtype=np.int8), -1),
    (np.array([1, 3, -1], dtype=np.int64), 3),
    (np.array([2, 0, 255], dtype=np.uint8), 255),
])
def test_half_units_outside_0_to_2_are_named(units, first_bad):
    """The range check that every certificate shares names the first unit outside it."""
    from graphonham.fracmatch import _HalfUnits

    with pytest.raises(AssertionError, match=rf"^unit {first_bad} not in \{{0, 1, 2\}}$"):
        _HalfUnits(units, Fraction(int(units.sum()), 2)).validate(len(units))
    with pytest.raises(AssertionError, match=rf"^unit {first_bad} not in"):
        HalfCover(units, Fraction(int(units.sum()), 2)).validate(FiniteGraph.build(len(units), []))


def test_half_units_0_to_2_pass_in_every_integer_type():
    from graphonham.fracmatch import _HalfUnits

    for dtype in set(np.typecodes["AllInteger"]):
        _HalfUnits(np.array([0, 1, 2, 2, 1], dtype=dtype), Fraction(3)).validate(5)
