import random
import warnings
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
    fmn_half,
    fvcn_half,
    fvcn_value,
    get_preset,
    graph_peninsula,
    half_integral_perfect_matching,
    is_bipartite,
    sample_graph,
    uniquely_half_covered,
)
from conftest import random_graph
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
    def test_c5_perfect(self):
        m = half_integral_perfect_matching(cycle(5))
        assert m is not None and all(v == HALF for v in m.values)

    def test_k34_none(self):
        assert half_integral_perfect_matching(complete_bipartite(3, 4)) is None

    def test_k2(self):
        assert half_integral_perfect_matching(FiniteGraph.build(2, [(0, 1)])).weight == 1

    def test_uhc_implies_nonbipartite_and_perfect(self, rng):
        seen = 0
        while seen < 60:
            g = random_graph(rng, rng.randrange(3, 13), rng.choice([0.4, 0.6, 0.8]))
            if not uniquely_half_covered(g)[0]:
                continue
            seen += 1
            assert not is_bipartite(g)
            m = half_integral_perfect_matching(g)
            assert m is not None
            m.validate(g)

    def test_bipartite_detector(self):
        assert is_bipartite(complete_bipartite(3, 3))
        assert not is_bipartite(cycle(5))

    def test_bipartite_matches_two_colouring(self, rng):
        shapes = set()
        for _ in range(1500):
            n = rng.randrange(0, 16)
            g = random_graph(rng, n, rng.choice([0.05, 0.1, 0.2, 0.35, 0.6]))
            want = is_bipartite_reference(g)
            assert is_bipartite(g) == want, edge_tuples(g)
            if n <= 1:
                shapes.add(f"n={n}")
                continue
            if 0 in g.degrees():
                shapes.add(f"isolated {want}")
            if -1 in bfs_reference(g.indptr.tolist(), g.indices.tolist(), [0])[0]:
                shapes.add(f"several components {want}")
        # an odd cycle in one component only, beside a bipartite one
        assert not is_bipartite(FiniteGraph.build(7, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (5, 6)]))
        assert shapes == {"n=0", "n=1", "isolated True", "isolated False",
                          "several components True", "several components False"}


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


@pytest.mark.parametrize("pairs", [
    [(0, 1), (1, 2), (2, 5)],
    [(-1, 2), (0, 1)],
    [(0, 1), (3, 3)],
    [(0, 1), (0, 1), (2, 3)],
    [(0, 2), (0, 1)],
    [(1, 0), (2, 3)],
    [(0, 3), (1, 2), (0, 4)],
])
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
    assert e.flags.writeable and not g.edge_array.flags.writeable
    e.flags.writeable = False
    assert FiniteGraph.build(3, e).edge_array is e
    for edges in ([(0, 1)], np.array([(1, 0)], dtype=np.int64), np.zeros((0, 2), dtype=np.int32)):
        assert not FiniteGraph.build(3, edges).edge_array.flags.writeable


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
