import random
from fractions import Fraction

import pytest

from graphonham import (
    CutNormResult,
    DistanceEstimate,
    EnumerationCapExceeded,
    FormatError,
    InvariantViolation,
    StepFunction,
    StepGraphon,
    TypesMissing,
    cut_norm_exact,
    cut_norm_heuristic,
    sample_distance,
    sample_graph,
    step_difference,
)
from graphonham.cutnorm import _refine, empirical_step_function, evaluate_box
from conftest import random_step_graphon
from oracles import cut_norm_subset_oracle, empirical_step_function_reference, refine_reference

F = Fraction


def random_step_function(rng, k):
    masses = [rng.randrange(1, 6) for _ in range(k)]
    tot = sum(masses)
    masses = [F(m, tot) for m in masses]
    vals = [[F(0)] * k for _ in range(k)]
    for i in range(k):
        for j in range(i, k):
            v = F(rng.randrange(-16, 17), 16)
            vals[i][j] = vals[j][i] = v
    return StepFunction(tuple(masses), tuple(tuple(r) for r in vals))


class TestExact:
    def test_zero_function(self):
        f = StepFunction((F(1),), ((F(0),),))
        assert cut_norm_exact(f).value == 0

    def test_single_block(self):
        f = StepFunction((F(1),), ((F(-3, 5),),))
        r = cut_norm_exact(f)
        assert r.value == F(3, 5) and r.S == (0,) and r.T == (0,)

    def test_off_diagonal_pair(self):
        c = F(2, 3)
        f = StepFunction((F(1, 2), F(1, 2)), ((F(0), c), (c, F(0))))
        r = cut_norm_exact(f)
        assert r.value == c / 2
        assert evaluate_box(f, r.S, r.T) == r.value

    def test_matches_subset_oracle(self, rng):
        for _ in range(80):
            f = random_step_function(rng, rng.randrange(1, 6))
            assert cut_norm_exact(f).value == cut_norm_subset_oracle(f)

    def test_cap(self):
        k = 25
        f = StepFunction(
            tuple([F(1, k)] * k), tuple(tuple(F(0) for _ in range(k)) for _ in range(k))
        )
        with pytest.raises(EnumerationCapExceeded):
            cut_norm_exact(f)

    def test_asymmetric_rejected(self):
        with pytest.raises(FormatError, match=r"values\[0\]\[1\]"):
            StepFunction((F(1, 2), F(1, 2)), ((F(0), F(1)), (F(0), F(0))))


class TestHeuristic:
    def test_lower_bound_and_near_exact(self, rng):
        hits = 0
        for trial in range(60):
            f = random_step_function(rng, rng.randrange(1, 13))
            exact = cut_norm_exact(f).value
            h = cut_norm_heuristic(f, restarts=50, seed=trial)
            assert h.value <= exact
            assert evaluate_box(f, h.S, h.T) == h.value
            if h.value == exact:
                hits += 1
        assert hits >= 57  # equality on at least 95% of instances

    def test_rank_one_positive_found_immediately(self):
        f = StepFunction(
            (F(1, 2), F(1, 2)), ((F(1, 2), F(1, 4)), (F(1, 4), F(1, 8)))
        )
        r = cut_norm_heuristic(f, restarts=0, seed=0)
        assert r.S == (0, 1) and r.T == (0, 1)
        assert r.value == cut_norm_exact(f).value

    def test_box_relaxation_never_beats_subset_optimum(self, rng):
        # fractional memberships on a 1/32 grid, sign-greedy response:
        # bilinear objective, so the box optimum sits at a subset pair
        for _ in range(15):
            k = rng.randrange(1, 6)
            f = random_step_function(rng, k)
            exact = cut_norm_exact(f).value
            w = [
                [f.masses[i] * f.masses[j] * f.values[i][j] for j in range(k)]
                for i in range(k)
            ]
            for _ in range(300):
                s = [F(rng.randrange(0, 33), 32) for _ in range(k)]
                col = [sum(s[i] * w[i][j] for i in range(k)) for j in range(k)]
                pos = sum(c for c in col if c > 0)
                neg = -sum(c for c in col if c < 0)
                assert max(pos, neg) <= exact


class TestSampleDistance:
    def test_complete_sample_of_constant_one(self):
        one = StepGraphon.constant("1")
        g = sample_graph(one, 40, seed=3)
        est = sample_distance(g, one)
        assert est.upper <= F(2, 40)

    def test_mismatched_models_far_apart(self):
        one = StepGraphon.constant("1")
        zero = StepGraphon.constant("0")
        g = sample_graph(one, 50, seed=4)
        est = sample_distance(g, zero)
        assert est.lower >= F(9, 10)

    def test_bad_estimate_passed_in_fails_validate(self):
        est = DistanceEstimate(F(1, 2), F(1, 4), CutNormResult(F(1, 2), (0,), (0,)))
        with pytest.raises(AssertionError, match="out of order"):
            est.validate()

    def test_bad_estimate_built_here_is_an_invariant_violation(self, monkeypatch):
        from graphonham import cutnorm

        one = StepGraphon.constant("1")
        g = sample_graph(one, 20, seed=3)
        # a lower bound of 2 exceeds any L1 distance between kernels in [0, 1]
        monkeypatch.setattr(cutnorm, "cut_norm_heuristic", lambda diff, **kw: CutNormResult(F(2), (0,), (0,)))
        with pytest.raises(InvariantViolation, match="DistanceEstimate"):
            sample_distance(g, one)

    def test_self_distance_zero(self):
        u = StepGraphon.build(["1/2", "1/2"], [["0", "1"], ["1", "0"]])
        assert cut_norm_exact(step_difference(u, u)).value == 0

    def test_types_required(self):
        from graphonham import PowerFamilyGraphon

        pw = PowerFamilyGraphon.build("1/2")
        g = sample_graph(pw, 30, seed=1)
        with pytest.raises(TypesMissing):
            sample_distance(g, StepGraphon.constant("1/2"))

    def test_half_constant_upper_small(self):
        half = StepGraphon.constant("1/2")
        g = sample_graph(half, 600, seed=8)
        est = sample_distance(g, half)
        assert est.lower <= est.upper <= F(1, 20)

    def test_refinement_handles_distinct_partitions(self):
        a = StepGraphon.build(["1/3", "2/3"], [["1", "0"], ["0", "1"]])
        b = StepGraphon.build(["1/2", "1/2"], [["1", "0"], ["0", "1"]])
        d = step_difference(a, b)
        assert sum(d.masses, F(0)) == 1
        # cells [0,1/3), [1/3,1/2), [1/2,1): kernels disagree where the middle
        # band meets the outer ones; the best box takes both +1 rectangles
        # between the last two cells, S = T = {middle, top}
        assert cut_norm_exact(d).value == F(1, 6) == cut_norm_subset_oracle(d)


# ---------------------------------------------------------------------------
# step functions: shared checks, weights, refinement, empirical densities

# (masses, matrix, position); "M" stands for the matrix's name
MALFORMED = [
    ([], [], "masses"),
    (["-1/2", "3/2"], [["0", "0"], ["0", "0"]], "masses[0]"),
    (["1/2", "1/3"], [["0", "0"], ["0", "0"]], "masses"),
    (["1/2", "1/2"], [["0", "0"]], "M"),
    (["1/2", "1/2"], [["0", "0"], ["0"]], "M[1]"),
    # a short later row: StepFunction once raised IndexError here
    (["1/3"] * 3, [["0"] * 3, ["0"] * 3, ["0"]], "M[2]"),
    (["1/2", "1/2"], [["0", "2"], ["2", "0"]], "M[0][1]"),
    (["1/2", "1/2"], [["0", "0"], ["0", "-2"]], "M[1][1]"),
    (["1/2", "1/2"], [["0", "1"], ["0", "0"]], "M[0][1]"),
    # every row and range is checked before symmetry
    (["1/3"] * 3, [["0", "1", "0"], ["0", "0", "0"], ["0", "0", "2"]], "M[2][2]"),
    (["1/3"] * 3, [["0", "1", "0"], ["0", "0", "0"], ["0", "0"]], "M[2]"),
]


@pytest.mark.parametrize("masses, matrix, position", MALFORMED)
def test_kernel_and_signed_function_reject_alike(masses, matrix, position):
    with pytest.raises(FormatError) as kernel:
        StepGraphon.build(masses, matrix)
    with pytest.raises(FormatError) as signed:
        StepFunction(tuple(F(m) for m in masses), tuple(tuple(F(v) for v in row) for row in matrix))
    assert kernel.value.position == position.replace("M", "densities")
    assert signed.value.position == position.replace("M", "values")


def test_signs_only_a_signed_function_allows():
    masses, matrix = ("0", "1"), (("-1/2", "0"), ("0", "1"))
    f = StepFunction(tuple(map(F, masses)), tuple(tuple(map(F, row)) for row in matrix))
    assert f.k == 2
    with pytest.raises(FormatError, match="strictly positive") as exc:
        StepGraphon.build(masses, matrix)
    assert exc.value.position == "masses[0]"
    with pytest.raises(FormatError, match=r"\[0,1\]") as exc:
        StepGraphon.build(("1/2", "1/2"), matrix)
    assert exc.value.position == "densities[0][0]"


def test_weights_are_the_mass_weighted_values(rng):
    for k in range(1, 6):
        f = random_step_function(rng, k)
        assert f.weights == tuple(
            tuple(f.masses[i] * f.masses[j] * f.values[i][j] for j in range(k)) for i in range(k)
        )
        assert f.weights is f.weights


def _outcome(fn, *args):
    try:
        return fn(*args)
    except InvariantViolation as exc:
        return str(exc)


def test_refine_matches_the_two_pointer_walk(rng):
    for _ in range(400):
        a = [rng.choice([0, 0, 1, 2, 3]) for _ in range(rng.randrange(1, 7))]
        b = [rng.choice([0, 0, 1, 2, 3]) for _ in range(rng.randrange(1, 7))]
        a[rng.randrange(len(a))] += 1
        b[rng.randrange(len(b))] += 1
        ma, mb = tuple(F(x, sum(a)) for x in a), tuple(F(x, sum(b)) for x in b)
        assert repr(_refine(ma, mb)) == repr(refine_reference(ma, mb))
        # totals other than 1: both cut at the shorter one and self-check alike
        for short in (tuple(F(x, sum(b) + 1) for x in b), tuple(F(x, sum(b) - 1) for x in b if sum(b) > 1)):
            if short:
                assert repr(_outcome(_refine, ma, short)) == repr(_outcome(refine_reference, ma, short))


def test_empirical_step_function_matches_the_per_cell_loop(rng):
    empty = singleton = 0
    for trial in range(40):
        g = random_step_graphon(rng, rng.randrange(1, 7))
        for n in (1, 2, 3, 9, 40):
            s = sample_graph(g, n, trial, n)
            got = empirical_step_function(s)
            assert repr(got) == repr(empirical_step_function_reference(s))
            empty += 0 in got.masses
            singleton += F(1, n) in got.masses
    assert empty and singleton  # empty type classes and loopless 1-vertex cells


#: A 0/1 kernel whose top block, of mass 10^-12, draws no vertex at n <= 400:
#: the graph's block counts then cover one block fewer than the model.
EMPTY_TOP_BLOCK = StepGraphon.build(
    ["1/2", "499999999999/1000000000000", "1/1000000000000"],
    [["0", "1", "1"], ["1", "1", "0"], ["1", "0", "0"]],
)


@pytest.mark.parametrize("name", ["balanced-bipartite", "bipartite-plus-clique", "narrow-three-block", "empty-top-block"])
def test_empirical_step_function_reads_the_graphs_block_counts(name):
    """The empirical densities are the sample's own block counts, padded to
    the model's k when the top block draws no vertex: on every 0/1 preset
    and on a kernel whose top block is empty they equal the per-cell loop,
    and a 0/1 kernel's sample reads them off its definition, with no edge
    array built."""
    from graphonham import get_preset

    kernel = EMPTY_TOP_BLOCK if name == "empty-top-block" else get_preset(name)
    for n, trial in [(1, 0), (2, 1), (7, 2), (40, 3), (400, 4)]:
        s = sample_graph(kernel, n, 9, trial)
        got = empirical_step_function(s)
        assert "edge_array" not in vars(s.to_finite_graph())
        if name == "empty-top-block":
            assert len(s.to_finite_graph()._blocks.count) < kernel.k
        assert repr(got) == repr(empirical_step_function_reference(s))
