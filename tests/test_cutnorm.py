import random
from fractions import Fraction

import pytest

from graphonham import (
    EnumerationCapExceeded,
    FormatError,
    StepFunction,
    StepGraphon,
    TypesMissing,
    cut_norm_exact,
    cut_norm_heuristic,
    sample_distance,
    sample_graph,
    step_difference,
)
from graphonham.cutnorm import evaluate_box
from oracles import cut_norm_subset_oracle

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
