"""Cut norm of signed step functions and graph-to-model cut distance.

For a step function the supremum over measurable set pairs is attained on
unions of blocks (the objective is bilinear in the per-block fractions, so
the box optimum sits at a 0/1 corner).  The exact routine therefore scans
subset pairs with integer arithmetic; the heuristic does alternating
sign-greedy maximization in floats and exactly re-scores its witness, so it
is always a certified lower bound.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate
from math import lcm
from typing import Optional

import numpy as np

from .errors import EnumerationCapExceeded, InvariantViolation, TypesMissing, _self_checked
from .graphon import ENUMERATION_CAP, StepGraphon, _check_step
from .sampler import SampledGraph


@dataclass(frozen=True)
class StepFunction:
    """Block masses plus a symmetric matrix of values in [-1, 1]."""

    masses: tuple[Fraction, ...]
    values: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        _check_step(self.masses, self.values, -1, "values", "value")

    @property
    def k(self) -> int:
        return len(self.masses)

    @cached_property
    def weights(self) -> tuple[tuple[Fraction, ...], ...]:
        """The mass-weighted values m_i * m_j * f_ij, built on first use and kept."""
        return tuple(
            tuple(mi * mj * v for mj, v in zip(self.masses, row))
            for mi, row in zip(self.masses, self.values)
        )


def step_difference(f: StepGraphon | StepFunction, g: StepGraphon | StepFunction) -> StepFunction:
    """Signed difference f - g on the common refinement of the two partitions."""
    fm, fv = (f.block_masses, f.densities) if isinstance(f, StepGraphon) else (f.masses, f.values)
    gm, gv = (g.block_masses, g.densities) if isinstance(g, StepGraphon) else (g.masses, g.values)
    cells = _refine(fm, gm)
    masses = tuple(c[0] for c in cells)
    vals = tuple(
        tuple(fv[ia][ja] - gv[ib][jb] for (_, ja, jb) in cells) for (_, ia, ib) in cells
    )
    return StepFunction(masses, vals)


def _refine(ma: tuple[Fraction, ...], mb: tuple[Fraction, ...]) -> list[tuple[Fraction, int, int]]:
    """Common refinement cells as (mass, index in a, index in b), zero cells dropped.

    The cells lie between consecutive cumulative cuts of either partition, up
    to the end of the shorter one; a cell starting at x lies in the first
    block of each partition that ends after x.
    """
    ends_a, ends_b = list(accumulate(ma)), list(accumulate(mb))
    cuts = sorted({Fraction(0), *ends_a, *ends_b})
    end = min(ends_a[-1], ends_b[-1])
    cells = [
        (hi - lo, bisect_right(ends_a, lo), bisect_right(ends_b, lo))
        for lo, hi in zip(cuts, cuts[1:])
        if hi <= end
    ]
    if sum(c[0] for c in cells) != 1:
        raise InvariantViolation("refinement cells do not sum to mass 1")
    return cells


@dataclass(frozen=True)
class CutNormResult:
    value: Fraction
    S: tuple[int, ...]
    T: tuple[int, ...]


def _scaled_integer_matrix(f: StepFunction) -> tuple[list[list[int]], int]:
    scale = lcm(*[e.denominator for row in f.weights for e in row])
    return [[int(e * scale) for e in row] for row in f.weights], scale


def evaluate_box(f: StepFunction, S, T) -> Fraction:
    """|sum over S x T of mass_i * mass_j * value_ij|, exact."""
    w = f.weights
    return abs(sum((w[i][j] for i in S for j in T), Fraction(0)))


def cut_norm_exact(f: StepFunction) -> CutNormResult:
    """Exact cut norm by scanning row subsets with greedy sign-split columns.

    For a fixed S the optimal T collects the columns whose partial sums share
    a sign, so only the 2^k subsets S need enumeration.  Gray-code order keeps
    the column sums incremental; all arithmetic is integer after scaling.
    """
    k = f.k
    if k > ENUMERATION_CAP:
        raise EnumerationCapExceeded(f"k={k} exceeds enumeration cap {ENUMERATION_CAP}")
    mat, scale = _scaled_integer_matrix(f)
    cols = [0] * k
    best = (0, 0)  # (value, smask)
    smask = 0
    for g in range(1, 1 << k):
        gray = g ^ (g >> 1)
        bit = (gray ^ smask).bit_length() - 1
        sign = 1 if (gray >> bit) & 1 else -1
        row = mat[bit]
        for j in range(k):
            cols[j] += sign * row[j]
        smask = gray
        pos = sum(c for c in cols if c > 0)
        neg = -sum(c for c in cols if c < 0)
        val = max(pos, neg)
        if val > best[0]:
            best = (val, smask, pos >= neg)
    if best[0] == 0:
        return CutNormResult(Fraction(0), (), ())
    _, bmask, positive = best
    S = tuple(i for i in range(k) if (bmask >> i) & 1)
    cols = [sum(mat[i][j] for i in S) for j in range(k)]
    T = tuple(j for j in range(k) if (cols[j] > 0 if positive else cols[j] < 0))
    value = Fraction(best[0], scale)
    if evaluate_box(f, S, T) != value:
        raise InvariantViolation(f"witness box does not re-score to the cut norm {value}")
    return CutNormResult(value, S, T)


def cut_norm_heuristic(
    f: StepFunction, restarts: int = 50, seed: int = 0
) -> CutNormResult:
    """Alternating maximization lower bound with an exactly re-scored witness.

    Fix S, pick T sign-greedily (closed form), swap roles, iterate to a
    fixpoint; repeat from deterministic plus random starts.  The returned
    value is evaluate_box of the best witness, hence never exceeds the exact
    cut norm.
    """
    k = f.k
    w = np.array([[float(e) for e in row] for row in f.weights])
    rng = random.Random(seed)
    starts = [np.ones(k, dtype=bool), np.zeros(k, dtype=bool), *np.eye(k, dtype=bool)]
    starts += [np.array([rng.random() < 0.5 for _ in range(k)]) for _ in range(restarts)]
    best: Optional[tuple[Fraction, tuple, tuple]] = None
    for s in starts:
        s = s.copy()
        for _ in range(2 * k + 4):
            colsum = w[s].sum(axis=0) if s.any() else np.zeros(k)
            pos, neg = colsum[colsum > 0].sum(), -colsum[colsum < 0].sum()
            t = colsum > 0 if pos >= neg else colsum < 0
            rowsum = w[:, t].sum(axis=1) if t.any() else np.zeros(k)
            rpos, rneg = rowsum[rowsum > 0].sum(), -rowsum[rowsum < 0].sum()
            s_new = rowsum > 0 if rpos >= rneg else rowsum < 0
            if (s_new == s).all():
                break
            s = s_new
        S = tuple(np.flatnonzero(s).tolist())
        T = tuple(np.flatnonzero(t).tolist())
        val = evaluate_box(f, S, T)
        cand = (val, S, T)
        if best is None or val > best[0] or (val == best[0] and (S, T) < (best[1], best[2])):
            best = cand
    return CutNormResult(best[0], best[1], best[2])


# ---------------------------------------------------------------------------
# sampled graph vs model


@dataclass(frozen=True)
class DistanceEstimate:
    lower: Fraction      # certified by a witness set pair
    upper: Fraction      # L1 bound on the block-aligned difference
    witness: CutNormResult

    def validate(self) -> None:
        if not 0 <= self.lower <= self.upper:
            raise AssertionError(f"distance bounds out of order: {self.lower} > {self.upper}")


def empirical_step_function(graph: SampledGraph) -> StepFunction:
    """Type-aligned empirical block densities of a sampled graph.

    Blocks are the latent type classes (empty classes drop out); densities
    are exact edge-count ratios, loopless on the diagonal.
    """
    if graph.type_block is None:
        raise TypesMissing("sampled graph does not carry block types")
    k = graph.model.k
    counts = np.bincount(graph.type_block, minlength=k)
    # each edge once at (block u, block v) and once transposed, so a
    # within-block edge counts twice on the diagonal
    ends = graph.type_block[graph.edges]
    pairs = np.bincount(ends[:, 0] * k + ends[:, 1], minlength=k * k).reshape(k, k)
    pairs = pairs + pairs.T
    # ordered vertex pairs per cell, loopless on the diagonal
    denoms = np.outer(counts, counts) - np.diag(counts)
    masses = tuple(Fraction(c, graph.n) for c in counts.tolist())
    dens = tuple(
        tuple(Fraction(p, d) if d else Fraction(0) for p, d in zip(prow, drow))
        for prow, drow in zip(pairs.tolist(), denoms.tolist())
    )
    return StepFunction(masses, dens)


def sample_distance(graph: SampledGraph, g: StepGraphon) -> DistanceEstimate:
    """Lower/upper estimate of the cut distance between a sample and its model.

    Types are retained by the sampler, so the alignment between type classes
    and model blocks is known and no optimization over rearrangements is
    needed.  Lower bound: heuristic cut norm of the aligned difference with
    exact re-scoring.  Upper bound: the L1 norm of the same difference.
    """
    emp = empirical_step_function(graph)
    diff = step_difference(emp, g)
    witness = cut_norm_heuristic(diff, restarts=50, seed=0)
    upper = sum((abs(e) for row in diff.weights for e in row), Fraction(0))
    return _self_checked(DistanceEstimate(witness.value, upper, witness))
