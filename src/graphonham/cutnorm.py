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
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Optional, Union

import numpy as np

from .errors import EnumerationCapExceeded, FormatError, InvariantViolation, TypesMissing, _self_checked
from .graphon import ENUMERATION_CAP, StepGraphon
from .sampler import SampledGraph


@dataclass(frozen=True)
class StepFunction:
    """Block masses plus a symmetric matrix of values in [-1, 1]."""

    masses: tuple[Fraction, ...]
    values: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        k = len(self.masses)
        if k < 1:
            raise FormatError("need at least one block", "masses")
        for i, m in enumerate(self.masses):
            if m < 0:
                raise FormatError("block masses must be nonnegative", f"masses[{i}]")
        if sum(self.masses, Fraction(0)) != 1:
            raise FormatError("block masses must sum exactly to 1", "masses")
        if len(self.values) != k:
            raise FormatError(f"value matrix must be {k}x{k}", "values")
        for i, row in enumerate(self.values):
            if len(row) != k:
                raise FormatError(f"row has {len(row)} entries, expected {k}", f"values[{i}]")
            for j, v in enumerate(row):
                if not -1 <= v <= 1:
                    raise FormatError("values must lie in [-1,1]", f"values[{i}][{j}]")
                if self.values[j][i] != v:
                    raise FormatError("value matrix must be symmetric", f"values[{i}][{j}]")

    @property
    def k(self) -> int:
        return len(self.masses)


def step_difference(f: StepGraphon | StepFunction, g: StepGraphon | StepFunction) -> StepFunction:
    """Signed difference f - g on the common refinement of the two partitions."""
    fm = f.block_masses if isinstance(f, StepGraphon) else f.masses
    gm = g.block_masses if isinstance(g, StepGraphon) else g.masses
    fv = f.densities if isinstance(f, StepGraphon) else f.values
    gv = g.densities if isinstance(g, StepGraphon) else g.values
    cells = _refine(fm, gm)
    masses = tuple(c[0] for c in cells)
    vals = tuple(
        tuple(fv[ia][ja] - gv[ib][jb] for (_, ja, jb) in cells) for (_, ia, ib) in cells
    )
    return StepFunction(masses, vals)


def _refine(ma: tuple[Fraction, ...], mb: tuple[Fraction, ...]) -> list[tuple[Fraction, int, int]]:
    """Common refinement cells as (mass, index in a, index in b), zero cells dropped."""
    cells = []
    ia = ib = 0
    ra, rb = ma[0], mb[0]
    while True:
        step = min(ra, rb)
        if step > 0:
            cells.append((step, ia, ib))
        ra -= step
        rb -= step
        if ra == 0:
            ia += 1
            if ia == len(ma):
                break
            ra = ma[ia]
        if rb == 0:
            ib += 1
            if ib == len(mb):
                break
            rb = mb[ib]
    if sum(c[0] for c in cells) != 1:
        raise InvariantViolation("refinement cells do not sum to mass 1")
    return cells


@dataclass(frozen=True)
class CutNormResult:
    value: Fraction
    S: tuple[int, ...]
    T: tuple[int, ...]


def _scaled_integer_matrix(f: StepFunction) -> tuple[list[list[int]], int]:
    entries = [
        f.masses[i] * f.masses[j] * f.values[i][j] for i in range(f.k) for j in range(f.k)
    ]
    scale = lcm(*[e.denominator for e in entries])
    mat = [
        [int(f.masses[i] * f.masses[j] * f.values[i][j] * scale) for j in range(f.k)]
        for i in range(f.k)
    ]
    return mat, scale


def evaluate_box(f: StepFunction, S, T) -> Fraction:
    """|sum over S x T of mass_i * mass_j * value_ij|, exact."""
    total = Fraction(0)
    for i in S:
        for j in T:
            total += f.masses[i] * f.masses[j] * f.values[i][j]
    return abs(total)


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
    w = np.array(
        [[float(f.masses[i] * f.masses[j] * f.values[i][j]) for j in range(k)] for i in range(k)]
    )
    rng = random.Random(seed)
    starts = [np.ones(k, dtype=bool), np.zeros(k, dtype=bool)]
    for i in range(k):
        e = np.zeros(k, dtype=bool)
        e[i] = True
        starts.append(e)
    for _ in range(restarts):
        starts.append(np.array([rng.random() < 0.5 for _ in range(k)]))
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
    g = graph.model
    k = g.k
    counts = np.bincount(graph.type_block, minlength=k)
    pair_counts = np.zeros((k, k), dtype=np.int64)
    if len(graph.edges):
        bu = graph.type_block[graph.edges[:, 0]]
        bv = graph.type_block[graph.edges[:, 1]]
        np.add.at(pair_counts, (bu, bv), 1)
        np.add.at(pair_counts, (bv, bu), 1)  # diagonal gets 2 per within-edge
    n = graph.n
    masses = tuple(Fraction(int(c), n) for c in counts)
    dens = []
    for i in range(k):
        row = []
        for j in range(k):
            if i == j:
                denom = int(counts[i]) * (int(counts[i]) - 1)
            else:
                denom = int(counts[i]) * int(counts[j])
            row.append(Fraction(int(pair_counts[i][j]), denom) if denom else Fraction(0))
        dens.append(tuple(row))
    return StepFunction(masses, tuple(dens))


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
    upper = sum(
        (
            diff.masses[i] * diff.masses[j] * abs(diff.values[i][j])
            for i in range(diff.k)
            for j in range(diff.k)
        ),
        Fraction(0),
    )
    return _self_checked(DistanceEstimate(witness.value, upper, witness))
