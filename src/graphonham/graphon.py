"""Step graphons, a parametric analytic family, and their structural analysis.

A step graphon is a symmetric block-density kernel: block masses summing to
one plus a symmetric density matrix, all exact rationals.  The analyzers
decide connectivity, the low-degree tail behaviour, existence of peninsulae
(density-zero traps A, B with kernel 0 on A x (A u B)), and the exact balanced
bipartite split, each with an independently re-validatable certificate.

All verdicts are equality-sensitive (is this density exactly zero? does this
mass equal exactly 1/2?), hence exact rational arithmetic everywhere.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

from .errors import EnumerationCapExceeded, FormatError, InvariantViolation, _self_checked

HALF = Fraction(1, 2)

#: Cap on the exponent of the two exact scans left: the 2^c flips of the c
#: components `check_exact_bipartite_split` orients, and the 2^k row subsets
#: of `cutnorm.cut_norm_exact`.  Beyond it they raise `EnumerationCapExceeded`.
ENUMERATION_CAP = 24


def _frac(value, position: str) -> Fraction:
    try:
        if isinstance(value, float):
            raise FormatError("floats are not accepted, use fraction or decimal strings", position)
        return Fraction(str(value))
    except (ValueError, ZeroDivisionError):
        raise FormatError(f"cannot parse {value!r} as a rational", position) from None


def _int(value, position: str) -> int:
    """A JSON integer, or a string holding one; never a bool or a float."""
    if isinstance(value, str):
        try:
            return int(value)
        except ValueError:
            pass
    elif isinstance(value, int) and not isinstance(value, bool):
        return value
    raise FormatError(f"expected an integer, got {value!r}", position)


def _list(value, position: str) -> list:
    """A JSON list."""
    if not isinstance(value, list):
        raise FormatError(f"expected a list, got {value!r}", position)
    return value


# ---------------------------------------------------------------------------
# models


def _check_step(masses, matrix, low: int, name: str, noun: str) -> None:
    """Raise `FormatError` at the first fault of a step function: masses
    (positive for a kernel, `low` 0; nonnegative for a signed one, `low` -1)
    summing to 1, then every row and entry range of the k x k matrix, then
    symmetry."""
    k = len(masses)
    if k < 1:
        raise FormatError("need at least one block", "masses")
    for i, m in enumerate(masses):
        if m < 0 or (m == 0 and low == 0):
            sign = "strictly positive" if low == 0 else "nonnegative"
            raise FormatError(f"block masses must be {sign}", f"masses[{i}]")
    if sum(masses, Fraction(0)) != 1:
        raise FormatError("block masses must sum exactly to 1", "masses")
    if len(matrix) != k:
        raise FormatError(f"{noun} matrix must be {k}x{k}", name)
    for i, row in enumerate(matrix):
        if len(row) != k:
            raise FormatError(f"row has {len(row)} entries, expected {k}", f"{name}[{i}]")
        for j, d in enumerate(row):
            if not low <= d <= 1:
                raise FormatError(f"{name} must lie in [{low},1]", f"{name}[{i}][{j}]")
    for i in range(k):
        for j in range(i + 1, k):
            if matrix[i][j] != matrix[j][i]:
                raise FormatError(f"{noun} matrix must be symmetric", f"{name}[{i}][{j}]")


@dataclass(frozen=True)
class StepGraphon:
    """Block masses (positive rationals summing to 1) + symmetric densities."""

    block_masses: tuple[Fraction, ...]
    densities: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        _check_step(self.block_masses, self.densities, 0, "densities", "density")

    @property
    def k(self) -> int:
        return len(self.block_masses)

    @staticmethod
    def build(masses, densities) -> "StepGraphon":
        ms = tuple(_frac(m, f"masses[{i}]") for i, m in enumerate(masses))
        ds = tuple(
            tuple(_frac(d, f"densities[{i}][{j}]") for j, d in enumerate(row))
            for i, row in enumerate(densities)
        )
        return StepGraphon(ms, ds)

    @staticmethod
    def constant(p) -> "StepGraphon":
        return StepGraphon.build(["1"], [[p]])

    def block_degrees(self) -> tuple[Fraction, ...]:
        return tuple(
            sum((self.block_masses[j] * self.densities[i][j] for j in range(self.k)), Fraction(0))
            for i in range(self.k)
        )

    def to_dict(self) -> dict:
        return {
            "kind": "step",
            "masses": [str(m) for m in self.block_masses],
            "densities": [[str(d) for d in row] for row in self.densities],
        }


@dataclass(frozen=True)
class PowerFamilyGraphon:
    """The kernel (x*y)**beta on [0,1]^2, beta a positive rational.

    Its degree function is x**beta / (beta + 1), so the low-degree tail
    sharpens or fattens with beta; it straddles the tail-condition boundary
    at beta = 1.
    """

    beta: Fraction

    def __post_init__(self):
        if self.beta <= 0:
            raise FormatError("beta must be positive", "beta")

    @staticmethod
    def build(beta) -> "PowerFamilyGraphon":
        return PowerFamilyGraphon(_frac(beta, "beta"))

    def degree_at(self, x):
        """Kernel degree at position x, a float or an array of them."""
        return x ** float(self.beta) / (float(self.beta) + 1.0)

    def to_dict(self) -> dict:
        return {"kind": "power", "beta": str(self.beta)}


Graphon = Union[StepGraphon, PowerFamilyGraphon]


def load_graphon(payload: Union[dict, str]) -> Graphon:
    """Parse a graphon description payload (dict) or JSON text."""
    if isinstance(payload, str):
        try:
            payload = json.loads(payload)
        except json.JSONDecodeError as exc:
            raise FormatError(f"invalid JSON: {exc.msg}", f"line {exc.lineno}") from None
    if not isinstance(payload, dict):
        raise FormatError("graphon description must be an object", "$")
    kind = payload.get("kind")
    if kind == "step":
        if "masses" not in payload or "densities" not in payload:
            raise FormatError("step graphon needs 'masses' and 'densities'", "$")
        densities = _list(payload["densities"], "densities")
        return StepGraphon.build(
            _list(payload["masses"], "masses"),
            [_list(row, f"densities[{i}]") for i, row in enumerate(densities)],
        )
    if kind == "power":
        if "beta" not in payload:
            raise FormatError("power graphon needs 'beta'", "$")
        return PowerFamilyGraphon.build(payload["beta"])
    raise FormatError(f"unknown kind {kind!r}, expected 'step' or 'power'", "kind")


def load_graphon_file(path) -> Graphon:
    with open(path, "r", encoding="utf-8") as fh:
        return load_graphon(fh.read())


# ---------------------------------------------------------------------------
# connectivity


@dataclass(frozen=True)
class ConnectivityVerdict:
    connected: bool
    # Disconnected witness: block index lists with zero cross-density.  For a
    # single all-zero block the split is inside the block (split_block set).
    witness: Optional[tuple[tuple[int, ...], tuple[int, ...]]] = None
    split_block: Optional[int] = None


def _components(g: StepGraphon) -> tuple[list[int], list[tuple[list[int], bool]]]:
    """Components of the block positivity graph, each 2-coloured by BFS from its highest block.

    Returns the colour (0 or 1, the root 0) of every block and the components
    as (blocks, bipartite), in descending order of their highest block.  A
    positive diagonal is an edge from a block to itself, an odd cycle.
    """
    colour: list = [None] * g.k
    comps = []
    for root in reversed(range(g.k)):
        if colour[root] is not None:
            continue
        colour[root] = 0
        blocks, bipartite = [root], True
        for i in blocks:
            for j, d in enumerate(g.densities[i]):
                if d > 0 and colour[j] is None:
                    colour[j] = 1 - colour[i]
                    blocks.append(j)
                elif d > 0 and colour[j] == colour[i]:
                    bipartite = False
        comps.append((blocks, bipartite))
    return colour, comps


def check_connected(g: Graphon) -> ConnectivityVerdict:
    """Connectivity of the block positivity graph (self-loops ignored).

    A lone block of density zero is the everywhere-zero kernel; that one is
    reported as disconnected with the split placed inside the block.
    """
    if isinstance(g, PowerFamilyGraphon):
        return ConnectivityVerdict(True)
    if g.k == 1 and g.densities[0][0] == 0:
        return ConnectivityVerdict(False, witness=((0,), (0,)), split_block=0)
    _, comps = _components(g)
    if len(comps) == 1:
        return ConnectivityVerdict(True)
    s = next(sorted(blocks) for blocks, _ in comps if 0 in blocks)
    t = tuple(i for i in range(g.k) if i not in s)
    return ConnectivityVerdict(False, witness=(tuple(s), t))


# ---------------------------------------------------------------------------
# degree tail


def _int_nth_root(m: int, p: int) -> int:
    """floor(m ** (1/p)) for nonnegative integers, exact (Newton on ints)."""
    if m < 0:
        raise ValueError("negative radicand")
    if m == 0:
        return 0
    if p == 1:
        return m
    r = 1 << -(-m.bit_length() // p)  # 2**ceil(bits/p) >= m**(1/p)
    while True:
        nr = ((p - 1) * r + m // r ** (p - 1)) // p
        if nr >= r:
            break
        r = nr
    while r**p > m:
        r -= 1
    while (r + 1) ** p <= m:
        r += 1
    return r


_ROOT_SCALE_BITS = 64


def _rational_root(x: Fraction, p: int, q: int) -> Fraction:
    """Approximation of x ** (q/p), exact on perfect powers, error < 2**-64."""
    if x <= 0:
        return Fraction(0)
    y = x**q
    scale = 1 << _ROOT_SCALE_BITS
    num = _int_nth_root(y.numerator * scale**p // y.denominator, p)
    return Fraction(num, scale)


def degree_tail_ratio(g: Graphon, alpha: Fraction) -> Fraction:
    """mass of {degree <= alpha} divided by alpha.

    Exact for step graphons.  For the power family the closed form
    ((beta+1) * alpha) ** (1/beta) is evaluated as a rational with absolute
    error below 2**-64 (exact whenever the root is rational).
    """
    alpha = Fraction(alpha)
    if alpha <= 0:
        raise FormatError("alpha must be positive", "alpha")
    if isinstance(g, StepGraphon):
        degs = g.block_degrees()
        mass = sum(
            (g.block_masses[i] for i in range(g.k) if degs[i] <= alpha), Fraction(0)
        )
        return mass / alpha
    b = g.beta
    root = _rational_root((b + 1) * alpha, b.numerator, b.denominator)
    return min(root, Fraction(1)) / alpha


TAIL_HOLDS = "holds"
TAIL_FAILS_LIMINF = "fails_liminf_positive"
TAIL_FAILS_INFINITE = "fails_limit_infinite"


def check_degree_tail(g: Graphon) -> str:
    """Limit behaviour of mass{degree <= alpha}/alpha as alpha -> 0.

    Step degrees take finitely many values, so the verdict reduces to whether
    any positive-mass block has degree exactly zero.  For the power family the
    ratio is alpha**((1-beta)/beta) * (beta+1)**(1/beta), so beta = 1 is the
    bounded-positive boundary.
    """
    if isinstance(g, StepGraphon):
        degs = g.block_degrees()
        if any(d == 0 for d in degs):
            return TAIL_FAILS_INFINITE
        return TAIL_HOLDS
    if g.beta < 1:
        return TAIL_HOLDS
    if g.beta == 1:
        return TAIL_FAILS_LIMINF
    return TAIL_FAILS_INFINITE


# ---------------------------------------------------------------------------
# peninsulae


@dataclass(frozen=True)
class PeninsulaCertificate:
    """Mass placement witnessing a density-zero trap in a step graphon.

    a is the trap parameter in (0, 1/2]; A gets total mass exactly a
    (kind="peninsula") or strictly more (kind="narrow"); B gets 1 - 2a; and
    the kernel is exactly zero on every block pair carrying A x (A u B).
    """

    a: Fraction
    A_fractions: tuple[Fraction, ...]
    B_fractions: tuple[Fraction, ...]
    kind: str  # "peninsula" | "narrow"

    def mass_A(self) -> Fraction:
        return sum(self.A_fractions, Fraction(0))

    def mass_B(self) -> Fraction:
        return sum(self.B_fractions, Fraction(0))

    def validate(self, g: StepGraphon) -> None:
        k = g.k
        if len(self.A_fractions) != k or len(self.B_fractions) != k:
            raise AssertionError("fraction vectors must have one entry per block")
        if not 0 < self.a <= HALF:
            raise AssertionError("a must lie in (0, 1/2]")
        for i in range(k):
            if self.A_fractions[i] < 0 or self.B_fractions[i] < 0:
                raise AssertionError("fractions must be nonnegative")
            if self.A_fractions[i] + self.B_fractions[i] > g.block_masses[i]:
                raise AssertionError(f"block {i} over-allocated")
        ma, mb = self.mass_A(), self.mass_B()
        if self.kind == "peninsula":
            if ma != self.a:
                raise AssertionError("peninsula requires mass(A) == a")
        elif self.kind == "narrow":
            if not ma > self.a:
                raise AssertionError("narrow requires mass(A) > a")
        else:
            raise AssertionError(f"unknown kind {self.kind!r}")
        if mb != 1 - 2 * self.a:
            raise AssertionError("mass(B) must equal 1 - 2a")
        for i in range(k):
            if self.A_fractions[i] > 0:
                if g.densities[i][i] != 0:
                    raise AssertionError(f"block {i} carries A but has positive diagonal")
                for j in range(k):
                    if (self.A_fractions[j] > 0 or self.B_fractions[j] > 0) and g.densities[i][j] != 0:
                        raise AssertionError(f"blocks ({i},{j}) violate the zero condition")

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "a": str(self.a),
            "A_fractions": [str(x) for x in self.A_fractions],
            "B_fractions": [str(x) for x in self.B_fractions],
        }

    @staticmethod
    def from_dict(d: dict) -> "PeninsulaCertificate":
        if not isinstance(d, dict):
            raise FormatError("certificate must be an object", "certificate")
        for key in ("kind", "a", "A_fractions", "B_fractions"):
            if key not in d:
                raise FormatError(f"missing {key!r}", key)
        fractions = {
            key: tuple(_frac(x, f"{key}[{i}]") for i, x in enumerate(_list(d[key], key)))
            for key in ("A_fractions", "B_fractions")
        }
        return PeninsulaCertificate(a=_frac(d["a"], "a"), kind=d["kind"], **fractions)


def _fill_blocks(g: StepGraphon, allowed: list[int], amount: Fraction,
                 reserved: dict[int, Fraction]) -> list[Fraction]:
    """Greedy deterministic mass placement into `allowed` blocks, index order."""
    out = [Fraction(0)] * g.k
    left = amount
    for i in allowed:
        if left == 0:
            break
        room = g.block_masses[i] - reserved.get(i, Fraction(0))
        take = min(room, left)
        if take > 0:
            out[i] = take
            left -= take
    if left != 0:
        raise InvariantViolation("not enough room for mass placement")
    return out


def build_certificate(g: StepGraphon, zmask: int, kind: str) -> PeninsulaCertificate:
    """Deterministic certificate for a given support Z of A.

    kind="peninsula" needs mass(Z) >= mass(N(Z)); kind="narrow" needs strict
    inequality.  A is packed into Z in index order, B into everything outside
    N(Z) that A did not use.
    """
    k = g.k
    zbits = [i for i in range(k) if (zmask >> i) & 1]
    nbits = {j for i in zbits for j in range(k) if g.densities[i][j] > 0} - set(zbits)
    mz = sum((g.block_masses[i] for i in zbits), Fraction(0))
    mn = sum((g.block_masses[j] for j in nbits), Fraction(0))

    if kind == "narrow":
        if not mz > mn:
            raise AssertionError("narrow certificate needs mass(Z) > mass(N(Z))")
        a_hi = min(mz, HALF)
        a = (mn + a_hi) / 2
        upper = min(mz, 2 * a - mn)
        mass_a = (a + upper) / 2
    elif kind == "peninsula":
        if not mz >= mn:
            raise AssertionError("certificate needs mass(Z) >= mass(N(Z))")
        if mn > 0:
            a = mn
        else:
            # Z sees nothing: pad with half the leftover space, or split the
            # whole space in two when Z is everything.
            eps = min(mz, 1 - mz) / 2
            a = eps if eps > 0 else HALF
        mass_a = a
    else:
        raise AssertionError(f"unknown kind {kind!r}")

    a_fr = _fill_blocks(g, zbits, mass_a, {})
    allowed_b = [i for i in range(k) if i not in nbits]
    b_fr = _fill_blocks(g, allowed_b, 1 - 2 * a, {i: a_fr[i] for i in range(k)})
    return _self_checked(PeninsulaCertificate(a, tuple(a_fr), tuple(b_fr), kind), g)


def _residual_reach(r: list[list[int]], source: int) -> dict[int, int]:
    """BFS over the arcs of positive residual capacity `r`: parent per reached node."""
    parent = {source: source}
    queue = [source]
    for u in queue:
        for w, cap in enumerate(r[u]):
            if cap > 0 and w not in parent:
                parent[w] = u
                queue.append(w)
    return parent


def _zero_set(closed, k: int) -> int:
    """Mask of the blocks whose left copy is in `closed` and right copy is not."""
    return sum(1 << v for v in range(k) if v in closed and k + v not in closed)


def find_peninsula(g: Graphon) -> Optional[PeninsulaCertificate]:
    """A trap certificate read off one exact max flow; prefers the narrow kind.

    A support Z works iff it is independent (diagonal included) in the block
    positivity graph and mass(Z) >= mass(N(Z)), strictly for the narrow kind.
    Z is the zero set of the half cover 0 on Z, 1 on N(Z), 1/2 elsewhere, so
    the best margin mass(Z) - mass(N(Z)) is 1 - 2c for c the least weight of
    a fractional vertex cover of the block graph, loops at positive diagonals.
    2c is the min cut of its double cover: left copy v fed from the source and
    right copy k + v drained to the sink, both of capacity mass(v), with an
    uncuttable arc v -> k + w per positive density (Nemhauser and Trotter
    1975).  A min cut folds to an optimal cover, 0 where only the left copy is
    on the source side.  A flow below 1 is narrow, and the least min cut then
    reaches the best margin.  At flow 1 the min cuts are the residual graph's
    closed sets (Picard and Queyranne 1980): a trap exists iff the least one
    holding some block v, tried in ascending order, leaves out k + v, the
    test `fracmatch.uniquely_half_covered` runs on graphs.
    """
    if isinstance(g, PowerFamilyGraphon):
        return None  # kernel positive almost everywhere
    k = g.k
    # integer capacities in units of the masses' common denominator; scale + 1 exceeds every min cut
    scale = math.lcm(*(m.denominator for m in g.block_masses))
    source, sink = 2 * k, 2 * k + 1
    r = [[0] * (2 * k + 2) for _ in range(2 * k + 2)]
    for v, m in enumerate(g.block_masses):
        r[source][v] = r[k + v][sink] = m.numerator * (scale // m.denominator)
        for w in range(k):
            if g.densities[v][w] > 0:
                r[v][k + w] = scale + 1
    flow = 0
    while sink in (parent := _residual_reach(r, source)):
        path = [sink]
        while path[-1] != source:
            path.append(parent[path[-1]])
        push = min(r[u][w] for w, u in zip(path, path[1:]))
        for w, u in zip(path, path[1:]):
            r[u][w] -= push
            r[w][u] += push
        flow += push
    if flow < scale:
        return build_certificate(g, _zero_set(parent, k), "narrow")
    for v in range(k):
        closed = _residual_reach(r, v)
        if k + v not in closed:
            return build_certificate(g, _zero_set(closed, k), "peninsula")
    return None


# ---------------------------------------------------------------------------
# exact balanced bipartite split


@dataclass(frozen=True)
class BipartiteSplitVerdict:
    possible: bool
    S_blocks: tuple[int, ...] = ()
    T_blocks: tuple[int, ...] = ()
    # (block index, mass of its S-part) when one fully isolated block must be
    # divided to hit mass exactly 1/2
    split_block: Optional[tuple[int, Fraction]] = None

    def validate(self, g: StepGraphon) -> None:
        if not self.possible:
            return
        s, t = set(self.S_blocks), set(self.T_blocks)
        if s & t:
            raise AssertionError("sides must be disjoint")
        split_mass = Fraction(0)
        if self.split_block is not None:
            b, sm = self.split_block
            if b in s or b in t:
                raise AssertionError("split block cannot also be wholly assigned")
            if not 0 < sm < g.block_masses[b]:
                raise AssertionError("split mass must be strictly inside the block")
            if any(g.densities[b][j] != 0 for j in range(g.k)):
                raise AssertionError("a split block must have zero density everywhere")
            split_mass = sm
        if s | t | ({self.split_block[0]} if self.split_block else set()) != set(range(g.k)):
            raise AssertionError("every block must be assigned")
        m_s = sum((g.block_masses[i] for i in s), Fraction(0)) + split_mass
        if m_s != HALF:
            raise AssertionError("side S must have mass exactly 1/2")
        for side in (s, t):
            for i in side:
                for j in side:
                    if g.densities[i][j] != 0:
                        raise AssertionError(f"within-side density ({i},{j}) nonzero")


def check_exact_bipartite_split(g: Graphon) -> BipartiteSplitVerdict:
    """Can the blocks be 2-sided with mass exactly 1/2 each and zero inside?

    Only a fully isolated block (zero density to every block, itself included)
    can be divided between the sides, since both of its parts would carry
    positive mass on each side.  Isolated mass is therefore freely packable
    and a single boundary block suffices.  Every other component must be
    bipartite, with sides fixed up to a flip: only the 2^c flips of the c
    components of two or more blocks are scanned, the highest block's as the
    top bit, so the first fit is the least assignment in block bitmask order.
    """
    if isinstance(g, PowerFamilyGraphon):
        return BipartiteSplitVerdict(False)
    colour, comps = _components(g)
    if not all(bipartite for _, bipartite in comps):
        return BipartiteSplitVerdict(False)
    flips = [blocks for blocks, _ in reversed(comps) if len(blocks) > 1]
    isolated = sorted(blocks[0] for blocks, _ in comps if len(blocks) == 1)
    if len(flips) > ENUMERATION_CAP:
        raise EnumerationCapExceeded(f"{len(flips)} components exceed enumeration cap {ENUMERATION_CAP}")
    iso_mass = sum((g.block_masses[i] for i in isolated), Fraction(0))
    for flip in range(1 << len(flips)):
        s_full = [i for p, blocks in enumerate(flips) for i in blocks if colour[i] != (flip >> p) & 1]
        m_s = sum((g.block_masses[i] for i in s_full), Fraction(0))
        if not (m_s <= HALF <= m_s + iso_mass):
            continue
        t_full = [i for blocks in flips for i in blocks if i not in s_full]
        # pack isolated blocks into S in index order until mass 1/2
        need = HALF - m_s
        split = None
        for i in isolated:
            if need == 0:
                t_full.append(i)
            elif g.block_masses[i] <= need:
                s_full.append(i)
                need -= g.block_masses[i]
            else:
                split = (i, need)
                need = Fraction(0)
        verdict = BipartiteSplitVerdict(True, tuple(sorted(s_full)), tuple(sorted(t_full)), split)
        return _self_checked(verdict, g)
    return BipartiteSplitVerdict(False)


# ---------------------------------------------------------------------------
# aggregate report


REGIME_HAMILTONIAN = "aas_hamiltonian"
REGIME_BOUNDED_HALF = "probability_bounded_half"
REGIME_NOT_HAMILTONIAN = "aas_not_hamiltonian"
REGIME_INDETERMINATE = "indeterminate"


@dataclass(frozen=True)
class ConditionReport:
    connectivity: ConnectivityVerdict
    degree_tail: str
    peninsula: Optional[PeninsulaCertificate]
    bipartite_split: BipartiteSplitVerdict
    regime: str

    def to_dict(self) -> dict:
        conn = {"connected": self.connectivity.connected}
        if self.connectivity.witness is not None:
            conn["witness"] = [list(side) for side in self.connectivity.witness]
        if self.connectivity.split_block is not None:
            conn["split_block"] = self.connectivity.split_block
        out = {
            "connectivity": conn,
            "degree_tail": self.degree_tail,
            "peninsula": self.peninsula.to_dict() if self.peninsula else None,
            "exact_bipartite_split": {
                "possible": self.bipartite_split.possible,
                "S_blocks": list(self.bipartite_split.S_blocks),
                "T_blocks": list(self.bipartite_split.T_blocks),
            },
            "regime": self.regime,
        }
        if self.bipartite_split.split_block is not None:
            b, m = self.bipartite_split.split_block
            out["exact_bipartite_split"]["split_block"] = [b, str(m)]
        return out


def analyze(g: Graphon) -> ConditionReport:
    """Bundle all condition checks and predict the Hamiltonicity regime.

    Strongly negative signals (disconnected kernel, infinite low-degree tail
    ratio, narrow trap, exact balanced split) dominate; otherwise all three
    positive conditions give the almost-sure regime, a non-narrow trap caps
    the probability at one half, and a merely bounded-positive tail leaves
    the verdict open.
    """
    conn = check_connected(g)
    tail = check_degree_tail(g)
    pen = find_peninsula(g)
    split = check_exact_bipartite_split(g)
    strongly_negative = (
        not conn.connected
        or tail == TAIL_FAILS_INFINITE
        or (pen is not None and pen.kind == "narrow")
        or split.possible
    )
    if strongly_negative:
        regime = REGIME_NOT_HAMILTONIAN
    elif conn.connected and tail == TAIL_HOLDS and pen is None:
        regime = REGIME_HAMILTONIAN
    elif pen is not None:
        regime = REGIME_BOUNDED_HALF
    else:
        regime = REGIME_INDETERMINATE
    return ConditionReport(conn, tail, pen, split, regime)
