from fractions import Fraction

import pytest

from graphonham import (
    FormatError,
    PowerFamilyGraphon,
    StepGraphon,
    analyze,
    build_certificate,
    check_connected,
    check_degree_tail,
    check_exact_bipartite_split,
    degree_tail_ratio,
    find_peninsula,
    graphon,
    load_graphon,
)
from conftest import random_step_graphon
from oracles import (
    best_trap_margin,
    bipartite_split_reference,
    peninsula_kind_via_cover,
    step_peninsula_oracle_labels,
    step_peninsula_oracle_sets,
    trap_margin,
)

F = Fraction

U = StepGraphon.build(["1/2", "1/2"], [["0", "1"], ["1", "0"]])
W = StepGraphon.build(["1/2", "1/2"], [["0", "1"], ["1", "1"]])
NARROW3 = StepGraphon.build(
    ["2/5", "3/10", "3/10"],
    [["0", "0", "1"], ["0", "1", "1"], ["1", "1", "1"]],
)


class TestConstruction:
    def test_mass_sum_checked_exactly(self):
        with pytest.raises(FormatError, match="masses"):
            StepGraphon.build(["1/2", "1/3"], [["0", "0"], ["0", "0"]])

    def test_asymmetric_rejected_with_position(self):
        with pytest.raises(FormatError, match=r"densities\[0\]\[1\]"):
            StepGraphon.build(["1/2", "1/2"], [["0", "1"], ["1/2", "0"]])

    def test_bad_fraction_string(self):
        with pytest.raises(FormatError, match=r"masses\[0\]"):
            StepGraphon.build(["half"], [["0"]])

    def test_float_payload_rejected(self):
        with pytest.raises(FormatError):
            StepGraphon.build([0.5, 0.5], [["0", "1"], ["1", "0"]])

    def test_load_graphon_kinds(self):
        g = load_graphon({"kind": "step", "masses": ["1"], "densities": [["0.3"]]})
        assert isinstance(g, StepGraphon)
        p = load_graphon({"kind": "power", "beta": "2"})
        assert isinstance(p, PowerFamilyGraphon)
        with pytest.raises(FormatError, match="kind"):
            load_graphon({"kind": "mystery"})


class TestConnectivity:
    def test_zero_cross_density_disconnected(self):
        g = StepGraphon.build(["1/2", "1/2"], [["1/2", "0"], ["0", "1/2"]])
        v = check_connected(g)
        assert not v.connected and v.witness == ((0,), (1,))

    def test_single_positive_block(self):
        assert check_connected(StepGraphon.constant("0.2")).connected

    def test_balanced_bipartite_connected(self):
        assert check_connected(U).connected

    def test_all_zero_kernel_disconnected(self):
        v = check_connected(StepGraphon.constant("0"))
        assert not v.connected and v.split_block == 0

    def test_against_cut_enumeration(self, rng):
        for _ in range(80):
            g = random_step_graphon(rng, rng.randrange(2, 11))
            got = check_connected(g).connected
            # oracle: some proper block bipartition has all-zero cross density
            k = g.k
            cut_exists = any(
                all(
                    g.densities[i][j] == 0
                    for i in range(k)
                    if (m >> i) & 1
                    for j in range(k)
                    if not (m >> j) & 1
                )
                for m in range(1, (1 << k) - 1)
            )
            assert got == (not cut_exists)


class TestDegreeTail:
    def test_constant_above_alpha(self):
        assert degree_tail_ratio(StepGraphon.constant("0.3"), F(3, 20)) == 0

    def test_zero_degree_block(self):
        g = StepGraphon.build(["1/2", "1/2"], [["0", "0"], ["0", "1"]])
        assert degree_tail_ratio(g, F(1, 4)) == 2

    def test_power_closed_form(self):
        assert degree_tail_ratio(PowerFamilyGraphon.build("2"), F(1, 12)) == 6

    def test_mass_monotone_in_alpha(self, rng):
        for _ in range(30):
            g = random_step_graphon(rng, rng.randrange(1, 6))
            alphas = [F(1, 16), F(1, 8), F(1, 4), F(1, 2), F(1)]
            masses = [degree_tail_ratio(g, a) * a for a in alphas]
            assert all(x <= y for x, y in zip(masses, masses[1:]))

    @pytest.mark.parametrize(
        "g,verdict",
        [
            (StepGraphon.constant("0.3"), "holds"),
            (StepGraphon.build(["1/4", "3/4"], [["0", "0"], ["0", "1"]]), "fails_limit_infinite"),
            (PowerFamilyGraphon.build("1/2"), "holds"),
            (PowerFamilyGraphon.build("1"), "fails_liminf_positive"),
            (PowerFamilyGraphon.build("2"), "fails_limit_infinite"),
        ],
    )
    def test_verdicts(self, g, verdict):
        assert check_degree_tail(g) == verdict

    def test_power_beta_one_ratio_constant(self):
        g = PowerFamilyGraphon.build("1")
        for a in (F(1, 2), F(1, 4), F(1, 64)):
            assert degree_tail_ratio(g, a) == 2

    def test_profile(self):
        assert U.block_degrees() == (F(1, 2), F(1, 2))
        assert PowerFamilyGraphon.build("2").beta == 2


class TestPeninsula:
    def test_balanced_bipartite(self):
        cert = find_peninsula(U)
        assert cert.kind == "peninsula"
        assert cert.a == F(1, 2)
        assert cert.A_fractions == (F(1, 2), F(0))
        assert cert.mass_B() == 0
        cert.validate(U)

    def test_constant_positive_none(self):
        assert find_peninsula(StepGraphon.constant("0.4")) is None

    def test_three_block_narrow(self):
        cert = find_peninsula(NARROW3)
        assert cert.kind == "narrow"
        assert cert.A_fractions[0] > 0 and cert.A_fractions[1] == cert.A_fractions[2] == 0
        cert.validate(NARROW3)

    def test_power_family_none(self):
        assert find_peninsula(PowerFamilyGraphon.build("3")) is None

    def test_narrow_implies_nonstrict_constructible(self):
        cert = find_peninsula(NARROW3)
        assert cert.kind == "narrow"
        zmask = sum(1 << i for i, a in enumerate(cert.A_fractions) if a > 0)
        shrunk = build_certificate(NARROW3, zmask, "peninsula")
        assert shrunk.kind == "peninsula"
        shrunk.validate(NARROW3)

    def test_all_zero_kernel(self):
        cert = find_peninsula(StepGraphon.constant("0"))
        assert cert is not None and cert.kind == "narrow"
        cert.validate(StepGraphon.constant("0"))

    def test_cap(self):
        # no cap on traps: one max flow decides them at any block count
        g = StepGraphon(
            tuple([F(1, 25)] * 25),
            tuple(tuple(F(1, 2) for _ in range(25)) for _ in range(25)),
        )
        assert find_peninsula(g) is None
        # a heavy independent block whose only neighbour is light, among 30
        # blocks of positive diagonal: the narrow support is that block
        k = 32
        masses = (F(2, 5), F(1, 5)) + tuple([F(1, 75)] * (k - 2))
        dens = [[F(0) if 0 in (i, j) else F(1, 2) for j in range(k)] for i in range(k)]
        dens[0][1] = dens[1][0] = F(1)
        g = StepGraphon(masses, tuple(map(tuple, dens)))
        cert = find_peninsula(g)
        assert cert.kind == "narrow"
        assert [i for i, x in enumerate(cert.A_fractions) if x > 0] == [0]
        cert.validate(g)

    def test_against_both_oracles(self, rng, monkeypatch):
        supports = []

        def spy(g, zmask, kind):
            supports.append(zmask)
            return build_certificate(g, zmask, kind)

        monkeypatch.setattr(graphon, "build_certificate", spy)
        for _ in range(60):
            g = random_step_graphon(rng, rng.randrange(1, 9))
            cert = find_peninsula(g)
            has1, narrow1 = step_peninsula_oracle_sets(g)
            has2, narrow2 = step_peninsula_oracle_labels(g)
            assert (has1, narrow1) == (has2, narrow2)
            assert (cert is not None) == has1
            if cert is not None:
                cert.validate(g)
                assert (cert.kind == "narrow") == narrow1
                # the support the flow picked has the enumeration's best margin
                assert trap_margin(g, supports[-1]) == best_trap_margin(g)

    def test_cover_route_agrees(self, rng):
        for name, g, want in [
            ("balanced", U, "peninsula"),
            ("clique-side", W, "peninsula"),
            ("narrow3", NARROW3, "narrow"),
            ("constant", StepGraphon.constant("0.4"), None),
            ("all-zero", StepGraphon.constant("0"), "narrow"),
        ]:
            assert peninsula_kind_via_cover(g) == want, name
        for _ in range(40):
            g = random_step_graphon(rng, rng.randrange(1, 9))
            cert = find_peninsula(g)
            assert peninsula_kind_via_cover(g) == (None if cert is None else cert.kind)


class TestBipartiteSplit:
    def test_balanced_bipartite_true(self):
        v = check_exact_bipartite_split(U)
        assert v.possible and v.S_blocks == (0,)
        v.validate(U)

    def test_constant_false(self):
        assert not check_exact_bipartite_split(StepGraphon.constant("0.9")).possible

    def test_unbalanced_false(self):
        g = StepGraphon.build(["1/4", "3/4"], [["0", "1"], ["1", "0"]])
        assert not check_exact_bipartite_split(g).possible

    def test_clique_side_false(self):
        assert not check_exact_bipartite_split(W).possible

    def test_isolated_block_split(self):
        # the isolated mass-1/2 block must be divided to balance the sides
        g = StepGraphon.build(
            ["1/4", "1/4", "1/2"],
            [["0", "1", "0"], ["1", "0", "0"], ["0", "0", "0"]],
        )
        v = check_exact_bipartite_split(g)
        assert v.possible and v.split_block == (2, Fraction(1, 4))
        v.validate(g)

    def test_matches_assignment_scan(self, rng):
        possible = 0
        for _ in range(400):
            k = rng.randrange(1, 10)
            if rng.random() < 0.75:
                g = _bipartite_heavy(rng, k)
            else:
                g = random_step_graphon(rng, k, zero_prob=0.8, mass_units=32)
            v = check_exact_bipartite_split(g)
            assert (v.possible, v.S_blocks, v.T_blocks, v.split_block) == bipartite_split_reference(g)
            possible += v.possible
        assert possible >= 80


def _bipartite_heavy(rng, k: int) -> StepGraphon:
    """Random kernel whose positive densities mostly cross two random sides,
    with some blocks isolated and now and then one density off that pattern."""
    masses = random_step_graphon(rng, k, mass_units=32).block_masses
    side = [rng.choice((0, 1, 0, 1, None)) for _ in range(k)]
    dens = [[F(0)] * k for _ in range(k)]
    for i in range(k):
        for j in range(k):
            if None not in (side[i], side[j]) and side[i] < side[j] and rng.random() < 0.6:
                dens[i][j] = dens[j][i] = F(rng.randrange(1, 9), 8)
    if rng.random() < 0.2:
        i, j = rng.randrange(k), rng.randrange(k)
        dens[i][j] = dens[j][i] = F(1, 2)
    return StepGraphon(masses, tuple(map(tuple, dens)))


class TestAnalyze:
    @pytest.mark.parametrize(
        "g,regime",
        [
            (StepGraphon.constant("0.3"), "aas_hamiltonian"),
            (U, "aas_not_hamiltonian"),
            (W, "probability_bounded_half"),
            (StepGraphon.build(["1/2", "1/2"], [["1/2", "0"], ["0", "1/2"]]), "aas_not_hamiltonian"),
            (NARROW3, "aas_not_hamiltonian"),
            (StepGraphon.build(["1/4", "3/4"], [["0", "0"], ["0", "3/5"]]), "aas_not_hamiltonian"),
            (PowerFamilyGraphon.build("1/2"), "aas_hamiltonian"),
            (PowerFamilyGraphon.build("1"), "indeterminate"),
            (PowerFamilyGraphon.build("2"), "aas_not_hamiltonian"),
        ],
    )
    def test_regimes(self, g, regime):
        assert analyze(g).regime == regime

    def test_report_serializes(self):
        d = analyze(U).to_dict()
        assert d["regime"] == "aas_not_hamiltonian"
        assert d["peninsula"]["kind"] == "peninsula"
        assert d["exact_bipartite_split"]["possible"] is True
