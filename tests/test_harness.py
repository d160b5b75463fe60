import json
from fractions import Fraction

import pytest

from graphonham import (
    ExperimentConfig,
    FormatError,
    TrialRecord,
    aggregate,
    find_peninsula,
    get_preset,
    records_from_csv,
    records_to_csv,
    run_experiment,
    run_trial,
    sample_graph,
    sample_types,
    wilson_interval,
)
from graphonham.harness import classify_types
from oracles import classify_types_reference

U = get_preset("balanced-bipartite")


def small_config(**over):
    payload = {
        "graphon": "constant-0.3",
        "n_values": [24],
        "trials": 12,
        "seed": 9,
        "properties": ["connected", "min_degree_ge_2", "hamiltonian"],
    }
    payload.update(over)
    return ExperimentConfig.from_dict(payload)


class TestConfig:
    def test_zero_trials_rejected(self):
        with pytest.raises(FormatError, match="trials"):
            small_config(trials=0)

    def test_small_n_rejected(self):
        with pytest.raises(FormatError, match=r"n_values\[0\]"):
            small_config(n_values=[2])

    def test_repeated_n_rejected(self):
        """A repeated n would run the same (n, trial_index) keys twice and
        count each trial twice in its frequencies."""
        with pytest.raises(FormatError, match=r"n_values\[2\]") as exc:
            small_config(n_values=[20, 24, 20], trials=2)
        assert exc.value.position == "n_values[2]"

    @pytest.mark.parametrize("key", ["t", "budget", "posa_restarts"])
    def test_negative_counts_rejected(self, key):
        with pytest.raises(FormatError) as exc:
            small_config(**{key: -2})
        assert exc.value.position == key
        assert getattr(small_config(**{key: 0}), key) == 0

    def test_unknown_property_rejected(self):
        with pytest.raises(FormatError, match=r"properties\[0\]"):
            small_config(properties=["sparkles"])

    def test_counts_need_certificate(self):
        with pytest.raises(FormatError, match="certificate"):
            small_config(properties=["peninsula_counts"])

    def test_certificate_needs_step_graphon(self):
        cert = find_peninsula(U).to_dict()
        with pytest.raises(FormatError, match="step graphon") as exc:
            small_config(graphon="power-half", properties=["peninsula_counts"], certificate=cert)
        assert exc.value.position == "certificate"

    @pytest.mark.parametrize("graphon,cert,match", [
        ("balanced-bipartite", ("peninsula", "1/2", ["1/2"], ["0", "0"]), "one entry per block"),
        ("balanced-bipartite", ("peninsula", "3/5", ["1/2", "0"], ["0", "0"]), r"a must lie in \(0, 1/2\]"),
        ("balanced-bipartite", ("peninsula", "1/2", ["1/2", "0"], ["0", "-1/4"]), "nonnegative"),
        ("balanced-bipartite", ("peninsula", "1/4", ["1/2", "0"], ["0", "0"]), r"mass\(A\) == a"),
        ("balanced-bipartite", ("narrow", "1/2", ["1/2", "0"], ["0", "0"]), r"mass\(A\) > a"),
        ("balanced-bipartite", ("wide", "1/2", ["1/2", "0"], ["0", "0"]), "unknown kind"),
        ("balanced-bipartite", ("peninsula", "1/4", ["1/4", "0"], ["0", "0"]), r"mass\(B\) must equal 1 - 2a"),
        ("bipartite-plus-clique", ("peninsula", "1/2", ["0", "1/2"], ["0", "0"]), "positive diagonal"),
        ("balanced-bipartite", ("peninsula", "1/4", ["1/4", "0"], ["0", "1/2"]), "zero condition"),
    ])
    def test_invalid_certificate_rejected(self, graphon, cert, match):
        kind, a, A, B = cert
        payload = {"kind": kind, "a": a, "A_fractions": A, "B_fractions": B}
        with pytest.raises(FormatError, match=match) as exc:
            small_config(graphon=graphon, properties=["peninsula_counts"], certificate=payload)
        assert exc.value.position == "certificate"

    def test_unknown_preset(self):
        with pytest.raises(FormatError, match="graphon"):
            small_config(graphon="not-a-preset")

    def test_json_parse_position(self):
        with pytest.raises(FormatError, match="line"):
            ExperimentConfig.from_json("{\n  broken\n}")


def outcome_rows(records):
    """CSV rows without the two wall-clock diagnostic columns."""
    return [r.to_csv_row()[:-2] for r in records]


class TestCampaign:
    def test_deterministic_and_replayable(self):
        cfg = small_config()
        report1, records1 = run_experiment(cfg)
        report2, records2 = run_experiment(cfg)
        assert outcome_rows(records1) == outcome_rows(records2)
        assert report1.per_n == report2.per_n
        some = records1[5]
        again = run_trial(cfg, some.n, some.trial_index)
        assert again.outcomes == some.outcomes

    def test_csv_roundtrip_and_recount(self, tmp_path):
        cfg = small_config()
        report, records = run_experiment(cfg, out_dir=str(tmp_path))
        text = (tmp_path / "trials.csv").read_text()
        assert text.splitlines()[0] == "schema=1"
        back = records_from_csv(text)
        assert aggregate(cfg, back).per_n == report.per_n
        loaded = json.loads((tmp_path / "report.json").read_text())
        assert loaded["predicted_regime"] == "aas_hamiltonian"

    def test_parallel_jobs_match_serial(self):
        cfg = small_config(trials=6)
        _, serial = run_experiment(cfg, jobs=1)
        _, parallel = run_experiment(cfg, jobs=2)
        assert outcome_rows(serial) == outcome_rows(parallel)

    def test_per_trial_error_captured(self):
        # cut_distance needs block types; the power family has none, so every
        # trial must record an error outcome instead of aborting
        cfg = ExperimentConfig.from_dict(
            {
                "graphon": {"kind": "power", "beta": "1/2"},
                "n_values": [10],
                "trials": 3,
                "seed": 1,
                "properties": ["cut_distance"],
            }
        )
        report, records = run_experiment(cfg)
        assert all(r.error is not None for r in records)
        assert report.per_n[10]["errors"] == 3

    def test_fvcn_slack_threshold(self):
        cfg = ExperimentConfig.from_dict(
            {
                "graphon": "balanced-bipartite",
                "n_values": [40],
                "trials": 10,
                "seed": 4,
                "t": 40,
                "properties": ["fvcn_ge_half"],
            }
        )
        _, records = run_experiment(cfg)
        # t = n makes the threshold zero, so the event always holds
        assert all(r.outcomes["fvcn_ge_half"] for r in records)


def counts_campaign(n, trials, seed, t):
    """A peninsula_counts campaign on U with its analyzer certificate."""
    cfg = ExperimentConfig(
        graphon=U, n_values=(n,), trials=trials, seed=seed,
        properties=("peninsula_counts",), t=t, certificate=find_peninsula(U),
    )
    report, records = run_experiment(cfg)
    assert report.per_n[n]["errors"] == 0
    return report.per_n[n]["peninsula_counts"], [
        (r.outcomes["n_a"], r.outcomes["n_b"], r.outcomes["n_c"]) for r in records
    ]


class TestFluctuation:
    def test_impossible_event_at_t_equals_n(self):
        summary, _ = counts_campaign(51, trials=40, seed=3, t=51)
        assert summary["frequency"] == 0.0

    def test_balanced_trap_near_half(self):
        summary, counts = counts_campaign(101, trials=600, seed=12, t=0)
        assert abs(summary["frequency"] - 0.5) < 0.07
        assert counts[0][0] + counts[0][1] + counts[0][2] == 101

    def test_counts_go_to_a_and_c_only_for_this_certificate(self):
        _, counts = counts_campaign(40, trials=5, seed=2, t=0)  # B has mass zero
        assert all(nb == 0 for _, nb, _ in counts)

    def test_classify_types_matches_reference(self):
        g = get_preset("narrow-three-block")
        cert = find_peninsula(g)
        for trial in range(300):
            block, offset = sample_types(g, 500, 7, trial)
            assert classify_types(cert, g, block, offset) == classify_types_reference(cert, g, block, offset)

    def test_slack_event_matches_exact_binomial_law(self):
        # a = 1/2 with empty B: N_A > N_C + 4 means Bin(400, 1/2) >= 203
        from oracles import exact_binomial_upper_tail

        summary, _ = counts_campaign(400, trials=2000, seed=17, t=4)
        oracle = float(exact_binomial_upper_tail(400, 203))
        assert abs(summary["frequency"] - oracle) <= 0.03
        assert 0.40 <= summary["frequency"] <= 0.50

    def test_types_only_campaign_draws_no_edges(self, monkeypatch):
        from graphonham import harness

        def refuse(*args):
            raise AssertionError("edge stage drawn")

        monkeypatch.setattr(harness, "sample_graph", refuse)
        _, types_only = counts_campaign(31, trials=4, seed=5, t=0)
        calls = []
        monkeypatch.setattr(harness, "sample_graph", lambda *args: calls.append(args) or sample_graph(*args))
        cfg = ExperimentConfig(
            graphon=U, n_values=(31,), trials=4, seed=5,
            properties=("peninsula_counts", "connected"), certificate=find_peninsula(U),
        )
        report, records = run_experiment(cfg)
        assert report.per_n[31]["errors"] == 0 and len(calls) == 4
        assert [(r.outcomes["n_a"], r.outcomes["n_b"], r.outcomes["n_c"]) for r in records] == types_only


def test_aggregate_frequencies_exclude_errored_trials():
    cfg = small_config(trials=4)
    outcomes = {"connected": True, "min_degree_ge_2": True, "ham_status": "hamiltonian"}
    records = [TrialRecord(24, t, 9, outcomes=dict(outcomes)) for t in range(2)]
    records += [TrialRecord(24, t, 9, error="ValueError: boom") for t in range(2, 4)]
    summary = aggregate(cfg, records).per_n[24]
    assert summary["trials"] == 4 and summary["errors"] == 2
    assert summary["connected"]["frequency"] == 1.0
    assert summary["connected"]["wilson"] == wilson_interval(2, 2)
    assert summary["min_degree_ge_2"]["frequency"] == 1.0
    assert summary["hamiltonian"]["frequency_band"] == [1.0, 1.0]
    assert summary["hamiltonian"]["found_wilson"] == wilson_interval(2, 2)


def test_campaign_analyzes_its_graphon_once(monkeypatch):
    """The condition report is kept on the graphon, which is frozen: batches
    of one config (the same graphon, other seeds) analyze it once."""
    from dataclasses import replace

    from graphonham import analyze, graphon

    calls = []
    report_of = graphon._condition_report
    monkeypatch.setattr(graphon, "_condition_report", lambda g: calls.append(g) or report_of(g))
    cfg = small_config(trials=2)
    reports = [run_experiment(replace(cfg, seed=seed))[0] for seed in (1, 2, 3)]
    assert len(calls) == 1 and analyze(cfg.graphon) is analyze(cfg.graphon)
    assert {r.predicted_regime for r in reports} == {"aas_hamiltonian"}


def test_campaign_past_the_analysis_cap_keeps_its_trials(tmp_path):
    def config(k, densities):
        return ExperimentConfig.from_dict({
            "graphon": {"kind": "step", "masses": [f"1/{k}"] * k, "densities": densities},
            "n_values": [30],
            "trials": 2,
            "seed": 3,
            "properties": ["connected"],
        })

    # 25 disjoint bipartite pairs: a balanced split would need 2^25 flips
    k = 50
    cfg = config(k, [["1" if i // 2 == j // 2 and i != j else "0" for j in range(k)] for i in range(k)])
    rep, records = run_experiment(cfg, out_dir=str(tmp_path))
    assert rep.predicted_regime == "unavailable"
    assert [r.error for r in records] == [None, None]
    assert len(records_from_csv((tmp_path / "trials.csv").read_text())) == 2
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["predicted_regime"] == "unavailable"
    assert report["per_n"]["30"]["trials"] == 2
    # 25 blocks of density 1/2 everywhere are no longer past any cap
    assert run_experiment(config(25, [["1/2"] * 25] * 25))[0].predicted_regime == "aas_hamiltonian"


FILLED = {
    "connected": True,
    "min_degree": 19,
    "min_degree_ge_2": True,
    "ham_status": "not_hamiltonian",
    "ham_obstruction": "narrow_graph_peninsula",
    "fvcn": Fraction(51, 2),
    "fvcn_ge_half": False,
    "n_a": 25,
    "n_b": 15,
    "n_c": 20,
    "degree_concentration": 0.08333333333333326,
    "cut_lower": 0.03333333333333333,
    "cut_upper": 0.1,
}


def csv_records():
    """Every column filled, a verdict without an obstruction, and errored
    trials, one with CSV metacharacters in its message; runtimes have six
    exact decimals, as the CSV keeps them."""
    runtime = {"sample": 0.5, "properties": 0.25}
    return [
        TrialRecord(60, 1, 2024, outcomes=dict(FILLED), runtime=dict(runtime)),
        TrialRecord(60, 2, 2024, outcomes={"ham_status": "hamiltonian", "ham_obstruction": None},
                    runtime=dict(runtime)),
        TrialRecord(20, 0, 7, error="TypesMissing: no types", runtime={"sample": 0.125, "properties": 0.0}),
        TrialRecord(20, 3, 7, error='ValueError: bad "cell", line\nbreak', runtime=dict(runtime)),
    ]


def test_csv_roundtrip_every_column():
    text = records_to_csv(csv_records())
    back = records_from_csv(text)
    assert back == csv_records()
    assert records_to_csv(back) == text


@pytest.mark.parametrize("column, value, position", [
    (None, None, "line 3, column cut_upper"),  # a row three cells short
    ("n", "sixty", "line 3, column n"),
    ("n", "", "line 3, column n"),
    ("fvcn", "51/0", "line 3, column fvcn"),
    ("fvcn", "half", "line 3, column fvcn"),
    ("connected", "2", "line 3, column connected"),
    ("min_degree_ge_2", "true", "line 3, column min_degree_ge_2"),
    ("runtime_sample", "", "line 3, column runtime_sample"),
    ("runtime_properties", "0.250000,9", "line 3"),  # a cell past the last column
])
def test_malformed_csv_names_line_and_column(column, value, position):
    lines = records_to_csv(csv_records()).splitlines()
    header, row = lines[1].split(","), lines[2].split(",")
    if column is None:
        row = row[:-3]
    else:
        row[header.index(column)] = value
    lines[2] = ",".join(row)
    with pytest.raises(FormatError) as info:
        records_from_csv("\n".join(lines))
    assert info.value.position == position


def test_csv_header_checks():
    text = records_to_csv(csv_records())
    with pytest.raises(FormatError, match="line 1"):
        records_from_csv(text.replace("schema=1", "schema=9"))
    with pytest.raises(FormatError, match="line 2"):
        records_from_csv(text.replace("cut_upper", "cut_top"))
    with pytest.raises(FormatError, match="line 2"):
        records_from_csv("schema=1\n")


def test_wilson_interval_basics():
    lo, hi = wilson_interval(50, 100)
    assert lo < 0.5 < hi
    assert wilson_interval(0, 0) == (0.0, 1.0)
    lo99, hi99 = wilson_interval(99, 100)
    assert 0.93 < lo99 < 0.99 and hi99 > 0.99


def test_predicted_regime_consistent_with_observation():
    """Desk-scale cross-check: no preset's prediction contradicts the
    observed hamiltonian-found frequency beyond a generous finite-n band."""
    from graphonham import PRESET_NAMES, analyze

    n, trials = 150, 40
    for name in PRESET_NAMES:
        regime = analyze(get_preset(name)).regime
        if regime == "indeterminate":
            continue
        cfg = ExperimentConfig.from_dict(
            {
                "graphon": name,
                "n_values": [n],
                "trials": trials,
                "seed": 1234,
                "properties": ["hamiltonian"],
            }
        )
        rep, _ = run_experiment(cfg)
        found = rep.per_n[n]["hamiltonian"]["found"] / trials
        if regime == "aas_hamiltonian":
            assert found >= 0.6, (name, found)
        elif regime == "aas_not_hamiltonian":
            assert found <= 0.35, (name, found)
        else:  # probability_bounded_half
            assert 0.15 <= found <= 0.85, (name, found)
