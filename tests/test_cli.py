import json

import pytest

from graphonham.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_analyze_preset(capsys):
    code, out, _ = run(capsys, "analyze", "constant-0.3")
    assert code == 0
    assert json.loads(out)["regime"] == "aas_hamiltonian"


def test_analyze_forty_blocks(tmp_path, capsys):
    # complete bipartite between blocks 0-19 and 20-39: a trap and an exact split
    k = 40
    kernel = tmp_path / "k40.json"
    kernel.write_text(json.dumps({
        "kind": "step",
        "masses": [f"1/{k}"] * k,
        "densities": [["1" if (i < k // 2) != (j < k // 2) else "0" for j in range(k)] for i in range(k)],
    }))
    code, out, _ = run(capsys, "analyze", str(kernel))
    assert code == 0
    report = json.loads(out)
    assert report["regime"] == "aas_not_hamiltonian"
    assert report["peninsula"]["kind"] == "peninsula"
    assert report["exact_bipartite_split"]["S_blocks"] == list(range(k // 2))


def test_analyze_malformed_densities(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(
        json.dumps(
            {"kind": "step", "masses": ["1/2", "1/2"], "densities": [["0", "1"], ["0.9", "0"]]}
        )
    )
    code, _, err = run(capsys, "analyze", str(bad))
    assert code == 2
    payload = json.loads(err)
    assert payload["error"]["position"] == "densities[0][1]"


@pytest.mark.parametrize("masses, densities, position", [
    (5, [["1"]], "masses"),
    (["1"], "1", "densities"),
    (["1"], ["1"], "densities[0]"),
])
def test_analyze_malformed_shape_is_bad_input(tmp_path, capsys, masses, densities, position):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"kind": "step", "masses": masses, "densities": densities}))
    code, _, err = run(capsys, "analyze", str(bad))
    assert code == 2
    assert json.loads(err)["error"]["position"] == position


def test_sample_then_test_and_certify(tmp_path, capsys):
    gpath = tmp_path / "g.txt"
    code, out, _ = run(
        capsys, "sample", "balanced-bipartite", "-n", "24", "--seed", "8", "-o", str(gpath)
    )
    assert code == 0 and gpath.exists() and (tmp_path / "g.txt.meta.json").exists()

    code, out, _ = run(capsys, "test", str(gpath))
    assert code == 0
    verdict = json.loads(out)
    assert verdict["status"] in ("hamiltonian", "not_hamiltonian", "unknown")

    code, out, _ = run(capsys, "certify", str(gpath))
    assert code == 0
    cert = json.loads(out)
    assert cert["fvcn"] == cert["fmn"]


def test_experiment_command(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {
                "graphon": "constant-0.3",
                "n_values": [20],
                "trials": 5,
                "seed": 11,
                "properties": ["connected", "hamiltonian"],
            }
        )
    )
    out_dir = tmp_path / "out"
    code, out, _ = run(capsys, "experiment", str(cfg), "-o", str(out_dir))
    assert code == 0
    report = json.loads(out)
    assert report["predicted_regime"] == "aas_hamiltonian"
    assert (out_dir / "trials.csv").read_text().startswith("schema=1\n")
    assert (out_dir / "report.json").exists()

    code, out, _ = run(capsys, "experiment", str(cfg), "--format", "csv")
    assert code == 0 and out.startswith("schema=1\n")


def test_experiment_invariant_violation_exit_status(tmp_path, capsys, monkeypatch):
    """A bug inside a trial is not bad input: the campaign keeps its outputs
    and exits with status 3, not 0 and not 2."""
    from graphonham import hamilton

    monkeypatch.setattr(hamilton, "validate_cycle", lambda g, cycle: False)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {
                "graphon": "constant-0.3",
                "n_values": [40],
                "trials": 3,
                "seed": 5,
                "properties": ["connected", "hamiltonian"],
            }
        )
    )
    out_dir = tmp_path / "out"
    code, out, err = run(capsys, "experiment", str(cfg), "-o", str(out_dir))
    assert code == 3
    assert json.loads(err)["error"]["type"] == "InvariantViolation"
    assert json.loads(out)["per_n"]["40"]["errors"] == 3
    assert (out_dir / "trials.csv").exists() and (out_dir / "report.json").exists()


def test_experiment_failed_self_check_exit_status(tmp_path, capsys, monkeypatch):
    """A trap certificate the library built that fails its own validation is
    a bug: status 3, not an error averaged into the frequencies."""
    from graphonham import GraphPeninsula

    def forced(self, g):
        raise AssertionError("forced")

    monkeypatch.setattr(GraphPeninsula, "validate", forced)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "graphon": "narrow-three-block",
        "n_values": [60],
        "trials": 2,
        "seed": 3,
        "properties": ["hamiltonian"],
    }))
    code, _, err = run(capsys, "experiment", str(cfg))
    assert code == 3
    error = json.loads(err)["error"]
    assert error["type"] == "InvariantViolation" and "forced" in error["first"]


def certificate_config(tmp_path, certificate, properties=(), graphon="balanced-bipartite"):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "graphon": graphon,
        "n_values": [31],
        "trials": 3,
        "seed": 2,
        "properties": list(properties),
        "certificate": certificate,
    }))
    return str(cfg)


def test_experiment_invalid_certificate_is_bad_input(tmp_path, capsys):
    cfg = certificate_config(tmp_path, {
        "kind": "peninsula", "a": "1/2", "A_fractions": ["1", "0"], "B_fractions": ["0", "0"],
    })
    code, _, err = run(capsys, "experiment", cfg)
    assert code == 2
    error = json.loads(err)["error"]
    assert error["position"] == "certificate" and "over-allocated" in error["message"]


def test_experiment_incomplete_certificate_is_bad_input(tmp_path, capsys):
    cfg = certificate_config(
        tmp_path, {"kind": "peninsula", "a": "1/2", "B_fractions": ["0", "0"]}, ["peninsula_counts"]
    )
    code, _, err = run(capsys, "experiment", cfg)
    assert code == 2
    assert json.loads(err)["error"]["position"] == "A_fractions"
    code, _, err = run(capsys, "experiment", certificate_config(tmp_path, ["1/2"]))
    assert code == 2
    assert json.loads(err)["error"]["position"] == "certificate"
    cfg = certificate_config(tmp_path, {"kind": "peninsula", "a": "1/2", "A_fractions": 5, "B_fractions": ["0", "0"]})
    code, _, err = run(capsys, "experiment", cfg)
    assert code == 2
    assert json.loads(err)["error"]["position"] == "A_fractions"


@pytest.mark.parametrize("key, value, position", [
    ("n_values", ["twenty"], "n_values[0]"),
    ("trials", 2.9, "trials"),
    ("trials", True, "trials"),
    ("n_values", 20, "n_values"),
    ("n_values", [20, 20], "n_values[1]"),
    ("budget", -1, "budget"),
    ("posa_restarts", -2, "posa_restarts"),
])
def test_experiment_malformed_field_is_bad_input(tmp_path, capsys, key, value, position):
    cfg = tmp_path / "cfg.json"
    config = {"graphon": "constant-0.3", "n_values": [20], "trials": 2, "seed": 0, "properties": []}
    cfg.write_text(json.dumps({**config, key: value}))
    code, _, err = run(capsys, "experiment", str(cfg))
    assert code == 2
    assert json.loads(err)["error"]["position"] == position


@pytest.mark.parametrize("seed", [-1, 1 << 64])
def test_seed_outside_64_bits_is_bad_input(tmp_path, capsys, seed):
    """A seed past either end of [0, 2**64) would draw another seed's graphs
    under its own name in trials.csv."""
    cfg = tmp_path / "cfg.json"
    config = {"graphon": "narrow-three-block", "n_values": [20], "trials": 2, "seed": seed, "properties": ["connected"]}
    cfg.write_text(json.dumps(config))
    code, out, err = run(capsys, "experiment", str(cfg))
    assert code == 2 and out == ""
    assert json.loads(err)["error"]["position"] == "seed"
    code, out, err = run(capsys, "sample", "narrow-three-block", "-n", "20", "--seed", str(seed))
    assert code == 2 and out == ""
    assert json.loads(err)["error"]["position"] == "seed"
    end = 0 if seed < 0 else (1 << 64) - 1
    cfg.write_text(json.dumps({**config, "seed": end}))
    code, out, _ = run(capsys, "experiment", str(cfg))
    assert code == 0 and json.loads(out)["per_n"]["20"]["errors"] == 0
    code, out, _ = run(capsys, "sample", "narrow-three-block", "-n", "20", "--seed", str(end))
    assert code == 0 and out.startswith("20 ")


def test_experiment_type_count_fluctuation(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {
                "graphon": "balanced-bipartite",
                "n_values": [31],
                "trials": 30,
                "seed": 2,
                "t": 0,
                "properties": ["peninsula_counts"],
                "certificate": {
                    "kind": "peninsula",
                    "a": "1/2",
                    "A_fractions": ["1/2", "0"],
                    "B_fractions": ["0", "0"],
                },
            }
        )
    )
    code, out, _ = run(capsys, "experiment", str(cfg))
    assert code == 0
    summary = json.loads(out)["per_n"]["31"]
    assert summary["trials"] == 30 and summary["errors"] == 0
    assert 0.0 <= summary["peninsula_counts"]["frequency"] <= 1.0


def test_experiment_certificate_on_power_graphon_is_bad_input(tmp_path, capsys):
    cert = {"kind": "peninsula", "a": "1/2", "A_fractions": ["1/2", "0"], "B_fractions": ["0", "0"]}
    cfg = certificate_config(tmp_path, cert, ["peninsula_counts"], graphon="power-half")
    code, out, err = run(capsys, "experiment", cfg)
    assert code == 2 and out == ""
    error = json.loads(err)["error"]
    assert error["type"] == "FormatError" and error["position"] == "certificate"


def test_pathsys_command(tmp_path, capsys):
    edges = [(i, j) for i in range(8) for j in range(i + 1, 8)] + [(0, 8), (1, 8)]
    lines = [f"9 {len(edges)}"] + [f"{u} {v}" for u, v in edges]
    (tmp_path / "g.txt").write_text("\n".join(lines) + "\n")
    code, out, _ = run(capsys, "pathsys", str(tmp_path / "g.txt"), "--alpha", "1/3")
    assert code == 0
    payload = json.loads(out)
    assert payload["checks"]["low_degree_covered"]
    assert any(8 in p for p in payload["paths"])


@pytest.mark.parametrize("alpha", ["abc", "1/0", "0.7"])
def test_pathsys_bad_alpha_is_bad_input(tmp_path, capsys, alpha):
    (tmp_path / "g.txt").write_text("3 2\n0 1\n1 2\n")
    code, out, err = run(capsys, "pathsys", str(tmp_path / "g.txt"), "--alpha", alpha)
    assert code == 2 and out == ""
    error = json.loads(err)["error"]
    assert error["type"] == "FormatError" and error["position"] == "alpha"


def test_pathsys_greedy_stuck_names_the_vertex(tmp_path, capsys):
    """A star's leaves are low-degree vertices with one neighbour each, so
    the first leaf cannot be given two fresh neighbours."""
    (tmp_path / "star.txt").write_text("8 7\n" + "".join(f"0 {v}\n" for v in range(1, 8)))
    code, out, err = run(capsys, "pathsys", str(tmp_path / "star.txt"), "--alpha", "1/4")
    assert code == 2 and out == ""
    assert json.loads(err) == {"error": {
        "type": "GreedyStuck", "message": "vertex 1 has fewer than 2 fresh neighbors", "vertex": 1,
    }}


@pytest.mark.parametrize("flag", ["--budget", "--restarts", "--seed"])
def test_test_negative_count_is_bad_input(tmp_path, capsys, flag):
    (tmp_path / "g.txt").write_text("3 3\n0 1\n1 2\n0 2\n")
    code, out, err = run(capsys, "test", str(tmp_path / "g.txt"), flag, "-1")
    assert code == 2 and out == ""
    assert json.loads(err)["error"]["position"] == flag
    code, out, _ = run(capsys, "test", str(tmp_path / "g.txt"), flag, "0")
    assert code == 0 and json.loads(out)["status"] == "hamiltonian"


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_experiment_jobs_below_one_is_bad_input(tmp_path, capsys, jobs):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"graphon": "constant-0.3", "n_values": [20], "trials": 2, "seed": 0, "properties": []}))
    code, out, err = run(capsys, "experiment", str(cfg), "--jobs", jobs)
    assert code == 2 and out == ""
    error = json.loads(err)["error"]
    assert error["type"] == "FormatError" and error["position"] == "--jobs"
    code, out, _ = run(capsys, "experiment", str(cfg), "--jobs", "1")
    assert code == 0 and json.loads(out)["per_n"]["20"]["trials"] == 2


def test_sampled_hamiltonian_witness(tmp_path, capsys):
    from graphonham import FiniteGraph, validate_cycle

    gpath = tmp_path / "g.txt"
    assert run(capsys, "sample", "constant-0.3", "-n", "200", "--seed", "3", "-o", str(gpath))[0] == 0
    code, out, _ = run(capsys, "test", str(gpath))
    assert code == 0
    verdict = json.loads(out)
    assert verdict["status"] == "hamiltonian"
    assert validate_cycle(FiniteGraph.from_edge_list_text(gpath.read_text()), verdict["witness"])


def test_petersen_certified_not_hamiltonian(tmp_path, capsys):
    edges = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0),
             (0, 5), (1, 6), (2, 7), (3, 8), (4, 9),
             (5, 7), (7, 9), (9, 6), (6, 8), (8, 5)]
    lines = [f"10 {len(edges)}"] + [f"{u} {v}" for u, v in edges]
    (tmp_path / "petersen.txt").write_text("\n".join(lines) + "\n")
    code, out, _ = run(capsys, "test", str(tmp_path / "petersen.txt"), "--restarts", "5")
    assert code == 0
    assert json.loads(out)["status"] == "not_hamiltonian"


def test_missing_file(capsys):
    code, _, err = run(capsys, "test", "/nonexistent/graph.txt")
    assert code == 2
    assert json.loads(err)["error"]["type"] == "FileNotFound"



def _not_utf8(tmp_path):
    (tmp_path / "g.json").write_bytes(b'{"kind": "step", "masses": ["\xff"]}')
    return ["analyze", str(tmp_path / "g.json")]


def _experiment_onto_a_file(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"graphon": "constant-0.3", "n_values": [20], "trials": 1, "seed": 0, "properties": []}))
    (tmp_path / "taken").write_text("")
    return ["experiment", str(cfg), "-o", str(tmp_path / "taken")]


@pytest.mark.parametrize("argv, kind", [
    (lambda tmp_path: ["test", str(tmp_path)], "IsADirectoryError"),
    (_not_utf8, "UnicodeDecodeError"),
    (_experiment_onto_a_file, "FileExistsError"),
    (lambda tmp_path: ["sample", "constant-0.3", "-n", "20", "-o", str(tmp_path)], "IsADirectoryError"),
], ids=["test-a-directory", "analyze-not-utf8", "experiment-onto-a-file", "sample-onto-a-directory"])
def test_unusable_file_is_bad_input(tmp_path, capsys, argv, kind):
    code, out, err = run(capsys, *argv(tmp_path))
    assert code == 2 and out == ""
    error = json.loads(err)["error"]
    assert error["type"] == kind and error["message"]
