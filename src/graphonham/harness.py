"""Seeded Monte Carlo campaigns over graphon models.

A campaign is a deterministic function of its configuration: every trial is
keyed by (seed, trial_index), runs independently (parallelizable, mergeable
in any order), and any per-trial exception is captured as an `error` outcome
instead of aborting the run.  Records persist as versioned CSV; the report
aggregates per-n frequencies with Wilson intervals and carries the regime
predicted by the structural analyzer for cross-checking.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
import os
import time
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

import numpy as np

from .cutnorm import sample_distance
from .errors import EnumerationCapExceeded, FormatError
from .fracmatch import fvcn_value, is_connected
from .graphon import (
    Graphon,
    PeninsulaCertificate,
    StepGraphon,
    _int,
    _list,
    analyze,
    load_graphon,
)
from .hamilton import classify
from .presets import PRESETS, preset_payload
from .sampler import (
    SampledGraph,
    _check_seed,
    degree_concentration_report,
    sample_graph,
    sample_types,
)

CSV_SCHEMA = 1

PROPERTIES = (
    "connected",
    "min_degree_ge_2",
    "hamiltonian",
    "fvcn_ge_half",
    "peninsula_counts",
    "degree_concentration",
    "cut_distance",
)
#: Properties read off the latent types alone.
_TYPE_PROPERTIES = frozenset({"peninsula_counts"})

# trials.csv, column by column: (name, where the value lives, type).  Key
# columns are TrialRecord fields; runtime_<stage> is `runtime[stage]` to six
# decimals, 0 for a stage that never ran.  Bools are written 1/0, floats by
# repr, the rest by str; an empty str or outcome cell is an absent value.
_COLUMNS = (
    ("n", "key", int),
    ("trial_index", "key", int),
    ("seed", "key", int),
    ("error", "key", str),
    ("connected", "outcome", bool),
    ("min_degree", "outcome", int),
    ("min_degree_ge_2", "outcome", bool),
    ("ham_status", "outcome", str),
    ("ham_obstruction", "outcome", str),
    ("fvcn", "outcome", Fraction),
    ("fvcn_ge_half", "outcome", bool),
    ("n_a", "outcome", int),
    ("n_b", "outcome", int),
    ("n_c", "outcome", int),
    ("degree_concentration", "outcome", float),
    ("cut_lower", "outcome", float),
    ("cut_upper", "outcome", float),
    ("runtime_sample", "runtime", float),
    ("runtime_properties", "runtime", float),
)


def wilson_interval(successes: int, trials: int, z: float = 1.96) -> tuple[float, float]:
    """Wilson 95% score interval for a binomial frequency."""
    if trials == 0:
        return (0.0, 1.0)
    p = successes / trials
    denom = 1 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    margin = z * math.sqrt(p * (1 - p) / trials + z * z / (4 * trials * trials)) / denom
    return (max(0.0, center - margin), min(1.0, center + margin))


# ---------------------------------------------------------------------------
# configuration


@dataclass(frozen=True)
class ExperimentConfig:
    graphon: Graphon
    n_values: tuple[int, ...]
    trials: int
    seed: int
    properties: tuple[str, ...]
    t: int = 0
    budget: int = 0
    posa_restarts: int = 20
    certificate: Optional[PeninsulaCertificate] = None

    def __post_init__(self):
        if self.trials < 1:
            raise FormatError("trials must be at least 1", "trials")
        _check_seed(self.seed)
        for idx, n in enumerate(self.n_values):
            if n < 3:
                raise FormatError("n must be at least 3", f"n_values[{idx}]")
            if n in self.n_values[:idx]:
                raise FormatError(f"n = {n} repeats an earlier entry", f"n_values[{idx}]")
        for key in ("t", "budget", "posa_restarts"):
            if getattr(self, key) < 0:
                raise FormatError(f"{key} must be nonnegative", key)
        for idx, p in enumerate(self.properties):
            if p not in PROPERTIES:
                raise FormatError(
                    f"unknown property {p!r}; known: {', '.join(PROPERTIES)}",
                    f"properties[{idx}]",
                )
        if "peninsula_counts" in self.properties and self.certificate is None:
            raise FormatError(
                "property 'peninsula_counts' needs an attached certificate",
                "properties",
            )
        if self.certificate is not None:
            if not isinstance(self.graphon, StepGraphon):
                raise FormatError("a peninsula certificate needs a step graphon", "certificate")
            try:
                self.certificate.validate(self.graphon)
            except AssertionError as exc:
                raise FormatError(str(exc), "certificate") from None

    @staticmethod
    def from_dict(d: dict) -> "ExperimentConfig":
        if not isinstance(d, dict):
            raise FormatError("config must be an object", "$")
        if "graphon" not in d:
            raise FormatError("missing 'graphon'", "graphon")
        gspec = d["graphon"]
        if isinstance(gspec, str):
            if gspec in PRESETS:
                graphon = load_graphon(preset_payload(gspec))
            else:
                raise FormatError(f"unknown preset {gspec!r}", "graphon")
        else:
            graphon = load_graphon(gspec)
        for key in ("n_values", "trials", "seed", "properties"):
            if key not in d:
                raise FormatError(f"missing '{key}'", key)
        cert = d.get("certificate")
        return ExperimentConfig(
            graphon=graphon,
            n_values=tuple(_int(x, f"n_values[{i}]") for i, x in enumerate(_list(d["n_values"], "n_values"))),
            trials=_int(d["trials"], "trials"),
            seed=_int(d["seed"], "seed"),
            properties=tuple(_list(d["properties"], "properties")),
            t=_int(d.get("t", 0), "t"),
            budget=_int(d.get("budget", 0), "budget"),
            posa_restarts=_int(d.get("posa_restarts", 20), "posa_restarts"),
            certificate=None if cert is None else PeninsulaCertificate.from_dict(cert),
        )

    @staticmethod
    def from_json(text: str) -> "ExperimentConfig":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise FormatError(f"invalid JSON: {exc.msg}", f"line {exc.lineno}") from None
        return ExperimentConfig.from_dict(payload)

    def to_dict(self) -> dict:
        return {
            "graphon": self.graphon.to_dict(),
            "n_values": list(self.n_values),
            "trials": self.trials,
            "seed": self.seed,
            "properties": list(self.properties),
            "t": self.t,
            "budget": self.budget,
            "posa_restarts": self.posa_restarts,
            "certificate": self.certificate.to_dict() if self.certificate else None,
        }


# ---------------------------------------------------------------------------
# trials


@dataclass
class TrialRecord:
    n: int
    trial_index: int
    seed: int
    outcomes: dict = field(default_factory=dict)
    runtime: dict = field(default_factory=dict)
    error: Optional[str] = None

    def to_csv_row(self) -> list[str]:
        row = []
        for name, place, kind in _COLUMNS:
            if place == "runtime":
                row.append(f"{self.runtime.get(name.removeprefix('runtime_'), 0.0):.6f}")
                continue
            value = getattr(self, name) if place == "key" else self.outcomes.get(name)
            if kind is bool and value is not None:
                value = int(value)  # written 1/0
            row.append("" if value is None else repr(value) if kind is float else str(value))
        return row


def classify_types(cert: PeninsulaCertificate, g: StepGraphon, block, offset) -> tuple[int, int, int]:
    """Count vertices landing in the certificate's A / B / C regions.

    Within block b the sub-interval [0, A_b/m_b) belongs to A and
    [A_b/m_b, (A_b+B_b)/m_b) to B; offsets are compared against those
    deterministic thresholds.
    """
    fa = np.array([float(a / m) for a, m in zip(cert.A_fractions, g.block_masses)])
    fb = np.array([float((a + b) / m) for a, b, m in zip(cert.A_fractions, cert.B_fractions, g.block_masses)])
    in_a = offset < fa[block]
    n_a, n_b = int(in_a.sum()), int((~in_a & (offset < fb[block])).sum())
    return n_a, n_b, len(offset) - n_a - n_b


def run_trial(config: ExperimentConfig, n: int, trial_index: int) -> TrialRecord:
    """One pure trial: sample, then evaluate each requested property.

    When no requested property reads an edge, only the type stage is drawn;
    it has its own stream, so the types equal those `sample_graph` draws.
    """
    rec = TrialRecord(n=n, trial_index=trial_index, seed=config.seed)
    try:
        t0 = time.perf_counter()
        if _TYPE_PROPERTIES.issuperset(config.properties):
            graph, types = None, sample_types(config.graphon, n, config.seed, trial_index)
        else:
            graph = sample_graph(config.graphon, n, config.seed, trial_index)
            types = graph.type_block, graph.type_offset
        rec.runtime["sample"] = time.perf_counter() - t0
        t0 = time.perf_counter()
        _evaluate_properties(config, graph, types, rec)
        rec.runtime["properties"] = time.perf_counter() - t0
    except Exception as exc:  # captured, never aborts the campaign
        rec.error = f"{type(exc).__name__}: {exc}"
    return rec


def _evaluate_properties(
    config: ExperimentConfig, graph: Optional[SampledGraph], types: tuple, rec: TrialRecord
) -> None:
    o = rec.outcomes
    props = config.properties
    fg = None

    def finite():
        nonlocal fg
        if fg is None:
            fg = graph.to_finite_graph()
        return fg

    if "connected" in props:
        o["connected"] = is_connected(finite())
    if "min_degree_ge_2" in props:
        mindeg = int(graph.degrees().min()) if graph.n else 0
        o["min_degree"] = mindeg
        o["min_degree_ge_2"] = mindeg >= 2
    if "hamiltonian" in props:
        verdict = classify(
            finite(),
            budget=config.budget,
            seed=(config.seed ^ rec.trial_index),
            posa_restarts=config.posa_restarts,
        )
        o["ham_status"] = verdict.status
        o["ham_obstruction"] = verdict.obstruction
    if "fvcn_ge_half" in props:
        value = fvcn_value(finite())
        o["fvcn"] = value
        o["fvcn_ge_half"] = value >= Fraction(graph.n - config.t, 2)
    if "peninsula_counts" in props:
        o["n_a"], o["n_b"], o["n_c"] = classify_types(config.certificate, config.graphon, *types)
    if "degree_concentration" in props:
        o["degree_concentration"] = degree_concentration_report(graph)
    if "cut_distance" in props:
        est = sample_distance(graph, config.graphon)
        o["cut_lower"] = float(est.lower)
        o["cut_upper"] = float(est.upper)


# ---------------------------------------------------------------------------
# aggregation


@dataclass(frozen=True)
class ExperimentReport:
    config: dict
    predicted_regime: str
    per_n: dict  # n -> {property -> summary}

    def to_dict(self) -> dict:
        return {
            "config": self.config,
            "predicted_regime": self.predicted_regime,
            "per_n": {str(n): summary for n, summary in self.per_n.items()},
        }


def aggregate(config: ExperimentConfig, records: list[TrialRecord]) -> ExperimentReport:
    """Deterministic fold of trial records into per-n frequencies.

    Order-independent: records are grouped by n and counted; `hamiltonian`
    reports found / certified-absent / unknown separately plus the implied
    frequency band [found, 1 - certified-absent].  Frequencies are over the
    trials that finished without error; `errors` counts the others.
    """
    per_n: dict[int, dict] = {}
    for n in config.n_values:
        group = [r for r in records if r.n == n]
        ok = [r for r in group if r.error is None]
        done = len(ok)
        summary: dict = {"trials": len(group), "errors": len(group) - done}
        for prop in config.properties:
            if prop == "hamiltonian":
                status = Counter(r.outcomes.get("ham_status") for r in ok)
                found, not_ham = status["hamiltonian"], status["not_hamiltonian"]
                summary["hamiltonian"] = {
                    "found": found,
                    "not_certified": not_ham,
                    "unknown": status["unknown"],
                    "frequency_band": [
                        found / done if done else 0.0,
                        1 - not_ham / done if done else 1.0,
                    ],
                    "found_wilson": wilson_interval(found, done),
                }
            elif prop == "peninsula_counts":
                hits = sum(1 for r in ok if r.outcomes.get("n_a", 0) > r.outcomes.get("n_c", 0) + config.t)
                summary["peninsula_counts"] = _freq_summary(hits, done)
            elif prop == "degree_concentration":
                vals = [r.outcomes["degree_concentration"] for r in ok]
                summary["degree_concentration"] = {
                    "max": max(vals) if vals else None,
                    "mean": sum(vals) / len(vals) if vals else None,
                }
            elif prop == "cut_distance":
                ups = [r.outcomes["cut_upper"] for r in ok]
                summary["cut_distance"] = {
                    "upper_max": max(ups) if ups else None,
                    "upper_mean": sum(ups) / len(ups) if ups else None,
                }
            else:
                hits = sum(1 for r in ok if r.outcomes.get(prop) is True)
                summary[prop] = _freq_summary(hits, done)
        per_n[n] = summary
    try:
        regime = analyze(config.graphon).regime
    except EnumerationCapExceeded:  # too many split components to scan; keep the trials
        regime = "unavailable"
    return ExperimentReport(config.to_dict(), regime, per_n)


def _freq_summary(hits: int, trials: int) -> dict:
    return {
        "count": hits,
        "frequency": hits / trials if trials else 0.0,
        "wilson": wilson_interval(hits, trials),
    }


# ---------------------------------------------------------------------------
# campaign driver


def run_experiment(
    config: ExperimentConfig,
    out_dir: Optional[str] = None,
    jobs: int = 1,
) -> tuple[ExperimentReport, list[TrialRecord]]:
    """Run every (n, trial) pair, aggregate, optionally persist CSV + report.

    Trials are pure and independently keyed, so the parallel path just maps
    them over a process pool and sorts the results back into canonical order.
    """
    tasks = [(n, t) for n in config.n_values for t in range(config.trials)]
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            ns, ts = [n for n, _ in tasks], [t for _, t in tasks]
            records = list(pool.map(run_trial, itertools.repeat(config), ns, ts, chunksize=8))
    else:
        records = [run_trial(config, n, t) for n, t in tasks]
    records.sort(key=lambda r: (r.n, r.trial_index))
    report = aggregate(config, records)
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, "trials.csv"), "w", encoding="utf-8", newline="") as fh:
            fh.write(records_to_csv(records))
        with open(os.path.join(out_dir, "report.json"), "w", encoding="utf-8") as fh:
            json.dump(report.to_dict(), fh, indent=1, sort_keys=True)
    return report, records


# ---------------------------------------------------------------------------
# CSV persistence


def records_to_csv(records: list[TrialRecord]) -> str:
    buf = io.StringIO()
    buf.write(f"schema={CSV_SCHEMA}\n")
    writer = csv.writer(buf)
    writer.writerow(name for name, _, _ in _COLUMNS)
    writer.writerows(r.to_csv_row() for r in records)
    return buf.getvalue()


def records_from_csv(text: str) -> list[TrialRecord]:
    """Inverse of `records_to_csv`; a bad cell raises FormatError at its line and column."""
    lines = text.splitlines()
    if not lines or not lines[0].startswith("schema="):
        raise FormatError("missing schema header", "line 1")
    if lines[0] != f"schema={CSV_SCHEMA}":
        raise FormatError(f"unsupported schema {lines[0]!r}", "line 1")
    reader = csv.reader(io.StringIO("\n".join(lines[1:])))
    if next(reader, None) != [name for name, _, _ in _COLUMNS]:
        raise FormatError("unexpected column set", "line 2")
    records = []
    for row in reader:
        line = f"line {reader.line_num + 1}"
        if len(row) > len(_COLUMNS):
            raise FormatError(f"{len(row)} cells for {len(_COLUMNS)} columns", line)
        values = {"key": {}, "outcome": {}, "runtime": {}}
        for k, (name, place, kind) in enumerate(_COLUMNS):
            try:
                if row[k] or (place != "outcome" and kind is not str):
                    value = {"0": False, "1": True}[row[k]] if kind is bool else kind(row[k])
                    values[place][name.removeprefix("runtime_")] = value
            except (IndexError, KeyError, ValueError, ZeroDivisionError):
                raise FormatError(f"missing or malformed {kind.__name__}", f"{line}, column {name}") from None
        if "ham_status" in values["outcome"]:  # a verdict without an obstruction keeps the key
            values["outcome"].setdefault("ham_obstruction", None)
        records.append(TrialRecord(**values["key"], outcomes=values["outcome"], runtime=values["runtime"]))
    return records
