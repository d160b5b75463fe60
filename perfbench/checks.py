"""Output checks: verdict digests, the stored reference and row invariants.

A batch's `trials.csv` is compared with its two runtime columns dropped; what
is left is a pure function of the config, so it must not change between a
commit and its parent unless a change says so.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
from fractions import Fraction

RUNTIME_COLUMNS = ("runtime_sample", "runtime_properties")
REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")

STATUSES = ("hamiltonian", "not_hamiltonian", "unknown")
OBSTRUCTIONS = (
    "disconnected",
    "min_degree_below_2",
    "narrow_graph_peninsula",
    "exact_search_exhausted",
)
#: Above this n the exact search needs a budget, which no workload gives, so
#: `unknown` is a legal verdict only there.
DP_VERTEX_CAP = 24


def strip_runtime(csv_text: str) -> tuple[str, list[dict]]:
    """The CSV without runtime columns, and its data rows as dicts."""
    lines = csv_text.splitlines()
    reader = csv.reader(lines[1:])
    header = next(reader)
    keep = [i for i, c in enumerate(header) if c not in RUNTIME_COLUMNS]
    columns = [header[i] for i in keep]
    buf = io.StringIO()
    buf.write(lines[0] + "\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    rows = []
    for raw in reader:
        kept = [raw[i] for i in keep]
        writer.writerow(kept)
        rows.append(dict(zip(columns, kept)))
    return buf.getvalue(), rows


def digest(stripped_batches: list[str]) -> str:
    h = hashlib.sha256()
    for text in stripped_batches:
        h.update(text.encode())
    return h.hexdigest()


def row_hash(row: dict) -> str:
    return hashlib.sha256(",".join(row.values()).encode()).hexdigest()[:12]


def load_reference(workload: str) -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        ref = json.load(fh)
    return ref["workloads"][workload]


def row_problems(row: dict, t: int, concentration_cap=None) -> list[str]:
    """Facts every correct row satisfies, whatever the seed.

    They follow from the property definitions and from the order in which
    `classify` tries its obstructions (connectivity, then minimum degree,
    then the narrow trap fvcn < n/2).
    """
    p = []
    n = int(row["n"])
    if row["error"]:
        return [f"error: {row['error']}"]
    if row["min_degree"] and (row["min_degree_ge_2"] == "1") != (int(row["min_degree"]) >= 2):
        p.append("min_degree_ge_2 disagrees with min_degree")
    fvcn = Fraction(row["fvcn"]) if row["fvcn"] else None
    if fvcn is not None:
        if not (0 <= fvcn <= Fraction(n, 2) and (2 * fvcn).denominator == 1):
            p.append(f"fvcn {fvcn} is not a half-integer in [0, n/2]")
        if (row["fvcn_ge_half"] == "1") != (fvcn >= Fraction(n - t, 2)):
            p.append("fvcn_ge_half disagrees with fvcn")
    status, obstruction = row["ham_status"], row["ham_obstruction"]
    if status:
        if status not in STATUSES:
            p.append(f"unknown status {status!r}")
        if (status == "not_hamiltonian") != (obstruction in OBSTRUCTIONS):
            p.append(f"status {status!r} with obstruction {obstruction!r}")
        if status == "unknown" and n <= DP_VERTEX_CAP:
            p.append("unknown verdict where the exact DP must decide")
        connected = row["connected"] == "1" if row["connected"] else None
        if connected is not None and (not connected) != (obstruction == "disconnected"):
            p.append("connected disagrees with the disconnected obstruction")
        if connected and row["min_degree"]:
            if (int(row["min_degree"]) < 2) != (obstruction == "min_degree_below_2"):
                p.append("min_degree disagrees with the min-degree obstruction")
        if connected and row["min_degree"] and int(row["min_degree"]) >= 2 and fvcn is not None:
            if (fvcn < Fraction(n, 2)) != (obstruction == "narrow_graph_peninsula"):
                p.append("fvcn disagrees with the narrow-trap obstruction")
        if status == "hamiltonian" and fvcn is not None and fvcn != Fraction(n, 2):
            p.append("hamiltonian verdict with fvcn < n/2")
    if row["degree_concentration"] and concentration_cap is not None:
        if not 0 <= float(row["degree_concentration"]) < concentration_cap:
            p.append(f"degree_concentration {row['degree_concentration']} outside [0, {concentration_cap})")
    return p


def check_rows(rows: list[dict], wl, ref_rows=None) -> list[str]:
    """One problem line per bad row: an error, a broken invariant, or (with
    `ref_rows`, the reference hashes of the same trials in order) a row that
    differs from the reference.  Rows past the reference's end get the
    invariants only."""
    problems = []
    for i, row in enumerate(rows):
        found = row_problems(row, wl.config.get("t", 0), wl.concentration_cap)
        if ref_rows is not None and i < len(ref_rows) and row_hash(row) != ref_rows[i]:
            found.append("differs from reference.json")
        if found:
            problems.append(f"seed {row['seed']} trial {row['trial_index']}: " + "; ".join(found))
    return problems
