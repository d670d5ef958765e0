"""Correctness gate: an experiment run against its stored reference output.

A run fails when:

- its verdict vector (check name and pass/fail, in order) differs from the
  reference, in either direction; the by-design red ``blowup_slope[p=6.0]``
  is part of the vector, so it turning green is a failure too;
- it emits a different set of row files, a different header or row count;
- any row cell is NaN;
- a numeric cell differs from the reference by more than ``RTOL`` times the
  largest magnitude in its reference column. Scaling by the column keeps
  kernel values that decay below round-off far from the source from
  failing a change that is correct to round-off near it;
- an error-measuring column (``GATES``) exceeds its gate. These are checked
  against the gate, not against their reference values, which are
  round-off and may move freely below it;
- a text cell differs.
"""
from __future__ import annotations

import csv
import json
import math
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
RTOL = 1e-8
# acceptance gates: oracle_dev from acceptance 8 (the contour_vs_oracle
# threshold), lhuh_rel from acceptance 6 (the discrete operator identity)
GATES = {"oracle_dev": 1e-8, "lhuh_rel": 1e-9}
MAX_REPORTED = 5


def read_rows(path) -> list[list[str]]:
    with open(path, newline="") as fh:
        return [row for row in csv.reader(fh) if row]


def reference_for(experiment: str, seed: int) -> dict:
    """The stored output ``{"files": ..., "verdicts": ...}`` for one seed."""
    data = json.loads((REFERENCE_DIR / f"{experiment}.json").read_text())
    for output in data["outputs"]:
        if seed in output["seeds"]:
            return output
    raise KeyError(f"no reference output for {experiment} at seed {seed}")


def _number(cell):
    try:
        return float(cell)
    except (TypeError, ValueError):
        return None


def compare_table(name: str, got: list[list[str]], ref: list[list[str]]) -> list[str]:
    """Problems of one emitted CSV (header row first) against the reference."""
    if not got or got[0] != ref[0]:
        return [f"{name}: header {got[:1]} differs from {ref[0]}"]
    if len(got) != len(ref):
        return [f"{name}: {len(got) - 1} rows, reference has {len(ref) - 1}"]
    header = ref[0]
    problems = [f"{name} row {i}: {len(row)} cells for {len(header)} columns"
                for i, row in enumerate(got[1:], 1) if len(row) != len(header)]
    if problems:
        return problems
    for j, col in enumerate(header):
        ref_vals = [_number(row[j]) for row in ref[1:]]
        scale = max((abs(v) for v in ref_vals if v is not None), default=0.0)
        for i, (g_row, r_row, r_val) in enumerate(zip(got[1:], ref[1:], ref_vals), 1):
            cell = g_row[j]
            val = _number(cell)
            where = f"{name} row {i} {col}={cell!r}"
            if val is not None and math.isnan(val):
                problems.append(f"{where}: NaN")
            elif col in GATES:
                if val is None or not val <= GATES[col]:
                    problems.append(f"{where}: above the gate {GATES[col]}")
            elif r_val is None:
                if cell != r_row[j]:
                    problems.append(f"{where}: reference {r_row[j]!r}")
            elif val is None or not abs(val - r_val) <= RTOL * scale:
                problems.append(f"{where}: reference {r_row[j]}, "
                                f"tolerance {RTOL * scale:.3g}")
    return problems


def check_run(reference: dict, files: dict, verdicts: list) -> list[str]:
    """Problems of one experiment run; an empty list means it passed.

    ``files`` maps each emitted row-file name to its rows, ``verdicts`` is
    the run's ``[check, verdict]`` vector.
    """
    problems = []
    ref_verdicts = [list(v) for v in reference["verdicts"]]
    got_verdicts = [list(v) for v in verdicts]
    if got_verdicts != ref_verdicts:
        flipped = [f"{g[0]}: {r[1]} -> {g[1]}"
                   for g, r in zip(got_verdicts, ref_verdicts) if g != r]
        problems.append(f"verdicts differ from the reference: {flipped or got_verdicts}")
    if set(files) != set(reference["files"]):
        problems.append(f"row files {sorted(files)}, reference has "
                        f"{sorted(reference['files'])}")
    for name in sorted(set(files) & set(reference["files"])):
        problems += compare_table(name, files[name], reference["files"][name])
    return problems[:MAX_REPORTED]


def verdict_vector(verdicts) -> list:
    """``[check, verdict]`` pairs of a run's verdict dicts, in order."""
    return [[v["check"], v["verdict"]] for v in verdicts]


def row_files(csv_paths) -> dict:
    """Emitted row files by name; the summary's verdicts are compared as the
    verdict vector instead."""
    return {Path(p).name: read_rows(p) for p in csv_paths
            if not Path(p).name.endswith("_summary.csv")}
