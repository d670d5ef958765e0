"""Tests of the benchmark's own code: the correctness gate and the tracer."""
from __future__ import annotations

import copy
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import gate  # noqa: E402
import tracer  # noqa: E402

HEADER = ["experiment", "t", "x", "regime", "K_re", "oracle_dev", "lhuh_rel"]
REFERENCE = {
    "verdicts": [["bounded_maxmin[p=2.5]", "pass"], ["blowup_slope[p=6.0]", "fail"]],
    "files": {"rows.csv": [
        HEADER,
        ["kb", "0.5", "588", "a", "1.9827684386895993", "8.3e-17", "4.4e-15"],
        ["kb", "0.5", "589", "b", "-1.9827684386895993e-24", "7.2e-16", "3.5e-14"],
    ]},
}


def _check(files=None, verdicts=None):
    return gate.check_run(REFERENCE,
                          files if files is not None else copy.deepcopy(REFERENCE["files"]),
                          verdicts if verdicts is not None else REFERENCE["verdicts"])


def _with_cell(row: int, col: str, value: str) -> dict:
    files = copy.deepcopy(REFERENCE["files"])
    files["rows.csv"][row][HEADER.index(col)] = value
    return files


def test_identical_output_passes():
    assert _check() == []


def test_perturbed_row_is_rejected():
    assert _check(_with_cell(1, "K_re", "1.9828")) != []


def test_perturbation_below_column_scale_passes():
    # a kernel value far below round-off of the column's largest entry
    assert _check(_with_cell(2, "K_re", "3.1e-20")) == []


@pytest.mark.parametrize("index, flipped", [(0, "fail"), (1, "pass")])
def test_flipped_verdict_is_rejected(index, flipped):
    verdicts = copy.deepcopy(REFERENCE["verdicts"])
    verdicts[index][1] = flipped
    problems = _check(verdicts=verdicts)
    assert problems and "verdicts differ" in problems[0]


def test_nan_cell_is_rejected():
    assert "NaN" in _check(_with_cell(1, "K_re", "nan"))[0]


def test_error_columns_are_checked_against_their_gates():
    assert _check(_with_cell(1, "oracle_dev", "9e-9")) == []
    assert _check(_with_cell(1, "oracle_dev", "2e-8")) != []
    assert _check(_with_cell(2, "lhuh_rel", "nan")) != []


def test_text_cell_row_count_and_files_are_checked():
    assert _check(_with_cell(1, "regime", "b")) != []
    files = copy.deepcopy(REFERENCE["files"])
    files["rows.csv"].pop()
    assert _check(files) != []
    assert _check({}) != []


def test_stored_reference_rows_pass_the_gate():
    ref = gate.reference_for("counterexample", 0)
    assert gate.check_run(ref, ref["files"], ref["verdicts"]) == []
    assert ["blowup_slope[p=6.0]", "fail"] in ref["verdicts"]


def test_tracer_counts_spans_and_restores_bindings(tmp_path):
    from meyers_lab import experiments, fem, graph, spaces

    cfg = experiments.parse_config(
        f"experiment = meyers_sweep\nlevels = 2,3,4\nout = {tmp_path}\n")
    originals = (fem.solve, experiments.fit_loglog, spaces.distances_from,
                 fem.P1Field.w1p_norm)
    with tracer.Tracer() as active:
        assert fem.solve is not originals[0]
        # a name imported into another module is rebound there too
        assert spaces.distances_from is graph.distances_from is not originals[2]
        experiments.run(cfg)
    layers = active.layer_metrics()
    assert (fem.solve, experiments.fit_loglog, spaces.distances_from,
            fem.P1Field.w1p_norm) == originals
    assert layers["fem.solve_calls"] == 3
    assert layers["mesh.refine_calls"] == 2
    assert layers["operators.splu_calls"] == 0
    assert layers["experiments.csv_bytes"] > 0
    assert sum(layers[name] for name in tracer.SPANS) == pytest.approx(active.root_s)
    assert {name for name, _ in tracer.LAYER_METRICS} == set(layers)
