"""Negative controls: a known-wrong input must fail at least one verdict of
its experiment, and the right input through the same harness must pass them
all. A wrong input that no verdict catches today is a strict xfail naming the
ROADMAP item that makes the verdicts able to fail, so the fix flips it loudly.

No f = 1 control for meyers_sweep or holder_convergence: with f = 1 the
singular mode is absent, so their passes are not shown to be wrong; those
controls need the Kellogg load (ROADMAP item 4).
"""
import csv

import numpy as np
import pytest
from scipy.special import ive

from meyers_lab import experiments, graph, operators
from meyers_lab.experiments import parse_config, recompute_verdicts, run


def _failed(verdicts) -> list[str]:
    return [v["check"] for v in verdicts if v["verdict"] != "pass"]


# ---------------------------------------------------------------------------
# kernel_bounds: surrogate kernel columns on the box-48 lattice

def _exact(dx, dy, d, t):
    """The heat kernel of the unit lattice Z^2: each coordinate is an
    independent rate-1 walk."""
    return ive(dx, t) * ive(dy, t)


SURROGATES = {
    "exact": _exact,
    "polynomial": lambda dx, dy, d, t: (1.0 + d) ** -3 / t,
    "exponential": lambda dx, dy, d, t: np.exp(-d / 2.0) / t,
    "bump": lambda dx, dy, d, t: _exact(dx, dy, d, t) + 1e-3 * (d == 10),
}


def _kernel_bounds_verdicts(kernel, monkeypatch, tmp_path):
    """kernel_bounds at its defaults (box 48) with every contour solve and
    oracle replaced by the surrogate column, so oracle_dev = 0 and the
    window, d, h* and the increments are computed as usual."""
    def column(op, t, u0):
        g = op.graph
        y = int(np.flatnonzero(u0)[0])
        dx, dy = np.abs(g.coords - g.coords[y]).T
        return kernel(dx, dy, graph.distances_from(g, y), t).astype(complex)

    monkeypatch.setattr(operators, "semigroup_apply", column)
    monkeypatch.setattr(operators, "expm_oracle", column)
    cfg = parse_config(f"experiment = kernel_bounds\nout = {tmp_path}\n")
    return run(cfg).verdicts


def test_exact_lattice_kernel_passes_every_kernel_verdict(monkeypatch, tmp_path):
    verdicts = _kernel_bounds_verdicts(SURROGATES["exact"], monkeypatch, tmp_path)
    assert len(verdicts) == 5
    assert _failed(verdicts) == []


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="two of the five kernel verdicts pass by construction "
                          "and none tests decay (ROADMAP item 3)")
@pytest.mark.parametrize("name", ["polynomial", "exponential", "bump"])
def test_surrogate_kernel_fails_a_kernel_verdict(name, monkeypatch, tmp_path):
    verdicts = _kernel_bounds_verdicts(SURROGATES[name], monkeypatch, tmp_path)
    assert _failed(verdicts)


# ---------------------------------------------------------------------------
# rate_theta: the written rows re-judged with a wrong theta

@pytest.fixture(scope="module")
def rate_theta_rows(tmp_path_factory):
    out = tmp_path_factory.mktemp("rate_theta")
    summary = run(parse_config(f"experiment = rate_theta\nout = {out}\n"))
    return summary.csv_paths[0]


def _rejudged(path, tmp_path, theta) -> list[dict]:
    """The verdicts of the rows at ``path`` with every theta cell rewritten
    to ``theta``."""
    with open(path, newline="") as fh:
        header, *rows = list(csv.reader(fh))
    col = header.index("theta")
    for row in rows:
        row[col] = experiments._format_cell(theta)
    doctored = tmp_path / "rate_theta_rows.csv"
    with open(doctored, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows([header, *rows])
    return recompute_verdicts([str(doctored)])


def test_rate_theta_rows_pass_as_written(rate_theta_rows):
    assert _failed(recompute_verdicts([rate_theta_rows])) == []


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="on the torsion problem the error orders at p = 2, "
                          "p_probe and p_hi agree to 0.0009, so theta_order cannot "
                          "tell a right theta from a wrong one (ROADMAP item 8)")
@pytest.mark.parametrize("theta", [0.0, 1.0])
def test_wrong_theta_fails_theta_order(rate_theta_rows, tmp_path, theta):
    failed = _failed(_rejudged(rate_theta_rows, tmp_path, theta))
    assert any(check.startswith("theta_order[") for check in failed)
