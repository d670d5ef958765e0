"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints a `ACCEPTANCE <n> ...` line with the measured values before
asserting, so a failing criterion still reports its numbers.
"""
import math
import time

import numpy as np
import pytest

import meyers_lab as ml
from meyers_lab.experiments import (_parse_csv, parse_config, run_counterexample,
                                    run_meyers_sweep, run)
from meyers_lab.fitting import fit_loglog


def report(n, name, ok, detail):
    print(f"\nACCEPTANCE {n} ({name}): {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def run_in(out, text):
    """``run`` with its CSVs under ``out``: the rows of its verdict file, as
    written, and the verdicts it judged from them."""
    cfg = parse_config(text)
    cfg.out = str(out)
    summary = run(cfg)
    return _parse_csv(summary.csv_paths[0])[1], summary.verdicts


@pytest.fixture(scope="module")
def meyers_rows():
    cfg = parse_config("experiment = meyers_sweep")
    t0 = time.time()
    (rows,) = run_meyers_sweep(cfg)
    return rows, time.time() - t0


@pytest.fixture(scope="module")
def counterexample_rows():
    cfg = parse_config("experiment = counterexample")
    t0 = time.time()
    (rows,) = run_counterexample(cfg)
    return rows, time.time() - t0


@pytest.fixture(scope="module")
def rate_rows(tmp_path_factory):
    return run_in(tmp_path_factory.mktemp("rate_theta"), "experiment = rate_theta")


@pytest.fixture(scope="module")
def holder_rows(tmp_path_factory):
    return run_in(tmp_path_factory.mktemp("holder"), "experiment = holder_convergence")


def test_01_meyers_uniform_bound(meyers_rows):
    rows, elapsed = meyers_rows
    sub = [r for r in rows if r["p"] == 2.2]
    slope = fit_loglog([(r["h"], r["ratio"]) for r in sub])
    ratios = [r["ratio"] for r in sub]
    mm = max(ratios) / min(ratios)
    ok = abs(slope) <= 0.05 and mm <= 1.3 and elapsed < 60.0
    report(1, "uniform W1p bound", ok,
           f"slope={slope:+.4f} (<=0.05), max/min={mm:.4f} (<=1.3), "
           f"runtime={elapsed:.1f}s (<60)")
    assert abs(slope) <= 0.05
    assert mm <= 1.3
    assert elapsed < 60.0


def test_02a_optimality_bounded_below_critical(counterexample_rows):
    rows, elapsed = counterexample_rows
    sub = [r for r in rows if r["p"] == 2.5]
    vals = [r["w1p"] for r in sub]
    mm = max(vals) / min(vals)
    ok = mm <= 1.5 and elapsed < 120.0
    report("2a", "bounded at p=2.5 < p_c", ok,
           f"max/min={mm:.4f} (<=1.5), runtime={elapsed:.1f}s (<120)")
    assert mm <= 1.5
    assert elapsed < 120.0


def test_02b_optimality_blowup_above_critical(counterexample_rows):
    rows, _ = counterexample_rows
    sub = [r for r in rows if r["p"] == 6.0]
    slope = fit_loglog([(r["h"], r["w1p"]) for r in sub])
    ok = slope <= -0.2
    report("2b", "blow-up at p=6 > p_c", ok,
           f"slope={slope:+.4f} (required <= -0.2; the gradient of the "
           f"exact singular solution caps the rate at (eps-1)+2/p = -1/6)")
    assert slope <= -0.2


def test_03_convergence_rates(rate_rows):
    rows, verdicts = rate_rows
    by = {v["check"].split("[")[0]: v for v in verdicts}
    center = by["center_value_error"]
    w12 = by["w12_order"]
    theta = by["theta_order"]
    ok = all(v["verdict"] == "pass" for v in (center, w12, theta))
    report(3, "torsion convergence", ok,
           f"center err={center['value']:.2e} (<=0.002), "
           f"W12 order={w12['value']:.3f} (>=0.9), "
           f"theta order gap={theta['value']:.3f} (<=0.15)")
    assert center["verdict"] == "pass"
    assert w12["verdict"] == "pass"
    assert theta["verdict"] == "pass"


def test_04_holder_stability(holder_rows):
    rows, verdicts = holder_rows
    vals = {v["check"].split("[")[0]: v for v in verdicts}
    mm = vals["holder_maxmin"]
    dec = vals["holder_cauchy_decreasing"]
    diffs = [float(r["cauchy_diff"]) for r in rows if r["cauchy_diff"] != ""]
    ok = mm["verdict"] == "pass" and dec["verdict"] == "pass"
    report(4, "Holder stability", ok,
           f"max/min={mm['value']:.4f} (<=2), cauchy diffs={['%.2e' % d for d in diffs]} "
           f"strictly decreasing={dec['verdict'] == 'pass'}")
    assert mm["verdict"] == "pass"
    assert dec["verdict"] == "pass"
    assert len(diffs) == 3


def test_05_norm_equivalences():
    poly = ml.Polygon.unit_square()
    tri4 = ml.triangulate(poly, 2.0**-4)
    tri5 = ml.refine_red(tri4)
    rng = np.random.default_rng(2024)
    brackets = {}
    for tag, tri in (("h4", tri4), ("h5", tri5)):
        g = ml.from_triangulation(tri)
        lo = {p: np.full(3, np.inf) for p in (2.0, 2.2, 4.0)}
        hi = {p: np.zeros(3) for p in (2.0, 2.2, 4.0)}
        for _ in range(20):
            vals = np.zeros(g.n)
            vals[g.interior] = rng.standard_normal(len(g.interior))
            fld = ml.reconstruct(tri, vals)
            hol_g = ml.holder_norm(g, vals, 0.5)
            hol_c = fld.holder_norm(0.5)
            for p in (2.0, 2.2, 4.0):
                r = np.array([
                    ml.lp_norm(g, vals, p) / fld.lp_norm(p),
                    ml.lp_norm(g, ml.gradient_length(g, vals), p) / fld.grad_lp_norm(p),
                    hol_g / hol_c,
                ])
                lo[p] = np.minimum(lo[p], r)
                hi[p] = np.maximum(hi[p], r)
        brackets[tag] = (lo, hi)
    worst = 0.0
    for p in (2.0, 2.2, 4.0):
        for side in (0, 1):
            a = brackets["h4"][side][p]
            b = brackets["h5"][side][p]
            worst = max(worst, float(np.max(np.maximum(a / b, b / a))))
    ok = worst < 1.5
    report(5, "norm equivalences", ok,
           f"largest bracket-endpoint drift between levels = {worst:.3f} (< 1.5)")
    assert worst < 1.5


def test_06_operator_identity(meyers_rows, counterexample_rows, rate_rows,
                              holder_rows):
    residuals = []
    for rows in (meyers_rows[0], counterexample_rows[0], rate_rows[0],
                 holder_rows[0]):
        residuals.extend(float(r["lhuh_rel"]) for r in rows)
    worst = max(residuals)
    ok = worst <= 1e-9
    report(6, "discrete operator identity", ok,
           f"max relative deviation of apply_Lh(solve) vs -f_h over "
           f"{len(residuals)} solves = {worst:.2e} (<=1e-9)")
    assert worst <= 1e-9


def test_07_resolvent_estimates(tmp_path):
    t0 = time.time()
    _, verdicts = run_in(tmp_path, "experiment = resolvent_sweep")
    elapsed = time.time() - t0
    bad = [v for v in verdicts if v["verdict"] != "pass"]
    detail = "; ".join(
        f"{v['check']}={v['value']:+.3f}" for v in verdicts if "slope" in v["check"])
    mm = max(v["value"] for v in verdicts if "maxmin" in v["check"])
    ok = not bad and elapsed < 120.0
    report(7, "resolvent estimates", ok,
           f"{detail}; worst max/min={mm:.2f}; runtime={elapsed:.1f}s (<120)")
    assert not bad, bad
    assert elapsed < 120.0


def test_08_kernel_bounds(tmp_path):
    meta_rows, verdicts = run_in(tmp_path, "experiment = kernel_bounds")
    bad = [v for v in verdicts if v["verdict"] != "pass"]
    dev = max(float(r["oracle_dev"]) for r in meta_rows)
    beta = float(meta_rows[0]["beta"])
    eta = float(meta_rows[0]["eta_increment"])
    ok = not bad
    report(8, "kernel bounds", ok,
           f"oracle dev={dev:.2e} (<=1e-8), beta={beta:.3f} (>0), "
           f"increment eta={eta:.3f} (>0), pass rates "
           f"b={meta_rows[0]['pass_rate_b']}, holder={meta_rows[0]['pass_rate_holder']}")
    assert not bad, bad


def test_09_scaling_identity():
    g = ml.lattice_box(24, 24)
    op = ml.build_operator(g, ml.uniform_coefficients(g))
    rng = np.random.default_rng(99)
    f = rng.standard_normal(g.n)
    worst = 0.0
    for lam in (4.0, 25.0, 100.0):
        u1 = ml.resolvent_solve(op, lam, f)
        ga = ml.rescale(g, math.sqrt(lam))
        opa = ml.build_operator(ga, ml.uniform_coefficients(ga))
        u2 = ml.resolvent_solve(opa, 1.0, f / lam)
        worst = max(worst, float(np.abs(u1 - u2).max() / np.abs(u1).max()))
    ok = worst <= 1e-13
    report(9, "resolvent scaling identity", ok,
           f"max componentwise deviation over lambda in {{4,25,100}} = "
           f"{worst:.2e} (<=1e-13)")
    assert worst <= 1e-13


def test_10_embeddings(tmp_path):
    _, verdicts = run_in(tmp_path, "experiment = embeddings")
    factors = {v["check"]: v["value"] for v in verdicts}
    ok = all(v["verdict"] == "pass" for v in verdicts)
    report(10, "embedding stability", ok,
           f"sobolev factor={factors['sobolev_ratio_max_stability']:.3f}, "
           f"holder factor={factors['holder_ratio_max_stability']:.3f} (both < 2)")
    assert ok, verdicts


def test_11_determinism(tmp_path):
    text = "experiment = meyers_sweep\nlevels = 3,4,5\nseed = 11\n"
    outs = []
    for sub in ("a", "b"):
        cfg = parse_config(text)
        cfg.out = str(tmp_path / sub)
        summary = run(cfg)
        outs.append([(p, open(p, "rb").read()) for p in summary.csv_paths])
    same = all(a[1] == b[1] for a, b in zip(*outs))
    report(11, "determinism", same,
           "byte-identical CSVs across two runs with the same seed")
    assert same
