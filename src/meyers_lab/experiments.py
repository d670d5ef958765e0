"""Config-driven experiment harness with CSV emission and verdicts.

Configs are flat ``key = value`` text (comments start with #). Every run is
deterministic given the seed, CSV cells are written with round-trip float
repr, and each summary verdict is recomputable from the emitted row files
alone (the ``report`` command does exactly that).

Each experiment is one ``Experiment`` record in ``REGISTRY``: its config
defaults, validation, runner, verdict recomputation and the row files it
writes with their headers.

Mesh families are red-refinement families: the coarsest level comes from
``triangulate`` and each further level halves h exactly, so consecutive
P1 spaces are nested and Cauchy differences are themselves P1 fields.
"""
from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass, field as dc_field
from typing import Callable

import numpy as np

from . import fem, graph, mesh, operators, reference, spaces
from .fitting import fit_loglog

# fixed acceptance thresholds, keyed by (experiment, check)
THRESHOLDS = {
    ("meyers_sweep", "slope_abs_max"): 0.05,
    ("meyers_sweep", "maxmin_max"): 1.3,
    ("counterexample", "blowup_slope_max"): -0.2,
    ("counterexample", "bounded_maxmin_max"): 1.5,
    ("holder_convergence", "maxmin_max"): 2.0,
    ("rate_theta", "center_tol"): 0.002,
    ("rate_theta", "w12_order_min"): 0.9,
    ("rate_theta", "theta_order_tol"): 0.15,
    ("resolvent_sweep", "r_inf_maxmin_max"): 3.0,
    ("resolvent_sweep", "slope_range"): (-0.6, -0.4),
    ("resolvent_sweep", "r_eta_maxmin_max"): 4.0,
    ("kernel_bounds", "oracle_dev_max"): 1e-8,
    ("embeddings", "factor_max"): 2.0,
    ("geometry", "factor_max"): 2.0,
}

SUMMARY_HEADER = "check,value,threshold,verdict"


class ConfigError(ValueError):
    pass


@dataclass
class ExperimentConfig:
    experiment: str
    params: dict = dc_field(default_factory=dict)
    seed: int = 0
    out: str = "results"

    def get(self, key, default=None):
        return self.params.get(key, default)


def parse_config(text: str) -> ExperimentConfig:
    """Parse flat key = value lines; unknown keys are kept as strings."""
    raw = {}
    for ln, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {ln}: expected 'key = value'")
        key, val = (s.strip() for s in line.split("=", 1))
        if not key:
            raise ConfigError(f"line {ln}: empty key")
        raw[key] = val
    if "experiment" not in raw:
        raise ConfigError("missing 'experiment' key")
    exp = raw.pop("experiment")
    if exp not in REGISTRY:
        raise ConfigError(f"unknown experiment {exp!r}; choose from {tuple(REGISTRY)}")
    seed = _parse("seed", raw.pop("seed", "0"), int)
    if seed < 0:
        raise ConfigError(f"seed must be non-negative, got {seed}")
    out = raw.pop("out", "results")
    params = dict(REGISTRY[exp].defaults)
    params.update(raw)
    cfg = ExperimentConfig(exp, params, seed, out)
    REGISTRY[exp].validate(cfg)
    return cfg


def _parse(key: str, text: str, parse):
    """``parse(text)``, with malformed text reported as a ConfigError."""
    try:
        return parse(text)
    except (ValueError, ArithmeticError) as exc:
        raise ConfigError(f"{key} = {text!r}: {exc}") from None


def _read(cfg: ExperimentConfig, key: str, parse):
    return _parse(key, str(cfg.get(key)), parse)


def _floats(text: str) -> list[float]:
    vals = [float(tok) for tok in text.split(",") if tok.strip()]
    if not vals:
        raise ValueError("empty list")
    return vals


def _ints(text: str) -> list[int]:
    return [int(tok) for tok in text.split(",")]


def _domain(name: str) -> mesh.Polygon:
    if name == "unit_square":
        return mesh.Polygon.unit_square()
    if name == "square2":
        return mesh.Polygon.symmetric_square(1.0)
    if name.startswith("rect:"):
        x0, y0, x1, y1 = (float(t) for t in name.split(":")[1:])
        return mesh.Polygon.rectangle(x0, y0, x1, y1)
    raise ConfigError(f"unknown domain {name!r}")


def _coefficient(cfg: ExperimentConfig) -> fem.CoefficientField:
    return _read(cfg, "coefficient", fem.coefficient_field)


def _load_spec(name: str, problem=None):
    if name == "one":
        return lambda pts: np.ones(len(pts))
    if name == "minus_one":
        return lambda pts: -np.ones(len(pts))
    if name == "auto":
        if problem is None:
            raise ConfigError("f = auto needs a manufactured problem")
        return problem.f
    raise ConfigError(f"unknown load {name!r}")


def _family(cfg: ExperimentConfig) -> list[tuple[int, mesh.Triangulation]]:
    """(level, mesh) over the red-refinement family of the config's domain;
    level k targets grid spacing 2^-k."""
    levels = _read(cfg, "levels", _ints)
    tris = [mesh.triangulate(_read(cfg, "domain", _domain), 2.0 ** -levels[0])]
    for _ in levels[1:]:
        tris.append(mesh.refine_red(tris[-1]))
    return list(zip(levels, tris))


def _solved_family(cfg: ExperimentConfig, coeff, f) -> list[tuple]:
    """(level, mesh, P1 solution, lhuh_rel) per level, one solve each; lhuh_rel
    is max |apply_Lh(u) + f_h| relative to max |f_h|."""
    cells = []
    for lvl, tri in _family(cfg):
        system = fem.assemble(tri, coeff)
        fem.load(system, f)
        res = fem.solve(system)
        lh = fem.apply_Lh(system, res.u).values
        target = -fem.f_h(system).values
        scale = float(np.abs(target).max()) or 1.0
        cells.append((lvl, tri, fem.reconstruct(tri, res.u),
                      float(np.abs(lh - target).max() / scale)))
    return cells


def _verdict(name, value, ok, threshold) -> dict:
    return {"check": name, "value": value, "threshold": threshold,
            "verdict": "pass" if ok else "fail"}


# ---------------------------------------------------------------------------
# validation

def _validate_family(cfg: ExperimentConfig, min_levels: int) -> None:
    """A known domain and at least ``min_levels`` consecutive levels."""
    levels = _read(cfg, "levels", _ints)
    if len(levels) < min_levels:
        raise ConfigError(f"{cfg.experiment} needs at least {min_levels} levels")
    if any(cur != prev + 1 for prev, cur in zip(levels, levels[1:])):
        raise ConfigError("levels must be consecutive increasing integers")
    if not _interior_vertices(_read(cfg, "domain", _domain), levels[0]):
        raise ConfigError(f"level {levels[0]} is too coarse for the domain: "
                          "its mesh has no interior vertex")


def _interior_vertices(poly: mesh.Polygon, level: int) -> float:
    """Interior vertices of the level's mesh of ``poly`` (an axis rectangle,
    as every config domain is), counted without meshing: triangulate needs a
    spacing 2^-level below the diameter, and the criss-cross grid of n_x by
    n_y cells has (n_x - 1)(n_y - 1) interior vertices. A spacing that
    underflows to 0 is left to triangulate (inf)."""
    if not level > -math.log2(poly.diameter):
        return 0
    h = 2.0 ** -level
    if h == 0:
        return math.inf
    lo, hi = poly.vertices.min(axis=0), poly.vertices.max(axis=0)
    return math.prod(mesh._grid_divisions(a, b, h) - 1 for a, b in zip(lo, hi))


def _validate_sweep(cfg: ExperimentConfig, p_min: float, problem=None) -> None:
    """p_list above p_min, a family for the slope fits (3 levels), a known load."""
    ps = _read(cfg, "p_list", _floats)
    for p in ps:
        if not p > p_min:
            raise ConfigError(f"{cfg.experiment} needs p > {p_min}, got {p}")
    if len(set(ps)) < len(ps):
        raise ConfigError(f"{cfg.experiment} needs distinct values in p_list")
    _validate_family(cfg, 3)
    _load_spec(cfg.get("f"), problem)


def _validate_p_above_2(cfg: ExperimentConfig) -> None:
    _validate_sweep(cfg, 2)
    _coefficient(cfg)


def _validate_counterexample(cfg: ExperimentConfig) -> None:
    eps = _coefficient(cfg).eps
    if eps is None:
        raise ConfigError("counterexample needs a meyers:<eps> coefficient")
    _validate_sweep(cfg, 1, fem.meyers_problem(eps))
    # one interior vertex carries one hat function; on square2 it is the
    # origin, where the P1 solution is 0 and the slope fit has no data
    coarsest = _read(cfg, "levels", _ints)[0]
    if _interior_vertices(_read(cfg, "domain", _domain), coarsest) < 2:
        raise ConfigError(f"counterexample level {coarsest} is too coarse: "
                          "its mesh needs two interior vertices")


def _validate_rate_theta(cfg: ExperimentConfig) -> None:
    _validate_family(cfg, 3)
    _load_spec(cfg.get("f"))
    eps = _read(cfg, "eps_probe", float)
    if not 0 < eps < math.inf:
        raise ConfigError("rate_theta needs a finite eps_probe > 0")
    # theta in (0, 1): p_probe strictly between the endpoints 2 and 2 + eps
    if not 2 < _read(cfg, "p_probe", float) < 2 + eps:
        raise ConfigError("rate_theta needs 2 < p_probe < 2 + eps_probe")
    if _read(cfg, "center_level", int) not in _read(cfg, "levels", _ints):
        raise ConfigError("rate_theta needs center_level among the levels")
    _coefficient(cfg)


# resolvent rays: the positive reals and the ray at angle 3 pi / 5
_RAY_PHASES = {"real": 1.0, "sector": np.exp(1j * 3 * math.pi / 5)}
# smallest lattice box whose interior window (graph.box_window: coordinates in
# [(box-1)/4, 3(box-1)/4]) holds an edge; smaller boxes leave no increments
_MIN_BOX = 4


def _rays(cfg: ExperimentConfig) -> list[str]:
    return [s.strip() for s in str(cfg.get("rays")).split(",")]


def _validate_lattice(cfg: ExperimentConfig, key: str, distinct: int) -> None:
    """box >= _MIN_BOX, and ``key`` a list of finite values > 0 with at least
    ``distinct`` distinct ones."""
    if not _read(cfg, "box", int) >= _MIN_BOX:
        raise ConfigError(f"{cfg.experiment} needs box >= {_MIN_BOX}")
    vals = _read(cfg, key, _floats)
    for v in vals:
        if not 0 < v < math.inf:
            raise ConfigError(f"{cfg.experiment} needs finite {key} > 0, got {v}")
    if len(set(vals)) < distinct:
        raise ConfigError(f"{cfg.experiment} needs {distinct} distinct values in {key}")


def _validate_resolvent(cfg: ExperimentConfig) -> None:
    _validate_lattice(cfg, "lambda_list", 3)  # a decay slope per ray over |lambda|
    for ray in _rays(cfg):
        if ray not in _RAY_PHASES:
            raise ConfigError(f"unknown ray {ray!r}; choose from {tuple(_RAY_PHASES)}")
    if not _read(cfg, "eta_p", float) > 2:
        raise ConfigError("resolvent_sweep needs eta_p > 2")
    if not math.isfinite(_read(cfg, "perturbation", float)):
        raise ConfigError("resolvent_sweep needs a finite perturbation")


def _validate_kernel(cfg: ExperimentConfig) -> None:
    # one time gives the increment fit a single abscissa on a unit lattice
    _validate_lattice(cfg, "t_grid", 2)
    if not 0 < _read(cfg, "c_prime", float) < math.inf:
        raise ConfigError("kernel_bounds needs a finite c_prime > 0")


def _validate_geometry(cfg: ExperimentConfig) -> None:
    _validate_family(cfg, 2)
    if cfg.get("r0") != "auto" and not 0 < _read(cfg, "r0", float) < math.inf:
        raise ConfigError("geometry needs r0 = auto or a finite r0 > 0")
    if cfg.get("sample_count") != "all" and not _read(cfg, "sample_count", int) >= 1:
        raise ConfigError("geometry needs sample_count = all or an integer >= 1")


def _validate_embeddings(cfg: ExperimentConfig) -> None:
    _validate_family(cfg, 2)
    if not _read(cfg, "trials", int) >= 1:
        raise ConfigError("embeddings needs trials >= 1")
    if not 1 <= _read(cfg, "p_sobolev", float) < 2:
        raise ConfigError("embeddings needs 1 <= p_sobolev < 2")
    if not _read(cfg, "p_holder", float) > 2:
        raise ConfigError("embeddings needs p_holder > 2")


# ---------------------------------------------------------------------------
# experiments

def run_meyers_sweep(cfg: ExperimentConfig):
    coeff = _coefficient(cfg)
    fload = _load_spec(cfg.get("f"))
    f_l2 = math.sqrt(_read(cfg, "domain", _domain).area)  # |f| = 1 on the domain
    cells = _solved_family(cfg, coeff, fload)
    rows = []
    for p in _read(cfg, "p_list", _floats):
        for lvl, tri, fld, lhuh in cells:
            w = fld.w1p_norm(p)
            rows.append({"experiment": "meyers_sweep", "p": p, "level": lvl,
                         "h": tri.h, "n_vertices": tri.n_vertices, "w1p": w,
                         "f_l2": f_l2, "ratio": w / f_l2, "lhuh_rel": lhuh})
    return rows, verdicts_meyers_sweep(rows)


def verdicts_meyers_sweep(rows):
    out = []
    for p in sorted({r["p"] for r in rows}):
        sub = [r for r in rows if r["p"] == p]
        fit = fit_loglog([(r["h"], r["ratio"]) for r in sub])
        ratios = [r["ratio"] for r in sub]
        mm = max(ratios) / min(ratios)
        t1 = THRESHOLDS[("meyers_sweep", "slope_abs_max")]
        t2 = THRESHOLDS[("meyers_sweep", "maxmin_max")]
        out.append(_verdict(f"uniform_bound_slope[p={p}]", fit.slope,
                            abs(fit.slope) <= t1, f"|slope| <= {t1}"))
        out.append(_verdict(f"uniform_bound_maxmin[p={p}]", mm, mm <= t2,
                            f"max/min <= {t2}"))
    return out


def run_counterexample(cfg: ExperimentConfig):
    problem = fem.meyers_problem(_coefficient(cfg).eps)
    fload = _load_spec(cfg.get("f"), problem)
    cells = _solved_family(cfg, problem.field, fload)
    rows = []
    for p in _read(cfg, "p_list", _floats):
        for lvl, tri, fld, lhuh in cells:
            rows.append({"experiment": "counterexample", "p": p, "p_c": problem.p_c,
                         "level": lvl, "h": tri.h, "w1p": fld.w1p_norm(p),
                         "lhuh_rel": lhuh})
    return rows, verdicts_counterexample(rows)


def verdicts_counterexample(rows):
    out = []
    for p in sorted({r["p"] for r in rows}):
        sub = [r for r in rows if r["p"] == p]
        p_c = sub[0]["p_c"]
        fit = fit_loglog([(r["h"], r["w1p"]) for r in sub])
        vals = [r["w1p"] for r in sub]
        mm = max(vals) / min(vals)
        if p > p_c:
            t = THRESHOLDS[("counterexample", "blowup_slope_max")]
            out.append(_verdict(f"blowup_slope[p={p}]", fit.slope, fit.slope <= t,
                                f"slope <= {t}"))
        else:
            t = THRESHOLDS[("counterexample", "bounded_maxmin_max")]
            out.append(_verdict(f"bounded_maxmin[p={p}]", mm, mm <= t,
                                f"max/min <= {t}"))
    return out


def run_holder_convergence(cfg: ExperimentConfig):
    coeff = _coefficient(cfg)
    fload = _load_spec(cfg.get("f"))
    cells = _solved_family(cfg, coeff, fload)
    rows = []
    for p in _read(cfg, "p_list", _floats):
        eta = 1.0 - 2.0 / p
        prev = None
        for lvl, tri, fld, lhuh in cells:
            hn = fld.holder_norm(eta)
            diff = "" if prev is None else fem.reconstruct(
                tri, mesh.red_prolong(*prev) - fld.values).holder_norm(eta)
            rows.append({"experiment": "holder_convergence", "p": p, "eta": eta,
                         "level": lvl, "h": tri.h, "holder_norm": hn,
                         "cauchy_diff": diff, "lhuh_rel": lhuh})
            prev = (tri, fld.values)
    return rows, verdicts_holder(rows)


def verdicts_holder(rows):
    out = []
    for p in sorted({r["p"] for r in rows}):
        sub = [r for r in rows if r["p"] == p]
        vals = [r["holder_norm"] for r in sub]
        mm = max(vals) / min(vals)
        t = THRESHOLDS[("holder_convergence", "maxmin_max")]
        out.append(_verdict(f"holder_maxmin[p={p}]", mm, mm <= t, f"max/min <= {t}"))
        diffs = [float(r["cauchy_diff"]) for r in sub if r["cauchy_diff"] != ""]
        dec = all(a > b for a, b in zip(diffs, diffs[1:])) and len(diffs) >= 2
        out.append(_verdict(f"holder_cauchy_decreasing[p={p}]",
                            diffs[-1] / diffs[0] if diffs else float("nan"),
                            dec, "strictly decreasing"))
    return out


def run_rate_theta(cfg: ExperimentConfig):
    coeff = _coefficient(cfg)
    fload = _load_spec(cfg.get("f"))
    p_probe = _read(cfg, "p_probe", float)
    eps = _read(cfg, "eps_probe", float)
    center_level = _read(cfg, "center_level", int)
    p_hi = 2.0 + eps
    theta = (1.0 / p_probe - 1.0 / p_hi) / (0.5 - 1.0 / p_hi)
    center_ref = reference.torsion_center_value()
    rows = []
    for lvl, tri, fld, lhuh in _solved_family(cfg, coeff, fload):
        # cache the series oracle at the quadrature points of this mesh
        qpts = fld._quad_points().reshape(-1, 2)
        vals = reference.torsion_value(qpts)
        grads = reference.torsion_gradient(qpts)
        u_fn = lambda _, v=vals: v
        g_fn = lambda _, g=grads: g
        center = float(fld([(0.5, 0.5)])[0])
        for p in (2.0, p_probe, p_hi):
            rows.append({"experiment": "rate_theta", "level": lvl, "h": tri.h,
                         "p": p, "w1p_error": fld.w1p_error(u_fn, g_fn, p),
                         "center_value": center, "center_ref": center_ref,
                         "center_level": center_level, "theta": theta,
                         "p_probe": p_probe, "p_hi": p_hi, "lhuh_rel": lhuh})
    return rows, verdicts_rate_theta(rows)


def verdicts_rate_theta(rows):
    out = []
    theta = rows[0]["theta"]
    p_probe, p_hi = rows[0]["p_probe"], rows[0]["p_hi"]
    center_level = int(rows[0]["center_level"])
    orders = {}
    for p in sorted({r["p"] for r in rows}):
        sub = [r for r in rows if r["p"] == p]
        orders[p] = fit_loglog([(r["h"], r["w1p_error"]) for r in sub]).slope
    crow = [r for r in rows if r["level"] == center_level][0]
    cerr = abs(crow["center_value"] - crow["center_ref"])
    t_c = THRESHOLDS[("rate_theta", "center_tol")]
    out.append(_verdict("center_value_error", cerr, cerr <= t_c, f"<= {t_c}"))
    t_w = THRESHOLDS[("rate_theta", "w12_order_min")]
    out.append(_verdict("w12_order", orders[2.0], orders[2.0] >= t_w, f">= {t_w}"))
    # interpolation of the measured endpoint orders with the theta exponent
    pred = theta * orders[2.0] + (1.0 - theta) * orders[p_hi]
    t_t = THRESHOLDS[("rate_theta", "theta_order_tol")]
    diff = abs(orders[p_probe] - pred)
    out.append(_verdict(f"theta_order[p={p_probe},theta={theta:.4f}]", diff,
                        diff <= t_t, f"|order - interp| <= {t_t}"))
    return out


def run_resolvent_sweep(cfg: ExperimentConfig):
    box = _read(cfg, "box", int)
    lams = _read(cfg, "lambda_list", _floats)
    eta_p = _read(cfg, "eta_p", float)
    eta = 1.0 - 2.0 / eta_p
    amp = _read(cfg, "perturbation", float)
    g = graph.rescale(graph.lattice_box(box, box), 1.0 / box)
    variants = [("symmetric", operators.uniform_coefficients(g)),
                ("perturbed", operators.perturbed_coefficients(g, amp))]
    rays = _rays(cfg)
    sweeps = operators.resolvent_bound_sweep(
        [operators.build_operator(g, coeffs) for _, coeffs in variants],
        [l * _RAY_PHASES[ray] for ray in rays for l in lams], eta=eta, seed=cfg.seed)
    rows = []
    for (vname, _), sweep in zip(variants, sweeps):
        for i, r in enumerate(sweep.rows):
            rows.append({"experiment": "resolvent_sweep", "variant": vname,
                         "ray": rays[i // len(lams)], "lam_re": r.lam.real,
                         "lam_im": r.lam.imag, "abs_lam": abs(r.lam),
                         "sup_ratio": r.sup_ratio, "holder_ratio": r.holder_ratio,
                         "R_inf": r.R_inf, "R_eta": r.R_eta, "eta": eta})
    return rows, verdicts_resolvent(rows)


def verdicts_resolvent(rows):
    out = []
    lam_dec = THRESHOLDS[("resolvent_sweep", "slope_range")]
    for vname in sorted({r["variant"] for r in rows}):
        for ray in sorted({r["ray"] for r in rows if r["variant"] == vname}):
            sub = [r for r in rows if r["variant"] == vname and r["ray"] == ray]
            rinf = [r["R_inf"] for r in sub]
            reta = [r["R_eta"] for r in sub]
            fit = fit_loglog([(r["abs_lam"], r["sup_ratio"]) for r in sub])
            mm_i = max(rinf) / min(rinf)
            mm_e = max(reta) / min(reta)
            t_i = THRESHOLDS[("resolvent_sweep", "r_inf_maxmin_max")]
            t_e = THRESHOLDS[("resolvent_sweep", "r_eta_maxmin_max")]
            tag = f"[{vname},{ray}]"
            out.append(_verdict(f"R_inf_maxmin{tag}", mm_i, mm_i <= t_i, f"<= {t_i}"))
            out.append(_verdict(f"sup_slope{tag}", fit.slope,
                                lam_dec[0] <= fit.slope <= lam_dec[1],
                                f"in [{lam_dec[0]}, {lam_dec[1]}]"))
            out.append(_verdict(f"R_eta_maxmin{tag}", mm_e, mm_e <= t_e, f"<= {t_e}"))
    return out


def run_kernel_bounds(cfg: ExperimentConfig):
    box = _read(cfg, "box", int)
    ts = _read(cfg, "t_grid", _floats)
    c_prime = _read(cfg, "c_prime", float)
    g = graph.lattice_box(box, box)
    op = operators.build_operator(g, operators.uniform_coefficients(g))
    y = (box // 2) * box + box // 2
    col = operators.kernel_column(op, ts, y)
    fitb = operators.kernel_bound_check(col, c_prime=c_prime)
    cpp, eta_inc, rate_inc = operators.kernel_holder_fit(col)

    pairs = [(i, j, x) for i in range(len(ts)) for j, x in enumerate(col.window)]
    table_rows = [{"t": ts[i], "y": y, "x": int(x), "d": float(col.d[j]),
                   "h_star": float(col.h_star[j]), "regime": "b" if in_b else "a",
                   "K_re": float(col.values[i, x].real), "K_im": float(col.values[i, x].imag),
                   "bound_value": float(bound)}
                  for (i, j, x), in_b, bound in zip(pairs, fitb.in_b, fitb.bound, strict=True)]

    meta_rows = [{"experiment": "kernel_bounds", "t": t, "y": y,
                  "oracle_dev": float(col.oracle_dev[i]), "mass": float(col.mass[i]),
                  "neighbor_d": float(col.edge_h.max()),
                  "max_neighbor_increment": float(col.increments[i].max()),
                  "C": fitb.C, "beta": fitb.beta,
                  "pass_rate_b": fitb.pass_rate_b,
                  "pass_rate_a": fitb.pass_rate_a,
                  "C_holder": cpp, "eta_increment": eta_inc,
                  "pass_rate_holder": rate_inc, "c_prime": c_prime}
                 for i, t in enumerate(ts)]
    return (meta_rows, table_rows), verdicts_kernel(meta_rows)


def verdicts_kernel(meta_rows):
    out = []
    dev = max(float(r["oracle_dev"]) for r in meta_rows)
    t_d = THRESHOLDS[("kernel_bounds", "oracle_dev_max")]
    out.append(_verdict("contour_vs_oracle", dev, dev <= t_d, f"<= {t_d}"))
    beta = float(meta_rows[0]["beta"])
    rate_b = min(float(r["pass_rate_b"]) for r in meta_rows)
    out.append(_verdict("regime_b_beta_positive", beta, beta > 0, "> 0"))
    out.append(_verdict("regime_b_pass_rate", rate_b, rate_b == 1.0, "== 1.0"))
    eta_inc = float(meta_rows[0]["eta_increment"])
    rate_h = min(float(r["pass_rate_holder"]) for r in meta_rows)
    out.append(_verdict("holder_increment_eta_positive", eta_inc, eta_inc > 0, "> 0"))
    out.append(_verdict("holder_increment_pass_rate", rate_h, rate_h == 1.0, "== 1.0"))
    return out


def run_embeddings(cfg: ExperimentConfig):
    trials = _read(cfg, "trials", int)
    ps, ph = _read(cfg, "p_sobolev", float), _read(cfg, "p_holder", float)
    rows = []
    for lvl, tri in _family(cfg):
        g = graph.from_triangulation(tri)
        r_s = spaces.embedding_report(g, ps, trials=trials, seed=cfg.seed)
        r_h = spaces.embedding_report(g, ph, trials=trials, seed=cfg.seed)
        rows.append({"experiment": "embeddings", "level": lvl, "h": tri.h,
                     "n_vertices": tri.n_vertices, "p_sobolev": ps,
                     "p_star": r_s.p_star, "sobolev_ratio_max": r_s.sobolev_ratio_max,
                     "p_holder": ph, "eta": r_h.eta,
                     "holder_ratio_max": r_h.holder_ratio_max})
    return rows, verdicts_embeddings(rows)


def _stability_verdicts(rows, experiment: str, keys) -> list[dict]:
    """max/min of each column across the family, below factor_max."""
    out = []
    t = THRESHOLDS[(experiment, "factor_max")]
    for key in keys:
        vals = [float(r[key]) for r in rows]
        factor = max(vals) / min(vals)
        out.append(_verdict(f"{key}_stability", factor, factor < t, f"< {t}"))
    return out


def verdicts_embeddings(rows):
    return _stability_verdicts(rows, "embeddings", ("sobolev_ratio_max", "holder_ratio_max"))


def run_geometry(cfg: ExperimentConfig):
    count = None if cfg.get("sample_count") == "all" else _read(cfg, "sample_count", int)
    rows = []
    for lvl, tri in _family(cfg):
        g = graph.from_triangulation(tri)
        # lattice-relative radius cap keeps the probed ball patterns
        # self-similar across the refinement family
        r0 = 2.5 * tri.h if cfg.get("r0") == "auto" else _read(cfg, "r0", float)
        rep = graph.geometry_report(g, r0, sample_count=count, seed=cfg.seed)
        rows.append({"experiment": "geometry", "level": lvl, "h": tri.h,
                     "r0": rep.r0, "C_D": rep.C_D, "c_L": rep.c_L, "C_P": rep.C_P,
                     "D": rep.D, "balls": rep.balls_sampled})
    return rows, verdicts_geometry(rows)


def verdicts_geometry(rows):
    return _stability_verdicts(rows, "geometry", ("C_D", "c_L", "C_P"))


# ---------------------------------------------------------------------------
# registry

@dataclass(frozen=True)
class Experiment:
    """One experiment: config defaults, validation, runner, verdicts and the
    row files it writes as (file name, comma-joined header) pairs.

    ``run(cfg)`` returns ``(rows, verdicts)``, with ``rows`` a tuple of one
    row list per file when the experiment writes several files.
    ``verdicts(rows)`` recomputes the verdicts from the rows of the first
    file alone.
    """

    name: str
    defaults: dict
    run: Callable
    verdicts: Callable
    files: tuple
    validate: Callable = lambda cfg: None


REGISTRY = {exp.name: exp for exp in (
    Experiment(
        "meyers_sweep",
        dict(domain="unit_square", coefficient="checkerboard:1:4", f="one",
             levels="3,4,5,6", p_list="2.2"),
        run_meyers_sweep, verdicts_meyers_sweep,
        (("meyers_sweep_rows.csv",
          "experiment,p,level,h,n_vertices,w1p,f_l2,ratio,lhuh_rel"),),
        _validate_p_above_2),
    Experiment(
        "counterexample",
        dict(domain="square2", coefficient="meyers:0.5", f="auto",
             levels="3,4,5,6", p_list="2.5,6"),
        run_counterexample, verdicts_counterexample,
        (("counterexample_rows.csv", "experiment,p,p_c,level,h,w1p,lhuh_rel"),),
        _validate_counterexample),
    Experiment(
        "holder_convergence",
        dict(domain="unit_square", coefficient="checkerboard:1:4", f="one",
             levels="3,4,5,6", p_list="2.2"),
        run_holder_convergence, verdicts_holder,
        (("holder_convergence_rows.csv",
          "experiment,p,eta,level,h,holder_norm,cauchy_diff,lhuh_rel"),),
        _validate_p_above_2),
    Experiment(
        "rate_theta",
        dict(domain="unit_square", coefficient="constant:1", f="minus_one",
             levels="3,4,5,6", p_probe="2.2", eps_probe="0.5", center_level="5"),
        run_rate_theta, verdicts_rate_theta,
        (("rate_theta_rows.csv",
          "experiment,level,h,p,w1p_error,center_value,center_ref,center_level,"
          "theta,p_probe,p_hi,lhuh_rel"),),
        _validate_rate_theta),
    Experiment(
        "resolvent_sweep",
        dict(box="64", lambda_list="1,10,100,1000", rays="real,sector", eta_p="4",
             perturbation="0.3"),
        run_resolvent_sweep, verdicts_resolvent,
        (("resolvent_sweep_rows.csv",
          "experiment,variant,ray,lam_re,lam_im,abs_lam,sup_ratio,holder_ratio,"
          "R_inf,R_eta,eta"),),
        _validate_resolvent),
    Experiment(
        "kernel_bounds",
        dict(box="48", t_grid="0.5,1,2,4,8", c_prime="1"),
        run_kernel_bounds, verdicts_kernel,
        (("kernel_bounds_rows.csv",
          "experiment,t,y,oracle_dev,mass,neighbor_d,max_neighbor_increment,C,beta,"
          "pass_rate_b,pass_rate_a,C_holder,eta_increment,pass_rate_holder,c_prime"),
         ("kernel_table.csv", "t,y,x,d,h_star,regime,K_re,K_im,bound_value")),
        _validate_kernel),
    Experiment(
        "embeddings",
        dict(domain="unit_square", levels="2,3,4,5", p_sobolev="1.5", p_holder="4",
             trials="20"),
        run_embeddings, verdicts_embeddings,
        (("embeddings_rows.csv",
          "experiment,level,h,n_vertices,p_sobolev,p_star,sobolev_ratio_max,"
          "p_holder,eta,holder_ratio_max"),),
        _validate_embeddings),
    Experiment(
        "geometry",
        dict(domain="unit_square", levels="3,4,5,6", r0="auto", sample_count="all"),
        run_geometry, verdicts_geometry,
        (("geometry_rows.csv", "experiment,level,h,r0,C_D,c_L,C_P,D,balls"),),
        _validate_geometry),
)}


# ---------------------------------------------------------------------------
# orchestration

def _format_cell(v) -> str:
    if isinstance(v, str):
        return v
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return repr(float(v))


def write_csv(path: str, header: list[str], rows: list[dict]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([_format_cell(row.get(col, "")) for col in header]
                         for row in rows)


@dataclass
class RunSummary:
    experiment: str
    verdicts: list
    csv_paths: list
    all_pass: bool


def run(cfg: ExperimentConfig) -> RunSummary:
    """Execute one experiment, write its CSVs, and return the verdicts."""
    exp = REGISTRY[cfg.experiment]
    os.makedirs(cfg.out, exist_ok=True)
    result, verdicts = exp.run(cfg)
    tables = result if len(exp.files) > 1 else (result,)
    paths = []
    for (name, header), rows in zip(exp.files, tables):
        paths.append(os.path.join(cfg.out, name))
        write_csv(paths[-1], header.split(","), rows)
    paths.append(os.path.join(cfg.out, f"{cfg.experiment}_summary.csv"))
    write_csv(paths[-1], SUMMARY_HEADER.split(","), verdicts)
    return RunSummary(cfg.experiment, verdicts, paths,
                      all(v["verdict"] == "pass" for v in verdicts))


def _parse_csv(path: str) -> tuple[list[str], list[dict]]:
    with open(path, newline="", encoding="utf-8") as fh:
        header, *lines = [cells for cells in csv.reader(fh) if cells]
    rows = []
    for cells in lines:
        row = {}
        for key, cell in zip(header, cells):
            try:
                row[key] = float(cell)
            except ValueError:
                row[key] = cell
        rows.append(row)
    return header, rows


def recompute_verdicts(paths: list[str]) -> list[dict]:
    """Re-derive summary verdicts from emitted row CSVs alone."""
    by_header = {header: (exp, i) for exp in REGISTRY.values()
                 for i, (_, header) in enumerate(exp.files)}
    first_files: dict[str, list[dict]] = {}
    for path in paths:
        header, rows = _parse_csv(path)
        key = ",".join(header)
        if key == SUMMARY_HEADER:
            continue  # summaries are outputs, not inputs
        if key not in by_header:
            raise ConfigError(f"{path}: not a recognized rows file")
        exp, i = by_header[key]
        if i == 0:  # verdicts read the first file; the others are tables
            first_files.setdefault(exp.name, []).extend(rows)
    return [v for name, rows in sorted(first_files.items())
            for v in REGISTRY[name].verdicts(rows)]
