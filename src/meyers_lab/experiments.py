"""Config-driven experiment harness with CSV emission and verdicts.

Configs are flat ``key = value`` text (comments start with #). Every run is
deterministic given the seed, CSV cells are written with round-trip float
repr, and runners only tabulate rows: ``run`` judges the written verdict file
with ``recompute_verdicts``, the code the ``report`` command runs.

Each experiment is one ``Experiment`` record in ``REGISTRY``: the config keys
it reads, each with its default text and the one parser of that text, a check
of the rules that span keys, the runner, the verdicts and the row files it
writes with their headers. A key the experiment does not read is refused.

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
    """``params`` holds each key's text (defaults plus overrides) and
    ``values`` the same keys parsed by the record's parsers."""

    experiment: str
    params: dict = dc_field(default_factory=dict)
    seed: int = 0
    out: str = "results"
    values: dict = dc_field(default_factory=dict)


def parse_config(text: str) -> ExperimentConfig:
    """Parse flat key = value lines. Each key the experiment reads is parsed
    once, by its record's parser; a key it does not read, or a key given
    twice, is refused."""
    raw, line_of = {}, {}
    for ln, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {ln}: expected 'key = value'")
        key, val = (s.strip() for s in line.split("=", 1))
        if not key:
            raise ConfigError(f"line {ln}: empty key")
        if key in raw:
            raise ConfigError(f"line {ln}: key {key!r} repeats line {line_of[key]}")
        raw[key], line_of[key] = val, ln
    if "experiment" not in raw:
        raise ConfigError("missing 'experiment' key")
    name = raw.pop("experiment")
    if name not in REGISTRY:
        raise ConfigError(f"unknown experiment {name!r}; choose from {tuple(REGISTRY)}")
    exp = REGISTRY[name]
    seed = _parse("seed", raw.pop("seed", "0"), int)
    if seed < 0:
        raise ConfigError(f"seed must be non-negative, got {seed}")
    out = raw.pop("out", "results")
    if not out:
        raise ConfigError("out is empty; it names the directory the CSVs go to")
    for key in raw:
        if key not in exp.keys:
            raise ConfigError(f"{name} reads no key {key!r}; its keys are "
                              f"{('seed', 'out', *exp.keys)}")
    params = {**exp.defaults, **raw}
    values = {key: _parse(key, params[key], parse) for key, (_, parse) in exp.keys.items()}
    exp.check(name, values)
    return ExperimentConfig(name, params, seed, out, values)


def _parse(key: str, text: str, parse):
    """``parse(text)``, with malformed text reported as a ConfigError."""
    try:
        return parse(text)
    except (ValueError, ArithmeticError) as exc:
        raise ConfigError(f"{key} = {text!r}: {exc}") from None


# ---------------------------------------------------------------------------
# key parsers: text to value, raising ValueError on malformed or out-of-range
# text; parse_config names the key in the ConfigError it raises instead

def _where(parse, ok, need: str):
    """``parse``, refusing a value for which ``ok`` is false."""
    def parser(text):
        value = parse(text)
        if not ok(value):
            raise ValueError(f"needs {need}")
        return value
    return parser


def _floats(text: str) -> list[float]:
    return [float(tok) for tok in text.split(",")]


def _ints(text: str) -> list[int]:
    return [int(tok) for tok in text.split(",")]


def _positive_list(at_least: int):
    """At least ``at_least`` distinct finite values > 0: a repeated value
    would repeat its row block."""
    return _where(_floats, lambda vs: all(0 < v < math.inf for v in vs)
                  and len(set(vs)) == len(vs) >= at_least,
                  f"{at_least} or more distinct finite values > 0")


def _p_list(p_min: float):
    """Distinct exponents p > p_min: a repeated p would repeat its row block."""
    return _where(_floats, lambda ps: all(p > p_min for p in ps)
                  and len(set(ps)) == len(ps), f"distinct values p > {p_min}")


def _levels(at_least: int):
    """At least ``at_least`` consecutive increasing integers; level k targets
    grid spacing 2^-k."""
    return _where(_ints, lambda ls: len(ls) >= at_least
                  and all(cur == prev + 1 for prev, cur in zip(ls, ls[1:])),
                  f"at least {at_least} consecutive increasing levels")


def _domain(name: str) -> mesh.Polygon:
    if name == "unit_square":
        return mesh.Polygon.unit_square()
    if name == "square2":
        return mesh.Polygon.symmetric_square(1.0)
    if name.startswith("rect:"):
        x0, y0, x1, y1 = (float(t) for t in name.split(":")[1:])
        return mesh.Polygon.rectangle(x0, y0, x1, y1)
    raise ValueError("choose from unit_square, square2, rect:x0:y0:x1:y1")


_positive = _where(float, lambda v: 0 < v < math.inf, "a finite value > 0")
_count = _where(int, lambda v: v >= 1, "an integer >= 1")
_above_2 = _where(float, lambda v: v > 2, "a value > 2")

# smallest lattice box whose interior window (graph.box_window: coordinates in
# [(box-1)/4, 3(box-1)/4]) holds an edge; smaller boxes leave no increments
_MIN_BOX = 4
_box = _where(int, lambda v: v >= _MIN_BOX, f"box >= {_MIN_BOX}")

# resolvent rays: the positive reals and the ray at angle 3 pi / 5
_RAY_PHASES = {"real": 1.0, "sector": np.exp(1j * 3 * math.pi / 5)}
_rays = _where(lambda text: [s.strip() for s in text.split(",")],
               lambda rays: set(rays) <= set(_RAY_PHASES) and len(set(rays)) == len(rays),
               f"distinct rays among {tuple(_RAY_PHASES)}")


def _r0(text: str):
    """The ball radius cap as a function of the mesh size h: auto is 2.5 h, a
    lattice-relative cap that keeps the probed ball patterns self-similar
    across the refinement family; otherwise a fixed finite r0 > 0."""
    if text == "auto":
        return lambda h: 2.5 * h
    r0 = _positive(text)
    return lambda h: r0


def _sample_count(text: str) -> int | None:
    """all (None: every center) or an integer >= 1."""
    return None if text == "all" else _count(text)


# ---------------------------------------------------------------------------
# checks of the rules that span keys

def _check_family(name: str, poly: mesh.Polygon, level: int, need: int = 1) -> None:
    """The coarsest mesh, at ``level``, of ``poly`` has ``need`` interior vertices."""
    if _interior_vertices(poly, level) < need:
        raise ConfigError(f"level {level} is too coarse for the domain: {name} needs "
                          f"{need} or more interior vertices in its mesh")


def _interior_vertices(poly: mesh.Polygon, level: int) -> float:
    """Interior vertices of the level's mesh of ``poly`` (an axis rectangle,
    as every experiment's domain is), counted without meshing: triangulate needs a
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


def _check_domain_family(name: str, values: dict) -> None:
    _check_family(name, values["domain"], values["levels"][0])


def _check_counterexample(name: str, values: dict) -> None:
    # one interior vertex carries one hat function; on square2 it is the
    # origin, where the P1 solution is 0 and the slope fit has no data
    _check_family(name, _domain("square2"), values["levels"][0], need=2)


def _check_rate_theta(name: str, values: dict) -> None:
    _check_family(name, _domain("unit_square"), values["levels"][0])
    # theta in (0, 1): p_probe strictly between the endpoints 2 and 2 + eps
    if not 2 < values["p_probe"] < 2 + values["eps_probe"]:
        raise ConfigError("rate_theta needs 2 < p_probe < 2 + eps_probe")
    if values["center_level"] not in values["levels"]:
        raise ConfigError("rate_theta needs center_level among the levels")


def _family(poly: mesh.Polygon, levels: list[int]) -> list[tuple[int, mesh.Triangulation]]:
    """(level, mesh) over the red-refinement family of ``poly``."""
    tris = [mesh.triangulate(poly, 2.0 ** -levels[0])]
    for _ in levels[1:]:
        tris.append(mesh.refine_red(tris[-1]))
    return list(zip(levels, tris))


def _solved_family(poly: mesh.Polygon, levels: list[int], coeff, f) -> list[tuple]:
    """(level, mesh, P1 solution, lhuh_rel) per level, one solve each; lhuh_rel
    is max |apply_Lh(u) + f_h| relative to max |f_h|."""
    cells = []
    for lvl, tri in _family(poly, levels):
        system = fem.assemble(tri, coeff)
        b = fem.load(system, f)
        u = fem.solve(system, b)
        lh = fem.apply_Lh(system, u)
        target = -fem.f_h(system, b)
        scale = float(np.abs(target).max()) or 1.0
        cells.append((lvl, tri, fem.reconstruct(tri, u),
                      float(np.abs(lh - target).max() / scale)))
    return cells


def _verdict(name, value, ok, threshold) -> dict:
    return {"check": name, "value": value, "threshold": threshold,
            "verdict": "pass" if ok else "fail"}


def _groups(rows, *keys) -> list[tuple[tuple, list[dict]]]:
    """(values of ``keys``, the rows holding them, in order) per distinct values, sorted."""
    groups: dict[tuple, list[dict]] = {}
    for r in rows:
        groups.setdefault(tuple(r[k] for k in keys), []).append(r)
    return sorted(groups.items())


# ---------------------------------------------------------------------------
# experiments

def run_meyers_sweep(cfg: ExperimentConfig):
    v = cfg.values
    f_l2 = math.sqrt(v["domain"].area)  # |f| = 1 on the domain
    cells = _solved_family(v["domain"], v["levels"], v["coefficient"], lambda pts: 1.0)
    rows = []
    for p in v["p_list"]:
        for lvl, tri, fld, lhuh in cells:
            w = fld.w1p_norm(p)
            rows.append({"experiment": "meyers_sweep", "p": p, "level": lvl,
                         "h": tri.h, "n_vertices": tri.n_vertices, "w1p": w,
                         "f_l2": f_l2, "ratio": w / f_l2, "lhuh_rel": lhuh})
    return (rows,)


def verdicts_meyers_sweep(rows):
    out = []
    for (p,), sub in _groups(rows, "p"):
        slope = fit_loglog([(r["h"], r["ratio"]) for r in sub])
        ratios = [r["ratio"] for r in sub]
        mm = max(ratios) / min(ratios)
        t1 = THRESHOLDS[("meyers_sweep", "slope_abs_max")]
        t2 = THRESHOLDS[("meyers_sweep", "maxmin_max")]
        out.append(_verdict(f"uniform_bound_slope[p={p}]", slope,
                            abs(slope) <= t1, f"|slope| <= {t1}"))
        out.append(_verdict(f"uniform_bound_maxmin[p={p}]", mm, mm <= t2,
                            f"max/min <= {t2}"))
    return out


def run_counterexample(cfg: ExperimentConfig):
    v = cfg.values
    problem = v["eps"]  # the radial/tangential family's manufactured problem
    cells = _solved_family(_domain("square2"), v["levels"], problem.field, problem.f)
    rows = []
    for p in v["p_list"]:
        for lvl, tri, fld, lhuh in cells:
            rows.append({"experiment": "counterexample", "p": p, "p_c": problem.p_c,
                         "level": lvl, "h": tri.h, "w1p": fld.w1p_norm(p),
                         "lhuh_rel": lhuh})
    return (rows,)


def verdicts_counterexample(rows):
    out = []
    for (p,), sub in _groups(rows, "p"):
        p_c = sub[0]["p_c"]
        slope = fit_loglog([(r["h"], r["w1p"]) for r in sub])
        vals = [r["w1p"] for r in sub]
        mm = max(vals) / min(vals)
        if p > p_c:
            t = THRESHOLDS[("counterexample", "blowup_slope_max")]
            out.append(_verdict(f"blowup_slope[p={p}]", slope, slope <= t,
                                f"slope <= {t}"))
        else:
            t = THRESHOLDS[("counterexample", "bounded_maxmin_max")]
            out.append(_verdict(f"bounded_maxmin[p={p}]", mm, mm <= t,
                                f"max/min <= {t}"))
    return out


def run_holder_convergence(cfg: ExperimentConfig):
    v = cfg.values
    cells = _solved_family(v["domain"], v["levels"], v["coefficient"], lambda pts: 1.0)
    rows = []
    for p in v["p_list"]:
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
    return (rows,)


def verdicts_holder(rows):
    out = []
    for (p,), sub in _groups(rows, "p"):
        vals = [r["holder_norm"] for r in sub]
        mm = max(vals) / min(vals)
        t = THRESHOLDS[("holder_convergence", "maxmin_max")]
        out.append(_verdict(f"holder_maxmin[p={p}]", mm, mm <= t, f"max/min <= {t}"))
        diffs = [r["cauchy_diff"] for r in sub if r["cauchy_diff"] != ""]
        dec = all(a > b for a, b in zip(diffs, diffs[1:])) and len(diffs) >= 2
        out.append(_verdict(f"holder_cauchy_decreasing[p={p}]",
                            diffs[-1] / diffs[0] if diffs else float("nan"),
                            dec, "strictly decreasing"))
    return out


def run_rate_theta(cfg: ExperimentConfig):
    # the torsion problem: identity coefficient and f = -1 on the unit square
    levels, p_probe, eps, center_level = (
        cfg.values[key] for key in ("levels", "p_probe", "eps_probe", "center_level"))
    p_hi = 2.0 + eps
    theta = (1.0 / p_probe - 1.0 / p_hi) / (0.5 - 1.0 / p_hi)
    center_ref = reference.torsion_center_value()
    rows = []
    cells = _solved_family(_domain("unit_square"), levels, fem.identity_field(),
                           lambda pts: -1.0)
    for lvl, tri, fld, lhuh in cells:
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
    return (rows,)


def verdicts_rate_theta(rows):
    out = []
    theta = rows[0]["theta"]
    p_probe, p_hi = rows[0]["p_probe"], rows[0]["p_hi"]
    orders = {p: fit_loglog([(r["h"], r["w1p_error"]) for r in sub])
              for (p,), sub in _groups(rows, "p")}
    crow = [r for r in rows if r["level"] == rows[0]["center_level"]][0]
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
    v = cfg.values
    box, lams, rays = v["box"], v["lambda_list"], v["rays"]
    eta = 1.0 - 2.0 / v["eta_p"]
    g = graph.rescale(graph.lattice_box(box, box), 1.0 / box)
    variants = [("symmetric", operators.uniform_coefficients(g)),
                ("perturbed", operators.perturbed_coefficients(g, v["perturbation"]))]
    lam_all = [complex(l * _RAY_PHASES[ray]) for ray in rays for l in lams]
    sup, hol = operators.resolvent_bound_sweep(
        [operators.build_operator(g, coeffs) for _, coeffs in variants],
        lam_all, eta=eta)
    rows = []
    for (vname, _), sup_v, hol_v in zip(variants, sup.tolist(), hol.tolist()):
        for i, (lam, s, h) in enumerate(zip(lam_all, sup_v, hol_v)):
            al = abs(lam)
            rows.append({"experiment": "resolvent_sweep", "variant": vname,
                         "ray": rays[i // len(lams)], "lam_re": lam.real,
                         "lam_im": lam.imag, "abs_lam": al,
                         "sup_ratio": s, "holder_ratio": h, "R_inf": s * al**0.5,
                         "R_eta": h * al ** ((1.0 - eta) / 2.0), "eta": eta})
    return (rows,)


def verdicts_resolvent(rows):
    out = []
    lam_dec = THRESHOLDS[("resolvent_sweep", "slope_range")]
    for (vname, ray), sub in _groups(rows, "variant", "ray"):
        rinf = [r["R_inf"] for r in sub]
        reta = [r["R_eta"] for r in sub]
        slope = fit_loglog([(r["abs_lam"], r["sup_ratio"]) for r in sub])
        mm_i = max(rinf) / min(rinf)
        mm_e = max(reta) / min(reta)
        t_i = THRESHOLDS[("resolvent_sweep", "r_inf_maxmin_max")]
        t_e = THRESHOLDS[("resolvent_sweep", "r_eta_maxmin_max")]
        tag = f"[{vname},{ray}]"
        out.append(_verdict(f"R_inf_maxmin{tag}", mm_i, mm_i <= t_i, f"<= {t_i}"))
        out.append(_verdict(f"sup_slope{tag}", slope,
                            lam_dec[0] <= slope <= lam_dec[1],
                            f"in [{lam_dec[0]}, {lam_dec[1]}]"))
        out.append(_verdict(f"R_eta_maxmin{tag}", mm_e, mm_e <= t_e, f"<= {t_e}"))
    return out


def run_kernel_bounds(cfg: ExperimentConfig):
    box, ts, c_prime = (cfg.values[key] for key in ("box", "t_grid", "c_prime"))
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
    return meta_rows, table_rows


def verdicts_kernel(meta_rows):
    out = []
    dev = max(r["oracle_dev"] for r in meta_rows)
    t_d = THRESHOLDS[("kernel_bounds", "oracle_dev_max")]
    out.append(_verdict("contour_vs_oracle", dev, dev <= t_d, f"<= {t_d}"))
    beta = meta_rows[0]["beta"]
    rate_b = min(r["pass_rate_b"] for r in meta_rows)
    out.append(_verdict("regime_b_beta_positive", beta, beta > 0, "> 0"))
    out.append(_verdict("regime_b_pass_rate", rate_b, rate_b == 1.0, "== 1.0"))
    eta_inc = meta_rows[0]["eta_increment"]
    rate_h = min(r["pass_rate_holder"] for r in meta_rows)
    out.append(_verdict("holder_increment_eta_positive", eta_inc, eta_inc > 0, "> 0"))
    out.append(_verdict("holder_increment_pass_rate", rate_h, rate_h == 1.0, "== 1.0"))
    return out


def run_embeddings(cfg: ExperimentConfig):
    trials, ps, ph = (cfg.values[key] for key in ("trials", "p_sobolev", "p_holder"))
    rows = []
    for lvl, tri in _family(cfg.values["domain"], cfg.values["levels"]):
        g = graph.from_triangulation(tri)
        rep = spaces.embedding_report(g, ps, ph, trials=trials, seed=cfg.seed)
        rows.append({"experiment": "embeddings", "level": lvl, "h": tri.h,
                     "n_vertices": tri.n_vertices, **vars(rep)})
    return (rows,)


def _stability_verdicts(rows, experiment: str, keys) -> list[dict]:
    """max/min of each column across the family, below factor_max."""
    out = []
    t = THRESHOLDS[(experiment, "factor_max")]
    for key in keys:
        vals = [r[key] for r in rows]
        factor = max(vals) / min(vals)
        out.append(_verdict(f"{key}_stability", factor, factor < t, f"< {t}"))
    return out


def verdicts_embeddings(rows):
    return _stability_verdicts(rows, "embeddings", ("sobolev_ratio_max", "holder_ratio_max"))


def run_geometry(cfg: ExperimentConfig):
    rows = []
    for lvl, tri in _family(cfg.values["domain"], cfg.values["levels"]):
        g = graph.from_triangulation(tri)
        rep = graph.geometry_report(g, cfg.values["r0"](tri.h),
                                    sample_count=cfg.values["sample_count"], seed=cfg.seed)
        rows.append({"experiment": "geometry", "level": lvl, "h": tri.h,
                     "r0": rep.r0, "C_D": rep.C_D, "c_L": rep.c_L, "C_P": rep.C_P,
                     "D": rep.D, "balls": rep.balls_sampled})
    return (rows,)


def verdicts_geometry(rows):
    return _stability_verdicts(rows, "geometry", ("C_D", "c_L", "C_P"))


# ---------------------------------------------------------------------------
# registry

@dataclass(frozen=True)
class Experiment:
    """One experiment: the config keys it reads, each as ``key: (default
    text, parser)``, the runner, the verdicts, the row files it writes as
    (file name, comma-joined header) pairs, and ``check(name, values)`` for
    the rules that span keys.

    A parser turns the text into the value ``run`` reads from ``cfg.values``
    and raises ValueError on malformed or out-of-range text. ``run(cfg)``
    returns the row tables only, one row list per entry of ``files``.
    ``verdicts(rows)`` judges the parsed rows of the first file, the verdict
    file; only ``recompute_verdicts`` calls it.
    """

    name: str
    keys: dict
    run: Callable
    verdicts: Callable
    files: tuple
    check: Callable = lambda name, values: None

    @property
    def defaults(self) -> dict:
        return {key: text for key, (text, _) in self.keys.items()}


REGISTRY = {exp.name: exp for exp in (
    Experiment(
        "meyers_sweep",
        dict(domain=("unit_square", _domain),
             coefficient=("checkerboard:1:4", fem.coefficient_field),
             levels=("3,4,5,6", _levels(3)), p_list=("2.2", _p_list(2))),
        run_meyers_sweep, verdicts_meyers_sweep,
        (("meyers_sweep_rows.csv",
          "experiment,p,level,h,n_vertices,w1p,f_l2,ratio,lhuh_rel"),),
        _check_domain_family),
    Experiment(
        "counterexample",
        # eps: the radial/tangential family's manufactured problem, on square2
        dict(eps=("0.5", lambda text: fem.meyers_problem(float(text))),
             levels=("3,4,5,6", _levels(3)), p_list=("2.5,6", _p_list(1))),
        run_counterexample, verdicts_counterexample,
        (("counterexample_rows.csv", "experiment,p,p_c,level,h,w1p,lhuh_rel"),),
        _check_counterexample),
    Experiment(
        "holder_convergence",
        dict(domain=("unit_square", _domain),
             coefficient=("checkerboard:1:4", fem.coefficient_field),
             levels=("3,4,5,6", _levels(3)), p_list=("2.2", _p_list(2))),
        run_holder_convergence, verdicts_holder,
        (("holder_convergence_rows.csv",
          "experiment,p,eta,level,h,holder_norm,cauchy_diff,lhuh_rel"),),
        _check_domain_family),
    Experiment(
        "rate_theta",
        dict(levels=("3,4,5,6", _levels(3)),
             p_probe=("2.2", float), eps_probe=("0.5", _positive), center_level=("5", int)),
        run_rate_theta, verdicts_rate_theta,
        (("rate_theta_rows.csv",
          "experiment,level,h,p,w1p_error,center_value,center_ref,center_level,"
          "theta,p_probe,p_hi,lhuh_rel"),),
        _check_rate_theta),
    Experiment(
        "resolvent_sweep",
        # three distinct |lambda| give a decay slope per ray
        dict(box=("64", _box), lambda_list=("1,10,100,1000", _positive_list(3)),
             rays=("real,sector", _rays), eta_p=("4", _above_2),
             perturbation=("0.3", _where(float, math.isfinite, "a finite value"))),
        run_resolvent_sweep, verdicts_resolvent,
        (("resolvent_sweep_rows.csv",
          "experiment,variant,ray,lam_re,lam_im,abs_lam,sup_ratio,holder_ratio,"
          "R_inf,R_eta,eta"),)),
    Experiment(
        "kernel_bounds",
        # one time gives the increment fit a single abscissa on a unit lattice
        dict(box=("48", _box), t_grid=("0.5,1,2,4,8", _positive_list(2)),
             c_prime=("1", _positive)),
        run_kernel_bounds, verdicts_kernel,
        (("kernel_bounds_rows.csv",
          "experiment,t,y,oracle_dev,mass,neighbor_d,max_neighbor_increment,C,beta,"
          "pass_rate_b,pass_rate_a,C_holder,eta_increment,pass_rate_holder,c_prime"),
         ("kernel_table.csv", "t,y,x,d,h_star,regime,K_re,K_im,bound_value"))),
    Experiment(
        "embeddings",
        dict(domain=("unit_square", _domain), levels=("2,3,4,5", _levels(2)),
             p_sobolev=("1.5", _where(float, lambda v: 1 <= v < 2, "1 <= p_sobolev < 2")),
             p_holder=("4", _above_2), trials=("20", _count)),
        run_embeddings, verdicts_embeddings,
        (("embeddings_rows.csv",
          "experiment,level,h,n_vertices,p_sobolev,p_star,sobolev_ratio_max,"
          "p_holder,eta,holder_ratio_max"),),
        _check_domain_family),
    Experiment(
        "geometry",
        dict(domain=("unit_square", _domain), levels=("3,4,5,6", _levels(2)),
             r0=("auto", _r0), sample_count=("all", _sample_count)),
        run_geometry, verdicts_geometry,
        (("geometry_rows.csv", "experiment,level,h,r0,C_D,c_L,C_P,D,balls"),),
        _check_domain_family),
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
    """Write the rows under the header; every row holds exactly its keys."""
    cols = set(header)
    for row in rows:
        if row.keys() != cols:
            raise ValueError(f"{path}: row keys missing {sorted(cols - row.keys())}, "
                             f"unknown {sorted(row.keys() - cols)}")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([_format_cell(row[col]) for col in header] for row in rows)


@dataclass
class RunSummary:
    experiment: str
    verdicts: list
    csv_paths: list
    all_pass: bool


def run(cfg: ExperimentConfig) -> RunSummary:
    """Execute one experiment, write its row CSVs, judge the written verdict
    file as ``report`` would, and write and return the verdicts."""
    exp = REGISTRY[cfg.experiment]
    os.makedirs(cfg.out, exist_ok=True)
    paths = []
    for (name, header), rows in zip(exp.files, exp.run(cfg), strict=True):
        paths.append(os.path.join(cfg.out, name))
        write_csv(paths[-1], header.split(","), rows)
    verdicts = recompute_verdicts(paths[:1])
    paths.append(os.path.join(cfg.out, f"{cfg.experiment}_summary.csv"))
    write_csv(paths[-1], SUMMARY_HEADER.split(","), verdicts)
    return RunSummary(cfg.experiment, verdicts, paths,
                      all(v["verdict"] == "pass" for v in verdicts))


def _parse_csv(path: str) -> tuple[list[str], list[dict]]:
    """The header and the rows of a CSV file, each cell a float where it
    parses as one. An empty file and a row whose cell count is not the
    header's are refused."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        lines = [(reader.line_num, cells) for cells in reader if cells]
    if not lines:
        raise ConfigError(f"{path}: empty file")
    (_, header), *body = lines
    rows = []
    for ln, cells in body:
        if len(cells) != len(header):
            raise ConfigError(f"{path}, line {ln}: {len(cells)} cells under a "
                              f"header of {len(header)}")
        row = {}
        for key, cell in zip(header, cells):
            try:
                row[key] = float(cell)
            except ValueError:
                row[key] = cell
        rows.append(row)
    return header, rows


def recompute_verdicts(paths: list[str]) -> list[dict]:
    """Derive summary verdicts from emitted row CSVs alone, judging each
    experiment's verdict file, the first of its ``files``; two are refused,
    and so is an input without one. Every file is parsed, so a malformed one
    is refused, and recognized by its header."""
    by_header = {header: (exp, i) for exp in REGISTRY.values()
                 for i, (_, header) in enumerate(exp.files)}
    judged: dict[str, tuple[str, list[dict]]] = {}
    others = []  # what each input that is not a verdict file is
    for path in paths:
        header, rows = _parse_csv(path)
        key = ",".join(header)
        if key == SUMMARY_HEADER:  # summaries are outputs, not inputs
            others.append(f"{path} is a summary")
            continue
        if key not in by_header:
            raise ConfigError(f"{path}: not a recognized rows file")
        exp, i = by_header[key]
        if i > 0:  # verdicts read the first file; the others are tables
            others.append(f"{path} belongs with {exp.files[0][0]}")
        elif exp.name in judged:  # two runs' rows do not form one family
            raise ConfigError(f"{judged[exp.name][0]} and {path}: two {exp.name} verdict files")
        elif not rows:
            raise ConfigError(f"{path}: a verdict file without rows")
        else:
            judged[exp.name] = (path, rows)
    if not judged:
        raise ConfigError("no verdict file among the inputs: " + ("; ".join(others) or "none"))
    return [v for name, (_, rows) in sorted(judged.items())
            for v in REGISTRY[name].verdicts(rows)]
