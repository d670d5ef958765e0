"""Negative controls: a known-wrong input must fail at least one verdict of
its experiment, and the right input through the same harness must pass them
all. A wrong input that no verdict catches today is a strict xfail naming the
ROADMAP item that makes the verdicts able to fail, so the fix flips it loudly.

No f = 1 control for meyers_sweep or holder_convergence: with f = 1 the
singular mode is absent, so their passes are not shown to be wrong; those
controls need the Kellogg load (ROADMAP item 4).

The graph experiments embeddings and geometry take their graphs from
``graph.from_triangulation``; their controls replace it with a graph family
that is not the mesh family's: edge measures tilted across the domain at a
rate beyond the mesh size, or a path with as many vertices as the mesh.
resolvent_sweep's controls replace its lattice by a path or a cube, or its
operator by the identity.
"""
import csv

import numpy as np
import pytest
import scipy.sparse as sp
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


# ---------------------------------------------------------------------------
# embeddings and geometry: graph families that are not mesh graphs

def _tilted(power):
    """The mesh graph with mu_e scaled by exp((x - 1/2) / h^power), x the
    edge midpoint's abscissa and h the mesh size: the measure changes by a
    factor of about e per edge at power 1, and without bound as h shrinks
    at power 1.5."""
    def build(tri):
        u, v, h, mu = graph.mesh_edges(tri)
        x = 0.5 * (tri.points[u, 0] + tri.points[v, 0])
        return graph.WeightedGraph(tri.n_vertices, u, v, h,
                                   mu * np.exp((x - 0.5) / tri.h**power),
                                   boundary=tri.boundary_vertices, coords=tri.points)
    return build


def _path(tri):
    """A path with the mesh's vertex count, edge length h and mu_e = h^2,
    its two ends the boundary: one-dimensional volume growth."""
    n = tri.n_vertices
    return graph.WeightedGraph(n, np.arange(n - 1), np.arange(1, n), np.full(n - 1, tri.h),
                               np.full(n - 1, tri.h**2), boundary=[0, n - 1])


def _unit_path(tri):
    """A path with the mesh's vertex count spanning unit length, edges of
    length 1/(n - 1) and mu_e = h^2, its two ends the boundary: a ball of
    radius r holds about r (n - 1) vertices, many more than a mesh ball as h
    shrinks."""
    n = tri.n_vertices
    return graph.WeightedGraph(n, np.arange(n - 1), np.arange(1, n), np.full(n - 1, 1.0 / (n - 1)),
                               np.full(n - 1, tri.h**2), boundary=[0, n - 1])


GRAPH_FAMILIES = {"mesh": graph.from_triangulation, "tilted_h1.5": _tilted(1.5),
                  "tilted_h": _tilted(1.0), "path": _path, "unit_path": _unit_path}


def _graph_verdicts(exp, family, monkeypatch, tmp_path) -> dict:
    """{check: verdict} of ``exp`` at its defaults on the graph family."""
    monkeypatch.setattr(experiments.graph, "from_triangulation", GRAPH_FAMILIES[family])
    verdicts = run(parse_config(f"experiment = {exp}\nout = {tmp_path}\n")).verdicts
    return {v["check"]: v["verdict"] for v in verdicts}


@pytest.mark.parametrize("exp", ["embeddings", "geometry"])
def test_mesh_graphs_pass(exp, monkeypatch, tmp_path):
    assert set(_graph_verdicts(exp, "mesh", monkeypatch, tmp_path).values()) == {"pass"}


@pytest.mark.parametrize("family", ["tilted_h1.5", "tilted_h"])
def test_tilted_measures_fail_both_embedding_verdicts(family, monkeypatch, tmp_path):
    verdicts = _graph_verdicts("embeddings", family, monkeypatch, tmp_path)
    assert verdicts == {"sobolev_ratio_max_stability": "fail",
                        "holder_ratio_max_stability": "fail"}


def test_path_fails_the_sobolev_embedding(monkeypatch, tmp_path):
    verdicts = _graph_verdicts("embeddings", "path", monkeypatch, tmp_path)
    assert verdicts["sobolev_ratio_max_stability"] == "fail"


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="a path satisfies the one-dimensional Morrey embedding: "
                          "holder_ratio_max's max/min over levels 2-5 is 1.56, below 2; "
                          "no Holder control for embeddings is known yet (ROADMAP item 7)")
def test_path_fails_the_holder_embedding(monkeypatch, tmp_path):
    verdicts = _graph_verdicts("embeddings", "path", monkeypatch, tmp_path)
    assert verdicts["holder_ratio_max_stability"] == "fail"


@pytest.mark.parametrize("family, caught", [
    ("tilted_h1.5", {"C_D_stability", "c_L_stability"}),
    ("tilted_h", {"c_L_stability"}),
])
def test_tilted_measures_fail_geometry(family, caught, monkeypatch, tmp_path):
    verdicts = _graph_verdicts("geometry", family, monkeypatch, tmp_path)
    assert {check for check, v in verdicts.items() if v == "fail"} >= caught


def test_unit_path_fails_geometry_lower_volume(monkeypatch, tmp_path):
    # c_L over levels 3-6 reads 11.3, 20.3, 38.4 and 74.6: its max/min is
    # 6.62; doubling (3.0 at every level) and Poincare (1.03) pass
    verdicts = _graph_verdicts("geometry", "unit_path", monkeypatch, tmp_path)
    assert verdicts == {"C_D_stability": "pass", "c_L_stability": "fail",
                        "C_P_stability": "pass"}


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="a path with edges h and mu_e = h^2 looks the same at every "
                          "level within r0 = 2.5 h: C_D, c_L and C_P are equal over levels "
                          "3-6, so no stability verdict can fail (ROADMAP item 7)")
def test_path_fails_a_geometry_verdict(monkeypatch, tmp_path):
    verdicts = _graph_verdicts("geometry", "path", monkeypatch, tmp_path)
    assert "fail" in verdicts.values()


# ---------------------------------------------------------------------------
# resolvent_sweep: a graph that is not the lattice, and an operator that is
# not the lattice's, through the runner at its defaults (box 64)

def _path_of(n):
    """A path of n unit edges with unit measures along the x axis."""
    return graph.WeightedGraph(n, np.arange(n - 1), np.arange(1, n), np.ones(n - 1),
                               np.ones(n - 1),
                               coords=np.column_stack([np.arange(n), np.zeros(n)]))


def _cube_of(k):
    """The k^3 box of the cubic lattice: unit edges and measures, 3-D coordinates."""
    idx = np.arange(k**3).reshape(k, k, k)
    u = np.concatenate([idx[:-1].ravel(), idx[:, :-1].ravel(), idx[:, :, :-1].ravel()])
    v = np.concatenate([idx[1:].ravel(), idx[:, 1:].ravel(), idx[:, :, 1:].ravel()])
    coords = np.stack(np.meshgrid(*[np.arange(k)] * 3, indexing="ij"), axis=-1).reshape(-1, 3)
    return graph.WeightedGraph(k**3, u, v, np.ones(len(u)), np.ones(len(u)),
                               coords=coords.astype(float))


class _IdentityOperator(operators.GraphOperator):
    """S replaced by diag(m), so L = I and (L + lam)^-1 = 1 / (1 + lam)."""

    def __init__(self, g, coefficients):
        super().__init__(g, coefficients)
        self.S = sp.diags(g.m, format="csr")
        self._diag = np.arange(g.n)


def _resolvent_verdicts(monkeypatch, tmp_path, lattice=None, operator=None) -> dict:
    """{check: verdict} of resolvent_sweep at its defaults, with the runner's
    ``graph.lattice_box`` or ``operators.build_operator`` replaced."""
    if lattice is not None:
        monkeypatch.setattr(experiments.graph, "lattice_box", lattice)
    if operator is not None:
        monkeypatch.setattr(experiments.operators, "build_operator", operator)
    verdicts = run(parse_config(f"experiment = resolvent_sweep\nout = {tmp_path}\n")).verdicts
    return {v["check"]: v["verdict"] for v in verdicts}


def test_lattice_passes_every_resolvent_verdict(monkeypatch, tmp_path):
    verdicts = _resolvent_verdicts(monkeypatch, tmp_path)
    assert len(verdicts) == 12
    assert set(verdicts.values()) == {"pass"}


@pytest.mark.parametrize("control", [
    {"lattice": lambda nx, ny: _path_of(nx * ny)},
    {"operator": _IdentityOperator},
], ids=["path_of_box_squared", "identity_operator"])
def test_wrong_graph_or_operator_fails_every_resolvent_verdict(control, monkeypatch,
                                                               tmp_path):
    verdicts = _resolvent_verdicts(monkeypatch, tmp_path, **control)
    assert len(verdicts) == 12
    assert set(verdicts.values()) == {"fail"}


def test_cube_of_box_squared_vertices_fails_every_sup_verdict(monkeypatch, tmp_path):
    # 16^3 = 64^2 vertices: its sup slopes (-0.137 to -0.184) and R_inf
    # max/min (9.1 to 12.3) fail; its R_eta max/min (2.6 to 3.6) pass, so the
    # Holder verdicts alone do not tell a cube from the square lattice
    verdicts = _resolvent_verdicts(monkeypatch, tmp_path, lattice=lambda nx, ny: _cube_of(16))
    failed = {check for check, v in verdicts.items() if v == "fail"}
    assert failed == {f"{name}[{variant},{ray}]" for name in ("sup_slope", "R_inf_maxmin")
                      for variant in ("symmetric", "perturbed") for ray in ("real", "sector")}


def test_path_of_box_fails_every_holder_ratio(monkeypatch, tmp_path):
    # its sup slopes (-0.49 to -0.52) pass: ROADMAP item 10's exact reference
    # is the verdict that can tell them from the lattice's
    verdicts = _resolvent_verdicts(monkeypatch, tmp_path, lattice=lambda nx, ny: _path_of(nx))
    failed = {check for check, v in verdicts.items() if v == "fail"}
    assert failed == {f"R_eta_maxmin[{variant},{ray}]" for variant in ("symmetric", "perturbed")
                      for ray in ("real", "sector")} | {"R_inf_maxmin[perturbed,sector]"}
