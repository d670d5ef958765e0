"""Weighted graphs: path metric, balls, geometric constants, rescaling, h*.

A graph carries symmetric edge lengths h_xy (the metric) and symmetric edge
measures mu_xy; the vertex measure is m(x) = sum of incident mu. Finite
lattice boxes with unit weights stand in for unbounded graphs, with empty
boundary and an interior evaluation window.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse import csgraph


class GraphError(ValueError):
    """Invalid weighted-graph construction or query."""


class WeightedGraph:
    """Connected weighted graph, immutable after construction.

    Edges are stored once per unordered pair (u < v) with positive length
    ``h`` and positive measure ``mu``. Cached constants: max degree ``N``,
    incident-length control ``C_W`` and incident-measure control ``C_mu``.
    """

    def __init__(self, n, edge_u, edge_v, edge_h, edge_mu, boundary=(), coords=None):
        u = np.asarray(edge_u, dtype=np.int64)
        v = np.asarray(edge_v, dtype=np.int64)
        h = np.asarray(edge_h, dtype=float)
        mu = np.asarray(edge_mu, dtype=float)
        if not (len(u) == len(v) == len(h) == len(mu)):
            raise GraphError("edge arrays must have equal length")
        if np.any(u == v):
            raise GraphError("self-loops are not stored")
        if np.any(h <= 0) or np.any(mu <= 0):
            raise GraphError("edge lengths and measures must be positive")
        lo, hi = np.minimum(u, v), np.maximum(u, v)
        if len(np.unique(lo * np.int64(n) + hi)) != len(lo):
            raise GraphError("duplicate edges")
        if len(lo) and (lo.min() < 0 or hi.max() >= n):
            raise GraphError("edge endpoints out of range")

        self.n = int(n)
        self.edge_u, self.edge_v = lo, hi
        self.edge_h, self.edge_mu = h, mu

        self.m = np.zeros(n)
        np.add.at(self.m, lo, mu)
        np.add.at(self.m, hi, mu)
        if np.any(self.m <= 0):
            raise GraphError("isolated vertex")

        deg = np.bincount(lo, minlength=n) + np.bincount(hi, minlength=n)
        self.degree = deg
        self.N = int(deg.max())

        hmax = np.zeros(n)
        hmin = np.full(n, np.inf)
        mumax = np.zeros(n)
        mumin = np.full(n, np.inf)
        for ends in (lo, hi):
            np.maximum.at(hmax, ends, h)
            np.minimum.at(hmin, ends, h)
            np.maximum.at(mumax, ends, mu)
            np.minimum.at(mumin, ends, mu)
        self.h_x = hmax
        self.C_W = float((hmax / hmin).max())
        self.C_mu = float((mumax / mumin).max())
        self.h = float(h.max()) if len(h) else 0.0

        w = sp.coo_matrix((np.concatenate([h, h]),
                           (np.concatenate([lo, hi]), np.concatenate([hi, lo]))),
                          shape=(n, n))
        self._metric = w.tocsr()
        if csgraph.connected_components(self._metric, directed=False, return_labels=False) != 1:
            raise GraphError("graph is not connected")

        boundary = np.asarray(sorted(set(int(b) for b in boundary)), dtype=np.int64)
        if len(boundary) and (boundary.min() < 0 or boundary.max() >= n):
            raise GraphError("boundary vertex out of range")
        if len(boundary) >= n:
            raise GraphError("boundary must be a strict subset")
        self.boundary = boundary
        mask = np.ones(n, dtype=bool)
        mask[boundary] = False
        self.interior = np.nonzero(mask)[0]

        self.coords = None if coords is None else np.asarray(coords, dtype=float)

        # adjacency in CSR layout with edge ids, for per-vertex iteration
        order = np.argsort(np.concatenate([lo, hi]), kind="stable")
        ends = np.concatenate([lo, hi])[order]
        self._adj_nbr = np.concatenate([hi, lo])[order]
        self._adj_edge = np.concatenate([np.arange(len(lo))] * 2)[order]
        self._adj_ptr = np.concatenate([[0], np.cumsum(np.bincount(ends, minlength=n))])
        self._edge_rank = None

    @property
    def n_edges(self) -> int:
        return len(self.edge_u)

    def neighbors(self, x: int) -> np.ndarray:
        return self._adj_nbr[self._adj_ptr[x]:self._adj_ptr[x + 1]]

    def incident_edges(self, x: int) -> np.ndarray:
        return self._adj_edge[self._adj_ptr[x]:self._adj_ptr[x + 1]]

    def edge_lookup(self, x: int, y: int):
        """Edge id and orientation sign (+1 if stored as x -> y)."""
        if self._edge_rank is None:
            key = self.edge_u * np.int64(self.n) + self.edge_v
            self._edge_rank = dict(zip(key.tolist(), range(self.n_edges)))
        a, b = (x, y) if x < y else (y, x)
        k = self._edge_rank.get(a * self.n + b)
        if k is None:
            raise GraphError(f"no edge between {x} and {y}")
        return k, (1.0 if x < y else -1.0)

    def total_measure(self) -> float:
        return float(self.m.sum())

    def export_text(self) -> str:
        lines = [f"vertex {x} {float(self.m[x])!r}" for x in range(self.n)]
        for k in range(self.n_edges):
            lines.append(
                f"edge {self.edge_u[k]} {self.edge_v[k]} "
                f"{float(self.edge_h[k])!r} {float(self.edge_mu[k])!r}"
            )
        return "\n".join(lines) + "\n"


def from_triangulation(tri) -> WeightedGraph:
    """Graph of a triangulation: h_xy = |x - y|, mu_xy = h_xy^2.

    Vertices and edges are those of the mesh; the graph boundary is the set
    of mesh boundary vertices. The bracket of m(x) / h_x^2 is recorded as
    ``m_over_hx2_bracket`` (it stays fixed along a red-refinement family).
    """
    edges = tri.edge_array
    d = tri.points[edges[:, 1]] - tri.points[edges[:, 0]]
    h = np.hypot(d[:, 0], d[:, 1])
    g = WeightedGraph(
        tri.n_vertices, edges[:, 0], edges[:, 1], h, h * h,
        boundary=tri.boundary_vertices, coords=tri.points,
    )
    ratio = g.m / g.h_x**2
    g.m_over_hx2_bracket = (float(ratio.min()), float(ratio.max()))
    return g


def lattice_box(nx: int, ny: int) -> WeightedGraph:
    """Finite box of the square lattice: unit lengths, unit edge measures, no boundary."""
    if nx < 2 or ny < 2:
        raise GraphError("lattice box needs at least 2 vertices per side")
    idx = np.arange(nx * ny).reshape(nx, ny)
    eu = [idx[:-1, :].ravel(), idx[:, :-1].ravel()]
    ev = [idx[1:, :].ravel(), idx[:, 1:].ravel()]
    u = np.concatenate(eu)
    v = np.concatenate(ev)
    ii, jj = np.meshgrid(np.arange(nx), np.arange(ny), indexing="ij")
    coords = np.column_stack([ii.ravel(), jj.ravel()]).astype(float)
    return WeightedGraph(nx * ny, u, v, np.ones(len(u)), np.ones(len(u)), coords=coords)


def box_window(g: WeightedGraph, margin: float = 0.25) -> np.ndarray:
    """Vertices at least ``margin`` of the extent away from the bounding box."""
    if g.coords is None:
        raise GraphError("graph has no coordinates")
    lo = g.coords.min(axis=0)
    hi = g.coords.max(axis=0)
    pad = margin * (hi - lo)
    ok = np.all((g.coords >= lo + pad - 1e-12) & (g.coords <= hi - pad + 1e-12), axis=1)
    return np.nonzero(ok)[0]


def distances_from(g: WeightedGraph, sources) -> np.ndarray:
    """Shortest-path distances (edge lengths h) from one or more sources."""
    return csgraph.dijkstra(g._metric, directed=False, indices=sources)


def distances_all(g: WeightedGraph) -> np.ndarray:
    """Full distance matrix, cached on the graph for repeated norm queries."""
    cached = getattr(g, "_dmat", None)
    if cached is None:
        cached = g._dmat = csgraph.dijkstra(g._metric, directed=False)
    return cached


def edge_gram(g: WeightedGraph, edge_weights) -> sp.csr_matrix:
    """sum_e w_e (e_u - e_v)(e_u - e_v)^T as a sparse matrix."""
    u, v = g.edge_u, g.edge_v
    w = np.asarray(edge_weights)
    rows = np.concatenate([u, v, u, v])
    cols = np.concatenate([u, v, v, u])
    data = np.concatenate([w, w, -w, -w])
    return sp.coo_matrix((data, (rows, cols)), shape=(g.n, g.n)).tocsr()


def distance(g: WeightedGraph, x: int, y: int) -> float:
    d = distances_from(g, x)[y]
    if not np.isfinite(d):
        raise GraphError(f"vertex {y} unreachable from {x}")
    return float(d)


def ball(g: WeightedGraph, x: int, r: float):
    """Strict metric ball B(x, r) and its volume V(x, r) = sum of m over the ball."""
    if not r > 0:
        raise GraphError("ball radius must be positive")
    d = distances_from(g, x)
    members = np.nonzero(d < r)[0]
    return members, float(g.m[members].sum())


@dataclass
class GeometryReport:
    r0: float
    C_D: float
    c_L: float
    C_P: float
    D: float
    balls_sampled: int


def _poincare_constant(g: WeightedGraph, members: np.ndarray, r: float,
                       dense_limit: int = 600):
    """Sharp constant of the scaled L2 Poincare inequality on one ball.

    Largest generalized Rayleigh quotient of the mean-zero quadratic form on
    the ball against r^2 times the gradient form; the gradient at y uses all
    neighbors of y, including those outside the ball.
    """
    if len(members) <= 1:
        return 0.0
    closure = set(members.tolist())
    for y in members:
        closure.update(g.neighbors(y).tolist())
    closure = np.asarray(sorted(closure), dtype=np.int64)
    if len(closure) > dense_limit:
        raise GraphError(f"ball closure too large for dense solve ({len(closure)})")
    local = {int(x): i for i, x in enumerate(closure)}
    k = len(closure)

    mloc = np.zeros(k)
    for y in members:
        mloc[local[int(y)]] = g.m[y]
    A = np.diag(mloc) - np.outer(mloc, mloc) / mloc.sum()

    G = np.zeros((k, k))
    for y in members:
        iy = local[int(y)]
        wy = g.m[y] / g.h_x[y] ** 2
        for z in g.neighbors(y):
            iz = local[int(z)]
            G[iy, iy] += wy
            G[iz, iz] += wy
            G[iy, iz] -= wy
            G[iz, iy] -= wy

    import scipy.linalg as la

    # restrict to the complement of constants, where G is positive definite
    q, _ = np.linalg.qr(np.column_stack([np.ones(k), np.eye(k)[:, : k - 1]]))
    P = q[:, 1:]
    Ap = P.T @ A @ P
    Gp = P.T @ (r * r * G) @ P
    vals = la.eigh(Ap, Gp, eigvals_only=True)
    return float(vals[-1])


def _volume_profile(dist_row: np.ndarray, m: np.ndarray):
    """Breakpoints and prefix volumes of r -> V(x, r) for one center."""
    order = np.argsort(dist_row, kind="stable")
    dists = dist_row[order]
    vols = np.cumsum(m[order])
    ends = np.nonzero(np.diff(dists, append=np.inf) > 0)[0]
    return dists[ends], vols[ends]  # V(x, r) = vols[searchsorted(dists, r) - 1]


def _volume_at(breaks, vols, r):
    """Strict-ball volumes V(x, r); r may be an array."""
    idx = np.searchsorted(breaks, r, side="left") - 1
    return np.where(idx >= 0, vols[np.clip(idx, 0, None)], 0.0)


def geometry_report(g: WeightedGraph, r0: float, sample_count: int | None = None,
                    seed: int = 0, radius_fractions=(0.25, 0.5, 1.0)) -> GeometryReport:
    """Empirical doubling, lower-volume and Poincare constants on sampled balls.

    For each sampled center the doubling ratio V(x, 2r)/V(x, r) and the lower
    bound V(x, r)/r^2 are extremized exactly over all radii below r0 (ball
    volumes are piecewise constant in r, so it suffices to look just past
    each breakpoint). The Poincare constant needs one dense eigensolve per
    ball and is sampled at the radii r0 * radius_fractions only.
    """
    if not r0 > float(g.edge_h.min()):
        raise GraphError("r0 must exceed the smallest edge length")
    rng = np.random.default_rng(seed)
    if sample_count is None or sample_count >= g.n:
        centers = np.arange(g.n)
    else:
        if sample_count <= 0:
            raise GraphError("empty sample")
        centers = rng.choice(g.n, size=sample_count, replace=False)
        centers.sort()

    radii = [f * r0 for f in radius_fractions]
    d = distances_from(g, centers)
    bump = 1.0 + 1e-12
    c_d = 1.0
    c_l = np.inf
    c_p = 0.0
    n_balls = 0
    for i, x in enumerate(centers):
        breaks, vols = _volume_profile(d[i], g.m)
        # doubling: probe just past every breakpoint of r -> V(r) and V(2r)
        cand = np.concatenate([breaks * bump, breaks * (0.5 * bump), [r0 * 0.999999]])
        cand = cand[(cand > 0) & (cand < r0)]
        if len(cand):
            v_r = _volume_at(breaks, vols, cand)
            v_2r = _volume_at(breaks, vols, 2.0 * cand)
            pos = v_r > 0
            if np.any(pos):
                c_d = max(c_d, float((v_2r[pos] / v_r[pos]).max()))
        # lower volume: V is constant between breakpoints, so the minimum of
        # V(r)/r^2 sits at the right end of each constancy interval
        ok = breaks < r0
        uppers = np.concatenate([breaks[1:], [np.inf]])
        ends = np.minimum(uppers[ok], r0)
        c_l = min(c_l, float((vols[ok] / ends**2).min()))
        for r in radii:
            members = np.nonzero(d[i] < r)[0]
            c_p = max(c_p, _poincare_constant(g, members, r))
            n_balls += 1
    return GeometryReport(r0=r0, C_D=float(c_d), c_L=float(c_l), C_P=float(c_p),
                          D=float(np.log2(c_d)), balls_sampled=n_balls)


def rescale(g: WeightedGraph, alpha: float) -> WeightedGraph:
    """Rescaled graph: lengths alpha * h, measures alpha^2 * mu.

    Consequently m -> alpha^2 m, d -> alpha d and the gradient picks up a
    1/alpha factor.
    """
    if not alpha > 0:
        raise GraphError("alpha must be positive")
    out = WeightedGraph(
        g.n, g.edge_u, g.edge_v, alpha * g.edge_h, alpha * alpha * g.edge_mu,
        boundary=g.boundary,
        coords=None if g.coords is None else alpha * g.coords,
    )
    return out


def h_star(g: WeightedGraph, x: int, y: int, closed_ball: bool = False,
           either_endpoint: bool = True) -> float:
    """min(h*_{x->y}, h*_{y->x}); zero when x == y.

    h*_{x->y} is the sup of weights of edges touching the ball B(x, d(x, y)).
    Defaults follow the strict ball and the either-endpoint reading of
    "touching"; both alternates sit behind the flags.
    """
    if x == y:
        return 0.0
    r = distance(g, x, y)

    def directed(src):
        d = distances_from(g, src)
        inside = d <= r if closed_ball else d < r
        iu, iv = inside[g.edge_u], inside[g.edge_v]
        touch = (iu & iv) if not either_endpoint else (iu | iv)
        if not np.any(touch):
            return 0.0
        return float(g.edge_h[touch].max())

    return min(directed(x), directed(y))
