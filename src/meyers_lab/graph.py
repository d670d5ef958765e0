"""Weighted graphs: path metric, balls, geometric constants, rescaling, h*.

A graph carries symmetric edge lengths h_xy (the metric) and symmetric edge
measures mu_xy; the vertex measure is m(x) = sum of incident mu. Finite
lattice boxes with unit weights stand in for unbounded graphs, with empty
boundary and an interior evaluation window.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np
import scipy.linalg as la
import scipy.sparse as sp
from scipy.sparse import csgraph

# largest ball closure the Poincare constant solves as a dense pencil
_DENSE_LIMIT = 600
# Poincare balls are sampled at these fractions of the radius cap r0
_POINCARE_RADIUS_FRACTIONS = (0.25, 0.5, 1.0)
# centers per block of range-limited distance rows in geometry_report
_CENTER_BLOCK = 256
# the interior window keeps this fraction of the extent off each side of a box
_WINDOW_MARGIN = 0.25


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

        # adjacency in CSR layout, for per-vertex iteration; each slot also
        # holds the id of its edge
        order = np.argsort(np.concatenate([lo, hi]), kind="stable")
        ends = np.concatenate([lo, hi])[order]
        self._adj_nbr = np.concatenate([hi, lo])[order]
        self._adj_edge = np.tile(np.arange(len(lo)), 2)[order]
        self._adj_ptr = np.concatenate([[0], np.cumsum(np.bincount(ends, minlength=n))])

    @property
    def n_edges(self) -> int:
        return len(self.edge_u)

    def neighbors(self, x: int) -> np.ndarray:
        return self._adj_nbr[self._adj_ptr[x]:self._adj_ptr[x + 1]]

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


def box_window(g: WeightedGraph) -> np.ndarray:
    """Vertices at least _WINDOW_MARGIN of the extent away from the bounding box."""
    if g.coords is None:
        raise GraphError("graph has no coordinates")
    lo = g.coords.min(axis=0)
    hi = g.coords.max(axis=0)
    pad = _WINDOW_MARGIN * (hi - lo)
    ok = np.all((g.coords >= lo + pad - 1e-12) & (g.coords <= hi - pad + 1e-12), axis=1)
    return np.nonzero(ok)[0]


def distances_from(g: WeightedGraph, sources, limit=np.inf) -> np.ndarray:
    """Shortest-path distances (edge lengths h) from one or more sources.

    Distances beyond ``limit`` read inf; those within it are bitwise the
    distances of the unlimited search.
    """
    return csgraph.dijkstra(g._metric, directed=False, indices=sources, limit=limit)


def distances_all(g: WeightedGraph) -> np.ndarray:
    """Full distance matrix."""
    return csgraph.dijkstra(g._metric, directed=False)


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
    d = distances_from(g, x, limit=r)
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


def _poincare_constant(g: WeightedGraph, members: np.ndarray, r: float, memo=None):
    """Sharp constant of the scaled L2 Poincare inequality on one ball.

    Largest generalized Rayleigh quotient of the mean-zero quadratic form on
    the ball against r^2 times the gradient form; the gradient at y uses all
    neighbors of y, including those outside the ball. Both forms live on the
    closure (the ball and its neighbors) and vanish on constants, and the
    closure is connected, so grounding its last vertex leaves a definite
    pencil with the same spectrum as the pencil on the quotient by constants.

    ``members`` must be sorted. A ``memo`` dict maps a digest of the inputs
    the pencil is built from (closure-local edge ends, edge weights, masses
    and r) to its constant, so equal pencils are built and solved once: equal
    inputs give the same bytes to the same LAPACK call, so a hit is the value
    a solve would return.
    """
    if len(members) <= 1:
        return 0.0
    # the edges at the members: their CSR slots, in ascending edge order
    starts = g._adj_ptr[members]
    counts = g._adj_ptr[members + 1] - starts
    slots = np.arange(counts.sum()) + np.repeat(starts - np.cumsum(counts) + counts, counts)
    edges = np.unique(g._adj_edge[slots])
    u, v = g.edge_u[edges], g.edge_v[edges]
    closure, local = np.unique(np.concatenate([u, v]), return_inverse=True)
    k = len(closure)
    if k > _DENSE_LIMIT:
        raise GraphError(f"ball closure too large for dense solve ({k})")
    lu, lv = local[:len(u)], local[len(u):]
    inside = np.zeros(k, dtype=bool)
    inside[np.searchsorted(closure, members)] = True

    # each member y weighs every edge at y by m(y) / h_y^2
    w = inside[lu] * (g.m[u] / g.h_x[u]**2) + inside[lv] * (g.m[v] / g.h_x[v]**2)
    mloc = np.where(inside, g.m[closure], 0.0)
    # the pencil is a function of these inputs alone
    parts = (local, w, mloc, np.float64(r))
    key = (len(w), k, hashlib.blake2b(b"".join(a.tobytes() for a in parts),
                                      digest_size=32).digest())
    memo = {} if memo is None else memo
    if key not in memo:
        G = np.zeros((k, k))
        np.add.at(G, (lu, lu), w)
        np.add.at(G, (lv, lv), w)
        np.add.at(G, (lu, lv), -w)
        np.add.at(G, (lv, lu), -w)
        A = np.diag(mloc) - np.outer(mloc, mloc) / mloc.sum()
        memo[key] = float(la.eigh(A[:-1, :-1], r * r * G[:-1, :-1], eigvals_only=True)[-1])
    return memo[key]


def _volume_profile(dist_row: np.ndarray, m: np.ndarray):
    """Breakpoints and prefix volumes of r -> V(x, r) for one center.

    Only finite entries count: a row limited to some range has inf beyond
    it, and its profile is the unlimited one cut at that range (the stable
    sort keeps the order, so the prefix sums are bitwise the same).
    """
    near = np.flatnonzero(np.isfinite(dist_row))
    order = near[np.argsort(dist_row[near], kind="stable")]
    dists = dist_row[order]
    vols = np.cumsum(m[order])
    ends = np.nonzero(np.diff(dists, append=np.inf) > 0)[0]
    return dists[ends], vols[ends]  # V(x, r) = vols[searchsorted(dists, r) - 1]


def _volume_at(breaks, vols, r):
    """Strict-ball volumes V(x, r); r may be an array."""
    idx = np.searchsorted(breaks, r, side="left") - 1
    return np.where(idx >= 0, vols[np.clip(idx, 0, None)], 0.0)


def geometry_report(g: WeightedGraph, r0: float, sample_count: int | None = None,
                    seed: int = 0) -> GeometryReport:
    """Empirical doubling, lower-volume and Poincare constants on sampled balls.

    For each sampled center the doubling ratio V(x, 2r)/V(x, r) and the lower
    bound V(x, r)/r^2 are extremized exactly over all radii below r0 (ball
    volumes are piecewise constant in r, so it suffices to look just past
    each breakpoint). The Poincare constant needs one dense eigensolve per
    distinct ball pencil and is sampled at the radii r0 *
    _POINCARE_RADIUS_FRACTIONS only.

    Every quantity reads distances below 2 r0 only (the doubling probe's
    V(x, 2r) with r < r0), so the centers' distance rows are computed in
    blocks of _CENTER_BLOCK, each limited to 2 r0 with a relative margin of
    1e-9; in-range entries are bitwise those of the unlimited rows.
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

    radii = [f * r0 for f in _POINCARE_RADIUS_FRACTIONS]
    limit = 2.0 * r0 * (1.0 + 1e-9)
    bump = 1.0 + 1e-12
    c_d = 1.0
    c_l = np.inf
    c_p = 0.0
    n_balls = 0
    memo = {}
    rows = (row for start in range(0, len(centers), _CENTER_BLOCK)
            for row in distances_from(g, centers[start:start + _CENTER_BLOCK], limit=limit))
    for row in rows:
        breaks, vols = _volume_profile(row, g.m)
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
            members = np.nonzero(row < r)[0]
            c_p = max(c_p, _poincare_constant(g, members, r, memo))
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


def h_star(g: WeightedGraph, y: int, xs) -> np.ndarray:
    """h*_{xy} = min(h*_{x->y}, h*_{y->x}) for every x in ``xs``; zero at x == y.

    h*_{x->y} is the sup of the lengths of the edges touching the strict ball
    B(x, d(x, y)), where an edge touches a ball when either endpoint lies in it.
    """
    xs = np.asarray(xs, dtype=np.int64)
    d_y = distances_from(g, y)
    # direction y -> x for all x at once: running sup over the edges sorted
    # by their distance to y
    edge_d = np.minimum(d_y[g.edge_u], d_y[g.edge_v])
    order = np.argsort(edge_d, kind="stable")
    sorted_d = edge_d[order]
    sup_y = np.maximum.accumulate(g.edge_h[order])
    out = np.zeros(len(xs))
    for i, (x, d_x) in enumerate(zip(xs, distances_from(g, xs))):
        if x == y:
            continue
        r = d_y[x]
        touch = (d_x[g.edge_u] < r) | (d_x[g.edge_v] < r)
        # r > 0, so both balls hold an endpoint of some edge
        out[i] = min(g.edge_h[touch].max(), sup_y[np.searchsorted(sorted_d, r) - 1])
    return out
