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
# centers per block of range-limited distance rows; see geometry_report for the size
_CENTER_BLOCK = 64
# the interior window keeps this fraction of the extent off each side of a box
_WINDOW_MARGIN = 0.25


class GraphError(ValueError):
    """Invalid weighted-graph construction or query."""


class WeightedGraph:
    """Connected weighted graph, immutable after construction.

    Edges are stored once per unordered pair (u < v) with positive length
    ``h`` and positive measure ``mu``. Cached constants: max degree ``N``,
    incident-length control ``C_W``, incident-measure control ``C_mu`` and
    the bracket ``m_over_hx2_bracket`` of m(x) / h_x^2 (it stays fixed along
    a red-refinement family and under ``rescale``).
    """

    def __init__(self, n, edge_u, edge_v, edge_h, edge_mu, boundary=(), coords=None):
        u = np.asarray(edge_u, dtype=np.int64)
        v = np.asarray(edge_v, dtype=np.int64)
        h = np.asarray(edge_h, dtype=float)
        mu = np.asarray(edge_mu, dtype=float)
        if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 1:
            raise GraphError(f"vertex count must be an integer >= 1, got {n!r}")
        if not (len(u) == len(v) == len(h) == len(mu)):
            raise GraphError("edge arrays must have equal length")
        if np.any(u == v):
            raise GraphError("self-loops are not stored")
        if not np.all((h > 0) & (h < np.inf) & (mu > 0) & (mu < np.inf)):
            raise GraphError("edge lengths and measures must be positive and finite")
        lo, hi = np.minimum(u, v), np.maximum(u, v)
        if len(np.unique(lo * np.int64(n) + hi)) != len(lo):
            raise GraphError("duplicate edges")
        if len(lo) and (lo.min() < 0 or hi.max() >= n):
            raise GraphError("edge endpoints out of range")

        self.n = int(n)
        self.edge_u, self.edge_v = lo, hi
        self.edge_h, self.edge_mu = h, mu

        self.m = vertex_measure(n, lo, hi, mu)
        if np.any(self.m <= 0):
            raise GraphError("isolated vertex")

        # the metric in CSR layout is also the adjacency: its slots hold each
        # edge once from each end, in (vertex, neighbor) order, and _adj_edge
        # the id of each slot's edge; no vertex has an empty segment
        ends, nbrs = np.concatenate([lo, hi]), np.concatenate([hi, lo])
        order = np.lexsort((nbrs, ends))
        self._adj_edge = np.tile(np.arange(len(lo)), 2)[order]
        indptr = np.concatenate([[0], np.cumsum(np.bincount(ends, minlength=n))])
        self._metric = sp.csr_matrix((h[self._adj_edge], nbrs[order], indptr), shape=(n, n))

        self.degree = np.diff(self._metric.indptr)
        self.N = int(self.degree.max())
        starts = self._metric.indptr[:-1]
        h_at, mu_at = self._metric.data, mu[self._adj_edge]
        self.h_x = np.maximum.reduceat(h_at, starts)
        self.C_W = float((self.h_x / np.minimum.reduceat(h_at, starts)).max())
        self.C_mu = float((np.maximum.reduceat(mu_at, starts)
                           / np.minimum.reduceat(mu_at, starts)).max())
        ratio = self.m / self.h_x**2
        self.m_over_hx2_bracket = (float(ratio.min()), float(ratio.max()))
        self.h = float(h.max())

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

    @property
    def n_edges(self) -> int:
        return len(self.edge_u)

    def neighbors(self, x: int) -> np.ndarray:
        return self._metric.indices[self._metric.indptr[x]:self._metric.indptr[x + 1]]

    def export_text(self) -> str:
        lines = [f"vertex {x} {float(self.m[x])!r}" for x in range(self.n)]
        for k in range(self.n_edges):
            lines.append(
                f"edge {self.edge_u[k]} {self.edge_v[k]} "
                f"{float(self.edge_h[k])!r} {float(self.edge_mu[k])!r}"
            )
        return "\n".join(lines) + "\n"


def vertex_measure(n: int, edge_u, edge_v, edge_mu) -> np.ndarray:
    """m(x): the sum of mu over the edges at x."""
    m = np.zeros(n)
    np.add.at(m, edge_u, edge_mu)
    np.add.at(m, edge_v, edge_mu)
    return m


def mesh_edges(tri) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(u, v, h, mu) over the edges (u < v) of a triangulation:
    h_xy = |x - y| and mu_xy = h_xy^2."""
    edges = tri.edge_array
    d = tri.points[edges[:, 1]] - tri.points[edges[:, 0]]
    h = np.hypot(d[:, 0], d[:, 1])
    return edges[:, 0], edges[:, 1], h, h * h


def from_triangulation(tri) -> WeightedGraph:
    """Graph of a triangulation, with the edges of ``mesh_edges``.

    Vertices and edges are those of the mesh; the graph boundary is the set
    of mesh boundary vertices.
    """
    return WeightedGraph(tri.n_vertices, *mesh_edges(tri),
                         boundary=tri.boundary_vertices, coords=tri.points)


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
    distances of the unlimited search. The stored metric holds each edge in
    both directions with the same length, so the directed search is the
    undirected one, bitwise, without scipy transposing the graph per call.
    """
    return csgraph.dijkstra(g._metric, directed=True, indices=sources, limit=limit)


def distances_all(g: WeightedGraph) -> np.ndarray:
    """Full distance matrix."""
    return csgraph.dijkstra(g._metric, directed=False)


def edge_gram(u, v, w) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Entries (rows, cols, data) of sum_e w_e (e_u - e_v)(e_u - e_v)^T over
    the edges (u_e, v_e); repeated (row, col) entries are to be summed."""
    rows = np.concatenate([u, v, u, v])
    cols = np.concatenate([u, v, v, u])
    data = np.concatenate([w, w, -w, -w])
    return rows, cols, data


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


def _poincare_constants(g: WeightedGraph, balls: np.ndarray, members: np.ndarray,
                        r: float, memo: dict):
    """Sharp constants of the scaled L2 Poincare inequality on a block of
    balls, given as (ball, member) pairs sorted by ball, then member; every
    ball holds its center, and a singleton ball reads 0.

    Each is the largest generalized Rayleigh quotient of the mean-zero
    quadratic form on the ball against r^2 times the gradient form; the
    gradient at y uses all neighbors of y, including those outside the ball.
    Both forms live on the closure (the ball and its neighbors) and vanish on
    constants, and the closure is connected, so grounding its last vertex
    leaves a definite pencil with the same spectrum as the pencil on the
    quotient by constants.

    Passes over all the pairs give every ball's edges, closure and pencil
    inputs. ``memo`` maps r and a digest of those inputs to the constant, so
    equal pencils are solved once: equal inputs make equal LAPACK calls.
    """
    n, n_edges = g.n, g.n_edges
    sizes = np.bincount(balls)
    if np.any(sizes > _DENSE_LIMIT):  # the closure holds the ball
        raise GraphError(f"ball closure too large for dense solve (at least {sizes.max()})")
    multi = (sizes > 1)[balls]
    balls, ys = balls[multi], members[multi]
    # the edges at the members, each ball's in ascending order
    starts = g._metric.indptr[ys]
    counts = g._metric.indptr[ys + 1] - starts
    slots = np.arange(counts.sum()) + np.repeat(starts - np.cumsum(counts) + counts, counts)
    eb, edges = np.divmod(np.unique(np.repeat(balls, counts) * n_edges + g._adj_edge[slots]),
                          n_edges)
    u, v = g.edge_u[edges], g.edge_v[edges]
    # each ball's sorted closure; local indices count from its first vertex
    vkeys, at = np.unique(np.concatenate([eb * n + u, eb * n + v]), return_inverse=True)
    cb, closure = np.divmod(vkeys, n)
    e_ptr, c_ptr = (np.concatenate([[0], np.cumsum(np.bincount(b, minlength=len(sizes)))])
                    for b in (eb, cb))
    if np.any(np.diff(c_ptr) > _DENSE_LIMIT):
        raise GraphError(f"ball closure too large for dense solve ({np.diff(c_ptr).max()})")
    inside = np.zeros(len(vkeys), dtype=bool)
    inside[np.searchsorted(vkeys, balls * n + ys)] = True
    # each member y weighs every edge at y by m(y) / h_y^2
    w = inside[at[:len(u)]] * (g.m[u] / g.h_x[u]**2) + inside[at[len(u):]] * (g.m[v] / g.h_x[v]**2)
    mloc = np.where(inside, g.m[closure], 0.0)
    # a ball's pencil is a function of r, its rows here and its masses alone
    ends = np.column_stack([at[:len(u)], at[len(u):]]) - c_ptr[eb][:, None]
    pencil = np.column_stack([ends, w.view(np.int64)])
    out = np.zeros(len(sizes))
    e_ptr, c_ptr = e_ptr.tolist(), c_ptr.tolist()
    for b in np.flatnonzero(sizes > 1).tolist():
        e0, e1, c0, c1 = e_ptr[b], e_ptr[b + 1], c_ptr[b], c_ptr[b + 1]
        digest = hashlib.blake2b(pencil[e0:e1], digest_size=32)
        digest.update(mloc[c0:c1])
        key = (r, e1 - e0, c1 - c0, digest.digest())
        if key not in memo:
            k, mb = c1 - c0, mloc[c0:c1]
            rows, cols, data = edge_gram(ends[e0:e1, 0], ends[e0:e1, 1], w[e0:e1])
            # bincount sums repeated entries in order, as COO's toarray would
            G = np.bincount(rows * k + cols, data, k * k).reshape(k, k)
            A = np.diag(mb) - np.outer(mb, mb) / mb.sum()
            memo[key] = float(la.eigh(A[:-1, :-1], r * r * G[:-1, :-1], eigvals_only=True)[-1])
        out[b] = memo[key]
    return out


def _volume_profiles(rr: np.ndarray, cc: np.ndarray, dd: np.ndarray, m: np.ndarray):
    """(row, breaks, vols) of r -> V(x, r) for a block of centers, flattened
    row by row: V(x_i, r) is vols at the last break of row i below r.

    The block comes as its finite entries (row rr, column cc, distance dd),
    sorted by row; every row holds its center. A row limited to some range
    thus gives the unlimited profile cut there. The entries sorted by (row,
    distance), ties in column order, are padded with inf and zero mass into
    one array whose running sums are bitwise each row's own.
    """
    order = np.lexsort((dd, rr))  # stable; rr is sorted already
    counts = np.bincount(rr)
    pos = np.arange(len(rr)) - np.repeat(np.cumsum(counts) - counts, counts)
    dists = np.full((len(counts), counts.max()), np.inf)
    mass = np.zeros(dists.shape)
    dists[rr, pos], mass[rr, pos] = dd[order], m[cc[order]]
    vols = np.cumsum(mass, axis=1)
    ends = np.isfinite(dists)
    ends[:, :-1] &= dists[:, 1:] > dists[:, :-1]
    return np.nonzero(ends)[0], dists[ends], vols[ends]


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
    1e-9; in-range entries are bitwise those of the unlimited rows. A block
    is one pass over its finite entries (row, column, distance), extracted
    once: one sort of them gives every volume profile, one search every
    probed volume, and, per Poincare radius r, those at distance below r are
    the (ball, member) pairs whose one expansion gives every ball's edges,
    closure and pencil inputs. Only the memo lookup and the eigensolve of a
    new pencil run per ball.

    Blocks are _CENTER_BLOCK = 64 rows because a block's arrays set the
    peak memory: its dense rows grow with rows times n, and the arrays over
    its finite entries (the padded volume profiles, the (ball, member)
    expansion) with rows times ball size. On the level-6 unit-square mesh
    (4,225 vertices, r0 = 2.5 h) the traced peak is 3.8 MiB with 64-row
    blocks against 15.0 MiB with 256-row blocks, for about 5 % more time;
    32-row blocks save 1.8 MiB more for about 9 % more time. The report
    does not depend on the block size.
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
    memo = {}
    for start in range(0, len(centers), _CENTER_BLOCK):
        block = distances_from(g, centers[start:start + _CENTER_BLOCK], limit=limit)
        rr, cc = np.nonzero(np.isfinite(block))
        dd = block[rr, cc]
        row, breaks, vols = _volume_profiles(rr, cc, dd, g.m)
        # doubling: probe just past every breakpoint of r -> V(r) and V(2r)
        cand = np.concatenate([breaks * bump, breaks * (0.5 * bump),
                               np.full(len(block), r0 * 0.999999)])
        cand_row = np.concatenate([row, row, np.arange(len(block))])
        keep = (cand > 0) & (cand < r0)
        probe = np.concatenate([cand[keep], 2.0 * cand[keep]])
        probe_row = np.tile(cand_row[keep], 2)
        # V(x, r) sits at the last break below r in x's row, which starts
        # with x's own 0 < r; complex keys sort by row, then by radius
        idx = np.searchsorted(row + 1j * breaks, probe_row + 1j * probe) - 1
        v_r, v_2r = np.split(vols[idx], 2)
        c_d = max(c_d, float((v_2r / v_r).max()))
        # lower volume: V is constant between breakpoints, so the minimum of
        # V(r)/r^2 sits at the right end of each constancy interval
        uppers = np.append(breaks[1:], np.inf)
        uppers[:-1][row[1:] != row[:-1]] = np.inf
        ok = breaks < r0
        c_l = min(c_l, float((vols[ok] / np.minimum(uppers[ok], r0)**2).min()))
        for r in radii:
            near = dd < r
            c_p = max(c_p, float(_poincare_constants(g, rr[near], cc[near], r, memo).max()))
        # free this block before the next Dijkstra call allocates one
        del block
    return GeometryReport(r0=r0, C_D=float(c_d), c_L=float(c_l), C_P=float(c_p),
                          D=float(np.log2(c_d)), balls_sampled=len(centers) * len(radii))


def rescale(g: WeightedGraph, alpha: float) -> WeightedGraph:
    """Rescaled graph: lengths alpha * h, measures alpha^2 * mu.

    Consequently m -> alpha^2 m, d -> alpha d and the gradient picks up a
    1/alpha factor.
    """
    if not 0 < alpha < np.inf:
        raise GraphError("alpha must be positive and finite")
    return WeightedGraph(
        g.n, g.edge_u, g.edge_v, alpha * g.edge_h, alpha * alpha * g.edge_mu,
        boundary=g.boundary,
        coords=None if g.coords is None else alpha * g.coords,
    )


def h_star(g: WeightedGraph, y: int, xs) -> np.ndarray:
    """h*_{xy} = min(h*_{x->y}, h*_{y->x}) for every x in ``xs``; zero at x == y.

    h*_{x->y} is the sup of the lengths of the edges touching the strict ball
    B(x, d(x, y)): those whose nearer endpoint lies closer to x than d(x, y).
    """
    xs = np.asarray(xs, dtype=np.int64)
    d_y = distances_from(g, y)

    def nearer_end(d):
        return np.minimum(d[g.edge_u], d[g.edge_v])

    near_y = nearer_end(d_y)
    out = np.zeros(len(xs))
    for i, (x, d_x) in enumerate(zip(xs, distances_from(g, xs))):
        if x == y:
            continue
        r = d_y[x]
        # r > 0, so both balls hold an endpoint of some edge
        out[i] = min(g.edge_h[nearer_end(d_x) < r].max(), g.edge_h[near_y < r].max())
    return out
