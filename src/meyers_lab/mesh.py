"""Convex polygonal domains and regular triangle mesh families.

Rectangles are meshed with the structured criss-cross pattern (two right
isoceles triangles per grid cell, diagonal direction alternating with cell
parity); other convex polygons are fan-triangulated around the centroid and
red-refined to the requested size. Red refinement splits every triangle into
four congruent children, so the diameter/inradius ratio of the family never
grows.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


class MeshError(ValueError):
    """Invalid polygon, mesh, or refinement input."""


def _shoelace(vertices: np.ndarray) -> float:
    x, y = vertices[:, 0], vertices[:, 1]
    return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


class Polygon:
    """Convex planar polygon with strictly counterclockwise vertices."""

    def __init__(self, vertices):
        v = np.atleast_2d(np.asarray(vertices, dtype=float))
        if v.ndim != 2 or v.shape[1] != 2 or v.shape[0] < 3:
            raise MeshError("polygon needs at least 3 planar vertices")
        if not np.all(np.isfinite(v)):
            raise MeshError("polygon has non-finite coordinates")
        edges = np.roll(v, -1, axis=0) - v
        lengths = np.hypot(edges[:, 0], edges[:, 1])
        scale = float(lengths.max())
        if lengths.min() <= 1e-14 * scale:
            raise MeshError("degenerate polygon: repeated consecutive vertices")
        cross = edges[:, 0] * np.roll(edges[:, 1], -1) - edges[:, 1] * np.roll(edges[:, 0], -1)
        if np.all(cross < 0):
            raise MeshError("polygon vertices are clockwise; expected counterclockwise")
        if np.any(cross <= 1e-14 * scale * scale):
            raise MeshError("polygon is not strictly convex")
        self.vertices = v

    @classmethod
    def rectangle(cls, x0: float, y0: float, x1: float, y1: float) -> "Polygon":
        if not (x1 > x0 and y1 > y0):
            raise MeshError("rectangle needs x1 > x0 and y1 > y0")
        return cls([(x0, y0), (x1, y0), (x1, y1), (x0, y1)])

    @classmethod
    def unit_square(cls) -> "Polygon":
        return cls.rectangle(0.0, 0.0, 1.0, 1.0)

    @classmethod
    def symmetric_square(cls, half_side: float = 1.0) -> "Polygon":
        a = float(half_side)
        return cls.rectangle(-a, -a, a, a)

    @property
    def area(self) -> float:
        return _shoelace(self.vertices)

    @property
    def diameter(self) -> float:
        v = self.vertices
        d2 = np.sum((v[:, None, :] - v[None, :, :]) ** 2, axis=-1)
        return float(np.sqrt(d2.max()))

    @property
    def centroid(self) -> np.ndarray:
        v = self.vertices
        w = np.roll(v, -1, axis=0)
        cr = v[:, 0] * w[:, 1] - w[:, 0] * v[:, 1]
        c = ((v + w) * cr[:, None]).sum(axis=0) / (6.0 * self.area)
        return c

    def boundary_distance(self, points) -> np.ndarray:
        """Euclidean distance from each point to the polygon boundary."""
        p = np.atleast_2d(np.asarray(points, dtype=float))
        v = self.vertices
        w = np.roll(v, -1, axis=0)
        best = np.full(p.shape[0], np.inf)
        for a, b in zip(v, w):
            ab = b - a
            t = np.clip(((p - a) @ ab) / (ab @ ab), 0.0, 1.0)
            proj = a + t[:, None] * ab
            best = np.minimum(best, np.hypot(*(p - proj).T))
        return best


def _triangle_metrics(points, triangles):
    """Per-triangle side lengths, area, diameter h_T and inradius diameter rho_T."""
    p = points[triangles]  # (m, 3, 2)
    sides = np.stack(
        [
            np.hypot(*(p[:, 1] - p[:, 0]).T),
            np.hypot(*(p[:, 2] - p[:, 1]).T),
            np.hypot(*(p[:, 0] - p[:, 2]).T),
        ],
        axis=1,
    )
    e1 = p[:, 1] - p[:, 0]
    e2 = p[:, 2] - p[:, 0]
    area2 = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]  # signed, twice the area
    h_t = sides.max(axis=1)
    perimeter = sides.sum(axis=1)
    rho_t = 2.0 * np.abs(area2) / perimeter  # 4 * area / perimeter
    return sides, area2, h_t, rho_t


class Triangulation:
    """Triangle mesh over a convex polygon.

    Triangles are stored counterclockwise. Boundary vertices are derived
    combinatorially: endpoints of edges incident to exactly one triangle.
    Instances are immutable after construction.
    """

    def __init__(self, points, triangles, polygon: Polygon | None = None):
        pts = np.asarray(points, dtype=float)
        tris = np.asarray(triangles, dtype=np.int64)
        if pts.ndim != 2 or pts.shape[1] != 2:
            raise MeshError("points must be an (n, 2) array")
        if tris.ndim != 2 or tris.shape[1] != 3:
            raise MeshError("triangles must be an (m, 3) index array")
        if tris.min(initial=0) < 0 or tris.max(initial=-1) >= len(pts):
            raise MeshError("triangle indices out of range")

        diam = _bbox_diameter(pts)
        snap = 1e-12 * diam
        keys = np.round(pts / snap).astype(np.int64) if snap > 0 else pts.astype(np.int64)
        _, first = np.unique(keys, axis=0, return_index=True)
        if len(first) != len(pts):
            raise MeshError("duplicate vertex coordinates (within snapping tolerance)")

        sides, area2, h_t, rho_t = _triangle_metrics(pts, tris)
        if np.any(np.abs(area2) <= 1e-14 * diam * diam):
            raise MeshError("degenerate (zero-area) triangle")
        flip = area2 < 0
        tris = tris.copy()
        tris[flip, 1], tris[flip, 2] = tris[flip, 2], tris[flip, 1]
        area2 = np.abs(area2)

        self.points = pts
        self.triangles = tris
        self.polygon = polygon
        self.h_t = h_t
        self.rho_t = rho_t
        self.areas = 0.5 * area2

        edges = np.sort(
            np.concatenate([tris[:, [0, 1]], tris[:, [1, 2]], tris[:, [2, 0]]]), axis=1
        )
        uniq, inverse, counts = np.unique(edges, axis=0, return_inverse=True,
                                          return_counts=True)
        self.edge_array = uniq
        self.edge_counts = counts
        # edge ids of the sides (v0, v1), (v1, v2), (v2, v0) of each triangle
        self.triangle_edges = inverse.reshape(3, -1).T
        boundary_edges = uniq[counts == 1]
        self.boundary_vertices = np.unique(boundary_edges)

        if polygon is not None:
            cover = math.fsum(self.areas.tolist())
            if abs(cover - polygon.area) > 1e-12 * polygon.area:
                raise MeshError(
                    f"triangles do not cover the polygon: area {cover!r} vs {polygon.area!r}"
                )

    @property
    def n_vertices(self) -> int:
        return len(self.points)

    @property
    def n_triangles(self) -> int:
        return len(self.triangles)

    @property
    def h(self) -> float:
        return float(self.h_t.max())

    @property
    def sigma(self) -> float:
        return float((self.h_t / self.rho_t).max())

    def interior_vertices(self) -> np.ndarray:
        mask = np.ones(self.n_vertices, dtype=bool)
        mask[self.boundary_vertices] = False
        return np.nonzero(mask)[0]

    def export_text(self) -> str:
        """Plain-text mesh export with deterministic (lexicographic) vertex order."""
        order = np.lexsort((self.points[:, 1], self.points[:, 0]))
        rank = np.empty_like(order)
        rank[order] = np.arange(len(order))
        lines = [f"vertices {self.n_vertices} triangles {self.n_triangles}"]
        for i in order:
            x, y = self.points[i]
            lines.append(f"{float(x)!r} {float(y)!r}")
        tris = np.sort(rank[self.triangles], axis=1)
        for tri in tris[np.lexsort((tris[:, 2], tris[:, 1], tris[:, 0]))]:
            lines.append(f"{tri[0]} {tri[1]} {tri[2]}")
        lines.append("boundary " + " ".join(str(i) for i in np.sort(rank[self.boundary_vertices])))
        return "\n".join(lines) + "\n"


def _bbox_diameter(pts: np.ndarray) -> float:
    span = pts.max(axis=0) - pts.min(axis=0)
    return float(np.hypot(span[0], span[1]))


def _axis_rectangle(polygon: Polygon):
    v = polygon.vertices
    if len(v) != 4:
        return None
    xs, ys = np.unique(v[:, 0]), np.unique(v[:, 1])
    if len(xs) != 2 or len(ys) != 2:
        return None
    expected = {(x, y) for x in xs for y in ys}
    if {tuple(p) for p in v} != expected:
        return None
    return xs[0], ys[0], xs[1], ys[1]


def _grid_divisions(lo: float, hi: float, h_target: float) -> int:
    n = int(math.ceil((hi - lo) / h_target - 1e-12))
    n = max(n, 1)
    # symmetric intervals keep the origin as a grid vertex
    if lo == -hi and n % 2 == 1:
        n += 1
    return n


def triangulate(polygon: Polygon, h_target: float) -> Triangulation:
    """Admissible triangulation of a convex polygon.

    Axis-aligned rectangles get the structured criss-cross mesh with grid
    spacing at most ``h_target`` (triangle diameters are then at most
    ``sqrt(2) * h_target``, the cell diagonals). Other convex polygons are
    fanned around the centroid and red-refined until ``h <= h_target``.
    """
    if not h_target > 0:
        raise MeshError("h_target must be positive")
    if h_target >= polygon.diameter:
        raise MeshError("h_target must be smaller than the polygon diameter")

    rect = _axis_rectangle(polygon)
    if rect is not None:
        x0, y0, x1, y1 = rect
        nx = _grid_divisions(x0, x1, h_target)
        ny = _grid_divisions(y0, y1, h_target)
        xs = np.linspace(x0, x1, nx + 1)
        ys = np.linspace(y0, y1, ny + 1)
        gx, gy = np.meshgrid(xs, ys, indexing="ij")
        pts = np.column_stack([gx.ravel(), gy.ravel()])
        idx = lambda i, j: i * (ny + 1) + j
        tris = []
        for i in range(nx):
            for j in range(ny):
                v00, v10 = idx(i, j), idx(i + 1, j)
                v01, v11 = idx(i, j + 1), idx(i + 1, j + 1)
                if (i + j) % 2 == 0:  # diagonal v00-v11
                    tris.append((v00, v10, v11))
                    tris.append((v00, v11, v01))
                else:  # diagonal v10-v01
                    tris.append((v00, v10, v01))
                    tris.append((v10, v11, v01))
        return Triangulation(pts, np.array(tris), polygon=polygon)

    center = polygon.centroid
    pts = np.vstack([polygon.vertices, center])
    c = len(polygon.vertices)
    tris = np.array([(c, i, (i + 1) % c) for i in range(c)])
    tri = Triangulation(pts, tris, polygon=polygon)
    while tri.h > h_target:
        tri = refine_red(tri)
    return tri


def refine_red(tri: Triangulation) -> Triangulation:
    """Red refinement: split every triangle into 4 children via edge midpoints."""
    new_pts = np.column_stack([red_prolong(tri, x) for x in tri.points.T])
    a, b, c = tri.triangles.T
    mab, mbc, mca = (tri.n_vertices + tri.triangle_edges).T
    children = np.stack([a, mab, mca, mab, b, mbc, mca, mbc, c, mab, mbc, mca],
                        axis=1).reshape(-1, 3)
    return Triangulation(new_pts, children, polygon=tri.polygon)


def red_prolong(tri: Triangulation, values) -> np.ndarray:
    """Values on refine_red(tri): vertex values kept, midpoints averaged.

    Exact for piecewise-linear fields, since midpoint values of a linear
    function are edge averages; the refined vertex order is parents followed
    by midpoints in edge order, matching refine_red.
    """
    vals = np.asarray(values, dtype=float)
    if vals.shape != (tri.n_vertices,):
        raise MeshError("one value per vertex required")
    e = tri.edge_array
    return np.concatenate([vals, 0.5 * (vals[e[:, 0]] + vals[e[:, 1]])])


@dataclass
class RegularityReport:
    h: float
    sigma: float
    admissible: bool
    violations: list = field(default_factory=list)


# a point whose barycentric coordinates are all >= -_INSIDE_TOL is inside
_INSIDE_TOL = 1e-12
# point-triangle pairs per block of the containment scan
_LOCATE_PAIRS = 1 << 20


def barycentric(p, a, b, c):
    """Barycentric coordinates (l1, l2, l3) of points p in triangles (a, b, c).

    The arguments broadcast against each other over their leading axes; the
    last axis holds (x, y).
    """
    d = (b[..., 1] - c[..., 1]) * (a[..., 0] - c[..., 0]) \
        + (c[..., 0] - b[..., 0]) * (a[..., 1] - c[..., 1])
    px, py = p[..., 0] - c[..., 0], p[..., 1] - c[..., 1]
    l1 = ((b[..., 1] - c[..., 1]) * px + (c[..., 0] - b[..., 0]) * py) / d
    l2 = ((c[..., 1] - a[..., 1]) * px + (a[..., 0] - c[..., 0]) * py) / d
    return l1, l2, 1.0 - l1 - l2


def _containment(tri: Triangulation, pts: np.ndarray):
    """Yield (rows, inside) over blocks of points: inside[i, t] is True when
    point rows.start + i lies in triangle t."""
    a, b, c = (tri.points[tri.triangles[:, k]] for k in range(3))
    step = max(1, _LOCATE_PAIRS // tri.n_triangles)
    for start in range(0, len(pts), step):
        rows = slice(start, min(start + step, len(pts)))
        l1, l2, l3 = barycentric(pts[rows, None], a, b, c)
        yield rows, np.minimum(np.minimum(l1, l2), l3) >= -_INSIDE_TOL


def locate(tri: Triangulation, points):
    """Lowest-index triangle containing each point (-1 for none) and the
    point's barycentric coordinates (l1, l2, l3) in it."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    found = np.full(len(pts), -1, dtype=np.int64)
    for rows, inside in _containment(tri, pts):
        found[rows] = np.where(inside.any(axis=1), inside.argmax(axis=1), -1)
    corners = tri.points[tri.triangles[np.maximum(found, 0)]]
    return found, barycentric(pts, corners[:, 0], corners[:, 1], corners[:, 2])


def _orient(a, b, c):
    return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])


def regularity_report(tri: Triangulation) -> RegularityReport:
    """Exact h and sigma plus a pairwise admissibility audit.

    Violations are reported, not raised: over-shared edges, vertices lying on
    a foreign triangle (hanging nodes and overlaps), and proper edge
    crossings. Candidate edge pairs come from a spatial hash over midpoints.
    """
    violations = []
    over = tri.edge_counts > 2
    for (a, b), cnt in zip(tri.edge_array[over], tri.edge_counts[over]):
        violations.append(("edge_incidence", int(a), int(b), int(cnt)))

    pts = tri.points
    on_foreign = []
    for rows, inside in _containment(tri, pts):
        for corner in tri.triangles.T:  # a vertex lies on its own triangles
            own = (corner >= rows.start) & (corner < rows.stop)
            inside[corner[own] - rows.start, np.nonzero(own)[0]] = False
        vs, ts = np.nonzero(inside)
        on_foreign += zip(ts.tolist(), (vs + rows.start).tolist())
    violations += [("vertex_on_triangle", v, t) for t, v in sorted(on_foreign)]

    cell = max(tri.h, 1e-300)

    # proper crossings between mesh edges sharing no endpoint
    edges = tri.edge_array
    egrid: dict[tuple[int, int], list[int]] = {}
    for k, (u, v) in enumerate(edges):
        mid = 0.5 * (pts[u] + pts[v])
        egrid.setdefault((int(mid[0] // cell), int(mid[1] // cell)), []).append(k)
    for k, (u, v) in enumerate(edges):
        mid = 0.5 * (pts[u] + pts[v])
        gx0, gy0 = int(mid[0] // cell), int(mid[1] // cell)
        for gx in range(gx0 - 1, gx0 + 2):
            for gy in range(gy0 - 1, gy0 + 2):
                for k2 in egrid.get((gx, gy), ()):
                    if k2 <= k:
                        continue
                    u2, v2 = edges[k2]
                    if len({int(u), int(v), int(u2), int(v2)}) < 4:
                        continue
                    a, b, c, d = pts[u], pts[v], pts[u2], pts[v2]
                    if (_orient(a, b, c) * _orient(a, b, d) < 0
                            and _orient(c, d, a) * _orient(c, d, b) < 0):
                        violations.append(("edge_crossing", int(k), int(k2)))

    return RegularityReport(
        h=tri.h, sigma=tri.sigma, admissible=not violations, violations=violations
    )
