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
import numpy as np
import scipy.sparse as sp


class MeshError(ValueError):
    """Invalid polygon, mesh, or refinement input."""


def _shoelace(vertices: np.ndarray) -> float:
    x, y = vertices[:, 0], vertices[:, 1]
    return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


class Polygon:
    """Convex planar polygon with strictly counterclockwise vertices that
    turn once around: every turn a strict left turn, their exterior angles
    summing to 2 pi."""

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
        # strict left turns alone admit a star: its exterior turning angles
        # sum to 2 pi times its winding number, 4 pi for a pentagram
        dot = edges[:, 0] * np.roll(edges[:, 0], -1) + edges[:, 1] * np.roll(edges[:, 1], -1)
        turns = round(float(np.arctan2(cross, dot).sum()) / (2.0 * math.pi))
        if turns != 1:
            raise MeshError(f"polygon turns {turns} times around: it crosses itself, "
                            "so it is not convex")
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
    A mesh of a given ``polygon`` must cover it conformingly (checked).
    ``parent`` is the mesh that ``refine_red`` split into this one (None for
    a mesh built from points), so a red-refinement family is a chain of
    parents down to its coarsest mesh. Instances are immutable after
    construction.
    """

    def __init__(self, points, triangles, polygon: Polygon | None = None,
                 parent: Triangulation | None = None):
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
        self.parent = parent
        self.h_t = h_t
        self.rho_t = rho_t
        self.areas = 0.5 * area2
        # constant gradients of the three barycentric (P1 hat) functions
        a, b, c = (pts[tris[:, k]] for k in range(3))
        grads = np.empty((len(tris), 3, 2))
        grads[:, 0, 0] = b[:, 1] - c[:, 1]
        grads[:, 0, 1] = c[:, 0] - b[:, 0]
        grads[:, 1, 0] = c[:, 1] - a[:, 1]
        grads[:, 1, 1] = a[:, 0] - c[:, 0]
        grads[:, 2, 0] = a[:, 1] - b[:, 1]
        grads[:, 2, 1] = b[:, 0] - a[:, 0]
        grads /= 2.0 * self.areas[:, None, None]
        self.gradients = grads

        # one int64 key per side, lo * n + hi: sorting it sorts the (lo, hi)
        # rows. Side k of a triangle joins its vertices k and k + 1 (mod 3),
        # and the keys are ravelled side-major: every triangle's side 0 first
        rolled = np.roll(tris, -1, axis=1)
        keys = np.minimum(tris, rolled)
        keys *= len(pts)
        keys += np.maximum(tris, rolled, out=rolled)
        keys, inverse, counts = np.unique(keys.T.ravel(), return_inverse=True,
                                          return_counts=True)
        uniq = np.column_stack(np.divmod(keys, len(pts)))
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
            # conforming: no edge in three triangles, and the one-triangle
            # edges trace the polygon's boundary (a hanging node's join them)
            sides = [pts[boundary_edges[:, 1]] - pts[boundary_edges[:, 0]],
                     np.roll(polygon.vertices, -1, axis=0) - polygon.vertices]
            rim, perimeter = (math.fsum(np.hypot(*d.T).tolist()) for d in sides)
            if counts.max() > 2 or abs(rim - perimeter) > 1e-12 * perimeter:
                raise MeshError(f"non-conforming mesh: {counts.max()} triangles on an edge, "
                                f"one-triangle edges of length {rim!r}, perimeter {perimeter!r}")

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
    # four distinct vertices (strictly convex) on two x and two y values are the corners
    v = polygon.vertices
    xs, ys = np.unique(v[:, 0]), np.unique(v[:, 1])
    if len(v) != 4 or len(xs) != 2 or len(ys) != 2:
        return None
    return xs[0], ys[0], xs[1], ys[1]


def _grid_divisions(lo: float, hi: float, h_target: float) -> int:
    cells = float(hi - lo) / float(h_target)
    if cells == math.inf:
        raise MeshError("h_target is too small to grid the polygon")
    n = max(int(math.ceil(cells - 1e-12)), 1)
    # symmetric intervals keep the origin as a grid vertex
    if lo == -hi and n % 2 == 1:
        n += 1
    return n


def _check_h_target(polygon: Polygon, h_target: float) -> None:
    if not h_target > 0:
        raise MeshError("h_target must be positive")
    if h_target >= polygon.diameter:
        raise MeshError("h_target must be smaller than the polygon diameter")


def interior_vertex_count(polygon: Polygon, h_target: float) -> int:
    """Interior vertices of ``triangulate(polygon, h_target)`` on an axis
    rectangle, counted without meshing: (n_x - 1)(n_y - 1) for n_x by n_y cells."""
    _check_h_target(polygon, h_target)
    rect = _axis_rectangle(polygon)
    if rect is None:
        raise MeshError("interior vertices are counted on axis rectangles only")
    x0, y0, x1, y1 = rect
    return (_grid_divisions(x0, x1, h_target) - 1) * (_grid_divisions(y0, y1, h_target) - 1)


def triangulate(polygon: Polygon, h_target: float) -> Triangulation:
    """Admissible triangulation of a convex polygon.

    Axis-aligned rectangles get the structured criss-cross mesh with grid
    spacing at most ``h_target`` (triangle diameters are then at most
    ``sqrt(2) * h_target``, the cell diagonals). Other convex polygons are
    fanned around the centroid and red-refined until ``h <= h_target``.
    """
    _check_h_target(polygon, h_target)
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
    new_pts = red_prolongation(tri) @ tri.points
    a, b, c = tri.triangles.T
    mab, mbc, mca = (tri.n_vertices + tri.triangle_edges).T
    children = np.stack([a, mab, mca, mab, b, mbc, mca, mbc, c, mab, mbc, mca],
                        axis=1).reshape(-1, 3)
    return Triangulation(new_pts, children, polygon=tri.polygon, parent=tri)


def red_prolongation(tri: Triangulation) -> sp.csr_matrix:
    """(n + e) x n matrix from vertex values on ``tri`` (n vertices, e edges)
    to those on refine_red(tri), whose vertices are ``tri``'s, then one
    midpoint per row of ``tri.edge_array``: identity rows, then 1/2, 1/2 on
    each edge's ends. Exact for P1 fields; products with it are bitwise the
    kept values and midpoint means (halving is exact), up to a zero's sign."""
    n, e = tri.n_vertices, tri.edge_array
    rows = np.concatenate([np.arange(n), np.repeat(n + np.arange(len(e)), 2)])
    cols = np.concatenate([np.arange(n), e.ravel()])
    vals = np.concatenate([np.ones(n), np.full(2 * len(e), 0.5)])
    return sp.csr_matrix((vals, (rows, cols)), shape=(n + len(e), n))


def red_prolong(tri: Triangulation, values) -> np.ndarray:
    """Values on refine_red(tri): ``red_prolongation(tri) @ values``."""
    vals = np.asarray(values, dtype=float)
    if vals.shape != (tri.n_vertices,):
        raise MeshError("one value per vertex required")
    return red_prolongation(tri) @ vals


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


def locate(tri: Triangulation, points):
    """Lowest-index triangle containing each point (-1 for none) and the
    point's barycentric coordinates (l1, l2, l3) in it."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    found = np.full(len(pts), -1, dtype=np.int64)
    a, b, c = (tri.points[tri.triangles[:, k]] for k in range(3))
    step = max(1, _LOCATE_PAIRS // tri.n_triangles)
    for start in range(0, len(pts), step):
        rows = slice(start, min(start + step, len(pts)))
        l1, l2, l3 = barycentric(pts[rows, None], a, b, c)
        inside = np.minimum(np.minimum(l1, l2), l3) >= -_INSIDE_TOL
        found[rows] = np.where(inside.any(axis=1), inside.argmax(axis=1), -1)
    corners = tri.points[tri.triangles[np.maximum(found, 0)]]
    return found, barycentric(pts, corners[:, 0], corners[:, 1], corners[:, 2])

