import math

import numpy as np
import pytest

from meyers_lab import MeshError, Polygon, Triangulation, refine_red, triangulate
from meyers_lab.mesh import interior_vertex_count, red_prolong

SQRT2 = math.sqrt(2.0)
PENTAGON = Polygon([(0, 0), (2, 0), (3, 2), (1, 3), (-1, 1)])


def perimeter(poly):
    v = poly.vertices
    return math.fsum(np.hypot(*(np.roll(v, -1, axis=0) - v).T).tolist())


def conformity(tri):
    """(largest edge count, length of the one-triangle edges, V - E + T)."""
    e = tri.edge_array[tri.edge_counts == 1]
    boundary = math.fsum(np.hypot(*(tri.points[e[:, 1]] - tri.points[e[:, 0]]).T).tolist())
    euler = tri.n_vertices - len(tri.edge_array) + tri.n_triangles
    return int(tri.edge_counts.max()), boundary, euler


class TestPolygon:
    def test_rejects_too_few_vertices(self):
        with pytest.raises(MeshError):
            Polygon([(0, 0), (1, 0)])

    def test_rejects_clockwise(self):
        with pytest.raises(MeshError, match="clockwise"):
            Polygon([(0, 0), (0, 1), (1, 1), (1, 0)])

    def test_rejects_nonconvex(self):
        with pytest.raises(MeshError, match="convex"):
            Polygon([(0, 0), (2, 0), (1, 0.2), (1, 2)])

    # the pentagram: every turn a strict left turn, winding number 2
    STAR = [(1, 0), (-0.809017, 0.587785), (0.309017, -0.951057),
            (0.309017, 0.951057), (-0.809017, -0.587785)]

    @pytest.mark.parametrize("star", [STAR, STAR[2:] + STAR[:2], STAR + STAR])
    def test_rejects_self_intersecting_star(self, star):
        with pytest.raises(MeshError, match="crosses itself"):
            Polygon(star)

    @pytest.mark.parametrize("vertices", [
        [(0, 0), (1, 0), (1, 1), (0, 1)],
        [(-3, -1), (2, -1), (2, 0.5), (-3, 0.5)],
        *[[(math.cos(2 * math.pi * k / n), math.sin(2 * math.pi * k / n)) for k in range(n)]
          for n in (3, 4, 5, 7, 64)],
    ])
    def test_accepts_rectangles_and_regular_polygons(self, vertices):
        assert Polygon(vertices).area > 0

    def test_rejects_repeated_vertex(self):
        with pytest.raises(MeshError, match="degenerate"):
            Polygon([(0, 0), (0, 0), (1, 0), (1, 1)])

    def test_area_and_diameter(self):
        sq = Polygon.symmetric_square(1.0)
        assert sq.area == pytest.approx(4.0)
        assert sq.diameter == pytest.approx(2 * SQRT2)


class TestTriangulate:
    def test_unit_square_half(self, coarse_square_mesh):
        tri = coarse_square_mesh
        assert tri.n_triangles == 8
        assert tri.h == pytest.approx(SQRT2 / 2)
        # all 8 triangles are congruent right isoceles triangles
        assert np.allclose(tri.h_t, SQRT2 / 2)
        assert np.allclose(tri.areas, 1 / 8)
        assert tri.sigma == pytest.approx(1 + SQRT2)

    def test_unit_square_quarter(self, unit_square, coarse_square_mesh):
        tri = triangulate(unit_square, 0.25)
        assert tri.n_triangles == 32
        assert tri.sigma == pytest.approx(coarse_square_mesh.sigma)

    def test_symmetric_square_contains_origin(self):
        tri = triangulate(Polygon.symmetric_square(1.0), 0.5)
        assert tri.n_triangles == 32
        assert any((x, y) == (0.0, 0.0) for x, y in map(tuple, tri.points))

    def test_area_cover_invariant(self, unit_square):
        for target in (0.5, 0.3, 0.125):
            tri = triangulate(unit_square, target)
            assert math.fsum(tri.areas.tolist()) == pytest.approx(1.0, rel=1e-12)

    def test_generic_polygon_meets_target(self):
        tri = triangulate(PENTAGON, 0.4)
        assert tri.h <= 0.4
        assert math.fsum(tri.areas.tolist()) == pytest.approx(PENTAGON.area, rel=1e-12)
        # conforming: no edge is shared by more than two triangles, and the
        # edges of only one triangle trace exactly the polygon's boundary
        most, boundary, _ = conformity(tri)
        assert most <= 2
        assert boundary == pytest.approx(perimeter(PENTAGON), rel=1e-12)

    def test_equilateral_sigma(self):
        tri = Triangulation([(0, 0), (1, 0), (0.5, math.sqrt(3) / 2)], [(0, 1, 2)])
        assert tri.sigma == pytest.approx(math.sqrt(3))

    def test_bad_h_target(self, unit_square):
        with pytest.raises(MeshError):
            triangulate(unit_square, 0.0)
        with pytest.raises(MeshError):
            triangulate(unit_square, 10.0)

    def test_boundary_vertices_lie_on_boundary(self, unit_square):
        tri = triangulate(unit_square, 0.25)
        d = unit_square.boundary_distance(tri.points)
        on_boundary = d < 1e-12
        assert set(np.nonzero(on_boundary)[0]) == set(tri.boundary_vertices)


class TestInteriorVertexCount:
    @pytest.mark.parametrize("poly", [
        Polygon.unit_square(), Polygon.symmetric_square(1.0),
        Polygon.rectangle(0.0, 0.0, 3.0, 1.0), Polygon.rectangle(-1.0, 0.0, 1.0, 0.7),
    ], ids=["unit_square", "square2", "rect_3x1", "rect_sym_x"])
    @pytest.mark.parametrize("h", [1.2, 0.7, 0.5, 0.3, 0.125, 0.1])
    def test_counts_the_interior_vertices_of_triangulate(self, poly, h):
        want = len(triangulate(poly, h).interior_vertices())
        assert interior_vertex_count(poly, h) == want

    # at h = 2^-1074 the cell count 1 / h overflows to inf
    @pytest.mark.parametrize("h", [0.0, -1.0, np.nan, 10.0, 2.0 ** -1074])
    def test_refuses_what_triangulate_refuses(self, unit_square, h):
        with pytest.raises(MeshError):
            triangulate(unit_square, h)
        with pytest.raises(MeshError):
            interior_vertex_count(unit_square, h)

    def test_refuses_a_polygon_that_is_not_an_axis_rectangle(self):
        diamond = Polygon([(1.0, 0.0), (2.0, 1.0), (1.0, 2.0), (0.0, 1.0)])
        with pytest.raises(MeshError, match="axis rectangles"):
            interior_vertex_count(diamond, 0.25)
        with pytest.raises(MeshError, match="axis rectangles"):
            interior_vertex_count(PENTAGON, 0.25)


class TestRefineRed:
    def test_counts_and_h(self, coarse_square_mesh):
        fine = refine_red(coarse_square_mesh)
        assert fine.n_triangles == 32
        assert fine.h == pytest.approx(coarse_square_mesh.h / 2, rel=1e-14)

    def test_sigma_invariant(self, coarse_square_mesh):
        fine = refine_red(coarse_square_mesh)
        assert fine.sigma == pytest.approx(coarse_square_mesh.sigma, rel=1e-12)

    def test_twice_is_quarter(self, coarse_square_mesh):
        twice = refine_red(refine_red(coarse_square_mesh))
        assert twice.h == pytest.approx(coarse_square_mesh.h / 4, rel=1e-14)
        assert twice.n_triangles == 16 * coarse_square_mesh.n_triangles

    def test_generic_family_sigma_constant(self):
        poly = Polygon([(0, 0), (2, 0), (2.5, 1.5), (0.5, 2.5)])
        tri = triangulate(poly, 1.0)
        sigmas = [tri.sigma]
        for _ in range(3):
            tri = refine_red(tri)
            sigmas.append(tri.sigma)
        assert max(sigmas) == pytest.approx(min(sigmas), rel=1e-12)

    def test_diagonal_midpoint_becomes_interior(self):
        # two-triangle square: the diagonal's midpoint is not on the boundary
        pts = [(0, 0), (1, 0), (1, 1), (0, 1)]
        tri = Triangulation(pts, [(0, 1, 2), (0, 2, 3)])
        fine = refine_red(tri)
        mid = [i for i, p in enumerate(fine.points) if tuple(p) == (0.5, 0.5)]
        assert len(mid) == 1
        assert mid[0] not in fine.boundary_vertices

    @pytest.mark.parametrize("poly,h", [
        (Polygon.unit_square(), 0.5),
        (Polygon.symmetric_square(1.0), 1.0),
        (Polygon([(math.cos(0.4 * math.pi * k), math.sin(0.4 * math.pi * k))
                  for k in range(5)]), 1.5),
    ])
    def test_matches_per_triangle_reference(self, poly, h):
        # the children, their order and the midpoint numbering of a loop over
        # triangles with an edge -> midpoint dictionary
        tri = triangulate(poly, h)
        for _ in range(3):
            base = tri.n_vertices
            mid = {tuple(e): base + k for k, e in enumerate(tri.edge_array.tolist())}
            children = []
            for a, b, c in tri.triangles.tolist():
                mab, mbc, mca = (mid[tuple(sorted(e))] for e in ((a, b), (b, c), (c, a)))
                children += [(a, mab, mca), (mab, b, mbc), (mca, mbc, c), (mab, mbc, mca)]
            e = tri.edge_array
            pts = np.vstack([tri.points, 0.5 * (tri.points[e[:, 0]] + tri.points[e[:, 1]])])
            fine = refine_red(tri)
            assert fine.points.tobytes() == pts.tobytes()
            assert np.array_equal(fine.triangles, children)
            tri = fine

    def test_triangle_edges_are_the_sides(self, coarse_square_mesh):
        tri = refine_red(coarse_square_mesh)
        t = tri.triangles
        sides = np.stack([t[:, [0, 1]], t[:, [1, 2]], t[:, [2, 0]]], axis=1)
        assert np.array_equal(tri.edge_array[tri.triangle_edges], np.sort(sides, axis=2))

    @pytest.mark.parametrize("tri", [
        triangulate(Polygon.rectangle(0.0, 0.0, 2.0, 1.0), 0.5),
        triangulate(PENTAGON, 3.0),
    ], ids=["rectangle", "fan-pentagon"])
    def test_prolongation_is_the_midpoint_formula_bitwise(self, tri):
        # mesh.red_prolongation's rows sum 1.0 * v[i] or 0.5 * v[a] + 0.5 * v[b]:
        # bitwise the formula, since halving is exact (refine_red's points read
        # the same matrix; test_matches_per_triangle_reference checks them)
        e0, e1 = tri.edge_array.T
        vals = np.random.default_rng(7).standard_normal(tri.n_vertices)
        expect = np.concatenate([vals, 0.5 * (vals[e0] + vals[e1])])
        assert red_prolong(tri, vals).tobytes() == expect.tobytes()

    def test_prolongation_exact_for_linear(self, coarse_square_mesh):
        tri = coarse_square_mesh
        vals = 2.0 * tri.points[:, 0] - 0.7 * tri.points[:, 1] + 0.3
        fine = refine_red(tri)
        expect = 2.0 * fine.points[:, 0] - 0.7 * fine.points[:, 1] + 0.3
        assert np.allclose(red_prolong(tri, vals), expect, atol=1e-15)


class TestConformity:
    @pytest.mark.parametrize("poly, h, levels", [
        (Polygon.unit_square(), 0.5, 0),
        (Polygon.unit_square(), 0.5, 1),
        (Polygon.unit_square(), 0.5, 2),
        (Polygon.symmetric_square(1.0), 0.5, 0),
        (Polygon.symmetric_square(1.0), 0.5, 1),
        (PENTAGON, 0.4, 0),
        (PENTAGON, 0.4, 1),
    ], ids=["square-0", "square-1", "square-2", "symmetric-0", "symmetric-1",
            "pentagon-0", "pentagon-1"])
    def test_family_meshes_conform(self, poly, h, levels):
        # a conforming mesh of a convex polygon (a disk): no edge in more than
        # two triangles, the one-triangle edges trace the boundary, V - E + T
        # = 1, and exactly the boundary vertices lie on the polygon's boundary
        tri = triangulate(poly, h)
        for _ in range(levels):
            tri = refine_red(tri)
        most, boundary, euler = conformity(tri)
        assert most == 2
        assert boundary == pytest.approx(perimeter(poly), rel=1e-12)
        assert euler == 1
        on_boundary = poly.boundary_distance(tri.points) <= 1e-12 * poly.diameter
        assert np.array_equal(np.flatnonzero(on_boundary), tri.boundary_vertices)

    @pytest.mark.parametrize("points, triangles, most, boundary, euler", [
        # the centre is a vertex of two triangles and lies on the third's side
        ([(0, 0), (1, 0), (1, 1), (0, 1), (0.5, 0.5)],
         [(0, 1, 2), (0, 4, 3), (4, 2, 3)], 2, 4 + 2 * SQRT2, 0),
        # three triangles on the side (0, 1)
        ([(0, 0), (1, 0), (0.5, 1), (0.5, -1), (2, 0.5)],
         [(0, 1, 2), (0, 1, 3), (0, 1, 4)], 3, 5 * math.sqrt(1.25) + math.sqrt(4.25), 1),
        # two triangles whose sides cross
        ([(0, 0), (1, 0), (0.5, 1), (0.5, -0.4), (1.5, 0.6), (-0.5, 0.6)],
         [(0, 1, 2), (3, 4, 5)], 1, 3 + 2 * math.sqrt(1.25) + 2 * SQRT2, 2),
    ], ids=["hanging_node", "overused_edge", "crossing_edges"])
    def test_nonconforming_input_shows_in_edge_counts(self, points, triangles,
                                                       most, boundary, euler):
        got = conformity(Triangulation(points, triangles))
        assert got[0] == most and got[2] == euler
        assert got[1] == pytest.approx(boundary, rel=1e-12)
        assert most > 2 or euler != 1

    @pytest.mark.parametrize("points, triangles, match", [
        # the hanging centre's sides join the one-triangle edges, which then
        # sum to 4 + 2 sqrt 2; the areas still cover the square
        ([(0, 0), (1, 0), (1, 1), (0, 1), (0.5, 0.5)],
         [(0, 1, 2), (0, 4, 3), (4, 2, 3)], "non-conforming mesh: 2 triangles"),
        # three triangles on the side (0, 1) whose areas sum to the square's
        ([(0, 0), (1, 0), (1, 1), (0.5, 0.5), (0.2, 0.5)],
         [(0, 1, 2), (0, 1, 3), (0, 1, 4)], "non-conforming mesh: 3 triangles"),
    ], ids=["hanging_node", "overused_edge"])
    def test_nonconforming_mesh_of_a_polygon_refused(self, points, triangles, match):
        with pytest.raises(MeshError, match=match):
            Triangulation(points, triangles, polygon=Polygon.unit_square())

    @pytest.mark.parametrize("poly, h", [
        (Polygon.unit_square(), 0.5),
        (Polygon.symmetric_square(1.0), 1.0),
        (PENTAGON, 1.0),
    ], ids=["square", "symmetric", "pentagon"])
    def test_refine_red_counts(self, poly, h):
        # each edge gains a midpoint and splits in two, each triangle gains
        # three inner edges, and the boundary edges double
        tri = triangulate(poly, h)
        fine = refine_red(tri)
        n_edges = len(tri.edge_array)
        assert fine.n_vertices == tri.n_vertices + n_edges
        assert fine.n_triangles == 4 * tri.n_triangles
        assert len(fine.edge_array) == 2 * n_edges + 3 * tri.n_triangles
        assert np.count_nonzero(fine.edge_counts == 1) == \
            2 * np.count_nonzero(tri.edge_counts == 1)


class TestExport:
    def test_header_and_determinism(self, coarse_square_mesh):
        text = coarse_square_mesh.export_text()
        lines = text.strip().splitlines()
        assert lines[0] == "vertices 9 triangles 8"
        assert lines[-1].startswith("boundary ")
        assert text == coarse_square_mesh.export_text()

    def test_lexicographic_vertex_order(self, coarse_square_mesh):
        lines = coarse_square_mesh.export_text().strip().splitlines()
        coords = [tuple(map(float, ln.split())) for ln in lines[1:10]]
        assert coords == sorted(coords)
