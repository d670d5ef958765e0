import math
import warnings

import numpy as np
import pytest
import scipy.linalg as la
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import csgraph

from meyers_lab import (GraphError, Polygon, WeightedGraph, ball, box_window,
                        distances_from, from_triangulation, geometry_report,
                        h_star, lattice_box, refine_red, rescale, triangulate)
from meyers_lab import graph
from meyers_lab.graph import _poincare_constants, _volume_profiles

from conftest import path_graph, random_graph

SQRT2 = math.sqrt(2.0)


def center_index(tri):
    hits = np.nonzero((tri.points[:, 0] == 0.5) & (tri.points[:, 1] == 0.5))[0]
    return int(hits[0])


class TestFromTriangulation:
    def test_coarse_square_measures(self, coarse_square_mesh, coarse_square_graph):
        g = coarse_square_graph
        c = center_index(coarse_square_mesh)
        assert list(coarse_square_mesh.interior_vertices()) == [c]
        assert g.degree[c] == 8
        assert g.m[c] == pytest.approx(3.0)  # 4 axis edges 1/4 + 4 diagonals 1/2
        mus = sorted(g.edge_mu[(g.edge_u == c) | (g.edge_v == c)])
        assert mus[:4] == pytest.approx([0.25] * 4)
        assert mus[4:] == pytest.approx([0.5] * 4)

    def test_edge_count_euler(self, coarse_square_mesh, coarse_square_graph):
        v = coarse_square_mesh.n_vertices
        f = coarse_square_mesh.n_triangles
        assert v - coarse_square_graph.n_edges + f == 1

    def test_constants_invariant_under_refinement(self, coarse_square_mesh,
                                                  coarse_square_graph):
        g0 = coarse_square_graph
        assert g0.C_W == pytest.approx(SQRT2)
        tri = coarse_square_mesh
        for _ in range(2):
            tri = refine_red(tri)
            g = from_triangulation(tri)
            assert g.C_W == pytest.approx(g0.C_W)
            assert g.C_mu == pytest.approx(g0.C_mu)
            assert g.N == g0.N

    def test_m_over_hx2_bracket_stable(self, coarse_square_mesh):
        tri = refine_red(coarse_square_mesh)
        g1 = from_triangulation(tri)
        g2 = from_triangulation(refine_red(tri))
        assert g1.m_over_hx2_bracket == pytest.approx(g2.m_over_hx2_bracket)

    def test_sets_no_attribute_of_its_own(self, coarse_square_mesh):
        tri = coarse_square_mesh
        plain = WeightedGraph(tri.n_vertices, *graph.mesh_edges(tri))
        assert vars(from_triangulation(tri)).keys() == vars(plain).keys()

    def test_disconnected_rejected(self):
        with pytest.raises(GraphError, match="connected"):
            WeightedGraph(4, [0, 2], [1, 3], [1, 1], [1, 1])

    @pytest.mark.parametrize("n", [0, -1, 2.5, 2.0, True, "2", None])
    def test_bad_vertex_count_refused(self, n):
        with pytest.raises(GraphError, match="vertex count"):
            WeightedGraph(n, [], [], [], [])

    def test_numpy_integer_vertex_count_accepted(self):
        g = WeightedGraph(np.int64(2), [0], [1], [1.0], [1.0])
        assert g.n == 2 and type(g.n) is int

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("column", ["edge_h", "edge_mu"])
    def test_non_finite_edge_data_refused(self, column, bad):
        data = {"edge_h": [1.0, 2.0, 3.0], "edge_mu": [1.0, 1.0, 1.0]}
        data[column][1] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(GraphError, match="positive and finite"):
                WeightedGraph(4, [0, 1, 2], [1, 2, 3], data["edge_h"], data["edge_mu"])


def incident_edge_constants(g):
    """degree, N, h_x, C_W, C_mu and the m/h_x^2 bracket, vertex by vertex
    from a loop over the edges at each vertex."""
    incident = [[] for _ in range(g.n)]
    for k in range(g.n_edges):
        incident[g.edge_u[k]].append(k)
        incident[g.edge_v[k]].append(k)
    degree, h_x, w_ratio, mu_ratio, m_ratio = [], [], [], [], []
    for x, ks in enumerate(incident):
        hs, mus = g.edge_h[ks], g.edge_mu[ks]
        degree.append(len(ks))
        h_x.append(hs.max())
        w_ratio.append(hs.max() / hs.min())
        mu_ratio.append(mus.max() / mus.min())
        m_ratio.append(g.m[x] / hs.max()**2)
    return dict(degree=degree, N=max(degree), h_x=h_x, C_W=max(w_ratio),
                C_mu=max(mu_ratio), m_over_hx2_bracket=(min(m_ratio), max(m_ratio)))


class TestAdjacencyConstants:
    """The constructor reads the per-vertex constants off its CSR adjacency;
    on irregular graphs they equal (==) a loop over each vertex's edges."""

    @staticmethod
    def assert_loop_constants(g):
        want = incident_edge_constants(g)
        assert g.degree.tolist() == want["degree"]
        assert g.N == want["N"]
        assert g.h_x.tolist() == want["h_x"]
        assert (g.C_W, g.C_mu) == (want["C_W"], want["C_mu"])
        assert g.m_over_hx2_bracket == want["m_over_hx2_bracket"]

    @pytest.mark.parametrize("seed", range(12))
    def test_random_graphs(self, seed):
        g = random_graph(np.random.default_rng(seed))
        self.assert_loop_constants(g)
        self.assert_loop_constants(rescale(g, 0.3))

    @pytest.mark.parametrize("nx, ny", [(2, 2), (4, 3), (8, 8)])
    def test_lattice_boxes(self, nx, ny):
        self.assert_loop_constants(lattice_box(nx, ny))

    def test_level3_mesh_graph(self, unit_square):
        g = from_triangulation(triangulate(unit_square, 2.0**-3))
        assert g.C_W > 1 and g.C_mu > 1  # axis and diagonal edges
        self.assert_loop_constants(g)


class TestDistanceAndBalls:
    def test_distance_zero_on_diagonal(self, small_path):
        assert distances_from(small_path, 1)[1] == 0.0

    def test_path_distance_sums_weights(self, small_path):
        assert distances_from(small_path, 0)[3] == pytest.approx(6.0)

    def test_structured_mesh_corner_to_corner(self, coarse_square_mesh,
                                              coarse_square_graph):
        tri, g = coarse_square_mesh, coarse_square_graph
        a = int(np.nonzero((tri.points == 0).all(axis=1))[0][0])
        b = int(np.nonzero((tri.points == 1).all(axis=1))[0][0])
        d = distances_from(g, a)[b]
        assert SQRT2 <= d <= SQRT2 + 2 * g.h + 1e-12
        assert d == pytest.approx(SQRT2)  # the two diagonals through the center

    def test_singleton_ball_rule(self, coarse_square_graph):
        g = coarse_square_graph
        for x in range(g.n):
            members, vol = ball(g, x, g.h_x[x] / g.C_W)
            assert list(members) == [x]
            assert vol == pytest.approx(g.m[x])

    def test_full_ball(self, coarse_square_graph):
        g = coarse_square_graph
        members, vol = ball(g, 0, 100.0)
        assert len(members) == g.n
        assert vol == pytest.approx(g.m.sum())

    def test_ball_against_brute_force(self, coarse_square_graph):
        g = coarse_square_graph
        c = 4  # any vertex
        members, _ = ball(g, c, 0.6)
        d = distances_from(g, c)
        assert set(members.tolist()) == set(np.nonzero(d < 0.6)[0].tolist())

    def test_metric_axioms_exhaustive_box(self):
        g = lattice_box(5, 5)  # 25 vertices, exhaustive all-pairs
        d = distances_from(g, np.arange(g.n))
        assert np.allclose(d, d.T)
        assert np.all(np.diag(d) == 0)
        assert np.all(d[~np.eye(g.n, dtype=bool)] > 0)
        for k in range(g.n):
            assert np.all(d <= d[:, [k]] + d[[k], :] + 1e-12)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10_000))
    def test_metric_axioms(self, seed):
        g = random_graph(np.random.default_rng(seed))
        d = distances_from(g, np.arange(g.n))
        assert np.allclose(d, d.T, atol=1e-12)
        assert np.all(np.diag(d) == 0)
        assert np.all(d[~np.eye(g.n, dtype=bool)] > 0)
        # triangle inequality
        for k in range(g.n):
            assert np.all(d <= d[:, [k]] + d[[k], :] + 1e-12)


class TestDirectedSearch:
    """distances_from runs Dijkstra directed over the stored metric, which
    holds each edge both ways with one length; that is the undirected search."""

    @pytest.mark.parametrize("make", [
        lambda: from_triangulation(triangulate(Polygon.unit_square(), 2.0**-3)),
        lambda: from_triangulation(triangulate(Polygon([(0, 0), (1, 0), (0.3, 0.8)]), 0.2)),
        lambda: lattice_box(6, 4),
        lambda: path_graph([1.0, 0.3, 2.5, 1e-3]),
        lambda: rescale(from_triangulation(triangulate(Polygon.unit_square(), 0.25)), 0.1),
    ], ids=["square_mesh", "triangle_mesh", "lattice_box", "path_graph", "rescale"])
    def test_metric_is_bitwise_symmetric(self, make):
        metric = make()._metric
        assert (metric != metric.T).nnz == 0

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10_000), st.data())
    def test_equals_undirected_search(self, seed, data):
        g = random_graph(np.random.default_rng(seed))
        sources = data.draw(st.one_of(
            st.integers(0, g.n - 1),
            st.lists(st.integers(0, g.n - 1), min_size=1, max_size=2 * g.n)))
        limit = data.draw(st.one_of(st.just(np.inf), st.floats(0.1, 20.0)))
        want = csgraph.dijkstra(g._metric, directed=False, indices=sources, limit=limit)
        assert np.array_equal(distances_from(g, sources, limit=limit), want)


class TestMetricSlots:
    """The metric's CSR slots are the adjacency: each row's neighbors in
    ascending order, each slot carrying its edge's id and length."""

    @staticmethod
    def assert_slots_match_edges(g):
        M = g._metric
        rows = np.repeat(np.arange(g.n), np.diff(M.indptr))
        e = g._adj_edge
        assert len(e) == M.nnz == 2 * g.n_edges
        ends = np.sort(np.column_stack([rows, M.indices]), axis=1)
        assert np.array_equal(ends, np.column_stack([g.edge_u[e], g.edge_v[e]]))
        assert M.data.tobytes() == g.edge_h[e].tobytes()
        assert all(np.all(np.diff(g.neighbors(x)) > 0) for x in range(g.n))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10_000))
    def test_random_graphs(self, seed):
        self.assert_slots_match_edges(random_graph(np.random.default_rng(seed)))

    def test_mesh_graph(self, unit_square):
        self.assert_slots_match_edges(from_triangulation(triangulate(unit_square, 2.0**-3)))


def poincare(g, members, r, memo=None):
    """The block routine's constant for the one ball ``members``."""
    ys = np.unique(members)
    return _poincare_constants(g, np.zeros(len(ys), dtype=np.int64), ys, r,
                               {} if memo is None else memo)[0]


def finite_entries(rows):
    """(row, column, distance) of the finite entries of ``rows``, as
    geometry_report extracts them from a block."""
    rr, cc = np.nonzero(np.isfinite(rows))
    return rr, cc, rows[rr, cc]


def loop_pencil(g, members):
    """Mean-zero mass form A and gradient form G on the closure of a ball,
    built vertex by vertex."""
    closure = sorted({z for y in members for z in [y, *g.neighbors(y).tolist()]})
    loc = {x: i for i, x in enumerate(closure)}
    k = len(closure)
    mloc = np.zeros(k)
    for y in members:
        mloc[loc[y]] = g.m[y]
    A = np.diag(mloc) - np.outer(mloc, mloc) / mloc.sum()
    G = np.zeros((k, k))
    for y in members:
        for z in g.neighbors(y):
            w = g.m[y] / g.h_x[y] ** 2
            iy, iz = loc[y], loc[int(z)]
            G[iy, iy] += w
            G[iz, iz] += w
            G[iy, iz] -= w
            G[iz, iy] -= w
    return A, G


class TestGeometryReport:
    def test_singleton_ball_contributes_zero(self, small_path):
        assert poincare(small_path, np.array([1]), 0.5) == 0.0

    def test_poincare_matches_dense_oracle(self):
        g = path_graph([1.0, 1.0, 1.0, 1.0, 1.0, 1.0])
        r = 2.5
        members, _ = ball(g, 3, r)
        val = poincare(g, members, r)

        # oracle 1: pseudo-inverse pencil on the mean-zero complement
        A, G = loop_pencil(g, members)
        evals = np.linalg.eigvals(np.linalg.pinv(r * r * G) @ A)
        oracle = max(float(v.real) for v in evals)
        assert val == pytest.approx(oracle, rel=1e-9)

        # oracle 2: random-search lower bound approaches the constant
        rng = np.random.default_rng(0)
        best = 0.0
        for _ in range(3000):
            f = rng.standard_normal(g.n)
            fb = (f[members] * g.m[members]).sum() / g.m[members].sum()
            lhs = ((np.abs(f[members] - fb) ** 2) * g.m[members]).sum()
            gr = np.zeros(g.n)
            for y in members:
                gr[y] = np.sqrt(((f[g.neighbors(y)] - f[y]) ** 2).sum()) / g.h_x[y]
            rhs = r * r * ((gr[members] ** 2) * g.m[members]).sum()
            if rhs > 0:
                best = max(best, lhs / rhs)
        assert best <= val * (1 + 1e-9)
        assert best >= 0.5 * val

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10_000))
    def test_poincare_matches_dense_oracle_on_random_balls(self, seed):
        rng = np.random.default_rng(seed)
        g = random_graph(rng)
        x = int(rng.integers(g.n))
        r = float(rng.uniform(0.3, 4.0))
        members = np.nonzero(distances_from(g, x) < r)[0]
        if len(members) <= 1:
            assert poincare(g, members, r) == 0.0
            return
        # reference: the pencil restricted to a QR basis of the complement
        # of constants
        A, G = loop_pencil(g, members)
        k = len(A)
        q, _ = np.linalg.qr(np.column_stack([np.ones(k), np.eye(k)[:, : k - 1]]))
        P = q[:, 1:]
        oracle = la.eigh(P.T @ A @ P, P.T @ (r * r * G) @ P, eigvals_only=True)[-1]
        assert poincare(g, members, r) == pytest.approx(float(oracle), rel=1e-10)

    def test_family_stability(self, unit_square):
        # lattice-relative radius cap: the probed ball patterns repeat across
        # levels of the self-similar family
        tri = triangulate(unit_square, 2.0**-3)
        reports = []
        for _ in range(3):
            g = from_triangulation(tri)
            reports.append(geometry_report(g, 2.5 * tri.h, sample_count=None, seed=3))
            tri = refine_red(tri)
        for key in ("C_D", "c_L", "C_P"):
            vals = [getattr(r, key) for r in reports]
            assert max(vals) / min(vals) < 2.0, (key, vals)

    def test_trivial_lower_bounds(self, coarse_square_graph):
        rep = geometry_report(coarse_square_graph, 0.6, seed=0)
        assert rep.C_D >= 1.0
        assert rep.c_L > 0
        assert rep.C_P > 0

    def test_bad_r0(self, coarse_square_graph):
        with pytest.raises(GraphError):
            geometry_report(coarse_square_graph, 1e-9)


def dense_geometry_reference(g, r0, sample_count, seed):
    """geometry_report's algorithm on one dense all-centers distance array,
    every ball's Poincare pencil solved afresh; returns the report's fields
    and the number of multi-vertex balls."""
    if sample_count is None:
        centers = np.arange(g.n)
    else:
        centers = np.sort(np.random.default_rng(seed).choice(g.n, size=sample_count,
                                                             replace=False))
    d = distances_from(g, centers)
    assert np.all(np.isfinite(d))

    def volume_at(breaks, vols, r):
        idx = np.searchsorted(breaks, r, side="left") - 1
        return np.where(idx >= 0, vols[np.clip(idx, 0, None)], 0.0)

    bump = 1.0 + 1e-12
    c_d, c_l, c_p, n_balls, multi = 1.0, np.inf, 0.0, 0, 0
    for row in d:
        order = np.argsort(row, kind="stable")
        dists, vols = row[order], np.cumsum(g.m[order])
        ends = np.nonzero(np.diff(dists, append=np.inf) > 0)[0]
        breaks, vols = dists[ends], vols[ends]
        cand = np.concatenate([breaks * bump, breaks * (0.5 * bump), [r0 * 0.999999]])
        cand = cand[(cand > 0) & (cand < r0)]
        v_r, v_2r = volume_at(breaks, vols, cand), volume_at(breaks, vols, 2.0 * cand)
        pos = v_r > 0
        if np.any(pos):
            c_d = max(c_d, float((v_2r[pos] / v_r[pos]).max()))
        ok = breaks < r0
        uppers = np.minimum(np.concatenate([breaks[1:], [np.inf]])[ok], r0)
        c_l = min(c_l, float((vols[ok] / uppers**2).min()))
        for r in (0.25 * r0, 0.5 * r0, 1.0 * r0):
            members = np.nonzero(row < r)[0]
            c_p = max(c_p, poincare(g, members, r))
            n_balls += 1
            multi += len(members) > 1
    fields = dict(r0=r0, C_D=c_d, c_L=c_l, C_P=c_p, D=float(np.log2(c_d)),
                  balls_sampled=n_balls)
    return fields, multi


class TestLimitedRowsAndPencilMemo:
    """geometry_report reads distance rows limited to 2 r0 in center blocks
    and solves each distinct Poincare pencil once; its report is exactly the
    dense all-centers one."""

    @pytest.fixture(scope="class")
    def level4(self):
        tri = triangulate(Polygon.unit_square(), 2.0**-4)
        return tri, from_triangulation(tri)

    @pytest.mark.parametrize("r0_over_h, sample_count, seed", [
        (2.5, None, 0),
        (2.5, 40, 7),
        (6.0, 30, 1),  # the 2 r0 limit covers most of the graph
    ])
    def test_report_equals_dense_reference(self, level4, r0_over_h, sample_count, seed):
        tri, g = level4
        r0 = r0_over_h * tri.h
        rep = geometry_report(g, r0, sample_count=sample_count, seed=seed)
        fields, _ = dense_geometry_reference(g, r0, sample_count, seed)
        for key, want in fields.items():
            assert getattr(rep, key) == want, key

    def test_doubling_reads_distances_up_to_twice_r0(self):
        # m = 1, 2, 101, 100; just below r0 = 1, V(0, r) = m(0) while
        # V(0, 2r) also holds the heavy vertex at distance 1.99
        g = path_graph([1.0, 0.99, 5.0], mus=[1.0, 1.0, 100.0])
        rep = geometry_report(g, 1.0)
        assert rep.C_D == (1.0 + 2.0 + 101.0) / 1.0
        fields, _ = dense_geometry_reference(g, 1.0, None, 0)
        assert [getattr(rep, key) for key in fields] == list(fields.values())

    def test_memo_tells_radii_apart(self):
        g = path_graph([1.0, 10.0, 1.0])
        members = np.array([0, 1])  # the strict ball B(0, r) for 1 < r <= 11
        memo = {}
        wide = poincare(g, members, 2.0, memo)
        assert poincare(g, members, 4.0, memo) == poincare(g, members, 4.0)
        assert poincare(g, members, 4.0, memo) == pytest.approx(wide / 4)
        assert len(memo) == 2

    def test_limit_leaves_in_range_rows_bitwise(self, level4):
        tri, g = level4
        limit = 2.0 * 2.5 * tri.h * (1.0 + 1e-9)
        dense = distances_from(g, np.arange(g.n))
        limited = distances_from(g, np.arange(g.n), limit=limit)
        near = dense <= limit
        assert limited[near].tobytes() == dense[near].tobytes()
        assert np.all(np.isinf(limited[~near]))

    def test_one_eigensolve_per_distinct_pencil(self, level4, monkeypatch):
        tri, g = level4
        r0 = 2.5 * tri.h
        pencils = []
        eigh = graph.la.eigh

        def recording(a, b, **kw):
            pencils.append((a.shape, a.tobytes() + b.tobytes()))
            return eigh(a, b, **kw)

        monkeypatch.setattr(graph.la, "eigh", recording)
        _, multi = dense_geometry_reference(g, r0, None, 0)  # every ball solved
        assert len(pencils) == multi
        distinct = set(pencils)
        pencils.clear()
        geometry_report(g, r0, sample_count=None, seed=0)
        assert len(pencils) == len(distinct) < multi
        assert set(pencils) == distinct

    def test_volume_profile_skips_inf_entries(self):
        # the inf-bearing row shares its block with a longer, all-finite row,
        # so its profile is padded
        rows = np.array([[0.0, 1.0, np.inf, 1.0, 2.0, np.inf, 0.5],
                         [2.5, 0.5, 1.5, 0.0, 1.5, 3.0, 0.5]])
        m = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0])
        finite = np.isfinite(rows[0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            row, breaks, vols = _volume_profiles(*finite_entries(rows), m)
            _, want_breaks, want_vols = _volume_profiles(*finite_entries(rows[:1, finite]),
                                                         m[finite])
        assert row.tolist() == [0] * 4 + [1] * 5
        assert breaks[:4].tolist() == want_breaks.tolist() == [0.0, 0.5, 1.0, 2.0]
        assert vols[:4].tolist() == want_vols.tolist() == [1.0, 8.0, 14.0, 19.0]
        assert breaks[4:].tolist() == [0.0, 0.5, 1.5, 2.5, 3.0]
        assert vols[4:].tolist() == [4.0, 13.0, 21.0, 22.0, 28.0]


class TestBlockEdgeCases:
    """Blocks the whole-block passes must take as they come; each report is
    compared with == against the dense per-row reference."""

    @staticmethod
    def assert_dense(g, r0, sample_count=None, seed=0):
        rep = geometry_report(g, r0, sample_count=sample_count, seed=seed)
        fields, _ = dense_geometry_reference(g, r0, sample_count, seed)
        assert [getattr(rep, key) for key in fields] == list(fields.values())

    def test_every_ball_equals_its_one_row_block(self):
        tri = triangulate(Polygon.unit_square(), 2.0**-3)
        g = from_triangulation(tri)
        block = distances_from(g, np.arange(g.n))
        for r in (0.6 * tri.h, 1.2 * tri.h, 2.5 * tri.h):
            inball = block < r
            want = [poincare(g, np.flatnonzero(row), r) for row in inball]
            assert _poincare_constants(g, *np.nonzero(inball), r, {}).tolist() == want

    def test_all_singleton_balls(self):
        # unit lengths and r0 = 2: every strict ball at r0/4 and r0/2 is {x}
        g = lattice_box(6, 6)
        block = distances_from(g, np.arange(g.n), limit=4.0)
        memo = {}
        for r in (0.5, 1.0):
            assert not _poincare_constants(g, *np.nonzero(block < r), r, memo).any()
        assert memo == {}
        self.assert_dense(g, 2.0)

    def test_rows_of_unequal_finite_counts(self):
        g = lattice_box(7, 7)
        r0 = 2.5
        block = distances_from(g, np.arange(g.n), limit=2.0 * r0 * (1.0 + 1e-9))
        counts = np.isfinite(block).sum(axis=1)
        assert counts.min() < counts.max() < g.n  # corner rows are padded
        self.assert_dense(g, r0)

    def test_balls_cover_the_graph(self):
        # r0 beyond the diameter: every profile ends below r0
        g = lattice_box(3, 3)
        assert distances_from(g, 0).max() < 5.0
        self.assert_dense(g, 5.0)

    def test_partial_last_block(self):
        # 1089 = 17 * 64 + 1 centers: the last block is a lone row
        tri = triangulate(Polygon.unit_square(), 2.0**-5)
        g = from_triangulation(tri)
        assert g.n % graph._CENTER_BLOCK == 1 < g.n
        self.assert_dense(g, 2.5 * tri.h)

    @pytest.mark.parametrize("case", ["level5_all", "box_sampled"])
    def test_report_independent_of_block_size(self, monkeypatch, case):
        if case == "level5_all":
            tri = triangulate(Polygon.unit_square(), 2.0**-5)
            g, r0, sample_count = from_triangulation(tri), 2.5 * tri.h, None
        else:
            g, r0, sample_count = lattice_box(9, 9), 2.5, 30
        reports = []
        for size in (1, 7, 64, 256, g.n + 1):
            monkeypatch.setattr(graph, "_CENTER_BLOCK", size)
            reports.append(geometry_report(g, r0, sample_count=sample_count, seed=5))
        assert all(rep == reports[0] for rep in reports[1:])

    # unit path, r0 = 2: the balls at r0 hold 3 vertices and their closures 5
    @pytest.mark.parametrize("limit", [4, 2])
    def test_dense_limit_refused(self, monkeypatch, limit):
        g = path_graph([1.0] * 8)
        monkeypatch.setattr(graph, "_DENSE_LIMIT", limit)
        with pytest.raises(GraphError, match="too large for dense solve"):
            geometry_report(g, 2.0)
        with pytest.raises(GraphError, match="too large for dense solve"):
            dense_geometry_reference(g, 2.0, None, 0)


class TestRescale:
    def test_alpha_one_identical(self, coarse_square_graph):
        g2 = rescale(coarse_square_graph, 1.0)
        assert np.array_equal(g2.edge_h, coarse_square_graph.edge_h)
        assert np.array_equal(g2.edge_mu, coarse_square_graph.edge_mu)

    def test_gradient_scaling_exact(self, coarse_square_graph):
        from meyers_lab import gradient_length

        g = coarse_square_graph
        rng = np.random.default_rng(5)
        vals = rng.standard_normal(g.n)
        g2 = rescale(g, 2.0)
        grad1 = gradient_length(g, vals)
        grad2 = gradient_length(g2, vals)
        assert np.array_equal(grad2, grad1 / 2.0)

    def test_distance_and_volume_scaling(self, coarse_square_graph):
        g = coarse_square_graph
        g2 = rescale(g, 2.0)
        d1 = distances_from(g, 0)
        d2 = distances_from(g2, 0)
        assert np.array_equal(d2, 2.0 * d1)
        _, v1 = ball(g, 0, 0.7)
        _, v2 = ball(g2, 0, 2 * 0.7)
        assert v2 == pytest.approx(4.0 * v1)

    def test_rejects_nonpositive(self, coarse_square_graph):
        with pytest.raises(GraphError):
            rescale(coarse_square_graph, 0.0)

    @pytest.mark.parametrize("alpha", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, coarse_square_graph, alpha):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(GraphError, match="alpha must be positive and finite"):
                rescale(coarse_square_graph, alpha)

    def test_lattice_bracket_kept(self):
        # m(x) = degree(x) and h_x = 1 on a lattice box; both scale out
        g = lattice_box(8, 8)
        assert g.m_over_hx2_bracket == (2.0, 4.0)
        assert rescale(g, 1.0 / 8).m_over_hx2_bracket == (2.0, 4.0)


def h_star_oracle(g, x, y):
    """min over the two directions of the sup of the lengths of the edges
    with an endpoint in the strict ball B(src, d(x, y))."""
    if x == y:
        return 0.0
    r = distances_from(g, y)[x]

    def directed(src):
        inside = distances_from(g, src) < r
        return g.edge_h[inside[g.edge_u] | inside[g.edge_v]].max()

    return min(directed(x), directed(y))


class TestHStar:
    def test_same_vertex_zero(self, small_path):
        assert h_star(small_path, 2, [2])[0] == 0.0

    def test_uniform_weights(self):
        g = lattice_box(5, 5)
        assert h_star(g, 12, [0])[0] == 1.0
        assert h_star(g, 17, [3])[0] == 1.0

    def test_path_one_five(self):
        g = path_graph([1.0, 5.0])
        assert h_star(g, 1, [0])[0] == 1.0  # min(sup{1}, sup{1, 5})
        assert h_star(g, 0, [1])[0] == 1.0  # symmetric

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 10_000))
    def test_bulk_matches_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        g = random_graph(rng)
        y = int(rng.integers(g.n))
        xs = np.arange(g.n)
        assert np.array_equal(h_star(g, y, xs), [h_star_oracle(g, int(x), y) for x in xs])


class TestLatticeBox:
    def test_shape_and_measures(self):
        g = lattice_box(4, 3)
        assert g.n == 12
        assert g.boundary.size == 0
        corner_deg = g.degree[0]
        assert corner_deg == 2
        assert g.m[0] == 2.0

    def test_window_margin(self):
        g = lattice_box(8, 8)
        w = box_window(g)
        coords = g.coords[w]
        assert coords.min() >= 0.25 * 7 - 1e-9
        assert coords.max() <= 0.75 * 7 + 1e-9


def test_export_text_deterministic(coarse_square_graph):
    t1 = coarse_square_graph.export_text()
    assert t1 == coarse_square_graph.export_text()
    assert t1.startswith("vertex 0 ")
    assert "edge 0 " in t1
