import csv
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meyers_lab import (Polygon, SpaceError, VertexFunction, WeightedGraph,
                        box_window, df_grad_bracket, differential,
                        distances_from, dual_norm, edge_lp_norm,
                        embedding_report, from_triangulation, gradient_length,
                        holder_norm, holder_seminorm, lattice_box, lp_norm,
                        maximal_function, norm_report, triangulate, w1p_norm)
from meyers_lab.spaces import _HOLDER_BLOCK, _candidate_functions, _holder_sup

from conftest import path_graph, random_graph


def star_graph(k, h=1.0, mu=1.0):
    return WeightedGraph(k + 1, np.zeros(k, dtype=int), np.arange(1, k + 1),
                         np.full(k, h), np.full(k, mu))


class TestDifferential:
    def test_constant_is_zero(self, coarse_square_graph):
        f = VertexFunction(coarse_square_graph, np.full(coarse_square_graph.n, 3.7))
        assert np.all(differential(f).values == 0)

    def test_two_vertex_formula(self):
        g = path_graph([2.0])
        df = differential(VertexFunction(g, np.array([0.0, 6.0])))
        # stored once as 0 -> 1: df(0, 1) = 3, and df(1, 0) = -3 by antisymmetry
        assert (g.edge_u[0], g.edge_v[0]) == (0, 1)
        assert df.values[0] == pytest.approx(3.0)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10_000))
    def test_linearity(self, seed):
        rng = np.random.default_rng(seed)
        g = random_graph(rng)
        f1 = rng.standard_normal(g.n)
        f2 = rng.standard_normal(g.n)
        a, b = rng.standard_normal(2)
        lhs = differential(VertexFunction(g, a * f1 + b * f2)).values
        rhs = (a * differential(VertexFunction(g, f1)).values
               + b * differential(VertexFunction(g, f2)).values)
        assert np.allclose(lhs, rhs, atol=1e-12)


class TestGradient:
    def test_constant_is_zero(self, small_path):
        f = VertexFunction(small_path, np.ones(small_path.n))
        assert np.all(gradient_length(f).values == 0)

    def test_star_indicator(self):
        g = star_graph(3)
        f = VertexFunction(g, np.array([1.0, 0, 0, 0]))
        assert gradient_length(f).values[0] == pytest.approx(math.sqrt(3))

    def test_shift_invariance_and_homogeneity(self):
        rng = np.random.default_rng(0)
        g = random_graph(rng)
        f = rng.standard_normal(g.n)
        g1 = gradient_length(VertexFunction(g, f)).values
        g2 = gradient_length(VertexFunction(g, f + 10.0)).values
        g3 = gradient_length(VertexFunction(g, -2.5 * f)).values
        assert np.allclose(g1, g2, atol=1e-12)
        assert np.allclose(g3, 2.5 * g1, atol=1e-12)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10_000), st.sampled_from([1.0, 2.0, 3.0]))
    def test_df_grad_bracket(self, seed, p):
        rng = np.random.default_rng(seed)
        g = random_graph(rng)
        f = VertexFunction(g, rng.standard_normal(g.n))
        dfn = edge_lp_norm(differential(f), p)
        gn = lp_norm(gradient_length(f), p)
        if gn == 0:
            assert dfn == 0
            return
        K = df_grad_bracket(g, p)
        assert 1.0 / K <= dfn / gn <= K


class TestNorms:
    def test_indicator_lp(self, coarse_square_graph):
        g = coarse_square_graph
        f = np.zeros(g.n)
        f[4] = 1.0
        for p in (1.0, 2.0, 3.5):
            assert lp_norm(VertexFunction(g, f), p) == pytest.approx(g.m[4] ** (1 / p))

    def test_sup_norm(self, small_path):
        f = VertexFunction(small_path, np.array([1.0, -5.0, 2.0, 0.0]))
        assert lp_norm(f, np.inf) == 5.0

    def test_two_vertex_holder(self):
        g = path_graph([1.0])
        f = VertexFunction(g, np.array([1.0, 0.0]))
        assert holder_seminorm(f, 0.5) == pytest.approx(1.0)

    @pytest.mark.parametrize("n_edges", [300, 2000])
    def test_holder_matches_dense_pairs(self, n_edges):
        # one row block (301 vertices) and many (2001), each with a partial
        # last block, must equal the dense all-pairs sup
        rng = np.random.default_rng(n_edges)
        lengths = rng.uniform(0.5, 2.0, n_edges)
        g = path_graph(lengths)
        v = rng.standard_normal(g.n)
        x = np.concatenate([[0.0], np.cumsum(lengths)])
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.abs(v[:, None] - v[None, :]) / np.abs(x[:, None] - x[None, :]) ** 0.3
        dense = ratio[np.isfinite(ratio)].max()
        got = holder_seminorm(VertexFunction(g, v), 0.3)
        assert got == pytest.approx(dense, rel=1e-12)

    @pytest.mark.parametrize("case", ["graph", "window"])
    def test_holder_sup_block_equals_single_rows(self, case):
        # a (k, n) block shares each d^eta among its rows; every row's sup
        # must be the one a call on that row alone gives, bit for bit
        rng = np.random.default_rng(7)
        if case == "graph":
            g = path_graph(rng.uniform(0.5, 2.0, 300))
            values = rng.standard_normal((5, g.n))
            rows_of = lambda rows, cols: distances_from(g, np.arange(g.n)[rows])[:, cols]
        else:
            g = lattice_box(40, 40)
            window = box_window(g)
            dwin = distances_from(g, window)[:, window]
            values = rng.standard_normal((4, len(window))) \
                + 1j * rng.standard_normal((4, len(window)))
            rows_of = lambda rows, cols: dwin[rows, cols]
        assert values.shape[1] % _HOLDER_BLOCK != 0
        block = _holder_sup(values, rows_of, 0.3)
        singles = [_holder_sup(v[None], rows_of, 0.3)[0] for v in values]
        assert block.tobytes() == np.array(singles).tobytes()

    @pytest.mark.parametrize("case", ["window", "euclidean", "mesh"])
    def test_holder_sup_half_pairs_equal_full_square(self, case):
        # each unordered pair is formed once, with the distance row of its
        # first point; on bitwise symmetric distances that is the dense
        # full-square sup bit for bit, and on Dijkstra rows of a mesh, which
        # differ from their transposes at round-off, it agrees to 1e-12
        rng = np.random.default_rng(11)
        if case == "window":
            g = lattice_box(40, 40)
            window = box_window(g)
            dist = distances_from(g, window)[:, window]
            values = rng.standard_normal((4, len(window))) \
                + 1j * rng.standard_normal((4, len(window)))
        elif case == "euclidean":
            pts = rng.uniform(size=(700, 2))
            dist = np.hypot(pts[:, None, 0] - pts[None, :, 0],
                            pts[:, None, 1] - pts[None, :, 1])
            values = rng.standard_normal((3, len(pts)))
        else:
            g = from_triangulation(triangulate(Polygon.unit_square(), 1.0 / 20))
            dist = distances_from(g, np.arange(g.n))
            values = rng.standard_normal((3, g.n))
        assert values.shape[1] > _HOLDER_BLOCK and values.shape[1] % _HOLDER_BLOCK != 0
        d_eta = dist**0.4
        d_eta[d_eta == 0] = np.inf
        full = np.array([(np.abs(v[:, None] - v[None, :]) / d_eta).max() for v in values])
        before = dist.copy()
        half = _holder_sup(values, lambda rows, cols: dist[rows, cols], 0.4)
        assert dist.tobytes() == before.tobytes()  # the caller's matrix is not written
        if case == "mesh":
            assert not np.array_equal(dist, dist.T)
            np.testing.assert_allclose(half, full, rtol=1e-12, atol=0)
        else:
            assert np.array_equal(dist, dist.T)
            assert half.tobytes() == full.tobytes()

    def test_holder_sup_fails_closed_on_nan(self):
        # a NaN value makes its own field's sup NaN; the other fields of the
        # block keep their sups bit for bit
        g = path_graph(np.random.default_rng(3).uniform(0.5, 2.0, 300))
        values = np.random.default_rng(4).standard_normal((3, g.n))
        rows_of = lambda rows, cols: distances_from(g, np.arange(g.n)[rows])[:, cols]
        clean = _holder_sup(values, rows_of, 0.5)
        values[1, 270] = np.nan  # in the second row block
        got = _holder_sup(values, rows_of, 0.5)
        assert np.isnan(got[1])
        assert got[[0, 2]].tobytes() == clean[[0, 2]].tobytes()

    def test_holder_queries_leave_graph_unchanged(self, coarse_square_graph):
        g = coarse_square_graph
        before = dict(vars(g))
        f = VertexFunction(g, np.random.default_rng(4).standard_normal(g.n))
        holder_seminorm(f, 0.5)
        holder_norm(f, 0.5)
        embedding_report(g, 4.0, trials=5)
        assert vars(g).keys() == before.keys()
        assert all(vars(g)[k] is v for k, v in before.items())

    def test_w1p_is_sum(self):
        rng = np.random.default_rng(1)
        g = random_graph(rng)
        f = VertexFunction(g, rng.standard_normal(g.n))
        assert w1p_norm(f, 2.2) == pytest.approx(
            lp_norm(f, 2.2) + lp_norm(gradient_length(f), 2.2))

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10_000), st.sampled_from([1.0, 2.0, 2.2, 4.0]))
    def test_norm_axioms(self, seed, p):
        rng = np.random.default_rng(seed)
        g = random_graph(rng)
        f1 = VertexFunction(g, rng.standard_normal(g.n))
        f2 = VertexFunction(g, rng.standard_normal(g.n))
        both = VertexFunction(g, f1.values + f2.values)
        scaled = VertexFunction(g, -3.0 * f1.values)
        assert w1p_norm(scaled, p) == pytest.approx(3.0 * w1p_norm(f1, p), rel=1e-12)
        assert w1p_norm(both, p) <= w1p_norm(f1, p) + w1p_norm(f2, p) + 1e-12

    def test_norm_report(self, coarse_square_graph):
        g = coarse_square_graph
        rng = np.random.default_rng(2)
        f = VertexFunction(g, rng.standard_normal(g.n))
        rep = norm_report(f, 2.0, 0.5)
        assert rep.w1p == pytest.approx(w1p_norm(f, 2.0))
        assert rep.holder_norm == pytest.approx(holder_norm(f, 0.5))
        assert rep.w1p == pytest.approx(rep.lp + rep.grad_lp)
        row = rep.csv_row("g0")
        assert row.startswith("g0,2.0,0.5,")
        assert len(row.split(",")) == len(rep.csv_header.split(","))
        graph_id = 'mesh "a", level 3'
        cells, = csv.reader([rep.csv_row(graph_id)])
        assert len(cells) == len(rep.csv_header.split(","))
        assert cells[0] == graph_id
        assert cells[1:] == row.split(",")[1:]

    def test_antisymmetric_reads(self, coarse_square_graph):
        g = coarse_square_graph
        rng = np.random.default_rng(3)
        f = rng.standard_normal(g.n)
        df = differential(VertexFunction(g, f))
        # each edge is stored once, oriented u < v
        assert np.all(g.edge_u < g.edge_v)
        for k in range(0, g.n_edges, 3):
            u, v = int(g.edge_u[k]), int(g.edge_v[k])
            assert df.values[k] == (f[v] - f[u]) / g.edge_h[k]


class TestDualNorm:
    def test_zero(self, coarse_square_graph):
        f = VertexFunction(coarse_square_graph, np.zeros(coarse_square_graph.n))
        assert dual_norm(f, 2.0, mode="exact_p2").value == 0.0
        assert dual_norm(f, 2.2, mode="ascent").value == 0.0

    def test_single_interior_vertex_closed_form(self):
        # one interior vertex surrounded by boundary: 1x1 Hilbertian solve
        g = star_graph(3, h=0.5, mu=0.25)
        g2 = WeightedGraph(g.n, g.edge_u, g.edge_v, g.edge_h, g.edge_mu,
                           boundary=[1, 2, 3])
        f = np.zeros(g2.n)
        f[0] = 1.0
        res = dual_norm(VertexFunction(g2, f), 2.0, mode="exact_p2")
        m0 = g2.m[0]
        H = m0 + 2.0 * np.sum(g2.edge_mu / g2.edge_h**2)
        assert res.value == pytest.approx(m0 / math.sqrt(H))
        # equals m(x) |v*(x)| for the H-normalized optimizer
        w = res.optimizer[0]
        v_hat = w / (abs(w) * math.sqrt(H))
        assert res.value == pytest.approx(m0 * abs(v_hat))

    def test_exact_vs_ascent_at_p2(self):
        rng = np.random.default_rng(7)
        g = random_graph(rng, n=8)
        for _ in range(3):
            f = VertexFunction(g, rng.standard_normal(g.n))
            exact = dual_norm(f, 2.0, mode="exact_p2").value
            asc = dual_norm(f, 2.0, mode="ascent")
            # sum norm >= quadratic norm >= sum/sqrt(2): duals within [1/sqrt2, 1]
            assert asc.value <= exact * 1.02
            assert asc.value >= exact / math.sqrt(2) * 0.98

    def test_ascent_monotone_certificate(self, coarse_square_graph):
        g = coarse_square_graph
        rng = np.random.default_rng(9)
        f = VertexFunction(g, rng.standard_normal(g.n))
        res = dual_norm(f, 2.5, mode="ascent")
        # the reported value is the objective of the returned optimizer, a
        # certified lower bound for the dual norm against the conjugate index
        v = res.optimizer
        q = 2.5 / 1.5
        pair = float(np.real(np.sum(f.values * np.conj(v) * g.m)))
        vf = VertexFunction(g, v)
        denom = lp_norm(vf, q) + edge_lp_norm(differential(vf), q)
        assert res.value == pytest.approx(pair / denom, rel=1e-9)

    def test_dual_is_a_norm(self):
        rng = np.random.default_rng(21)
        g = random_graph(rng, n=7)
        f1 = VertexFunction(g, rng.standard_normal(g.n))
        f2 = VertexFunction(g, rng.standard_normal(g.n))
        d1 = dual_norm(f1, 2.0, mode="exact_p2").value
        d2 = dual_norm(f2, 2.0, mode="exact_p2").value
        scaled = dual_norm(VertexFunction(g, -2.5 * f1.values), 2.0,
                           mode="exact_p2").value
        both = dual_norm(VertexFunction(g, f1.values + f2.values), 2.0,
                         mode="exact_p2").value
        assert scaled == pytest.approx(2.5 * d1, rel=1e-10)
        assert both <= d1 + d2 + 1e-10

    def test_duality_pairing_bound(self):
        rng = np.random.default_rng(11)
        g = random_graph(rng, n=7)
        f = VertexFunction(g, rng.standard_normal(g.n))
        dual = dual_norm(f, 2.0, mode="exact_p2").value
        for _ in range(20):
            v = VertexFunction(g, rng.standard_normal(g.n))
            pair = abs(np.sum(f.values * v.values * g.m))
            w = lp_norm(v, 2.0) + edge_lp_norm(differential(v), 2.0)
            assert pair <= dual * w * (1 + 1e-9)

    def test_l2_embedding_stability(self, unit_square):
        # dual-norm control by the L2 norm, h-stable along the family; the
        # estimate is probed with fixed smooth data (the supremum over L2 is
        # approached by low-frequency functions, not by lattice noise)
        from meyers_lab import from_triangulation, refine_red, triangulate

        probes = [lambda p: np.ones(len(p)),
                  lambda p: p[:, 0] + 0.5 * p[:, 1],
                  lambda p: np.sin(np.pi * p[:, 0]) * np.sin(np.pi * p[:, 1])]
        tri = triangulate(unit_square, 2.0**-2)
        consts = []
        for _ in range(3):
            g = from_triangulation(tri)
            ratios = []
            for probe in probes:
                f = VertexFunction(g, probe(tri.points))
                ratios.append(dual_norm(f, 2.2, mode="ascent").value
                              / lp_norm(f, 2.0))
            consts.append(max(ratios))
            tri = refine_red(tri)
        assert max(consts) / min(consts) < 2.0

    @pytest.mark.parametrize("case, p, value, iterations", [
        ("box6", 1.1, 18.69182920280661, 65),
        ("square_real", 1.1, 0.31742968392731447, 5),
        ("square_real", 2.5, 0.2506018285208592, 3),
        ("square_real", 6.0, 0.24662253195717235, 77),
        ("square_complex", 1.1, 0.43113677312411414, 8),
        ("square_complex", 1.2, 0.47654332445706543, 10),
    ])
    def test_ascent_pinned(self, unit_square, case, p, value, iterations):
        # the ascent is deterministic: any change to its steps or its stopping
        # rules moves these values or iteration counts
        from meyers_lab import from_triangulation, triangulate

        if case == "box6":
            g = lattice_box(6, 6)
            vals = np.random.default_rng(0).standard_normal(g.n)
        else:
            g = from_triangulation(triangulate(unit_square, 0.25))
            rng = np.random.default_rng(9 if case == "square_real" else 4)
            vals = rng.standard_normal(g.n)
            if case == "square_complex":
                vals = vals + 1j * rng.standard_normal(g.n)
        res = dual_norm(VertexFunction(g, vals), p, mode="ascent")
        assert (res.value, res.iterations, res.converged) == (value, iterations, True)

    def test_mode_and_range_errors(self, small_path):
        f = VertexFunction(small_path, np.ones(small_path.n))
        with pytest.raises(SpaceError):
            dual_norm(f, 1.0)
        with pytest.raises(SpaceError):
            dual_norm(f, 3.0, mode="exact_p2")
        with pytest.raises(SpaceError):
            dual_norm(f, 2.0, mode="bogus")


class TestMaximalFunction:
    def test_constant(self, coarse_square_graph):
        g = coarse_square_graph
        mf = maximal_function(VertexFunction(g, np.full(g.n, 2.5)))
        assert np.allclose(mf.values, 2.5)

    def test_spike_value_at_peak(self, small_path):
        g = small_path
        f = np.zeros(g.n)
        f[2] = -4.0
        mf = maximal_function(VertexFunction(g, f))
        assert mf.values[2] == pytest.approx(4.0)

    def test_pointwise_domination_and_homogeneity(self):
        rng = np.random.default_rng(13)
        g = random_graph(rng, n=7)
        f = rng.standard_normal(g.n)
        m1 = maximal_function(VertexFunction(g, f)).values
        m2 = maximal_function(VertexFunction(g, -3.0 * f)).values
        assert np.all(m1 >= np.abs(f) - 1e-14)
        assert np.allclose(m2, 3.0 * m1, atol=1e-12)
        assert m1.max() == pytest.approx(np.abs(f).max())

    def test_matches_exhaustive_oracle(self):
        from meyers_lab import lattice_box

        rng = np.random.default_rng(17)
        graphs = [random_graph(rng) for _ in range(5)]
        graphs.append(lattice_box(5, 6))  # 30 vertices
        for g in graphs:
            f = rng.standard_normal(g.n)
            got = maximal_function(VertexFunction(g, f)).values
            d = distances_from(g, np.arange(g.n))
            expect = np.zeros(g.n)
            radii = np.unique(d[np.isfinite(d)]) + 1e-9
            for z in range(g.n):
                for r in radii:
                    members = d[z] < r
                    avg = (np.abs(f[members]) * g.m[members]).sum() / g.m[members].sum()
                    expect[members] = np.maximum(expect[members], avg)
            assert np.allclose(got, expect, atol=1e-12)


class TestEmbeddings:
    def test_sobolev_exponent(self, coarse_square_graph):
        rep = embedding_report(coarse_square_graph, 1.5, trials=5)
        assert rep.p_star == pytest.approx(6.0)
        assert rep.sobolev_ratio_max > 0

    def test_holder_exponent(self, coarse_square_graph):
        rep = embedding_report(coarse_square_graph, 4.0, trials=5)
        assert rep.eta == pytest.approx(0.5)
        assert rep.holder_ratio_max > 0

    def test_holder_ratio_is_max_over_candidates(self, coarse_square_graph):
        g = coarse_square_graph
        rep = embedding_report(g, 4.0, trials=5, seed=2)
        best = 0.0
        for v in _candidate_functions(g, 5, np.random.default_rng(2)):
            f = VertexFunction(g, v)
            if w1p_norm(f, 4.0) > 0:
                best = max(best, holder_norm(f, 0.5) / w1p_norm(f, 4.0))
        assert rep.holder_ratio_max == best

    def test_p_equals_sigma_rejected(self, coarse_square_graph):
        with pytest.raises(SpaceError):
            embedding_report(coarse_square_graph, 2.0)
