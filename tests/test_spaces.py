import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meyers_lab import (Polygon, SpaceError, WeightedGraph, box_window,
                        df_grad_bracket, differential, distances_from,
                        edge_lp_norm, embedding_report, from_triangulation,
                        gradient_length, holder_norm, holder_seminorm,
                        lattice_box, lp_norm, triangulate, w1p_norm)
from meyers_lab import spaces
from meyers_lab.spaces import _HOLDER_BLOCK, _candidate_functions, _holder_sup

from conftest import path_graph, random_graph


def star_graph(k, h=1.0, mu=1.0):
    return WeightedGraph(k + 1, np.zeros(k, dtype=int), np.arange(1, k + 1),
                         np.full(k, h), np.full(k, mu))


class TestDifferential:
    def test_constant_is_zero(self, coarse_square_graph):
        g = coarse_square_graph
        assert np.all(differential(g, np.full(g.n, 3.7)) == 0)

    def test_two_vertex_formula(self):
        g = path_graph([2.0])
        df = differential(g, np.array([0.0, 6.0]))
        # stored once as 0 -> 1: df(0, 1) = 3, and df(1, 0) = -3 by antisymmetry
        assert (g.edge_u[0], g.edge_v[0]) == (0, 1)
        assert df[0] == pytest.approx(3.0)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10_000))
    def test_linearity(self, seed):
        rng = np.random.default_rng(seed)
        g = random_graph(rng)
        f1 = rng.standard_normal(g.n)
        f2 = rng.standard_normal(g.n)
        a, b = rng.standard_normal(2)
        lhs = differential(g, a * f1 + b * f2)
        rhs = a * differential(g, f1) + b * differential(g, f2)
        assert np.allclose(lhs, rhs, atol=1e-12)


class TestGradient:
    def test_constant_is_zero(self, small_path):
        assert np.all(gradient_length(small_path, np.ones(small_path.n)) == 0)

    def test_star_indicator(self):
        g = star_graph(3)
        assert gradient_length(g, np.array([1.0, 0, 0, 0]))[0] == pytest.approx(math.sqrt(3))

    def test_shift_invariance_and_homogeneity(self):
        rng = np.random.default_rng(0)
        g = random_graph(rng)
        f = rng.standard_normal(g.n)
        g1 = gradient_length(g, f)
        g2 = gradient_length(g, f + 10.0)
        g3 = gradient_length(g, -2.5 * f)
        assert np.allclose(g1, g2, atol=1e-12)
        assert np.allclose(g3, 2.5 * g1, atol=1e-12)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10_000), st.sampled_from([1.0, 2.0, 3.0]))
    def test_df_grad_bracket(self, seed, p):
        rng = np.random.default_rng(seed)
        g = random_graph(rng)
        f = rng.standard_normal(g.n)
        dfn = edge_lp_norm(g, differential(g, f), p)
        gn = lp_norm(g, gradient_length(g, f), p)
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
            assert lp_norm(g, f, p) == pytest.approx(g.m[4] ** (1 / p))

    def test_sup_norm(self, small_path):
        assert lp_norm(small_path, np.array([1.0, -5.0, 2.0, 0.0]), np.inf) == 5.0

    def test_two_vertex_holder(self):
        g = path_graph([1.0])
        assert holder_seminorm(g, np.array([1.0, 0.0]), 0.5) == pytest.approx(1.0)

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
        got = holder_seminorm(g, v, 0.3)
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

    @pytest.mark.parametrize("block", [1, 7, 32, 256, "n"])
    @pytest.mark.parametrize("case", ["window", "euclidean", "mesh"])
    def test_holder_sup_half_pairs_equal_full_square(self, case, block, monkeypatch):
        # each unordered pair is formed once, with the distance row of its
        # first point; on bitwise symmetric distances that is the dense
        # full-square sup bit for bit at every block size, and on Dijkstra
        # rows of a mesh, which differ from their transposes at round-off,
        # it agrees to 1e-12
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
        monkeypatch.setattr(spaces, "_HOLDER_BLOCK", values.shape[1] if block == "n" else block)
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
        f = np.random.default_rng(4).standard_normal(g.n)
        holder_seminorm(g, f, 0.5)
        holder_norm(g, f, 0.5)
        embedding_report(g, 1.5, 4.0, trials=5)
        assert vars(g).keys() == before.keys()
        assert all(vars(g)[k] is v for k, v in before.items())

    def test_w1p_is_sum(self):
        rng = np.random.default_rng(1)
        g = random_graph(rng)
        f = rng.standard_normal(g.n)
        assert w1p_norm(g, f, 2.2) == pytest.approx(
            lp_norm(g, f, 2.2) + lp_norm(g, gradient_length(g, f), 2.2))

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10_000), st.sampled_from([1.0, 2.0, 2.2, 4.0]))
    def test_norm_axioms(self, seed, p):
        rng = np.random.default_rng(seed)
        g = random_graph(rng)
        f1 = rng.standard_normal(g.n)
        f2 = rng.standard_normal(g.n)
        assert w1p_norm(g, -3.0 * f1, p) == pytest.approx(3.0 * w1p_norm(g, f1, p), rel=1e-12)
        assert w1p_norm(g, f1 + f2, p) <= w1p_norm(g, f1, p) + w1p_norm(g, f2, p) + 1e-12

    @pytest.mark.parametrize("call", [
        lambda g, f: holder_seminorm(g, f, 0.0),
        lambda g, f: holder_seminorm(g, f, 1.5),
        lambda g, f: holder_seminorm(g, f, np.nan),
        lambda g, f: lp_norm(g, f, 0.5),
        lambda g, f: edge_lp_norm(g, differential(g, f), 0.5),
        lambda g, f: lp_norm(g, f, np.nan),
        lambda g, f: edge_lp_norm(g, differential(g, f), np.nan),
        lambda g, f: lp_norm(g, f, -np.inf),
        lambda g, f: edge_lp_norm(g, differential(g, f), -np.inf),
        lambda g, f: df_grad_bracket(g, np.inf),
        lambda g, f: df_grad_bracket(g, np.nan),
        lambda g, f: df_grad_bracket(g, 0.5),
    ], ids=["holder_eta_0", "holder_eta_1.5", "holder_eta_nan", "lp_below_1",
            "edge_lp_below_1", "lp_nan", "edge_lp_nan", "lp_minus_inf", "edge_lp_minus_inf",
            "bracket_at_inf", "bracket_nan", "bracket_below_1"])
    def test_range_errors(self, small_path, call):
        with pytest.raises(SpaceError):
            call(small_path, np.ones(small_path.n))

    def test_antisymmetric_reads(self, coarse_square_graph):
        g = coarse_square_graph
        rng = np.random.default_rng(3)
        f = rng.standard_normal(g.n)
        df = differential(g, f)
        # each edge is stored once, oriented u < v
        assert np.all(g.edge_u < g.edge_v)
        for k in range(0, g.n_edges, 3):
            u, v = int(g.edge_u[k]), int(g.edge_v[k])
            assert df[k] == (f[v] - f[u]) / g.edge_h[k]


def _bad_data(n, kind):
    v = np.ones(n)
    if kind == "short":
        return v[:-1]
    if kind == "long":
        return np.ones(n + 1)
    if kind == "column":
        return v[:, None]
    bad = {"nan": np.nan, "inf": np.inf, "complex_nan": complex(1.0, np.nan)}[kind]
    v = v.astype(type(bad))
    v[-1] = bad
    return v


BAD_KINDS = ["short", "long", "column", "nan", "inf", "complex_nan"]


class TestRefusals:
    """Each entry point refuses vertex or edge data of the wrong shape or
    with a non-finite value."""

    VERTEX_ENTRIES = {
        "differential": lambda g, v: differential(g, v),
        "gradient_length": lambda g, v: gradient_length(g, v),
        "lp_norm": lambda g, v: lp_norm(g, v, 2.0),
        "lp_norm_inf": lambda g, v: lp_norm(g, v, np.inf),
        "w1p_norm": lambda g, v: w1p_norm(g, v, 2.0),
        "holder_seminorm": lambda g, v: holder_seminorm(g, v, 0.5),
        "holder_norm": lambda g, v: holder_norm(g, v, 0.5),
    }

    @pytest.mark.parametrize("kind", BAD_KINDS)
    @pytest.mark.parametrize("entry", list(VERTEX_ENTRIES))
    def test_bad_vertex_data(self, small_path, entry, kind):
        with pytest.raises(SpaceError):
            self.VERTEX_ENTRIES[entry](small_path, _bad_data(small_path.n, kind))

    @pytest.mark.parametrize("p", [2.0, np.inf])
    @pytest.mark.parametrize("kind", BAD_KINDS)
    def test_bad_edge_data(self, small_path, kind, p):
        with pytest.raises(SpaceError):
            edge_lp_norm(small_path, _bad_data(small_path.n_edges, kind), p)


class TestEmbeddings:
    def test_sobolev_exponent(self, coarse_square_graph):
        rep = embedding_report(coarse_square_graph, 1.5, 4.0, trials=5)
        assert rep.p_star == pytest.approx(6.0)
        assert rep.sobolev_ratio_max > 0

    def test_holder_exponent(self, coarse_square_graph):
        rep = embedding_report(coarse_square_graph, 1.5, 4.0, trials=5)
        assert rep.eta == pytest.approx(0.5)
        assert rep.holder_ratio_max > 0

    def test_holder_ratio_is_max_over_candidates(self, coarse_square_graph):
        g = coarse_square_graph
        rep = embedding_report(g, 1.5, 4.0, trials=5, seed=2)
        best = 0.0
        for v in _candidate_functions(g, 5, np.random.default_rng(2)):
            if w1p_norm(g, v, 4.0) > 0:
                best = max(best, holder_norm(g, v, 0.5) / w1p_norm(g, v, 4.0))
        assert rep.holder_ratio_max == best

    def test_p_equals_sigma_rejected(self, coarse_square_graph):
        with pytest.raises(SpaceError):
            embedding_report(coarse_square_graph, 2.0, 4.0, trials=5)
