import cmath
import math
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from meyers_lab import operators
from meyers_lab import (EdgeCoefficients, OperatorError, box_window,
                        build_operator, contour_nodes, df_grad_bracket,
                        distances_from, expm_oracle, gradient_length, h_star,
                        kernel_bound_check, kernel_column, kernel_holder_fit,
                        lattice_box, perturbed_coefficients, rescale,
                        resolvent_bound_sweep, resolvent_solve, semigroup_apply,
                        uniform_coefficients)
from meyers_lab.spaces import _HOLDER_BLOCK

@pytest.fixture(scope="module")
def box16():
    return lattice_box(16, 16)


@pytest.fixture(scope="module")
def op16(box16):
    return build_operator(box16, uniform_coefficients(box16))


class TestEdgeCoefficients:
    def test_constants(self, box16):
        c = perturbed_coefficients(box16, 0.3)
        assert c.delta_edge == pytest.approx(1.0)

    def test_rejects_nonelliptic(self, box16):
        vals = np.ones(box16.n_edges, dtype=complex)
        vals[0] = -1.5
        with pytest.raises(OperatorError, match="ellipticity refused"):
            EdgeCoefficients(box16, vals)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(1.0, np.nan),
                                     complex(1.0, np.inf)],
                             ids=["nan", "inf", "imag_nan", "imag_inf"])
    @pytest.mark.parametrize("side", ["forward", "backward"])
    def test_rejects_non_finite(self, box16, side, bad):
        vals = {key: np.ones(box16.n_edges, dtype=complex) for key in ("forward", "backward")}
        vals[side][3] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OperatorError, match="finite"):
                EdgeCoefficients(box16, **vals)


class TestBuildOperator:
    def test_constants_in_kernel(self, op16):
        u = np.full(op16.graph.n, 2.3)
        assert np.abs(op16.apply(u)).max() <= 1e-13

    def test_spike_value(self, box16, op16):
        z = 5 * 16 + 7  # interior vertex
        e = np.zeros(box16.n)
        e[z] = 1.0
        out = op16.apply(e)
        assert out[z] == pytest.approx(2.0 * box16.degree[z] / box16.m[z])

    def test_form_identity(self, box16, op16):
        rng = np.random.default_rng(1)
        for _ in range(5):
            u = rng.standard_normal(box16.n) + 1j * rng.standard_normal(box16.n)
            v = rng.standard_normal(box16.n) + 1j * rng.standard_normal(box16.n)
            du = (u[box16.edge_v] - u[box16.edge_u]) / box16.edge_h
            dv = (v[box16.edge_v] - v[box16.edge_u]) / box16.edge_h
            cp = op16.coefficients.c_plus
            edge_sum = np.sum(cp * du * np.conj(dv) * box16.edge_mu)
            assert op16.form(u, v) == pytest.approx(edge_sum, rel=1e-12)

    def test_elliptic_lower_bound(self, box16, op16):
        rng = np.random.default_rng(2)
        K = df_grad_bracket(box16, 2.0)
        c_cmp = 1.0 / K**2
        delta = op16.coefficients.delta_edge
        for _ in range(100):
            u = rng.standard_normal(box16.n) + 1j * rng.standard_normal(box16.n)
            grad2 = float(box16.m @ gradient_length(box16, u) ** 2)
            assert np.real(op16.form(u, u)) >= delta * c_cmp * grad2 - 1e-9

    def test_real_antisymmetric_part_cancels(self, box16):
        # c_xy = 1 + a s_xy with real antisymmetric s: the ordered-pair sums
        # c_xy + c_yx collapse to 2, leaving the operator untouched
        rng = np.random.default_rng(3)
        s = rng.uniform(-1, 1, box16.n_edges)
        c = EdgeCoefficients(box16, 1.0 + 0.3 * s, 1.0 - 0.3 * s)
        op = build_operator(box16, c)
        base = build_operator(box16, uniform_coefficients(box16))
        assert (op.S - base.S).nnz == 0 or np.abs((op.S - base.S).data).max() == 0


class TestSector:
    @pytest.mark.parametrize("amplitude", [0.0, 0.1, 0.3, 1.0])
    def test_numerical_range_in_sector(self, box16, amplitude):
        # c_xy = c_yx = 1 + i a s with s = +-1: Re <Lu, u> = 2 sum |du|^2 mu
        # and |Im <Lu, u>| <= a Re <Lu, u>, i.e. the angle is at most atan(a)
        op = build_operator(box16, perturbed_coefficients(box16, amplitude))
        rng = np.random.default_rng(8)
        for _ in range(20):
            u = rng.standard_normal(box16.n) + 1j * rng.standard_normal(box16.n)
            du = (u[box16.edge_v] - u[box16.edge_u]) / box16.edge_h
            form = op.form(u, u)
            assert form.real == pytest.approx(2.0 * np.sum(np.abs(du) ** 2 * box16.edge_mu),
                                              rel=1e-12)
            assert abs(form.imag) <= (amplitude + 1e-12) * form.real

    def test_uniform_rotation(self, box16):
        c = EdgeCoefficients(box16, np.full(box16.n_edges, cmath.exp(1j * math.pi / 6)))
        op = build_operator(box16, c)
        rng = np.random.default_rng(9)
        for _ in range(5):
            u = rng.standard_normal(box16.n) + 1j * rng.standard_normal(box16.n)
            assert cmath.phase(op.form(u, u)) == pytest.approx(math.pi / 6, abs=1e-12)

    @pytest.mark.parametrize("theta", [0.0, 0.25, 0.5, 0.6, 0.7])
    def test_resolvent_bound_on_rays(self, box16, theta):
        # the numerical range lies in the sector of angle w = atan(0.3), so
        # |lam| ||u||_m <= ||f||_m / s with s = 1 when arg lam + w <= pi/2
        # and s = sin(pi - arg lam - w) beyond
        op = build_operator(box16, perturbed_coefficients(box16, 0.3))
        omega = math.atan(0.3)
        arg = theta * math.pi
        s = 1.0 if arg + omega <= math.pi / 2 else math.sin(math.pi - arg - omega)
        f = np.random.default_rng(10).standard_normal(box16.n)
        norm_f = math.sqrt(box16.m @ f**2)
        for r in (0.1, 1.0, 10.0, 100.0):
            lam = cmath.rect(r, arg)
            a = op.matrix(lam)
            u, (rel,) = operators._checked_solve(a, operators._resolvent_lu(a), op.m * f)
            assert rel <= 1e-10
            assert np.array_equal(resolvent_solve(op, lam, f), u)
            norm_u = math.sqrt(box16.m @ np.abs(u) ** 2)
            assert r * norm_u <= norm_f / s


class TestShiftedMatrix:
    LAMS = (0.0, 1.0, 2 - 5j, 7 * cmath.exp(0.6j * math.pi))

    @pytest.mark.parametrize("perturbed", [False, True])
    def test_bitwise_equal_to_sparse_sum(self, box16, perturbed):
        c = perturbed_coefficients(box16, 0.3) if perturbed else uniform_coefficients(box16)
        op = build_operator(box16, c)
        assert np.iscomplexobj(op.S.data) == perturbed
        for lam in self.LAMS:
            got = op.matrix(lam)
            ref = (op.S + lam * sp.diags(op.m)).tocsr().tocsc()
            assert got.format == "csc" and got.dtype == ref.dtype
            assert np.array_equal(got.indptr, ref.indptr)
            assert np.array_equal(got.indices, ref.indices)
            assert got.data.tobytes() == ref.data.tobytes()
        assert op.matrix(1.0).dtype == (complex if perturbed else float)

    @pytest.mark.parametrize("lam", [-2.0, -2 + 0j])
    def test_cancelled_diagonal_is_dropped(self, op16, lam):
        # S_ii = 2 m_i on the uniform lattice: lam = -2 cancels every diagonal
        assert np.array_equal(op16.S.diagonal(), 2.0 * op16.m)
        got = op16.matrix(lam)
        ref = (op16.S + lam * sp.diags(op16.m)).tocsr().tocsc()
        assert got.nnz == ref.nnz == op16.S.nnz - op16.graph.n
        assert np.array_equal(got.indptr, ref.indptr)
        assert np.array_equal(got.indices, ref.indices)
        assert got.data.tobytes() == ref.data.tobytes()

    def test_calls_do_not_share_data(self, op16):
        a = op16.matrix(1.0)
        b = op16.matrix(1.0)
        assert not np.shares_memory(a.data, b.data)
        a.data[:] = 0.0
        assert np.array_equal(op16.matrix(1.0).data, b.data)


class TestResolvent:
    def test_zero_data(self, op16):
        u = resolvent_solve(op16, 1.0, np.zeros(op16.graph.n))
        assert np.all(u == 0)

    def test_matches_eigendecomposition(self, box16, op16):
        rng = np.random.default_rng(4)
        f = rng.standard_normal(box16.n)
        got = resolvent_solve(op16, 1.0, f)
        # symmetric oracle through the m-weighted similarity transform
        s = op16.S.toarray().real
        root = np.sqrt(box16.m)
        sym = s / root[:, None] / root[None, :]
        w, q = np.linalg.eigh(sym)
        expect = (q @ ((q.T @ (root * f)) / (w + 1.0))) / root
        assert np.abs(got - expect).max() <= 1e-10

    def test_scaling_identity(self, box16):
        rng = np.random.default_rng(5)
        f = rng.standard_normal(box16.n)
        op = build_operator(box16, uniform_coefficients(box16))
        for lam in (4.0, 25.0, 100.0):
            u1 = resolvent_solve(op, lam, f)
            ga = rescale(box16, math.sqrt(lam))
            opa = build_operator(ga, uniform_coefficients(ga))
            u2 = resolvent_solve(opa, 1.0, f / lam)
            assert np.abs(u1 - u2).max() <= 1e-13 * np.abs(u1).max()

    @pytest.mark.parametrize("perturbed", [False, True])
    def test_residual_arithmetic(self, box16, perturbed):
        c = perturbed_coefficients(box16, 0.3) if perturbed else uniform_coefficients(box16)
        op = build_operator(box16, c)
        f = np.random.default_rng(6).standard_normal(box16.n)
        lam = 2 - 5j
        a = (op.S + lam * sp.diags(op.m)).tocsr()
        rhs = op.m * f
        u = operators._resolvent_lu(a.tocsc()).solve(rhs.astype(complex))
        assert resolvent_solve(op, lam, f).tobytes() == u.tobytes()
        shifted = op.matrix(lam)
        _, (rel,) = operators._checked_solve(shifted, operators._resolvent_lu(shifted), rhs)
        assert rel == np.linalg.norm(a @ u - rhs) / np.linalg.norm(rhs)

    @pytest.mark.parametrize("perturbed", [False, True])
    def test_resolvent_lu_orders_by_minimum_degree(self, box16, perturbed):
        # the resolvent path factorizes in the MMD(A + A^T) column order,
        # which on the lattice keeps less fill than the default COLAMD order
        c = perturbed_coefficients(box16, 0.3) if perturbed else uniform_coefficients(box16)
        a = build_operator(box16, c).matrix(2 - 5j)
        lu = operators._resolvent_lu(a)
        mmd = spla.splu(a, permc_spec="MMD_AT_PLUS_A")
        colamd = spla.splu(a)
        assert np.array_equal(lu.perm_c, mmd.perm_c)
        assert not np.array_equal(lu.perm_c, colamd.perm_c)
        assert lu.L.nnz + lu.U.nnz < colamd.L.nnz + colamd.U.nnz

    def test_nan_data_fails_the_residual_check(self, op16):
        f = np.full(op16.graph.n, np.nan)
        with pytest.raises(OperatorError, match="residual"):
            resolvent_solve(op16, 1.0, f)


class TestResolventSweep:
    LAMS = [1.0, 10.0, 100.0 * cmath.exp(0.6j * math.pi)]

    @pytest.fixture(scope="class")
    def ops(self):
        g = rescale(lattice_box(16, 16), 1.0 / 16)
        return (build_operator(g, uniform_coefficients(g)),
                build_operator(g, perturbed_coefficients(g, 0.3)))

    def test_batched_operators_equal_single_calls(self, ops):
        sup, hol = resolvent_bound_sweep(list(ops), self.LAMS, eta=0.4)
        assert sup.shape == hol.shape == (len(ops), len(self.LAMS))
        for k, op in enumerate(ops):
            sup_k, hol_k = resolvent_bound_sweep([op], self.LAMS, eta=0.4)
            assert sup_k.tobytes() == sup[k:k + 1].tobytes()
            assert hol_k.tobytes() == hol[k:k + 1].tobytes()

    def test_one_lu_per_operator_and_lambda_and_one_window_row_per_source(
            self, ops, monkeypatch):
        lus, rows = [], []
        splu, dist = operators.spla.splu, operators.distances_from
        monkeypatch.setattr(operators.spla, "splu", lambda *a, **k: lus.append(1) or splu(*a, **k))
        monkeypatch.setattr(operators, "distances_from",
                            lambda g, src, **k: rows.append(np.size(src)) or dist(g, src, **k))
        resolvent_bound_sweep(list(ops), self.LAMS)
        assert len(lus) == len(ops) * len(self.LAMS)
        assert sum(rows) == len(box_window(ops[0].graph))

    def test_data_are_the_probe_rows(self, ops, monkeypatch):
        # each (operator, lambda) solves one block: the resolvent rows at the
        # probe vertices and nothing else
        cols = []
        checked = operators._checked_solve
        monkeypatch.setattr(operators, "_checked_solve",
                            lambda a, lu, rhs: cols.append(rhs.shape[1]) or checked(a, lu, rhs))
        resolvent_bound_sweep(list(ops), self.LAMS)
        assert cols == [operators._SWEEP_PROBES] * (len(ops) * len(self.LAMS))

    def test_values_match_a_public_oracle(self, ops):
        # every cell recomputed through public calls: the conjugated,
        # mean-zero resolvent row at each probe is the data, its solution's
        # window sup and brute-force pairwise Holder quotient are divided by
        # the data's L2(m) norm, and the max over probes is the cell
        eta = 0.4
        sup, hol = resolvent_bound_sweep(list(ops), self.LAMS, eta=eta)
        g = ops[0].graph
        window = box_window(g)
        probes = window[np.unique(np.linspace(0, len(window) - 1,
                                              operators._SWEEP_PROBES).astype(int))]
        d = distances_from(g, window)[:, window]
        off = ~np.eye(len(window), dtype=bool)
        for i, op in enumerate(ops):
            for j, lam in enumerate(self.LAMS):
                sups, hols = [], []
                for p in probes:
                    e = np.zeros(g.n)
                    e[p] = 1.0
                    f = np.conj(resolvent_solve(op, lam, e / op.m))
                    f = f - (op.m @ f) / op.m.sum()
                    u = resolvent_solve(op, lam, f)[window]
                    norm = math.sqrt(float(op.m @ np.abs(f) ** 2))
                    quot = np.abs(u[:, None] - u[None, :])[off] / d[off] ** eta
                    sups.append(np.abs(u).max() / norm)
                    hols.append(quot.max() / norm)
                np.testing.assert_allclose(sup[i, j], max(sups), rtol=1e-12, atol=0)
                np.testing.assert_allclose(hol[i, j], max(hols), rtol=1e-12, atol=0)

    def test_minimum_degree_order_agrees_with_colamd(self, ops, monkeypatch):
        # the MMD-ordered LUs move the sweep's ratios at round-off only: both
        # operators agree with a COLAMD-ordered sweep to 1e-10 relative
        got = resolvent_bound_sweep(list(ops), self.LAMS, eta=0.4)
        monkeypatch.setattr(operators, "_resolvent_lu", lambda a: spla.splu(a))
        ref = resolvent_bound_sweep(list(ops), self.LAMS, eta=0.4)
        for g, r in zip(got, ref):
            np.testing.assert_allclose(g, r, rtol=1e-10, atol=0)

    def test_one_shifted_matrix_per_operator_and_lambda(self, ops, monkeypatch):
        builds = []
        matrix = operators.GraphOperator.matrix
        monkeypatch.setattr(operators.GraphOperator, "matrix",
                            lambda op, lam: builds.append(lam) or matrix(op, lam))
        resolvent_bound_sweep(list(ops), self.LAMS)
        assert len(builds) == len(ops) * len(self.LAMS)

    def test_checked_solve_checks_every_column_of_a_block(self, ops):
        a = ops[1].matrix(self.LAMS[2])
        lu = spla.splu(a)
        rhs = np.random.default_rng(3).standard_normal((a.shape[0], 3)).astype(complex)
        u, rel = operators._checked_solve(a, lu, rhs)
        assert len(rel) == 3 and max(rel) <= 1e-10
        assert u.tobytes() == np.column_stack([lu.solve(col) for col in rhs.T]).tobytes()
        rhs[0, 2] = np.nan
        with pytest.raises(OperatorError, match="residual"):
            operators._checked_solve(a, lu, rhs)

    def test_window_rows_fetched_per_holder_block(self, monkeypatch):
        # the Holder sup fetches the window rows one row block at a time:
        # no call asks for more than _HOLDER_BLOCK sources, and every window
        # vertex is a source once
        g = rescale(lattice_box(40, 40), 1.0 / 40)
        window = box_window(g)
        assert len(window) > _HOLDER_BLOCK
        rows = []
        dist = operators.distances_from
        monkeypatch.setattr(operators, "distances_from",
                            lambda g, src, **k: rows.append(np.size(src)) or dist(g, src, **k))
        resolvent_bound_sweep([build_operator(g, uniform_coefficients(g))], self.LAMS)
        assert max(rows) <= _HOLDER_BLOCK
        assert sum(rows) == len(window)

    def test_operators_on_different_graphs_refused(self, ops):
        g = rescale(lattice_box(16, 16), 1.0 / 16)
        other = build_operator(g, uniform_coefficients(g))
        with pytest.raises(OperatorError, match="one graph"):
            resolvent_bound_sweep([ops[0], other], self.LAMS)
        with pytest.raises(OperatorError, match="one graph"):
            resolvent_bound_sweep([], self.LAMS)


class TestContour:
    def test_scalar_quadrature(self):
        # sum of weights over (a + lambda)^{-1} reproduces e^{-t a}
        for t in (0.5, 8.0):
            lams, ws = contour_nodes(t)
            for a in (0.0, 0.7, 4.0):
                got = np.sum(ws / (a + lams))
                assert abs(got - math.exp(-t * a)) <= 1e-10

    def test_kernel_against_oracles(self):
        g = lattice_box(16, 16)
        op = build_operator(g, uniform_coefficients(g))
        y = 8 * 16 + 8
        root = np.sqrt(g.m)
        sym = op.S.toarray().real / root[:, None] / root[None, :]
        w, q = np.linalg.eigh(sym)
        e = np.zeros(g.n)
        e[y] = 1.0
        col = kernel_column(op, (0.1, 1.0, 10.0), y)
        for t, values, dev in zip(col.ts, col.values, col.oracle_dev):
            assert dev <= 1e-8
            eig = (q @ (np.exp(-t * w) * (q.T @ (root * e)))) / root
            assert np.abs(values - eig).max() <= 1e-8

    def test_kernel_measure_symmetry(self, box16):
        op = build_operator(box16, perturbed_coefficients(box16, 0.3))
        x, y = 5 * 16 + 5, 9 * 16 + 8
        cx = kernel_column(op, [1.0], x)
        cy = kernel_column(op, [1.0], y)
        lhs = box16.m[y] * cx.values[0, y]
        rhs = box16.m[x] * cy.values[0, x]
        assert abs(lhs - rhs) <= 1e-10

    def test_kernel_mass_conservation(self, op16):
        y = 7 * 16 + 7
        col = kernel_column(op16, [2.0], y)
        assert col.mass[0] == pytest.approx(op16.graph.m[y], abs=1e-9)

    def test_semigroup_property(self, op16):
        y = 6 * 16 + 9
        e = np.zeros(op16.graph.n)
        e[y] = 1.0
        for t, s in ((0.5, 0.5), (1.0, 2.0)):
            one = semigroup_apply(op16, t + s, e)
            two = semigroup_apply(op16, t, semigroup_apply(op16, s, e))
            assert np.abs(one - two).max() <= 1e-8

    def test_oracle_mismatch_raises(self, op16, monkeypatch):
        # a starved contour, every 40th node, cannot match the oracle
        nodes = operators.contour_nodes
        monkeypatch.setattr(operators, "contour_nodes",
                            lambda t: tuple(a[::40] for a in nodes(t)))
        with pytest.raises(OperatorError, match="deviates"):
            kernel_column(op16, [1.0], 0)

    @staticmethod
    def _per_node_reference(op, t, u0):
        lams, ws = contour_nodes(t)
        acc = np.zeros(op.graph.n, dtype=complex)
        rhs = (op.m * u0).astype(complex)
        for lam, w in zip(lams, ws):
            a = (op.S + lam * sp.diags(op.m)).tocsr().tocsc()
            acc += w * spla.splu(a).solve(rhs)
        return acc

    @pytest.mark.parametrize("perturbed, dtype", [(False, float), (True, float),
                                                  (False, complex)])
    def test_bitwise_equal_to_one_lu_per_node(self, box16, monkeypatch, perturbed, dtype):
        c = perturbed_coefficients(box16, 0.3) if perturbed else uniform_coefficients(box16)
        op = build_operator(box16, c)
        u0 = np.zeros(box16.n, dtype=dtype)
        u0[6 * 16 + 9] = 1.0 if dtype is float else 1.0 + 0.5j
        # conjugate nodes share one LU only for a real operator and real data
        paired = not perturbed and dtype is float
        refs = {t: self._per_node_reference(op, t, u0) for t in (0.5, 8.0)}
        calls = []
        splu = spla.splu
        monkeypatch.setattr(spla, "splu", lambda a: calls.append(a) or splu(a))
        for t, ref in refs.items():
            calls.clear()
            got = semigroup_apply(op, t, u0)
            n_nodes = len(contour_nodes(t)[0])
            assert len(calls) == (n_nodes // 2 if paired else n_nodes)
            assert got.tobytes() == ref.tobytes()

    def test_bad_time_rejected(self, op16):
        with pytest.raises(OperatorError):
            contour_nodes(0.0)


@pytest.fixture(scope="module")
def column():
    g = lattice_box(20, 20)
    op = build_operator(g, uniform_coefficients(g))
    col = kernel_column(op, (0.5, 1.0, 2.0, 4.0), 10 * 20 + 10)
    return g, op, col


class TestKernelBounds:
    def test_bitwise_equal_to_per_time_references(self, column):
        g, op, col = column
        e = np.zeros(g.n)
        e[col.y] = 1.0
        assert col.values.shape == (len(col.ts), g.n)
        for i, t in enumerate(col.ts.tolist()):
            ref = semigroup_apply(op, t, e)
            assert col.values[i].tobytes() == ref.tobytes()
            assert col.oracle_dev[i] == np.abs(ref - expm_oracle(op, t, e)).max()
            assert col.mass[i] == float(np.real(np.sum(ref * g.m)))
        assert col.d.tobytes() == distances_from(g, col.y)[col.window].tobytes()
        assert col.h_star.tobytes() == h_star(g, col.y, col.window).tobytes()

    def test_increments_match_per_time_edge_formula(self, column):
        g, _, col = column
        inw = np.zeros(g.n, dtype=bool)
        inw[col.window] = True
        mask = inw[g.edge_u] & inw[g.edge_v]
        assert np.array_equal(col.edge_h, g.edge_h[mask])
        assert col.increments.shape == (len(col.ts), mask.sum())
        for values, inc in zip(col.values, col.increments):
            want = np.abs(values[g.edge_v[mask]] - values[g.edge_u[mask]])
            assert inc.tobytes() == want.tobytes()
            assert inc.max() == want.max()

    def test_graph_left_unchanged(self):
        # neither the graph nor the operator gains or swaps an attribute
        g = lattice_box(10, 10)
        op = build_operator(g, uniform_coefficients(g))
        before = [(obj, dict(vars(obj))) for obj in (g, op)]
        op.matrix(1.0)
        resolvent_bound_sweep([op], (1.0, 10.0, 100.0))
        kernel_column(op, (0.5, 1.0), 5 * 10 + 5)
        for obj, attrs in before:
            assert vars(obj).keys() == attrs.keys()
            assert all(vars(obj)[k] is v for k, v in attrs.items())

    def test_h_star_uniform(self, column):
        _, _, col = column
        y_in_window = np.nonzero(col.window == col.y)[0]
        hs = col.h_star.copy()
        if len(y_in_window):
            assert hs[y_in_window[0]] == 0.0
            hs = np.delete(hs, y_in_window[0])
        assert np.all(hs == 1.0)

    def test_regime_b_fit(self, column):
        _, _, col = column
        fit = kernel_bound_check(col, c_prime=1.0)
        assert fit.beta > 0
        assert fit.pass_rate_b == 1.0
        assert fit.C > 0

    def test_regime_a_fit(self, column):
        _, _, col = column
        fit = kernel_bound_check(col, c_prime=1.0)
        assert fit.pass_rate_a == 1.0

    def test_diagonal_pairs_set_floor(self, column):
        _, _, col = column
        fit = kernel_bound_check(col, c_prime=1.0)
        assert col.y in set(col.window.tolist())
        for t, values in zip(col.ts, col.values):
            assert abs(values[col.y]) <= fit.C / t + 1e-12

    def test_c_prime_scan(self, column):
        _, _, col = column
        for cp in (0.5, 1.0, 2.0):
            fit = kernel_bound_check(col, c_prime=cp)
            assert fit.c_prime == cp
            assert fit.pass_rate_b == 1.0

    def test_holder_increment_fit(self, column):
        _, _, col = column
        cpp, eta, rate = kernel_holder_fit(col)
        assert eta > 0
        assert rate == 1.0
        assert cpp > 0


def test_expm_oracle_matches_dense():
    g = lattice_box(6, 6)
    op = build_operator(g, perturbed_coefficients(g, 0.2))
    import scipy.linalg as la

    gen = (sp.diags(1.0 / g.m) @ op.S).toarray()
    u0 = np.zeros(g.n)
    u0[14] = 1.0
    dense = la.expm(-1.3 * gen) @ u0
    fast = expm_oracle(op, 1.3, u0)
    assert np.abs(dense - fast).max() <= 1e-10
