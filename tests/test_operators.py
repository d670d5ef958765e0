import cmath
import math

import numpy as np
import pytest
import scipy.sparse as sp

from meyers_lab import (EdgeCoefficients, OperatorError, accretivity_angle,
                        build_operator, contour_nodes, df_grad_bracket,
                        expm_oracle, gradient_length, kernel_bound_check,
                        kernel_column, kernel_holder_fit, lattice_box,
                        perturbed_coefficients, rescale, resolvent_solve,
                        semigroup_apply, uniform_coefficients, VertexFunction)

@pytest.fixture(scope="module")
def box16():
    return lattice_box(16, 16)


@pytest.fixture(scope="module")
def op16(box16):
    return build_operator(box16, uniform_coefficients(box16))


class TestEdgeCoefficients:
    def test_constants(self, box16):
        c = perturbed_coefficients(box16, 0.3)
        assert c.C_inf == pytest.approx(abs(1 + 0.3j))
        assert c.delta_edge == pytest.approx(1.0)
        assert c.delta_exact() >= c.delta_edge - 1e-9

    def test_rejects_nonelliptic(self, box16):
        vals = np.ones(box16.n_edges, dtype=complex)
        vals[0] = -1.5
        with pytest.raises(OperatorError, match="ellipticity refused"):
            EdgeCoefficients(box16, vals)

    def test_delta_exact_on_small_graph(self):
        g = lattice_box(4, 4)
        rng = np.random.default_rng(0)
        vals = 1.0 + 0.4 * rng.uniform(size=g.n_edges)
        c = EdgeCoefficients(g, vals.astype(complex))
        # dense pencil oracle on the complement of constants
        w = g.edge_mu / g.edge_h**2
        def gram(coef):
            m = np.zeros((g.n, g.n))
            for k in range(g.n_edges):
                u, v = g.edge_u[k], g.edge_v[k]
                m[u, u] += coef[k]
                m[v, v] += coef[k]
                m[u, v] -= coef[k]
                m[v, u] -= coef[k]
            return m
        A = gram(np.real(c.c_plus) * w)
        B = gram(2.0 * w)
        import scipy.linalg as la
        q, _ = np.linalg.qr(np.column_stack([np.ones(g.n), np.eye(g.n)[:, :-1]]))
        P = q[:, 1:]
        oracle = la.eigh(P.T @ A @ P, P.T @ B @ P, eigvals_only=True)[0]
        assert c.delta_exact() == pytest.approx(float(oracle), rel=1e-10)
        assert c.delta_exact() >= c.delta_edge - 1e-12


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
            f = VertexFunction(box16, u)
            grad2 = float(box16.m @ gradient_length(f).values ** 2)
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


class TestAccretivity:
    def test_symmetric_real_zero(self, op16):
        est = accretivity_angle(op16, n_probes=100, seed=0)
        assert est.omega_hat <= 1e-12
        assert est.omega_upper == 0.0

    def test_uniform_rotation(self, box16):
        c = EdgeCoefficients(box16, np.full(box16.n_edges, cmath.exp(1j * math.pi / 6)))
        op = build_operator(box16, c)
        est = accretivity_angle(op, n_probes=50, seed=0)
        assert est.omega_hat == pytest.approx(math.pi / 6, abs=1e-12)

    def test_perturbed_in_open_sector(self, box16):
        op = build_operator(box16, perturbed_coefficients(box16, 0.3))
        est = accretivity_angle(op, n_probes=300, seed=0)
        assert 0 < est.omega_hat < math.pi / 2
        assert est.omega_hat <= est.omega_upper + 1e-12
        assert est.omega_hat == pytest.approx(math.atan(0.3), abs=5e-3)
        assert 0.5 * math.pi < est.mu_sector < math.pi - est.omega_hat


class TestResolvent:
    def test_zero_data(self, op16):
        res = resolvent_solve(op16, 1.0, np.zeros(op16.graph.n))
        assert np.all(res.u == 0)

    def test_matches_eigendecomposition(self, box16, op16):
        rng = np.random.default_rng(4)
        f = rng.standard_normal(box16.n)
        got = resolvent_solve(op16, 1.0, f).u
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
            u1 = resolvent_solve(op, lam, f).u
            ga = rescale(box16, math.sqrt(lam))
            opa = build_operator(ga, uniform_coefficients(ga))
            u2 = resolvent_solve(opa, 1.0, f / lam).u
            assert np.abs(u1 - u2).max() <= 1e-13 * np.abs(u1).max()

    def test_nan_data_fails_the_residual_check(self, op16):
        f = np.full(op16.graph.n, np.nan)
        with pytest.raises(OperatorError, match="residual"):
            resolvent_solve(op16, 1.0, f)

    def test_sector_membership_enforced(self, op16):
        mu = 0.75 * math.pi
        f = np.ones(op16.graph.n)
        with pytest.raises(OperatorError, match="outside the sector"):
            resolvent_solve(op16, cmath.rect(1.0, 0.9 * math.pi), f, mu_sector=mu)
        res = resolvent_solve(op16, cmath.rect(1.0, 0.6 * math.pi), f, mu_sector=mu)
        assert res.residual <= 1e-10


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
        for t in (0.1, 1.0, 10.0):
            col = kernel_column(op, t, y)
            assert col.oracle_dev <= 1e-8
            eig = (q @ (np.exp(-t * w) * (q.T @ (root * e)))) / root
            assert np.abs(col.values - eig).max() <= 1e-8

    def test_kernel_measure_symmetry(self, box16):
        op = build_operator(box16, perturbed_coefficients(box16, 0.3))
        x, y = 5 * 16 + 5, 9 * 16 + 8
        cx = kernel_column(op, 1.0, x)
        cy = kernel_column(op, 1.0, y)
        lhs = box16.m[y] * cx.values[y]
        rhs = box16.m[x] * cy.values[x]
        assert abs(lhs - rhs) <= 1e-10

    def test_kernel_mass_conservation(self, op16):
        y = 7 * 16 + 7
        col = kernel_column(op16, 2.0, y)
        assert col.mass == pytest.approx(op16.graph.m[y], abs=1e-9)

    def test_semigroup_property(self, op16):
        y = 6 * 16 + 9
        e = np.zeros(op16.graph.n)
        e[y] = 1.0
        for t, s in ((0.5, 0.5), (1.0, 2.0)):
            one = semigroup_apply(op16, t + s, e)
            two = semigroup_apply(op16, t, semigroup_apply(op16, s, e))
            assert np.abs(one - two).max() <= 1e-8

    def test_oracle_mismatch_raises(self, op16):
        y = 0
        e = np.zeros(op16.graph.n)
        e[y] = 1.0
        with pytest.raises(OperatorError, match="deviates"):
            # a starved contour cannot match the oracle
            semigroup_apply(op16, 1.0, e, check_oracle=True, ray_nodes=4,
                            arc_nodes=4, decades=2.0)

    def test_bad_time_rejected(self, op16):
        with pytest.raises(OperatorError):
            contour_nodes(0.0)


@pytest.fixture(scope="module")
def columns():
    g = lattice_box(20, 20)
    op = build_operator(g, uniform_coefficients(g))
    y = 10 * 20 + 10
    cols = [kernel_column(op, t, y) for t in (0.5, 1.0, 2.0, 4.0)]
    return g, op, cols


class TestKernelBounds:
    def test_h_star_uniform(self, columns):
        _, _, cols = columns
        col = cols[0]
        y_in_window = np.nonzero(col.window == col.y)[0]
        hs = col.h_star.copy()
        if len(y_in_window):
            assert hs[y_in_window[0]] == 0.0
            hs = np.delete(hs, y_in_window[0])
        assert np.all(hs == 1.0)

    def test_regime_b_fit(self, columns):
        _, _, cols = columns
        fit = kernel_bound_check(cols, c_prime=1.0)
        assert fit.beta > 0
        assert fit.pass_rate_b == 1.0
        assert fit.C > 0

    def test_regime_a_fit(self, columns):
        _, _, cols = columns
        fit = kernel_bound_check(cols, c_prime=1.0)
        assert fit.pass_rate_a == 1.0

    def test_diagonal_pairs_set_floor(self, columns):
        _, _, cols = columns
        fit = kernel_bound_check(cols, c_prime=1.0)
        for col in cols:
            if col.y in set(col.window.tolist()):
                assert abs(col.values[col.y]) <= fit.C / col.t + 1e-12

    def test_c_prime_scan(self, columns):
        _, _, cols = columns
        for cp in (0.5, 1.0, 2.0):
            fit = kernel_bound_check(cols, c_prime=cp)
            assert fit.c_prime == cp
            assert fit.pass_rate_b == 1.0

    def test_holder_increment_fit(self, columns):
        _, op, cols = columns
        cpp, eta, rate = kernel_holder_fit(op, cols)
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
