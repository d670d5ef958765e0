import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from meyers_lab import (FemError, apply_Lh, assemble,
                        checkerboard_field, coefficient_field, constant_field,
                        f_h, from_triangulation, identity_field,
                        load, lp_norm, meyers_field, meyers_problem,
                        reconstruct, refine_red, solve, triangulate)
from meyers_lab import reference


def dense_stiffness_oracle(tri, field, n_sub=12):
    """Independent assembly: subdivision quadrature and explicitly solved
    nodal basis coefficients, all-pairs dense accumulation."""
    n = tri.n_vertices
    K = np.zeros((n, n))
    for t, (ia, ib, ic) in enumerate(map(tuple, tri.triangles)):
        corners = tri.points[[ia, ib, ic]]
        # phi_i(x, y) = a + b x + c y with phi_i(corner_j) = delta_ij
        V = np.column_stack([np.ones(3), corners])
        coeffs = np.linalg.solve(V, np.eye(3))  # columns per basis function
        grads = coeffs[1:, :].T  # (3, 2) constant gradients
        # subdivision quadrature over the triangle for the coefficient matrix
        pts = []
        w = []
        for i in range(n_sub):
            for j in range(n_sub - i):
                l1 = (i + 1 / 3) / n_sub
                l2 = (j + 1 / 3) / n_sub
                pts.append(l1 * corners[0] + l2 * corners[1]
                           + (1 - l1 - l2) * corners[2])
                w.append(1.0)
        pts = np.array(pts)
        a_avg = np.tensordot(np.ones(len(pts)) / len(pts), field(pts), axes=1)
        area = float(tri.areas[t])
        for i, gi in enumerate(grads):
            for j, gj in enumerate(grads):
                K[[ia, ib, ic][i], [ia, ib, ic][j]] += area * gi @ (a_avg @ gj)
    return K


class TestAssemble:
    def test_center_diagonal_is_four(self, coarse_square_mesh):
        sys = assemble(coarse_square_mesh, identity_field())
        assert sys.K.shape == (1, 1)
        assert sys.K[0, 0] == pytest.approx(4.0)

    def test_against_dense_oracle(self, coarse_square_mesh):
        tri = refine_red(coarse_square_mesh)
        field = checkerboard_field(1.0, 4.0)
        sys = assemble(tri, field)
        oracle = dense_stiffness_oracle(tri, field)
        interior = tri.interior_vertices()
        assert np.allclose(sys.K.toarray(), oracle[np.ix_(interior, interior)],
                           atol=1e-12)

    def test_linearity_in_coefficient(self, coarse_square_mesh):
        tri = refine_red(coarse_square_mesh)
        k1 = assemble(tri, identity_field()).K.toarray()
        k2 = assemble(tri, constant_field(2.0 * np.eye(2))).K.toarray()
        assert np.allclose(k2, 2.0 * k1, atol=1e-13)

    def test_constant_skew_part_annihilates(self, coarse_square_mesh):
        # the rotated gradient is divergence free, so a constant antisymmetric
        # part contributes nothing against interior basis functions: only the
        # symmetric part of a constant coefficient reaches the stiffness
        tri = refine_red(coarse_square_mesh)
        a = np.array([[1.0, 1.0], [0.0, 1.0]])
        field = constant_field(a)
        assert field.ellipticity == pytest.approx(0.5)
        k_full = assemble(tri, field).K.toarray()
        k_sym = assemble(tri, constant_field(0.5 * (a + a.T))).K.toarray()
        assert np.allclose(k_full, k_sym, atol=1e-13)
        assert np.allclose(k_full, k_full.T, atol=1e-13)

    def test_nonsymmetric_coefficient(self, coarse_square_mesh):
        # a variable antisymmetric part does break the symmetry of K
        from meyers_lab import CoefficientField

        tri = refine_red(coarse_square_mesh)

        def matrix(pts):
            out = np.broadcast_to(np.eye(2), (len(pts), 2, 2)).copy()
            out[:, 0, 1] += pts[:, 0]
            out[:, 1, 0] -= pts[:, 0]
            return out

        field = CoefficientField(matrix, ellipticity=1.0, bound=2.0,
                                 kind="constant")
        sys = assemble(tri, field)
        K = sys.K.toarray()
        assert np.abs(K - K.T).max() > 1e-10
        sym_eigs = np.linalg.eigvalsh(0.5 * (K + K.T))
        assert sym_eigs.min() > 0

    def test_sparsity_matches_adjacency(self, coarse_square_mesh):
        tri = refine_red(refine_red(coarse_square_mesh))
        sys = assemble(tri, identity_field())
        g = from_triangulation(tri)
        index_of = {int(x): i for i, x in enumerate(sys.interior)}
        allowed = {(i, i) for i in range(len(sys.interior))}
        for u, v in zip(g.edge_u, g.edge_v):
            if int(u) in index_of and int(v) in index_of:
                iu, iv = index_of[int(u)], index_of[int(v)]
                allowed.add((iu, iv))
                allowed.add((iv, iu))
        coo = sys.K.tocoo()
        assert {(int(r), int(c)) for r, c in zip(coo.row, coo.col)} <= allowed

    def test_vertex_measure_equals_the_graph_measure(self, unit_square):
        # levels 3-6 of the unit square's red-refinement family
        tri = triangulate(unit_square, 2.0**-3)
        for level in range(3, 7):
            sys = assemble(tri, identity_field())
            assert np.array_equal(sys.interior, tri.interior_vertices())
            want = from_triangulation(tri).m[sys.interior]
            assert sys.m_interior.tobytes() == want.tobytes(), level
            tri = refine_red(tri)

    def test_assembly_builds_no_graph(self, coarse_square_mesh, monkeypatch):
        from meyers_lab import graph

        def refuse(*args, **kwargs):
            raise AssertionError("a WeightedGraph was built")

        monkeypatch.setattr(graph.WeightedGraph, "__init__", refuse)
        sys = assemble(refine_red(coarse_square_mesh), identity_field())
        b = load(sys, lambda pts: np.ones(len(pts)))
        assert np.all(np.isfinite(apply_Lh(sys, solve(sys, b))))


class TestLoad:
    def test_zero(self, coarse_square_mesh):
        sys = assemble(coarse_square_mesh, identity_field())
        b = load(sys, lambda pts: np.zeros(len(pts)))
        assert np.all(b == 0)

    def test_unit_load_lumped_areas(self, coarse_square_mesh):
        tri = refine_red(coarse_square_mesh)
        sys = assemble(tri, identity_field())
        b = load(sys, lambda pts: np.ones(len(pts)))
        for row, x in enumerate(sys.interior):
            touching = tri.areas[(tri.triangles == x).any(axis=1)]
            assert b[row] == pytest.approx(-touching.sum() / 3.0)


# prints a digest of the row reductions on inputs large enough for a
# threaded BLAS to split: 200,000 torsion series points and a mesh of 32,768
# triangles and 16,641 vertices; run in a fresh process because BLAS reads
# its thread count when it loads
_ROW_SUMS = """
import hashlib
import numpy as np
from meyers_lab import (Polygon, from_triangulation, lp_norm, reconstruct,
                        reference, triangulate)
rng = np.random.default_rng(7)
pts = rng.uniform(size=(200_000, 2))
tri = triangulate(Polygon.unit_square(), 2.0**-7)
values = rng.standard_normal(tri.n_vertices)
g = from_triangulation(tri)
field = reconstruct(tri, values)
out = (reference.torsion_value(pts).tobytes() + reference.torsion_gradient(pts).tobytes()
       + np.array([field.w1p_norm(p) for p in (1.5, 2.0, 6.0)]).tobytes()
       + np.array([lp_norm(g, values, p) for p in (1.5, 2.0, 6.0)]).tobytes())
print(hashlib.sha256(out).hexdigest())
"""


class TestTorsionSeries:
    # y values reaching every band of the series split: near y = 0, near
    # y = 1 and interior
    YS = (0.5, 0.07, 0.04, 0.02, 0.01, 0.003, 0.0005,
          0.93, 0.96, 0.98, 0.99, 0.997, 0.9995)
    # (y range, points) for each band, fewest terms first
    BAND_POINTS = ((0.2, 0.8, 129), (0.06, 0.09, 65), (0.03, 0.045, 200),
                   (0.015, 0.024, 64), (0.007, 0.012, 131), (0.0, 0.006, 257))

    def band_points(self):
        rng = np.random.default_rng(12)
        ys = np.concatenate([rng.uniform(lo, hi, k) for lo, hi, k in self.BAND_POINTS])
        return np.column_stack([rng.uniform(size=len(ys)), ys])

    @pytest.mark.parametrize("cells", [1, 1 << 16, 1 << 40])
    def test_chunks_partition_each_band(self, monkeypatch, cells):
        # the chunks hold every point once, in order, and each holds at most
        # ``cells`` points x terms unless one point is more
        y = self.band_points()[:, 1]
        monkeypatch.setattr(reference, "_TORSION_CELLS", cells)
        bands = {}
        for pts, k, _ in reference._torsion_bands(y):
            bands.setdefault(len(k), []).append(pts)
        assert np.array_equal(np.concatenate(sum(bands.values(), [])), np.arange(len(y)))
        assert [sum(map(len, c)) for c in bands.values()] == [n for *_, n in self.BAND_POINTS]
        for terms, chunks in bands.items():
            assert all(len(c) * terms <= max(cells, terms) for c in chunks)

    def test_chunking_leaves_values_bitwise(self, monkeypatch):
        # single points, 7 cells, the default size and whole bands give the
        # same bits: each point's terms are summed in one fixed order
        pts = self.band_points()
        out = set()
        for cells in (1, 7, 1 << 16, 1 << 40):
            monkeypatch.setattr(reference, "_TORSION_CELLS", cells)
            out.add(reference.torsion_value(pts).tobytes()
                    + reference.torsion_gradient(pts).tobytes())
        assert len(out) == 1

    def test_row_sums_independent_of_blas_threads(self):
        # the torsion series and the P1 and graph norms give the same bits
        # at one and at two BLAS threads
        src = str(Path(reference.__file__).resolve().parents[1])
        out = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                       MKL_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
            proc = subprocess.run([sys.executable, "-c", _ROW_SUMS],
                                  env=env, capture_output=True, text=True)
            assert proc.returncode == 0, proc.stderr
            out.append(proc.stdout)
        assert out[0] == out[1]

    def test_gradient_matches_central_differences(self):
        pts = np.array([(x, y) for x in (0.13, 0.5, 0.81) for y in self.YS])
        assert len(list(reference._torsion_bands(pts[:, 1]))) == 6
        grad = reference.torsion_gradient(pts)
        step = 1e-6
        for axis in (0, 1):
            e = np.zeros(2)
            e[axis] = step
            fd = (reference.torsion_value(pts + e)
                  - reference.torsion_value(pts - e)) / (2 * step)
            assert np.abs(fd - grad[:, axis]).max() <= 1e-8

    def test_value_vanishes_on_the_boundary(self):
        t = np.linspace(0.0, 1.0, 41)
        zero, one = np.zeros_like(t), np.ones_like(t)
        sides = [np.column_stack(c) for c in
                 ((t, zero), (t, one), (zero, t), (one, t))]
        assert np.abs(reference.torsion_value(np.concatenate(sides))).max() <= 1e-9


class TestSolve:
    def test_zero_load_zero_solution(self, coarse_square_mesh):
        sys = assemble(coarse_square_mesh, identity_field())
        u = solve(sys, load(sys, lambda pts: np.zeros(len(pts))))
        assert np.all(u == 0)

    def test_torsion_center_value(self, unit_square):
        tri = triangulate(unit_square, 2.0**-5)
        sys = assemble(tri, identity_field())
        b = load(sys, lambda pts: -np.ones(len(pts)))
        u = solve(sys, b)
        center = reconstruct(tri, u)([(0.5, 0.5)])[0]
        assert center == pytest.approx(reference.torsion_center_value(), abs=2e-3)
        u_int = u[sys.interior]
        assert np.linalg.norm(sys.K @ u_int - b) / np.linalg.norm(b) <= 1e-10

    def test_nan_load_fails_the_residual_check(self, coarse_square_mesh):
        sys = assemble(coarse_square_mesh, identity_field())
        b = load(sys, lambda pts: np.full(len(pts), np.nan))
        with pytest.raises(FemError, match="residual"):
            solve(sys, b)

    def test_galerkin_orthogonality(self, coarse_square_mesh):
        tri = refine_red(refine_red(coarse_square_mesh))
        sys = assemble(tri, checkerboard_field(1.0, 4.0))
        b = load(sys, lambda pts: np.ones(len(pts)))
        u = solve(sys, b)
        rng = np.random.default_rng(4)
        u_int = u[sys.interior]
        for _ in range(10):
            v = rng.standard_normal(len(sys.interior))
            # Q_h(u, v) + <f, R_h v> = v' K u - v' b = 0
            resid = v @ (sys.K @ u_int) - v @ b
            assert abs(resid) <= 1e-9 * max(abs(v @ b), 1.0)


class TestApplyLh:
    def test_zero(self, coarse_square_mesh):
        sys = assemble(coarse_square_mesh, identity_field())
        out = apply_Lh(sys, np.zeros(coarse_square_mesh.n_vertices))
        assert np.all(out == 0)

    def test_solved_system_gives_minus_fh(self, coarse_square_mesh):
        tri = refine_red(refine_red(coarse_square_mesh))
        sys = assemble(tri, checkerboard_field(1.0, 4.0))
        b = load(sys, lambda pts: np.ones(len(pts)))
        lhs = apply_Lh(sys, solve(sys, b))
        rhs = -f_h(sys, b)
        assert np.abs(lhs - rhs).max() <= 1e-9 * np.abs(rhs).max()

    def test_indicator_diagonal(self, coarse_square_mesh):
        sys = assemble(coarse_square_mesh, identity_field())
        g = from_triangulation(coarse_square_mesh)
        x = sys.interior[0]
        e = np.zeros(coarse_square_mesh.n_vertices)
        e[x] = 1.0
        out = apply_Lh(sys, e)
        assert out[x] * g.m[x] == pytest.approx(sys.K[0, 0])

    def test_system_left_unchanged(self, coarse_square_mesh):
        sys = assemble(refine_red(coarse_square_mesh), identity_field())
        before = dict(vars(sys))
        b = load(sys, lambda pts: np.ones(len(pts)))
        apply_Lh(sys, solve(sys, b))
        f_h(sys, b)
        assert vars(sys).keys() == before.keys()
        assert all(vars(sys)[k] is v for k, v in before.items())


class TestReconstruct:
    def test_nodal_interpolation(self, coarse_square_mesh):
        rng = np.random.default_rng(8)
        vals = rng.standard_normal(coarse_square_mesh.n_vertices)
        fld = reconstruct(coarse_square_mesh, vals)
        got = fld(coarse_square_mesh.points)
        assert np.allclose(got, vals, atol=1e-12)

    def test_indicator_energy_matches_stiffness(self, coarse_square_mesh):
        sys = assemble(coarse_square_mesh, identity_field())
        x = sys.interior[0]
        e = np.zeros(coarse_square_mesh.n_vertices)
        e[x] = 1.0
        fld = reconstruct(coarse_square_mesh, e)
        assert fld.grad_lp_norm(2.0) ** 2 == pytest.approx(sys.K[0, 0])

    def test_quadrature_exact_for_squares(self, coarse_square_mesh):
        # |x|^2 integrates exactly under the degree-4 rule
        tri = refine_red(coarse_square_mesh)
        fld = reconstruct(tri, tri.points[:, 0])
        assert fld.lp_norm(2.0) == pytest.approx(math.sqrt(1.0 / 3.0))
        assert fld.grad_lp_norm(2.0) == pytest.approx(1.0)

    def test_norm_equivalence_brackets(self, coarse_square_mesh):
        from meyers_lab import gradient_length, holder_norm

        tri4 = refine_red(coarse_square_mesh)
        tri5 = refine_red(tri4)
        rng = np.random.default_rng(12)
        brackets = []
        for tri in (tri4, tri5):
            g = from_triangulation(tri)
            lo = np.full(3, np.inf)
            hi = np.zeros(3)
            for _ in range(20):
                vals = np.zeros(g.n)
                vals[g.interior] = rng.standard_normal(len(g.interior))
                fld = reconstruct(tri, vals)
                r = np.array([
                    lp_norm(g, vals, 2.2) / fld.lp_norm(2.2),
                    lp_norm(g, gradient_length(g, vals), 2.2) / fld.grad_lp_norm(2.2),
                    holder_norm(g, vals, 0.5) / fld.holder_norm(0.5),
                ])
                lo = np.minimum(lo, r)
                hi = np.maximum(hi, r)
            brackets.append((lo, hi))
        (lo4, hi4), (lo5, hi5) = brackets
        assert np.all(lo5 / lo4 < 1.5) and np.all(lo4 / lo5 < 1.5)
        assert np.all(hi5 / hi4 < 1.5) and np.all(hi4 / hi5 < 1.5)

    def test_evaluation_matches_per_point_loop(self, unit_square):
        # reference: the lowest-index triangle whose barycentric coordinates
        # are all >= -1e-12, evaluated one point at a time
        tri = triangulate(unit_square, 2.0**-3)
        rng = np.random.default_rng(21)
        vals = rng.standard_normal(tri.n_vertices)
        pts = np.vstack([tri.points, rng.uniform(0.0, 1.0, (200, 2))])
        corners = tri.points[tri.triangles]
        want = []
        for p in pts:
            for t, (a, b, c) in enumerate(corners):
                d = (b[1] - c[1]) * (a[0] - c[0]) + (c[0] - b[0]) * (a[1] - c[1])
                l1 = ((b[1] - c[1]) * (p[0] - c[0]) + (c[0] - b[0]) * (p[1] - c[1])) / d
                l2 = ((c[1] - a[1]) * (p[0] - c[0]) + (a[0] - c[0]) * (p[1] - c[1])) / d
                l3 = 1.0 - l1 - l2
                if min(l1, l2, l3) >= -1e-12:
                    v = vals[tri.triangles[t]]
                    want.append(l1 * v[0] + l2 * v[1] + l3 * v[2])
                    break
        assert np.array_equal(reconstruct(tri, vals)(pts), np.array(want))

    def test_holder_matches_dense_pairs(self, unit_square):
        tri = triangulate(unit_square, 2.0**-4)  # 289 vertices: two row blocks
        vals = np.random.default_rng(22).standard_normal(tri.n_vertices)
        p = tri.points
        d = np.hypot(p[:, None, 0] - p[None, :, 0], p[:, None, 1] - p[None, :, 1])
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.abs(vals[:, None] - vals[None, :]) / d**0.4
        got = reconstruct(tri, vals).holder_seminorm(0.4)
        assert got == ratio[np.isfinite(ratio)].max()

    @pytest.mark.parametrize("p", [2.2, 3.0, 4.0])
    def test_holder_seminorm_close_to_sampled_pairs(self, coarse_square_mesh, p):
        # the vertex sup stands in for the sup over the domain: pairs of
        # random points in random triangles, evaluated through the field,
        # come within 10 % of it and exceed it by at most 1 %
        tri = refine_red(refine_red(coarse_square_mesh))
        sys = assemble(tri, identity_field())
        fld = reconstruct(tri, solve(sys, load(sys, lambda pts: -np.ones(len(pts)))))
        eta = 1.0 - 2.0 / p
        rng = np.random.default_rng(0)
        t = rng.integers(0, tri.n_triangles, (2, 4000))
        lam = rng.dirichlet(np.ones(3), (2, 4000))
        pts = np.einsum("snk,snkd->snd", lam, tri.points[tri.triangles[t]])
        vals = fld(pts.reshape(-1, 2)).reshape(2, -1)
        sampled = (np.abs(vals[0] - vals[1]) / np.hypot(*(pts[0] - pts[1]).T) ** eta).max()
        semin = fld.holder_seminorm(eta)
        assert 0.9 * semin <= sampled <= 1.01 * semin

    NORMS = {
        "lp_norm": lambda f, p: f.lp_norm(p),
        "grad_lp_norm": lambda f, p: f.grad_lp_norm(p),
        "w1p_norm": lambda f, p: f.w1p_norm(p),
        "lp_error": lambda f, p: f.lp_error(lambda pts: np.zeros(len(pts)), p),
        "grad_lp_error": lambda f, p: f.grad_lp_error(lambda pts: np.zeros((len(pts), 2)), p),
        "w1p_error": lambda f, p: f.w1p_error(lambda pts: np.zeros(len(pts)),
                                              lambda pts: np.zeros((len(pts), 2)), p),
    }

    @pytest.mark.parametrize("p", [0.5, -np.inf, np.nan])
    @pytest.mark.parametrize("norm", list(NORMS))
    def test_norms_refuse_p_below_1_or_nan(self, coarse_square_mesh, norm, p):
        fld = reconstruct(coarse_square_mesh, coarse_square_mesh.points[:, 0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FemError, match="p must be in"):
                self.NORMS[norm](fld, p)

    @pytest.mark.parametrize("norm", list(NORMS))
    def test_norms_take_p_inf(self, coarse_square_mesh, norm):
        # at p = inf the errors against zero read the max over the quadrature
        # points, which lies below the vertex max that lp_norm reads
        tri = coarse_square_mesh
        fld = reconstruct(tri, tri.points[:, 0] * tri.points[:, 1])
        got = self.NORMS[norm](fld, np.inf)
        quad = np.abs(fld._quad_values()).max()
        grad = np.hypot(*fld.tri_gradients.T).max()
        want = {"lp_norm": 1.0, "grad_lp_norm": grad, "w1p_norm": 1.0 + grad,
                "lp_error": quad, "grad_lp_error": grad, "w1p_error": quad + grad}[norm]
        assert got == want
        assert quad < 1.0

    @pytest.mark.parametrize("eta", [0.0, -1.0, 1.5, np.nan])
    def test_holder_refuses_eta_outside_unit_interval(self, coarse_square_mesh, eta):
        fld = reconstruct(coarse_square_mesh, coarse_square_mesh.points[:, 0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for call in (fld.holder_seminorm, fld.holder_norm):
                with pytest.raises(FemError, match="holder exponent"):
                    call(eta)

    def test_point_outside_mesh(self, coarse_square_mesh):
        fld = reconstruct(coarse_square_mesh, np.zeros(9))
        with pytest.raises(FemError):
            fld([(3.0, 3.0)])


class TestCoefficientBuilders:
    def test_dispatch(self):
        assert coefficient_field("constant").kind == "constant"
        assert coefficient_field("constant:2").bound == 2.0
        assert coefficient_field("checkerboard:1:4").kind == "checkerboard"
        assert coefficient_field("meyers:0.5").kind == "meyers(0.5)"
        for bad in ("nope", "checkerboard:1", "meyers:x", "smooth", "smooth:1", "meyers:1.5",
                    "identity:2", "checkerboard:nan:4", "checkerboard:inf:4",
                    "constant:nan"):
            with pytest.raises(FemError):
                coefficient_field(bad)

    def test_meyers_requires_unit_interval(self):
        with pytest.raises(FemError):
            meyers_field(0.0)
        with pytest.raises(FemError):
            meyers_field(1.0)

    def test_meyers_eigenvalues(self):
        field = meyers_field(0.5)
        assert field.ellipticity == pytest.approx(0.25)
        assert field.bound == pytest.approx(1.0)
        pts = np.array([[0.3, 0.1], [-0.5, 0.4]])
        for a in field(pts):
            eig = np.linalg.eigvalsh(0.5 * (a + a.T))
            assert eig.min() == pytest.approx(0.25, abs=1e-12)
            assert eig.max() == pytest.approx(1.0, abs=1e-12)
        at_origin = field(np.zeros((1, 2)))[0]
        assert np.allclose(at_origin, 0.25 * np.eye(2))

    def test_annihilation_oracle_second_order(self):
        # div(A grad u) vanishes where the cutoff is inactive; finite
        # differences of the exact flux shrink at second order
        eps = 0.5
        prob = meyers_problem(eps)

        def fd_divergence(h):
            xs = np.arange(0.06, 0.17, h)  # keep r + h below the cutoff radius 1/4
            pts = np.array([(x, y) for x in xs for y in xs])
            def flux(p):
                a = reference.radial_tangential_matrix(p, eps)
                gr = reference.singular_gradient(p, eps)
                return np.einsum("kij,kj->ki", a, gr)
            ex = np.array([1.0, 0.0])
            ey = np.array([0.0, 1.0])
            div = ((flux(pts + h * ex)[:, 0] - flux(pts - h * ex)[:, 0])
                   + (flux(pts + h * ey)[:, 1] - flux(pts - h * ey)[:, 1])) / (2 * h)
            return np.abs(div).max()

        r1, r2 = fd_divergence(1e-3), fd_divergence(5e-4)
        assert r1 / r2 == pytest.approx(4.0, rel=0.2)

    def test_singular_load_zero_in_core(self):
        prob = meyers_problem(0.5)
        pts = np.array([[0.1, 0.05], [-0.2, 0.1], [0.0, 0.0]])
        assert np.all(prob.f(pts) == 0.0)

    def test_gradient_integrability_threshold(self):
        # integral of r^{(eps-1)p + 1} near zero converges iff p < p_c
        eps, p_c = 0.5, 4.0
        for p, finite in ((3.5, True), (4.5, False)):
            deltas = np.array([1e-2, 1e-4, 1e-6])
            vals = []
            for d in deltas:
                r = np.geomspace(d, 1.0, 4000)
                y = r ** ((eps - 1) * p + 1)
                vals.append(float(np.sum(np.diff(r) * 0.5 * (y[1:] + y[:-1]))))
            growth = vals[-1] / vals[0]
            assert (growth < 1.5) if finite else (growth > 5.0)

    def test_validation_catches_wrong_declaration(self, coarse_square_mesh):
        from meyers_lab import CoefficientField

        bad = CoefficientField(lambda pts: np.broadcast_to(np.eye(2), (len(pts), 2, 2)),
                               ellipticity=5.0, bound=1.0, kind="constant")
        with pytest.raises(FemError, match="ellipticity"):
            assemble(coarse_square_mesh, bad)

