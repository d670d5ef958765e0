"""P1 finite elements: stiffness assembly, loads, solves, reconstruction.

Sign convention: the weak problem is  integral(A grad u . grad v) = -<f, v>
for all piecewise-linear v vanishing on the boundary, so the assembled system
is K u = b with b[x] = -<f, phi_x>, the vector ``load`` returns. The induced
vertex operator satisfies apply_Lh(solve(system, b)) == -f_h(system, b) with
f_h(x) = <f, phi_x> / m(x), m the graph vertex measure of the mesh. Vertex
data are plain arrays with one value per mesh vertex: ``solve``, ``f_h`` and
``apply_Lh`` return them zero on the boundary, and ``reconstruct`` takes one.

Assembly treats K as an operator on the mesh graph: each mesh edge carries
two directional weights, K[lo, hi] and K[hi, lo], summed from the local
matrices of the one or two triangles on it, and each vertex its diagonal,
summed from the local diagonals. One path serves any A, symmetric or not,
and forms no per-triangle triplets.

Quadrature: one-point (barycenter) rule for the coefficient matrix, exact for
per-triangle-constant A; three-point vertex rule for loads; six-point
degree-4 rule for L^p norms and errors of reconstructions, the exact values
taken at ``P1Field.quad_points`` (exact only for even integer p, the small
quadrature error elsewhere is dominated by the effects under study).

Solves use the mesh's red-refinement family (``Triangulation.parent``): a
refined level is solved by conjugate gradients preconditioned with one
multigrid V-cycle down its ancestors, whose operators are the Galerkin
products P^T K P, P the interior block of ``mesh.red_prolongation`` of the
coarser mesh; the coarsest ancestor, and a mesh without a parent, is solved
by sparse direct factorization. Every inner product of the iteration is an
``np.einsum``, summed in an order fixed by its operands, so the iterates and
the stopping step do not depend on the BLAS thread count.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import reference
from .graph import mesh_edges, vertex_measure
from .mesh import Triangulation, locate, red_prolongation
from .spaces import _check_eta, _check_p, _check_residual, _holder_sup


class FemError(ValueError):
    """Assembly or solve failure."""


# six-point Dunavant rule, degree 4, barycentric coordinates and weights
_Q4_A = 0.445948490915965
_Q4_B = 0.091576213509771
_Q4_BARY = np.array(
    [
        [1 - 2 * _Q4_A, _Q4_A, _Q4_A],
        [_Q4_A, 1 - 2 * _Q4_A, _Q4_A],
        [_Q4_A, _Q4_A, 1 - 2 * _Q4_A],
        [1 - 2 * _Q4_B, _Q4_B, _Q4_B],
        [_Q4_B, 1 - 2 * _Q4_B, _Q4_B],
        [_Q4_B, _Q4_B, 1 - 2 * _Q4_B],
    ]
)
_Q4_W = np.array([0.223381589678011] * 3 + [0.109951743655322] * 3)

# the round-off allowance of the coefficient spot check
_VALIDATE_SLACK = 1e-9
# conjugate gradients stop at this relative residual or after _CG_MAXITER
# steps; each V-cycle level smooths with _SMOOTH_SWEEPS damped-Jacobi sweeps
# (weight _JACOBI_OMEGA) before and after its coarse correction
_CG_RTOL = 1e-13
_CG_MAXITER = 100
_SMOOTH_SWEEPS = 2
_JACOBI_OMEGA = 0.8


@dataclass
class CoefficientField:
    """Matrix coefficient x -> A(x), with declared ellipticity and bound."""

    matrix: Callable[[np.ndarray], np.ndarray]  # (k, 2) -> (k, 2, 2)
    ellipticity: float
    bound: float
    kind: str

    def __call__(self, points: np.ndarray) -> np.ndarray:
        return self.matrix(np.atleast_2d(np.asarray(points, dtype=float)))

    def validate(self, a: np.ndarray) -> None:
        """Spot-check A xi . xi >= c |xi|^2 and the entry bound on (k, 2, 2) samples a."""
        xi = np.random.default_rng(0).standard_normal((len(a), 2))
        quad = np.einsum("kij,ki,kj->k", a, xi, xi)
        norms = np.einsum("ki,ki->k", xi, xi)
        if np.any(quad < (self.ellipticity - _VALIDATE_SLACK) * norms):
            raise FemError(f"ellipticity check failed for kind {self.kind!r}")
        if np.any(np.abs(a) > self.bound + _VALIDATE_SLACK):
            raise FemError(f"bound check failed for kind {self.kind!r}")


def constant_field(matrix) -> CoefficientField:
    m = np.asarray(matrix, dtype=float)
    sym = 0.5 * (m + m.T)
    c = float(np.linalg.eigvalsh(sym).min())
    if c <= 0:
        raise FemError("constant matrix is not elliptic")
    return CoefficientField(
        lambda pts, m=m: np.broadcast_to(m, (len(pts), 2, 2)).copy(),
        ellipticity=c, bound=float(np.abs(m).max()), kind="constant",
    )


def identity_field() -> CoefficientField:
    return constant_field(np.eye(2))


def checkerboard_field(a1: float, a2: float) -> CoefficientField:
    """Scalar coefficient jumping between a1 and a2 across the quadrants
    around (1/2, 1/2)."""
    if min(a1, a2) <= 0:
        raise FemError("checkerboard values must be positive")

    def matrix(pts):
        s = (pts[:, 0] - 0.5) * (pts[:, 1] - 0.5) >= 0
        vals = np.where(s, a1, a2)
        return vals[:, None, None] * np.eye(2)

    return CoefficientField(matrix, ellipticity=float(min(a1, a2)),
                            bound=float(max(a1, a2)), kind="checkerboard")


def meyers_field(eps: float) -> CoefficientField:
    """Radial eigenvalue 1, tangential eps^2; uniformly elliptic but with
    unbounded-gradient solutions beyond the critical exponent 2/(1-eps)."""
    if not 0 < eps < 1:
        raise FemError("eps must lie in (0, 1)")
    return CoefficientField(
        lambda pts: reference.radial_tangential_matrix(pts, eps),
        ellipticity=eps * eps, bound=1.0, kind=f"meyers({eps})",
    )


def coefficient_field(spec: str) -> CoefficientField:
    """Field from a config spec: ``checkerboard:a1:a2``, ``meyers:eps``,
    or ``constant[:scale]`` (scale times the identity)."""
    kind, *args = str(spec).split(":")
    try:
        nums = [float(a) for a in args]
    except ValueError:
        raise FemError(f"coefficient {spec!r}: arguments must be numbers") from None
    if not np.all(np.isfinite(nums)):
        raise FemError(f"coefficient {spec!r}: arguments must be finite")
    if kind == "checkerboard" and len(nums) == 2:
        return checkerboard_field(*nums)
    if kind == "meyers" and len(nums) == 1:
        return meyers_field(nums[0])
    if kind == "constant" and len(nums) <= 1:
        return constant_field((nums[0] if nums else 1.0) * np.eye(2))
    raise FemError(f"unknown coefficient {spec!r}")


@dataclass
class MeyersProblem:
    field: CoefficientField
    p_c: float
    f: Callable


def meyers_problem(eps: float) -> MeyersProblem:
    return MeyersProblem(
        field=meyers_field(eps), p_c=2.0 / (1.0 - eps),
        f=lambda pts: reference.singular_load(pts, eps),
    )


class P1System:
    """Assembled stiffness on the zero-boundary space of a triangulation;
    loads are separate vectors (``load``). ``m_interior`` is the vertex
    measure of the mesh graph (``graph.mesh_edges``) on ``interior``."""

    def __init__(self, tri: Triangulation, K: sp.csr_matrix, interior: np.ndarray):
        self.tri = tri
        self.K = K
        self.interior = interior
        u, v, _, mu = mesh_edges(tri)
        self.m_interior = vertex_measure(tri.n_vertices, u, v, mu)[interior]


def assemble(tri: Triangulation, field: CoefficientField) -> P1System:
    """Stiffness K[x][y] = integral(A grad phi_y . grad phi_x), interior rows.

    A is sampled at barycenters (exact for per-triangle-constant A). K is
    built per mesh edge: each row (lo, hi) of ``tri.edge_array`` carries the
    directional weights K[lo, hi] and K[hi, lo], each the sum over the one or
    two triangles on the edge, and the diagonal sums the local diagonals at
    each vertex. The one path serves any A; a nonsymmetric A gives
    K[lo, hi] != K[hi, lo]. Every edge between interior vertices is stored,
    a zero weight included, so K's pattern is the mesh graph's.
    """
    bary = tri.points[tri.triangles].mean(axis=1)
    a_vals = field(bary)
    field.validate(a_vals)
    # local matrices: K_loc[t, i, j] = area_t * (A grad_j) . grad_i. Each
    # temporary is freed once read: that holds the peak near five times K
    agrad = np.einsum("tab,tjb->tja", a_vals, tri.gradients)
    del bary, a_vals
    k_loc = np.einsum("tia,tja->tij", tri.gradients, agrad)
    del agrad
    k_loc *= tri.areas[:, None, None]

    # side k of a triangle joins its vertices k and k + 1 (mod 3); ``up``
    # marks the sides that run from the edge's lo to its hi
    tris, first, second = tri.triangles, [0, 1, 2], [1, 2, 0]
    fwd, bwd = k_loc[:, first, second], k_loc[:, second, first]
    up = tris < np.roll(tris, -1, axis=1)
    sides, n_edges = tri.triangle_edges.ravel(), len(tri.edge_array)
    lohi = np.bincount(sides, np.where(up, fwd, bwd).ravel(), n_edges)
    hilo = np.bincount(sides, np.where(up, bwd, fwd).ravel(), n_edges)
    diag = np.bincount(tris.ravel(), np.einsum("tii->ti", k_loc).ravel(), tri.n_vertices)
    del k_loc, fwd, bwd, up, sides

    interior = tri.interior_vertices()
    m = len(interior)
    index = np.full(tri.n_vertices, -1)
    index[interior] = np.arange(m)
    lo, hi = index[tri.edge_array.T]
    inner = (lo >= 0) & (hi >= 0)
    lo, hi = lo[inner], hi[inner]
    K = sp.csr_matrix((np.concatenate([lohi[inner], hilo[inner], diag[interior]]),
                       (np.concatenate([lo, hi, np.arange(m)]),
                        np.concatenate([hi, lo, np.arange(m)]))), shape=(m, m))
    return P1System(tri, K, interior)


def load(system: P1System, f: Callable) -> np.ndarray:
    """Load vector b[x] = -<f, phi_x> over interior vertices, for a callable
    ``f`` on points; a scalar return is broadcast to every vertex."""
    tri = system.tri
    samples = np.broadcast_to(np.asarray(f(tri.points), dtype=float), (tri.n_vertices,))
    lumped = np.zeros(tri.n_vertices)
    np.add.at(lumped, tri.triangles.ravel(), np.repeat(tri.areas / 3.0, 3))
    return (-samples * lumped)[system.interior]


def f_h(system: P1System, b: np.ndarray) -> np.ndarray:
    """f_h(x) = <f, phi_x> / m(x) from the load vector b, zero on the boundary."""
    vals = np.zeros(system.tri.n_vertices)
    vals[system.interior] = -b / system.m_interior
    return vals


def _hierarchy(system: P1System) -> list[tuple]:
    """(operator, inverse diagonal, prolongation from the next coarser level)
    per level, finest first, down the mesh's parents; the coarsest level,
    the mesh without a parent, carries no prolongation."""
    A, tri, interior = system.K, system.tri, system.interior
    levels = []
    while tri.parent is not None:
        coarse = tri.parent.interior_vertices()
        P = red_prolongation(tri.parent)[interior][:, coarse]
        levels.append((A, 1.0 / A.diagonal(), P))
        A, tri, interior = (P.T @ A @ P).tocsr(), tri.parent, coarse
    return levels + [(A, None, None)]


def _vcycle(levels: list[tuple], r: np.ndarray) -> np.ndarray:
    """One V-cycle for A x = r on levels[0]: damped-Jacobi sweeps around
    the correction from the next level, a direct solve on the last."""
    A, dinv, P = levels[0]
    if P is None:
        return spla.spsolve(A.tocsc(), r)
    x = _JACOBI_OMEGA * dinv * r
    for _ in range(_SMOOTH_SWEEPS - 1):
        x += _JACOBI_OMEGA * dinv * (r - A @ x)
    x += P @ _vcycle(levels[1:], P.T @ (r - A @ x))
    for _ in range(_SMOOTH_SWEEPS):
        x += _JACOBI_OMEGA * dinv * (r - A @ x)
    return x


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.einsum("i,i->", a, b))


def solve(system: P1System, b: np.ndarray) -> np.ndarray:
    """Solve K u = b and return u on every vertex, zero on the boundary.

    A mesh without a parent is solved by sparse direct factorization. A
    refined mesh is solved by conjugate gradients, preconditioned by one
    V-cycle over its red-refinement ancestors, from a zero start until the
    relative residual reaches ``_CG_RTOL`` or ``_CG_MAXITER`` steps. CG
    needs a symmetric K, which a symmetric coefficient (or any constant
    one) gives; a large variable skew part can keep it from converging.
    Either way ``spaces._check_residual`` refuses a residual above 1e-10.
    """
    levels = _hierarchy(system)
    K = system.K
    if len(levels) == 1:  # the coarsest level alone: its direct solve
        u_int = _vcycle(levels, b)
    else:
        u_int, p, rz = np.zeros(len(b)), np.zeros(len(b)), 1.0
        r = np.array(b, dtype=float)
        stop = _CG_RTOL * _CG_RTOL * _dot(r, r)
        for _ in range(_CG_MAXITER):
            if not _dot(r, r) > stop:  # converged, a zero load, or NaN
                break
            z = _vcycle(levels, r)
            rz, rz_old = _dot(r, z), rz
            p = z + (rz / rz_old) * p  # the first step's p is z
            q = K @ p
            alpha = rz / _dot(p, q)
            u_int += alpha * p
            r -= alpha * q
    _check_residual(K, u_int, b, FemError)
    vals = np.zeros(system.tri.n_vertices)
    vals[system.interior] = u_int
    return vals


def apply_Lh(system: P1System, u) -> np.ndarray:
    """Vertex operator x -> (K u)[x] / m(x); solve output maps to -f_h."""
    u = np.asarray(u, dtype=float)
    out = np.zeros(system.tri.n_vertices)
    out[system.interior] = (system.K @ u[system.interior]) / system.m_interior
    return out


class P1Field:
    """Continuous piecewise-linear field with point evaluation and norms."""

    def __init__(self, tri: Triangulation, values):
        self.tri = tri
        self.values = np.asarray(values, dtype=float)
        if self.values.shape != (tri.n_vertices,):
            raise FemError("one value per mesh vertex required")
        self.tri_gradients = np.einsum(
            "ti,tid->td", self.values[tri.triangles], tri.gradients
        )

    # -- evaluation --------------------------------------------------------
    def __call__(self, points) -> np.ndarray:
        t, (l1, l2, l3) = locate(self.tri, points)
        if np.any(t < 0):
            raise FemError("point outside the mesh")
        v = self.values[self.tri.triangles[t]]
        return l1 * v[:, 0] + l2 * v[:, 1] + l3 * v[:, 2]

    # -- norms --------------------------------------------------------------
    def _quad_values(self):
        return np.einsum("qk,tk->tq", _Q4_BARY, self.values[self.tri.triangles])

    def quad_points(self) -> np.ndarray:
        """(k, 2) points, six per triangle in order, where the errors take exact values."""
        return np.einsum("qk,tkd->tqd", _Q4_BARY,
                         self.tri.points[self.tri.triangles]).reshape(-1, 2)

    def _at_quad(self, exact, tail: tuple) -> np.ndarray:
        """Exact values at quad_points(), shape (k,) + tail, per triangle;
        another shape raises FemError."""
        t, q = self.tri.n_triangles, len(_Q4_W)
        if np.shape(exact) != (t * q,) + tail:
            raise FemError(f"exact values must have shape {(t * q,) + tail}")
        return np.reshape(exact, (t, q) + tail)

    def _quad_lp(self, vals, p: float) -> float:
        """L^p norm of nonnegative values at the quadrature points of each
        triangle; p = inf takes their max. ``np.einsum`` sums in an order
        fixed by its operands, so the norm does not depend on the BLAS
        thread count."""
        _check_p(p, FemError)
        if np.isinf(p):
            return float(vals.max())
        per_tri = np.einsum("tq,q->t", vals**p, _Q4_W)
        return float(np.einsum("t,t->", per_tri, self.tri.areas) ** (1.0 / p))

    def lp_norm(self, p: float) -> float:
        if p == np.inf:  # a P1 field takes its max at a vertex
            return float(np.abs(self.values).max())
        return self._quad_lp(np.abs(self._quad_values()), p)

    def grad_lp_norm(self, p: float) -> float:
        """L^p norm of the piecewise-constant gradient, summed as in _quad_lp."""
        _check_p(p, FemError)
        mags = np.hypot(self.tri_gradients[:, 0], self.tri_gradients[:, 1])
        if np.isinf(p):
            return float(mags.max())
        return float(np.einsum("i,i->", self.tri.areas, mags**p) ** (1.0 / p))

    def w1p_norm(self, p: float) -> float:
        return self.lp_norm(p) + self.grad_lp_norm(p)

    def lp_error(self, exact, p: float) -> float:
        """L^p error against the exact values at quad_points()."""
        return self._quad_lp(np.abs(self._quad_values() - self._at_quad(exact, ())), p)

    def grad_lp_error(self, grad_exact, p: float) -> float:
        """L^p error against the exact (k, 2) gradients at quad_points()."""
        diff = self._at_quad(grad_exact, (2,)) - self.tri_gradients[:, None, :]
        return self._quad_lp(np.hypot(diff[..., 0], diff[..., 1]), p)

    def w1p_error(self, exact, grad_exact, p: float) -> float:
        return self.lp_error(exact, p) + self.grad_lp_error(grad_exact, p)

    def holder_seminorm(self, eta: float) -> float:
        """Euclidean Holder seminorm over the vertices; for P1 fields the
        vertex sup stands in for the sup over the domain."""
        return float(holder_seminorms(self.tri, self.values[None], eta)[0])

    def holder_norm(self, eta: float) -> float:
        return float(holder_norms(self.tri, self.values[None], eta)[0])


def holder_seminorms(tri: Triangulation, values, eta: float) -> np.ndarray:
    """Euclidean Holder seminorm over the vertices of ``tri`` of each row of
    ``values`` (one value per vertex), from one pass over the vertex
    distances: each cell's distances and d^eta serve every row, and each
    row's sup is bitwise the one it gets alone. The mesh edges seed the
    pruning bound of ``spaces._holder_sup``."""
    _check_eta(eta, FemError)
    values = np.asarray(values, dtype=float)
    if values.ndim != 2 or values.shape[1] != tri.n_vertices:
        raise FemError("one value per mesh vertex required in each row")
    pts = tri.points
    return _holder_sup(values, eta, lambda rows, cols, limit: np.hypot(
        pts[rows, None, 0] - pts[None, cols, 0], pts[rows, None, 1] - pts[None, cols, 1]),
        pts, mesh_edges(tri)[:3])


def holder_norms(tri: Triangulation, values, eta: float) -> np.ndarray:
    """Sup plus Euclidean Holder seminorm of each row of ``values``, as
    ``holder_seminorms``."""
    seminorms = holder_seminorms(tri, values, eta)  # refuses a wrong shape first
    return np.abs(np.asarray(values, dtype=float)).max(axis=1) + seminorms


def reconstruct(tri: Triangulation, u: np.ndarray) -> P1Field:
    """Piecewise-linear interpolant of vertex values (zero-boundary enforced
    only through the values themselves)."""
    return P1Field(tri, u)
