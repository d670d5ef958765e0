"""Second-order elliptic operators on weighted graphs.

The operator induced by oriented edge coefficients c_xy acts through the
symmetric per-edge sums c_xy + c_yx, so it is represented by a complex
symmetric matrix S with  <L u, v>_m = v* S u  and  (L u)(z) = (S u)(z) / m(z).
Resolvents are sparse direct solves of S + lambda diag(m), filled into the
sparsity pattern of S, which the operator's constructor builds. The
semigroup is recovered from resolvents along a sectorial contour (two rays at
+-theta and an arc of radius 1/t); kernel columns are cross-checked against a
matrix-exponential oracle. The contour nodes come in conjugate pairs; when the
operator and the data are real, the solve at conj(lambda) is the exact
conjugate of the solve at lambda, so each pair shares one LU factorization.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .graph import WeightedGraph, box_window, distances_from, edge_gram, h_star
from .spaces import _check_residual, _holder_sup, _path_metric

TWO_PI_I = 2j * math.pi
# kernel values at or below this are round-off, left out of the decay fits
_KERNEL_NOISE_FLOOR = 1e-12
# probe vertices of the resolvent sweep, spread over the window
_SWEEP_PROBES = 5
# the failure threshold of a kernel column's deviation from its oracle
_ORACLE_TOL = 1e-6
# contour: ray angle theta, decades of decay at which the rays end, Gauss
# nodes on the arc, Gauss panels per ray and nodes per panel
_THETA = 0.75 * math.pi
_DECADES = 18.0
_ARC_NODES = 64
_RAY_PANELS = 10
_PANEL_NODES = 20


class OperatorError(ValueError):
    """Refused construction or failed solve/quadrature."""


class EdgeCoefficients:
    """Oriented complex coefficients and their ellipticity constant.

    ``delta_edge`` (the minimum of Re(c_xy + c_yx)/2 over edges) must be
    positive; it is a sufficient ellipticity constant.
    """

    def __init__(self, graph: WeightedGraph, forward, backward=None):
        c_f = np.asarray(forward, dtype=complex)
        c_b = c_f.copy() if backward is None else np.asarray(backward, dtype=complex)
        if c_f.shape != (graph.n_edges,) or c_b.shape != (graph.n_edges,):
            raise OperatorError("one coefficient per oriented edge required")
        if not (np.all(np.isfinite(c_f)) and np.all(np.isfinite(c_b))):
            raise OperatorError("coefficients must be finite")
        self.graph = graph
        self.c_plus = c_f + c_b
        self.delta_edge = float(np.real(self.c_plus).min() / 2.0)
        if not self.delta_edge > 0:
            raise OperatorError(
                f"ellipticity refused: min Re(c_xy + c_yx)/2 = {self.delta_edge}"
            )


def uniform_coefficients(g: WeightedGraph) -> EdgeCoefficients:
    return EdgeCoefficients(g, np.ones(g.n_edges, dtype=complex))


def perturbed_coefficients(g: WeightedGraph, amplitude: float = 0.3) -> EdgeCoefficients:
    """Non-self-adjoint but accretive: c_xy = c_yx = 1 + i a s_e with a
    deterministic +-1 edge pattern. Real antisymmetric perturbations would
    cancel in c_xy + c_yx and leave the operator untouched."""
    s = np.where((g.edge_u + g.edge_v) % 2 == 0, 1.0, -1.0)
    c = 1.0 + 1j * amplitude * s
    return EdgeCoefficients(g, c)


class GraphOperator:
    """Matrix form of the graph operator defined by edge coefficients."""

    def __init__(self, graph: WeightedGraph, coefficients: EdgeCoefficients):
        if coefficients.graph is not graph:
            raise OperatorError("coefficients built on a different graph")
        self.graph = graph
        self.coefficients = coefficients
        w = coefficients.c_plus * graph.edge_mu / graph.edge_h**2
        rows, cols, data = edge_gram(graph.edge_u, graph.edge_v, w)
        self.S = sp.coo_matrix((data, (rows, cols)), shape=(graph.n, graph.n)).tocsr()
        if np.all(np.abs(self.S.data.imag) == 0):
            self.S = sp.csr_matrix((self.S.data.real, self.S.indices, self.S.indptr),
                                   shape=self.S.shape)
        self.m = graph.m
        # every vertex has an edge, so S stores its whole diagonal and
        # S + lam diag(m) has exactly S's pattern; S is symmetric, so its CSR
        # arrays are bitwise those of its CSC form
        cols = np.repeat(np.arange(graph.n), np.diff(self.S.indptr))
        self._diag = np.flatnonzero(self.S.indices == cols)

    def apply(self, u) -> np.ndarray:
        return (self.S @ np.asarray(u)) / self.m

    def form(self, u, v) -> complex:
        """<L u, v>_m = sum over ordered pairs of c du conj(dv) mu."""
        return complex(np.conj(np.asarray(v)) @ (self.S @ np.asarray(u)))

    def matrix(self, lam: complex) -> sp.csc_matrix:
        """S + lam diag(m) in CSC form, bitwise equal to
        ``(S + lam * sp.diags(m)).tocsr().tocsc()``; each call fills a fresh
        copy of S's CSC data. Real S and real lam give a real matrix.
        """
        S = self.S
        shift = self.m * lam  # the product lam * sp.diags(m) stores
        data = S.data.astype(np.result_type(S.data, shift))
        data[self._diag] += shift
        out = sp.csc_matrix((data, S.indices.copy(), S.indptr.copy()), shape=S.shape)
        if not data[self._diag].all():
            out.eliminate_zeros()  # a sparse sum drops entries that cancel
        return out


def build_operator(g: WeightedGraph, c: EdgeCoefficients) -> GraphOperator:
    return GraphOperator(g, c)


def resolvent_solve(op: GraphOperator, lam, f) -> np.ndarray:
    """Solve L u + lambda u = f, i.e. (S + lambda diag(m)) u = m f; u is
    real when its imaginary part is exactly 0."""
    a = op.matrix(complex(lam))
    u, _ = _checked_solve(a, _resolvent_lu(a), op.m * np.asarray(f))
    return u.real if np.all(np.abs(u.imag) == 0) else u


def _resolvent_lu(a):
    """The LU of a shifted matrix for the resolvent path, its columns in the
    minimum-degree order of A + A^T. On a lattice box that order keeps about
    half the fill of the default COLAMD order (nnz(L + U) 126,532 against
    220,624 at box 64), so the factors are smaller and the solves cheaper;
    the solutions move at round-off only."""
    return spla.splu(a, permc_spec="MMD_AT_PLUS_A")


def _checked_solve(a, lu, rhs) -> tuple[np.ndarray, list[float]]:
    """``lu.solve`` of one right-hand side or a block of columns, and each
    column's relative residual in ``a`` (``spaces._check_residual``)."""
    u = lu.solve(np.asarray(rhs, dtype=complex))
    return u, _check_residual(a, u, rhs, OperatorError)


def resolvent_bound_sweep(ops, lams, eta: float = 0.5) -> tuple[np.ndarray, np.ndarray]:
    """Resolvent decay probe over a lambda list spanning several decades,
    for operators ``ops`` all on one graph: ``(sup_ratio, holder_ratio)``,
    each of shape (operators, lambdas), with sup_ratio the max over data f
    of ||u||_inf,window / ||f||_2 and holder_ratio that of
    |u|_{C^eta,window} / ||f||_2.

    The data are the resolvent rows at _SWEEP_PROBES probe vertices spread
    over the interior window: at a vertex, the row realizes the L2 -> L^inf
    operator norm (Cauchy-Schwarz in l2(m)), which fixed smooth data cannot.
    Data is projected onto the mean-zero subspace: the constant eigenmode of
    a finite box is a truncation artifact with no counterpart in L2 of the
    unbounded graph being modeled. The mean and ||f||_2 are ``np.einsum``
    sums, whose order does not depend on the BLAS thread count. The data
    depend on the operator alone, so each operator's row equals a call on
    that operator alone. The Holder sups of all operators and lambdas are
    one pass over the window distances, which reads each window row at most
    once, up to the range its formed pairs need.
    """
    if not ops or any(op.graph is not ops[0].graph for op in ops):
        raise OperatorError("the sweep needs operators on one graph")
    g = ops[0].graph
    lams = [complex(lam) for lam in lams]
    window = box_window(g)
    total_m = float(g.m.sum())

    def prep(f):
        return f - np.einsum("i,i->", g.m, f) / total_m

    # probe vertices spread over the window
    take = np.unique(np.linspace(0, len(window) - 1, _SWEEP_PROBES).astype(int))
    probe_vertices = window[take]

    # per (operator, lambda, probe): ||f||_2, and the solution's window
    # restriction as a row of uw. uw is allocated once and each block's
    # temporaries are freed before the next factorization: rows kept between
    # the freed block temporaries raised the peak RSS of a box-64 sweep by
    # about 8 MiB
    units = np.zeros((g.n, len(probe_vertices)), dtype=complex)
    units[probe_vertices, np.arange(len(probe_vertices))] = 1.0
    fl2 = np.empty((len(ops), len(lams), len(probe_vertices)))
    uw = np.empty(fl2.shape + (len(window),), dtype=complex)
    for i, op in enumerate(ops):
        for j, lam in enumerate(lams):
            a = op.matrix(lam)
            lu = _resolvent_lu(a)
            # resolvent rows by symmetry of S, one per probe vertex
            fs = [prep(np.conj(row)) for row in lu.solve(units).T]
            u, _ = _checked_solve(a, lu, np.column_stack([op.m * f for f in fs]))
            fl2[i, j] = [math.sqrt(np.einsum("i,i->", g.m, np.abs(f) ** 2)) for f in fs]
            uw[i, j] = u[window].T
            del a, lu, u, fs

    semi = _holder_sup(uw.reshape(-1, len(window)), eta,
                       *_path_metric(g, window)).reshape(fl2.shape)
    sup_ratio = (np.abs(uw).max(axis=3) / fl2).max(axis=2)
    holder_ratio = (semi / fl2).max(axis=2)
    return sup_ratio, holder_ratio


# ---------------------------------------------------------------------------
# semigroup via contour quadrature

def contour_nodes(t: float):
    """Quadrature nodes lambda_k and weights c_k with
    e^{-tL} = sum_k c_k (L + lambda_k)^{-1}; weights absorb e^{t lambda} and
    the 1/(2 pi i) factor. Rays are truncated where the integrand has decayed
    by _DECADES decades."""
    if not t > 0:
        raise OperatorError("time must be positive")
    r0 = 1.0 / t
    rmax = _DECADES * math.log(10.0) / (t * abs(math.cos(_THETA)))
    lams, weights = [], []

    # arc of radius 1/t, counterclockwise from -theta to theta
    xs, ws = np.polynomial.legendre.leggauss(_ARC_NODES)
    sig = _THETA * xs
    lam = r0 * np.exp(1j * sig)
    dlam = 1j * lam * _THETA
    lams.append(lam)
    weights.append(ws * dlam * np.exp(t * lam) / TWO_PI_I)

    xs, ws = np.polynomial.legendre.leggauss(_PANEL_NODES)
    edges = r0 * (rmax / r0) ** (np.arange(_RAY_PANELS + 1) / _RAY_PANELS)
    for a, b in zip(edges[:-1], edges[1:]):
        r = 0.5 * (b - a) * xs + 0.5 * (a + b)
        jac = 0.5 * (b - a) * ws
        for sign in (+1.0, -1.0):
            phase = cmath.exp(1j * sign * _THETA)
            lam = r * phase
            lams.append(lam)
            weights.append(sign * jac * phase * np.exp(t * lam) / TWO_PI_I)

    return np.concatenate(lams), np.concatenate(weights)


def semigroup_apply(op: GraphOperator, t: float, u0) -> np.ndarray:
    """Apply e^{-tL} to a vector through the resolvent contour formula.

    For real S and real data, the solve at the conjugate of a node is the
    bitwise conjugate of the solve at that node, so the first node of each
    conjugate pair is solved and its partner reuses the conjugated solution;
    the sum runs in node order either way.
    """
    u0 = np.asarray(u0)
    lams, weights = contour_nodes(t)
    acc = np.zeros(op.graph.n, dtype=complex)
    rhs = (op.m * u0).astype(complex)
    paired = np.isrealobj(op.S.data) and np.isrealobj(u0)
    pending = {}  # exact node -> its solution, until the conjugate node comes
    for lam, w in zip(lams, weights):
        u = pending.pop(lam.conjugate(), None)
        if u is not None:
            acc += w * np.conj(u)
            continue
        # the default COLAMD order, not _resolvent_lu's: the benchmark gate
        # pins the contour's round-off (K_im), so this path changes order only
        # once that gate is re-derived (ROADMAP 2A)
        u = spla.splu(op.matrix(lam)).solve(rhs)
        acc += w * u
        if paired:
            pending[lam] = u
    return acc


def expm_oracle(op: GraphOperator, t: float, u0) -> np.ndarray:
    """Matrix-exponential action (scaling-and-squaring family, independent of
    the contour path)."""
    gen = sp.diags(1.0 / op.m) @ op.S
    return spla.expm_multiply(-t * gen.tocsc(), np.asarray(u0, dtype=complex))


@dataclass
class KernelColumn:
    """K_t(., y) for every time of ``ts``, with what depends on y alone: the
    window, d(., y) and h*_{.y} on it, and the edges inside it."""
    ts: np.ndarray
    y: int
    values: np.ndarray          # K_t(., y) over all vertices, one row per time
    window: np.ndarray
    d: np.ndarray               # d(x, y) for x in window
    h_star: np.ndarray          # h*_{xy} for x in window
    edge_h: np.ndarray          # lengths of the edges with both ends in window
    increments: np.ndarray      # |K_t(x, y) - K_t(x', y)| over those edges, per time
    mass: np.ndarray            # sum_x K_t(x, y) m(x) per time; m(y) when L1 = 0
    oracle_dev: np.ndarray      # per time


def kernel_column(op: GraphOperator, ts, y: int) -> KernelColumn:
    """Kernel columns K_t(., y) = (e^{-tL} e_y)(.) for every t in ``ts``, each
    checked against the matrix-exponential oracle. The window, distances, h*
    and window edges are tabulated once, before the contours, so h*'s
    distance rows are freed before the first factorization."""
    g = op.graph
    ts = np.asarray(ts, dtype=float)
    window = box_window(g)
    d = distances_from(g, y)[window]
    hs = h_star(g, y, window)
    inw = np.zeros(g.n, dtype=bool)
    inw[window] = True
    inside = inw[g.edge_u] & inw[g.edge_v]
    e = np.zeros(g.n)
    e[y] = 1.0
    values = np.empty((len(ts), g.n), dtype=complex)
    mass, dev = np.empty(len(ts)), np.empty(len(ts))
    for i, t in enumerate(ts.tolist()):
        values[i] = semigroup_apply(op, t, e)
        dev[i] = np.abs(values[i] - expm_oracle(op, t, e)).max()
        if dev[i] > _ORACLE_TOL:
            raise OperatorError(f"contour quadrature deviates from the matrix "
                                f"exponential by {dev[i]:.2e}")
        mass[i] = np.real(np.sum(values[i] * g.m))
    increments = np.abs(values[:, g.edge_v[inside]] - values[:, g.edge_u[inside]])
    return KernelColumn(ts=ts, y=y, values=values, window=window, d=d, h_star=hs,
                        edge_h=g.edge_h[inside], increments=increments, mass=mass,
                        oracle_dev=dev)


@dataclass
class KernelBoundFit:
    c_prime: float
    C: float
    beta: float
    pass_rate_b: float
    C_a: float | None
    beta_a: float | None
    pass_rate_a: float
    # per tabulated pair, times in order and the window within each
    in_b: np.ndarray            # t >= c_prime * h* * d
    bound: np.ndarray           # the fitted bound tested; NaN without a fit


def kernel_bound_check(col: KernelColumn, c_prime: float = 1.0) -> KernelBoundFit:
    """Fit (C, beta) for the two kernel regimes, then verify the bounds on
    every tabulated pair. The threshold between regimes is t vs
    c_prime * h* * d."""
    t_all = np.repeat(col.ts, len(col.window))
    d_all = np.tile(col.d, len(col.ts))
    hs_all = np.tile(col.h_star, len(col.ts))
    k_all = np.abs(col.values[:, col.window]).ravel()

    in_b = t_all >= c_prime * hs_all * d_all
    in_a = ~in_b
    bound = np.full(len(t_all), np.nan)

    def fit_regime(mask, z, exponent):
        """(C, beta, pass rate) of t K <= C exp(-beta z) over the pairs in
        mask, or None without a positive fitted beta; exponent(beta) is
        beta z on the mask. Fills ``bound`` on the mask."""
        usable = mask & (k_all > _KERNEL_NOISE_FLOOR) & (z > 0)
        if usable.sum() < 3:
            return None
        slope, _ = np.polyfit(z[usable], np.log(t_all[usable] * k_all[usable]), 1)
        beta = -float(slope)
        if beta <= 0:
            return None
        t, k = t_all[mask], k_all[mask]
        C = float(np.max(t * k * np.exp(exponent(beta))))
        bound[mask] = (C / t) * np.exp(exponent(-beta))
        return C, beta, float(np.mean(k <= bound[mask] * (1 + 1e-12)))

    fit_b = fit_regime(in_b, d_all**2 / t_all, lambda b: b * d_all[in_b] ** 2 / t_all[in_b])
    C, beta, rate_b = fit_b or (float("nan"), float("nan"), 0.0)
    if np.any(in_a):
        w = np.where(hs_all > 0, d_all / np.where(hs_all > 0, hs_all, 1.0), 0.0)
        C_a, beta_a, rate_a = fit_regime(in_a, w, lambda b: b * w[in_a]) or (None, None, 0.0)
    else:
        beta_a, C_a, rate_a = None, None, 1.0

    return KernelBoundFit(c_prime=c_prime, C=C, beta=beta, pass_rate_b=rate_b,
                          C_a=C_a, beta_a=beta_a, pass_rate_a=rate_a,
                          in_b=in_b, bound=bound)


def kernel_holder_fit(col: KernelColumn) -> tuple[float, float, float]:
    """(C'', eta, pass_rate) for |K_t(x, y) - K_t(x', y)| over neighbor pairs
    (x, x') inside the window."""
    z = np.log(col.edge_h / np.sqrt(col.ts)[:, None]).ravel()
    y = (col.ts[:, None] * col.increments).ravel()
    good = y > 1e-14
    if good.sum() < 3:
        raise OperatorError("not enough increments for the Holder fit")
    # fit the envelope: increments at one (t, d) share an abscissa and spread
    # over decades with spatial decay, so regress on per-abscissa maxima
    uz = np.unique(z[good])
    env = np.array([y[good][z[good] == v].max() for v in uz])
    if len(uz) < 2:
        raise OperatorError("need at least two increment scales for the Holder fit")
    slope, intercept = np.polyfit(uz, np.log(env), 1)
    eta = float(slope)
    if eta <= 0:
        return float("nan"), eta, 0.0
    cpp = float(np.max(y / np.exp(eta * z)))
    rate = float(np.mean(y <= cpp * np.exp(eta * z) * (1 + 1e-12)))
    return cpp, eta, rate
