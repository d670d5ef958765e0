"""Second-order elliptic operators on weighted graphs.

The operator induced by oriented edge coefficients c_xy acts through the
symmetric per-edge sums c_xy + c_yx, so it is represented by a complex
symmetric matrix S with  <L u, v>_m = v* S u  and  (L u)(z) = (S u)(z) / m(z).
Resolvents are sparse direct solves of S + lambda diag(m); the semigroup is
recovered from resolvents along a sectorial contour (two rays at +-theta and
an arc of radius 1/t), cross-checked against a matrix-exponential oracle.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .graph import WeightedGraph, box_window, distances_from, edge_gram
from .spaces import _holder_sup

TWO_PI_I = 2j * math.pi
# random window-supported data per lambda in the resolvent sweep
_RANDOM_DATA = 3
# kernel values at or below this are round-off, left out of the decay fits
_KERNEL_NOISE_FLOOR = 1e-12


class OperatorError(ValueError):
    """Refused construction or failed solve/quadrature."""


class EdgeCoefficients:
    """Oriented complex coefficients with bounds C_inf and delta.

    ``delta_edge`` (the minimum of Re(c_xy + c_yx)/2 over edges) must be
    positive; it is a sufficient ellipticity constant. ``delta_exact`` is the
    sharp constant, the smallest Rayleigh quotient of the Hermitian part of
    the form against the squared differential, over the range of d.
    """

    def __init__(self, graph: WeightedGraph, forward, backward=None):
        c_f = np.asarray(forward, dtype=complex)
        c_b = c_f.copy() if backward is None else np.asarray(backward, dtype=complex)
        if c_f.shape != (graph.n_edges,) or c_b.shape != (graph.n_edges,):
            raise OperatorError("one coefficient per oriented edge required")
        self.graph = graph
        self.c_plus = c_f + c_b
        self.C_inf = float(max(np.abs(c_f).max(), np.abs(c_b).max()))
        self.delta_edge = float(np.real(self.c_plus).min() / 2.0)
        if not self.delta_edge > 0:
            raise OperatorError(
                f"ellipticity refused: min Re(c_xy + c_yx)/2 = {self.delta_edge}"
            )
        self._delta_exact = None

    def delta_exact(self) -> float:
        if self._delta_exact is None:
            g = self.graph
            w = g.edge_mu / g.edge_h**2
            a = edge_gram(g, np.real(self.c_plus) * w)
            b = edge_gram(g, 2.0 * w)
            if g.n <= 2000:
                import scipy.linalg as la

                q, _ = np.linalg.qr(np.column_stack([np.ones(g.n), np.eye(g.n)[:, :-1]]))
                P = q[:, 1:]
                vals = la.eigh(P.T @ a.toarray() @ P, P.T @ b.toarray() @ P,
                               eigvals_only=True)
                self._delta_exact = float(vals[0])
            else:
                rng = np.random.default_rng(7)
                x0 = rng.standard_normal((g.n, 1))
                vals, _ = spla.lobpcg(a, x0, B=b,
                                      Y=np.ones((g.n, 1)), largest=False,
                                      tol=1e-8, maxiter=400)
                self._delta_exact = float(vals[0])
        return self._delta_exact


def uniform_coefficients(g: WeightedGraph, value=1.0) -> EdgeCoefficients:
    c = np.full(g.n_edges, value, dtype=complex)
    return EdgeCoefficients(g, c)


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
        self.S = edge_gram(graph, w)
        if np.all(np.abs(self.S.data.imag) == 0):
            self.S = sp.csr_matrix((self.S.data.real, self.S.indices, self.S.indptr),
                                   shape=self.S.shape)
        self.m = graph.m

    def apply(self, u) -> np.ndarray:
        return (self.S @ np.asarray(u)) / self.m

    def form(self, u, v) -> complex:
        """<L u, v>_m = sum over ordered pairs of c du conj(dv) mu."""
        return complex(np.conj(np.asarray(v)) @ (self.S @ np.asarray(u)))

    def matrix(self, lam: complex = 0.0) -> sp.csr_matrix:
        out = self.S + lam * sp.diags(self.m)
        return out.tocsr()


def build_operator(g: WeightedGraph, c: EdgeCoefficients) -> GraphOperator:
    return GraphOperator(g, c)


@dataclass
class AccretivityEstimate:
    omega_hat: float      # certified lower bound from probes
    omega_upper: float    # max |arg(c_xy + c_yx)|, a true upper bound
    mu_sector: float      # pi/2 + (pi/2 - omega_hat)/2


def accretivity_angle(op: GraphOperator, n_probes: int = 1000, n_refine: int = 10,
                      refine_steps: int = 120, seed: int = 0) -> AccretivityEstimate:
    """Estimate the numerical-range angle sup |arg <L u, u>_m|.

    Random complex probes, then gradient ascent on |arg| from the worst ones.
    The reported omega_hat is a lower bound attained by explicit probes.
    """
    g = op.graph
    rng = np.random.default_rng(seed)
    cp = op.coefficients.c_plus
    w = g.edge_mu / g.edge_h**2

    def form_val(u):
        du = u[g.edge_v] - u[g.edge_u]
        return np.sum(cp * w * np.abs(du) ** 2)

    def arg_abs(u):
        z = form_val(u)
        return abs(cmath.phase(z)) if z != 0 else None

    probes = rng.standard_normal((n_probes, g.n)) + 1j * rng.standard_normal((n_probes, g.n))
    scored = []
    for u in probes:
        a = arg_abs(u)
        if a is not None:
            scored.append((a, u))
    scored.sort(key=lambda t: -t[0])
    best = scored[0][0] if scored else 0.0

    for a0, u in scored[:n_refine]:
        u = u.copy()
        step = 0.5
        cur = a0
        for _ in range(refine_steps):
            du = u[g.edge_v] - u[g.edge_u]
            z = np.sum(cp * w * np.abs(du) ** 2)
            if z == 0:
                break
            # packed gradients of Re/Im of the form
            contrib = 2.0 * w * du
            def scatter(coef):
                out = np.zeros(g.n, dtype=complex)
                np.add.at(out, g.edge_v, coef * contrib)
                np.add.at(out, g.edge_u, -coef * contrib)
                return out
            g_re = scatter(np.real(cp))
            g_im = scatter(np.imag(cp))
            grad_arg = (z.real * g_im - z.imag * g_re) / abs(z) ** 2
            direction = math.copysign(1.0, cmath.phase(z)) * grad_arg
            norm = np.linalg.norm(direction)
            if norm == 0:
                break
            improved = False
            while step > 1e-12:
                cand = u + (step * np.linalg.norm(u) / norm) * direction
                a = arg_abs(cand)
                if a is not None and a > cur:
                    u, cur = cand, a
                    improved = True
                    step = min(2 * step, 1.0)
                    break
                step *= 0.5
            if not improved:
                break
        best = max(best, cur)

    omega_upper = float(np.abs(np.angle(cp)).max())
    return AccretivityEstimate(
        omega_hat=float(best), omega_upper=omega_upper,
        mu_sector=0.5 * math.pi + 0.5 * (0.5 * math.pi - best),
    )


@dataclass
class ResolventResult:
    u: np.ndarray
    residual: float


def resolvent_solve(op: GraphOperator, lam, f, mu_sector: float | None = None,
                    rtol: float = 1e-10, _factor=None) -> ResolventResult:
    """Solve L u + lambda u = f, i.e. (S + lambda diag(m)) u = m f."""
    lam = complex(lam)
    if mu_sector is not None and lam != 0 and not abs(cmath.phase(lam)) < mu_sector:
        raise OperatorError(f"lambda {lam} outside the sector of half-angle {mu_sector}")
    fv = np.asarray(getattr(f, "values", f))
    rhs = op.m * fv
    lu = _factor if _factor is not None else spla.splu(op.matrix(lam).tocsc())
    u = lu.solve(rhs.astype(complex))
    res = np.linalg.norm(op.matrix(lam) @ u - rhs)
    scale = np.linalg.norm(rhs)
    rel = float(res / scale) if scale > 0 else float(res)
    if not rel <= rtol:
        raise OperatorError(f"resolvent residual {rel:.2e} above {rtol:.0e}")
    if np.all(np.abs(u.imag) == 0):
        u = u.real
    return ResolventResult(u, rel)


@dataclass
class SweepRow:
    lam: complex
    sup_ratio: float      # max_f ||u||_inf,window / ||f||_2
    holder_ratio: float   # max_f |u|_{C^eta,window} / ||f||_2
    R_inf: float
    R_eta: float


@dataclass
class SweepResult:
    eta: float
    rows: list


def resolvent_bound_sweep(op: GraphOperator, lams, eta: float = 0.5,
                          n_probes: int = 5, margin: float = 0.25,
                          seed: int = 0) -> SweepResult:
    """Resolvent decay probe over a lambda list spanning several decades.

    For each lambda the L2 -> L^inf and L2 -> Holder ratios are maximized
    over random data supported in the interior window plus near-optimal data
    built from resolvent rows (the rows themselves realize the L2 -> L^inf
    operator norm at the probed vertices, which fixed smooth data cannot).
    Data is projected onto the mean-zero subspace: the constant eigenmode of
    a finite box is a truncation artifact with no counterpart in L2 of the
    unbounded graph being modeled.
    """
    g = op.graph
    rng = np.random.default_rng(seed)
    window = box_window(g, margin)
    dwin = distances_from(g, window)[:, window]
    total_m = float(g.m.sum())

    def prep(f):
        return f - (g.m @ f) / total_m

    # probe vertices spread over the window
    take = np.unique(np.linspace(0, len(window) - 1, n_probes).astype(int))
    probe_vertices = window[take]

    fs = []
    for _ in range(_RANDOM_DATA):
        f = np.zeros(g.n)
        f[window] = rng.standard_normal(len(window))
        fs.append(prep(f))

    rows = []
    for lam in lams:
        lam = complex(lam)
        lu = spla.splu(op.matrix(lam).tocsc())
        cands = list(fs)
        for x in probe_vertices:
            e = np.zeros(g.n)
            e[x] = 1.0
            row = lu.solve(e.astype(complex))  # resolvent row by symmetry of S
            cands.append(prep(np.conj(row)))
        sup_ratio = 0.0
        hol_ratio = 0.0
        for f in cands:
            res = resolvent_solve(op, lam, f, _factor=lu)
            fl2 = math.sqrt(float(g.m @ np.abs(f) ** 2))
            if fl2 == 0:
                continue
            uw = res.u[window]
            sup_ratio = max(sup_ratio, float(np.abs(uw).max()) / fl2)
            hol_ratio = max(hol_ratio, _holder_sup(uw, lambda rows: dwin[rows], eta) / fl2)
        al = abs(lam)
        rows.append(SweepRow(lam, sup_ratio, hol_ratio,
                             R_inf=sup_ratio * al**0.5,
                             R_eta=hol_ratio * al ** ((1.0 - eta) / 2.0)))

    return SweepResult(eta, rows)


# ---------------------------------------------------------------------------
# semigroup via contour quadrature

def contour_nodes(t: float, theta: float = 0.75 * math.pi, ray_nodes: int = 200,
                  arc_nodes: int = 64, decades: float = 18.0, panels: int = 10):
    """Quadrature nodes lambda_k and weights c_k with
    e^{-tL} = sum_k c_k (L + lambda_k)^{-1}; weights absorb e^{t lambda} and
    the 1/(2 pi i) factor. Rays are truncated where the integrand has decayed
    by the requested number of decades."""
    if not t > 0:
        raise OperatorError("time must be positive")
    if not 0.5 * math.pi < theta < math.pi:
        raise OperatorError("contour angle must lie in (pi/2, pi)")
    r0 = 1.0 / t
    rmax = decades * math.log(10.0) / (t * abs(math.cos(theta)))
    lams = []
    weights = []

    # arc of radius 1/t, counterclockwise from -theta to theta
    xs, ws = np.polynomial.legendre.leggauss(arc_nodes)
    sig = theta * xs
    lam = r0 * np.exp(1j * sig)
    dlam = 1j * lam * theta
    lams.append(lam)
    weights.append(ws * dlam * np.exp(t * lam) / TWO_PI_I)

    xs, ws = np.polynomial.legendre.leggauss(max(2, ray_nodes // panels))
    edges = r0 * (rmax / r0) ** (np.arange(panels + 1) / panels)
    for a, b in zip(edges[:-1], edges[1:]):
        r = 0.5 * (b - a) * xs + 0.5 * (a + b)
        jac = 0.5 * (b - a) * ws
        for sign in (+1.0, -1.0):
            phase = cmath.exp(1j * sign * theta)
            lam = r * phase
            lams.append(lam)
            weights.append(sign * jac * phase * np.exp(t * lam) / TWO_PI_I)

    return np.concatenate(lams), np.concatenate(weights)


def semigroup_apply(op: GraphOperator, t: float, u0, check_oracle: bool = False,
                    oracle_tol: float = 1e-6, **contour_kw) -> np.ndarray:
    """Apply e^{-tL} to a vector through the resolvent contour formula."""
    u0 = np.asarray(getattr(u0, "values", u0))
    lams, weights = contour_nodes(t, **contour_kw)
    acc = np.zeros(op.graph.n, dtype=complex)
    rhs = (op.m * u0).astype(complex)
    for lam, w in zip(lams, weights):
        lu = spla.splu(op.matrix(lam).tocsc())
        acc += w * lu.solve(rhs)
    if check_oracle:
        dev = float(np.abs(acc - expm_oracle(op, t, u0)).max())
        if dev > oracle_tol:
            raise OperatorError(
                f"contour quadrature deviates from the matrix exponential by {dev:.2e}"
            )
        return acc, dev
    return acc


def expm_oracle(op: GraphOperator, t: float, u0) -> np.ndarray:
    """Matrix-exponential action (scaling-and-squaring family, independent of
    the contour path)."""
    u0 = np.asarray(getattr(u0, "values", u0))
    gen = sp.diags(1.0 / op.m) @ op.S
    return spla.expm_multiply(-t * gen.tocsc(), u0.astype(complex))


@dataclass
class KernelColumn:
    t: float
    y: int
    values: np.ndarray          # K_t(., y) over all vertices
    d_from_y: np.ndarray
    window: np.ndarray
    h_star: np.ndarray          # h*_{xy} for x in window
    mass: float                 # sum_x K(x, y) m(x); equals m(y) when L1 = 0
    oracle_dev: float


def _h_star_bulk(g: WeightedGraph, y: int, window: np.ndarray,
                 d_y: np.ndarray) -> np.ndarray:
    """h*_{xy} for every x in the window against a fixed y (strict balls,
    either-endpoint reading)."""
    # direction y -> x for all x at once: running sup over edges sorted by
    # their distance to y
    edge_mind_y = np.minimum(d_y[g.edge_u], d_y[g.edge_v])
    order = np.argsort(edge_mind_y, kind="stable")
    sorted_mind = edge_mind_y[order]
    run_max = np.maximum.accumulate(g.edge_h[order])

    def sup_y_to(r):
        k = np.searchsorted(sorted_mind, r, side="left")
        return run_max[k - 1] if k > 0 else 0.0

    d_from_x = distances_from(g, window)
    out = np.empty(len(window))
    for i, x in enumerate(window):
        if x == y:
            out[i] = 0.0
            continue
        r = d_y[x]
        dx = d_from_x[i]
        touch = (dx[g.edge_u] < r) | (dx[g.edge_v] < r)
        sup_x = float(g.edge_h[touch].max()) if np.any(touch) else 0.0
        out[i] = min(sup_x, sup_y_to(r))
    return out


def kernel_column(op: GraphOperator, t: float, y: int, margin: float = 0.25,
                  **contour_kw) -> KernelColumn:
    """One kernel column K_t(., y) = (e^{-tL} e_y), tabulated with distances
    and h*, and checked against the matrix-exponential oracle."""
    g = op.graph
    e = np.zeros(g.n)
    e[y] = 1.0
    values, dev = semigroup_apply(op, t, e, check_oracle=True, **contour_kw)
    d_y = distances_from(g, y)
    window = box_window(g, margin) if g.coords is not None else np.arange(g.n)
    hs = _h_star_bulk(g, y, window, d_y)
    mass = float(np.real(np.sum(values * g.m)))
    return KernelColumn(t=t, y=y, values=values, d_from_y=d_y, window=window,
                        h_star=hs, mass=mass, oracle_dev=dev)


@dataclass
class KernelBoundFit:
    c_prime: float
    C: float
    beta: float
    pass_rate_b: float
    C_a: float | None
    beta_a: float | None
    pass_rate_a: float


def kernel_bound_check(columns, c_prime: float = 1.0) -> KernelBoundFit:
    """Fit (C, beta) for the two kernel regimes, then verify the bounds on
    every tabulated pair. The threshold between regimes is t vs
    c_prime * h* * d; the neighbor Holder increment is kernel_holder_fit's."""
    t_all, d_all, hs_all, k_all = [], [], [], []
    for col in columns:
        x = col.window
        t_all.append(np.full(len(x), col.t))
        d_all.append(col.d_from_y[x])
        hs_all.append(col.h_star)
        k_all.append(np.abs(col.values[x]))
    t_all = np.concatenate(t_all)
    d_all = np.concatenate(d_all)
    hs_all = np.concatenate(hs_all)
    k_all = np.concatenate(k_all)

    thresh = c_prime * hs_all * d_all
    in_b = t_all >= thresh
    in_a = ~in_b

    def fit_regime(mask, z, exponent):
        """(C, beta, pass rate) of t K <= C exp(-beta z) over the pairs in
        mask, or None without a positive fitted beta; exponent(beta) is
        beta z on the mask."""
        usable = mask & (k_all > _KERNEL_NOISE_FLOOR) & (z > 0)
        if usable.sum() < 3:
            return None
        slope, _ = np.polyfit(z[usable], np.log(t_all[usable] * k_all[usable]), 1)
        beta = -float(slope)
        if beta <= 0:
            return None
        t, k = t_all[mask], k_all[mask]
        C = float(np.max(t * k * np.exp(exponent(beta))))
        return C, beta, float(np.mean(k <= (C / t) * np.exp(exponent(-beta)) * (1 + 1e-12)))

    fit_b = fit_regime(in_b, d_all**2 / t_all, lambda b: b * d_all[in_b] ** 2 / t_all[in_b])
    C, beta, rate_b = fit_b or (float("nan"), float("nan"), 0.0)
    if np.any(in_a):
        with np.errstate(divide="ignore"):
            w = np.where(hs_all > 0, d_all / np.where(hs_all > 0, hs_all, 1.0), 0.0)
        C_a, beta_a, rate_a = fit_regime(in_a, w, lambda b: b * w[in_a]) or (None, None, 0.0)
    else:
        beta_a, C_a, rate_a = None, None, 1.0

    return KernelBoundFit(c_prime=c_prime, C=C, beta=beta, pass_rate_b=rate_b,
                          C_a=C_a, beta_a=beta_a, pass_rate_a=rate_a)


def window_increments(g: WeightedGraph, col: KernelColumn):
    """|K_t(x, y) - K_t(x', y)| and the edge length h_xx' over the edges
    (x, x') with both ends in the column's window."""
    inw = np.zeros(g.n, dtype=bool)
    inw[col.window] = True
    mask = inw[g.edge_u] & inw[g.edge_v]
    return np.abs(col.values[g.edge_v[mask]] - col.values[g.edge_u[mask]]), g.edge_h[mask]


def kernel_holder_fit(op: GraphOperator, columns) -> tuple[float, float, float]:
    """(C'', eta, pass_rate) for |K_t(x, y) - K_t(x', y)| over neighbor pairs
    (x, x') inside the window."""
    zs, ys = [], []
    for col in columns:
        du, dd = window_increments(op.graph, col)
        zs.append(np.log(dd / math.sqrt(col.t)))
        ys.append(col.t * du)
    z = np.concatenate(zs)
    y = np.concatenate(ys)
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
