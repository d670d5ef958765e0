"""Functions on graphs: differential, gradient, norms, duals, maximal function.

Conventions. Edge functions are antisymmetric and stored once per unordered
edge, oriented along the stored (u, v) pair; L^p norms on edges sum over
ordered pairs, hence the factor 2. The W^{1,p} norm is the sum
||f||_p + ||grad f||_p. Negative-order norms are duals of W^{1,p'} (of the
zero-boundary subspace when the graph has a boundary): the exact mode pairs
against the Hilbertian variant (||v||_2^2 + ||dv||_2^2)^{1/2}, the ascent
mode against the sum variant ||v||_{p'} + ||dv||_{p'}; the two variants of a
norm differ by at most sqrt(2), and reports say which one was used.
"""
from __future__ import annotations

import csv
import io
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .graph import WeightedGraph, distances_all, distances_from, edge_gram

# rows per block of the pairwise Holder sup
_HOLDER_BLOCK = 256
# the dual-norm ascent stops below this relative gain, or after this many steps
_ASCENT_TOL = 1e-6
_ASCENT_MAX_ITER = 5000


class SpaceError(ValueError):
    """Invalid function-space operation."""


@dataclass
class VertexFunction:
    graph: WeightedGraph
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values)
        if v.shape != (self.graph.n,):
            raise SpaceError(f"values must have shape ({self.graph.n},)")
        if not np.all(np.isfinite(v.real)) or not np.all(np.isfinite(np.imag(v))):
            raise SpaceError("non-finite values")
        self.values = v


@dataclass
class EdgeFunction:
    """Antisymmetric edge field; stored once per unordered edge (u -> v)."""

    graph: WeightedGraph
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values)
        if v.shape != (self.graph.n_edges,):
            raise SpaceError(f"values must have shape ({self.graph.n_edges},)")
        self.values = v


def differential(f: VertexFunction) -> EdgeFunction:
    """df(x, y) = (f(y) - f(x)) / h_xy on the stored orientation."""
    g = f.graph
    v = f.values
    return EdgeFunction(g, (v[g.edge_v] - v[g.edge_u]) / g.edge_h)


def gradient_length(f: VertexFunction) -> VertexFunction:
    """Length of gradient: (1/h_x) * sqrt(sum over neighbors |f(y) - f(x)|^2)."""
    g = f.graph
    diff2 = np.abs(f.values[g.edge_v] - f.values[g.edge_u]) ** 2
    acc = np.zeros(g.n)
    np.add.at(acc, g.edge_u, diff2)
    np.add.at(acc, g.edge_v, diff2)
    return VertexFunction(g, np.sqrt(acc) / g.h_x)


def lp_norm(f: VertexFunction, p: float) -> float:
    """L^p(Gamma, m) norm of a vertex function; p may be inf."""
    v = np.abs(f.values)
    if np.isinf(p):
        return float(v.max()) if len(v) else 0.0
    if p < 1:
        raise SpaceError("p must be in [1, inf]")
    return float((f.graph.m @ v**p) ** (1.0 / p))


def edge_lp_norm(F: EdgeFunction, p: float) -> float:
    """L^p(E, mu) norm; the sum runs over ordered pairs (factor 2)."""
    v = np.abs(F.values)
    if np.isinf(p):
        return float(v.max()) if len(v) else 0.0
    if p < 1:
        raise SpaceError("p must be in [1, inf]")
    return float((2.0 * (F.graph.edge_mu @ v**p)) ** (1.0 / p))


def w1p_norm(f: VertexFunction, p: float) -> float:
    return lp_norm(f, p) + lp_norm(gradient_length(f), p)


def df_grad_bracket(g: WeightedGraph, p: float) -> float:
    """Bracket K with ||df||_p / ||grad f||_p in [1/K, K], from N, C_W, C_mu."""
    if np.isinf(p):
        raise SpaceError("bracket derived for finite p")
    upper = g.C_W * g.C_mu ** (1.0 / p) * g.N ** max(0.0, 1.0 / p - 0.5)
    lower_inv = g.C_mu ** (1.0 / p) * g.N ** max(0.5, 1.0 / p)
    return max(upper, lower_inv)


def _holder_sup(values: np.ndarray, distance_rows, eta: float) -> np.ndarray:
    """sup over unordered pairs {x, y} of |v(x) - v(y)| / d(x, y)^eta for
    each row v of ``values``.

    Points are taken in row blocks, and each block is paired with the
    points from its own first row on: a pair across blocks is formed once,
    with the distance row of its point in the earlier block, and a pair
    within a block both ways. ``distance_rows(rows, cols)`` returns the
    distances from the points of the slice ``rows`` to those of the slice
    ``cols``; it is not written to. Each row block's d^eta serves every row
    of ``values``, and pairs at distance zero count as ratio 0. A
    non-finite value fails closed: its row's sup is NaN.
    """
    best = np.zeros(len(values))
    for start in range(0, values.shape[1], _HOLDER_BLOCK):
        rows = slice(start, start + _HOLDER_BLOCK)
        cols = slice(start, None)
        d_eta = distance_rows(rows, cols) ** eta
        d_eta[d_eta == 0] = np.inf
        ratio = np.empty(d_eta.shape)
        diff = np.empty(d_eta.shape, values.dtype) if np.iscomplexobj(values) else ratio
        for i, v in enumerate(values):
            np.subtract(v[rows, None], v[None, cols], out=diff)
            np.abs(diff, out=ratio)
            np.divide(ratio, d_eta, out=ratio)
            best[i] = np.maximum(best[i], ratio.max())
        del d_eta, ratio, diff  # freed before the next block's distances are formed
    return best


def _ascend(objective, direction, x, step: float, min_step: float, max_iter: int,
            rel_tol: float = 0.0):
    """Normalized ascent with step doubling and backtracking.

    Each iteration moves x by ``step * max(|x|, 1e-300) / |d|`` along
    d = direction(x), halving the step until the objective improves and
    doubling it (capped at 1) after a success. Stops on a zero direction,
    when no step above ``min_step`` improves, when the relative gain is below
    ``rel_tol``, or after ``max_iter`` iterations. Returns
    ``(x, value, iterations, stopped)``; ``stopped`` is False only when the
    iteration budget ran out.
    """
    best = objective(x)
    for it in range(1, max_iter + 1):
        d = direction(x)
        dnorm = np.linalg.norm(d)
        if dnorm == 0:
            return x, best, it, True
        scale = max(np.linalg.norm(x), 1e-300)
        while step > min_step:
            cand = x + (step * scale / dnorm) * d
            val = objective(cand)
            if val > best:
                rel = (val - best) / max(abs(best), 1e-300)
                x, best = cand, val
                step = min(2.0 * step, 1.0)
                break
            step *= 0.5
        else:  # no step improves: stationary
            return x, best, it, True
        if rel < rel_tol:
            return x, best, it, True
    return x, best, max_iter, False


def holder_seminorm(f: VertexFunction, eta: float) -> float:
    """Holder seminorm in the path metric of the graph."""
    if not 0 < eta <= 1:
        raise SpaceError("holder exponent must be in (0, 1]")
    g = f.graph
    return float(_holder_sup(f.values[None], lambda rows, cols: distances_from(
        g, np.arange(g.n)[rows])[:, cols], eta)[0])


def holder_norm(f: VertexFunction, eta: float) -> float:
    return lp_norm(f, np.inf) + holder_seminorm(f, eta)


@dataclass
class NormReport:
    p: float
    eta: float
    lp: float
    grad_lp: float
    w1p: float
    df_lp: float
    holder_semi: float
    holder_norm: float

    def csv_row(self, graph_id: str) -> str:
        out = io.StringIO()
        csv.writer(out, lineterminator="").writerow(
            [graph_id, repr(float(self.p)), repr(float(self.eta)),
             repr(self.lp), repr(self.grad_lp), repr(self.w1p),
             repr(self.holder_semi), repr(self.holder_norm)])
        return out.getvalue()

    csv_header = "graph_id,p,eta,lp,grad_lp,w1p,holder_semi,holder_norm"


def norm_report(f: VertexFunction, p: float, eta: float) -> NormReport:
    grad = lp_norm(gradient_length(f), p)
    base = lp_norm(f, p)
    semi = holder_seminorm(f, eta)
    return NormReport(
        p=p, eta=eta, lp=base, grad_lp=grad, w1p=base + grad,
        df_lp=edge_lp_norm(differential(f), p),
        holder_semi=semi, holder_norm=lp_norm(f, np.inf) + semi,
    )


def _w12_gram(g: WeightedGraph, active: np.ndarray) -> sp.csr_matrix:
    """Gram matrix of v -> ||v||_2^2 + ||dv||_{L^2(E)}^2 (ordered-pair
    convention) on the active vertices."""
    laplacian = edge_gram(g, 2.0 * g.edge_mu / g.edge_h**2)
    return (sp.diags(g.m) + laplacian).tocsr()[active][:, active]


@dataclass
class DualNormResult:
    value: float
    mode: str
    converged: bool
    iterations: int
    optimizer: np.ndarray | None = None


def _active_set(g: WeightedGraph) -> np.ndarray:
    return g.interior if len(g.boundary) else np.arange(g.n)


def dual_norm(f: VertexFunction, p: float, mode: str = "exact_p2") -> DualNormResult:
    """Negative-order norm of f via the pairing <f, v> = sum f conj(v) m.

    ``exact_p2`` (p = 2 only) solves one SPD system for the Hilbertian
    variant. ``ascent`` maximizes Re<f, v> / (||v||_{p'} + ||dv||_{p'}) by
    normalized gradient ascent with backtracking and returns a certified
    lower bound; non-convergence is flagged, not raised.
    """
    if not 1 < p < np.inf:
        raise SpaceError("dual norm needs 1 < p < inf")
    g = f.graph
    act = _active_set(g)
    H = _w12_gram(g, act)
    rhs = (g.m * f.values)[act]

    if mode not in ("exact_p2", "ascent"):
        raise SpaceError(f"unknown dual norm mode {mode!r}")
    if mode == "exact_p2" and p != 2:
        raise SpaceError("exact_p2 mode is the p = 2 Hilbertian dual")
    # the Hilbertian optimizer: the exact_p2 answer and the ascent's warm start
    if np.iscomplexobj(rhs):
        hilbert = spla.spsolve(H.astype(complex), rhs.conj())
    else:
        hilbert = spla.spsolve(H, rhs)
    if mode == "exact_p2":
        opt = np.zeros(g.n, dtype=np.asarray(hilbert).dtype)
        opt[act] = hilbert
        return DualNormResult(float(np.sqrt(np.real(rhs @ hilbert))), mode, True, 0,
                              optimizer=opt)

    q = p / (p - 1.0)
    m_act = g.m[act]
    fa = f.values[act].astype(complex)
    grad_lin = m_act * fa  # gradient of Re<f, v> in the packed sense
    eu_all, ev_all = g.edge_u, g.edge_v

    def embed(v_act):
        v = np.zeros(g.n, dtype=complex)
        v[act] = v_act
        return v

    def sum_norm_and_grad(v_act):
        v = embed(v_act)
        dv = (v[ev_all] - v[eu_all]) / g.edge_h
        # ||v||_q
        av = np.abs(v_act)
        nv = (m_act @ av**q) ** (1.0 / q)
        # ||dv||_q over ordered pairs
        adv = np.abs(dv)
        ndv = (2.0 * (g.edge_mu @ adv**q)) ** (1.0 / q)
        total = nv + ndv
        # packed gradients of both terms
        gv = np.zeros_like(v_act)
        nz = av > 0
        if nv > 0:
            gv[nz] = nv ** (1 - q) * m_act[nz] * av[nz] ** (q - 2) * v_act[nz]
        ge_full = np.zeros(g.n, dtype=complex)
        nzd = adv > 0
        if ndv > 0:
            coef = np.zeros(g.n_edges)
            coef[nzd] = 2.0 * g.edge_mu[nzd] / g.edge_h[nzd] * adv[nzd] ** (q - 2)
            contrib = coef * dv / g.edge_h
            np.add.at(ge_full, ev_all, contrib)
            np.add.at(ge_full, eu_all, -contrib)
            ge_full *= ndv ** (1 - q)
        return total, gv + ge_full[act]

    v_act = hilbert.astype(complex)
    if not np.any(v_act):
        return DualNormResult(0.0, mode, True, 0)

    def objective(v_act):
        nrm, _ = sum_norm_and_grad(v_act)
        if nrm == 0:
            return 0.0
        return float(np.real(np.vdot(fa * m_act, v_act) / nrm))

    # align the phase so the pairing is real and positive
    pair = np.vdot(fa * m_act, v_act)
    if pair != 0:
        v_act = v_act * (np.conj(pair) / abs(pair))

    def direction(v_act):
        nrm, gn = sum_norm_and_grad(v_act)
        pairing = float(np.real(np.vdot(fa * m_act, v_act)))
        return (grad_lin * nrm - pairing * gn) / (nrm * nrm)

    v_act, best, it, converged = _ascend(objective, direction, v_act, 1.0, 1e-14,
                                         _ASCENT_MAX_ITER, _ASCENT_TOL)
    return DualNormResult(float(best), mode, converged, it, optimizer=embed(v_act))


def maximal_function(f: VertexFunction) -> VertexFunction:
    """Uncentered maximal function: sup over all balls containing x of the
    ball average of |f|.

    Balls are enumerated over all centers and all breakpoint radii (prefixes
    of the distance ordering from each center).
    """
    g = f.graph
    if g.n > 4000:
        raise SpaceError("maximal function is all-pairs; graph too large")
    absf = np.abs(f.values)
    out = np.zeros(g.n)
    d = distances_all(g)
    for z in range(g.n):
        order = np.argsort(d[z], kind="stable")
        dz = d[z][order]
        wm = g.m[order]
        csum_fm = np.cumsum(absf[order] * wm)
        csum_m = np.cumsum(wm)
        # prefixes must end at distance-group boundaries
        grp_end = np.nonzero(np.diff(dz, append=np.inf) > 0)[0]
        avgs = csum_fm[grp_end] / csum_m[grp_end]
        # best average over prefixes that contain a vertex of given rank
        suffix_best = np.maximum.accumulate(avgs[::-1])[::-1]
        grp_of = np.searchsorted(grp_end, np.arange(g.n))
        out[order] = np.maximum(out[order], suffix_best[grp_of])
    return VertexFunction(g, out)


@dataclass
class EmbeddingReport:
    p: float
    trials: int
    p_star: float | None = None
    sobolev_ratio_max: float | None = None
    eta: float | None = None
    holder_ratio_max: float | None = None


def _candidate_functions(g: WeightedGraph, trials: int, rng) -> list[np.ndarray]:
    """Zero-boundary candidates: random fields, indicators, distance tents."""
    act = _active_set(g)
    cands = []
    for _ in range(trials):
        v = np.zeros(g.n)
        v[act] = rng.standard_normal(len(act))
        cands.append(v)
    for x in act[rng.permutation(len(act))[: min(20, len(act))]]:
        v = np.zeros(g.n)
        v[x] = 1.0
        cands.append(v)
    centers = act[rng.permutation(len(act))[: min(5, len(act))]]
    d = distances_from(g, centers)
    for i in range(len(centers)):
        for frac in (0.25, 0.5):
            R = frac * d[i].max()
            v = np.maximum(0.0, R - d[i])
            if len(g.boundary):
                v[g.boundary] = 0.0
            if np.any(v):
                cands.append(v)
    return cands


def embedding_report(g: WeightedGraph, p: float, trials: int = 40,
                     seed: int = 0) -> EmbeddingReport:
    """Empirical embedding ratios with volume exponent sigma = 2.

    For p < 2 the report carries max ||f||_{p*} / ||grad f||_p with
    p* = 2p / (2 - p); for p > 2 it carries max ||f||_{C^eta} / ||f||_{W^{1,p}}
    with eta = 1 - 2/p.
    """
    sigma = 2.0
    if p == sigma:
        raise SpaceError("embedding needs p < 2 (Sobolev) or p > 2 (Holder)")
    rng = np.random.default_rng(seed)
    cands = _candidate_functions(g, trials, rng)
    fs = [VertexFunction(g, v) for v in cands]
    if p < sigma:
        if not p >= 1:
            raise SpaceError("violated inequality: 1 <= p < 2 for the Sobolev ratio")
        p_star = sigma * p / (sigma - p)
        best = 0.0
        for f in fs:
            gd = lp_norm(gradient_length(f), p)
            if gd > 0:
                best = max(best, lp_norm(f, p_star) / gd)
        return EmbeddingReport(p=p, trials=trials, p_star=p_star, sobolev_ratio_max=best)
    eta = 1.0 - sigma / p
    w = np.array([w1p_norm(f, p) for f in fs])
    keep = w > 0
    sup = np.array([lp_norm(f, np.inf) for f in fs])[keep]
    semi = _holder_sup(np.array(cands)[keep], lambda rows, cols: distances_from(
        g, np.arange(g.n)[rows])[:, cols], eta)
    best = float(((sup + semi) / w[keep]).max(initial=0.0))
    return EmbeddingReport(p=p, trials=trials, eta=eta, holder_ratio_max=best)
