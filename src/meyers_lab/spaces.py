"""Functions on graphs: differential, gradient, norms, Holder sups, embeddings.

Conventions. A vertex function is a plain array with one finite value per
vertex, an edge function one with one finite value per stored edge; each
entry point takes the graph with the array and refuses a wrong shape or a
non-finite value with SpaceError. Edge functions are antisymmetric and
stored once per unordered edge, oriented along the stored (u, v) pair; L^p
norms on edges sum over ordered pairs, hence the factor 2. The W^{1,p} norm
is the sum ||f||_p + ||grad f||_p.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import WeightedGraph, distances_from

# rows per block of the pairwise Holder sup; see _holder_sup for the size
_HOLDER_BLOCK = 32
# the relative residual every linear solve, Galerkin or resolvent, must meet
_SOLVE_RTOL = 1e-10


class SpaceError(ValueError):
    """Invalid function-space operation."""


def _checked(v, n: int) -> np.ndarray:
    """``v`` as an array of ``n`` finite values; a wrong shape or a
    non-finite value raises SpaceError."""
    v = np.asarray(v)
    if v.shape != (n,):
        raise SpaceError(f"values must have shape ({n},)")
    if not np.all(np.isfinite(v)):
        raise SpaceError("non-finite values")
    return v


def _check_p(p: float, error=SpaceError) -> None:
    """The exponent rule of every L^p norm, on graphs and on meshes: p lies
    in [1, inf]; NaN does not."""
    if not p >= 1:
        raise error("p must be in [1, inf]")


def _check_eta(eta: float, error=SpaceError) -> None:
    """The exponent rule of every Holder seminorm: eta lies in (0, 1]."""
    if not 0 < eta <= 1:
        raise error("holder exponent must be in (0, 1]")


def _check_residual(a, u, b, error) -> list[float]:
    """Each column's residual in ``a u = b``, relative to its 2-norm in b (absolute
    for a zero column); one above _SOLVE_RTOL, or NaN, raises ``error``."""
    n = len(b)
    rel = [float(np.linalg.norm(r) / (np.linalg.norm(c) or 1.0))
           for r, c in zip((a @ u - b).reshape(n, -1).T, np.reshape(b, (n, -1)).T)]
    for r in rel:
        if not r <= _SOLVE_RTOL:
            raise error(f"solve residual {r:.2e} above {_SOLVE_RTOL:.0e}")
    return rel


def differential(g: WeightedGraph, v) -> np.ndarray:
    """df(x, y) = (f(y) - f(x)) / h_xy on the stored orientation."""
    v = _checked(v, g.n)
    return (v[g.edge_v] - v[g.edge_u]) / g.edge_h


def gradient_length(g: WeightedGraph, v) -> np.ndarray:
    """Length of gradient: (1/h_x) * sqrt(sum over neighbors |f(y) - f(x)|^2)."""
    v = _checked(v, g.n)
    diff2 = np.abs(v[g.edge_v] - v[g.edge_u]) ** 2
    acc = np.zeros(g.n)
    np.add.at(acc, g.edge_u, diff2)
    np.add.at(acc, g.edge_v, diff2)
    return np.sqrt(acc) / g.h_x


def lp_norm(g: WeightedGraph, v, p: float) -> float:
    """L^p(Gamma, m) norm of a vertex function; p may be inf. ``np.einsum``
    sums in an order fixed by its operands, at any BLAS thread count."""
    v = np.abs(_checked(v, g.n))
    _check_p(p)
    if np.isinf(p):
        return float(v.max()) if len(v) else 0.0
    return float(np.einsum("i,i->", g.m, v**p) ** (1.0 / p))


def edge_lp_norm(g: WeightedGraph, dv, p: float) -> float:
    """L^p(E, mu) norm, summed as in lp_norm; the sum runs over ordered
    pairs (factor 2)."""
    v = np.abs(_checked(dv, g.n_edges))
    _check_p(p)
    if np.isinf(p):
        return float(v.max()) if len(v) else 0.0
    return float((2.0 * np.einsum("i,i->", g.edge_mu, v**p)) ** (1.0 / p))


def w1p_norm(g: WeightedGraph, v, p: float) -> float:
    return lp_norm(g, v, p) + lp_norm(g, gradient_length(g, v), p)


def df_grad_bracket(g: WeightedGraph, p: float) -> float:
    """Bracket K with ||df||_p / ||grad f||_p in [1/K, K], from N, C_W, C_mu."""
    _check_p(p)
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

    Blocks are _HOLDER_BLOCK = 32 rows so that a block's d^eta, ratio and
    diff arrays stay cache-sized: over 1024 columns a 32-row block holds
    about 1 MiB of them, inside a 2 MiB L2, where a 256-row block streamed
    about 8 MiB through memory for every row of ``values``. On bitwise
    symmetric distances the sup does not depend on the block size; on
    Dijkstra rows, which differ from their transposes at round-off, it moves
    with the block size at round-off only.
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


def _path_rows(g: WeightedGraph):
    """``_holder_sup``'s distance rows in the path metric of ``g``."""
    return lambda rows, cols: distances_from(g, np.arange(g.n)[rows])[:, cols]


def holder_seminorm(g: WeightedGraph, v, eta: float) -> float:
    """Holder seminorm in the path metric of the graph."""
    v = _checked(v, g.n)
    _check_eta(eta)
    return float(_holder_sup(v[None], _path_rows(g), eta)[0])


def holder_norm(g: WeightedGraph, v, eta: float) -> float:
    return lp_norm(g, v, np.inf) + holder_seminorm(g, v, eta)


def _active_set(g: WeightedGraph) -> np.ndarray:
    return g.interior if len(g.boundary) else np.arange(g.n)


@dataclass
class EmbeddingReport:
    p_sobolev: float
    p_star: float
    sobolev_ratio_max: float
    p_holder: float
    eta: float
    holder_ratio_max: float


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


def embedding_report(g: WeightedGraph, p_sobolev: float, p_holder: float,
                     trials: int, seed: int = 0) -> EmbeddingReport:
    """Empirical embedding ratios with volume exponent sigma = 2, both over
    one candidate set: max ||f||_{p*} / ||grad f||_p with p* = 2p / (2 - p)
    at p = p_sobolev, and max ||f||_{C^eta} / ||f||_{W^{1,p}} with
    eta = 1 - 2/p at p = p_holder.
    """
    sigma = 2.0
    if not 1 <= p_sobolev < sigma < p_holder:
        raise SpaceError("violated inequality: 1 <= p_sobolev < 2 < p_holder")
    cands = _candidate_functions(g, trials, np.random.default_rng(seed))
    p_star = sigma * p_sobolev / (sigma - p_sobolev)
    sobolev = 0.0
    for v in cands:
        gd = lp_norm(g, gradient_length(g, v), p_sobolev)
        if gd > 0:
            sobolev = max(sobolev, lp_norm(g, v, p_star) / gd)
    eta = 1.0 - sigma / p_holder
    w = np.array([w1p_norm(g, v, p_holder) for v in cands])
    keep = w > 0
    sup = np.array([lp_norm(g, v, np.inf) for v in cands])[keep]
    semi = _holder_sup(np.array(cands)[keep], _path_rows(g), eta)
    holder = float(((sup + semi) / w[keep]).max(initial=0.0))
    return EmbeddingReport(p_sobolev, p_star, sobolev, p_holder, eta, holder)
