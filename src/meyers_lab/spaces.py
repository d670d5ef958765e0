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

import math
from dataclasses import dataclass

import numpy as np

from .graph import WeightedGraph, distances_from

# most points per cell of the pairwise Holder sup, and the grid's target (see
# _holder_cells): smaller cells bound tighter but cost a pass each; on the
# three experiments that call the sup, 16 and 64 were no faster and 128 slower
_HOLDER_BLOCK = 32
# relative margin of the Holder sup's pruning bounds and distance limits; see
# _holder_sup
_HOLDER_MARGIN = 1e-9
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


def _holder_cells(n: int, points):
    """(order, starts, lo, hi): a permutation of ``n`` points into cells of at
    most _HOLDER_BLOCK points, cell c being ``order[starts[c]:starts[c + 1]]``,
    and each cell's coordinate box (None without ``points``).

    The cells are those of a square grid over the points' bounding box, sized
    for about _HOLDER_BLOCK points each and taken in grid order, a fuller one
    cut in index order; without ``points`` they are blocks of consecutive
    indices."""
    if points is None:
        return np.arange(n), np.append(np.arange(0, n, _HOLDER_BLOCK), n), None, None
    lo, hi = points.min(axis=0), points.max(axis=0)
    w, h = hi - lo
    side = max(math.sqrt(w * h * _HOLDER_BLOCK / n), max(w, h) * _HOLDER_BLOCK / n) or 1.0
    grid = np.floor((points - lo) / side).astype(np.int64)
    key = grid[:, 0] * (grid[:, 1].max() + 1) + grid[:, 1]
    order = np.argsort(key, kind="stable")
    key = key[order]
    run = np.flatnonzero(np.r_[True, key[1:] != key[:-1]])
    rank = np.arange(n) - np.repeat(run, np.diff(np.append(run, n)))
    starts = np.append(np.flatnonzero(rank % _HOLDER_BLOCK == 0), n)
    at = points[order]
    return (order, starts, np.minimum.reduceat(at, starts[:-1]),
            np.maximum.reduceat(at, starts[:-1]))


def _holder_sup(values: np.ndarray, eta: float, distance_rows, points, edges) -> np.ndarray:
    """sup over unordered pairs {x, y} of |v(x) - v(y)| / d(x, y)^eta for
    each row v of ``values``, skipping the pairs a bound rules out.

    ``distance_rows(rows, cols, limit)`` returns the distances from the
    points ``rows`` to the points ``cols`` (index arrays), an array that is
    not written to; a distance above ``limit`` (which may be inf) may read
    inf. ``points`` are coordinates whose Euclidean distance the metric
    dominates, d(x, y) >= |x - y| up to round-off, or None; ``edges`` =
    (u, v, h) are pairs with d(u, v) <= h, possibly none. Pairs at distance
    zero count as ratio 0. A non-finite value fails closed: its row's sup
    is NaN, and the other rows are computed without it.

    The points are sorted into cells (``_holder_cells``), and each cell is
    paired with itself both ways and with every later cell once, from its
    own distance rows. Over cells P and Q a row's differences are at most
    M = max(max_P v - min_Q v, max_Q v - min_P v), per part and combined by
    hypot for complex rows, and the distances at least the gap g between the
    cells' boxes, so no pair of P x Q has a ratio above M / g^eta. A cell pair
    is formed only where that bound, with a relative margin _HOLDER_MARGIN
    on each side, beats the row's running lower bound B of its sup, and the
    distance rows of a cell are asked only up to the largest (M / B)^(1/eta)
    of its formed pairs, inf where that power overflows (small eta): a pair
    beyond it cannot beat B either. B starts at the edges' ratios
    |v(u) - v(v)| / h^eta, each at most a real pair's ratio.

    Why the sup is exact: a skipped pair, or one beyond the limit, lies
    below B, and B is at most the sup (the edge pair behind the seed is
    formed, at a distance at most h), so the pair that attains the sup is
    formed, with the subtraction, abs and division of the dense all-pairs
    sup on the same d^eta. On symmetric distances each sup is thus bitwise
    the dense one; Dijkstra rows differ from their transposes at round-off,
    and a pair across cells is read from the row of its point in the earlier
    cell. The margin covers the round-off of the bound and of the limit, and
    the gap is shrunk by it as well, for a path metric that dominates the
    coordinates only up to the round-off of its sums. Without ``points`` the
    gap is 0, and only the distance limits prune.
    """
    values = np.asarray(values)
    n = values.shape[1]
    best = np.where(np.isfinite(values).all(axis=1), 0.0, np.nan)
    fields = np.flatnonzero(best == 0)
    order, starts, lo, hi = _holder_cells(n, points)
    cell_of = np.repeat(np.arange(len(starts) - 1), np.diff(starts))
    perm = values[fields[:, None], order]
    parts = (perm.real, perm.imag) if np.iscomplexobj(perm) else (perm,)
    vmin = [np.minimum.reduceat(part, starts[:-1], axis=1) for part in parts]
    vmax = [np.maximum.reduceat(part, starts[:-1], axis=1) for part in parts]
    bound = np.zeros(len(fields))
    if len(edges[0]):
        pos = np.argsort(order)
        u, v, h_eta = pos[edges[0]], pos[edges[1]], np.asarray(edges[2]) ** eta
        bound[:] = [(np.abs(row[u] - row[v]) / h_eta).max() for row in perm]
    grow, shrink = 1.0 + _HOLDER_MARGIN, 1.0 - _HOLDER_MARGIN
    for c in range(len(starts) - 1):
        later = slice(c, None)
        spread = [np.maximum(top[:, c, None] - bot[:, later], top[:, later] - bot[:, c, None])
                  for bot, top in zip(vmin, vmax)]
        spread = np.hypot(*spread) if len(spread) == 2 else spread[0]
        gap = 0.0
        if lo is not None:
            sep = np.maximum(0.0, np.maximum(lo[later] - hi[c], lo[c] - hi[later]))
            gap = np.hypot(sep[:, 0], sep[:, 1]) * shrink
        live = spread * grow > bound[:, None] * gap**eta
        cells = live.any(axis=0)
        if not cells.any():
            continue
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            reach = (spread * grow / bound[:, None])[live].max() ** (1.0 / eta) * grow
        rows = slice(starts[c], starts[c + 1])
        cols = starts[c] + np.flatnonzero(cells[cell_of[starts[c]:] - c])
        col_cell = cell_of[cols] - c
        d_eta = distance_rows(order[rows], order[cols], reach) ** eta
        d_eta[d_eta == 0] = np.inf
        for i in np.flatnonzero(live.any(axis=1)):
            own = live[i, col_cell]
            sub, at = (d_eta, cols) if own.all() else (d_eta[:, own], cols[own])
            ratio = np.abs(perm[i, rows, None] - perm[i][None, at]) / sub
            best[fields[i]] = max(best[fields[i]], ratio.max())
            bound[i] = max(bound[i], best[fields[i]])
        del d_eta, sub, ratio  # freed before the next cell's distances are formed
    return best


def _path_metric(g: WeightedGraph, vertices=None):
    """``_holder_sup``'s (distance_rows, points, edges) for the path metric of
    ``g`` on ``vertices`` (all by default): Dijkstra rows, the coordinates
    where every edge is at least as long as its ends are apart (to 1e-12
    relative), and the edges with both ends among the vertices."""
    idx = np.arange(g.n) if vertices is None else np.asarray(vertices)
    at = np.full(g.n, -1)
    at[idx] = np.arange(len(idx))
    u, v = at[g.edge_u], at[g.edge_v]
    inner = (u >= 0) & (v >= 0)
    points = None
    if g.coords is not None and g.coords.shape == (g.n, 2):
        step = g.coords[g.edge_v] - g.coords[g.edge_u]
        if np.all(g.edge_h >= (1.0 - 1e-12) * np.hypot(step[:, 0], step[:, 1])):
            points = g.coords[idx]
    return (lambda rows, cols, limit: distances_from(g, idx[rows], limit=limit)[:, idx[cols]],
            points, (u[inner], v[inner], g.edge_h[inner]))


def holder_seminorm(g: WeightedGraph, v, eta: float) -> float:
    """Holder seminorm in the path metric of the graph."""
    v = _checked(v, g.n)
    _check_eta(eta)
    return float(_holder_sup(v[None], eta, *_path_metric(g))[0])


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
    semi = _holder_sup(np.array(cands)[keep], eta, *_path_metric(g))
    holder = float(((sup + semi) / w[keep]).max(initial=0.0))
    return EmbeddingReport(p_sobolev, p_star, sobolev, p_holder, eta, holder)
