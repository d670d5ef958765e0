"""Closed-form reference solutions used as independent oracles.

The torsion problem (Laplacian with constant load on the unit square) is
evaluated through its classical single-series solution in a numerically
stable exponential form. The radial/tangential matrix family used for the
optimality experiment comes with the gradient of its exact singular solution
r^eps cos(theta) under a C^2 polynomial cutoff, and the matching
divergence-form load.
"""
from __future__ import annotations

import numpy as np


# terms of the torsion series (odd k up to this cap)
_TORSION_TERMS = 2001


def _torsion_bands(y: np.ndarray, n_terms: int):
    """Yield (selection, k, k pi) per band of points grouped by distance to the
    y-boundary; the series factors decay like exp(-k pi dist), so far points
    need few terms. Callers form the factors, so no band's arrays outlive it."""
    dist = np.minimum(y, 1.0 - y)
    with np.errstate(divide="ignore"):
        needed = np.where(dist > 0, np.log(1e9) / (np.pi * np.maximum(dist, 1e-300)),
                          np.inf)
    needed = np.clip(needed, 65, n_terms)
    caps = [65, 129, 257, 513, 1025, n_terms]
    caps = sorted({min(c, n_terms) for c in caps})
    band_of = np.clip(np.searchsorted(caps, needed, side="left"), 0, len(caps) - 1)
    for band, cap in enumerate(caps):
        sel = band_of == band
        if np.any(sel):
            k = np.arange(1, cap + 1, 2, dtype=float)
            yield sel, k, np.pi * k


def torsion_value(points) -> np.ndarray:
    """Series solution of the unit-square torsion problem at given points.

    Solves div(grad u) = -1 with zero boundary values: u = x(1-x)/2 minus the
    odd-k sine series that corrects the boundary layers in y.
    """
    p = np.atleast_2d(np.asarray(points, dtype=float))
    x, y = p[:, 0], p[:, 1]
    out = x * (1.0 - x) / 2.0
    for sel, k, kpi in _torsion_bands(y, _TORSION_TERMS):
        # cosh(k pi (y - 1/2)) / cosh(k pi / 2), overflow-free
        ratio = (np.exp(-np.outer(1.0 - y[sel], kpi)) + np.exp(-np.outer(y[sel], kpi))) \
            / (1.0 + np.exp(-kpi))
        out[sel] -= (np.sin(np.outer(x[sel], kpi)) * ratio) @ (4.0 / (np.pi**3 * k**3))
    return out


def torsion_gradient(points) -> np.ndarray:
    p = np.atleast_2d(np.asarray(points, dtype=float))
    x, y = p[:, 0], p[:, 1]
    ux = (1.0 - 2.0 * x) / 2.0
    uy = np.zeros_like(x)
    for sel, k, kpi in _torsion_bands(y, _TORSION_TERMS):
        e_top = np.exp(-np.outer(1.0 - y[sel], kpi))
        e_bot = np.exp(-np.outer(y[sel], kpi))
        denom = 1.0 + np.exp(-kpi)
        coef = 4.0 / (np.pi**2 * k**2)
        ux[sel] -= (np.cos(np.outer(x[sel], kpi)) * (e_top + e_bot) / denom) @ coef
        uy[sel] -= (np.sin(np.outer(x[sel], kpi)) * (e_top - e_bot) / denom) @ coef
    return np.column_stack([ux, uy])


def torsion_center_value() -> float:
    return float(torsion_value([(0.5, 0.5)])[0])


# ---------------------------------------------------------------------------
# radial/tangential family with eigenvalues {1, eps^2} and exact solution
# u_eps = chi(r) r^eps cos(theta); cutoff chi == 1 for r <= 1/4, == 0 for
# r >= 3/4, C^2 quintic in between.

_CUT_LO = 0.25
_CUT_HI = 0.75


def _radial_profile(r, eps):
    """g = chi r^eps with first and second derivatives (r > 0)."""
    r = np.asarray(r, dtype=float)
    w = _CUT_HI - _CUT_LO
    s = (r - _CUT_LO) / w
    sc = np.clip(s, 0.0, 1.0)
    chi = 1.0 - (10.0 * sc**3 - 15.0 * sc**4 + 6.0 * sc**5)
    inside = (s > 0) & (s < 1)
    si = s[inside]
    d1, d2 = np.zeros_like(r), np.zeros_like(r)
    d1[inside] = -(30.0 * si**2 * (1.0 - si) ** 2) / w
    d2[inside] = -(60.0 * si * (1.0 - si) * (1.0 - 2.0 * si)) / w**2
    re = r**eps
    re1 = eps * r ** (eps - 1.0)
    re2 = eps * (eps - 1.0) * r ** (eps - 2.0)
    g = chi * re
    gp = d1 * re + chi * re1
    gpp = d2 * re + 2.0 * d1 * re1 + chi * re2
    return g, gp, gpp


def singular_gradient(points, eps: float) -> np.ndarray:
    """Cartesian gradient of u_eps (unbounded like r^{eps-1} at the origin)."""
    p = np.atleast_2d(np.asarray(points, dtype=float))
    r = np.hypot(p[:, 0], p[:, 1])
    out = np.zeros_like(p)
    pos = r > 1e-300
    rp = r[pos]
    c, s = p[pos, 0] / rp, p[pos, 1] / rp
    g, gp, _ = _radial_profile(rp, eps)
    out[pos, 0] = gp * c * c + (g / rp) * s * s
    out[pos, 1] = (gp - g / rp) * s * c
    return out


def singular_load(points, eps: float) -> np.ndarray:
    """f_eps = div(A_eps grad u_eps); vanishes for r <= 1/4, bounded elsewhere.

    In the polar frame the flux of A_eps is (g', eps^2 (-g sin)/r ...); for
    u = g(r) cos(theta) the divergence collapses to
    cos(theta) (g'' + g'/r - eps^2 g / r^2), which is identically zero where
    chi == 1 because r^eps cos(theta) is A_eps-harmonic.
    """
    p = np.atleast_2d(np.asarray(points, dtype=float))
    r = np.hypot(p[:, 0], p[:, 1])
    out = np.zeros(len(p))
    pos = r >= _CUT_LO  # exact zero inside the untouched disk
    rp = r[pos]
    g, gp, gpp = _radial_profile(rp, eps)
    out[pos] = (gpp + gp / rp - eps * eps * g / rp**2) * (p[pos, 0] / rp)
    return out


def radial_tangential_matrix(points, eps: float) -> np.ndarray:
    """A_eps(x) = P + eps^2 (I - P), P the radial projector; eps^2 I at 0."""
    p = np.atleast_2d(np.asarray(points, dtype=float))
    r2 = p[:, 0] ** 2 + p[:, 1] ** 2
    out = np.empty((len(p), 2, 2))
    eps2 = eps * eps
    zero = r2 == 0
    nz = ~zero
    xx = p[nz, 0] ** 2 / r2[nz]
    yy = p[nz, 1] ** 2 / r2[nz]
    xy = p[nz, 0] * p[nz, 1] / r2[nz]
    out[nz, 0, 0] = xx + eps2 * yy
    out[nz, 1, 1] = yy + eps2 * xx
    out[nz, 0, 1] = out[nz, 1, 0] = (1.0 - eps2) * xy
    out[zero] = eps2 * np.eye(2)
    return out
