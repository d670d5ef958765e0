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


# terms of the torsion series (odd k up to this cap), and the band caps
_TORSION_TERMS = 2001
_TORSION_CAPS = (65, 129, 257, 513, 1025, _TORSION_TERMS)
# points x terms per chunk of a band's points; see _torsion_bands
_TORSION_CELLS = 1 << 16


def _torsion_bands(y: np.ndarray):
    """Yield (points, k, k pi) per chunk of a band of points grouped by
    distance to the y-boundary, ``points`` the chunk's point indices; the
    series factors decay like exp(-k pi dist), so far points need few terms.
    Callers form the factors, so no chunk's arrays outlive it.

    A mesh's quadrature points repeat their coordinates (level 6: 49,152
    points, 632 distinct x and 642 distinct y), so callers tabulate the x and
    y factors on a chunk's distinct coordinates (``np.unique``) and gather
    their rows per point: sin, cos and exp run once per distinct value and
    term, and each gathered entry is bitwise the one the point's own
    coordinate gives.

    A chunk holds about _TORSION_CELLS = 2^16 points x terms, 512 KiB per
    factor array, so a caller's few factor arrays stay a few MiB at any
    point count; whole bands of a level-6 mesh's quadrature points held tens
    of MiB and set rate_theta's peak memory. Callers sum each point's terms
    with ``np.einsum`` in an order fixed by the terms alone, so every value
    is bitwise the one the whole band gives, at any chunk size and BLAS
    thread count."""
    dist = np.minimum(y, 1.0 - y)
    with np.errstate(divide="ignore"):
        needed = np.where(dist > 0, np.log(1e9) / (np.pi * np.maximum(dist, 1e-300)),
                          np.inf)
    needed = np.clip(needed, _TORSION_CAPS[0], _TORSION_TERMS)
    band_of = np.searchsorted(_TORSION_CAPS, needed, side="left")
    for band, cap in enumerate(_TORSION_CAPS):
        members = np.flatnonzero(band_of == band)
        if len(members):
            k = np.arange(1, cap + 1, 2, dtype=float)
            step = max(1, _TORSION_CELLS // len(k))
            for pts in np.split(members, np.arange(step, len(members), step)):
                yield pts, k, np.pi * k


def torsion_value(points) -> np.ndarray:
    """Series solution of the unit-square torsion problem at given points.

    Solves div(grad u) = -1 with zero boundary values: u = x(1-x)/2 minus the
    odd-k sine series that corrects the boundary layers in y.

    Per chunk of ``_torsion_bands`` the sine and the y ratio are tables on
    the chunk's distinct x and y, gathered per point into the product
    ``sin[ix] * ratio[iy]``: the same factors multiplied in the same order
    as per point, so every value is bitwise the per-point series.
    """
    p = np.atleast_2d(np.asarray(points, dtype=float))
    x, y = p[:, 0], p[:, 1]
    out = x * (1.0 - x) / 2.0
    for pts, k, kpi in _torsion_bands(y):
        xs, ix = np.unique(x[pts], return_inverse=True)
        ys, iy = np.unique(y[pts], return_inverse=True)
        # cosh(k pi (y - 1/2)) / cosh(k pi / 2), overflow-free
        ratio = (np.exp(-np.outer(1.0 - ys, kpi)) + np.exp(-np.outer(ys, kpi))) \
            / (1.0 + np.exp(-kpi))
        out[pts] -= np.einsum("ij,j->i", np.sin(np.outer(xs, kpi))[ix] * ratio[iy],
                              4.0 / (np.pi**3 * k**3))
    return out


def torsion_gradient(points) -> np.ndarray:
    """Gradient of ``torsion_value``, tabulated on distinct coordinates as
    there; each product is formed as per point, the x factor times the y
    sum before the division by the denominator (dividing the y sum first
    moves the last bit)."""
    p = np.atleast_2d(np.asarray(points, dtype=float))
    x, y = p[:, 0], p[:, 1]
    ux = (1.0 - 2.0 * x) / 2.0
    uy = np.zeros_like(x)
    for pts, k, kpi in _torsion_bands(y):
        xs, ix = np.unique(x[pts], return_inverse=True)
        ys, iy = np.unique(y[pts], return_inverse=True)
        e_top = np.exp(-np.outer(1.0 - ys, kpi))
        e_bot = np.exp(-np.outer(ys, kpi))
        denom = 1.0 + np.exp(-kpi)
        coef = 4.0 / (np.pi**2 * k**2)
        ux[pts] -= np.einsum("ij,j->i", np.cos(np.outer(xs, kpi))[ix] * (e_top + e_bot)[iy]
                             / denom, coef)
        uy[pts] -= np.einsum("ij,j->i", np.sin(np.outer(xs, kpi))[ix] * (e_top - e_bot)[iy]
                             / denom, coef)
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
