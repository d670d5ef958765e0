"""P1 Galerkin solves: uniform W^{1,p} bounds, their failure beyond the
critical exponent, and convergence rates against closed-form references."""
import numpy as np

import meyers_lab as ml
from meyers_lab import reference
from meyers_lab.fitting import fit_loglog

poly = ml.Polygon.unit_square()

print("torsion problem (identity coefficients, unit load):")
errs = []
for k in range(3, 7):
    tri = ml.triangulate(poly, 2.0**-k)
    system = ml.assemble(tri, ml.identity_field())
    b = ml.load(system, lambda pts: -np.ones(len(pts)))
    fld = ml.reconstruct(tri, ml.solve(system, b))
    q = fld.quad_points()
    err = fld.w1p_error(reference.torsion_value(q), reference.torsion_gradient(q), 2.0)
    errs.append((tri.h, err))
    center = fld([(0.5, 0.5)])[0] if k == 5 else None
    extra = f", center value {center:.6f}" if center is not None else ""
    print(f"  h = {tri.h:.4f}: W^(1,2) error {err:.5f}{extra}")
print(f"  series value at the center: {reference.torsion_center_value():.6f}")
print(f"  fitted W^(1,2) order: {fit_loglog(errs):.3f}")

print("\ncheckerboard coefficients with contrast 4, p = 2.2:")
vals = []
for k in range(3, 7):
    tri = ml.triangulate(poly, 2.0**-k)
    system = ml.assemble(tri, ml.checkerboard_field(1.0, 4.0))
    b = ml.load(system, lambda pts: np.ones(len(pts)))
    fld = ml.reconstruct(tri, ml.solve(system, b))
    vals.append((tri.h, fld.w1p_norm(2.2)))
    print(f"  h = {tri.h:.4f}: ||u_h||_W(1,2.2) = {vals[-1][1]:.6f}")
print(f"  fitted slope {fit_loglog(vals):+.4f}: "
      "flat, the bound is uniform in h")

print("\nradial/tangential coefficients with eps = 0.5 (critical p = 4):")
prob = ml.meyers_problem(0.5)
sq2 = ml.Polygon.symmetric_square(1.0)
for p in (2.5, 6.0):
    vals = []
    for k in range(3, 7):
        tri = ml.triangulate(sq2, 2.0**-k)
        system = ml.assemble(tri, prob.field)
        b = ml.load(system, prob.f)
        fld = ml.reconstruct(tri, ml.solve(system, b))
        vals.append((tri.h, fld.w1p_norm(p)))
    slope = fit_loglog(vals)
    state = "bounded" if p < prob.p_c else "diverging as h -> 0"
    print(f"  p = {p}: norms {[round(v, 3) for _, v in vals]}  "
          f"slope {slope:+.3f}  ({state})")
print("  the divergence rate is capped by the exact singular solution: "
      "(eps - 1) + 2/p = -1/6 at p = 6")

print("\nHolder norms of the checkerboard solutions (eta = 1/11) and nested")
print("Cauchy differences:")
tri = ml.triangulate(poly, 2.0**-3)
prev = None
for _ in range(4):
    system = ml.assemble(tri, ml.checkerboard_field(1.0, 4.0))
    b = ml.load(system, lambda pts: np.ones(len(pts)))
    u = ml.solve(system, b)
    fld = ml.reconstruct(tri, u)
    line = f"  h = {tri.h:.4f}: ||u_h||_C^eta = {fld.holder_norm(1/11):.6f}"
    if prev is not None:
        ptri, pu = prev
        dfld = ml.reconstruct(tri, ml.mesh.red_prolong(ptri, pu) - u)
        line += f"   ||u_h - u_2h||_C^eta = {dfld.holder_norm(1/11):.2e}"
    print(line)
    prev = (tri, u)
    tri = ml.refine_red(tri)
