"""Meshes of convex polygons and the weighted graphs they induce.

Walks through the structured criss-cross family of the unit square, red
refinement, and the graph constants that stay fixed along the family.
"""
import numpy as np

import meyers_lab as ml

poly = ml.Polygon.unit_square()
tri = ml.triangulate(poly, 0.5)
print("unit square at grid spacing 1/2:")
print(f"  {tri.n_triangles} congruent right triangles, h = {tri.h:.6f} "
      f"(the cell diagonal), sigma = {tri.sigma:.6f}")

print("\nred refinement halves h and preserves shape regularity:")
fam = [tri]
for _ in range(3):
    fam.append(ml.refine_red(fam[-1]))
for t in fam:
    print(f"  h = {t.h:.6f}  sigma = {t.sigma:.6f}  triangles = {t.n_triangles}")

print("\ninduced weighted graphs (lengths |x-y|, measures |x-y|^2):")
for t in fam:
    g = ml.from_triangulation(t)
    lo, hi = g.m_over_hx2_bracket
    print(f"  h = {t.h:.6f}: max degree {g.N}, C_W = {g.C_W:.4f}, "
          f"C_mu = {g.C_mu:.1f}, m/h_x^2 in [{lo:.2f}, {hi:.2f}]")

g = ml.from_triangulation(fam[1])
center = int(np.argmin(np.abs(g.coords - 0.5).sum(axis=1)))
members, vol = ml.ball(g, center, 0.3)
print(f"\nball around the center at radius 0.3: {len(members)} vertices, "
      f"volume {vol:.5f}")
print(f"tiny radii give singletons: B(x, h_x / C_W) = "
      f"{ml.ball(g, center, g.h_x[center] / g.C_W)[0].tolist()}")

print("\ngeometric constants along the family (radius cap 2.5 h per level,")
print("so the probed ball patterns repeat and the constants are flat):")
tri2 = ml.triangulate(poly, 2.0**-3)
for _ in range(3):
    gg = ml.from_triangulation(tri2)
    geo = ml.geometry_report(gg, 2.5 * tri2.h, sample_count=None, seed=0)
    print(f"  h = {tri2.h:.4f}: C_D = {geo.C_D:.2f}, c_L = {geo.c_L:.2f}, "
          f"C_P = {geo.C_P:.4f}")
    tri2 = ml.refine_red(tri2)

print("\nweight sup near a pair (strict balls, either endpoint touching):")
gpath = ml.WeightedGraph(3, [0, 1], [1, 2], [1.0, 5.0], [1.0, 1.0])
print(f"  path with lengths 1, 5: h*(ends of the short edge) = "
      f"{ml.h_star(gpath, 1, [0])[0]}")
