"""Discrete differential calculus: norms, Holder seminorms, embeddings."""
import numpy as np

import meyers_lab as ml

tri = ml.triangulate(ml.Polygon.unit_square(), 2.0**-3)
g = ml.from_triangulation(tri)

vals = np.sin(2 * np.pi * tri.points[:, 0]) * tri.points[:, 1]
lp = ml.lp_norm(g, vals, 2.2)
grad_lp = ml.lp_norm(g, ml.gradient_length(g, vals), 2.2)
df_lp = ml.edge_lp_norm(g, ml.differential(g, vals), 2.2)

print("one function, every norm (eta = 1/2):")
print(f"  ||f||_2.2 = {lp:.5f}   ||grad f||_2.2 = {grad_lp:.5f}")
print(f"  ||f||_W1p = {ml.w1p_norm(g, vals, 2.2):.5f}  ||df||_(edges) = {df_lp:.5f}")
print(f"  Holder seminorm = {ml.holder_seminorm(g, vals, 0.5):.5f}, "
      f"full norm = {ml.holder_norm(g, vals, 0.5):.5f}")

K = ml.df_grad_bracket(g, 2.2)
print(f"\nedge vs vertex gradient bracket from (N, C_W, C_mu): K = {K:.3f}; "
      f"observed ratio = {df_lp / grad_lp:.3f}")

print("\nembedding ratios across a refinement family (volume exponent 2):")
tri_k = ml.triangulate(ml.Polygon.unit_square(), 2.0**-2)
for _ in range(4):
    gk = ml.from_triangulation(tri_k)
    rep = ml.embedding_report(gk, 1.5, 4.0, trials=20, seed=5)
    print(f"  h = {tri_k.h:.4f}: ||f||_6 / ||grad f||_1.5 <= "
          f"{rep.sobolev_ratio_max:.4f} (p* = {rep.p_star:.0f}), "
          f"||f||_C^0.5 / ||f||_W1,4 <= {rep.holder_ratio_max:.4f}")
    tri_k = ml.refine_red(tri_k)
