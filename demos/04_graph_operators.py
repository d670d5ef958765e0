"""Elliptic operators on lattice boxes: accretivity, resolvent decay,
and the exact rescaling identity."""
import math

import numpy as np

import meyers_lab as ml

g = ml.rescale(ml.lattice_box(64, 64), 1.0 / 64)
sym = ml.build_operator(g, ml.uniform_coefficients(g))
pert = ml.build_operator(g, ml.perturbed_coefficients(g, 0.3))

est = ml.accretivity_angle(pert, n_probes=300, seed=0)
print("numerical-range angle of the perturbed operator:")
print(f"  probe lower bound {est.omega_hat:.5f}, edge-argument upper bound "
      f"{est.omega_upper:.5f} (atan 0.3 = {math.atan(0.3):.5f})")
print(f"  working sector half-angle: {est.mu_sector:.4f} rad")



def spread(values):
    return max(values) / min(values)


def sup_slope(sweep):
    return ml.fit_loglog([(abs(r.lam), r.sup_ratio) for r in sweep.rows]).slope


print("\nresolvent decay along the positive ray (rescaled 64 x 64 box):")
for name, op in (("symmetric", sym), ("perturbed", pert)):
    sweep = ml.resolvent_bound_sweep(op, [1, 10, 100, 1000], eta=0.5, seed=0)
    rows = "  ".join(f"R_inf({abs(r.lam):.0f}) = {r.R_inf:.3f}" for r in sweep.rows)
    print(f"  {name}: {rows}")
    print(f"    sup-norm slope {sup_slope(sweep):+.3f} (the theory says -1/2), "
          f"R_inf spread {spread([r.R_inf for r in sweep.rows]):.2f}, "
          f"Holder spread {spread([r.R_eta for r in sweep.rows]):.2f}")

print("\nsame sweep along the ray at argument 3 pi / 5:")
phase = np.exp(1j * 3 * math.pi / 5)
sweep = ml.resolvent_bound_sweep(pert, [l * phase for l in (1, 10, 100, 1000)],
                                 eta=0.5, seed=0)
print(f"  slope {sup_slope(sweep):+.3f}, "
      f"R_inf spread {spread([r.R_inf for r in sweep.rows]):.2f}")

print("\nrescaling identity (solves on the graph vs the rescaled graph):")
box = ml.lattice_box(24, 24)
op = ml.build_operator(box, ml.uniform_coefficients(box))
f = np.random.default_rng(7).standard_normal(box.n)
for lam in (4.0, 25.0, 100.0):
    u1 = ml.resolvent_solve(op, lam, f).u
    gb = ml.rescale(box, math.sqrt(lam))
    opb = ml.build_operator(gb, ml.uniform_coefficients(gb))
    u2 = ml.resolvent_solve(opb, 1.0, f / lam).u
    print(f"  lambda = {lam:5.0f}: componentwise deviation "
          f"{np.abs(u1 - u2).max():.2e}")
