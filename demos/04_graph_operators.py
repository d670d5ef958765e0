"""Elliptic operators on lattice boxes: resolvent decay and the exact
rescaling identity."""
import math

import numpy as np

import meyers_lab as ml

g = ml.rescale(ml.lattice_box(64, 64), 1.0 / 64)
sym = ml.build_operator(g, ml.uniform_coefficients(g))
pert = ml.build_operator(g, ml.perturbed_coefficients(g, 0.3))


def spread(values):
    return max(values) / min(values)


def sup_slope(lams, sup):
    return ml.fit_loglog([(abs(lam), s) for lam, s in zip(lams, sup)])


def r_inf(lams, sup):
    return [s * abs(lam) ** 0.5 for lam, s in zip(lams, sup)]


print("resolvent decay along the positive ray (rescaled 64 x 64 box):")
lams = [1, 10, 100, 1000]
sups, hols = ml.resolvent_bound_sweep([sym, pert], lams, eta=0.5)
for name, sup, hol in zip(("symmetric", "perturbed"), sups, hols):
    rows = "  ".join(f"R_inf({abs(lam):.0f}) = {r:.3f}"
                     for lam, r in zip(lams, r_inf(lams, sup)))
    r_eta = [h * abs(lam) ** 0.25 for lam, h in zip(lams, hol)]
    print(f"  {name}: {rows}")
    print(f"    sup-norm slope {sup_slope(lams, sup):+.3f} (the theory says -1/2), "
          f"R_inf spread {spread(r_inf(lams, sup)):.2f}, "
          f"Holder spread {spread(r_eta):.2f}")

print("\nsame sweep along the ray at argument 3 pi / 5:")
phase = np.exp(1j * 3 * math.pi / 5)
lams = [l * phase for l in (1, 10, 100, 1000)]
(sup,), _ = ml.resolvent_bound_sweep([pert], lams, eta=0.5)
print(f"  slope {sup_slope(lams, sup):+.3f}, "
      f"R_inf spread {spread(r_inf(lams, sup)):.2f}")

print("\nrescaling identity (solves on the graph vs the rescaled graph):")
box = ml.lattice_box(24, 24)
op = ml.build_operator(box, ml.uniform_coefficients(box))
f = np.random.default_rng(7).standard_normal(box.n)
for lam in (4.0, 25.0, 100.0):
    u1 = ml.resolvent_solve(op, lam, f)
    gb = ml.rescale(box, math.sqrt(lam))
    opb = ml.build_operator(gb, ml.uniform_coefficients(gb))
    u2 = ml.resolvent_solve(opb, 1.0, f / lam)
    print(f"  lambda = {lam:5.0f}: componentwise deviation "
          f"{np.abs(u1 - u2).max():.2e}")
