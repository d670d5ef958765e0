"""Heat kernels by contour quadrature: oracle agreement, two-regime decay
bounds, and Holder increments."""
import numpy as np

import meyers_lab as ml

g = ml.lattice_box(32, 32)
op = ml.build_operator(g, ml.uniform_coefficients(g))
y = 16 * 32 + 16

print("kernel columns from the sectorial contour (two rays at 3 pi / 4 and")
print("an arc of radius 1/t, one LU per conjugate node pair for this real")
print("operator), checked against the matrix-exponential oracle:")
ts = (0.5, 1.0, 2.0, 4.0)
col = ml.kernel_column(op, ts, y)
for t, values, dev, mass in zip(ts, col.values, col.oracle_dev, col.mass):
    print(f"  t = {t}: K_t(y, y) = {values[y].real:.5f}, "
          f"oracle deviation {dev:.1e}, "
          f"mass sum = {mass:.10f} (equals m(y) = {g.m[y]:.0f})")

fit = ml.kernel_bound_check(col, c_prime=1.0)
print(f"\nlate-regime bound |K| <= (C/t) exp(-beta d^2 / t): "
      f"C = {fit.C:.3f}, beta = {fit.beta:.3f}, "
      f"holds on {fit.pass_rate_b:.0%} of tabulated pairs")
print(f"early-regime bound |K| <= (C/t) exp(-beta d / h*): "
      f"C = {fit.C_a:.3f}, beta = {fit.beta_a:.3f}, "
      f"holds on {fit.pass_rate_a:.0%}")

cpp, eta, rate = ml.kernel_holder_fit(col)
print(f"neighbor increments |K(x) - K(x')| <= (C''/t)(d/sqrt(t))^eta: "
      f"C'' = {cpp:.3f}, eta = {eta:.3f}, holds on {rate:.0%}")

e = np.zeros(g.n)
e[y] = 1.0
half = ml.semigroup_apply(op, 1.0, ml.semigroup_apply(op, 1.0, e))
full = ml.semigroup_apply(op, 2.0, e)
print(f"\nsemigroup property e(-2L) vs e(-L)e(-L): max deviation "
      f"{np.abs(half - full).max():.2e}")
