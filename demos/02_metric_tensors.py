"""Metric tensors of Minkowski norms via hyperdual differentiation.

For a 1-homogeneous norm F the metric tensor is the Hessian of the
energy F^2/2. It depends on the direction y (except in the quadratic
case), is positive definite away from the norm's bad set, and is
0-homogeneous: g(lambda * y) = g(y).
"""

import numpy as np

import finslercurv as fc

# ----------------------------------------------------------------------
# Quadratic norms reproduce their defining matrix, at every direction.
# ----------------------------------------------------------------------
a = np.array([[2.0, 0.5], [0.5, 1.0]])
fund = fc.quadratic(a)
for y in ([1.0, 0.0], [0.3, -1.1]):
    g = fc.metric_tensor(fund, y).entries
    print(f"quadratic at {y}: max |g - A| = {np.max(np.abs(g - a)):.1e}")

# ----------------------------------------------------------------------
# A Randers norm F = sqrt(y^T a y) + b . y is genuinely non-Riemannian:
# its metric tensor varies with the direction.
# ----------------------------------------------------------------------
fund = fc.randers(np.eye(2), [0.4, 0.0])
g_east = fc.metric_tensor(fund, [1.0, 0.0]).entries
g_north = fc.metric_tensor(fund, [0.0, 1.0]).entries
print("\nranders metric, direction (1,0):")
print(np.round(g_east, 6))
print("randers metric, direction (0,1):")
print(np.round(g_north, 6))

# 0-homogeneity: scaling the direction leaves the tensor unchanged.
for lam in (0.5, 2.0, 10.0):
    g = fc.metric_tensor(fund, [lam, 0.0]).entries
    print(f"  |g(lambda y) - g(y)| at lambda={lam:4.1f}: "
          f"{np.max(np.abs(g - g_east)):.1e}")

# ----------------------------------------------------------------------
# Quartic norm (sum y_i^4)^(1/4). Its metric degenerates on the
# coordinate hyperplanes, which the guard band excludes.
# ----------------------------------------------------------------------
fund = fc.pnorm(3, 4)
y = np.array([1.0, 0.7, -0.4])
g = fc.metric_tensor(fund, y).entries
eigs = np.linalg.eigvalsh(g)
print(f"\nquartic norm metric eigenvalues at {y}: "
      + ", ".join(f"{e:.4f}" for e in eigs))

# Euler's identity for homogeneous functions: grad(F^2/2) . y = F^2.
res_f, res_g = fc.check_homogeneity(fund, y, 3.0)
print(f"homogeneity residuals (F, g): {res_f:.1e}, {res_g:.1e}")
