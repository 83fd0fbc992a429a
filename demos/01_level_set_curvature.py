"""Mean curvature of implicit surfaces from gradient and Hessian.

A hypersurface given as the zero set of a scalar field f carries a
shape operator that can be read off from f alone:

    S entries = 1 / |grad f| * X_a^T (Hess f) X_b

restricted to a tangent frame {X_a}. This script walks through the
classic sanity cases: spheres (H = 1/r), a hyperplane (H = 0) and an
ellipsoid checked against a finite-difference oracle.
"""

import numpy as np

import finslercurv as fc
from finslercurv.hypersurface import evaluate_defining, shape_operator, weingarten_oracle

# ----------------------------------------------------------------------
# Spheres of radius r: every principal curvature is 1/r.
# ----------------------------------------------------------------------
print("spheres x^2 + y^2 + z^2 = r^2")
for radius in (0.5, 1.0, 2.0, 5.0):
    fld = fc.ScalarField(
        3, lambda z, r=radius: (z[0] * z[0] + z[1] * z[1] + z[2] * z[2] - r * r) * 0.5)
    point = np.array([0.0, 0.0, radius])
    ev = evaluate_defining(fld, point, on_surface=True)
    h = fc.mean_curvature_trace(ev)  # ev.normal points outward
    print(f"  r = {radius:3.1f}   H = {h:.12f}   expected {1.0 / radius:.12f}")

# ----------------------------------------------------------------------
# A hyperplane is flat: the Hessian of an affine field vanishes.
# ----------------------------------------------------------------------
plane = fc.ScalarField(3, lambda z: z[0] + 2.0 * z[1] - z[2] - 0.7)
point = np.array([0.5, 0.2, 0.2])
ev = evaluate_defining(plane, point, on_surface=True)
print(f"\nhyperplane:  H = {fc.mean_curvature_trace(ev):.2e}")

# ----------------------------------------------------------------------
# Ellipsoid x^2/4 + y^2 + z^2 = 1: curvature varies over the surface.
# The shape operator from the Hessian formula is cross-checked against
# a finite-difference derivative of the unit normal field.
# ----------------------------------------------------------------------
ellipsoid = fc.ScalarField(
    3, lambda z: (z[0] * z[0] / 4.0 + z[1] * z[1] + z[2] * z[2] - 1.0) * 0.5)

print("\nellipsoid x^2/4 + y^2 + z^2 = 1")
for theta in (0.3, 1.0, 1.4):
    point = np.array([2.0 * np.cos(theta), np.sin(theta), 0.0])
    ev = evaluate_defining(ellipsoid, point, on_surface=True)
    shape = shape_operator(ev)
    oracle = weingarten_oracle(ellipsoid, point, 1e-5)
    gap = np.max(np.abs(shape.entries - oracle.entries))
    ks = ", ".join(f"{k:.6f}" for k in shape.principal_curvatures)
    print(f"  theta = {theta:.1f}: principal curvatures ({ks}),"
          f"  oracle gap {gap:.1e}")

# The two routes to H agree to rounding:
print(f"\ntrace route vs eigenvalue route at last point: "
      f"{abs(fc.mean_curvature_trace(ev) - shape.mean):.2e}")
