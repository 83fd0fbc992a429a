"""The unit sphere of any Minkowski norm has constant mean curvature 1.

Measured in the Riemannian metric the norm itself induces, the
indicatrix {F = 1} is totally umbilical with every principal curvature
equal to 1 — for every norm family, in every dimension. This script
runs the claim-verification batch over a small catalog and prints the
worst residuals observed.
"""

import numpy as np

import finslercurv as fc


def seeded_spd(dim, seed):
    rng = np.random.default_rng(seed)
    r = rng.standard_normal((dim, dim))
    m = r @ r.T + dim * np.eye(dim)
    return 0.5 * (m + m.T)


def build_catalog(dim):
    a = seeded_spd(dim, 11)
    rng = np.random.default_rng(12)
    b = rng.standard_normal(dim)
    b *= np.sqrt(0.64 / (b @ np.linalg.solve(a, b)))
    return {
        "euclidean": fc.euclidean(dim),
        "quadratic": fc.quadratic(seeded_spd(dim, 13)),
        "randers": fc.randers(a, b),
        "pnorm p=4": fc.pnorm(dim, 4),
        "mroot m=6": fc.mroot(dim, 6),
    }


print(f"{'metric':<12} {'dim':>3} {'max |H-1|':>10} {'max |tr-n|':>10} "
      f"{'umbilic':>10} {'oracle gap':>10}")
for dim in (2, 3, 5):
    for name, fund in build_catalog(dim).items():
        summary = fc.verify_claims(fund, count=50, seed=314, tol=1e-8,
                                   methods=("hyperdual",))
        s = summary.stats["hyperdual"]
        print(f"{name:<12} {dim:>3} {s.max_residual_H:>10.1e} "
              f"{s.max_residual_trace:>10.1e} {s.max_residual_umbilic:>10.1e} "
              f"{s.max_oracle_gap:>10.1e}"
              + ("" if summary.passed else "   FAILED"))

# ----------------------------------------------------------------------
# A closer look at one point: in coordinates adapted to the metric at
# the point, the unit normal is the position vector itself and the
# Hessian of the defining function is the identity.
# ----------------------------------------------------------------------
fund = fc.randers(np.eye(3), [0.3, 0.0, 0.0])
point = fc.sample_indicatrix(fund, 1, 2718)[0]
report = fc.adapted_report(fund, point)
print(f"\none randers point y = {np.round(point.y, 4)}")
print(f"  H                  = {report.H:.15f}")
print(f"  principal curv.    = {np.round(report.principal, 12)}")
print(f"  |normal - y_adapt| = {report.normal_residual:.1e}")
print(f"  ||grad f| - 1|     = {report.grad_norm_residual:.1e}")
