"""Negative controls: a norm that breaks 1-homogeneity by a known δ, and which checks see it.

In adapted coordinates the Hessian of f = (F^2 - 1)/2 is the identity for any smooth
convex F, so the claims can fail only through homogeneity, rounding, or two evaluations
of g that disagree. The bent norm F = |y|^(1+δ) breaks homogeneity alone: its H - 1 and
its umbilic residual grow like δ, while the Hessian trace (the identity's, by
construction) and the Weingarten oracle (a second route to the same bent field) cannot
see it. normalize_to_indicatrix assumes 1-homogeneity, so its draws miss the level set
by about δ |log F|, and from δ = 1e-6 every point is off the surface.
"""

import dataclasses

import numpy as np
import pytest

import finslercurv as fc
from finslercurv.autodiff import total
from finslercurv.metrics import FundamentalFunction

EPS = np.finfo(float).eps


@dataclasses.dataclass(frozen=True)
class BentNorm(FundamentalFunction):
    """F = |y|^(1+δ): the euclidean norm made (1+δ)-homogeneous."""

    delta: float = 0.0

    def value(self, z):
        return total(z * z) ** ((1.0 + self.delta) / 2)


def bent(dim: int, delta: float) -> BentNorm:
    return BentNorm("bent", dim, delta=delta)


def bent_summary(delta: float):
    return fc.verify_claims(bent(3, delta), count=50, seed=42, methods=("hyperdual",))


@pytest.mark.parametrize("delta", [0.0, 1e-10, 1e-9, 3e-9, 1e-8, 1e-6])
def test_bent_norm_ladder(delta):
    # measured at n = 3, 50 points, seed 42: δ <= 3e-9 passes, δ = 1e-8 is where detection
    # starts, and from δ = 1e-6 every point raises OffSurface
    summary = bent_summary(delta)
    stats = summary.stats["hyperdual"]
    raised = [rep for rep in summary.reports["hyperdual"] if isinstance(rep, Exception)]
    assert all(type(rep) is fc.OffSurface for rep in raised)
    # the trace and the oracle stay at their rounding and truncation levels (8 ε and
    # 6.8e-11 measured) whatever δ is: neither check can see a homogeneity defect
    assert stats.max_residual_trace <= 32 * EPS
    assert stats.max_oracle_gap <= 1e-9
    if delta <= 3e-9:
        assert summary.passed and not stats.failures
    elif delta == 1e-8:
        assert not summary.passed
        assert (len(stats.failures), len(raised)) == (13, 2)
        # through residual_H and residual_umbilic (max 1.43e-8 both); the trace is checked above
        assert stats.max_residual_H > summary.tol and stats.max_residual_umbilic > summary.tol
    else:
        assert not summary.passed
        assert len(raised) == len(stats.failures) == summary.count


def test_bent_residual_doubles_with_delta():
    # residual_H is linear in δ: at 2δ it is twice the one at δ = 1e-9, point by point
    # (1.999992 to 2.000004 measured); property-tested over n and draws in test_properties
    one, two = (np.array([rep.residual_H for rep in bent_summary(d).reports["hyperdual"]])
                for d in (1e-9, 2e-9))
    assert np.all(np.abs(two / one - 2.0) <= 1e-5)


def test_homogeneity_check_measures_the_bend():
    # F(lam y) = lam^(1+δ) F(y) and g(lam y) = lam^(2δ) g(y), so the relative residuals
    # are lam^δ - 1 and lam^(2δ) - 1
    res_f, res_g = fc.check_homogeneity(bent(3, 0.1), [1.0, 2.0, 2.0], 2.0)
    assert abs(res_f - (2.0 ** 0.1 - 1.0)) <= 1e-14
    assert abs(res_g - (2.0 ** 0.2 - 1.0)) <= 1e-13
