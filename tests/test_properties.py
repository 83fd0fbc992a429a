"""Property tests over randomly drawn norms and points, beyond the seeded catalog."""

import numpy as np
import pytest

import finslercurv as fc
from finslercurv import indicatrix as ind
from finslercurv.autodiff import gradients
from finslercurv.metrics import energy_field

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from test_indicatrix import report_bits  # noqa: E402


@st.composite
def randers_norms(draw):
    """Randers data: SPD a = r r^T + n I with r entries in [-1, 1], b^T a^-1 b <= 0.998."""
    dim = draw(st.integers(2, 8))
    entries = st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False)
    r = np.array(draw(st.lists(entries, min_size=dim * dim, max_size=dim * dim)))
    r = r.reshape(dim, dim)
    a = r @ r.T + dim * np.eye(dim)
    a = 0.5 * (a + a.T)
    b0 = np.array(draw(st.lists(entries, min_size=dim, max_size=dim)))
    strength = draw(st.floats(0.0, 0.998))
    s = float(b0 @ np.linalg.solve(a, b0))
    b = b0 * np.sqrt(strength / s) if s > 0.0 else np.zeros(dim)
    return fc.randers(a, b)


@hypothesis.settings(max_examples=25)
@hypothesis.given(fund=randers_norms(), count=st.integers(1, 24),
                  chunk=st.integers(1, 7), seed=st.integers(0, 2**16))
def test_batched_reports_match_solo_and_claims_hold(fund, count, chunk, seed):
    # small chunks make the draw cross chunk boundaries cheaply
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ind, "chunk_points", lambda dim: chunk)
        summary = fc.verify_claims(fund, count=count, seed=seed, methods=("hyperdual",))
    reports = summary.reports["hyperdual"]
    assert len(reports) == count
    for point, rep in zip(summary.points, reports):
        assert report_bits(rep) == report_bits(fc.adapted_report(fund, point))
    assert summary.passed
    stats = summary.stats["hyperdual"]
    assert stats.max_residual_H <= summary.tol
    assert stats.max_residual_trace <= summary.tol
    assert stats.max_residual_umbilic <= summary.tol


POWER_SUMS = {"pnorm": (fc.pnorm, "p"), "mroot": (fc.mroot, "m")}


@st.composite
def guarded_power_sums(draw):
    """A power sum with p in {2, 4, 6, 8}, n in 2..8, and 1-6 rows inside its guard.

    Magnitudes in [0.25, 4] keep min|y_i| >= 0.25 > 0.01 * 4 * sqrt(8) >= margin * ||y||.
    """
    family = draw(st.sampled_from(sorted(POWER_SUMS)))
    fund = POWER_SUMS[family][0](draw(st.integers(2, 8)), draw(st.sampled_from((2, 4, 6, 8))))
    size = draw(st.integers(1, 6)) * fund.dim
    magnitude = np.array(draw(st.lists(st.floats(0.25, 4.0), min_size=size, max_size=size)))
    negative = np.array(draw(st.lists(st.booleans(), min_size=size, max_size=size)))
    rows = np.where(negative, -magnitude, magnitude).reshape(-1, fund.dim)
    assert fund.guard_rows(rows).all()
    return fund, rows


@hypothesis.given(case=guarded_power_sums())
def test_power_sums_exactly_even(case):
    # sum |y_i|^p: pow never sees the sign, so F and g are even and grad F odd, bit for bit
    fund, y = case
    assert np.array_equal(fc.eval_F(fund, -y), fc.eval_F(fund, y))
    field = energy_field(fund)
    value, grad, hess = fc.grad_hess(field, y)
    value_neg, grad_neg, hess_neg = fc.grad_hess(field, -y)
    assert np.array_equal(value_neg, value) and np.array_equal(hess_neg, hess)
    assert np.array_equal(grad_neg, -grad)
    assert np.array_equal(gradients(field, -y)[1], -grad)
    # the float route and the real part of the dual route agree
    assert np.array_equal(gradients(fc.ScalarField(fund.dim, fund.value), y)[0],
                          fc.eval_F(fund, y))


# ---------------------------------------------------------------------------
# Metric-spec grammar round trip
# ---------------------------------------------------------------------------

@hypothesis.given(family=st.sampled_from(("euclidean", "pnorm", "mroot")),
                  dim=st.integers(2, 10), half=st.integers(1, 8))
def test_describe_round_trips(family, dim, half):
    fund = fc.euclidean(dim) if family == "euclidean" else POWER_SUMS[family][0](dim, 2 * half)
    again = fc.parse_metric_spec(fund.describe(), dim)
    assert (again.family, again.dim, again.exponent, again.guard_margin) == \
        (fund.family, fund.dim, fund.exponent, fund.guard_margin)


@hypothesis.given(family=st.sampled_from(sorted(POWER_SUMS)), exponent=st.integers(-10, 40))
def test_power_sum_exponents(family, exponent):
    key = POWER_SUMS[family][1]
    spec = f"{family}:{key}={exponent}"
    if exponent >= 2 and exponent % 2 == 0:
        assert fc.parse_metric_spec(spec, 3).exponent == exponent
    else:
        with pytest.raises(fc.UsageError, match=f"^{key} must be an even integer >= 2, "
                                               f"got {exponent}$"):
            fc.parse_metric_spec(spec, 3)


@pytest.mark.parametrize("family", sorted(POWER_SUMS))
def test_power_sum_spec_messages(family):
    key = POWER_SUMS[family][1]
    for spec, message in ((family, f"{family} needs exactly the parameter {key}"),
                          (f"{family}:{key}=4,6", f"{key} must be a single integer"),
                          (f"{family}:{key}=x", f"{key} must be an integer, got 'x'")):
        with pytest.raises(fc.UsageError) as caught:
            fc.parse_metric_spec(spec, 3)
        assert str(caught.value) == message


positive = st.floats(1e-3, 1e3, allow_nan=False, allow_infinity=False)


@hypothesis.given(values=st.lists(positive, min_size=2, max_size=8))
def test_diagonal_quadratic_spec_is_exact(values):
    spec = "quadratic:A=" + ",".join(repr(v) for v in values)
    fund = fc.parse_metric_spec(spec, len(values))
    assert np.array_equal(fund.matrix, np.diag(values))


@hypothesis.given(data=st.data(), dim=st.integers(2, 8), strength=st.floats(0.0, 0.9))
def test_diagonal_randers_spec_is_exact(data, dim, strength):
    diag = data.draw(st.lists(positive, min_size=dim, max_size=dim))
    b0 = np.array(data.draw(st.lists(st.floats(-1.0, 1.0), min_size=dim, max_size=dim)))
    s = float(np.sum(b0 * b0 / diag))
    b = b0 * np.sqrt(strength / s) if s > 0.0 else np.zeros(dim)
    spec = ("randers:a=" + ",".join(repr(v) for v in diag)
            + ",b=" + ",".join(repr(float(v)) for v in b))
    fund = fc.parse_metric_spec(spec, dim)
    assert np.array_equal(fund.matrix, np.diag(diag))
    assert np.array_equal(fund.drift, b)
