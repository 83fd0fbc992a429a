"""Property tests over randomly drawn Randers norms, beyond the seeded catalog."""

import numpy as np
import pytest

import finslercurv as fc
from finslercurv import indicatrix as ind

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from test_indicatrix import report_bits  # noqa: E402


@st.composite
def randers_norms(draw):
    """Randers data: SPD a = r r^T + n I with r entries in [-1, 1], b^T a^-1 b <= 0.9."""
    dim = draw(st.integers(2, 8))
    entries = st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False)
    r = np.array(draw(st.lists(entries, min_size=dim * dim, max_size=dim * dim)))
    r = r.reshape(dim, dim)
    a = r @ r.T + dim * np.eye(dim)
    a = 0.5 * (a + a.T)
    b0 = np.array(draw(st.lists(entries, min_size=dim, max_size=dim)))
    strength = draw(st.floats(0.0, 0.9))
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


# ---------------------------------------------------------------------------
# Metric-spec grammar round trip
# ---------------------------------------------------------------------------

POWER_SUMS = {"pnorm": (fc.pnorm, "p"), "mroot": (fc.mroot, "m")}


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
