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
