"""Property tests over randomly drawn norms and points, beyond the seeded catalog."""

from dataclasses import replace

import numpy as np
import pytest

import finslercurv as fc
from finslercurv import indicatrix as ind
from finslercurv import autodiff
from finslercurv.autodiff import Dual, HyperDual, gradients
from finslercurv.metrics import energy_field

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from test_controls import EPS, bent  # noqa: E402
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


@hypothesis.settings(max_examples=20)
@hypothesis.given(fund=randers_norms(), data=st.data(), points=st.integers(1, 6),
                  per_point=st.integers(1, 3), pre=st.sampled_from(("none", "matrix", "stack")),
                  seed=st.integers(0, 2**16))
def test_blocks_never_change_bits(fund, data, points, per_point, pre, seed):
    # any budget from 1 float up to the unblocked width gives every route the bits of one
    # unblocked evaluation, and every report the bits of its point alone; a point is a row
    # without a pre-map or under one (n, n) matrix, and a matrix with its rows in a stack
    n = fund.dim
    rng = np.random.default_rng(seed)
    y = rng.standard_normal((points * per_point, n))
    energy = energy_field(fund)
    shape = {"none": None, "matrix": (n, n), "stack": (points, n, n)}[pre]
    fld = energy if shape is None else \
        replace(energy, pre=np.eye(n) + 0.3 * rng.standard_normal(shape))
    routes = (autodiff.grad_hess, autodiff.gradients, autodiff.fd_grad_hess)
    unblocked = len(y) * n * (2 * n * n + 1)  # the widest of the three
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(autodiff, "STACK_FLOATS", unblocked)
        expected = [route(fld, y) for route in routes]
        budget = data.draw(st.integers(1, unblocked), label="budget")
        mp.setattr(autodiff, "STACK_FLOATS", budget)
        for route, want in zip(routes, expected):
            got = route(fld, y)
            assert [part.tobytes() for part in got] == [part.tobytes() for part in want], route
        summary = fc.verify_claims(fund, count=data.draw(st.integers(1, 6), label="count"),
                                   seed=seed)
    for method in ind.METHODS:
        for point, rep in zip(summary.points, summary.reports[method]):
            assert report_bits(rep) == report_bits(fc.adapted_report(fund, point, method))


@hypothesis.settings(max_examples=25)
@hypothesis.given(dim=st.integers(2, 8), seed=st.integers(0, 2**16))
def test_bent_residual_linear_in_delta(dim, seed):
    # H(δ) = 1 + c δ + e with |e| <= E, H's rounding, so R = residual_H = |H - 1| has
    # |R(2δ) - 2 R(δ)| <= |e(2δ) - 2 e(δ)| + O(δ^2) <= 3 E. E = 8 ε is twice the unbent norm's
    # worst |H - 1| (4 ε over 2,700 points at n = 2-8), for the pow rounding a δ adds;
    # 10 ε is the worst measured over that sweep
    one, two = ([rep.residual_H for rep in fc.verify_claims(
        bent(dim, delta), count=10, seed=seed, methods=("hyperdual",)).reports["hyperdual"]]
        for delta in (1e-9, 2e-9))
    assert np.all(np.abs(np.array(two) - 2.0 * np.array(one)) <= 3 * 8 * EPS)


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


@hypothesis.settings(max_examples=40)
@hypothesis.given(family=st.sampled_from(sorted(POWER_SUMS)), dim=st.integers(2, 44),
                  counts=st.tuples(st.integers(1, 6), st.integers(1, 6)),
                  seed=st.integers(0, 2**32))
def test_power_sum_draws_inside_sampling_guard_and_prefix_stable(family, dim, counts, seed):
    fund = POWER_SUMS[family][0](dim, 4)
    short, long = (np.array([p.y for p in fc.sample_indicatrix(fund, count, seed)])
                   for count in sorted(counts))
    sampling = replace(fund, guard_margin=ind.SAMPLING_MARGIN_FACTOR * fund.guard_margin)
    assert sampling.guard_rows(long).all()
    assert np.array_equal(short, long[:len(short)])


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


# ---------------------------------------------------------------------------
# Dual engine: one product per square, one running array per coordinate sum
# ---------------------------------------------------------------------------

SPECIALS = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1e300, -1e300])


def part_bits(parts):
    return [(np.shape(part), np.asarray(part).tobytes()) for part in parts]


@st.composite
def float_arrays(draw, shape, zeros=False):
    """Normal entries at scales 1e-3 to 1e3, where the order of a sum shows in its last bits,
    with up to a fifth replaced by signed zeros, infinities, NaN or overflowing magnitudes;
    all -0.0 if ``zeros``."""
    if zeros:
        return np.full(shape, -0.0)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = np.array(rng.standard_normal(shape) * 10.0 ** rng.integers(-3, 4, shape))
    special = rng.random(shape) < draw(st.sampled_from((0.0, 0.05, 0.2)))
    a[special] = rng.choice(SPECIALS, special.sum())
    return a


@st.composite
def field_arguments(draw, kinds=(Dual, HyperDual), floats=True):
    """A (hyper-)dual of float parts (if ``floats``), or a field argument: real (n, 1, S, P),
    d1 (n, n, 1, P), d12 (n, n(n+1)/2, 1, P), where a slot may be one float; kind None
    gives the real array alone. One draw in four is all -0.0."""
    kind = draw(st.sampled_from(kinds))
    width = 1 if kind is None else len(kind(0.0)._parts())
    zeros = draw(st.integers(0, 3)) == 0
    if floats and draw(st.booleans()):
        return kind(*draw(float_arrays((width,), zeros)).tolist())
    n, blocks, rows = draw(st.integers(1, 4)), draw(st.integers(1, 2)), draw(st.integers(1, 3))
    shapes = [(n, 1, rows, blocks), (n, n, 1, blocks), (n, n * (n + 1) // 2, 1, blocks)]
    real, *slots = [draw(float_arrays(shape, zeros)) for shape in shapes[:width]]
    if kind is None:
        return real
    return kind(real, *[float(draw(float_arrays((), zeros))) if draw(st.booleans()) else slot
                        for slot in slots])


@hypothesis.settings(max_examples=300)
@hypothesis.given(x=field_arguments())
def test_square_matches_general_product(x):
    with np.errstate(all="ignore"):
        square, product = x * x, x * type(x)(*x._parts())
    assert type(square) is type(x)
    assert part_bits(square._parts()) == part_bits(product._parts())


def left_to_right(terms):
    """The reference order: the first term, then each further term added to the sum."""
    acc = terms[0]
    for term in terms[1:]:
        acc = acc + term
    return acc


@hypothesis.settings(max_examples=200)
@hypothesis.given(data=st.data(), x=field_arguments(kinds=(None, Dual, HyperDual), floats=False))
def test_coordinate_sums_run_left_to_right_in_fresh_arrays(data, x):
    parts = x._parts() if isinstance(x, Dual) else (x,)
    n = len(parts[0])
    a = data.draw(float_arrays((n, n)))
    cols = a.T[:, :, None, None, None]
    before = part_bits(parts)
    with np.errstate(all="ignore"):
        sums = [(autodiff.total(x), list),
                (autodiff.matvec(a, x), lambda p: [p[k] * cols[k] for k in range(n)])]
        for result, terms_of in sums:
            want = [left_to_right(terms_of(p if isinstance(p, np.ndarray)
                                           else np.full((n, 1, 1, 1), p))) for p in parts]
            want[0] = want[0] + 0.0  # the real part's sum gains +0.0
            got = result._parts() if isinstance(x, Dual) else (result,)
            assert part_bits(got) == part_bits(want)
            for part in got:
                part[...] = 7.0
            assert part_bits(parts) == before


@hypothesis.given(data=st.data(), n=st.integers(1, 4), blocks=st.integers(1, 3),
                  rows=st.integers(1, 3), zeros=st.booleans())
def test_pre_map_runs_left_to_right_in_a_fresh_array(data, n, blocks, rows, zeros):
    # -0.0 times +0.0: every term is -0.0, and only the sum from +0.0 is +0.0
    pre = data.draw(float_arrays((blocks, n, n), zeros))
    z = np.zeros((blocks * rows, n)) if zeros else data.draw(float_arrays((blocks * rows, n)))
    grouped, before = z.reshape(blocks, rows, n), z.tobytes() + pre.tobytes()
    with np.errstate(all="ignore"):
        got, seeds = autodiff._pulled_back(fc.ScalarField(n, lambda w: w[0], pre=pre), z)
        # the sum from +0.0, as the pre-map's docstring states it
        want = left_to_right([0.0] + [pre[:, None, :, k] * grouped[:, :, k:k + 1]
                                      for k in range(n)])
    # w in the argument layout (n, 1, S, P), and each point's B[i, :] at coordinate i
    assert part_bits([got, seeds]) == part_bits([want.T[:, None],
                                                 pre.transpose(1, 2, 0)[:, :, None]])
    got[...] = 7.0
    seeds[...] = 7.0
    assert z.tobytes() + pre.tobytes() == before
