import json
import re
import warnings

import numpy as np
import pytest

import finslercurv as fc
from finslercurv.exceptions import (
    DimensionMismatch,
    DomainViolation,
    InvalidParams,
    NotPositiveDefinite,
    UsageError,
)
from finslercurv.metrics import energy_field, parse_metric_spec

from conftest import catalog, interior_points, seeded_randers, seeded_spd

DIMS = (2, 3, 4, 6)


class TestEvalF:
    def test_euclidean(self):
        assert fc.eval_F(fc.euclidean(2), [3.0, 4.0]) == 5.0

    def test_randers(self):
        fund = fc.randers(np.eye(2), [0.5, 0.0])
        assert fc.eval_F(fund, [1.0, 0.0]) == 1.5

    def test_pnorm(self):
        assert abs(fc.eval_F(fc.pnorm(2, 4), [1.0, 1.0]) - 2.0 ** 0.25) <= 1e-15

    def test_mroot(self):
        assert abs(fc.eval_F(fc.mroot(2, 6), [1.0, 1.0]) - 2.0 ** (1 / 6)) <= 1e-15

    def test_guard_rejects_origin(self):
        with pytest.raises(DomainViolation):
            fc.eval_F(fc.euclidean(2), [0.0, 0.0])

    def test_guard_rejects_hyperplane_band(self):
        with pytest.raises(DomainViolation):
            fc.eval_F(fc.pnorm(3, 4), [1.0, 1.0, 1e-4])

    @pytest.mark.parametrize("shape", [(2,), (1, 4)])
    def test_wrong_shape_is_a_dimension_mismatch(self, shape):
        # one shape check for the value and for its derivatives
        fund = fc.euclidean(3)
        y = np.ones(shape)
        message = re.escape(f"point shape {shape} does not match dim 3")
        for evaluate in (lambda: fc.eval_F(fund, y),
                         lambda: fc.grad_hess(energy_field(fund), y)):
            with pytest.raises(DimensionMismatch, match=message):
                evaluate()


class TestConstruction:
    def test_randers_convexity_enforced(self):
        with pytest.raises(InvalidParams):
            fc.randers(np.eye(2), [1.0, 0.0])
        with pytest.raises(InvalidParams):
            fc.randers(np.eye(2), [0.999999999, 0.0])

    def test_randers_near_boundary_accepted(self):
        fc.randers(np.eye(2), [0.99, 0.0])

    def test_randers_margin_brackets(self):
        # RANDERS_MARGIN = 1e-6: b^T a^-1 b = 1 - 1.5e-6 passes, 1 - 7.5e-7 is rejected
        fc.randers(np.eye(2), [np.sqrt(1.0 - 1.5e-6), 0.0])
        with pytest.raises(InvalidParams, match="^randers data not strongly convex"):
            fc.randers(np.eye(2), [np.sqrt(1.0 - 7.5e-7), 0.0])

    def test_odd_exponent_rejected(self):
        with pytest.raises(InvalidParams):
            fc.pnorm(3, 3)
        with pytest.raises(InvalidParams):
            fc.mroot(3, 5)

    def test_non_spd_rejected(self):
        with pytest.raises(InvalidParams):
            fc.quadratic(np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_one_ulp_asymmetry_rejected(self):
        a = np.array([[2.0, 0.5], [0.5, 1.0]])
        a[0, 1] = np.nextafter(0.5, 1.0)
        for build in (lambda: fc.quadratic(a), lambda: fc.randers(a, [0.1, 0.0])):
            with pytest.raises(InvalidParams, match="must be symmetric"):
                build()

    @pytest.mark.parametrize("a, message", [
        ([[2.0, 1.0], [0.5, 2.0]], "quadratic matrix must be symmetric"),
        ([[1.0, np.nan], [np.nan, 1.0]], "quadratic matrix must have finite entries"),
        ([[1.0, 2.0], [2.0, 1.0]], "quadratic matrix must be positive definite"),
    ])
    def test_matrix_check_messages(self, a, message):
        with pytest.raises(InvalidParams) as info:
            fc.quadratic(a)
        assert str(info.value) == message

    def test_matrix_stored_as_given(self):
        # no symmetrization: a + a.T would overflow at 1e308
        a = np.diag([1e308, 1e300])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fund = fc.quadratic(a)
        assert np.isfinite(fund.matrix).all() and np.array_equal(fund.matrix, a)
        a[0, 0] = 1.0
        assert fund.matrix[0, 0] == 1e308  # the norm keeps its own copy

    def test_non_finite_randers_covector_rejected(self):
        # b^T a^-1 b is NaN here, which a plain `>=` comparison lets through
        with pytest.raises(InvalidParams, match="covector must have finite entries"):
            fc.randers(np.eye(2), [np.inf, 0.0])

    def test_non_finite_matrix_rejected(self):
        with pytest.raises(InvalidParams, match="matrix must have finite entries"):
            fc.quadratic(np.diag([1.0, 1.0, np.nan]))
        with pytest.raises(InvalidParams, match="matrix must have finite entries"):
            fc.randers(np.diag([1.0, np.inf]), [0.1, 0.0])

    @pytest.mark.parametrize("margin", [np.nan, np.inf, -0.1, 1.0, "abc", None])
    def test_bad_guard_margin_rejected(self, margin):
        with pytest.raises(InvalidParams, match="guard_margin"):
            fc.pnorm(3, 4, guard_margin=margin)
        with pytest.raises(InvalidParams, match="guard_margin"):
            fc.mroot(3, 6, guard_margin=margin)

    @pytest.mark.parametrize("dim", [3, np.int64(3), 3.0])
    def test_integral_dim_stored_as_int(self, dim):
        for fund in (fc.euclidean(dim), fc.pnorm(dim, 4), fc.mroot(dim, 6)):
            assert type(fund.dim) is int and fund.dim == 3

    @pytest.mark.parametrize("dim, message", [
        (3.5, "dim must be an integer"), ("3", "dim must be an integer"),
        (None, "dim must be an integer"), (np.nan, "dim must be an integer"),
        (np.inf, "dim must be an integer"), (1, "dim must be >= 2"),
        (np.int64(0), "dim must be >= 2")])
    def test_bad_dim_rejected(self, dim, message):
        for build in (fc.euclidean, lambda d: fc.pnorm(d, 4), lambda d: fc.mroot(d, 6)):
            with pytest.raises(InvalidParams, match=message):
                build(dim)

    def test_infinite_exponent_rejected(self):
        with pytest.raises(InvalidParams):
            fc.pnorm(3, np.inf)

    def test_one_by_one_matrix_rejected(self):
        # a dim-1 norm has an empty indicatrix tangent space; its order goes through dim
        for build in (lambda: fc.quadratic([[2.0]]), lambda: fc.randers([[2.0]], [0.1])):
            with pytest.raises(InvalidParams, match="dim must be >= 2"):
                build()

    def test_non_square_matrix_rejected(self):
        with pytest.raises(InvalidParams) as info:
            fc.quadratic([[1.0, 2.0, 3.0]])
        assert str(info.value) == "quadratic matrix must be a square matrix"

    def test_covector_length_checked(self):
        with pytest.raises(InvalidParams) as info:
            fc.randers(np.eye(2), [1.0, 2.0, 3.0])
        assert str(info.value) == "randers covector length must match the matrix order"


class TestGuard:
    @pytest.mark.parametrize("family", sorted(catalog(3)))
    def test_one_point_is_its_row(self, family):
        fund = catalog(3)[family]
        for y in ([0.3, -1.2, 0.8], [1.0, 1.0, 1e-4], [0.0, 0.0, 0.0], [np.inf, 1.0, 1.0]):
            y = np.array(y)
            assert fund.guard(y) is bool(fund.guard_rows(y[None])[0])

    @pytest.mark.parametrize("shape", [(2,), (4,), (1, 3), (3, 3)])
    def test_wrong_shape_is_outside(self, shape):
        assert fc.euclidean(3).guard(np.ones(shape)) is False


class TestMetricTensor:
    def test_euclidean_identity(self):
        g = fc.metric_tensor(fc.euclidean(3), [0.2, -1.1, 0.4])
        assert np.max(np.abs(g - np.eye(3))) <= 1e-12

    @pytest.mark.parametrize("dim", DIMS)
    def test_quadratic_constant(self, dim):
        a = seeded_spd(dim, 31)
        fund = fc.quadratic(a)
        for y in interior_points(fund, 10, 77):
            g = fc.metric_tensor(fund, y)
            assert np.max(np.abs(g - a)) <= 1e-12 * np.max(np.abs(a))

    def test_randers_matches_fd(self):
        fund = fc.randers(np.eye(2), [0.3, 0.0])
        y = np.array([1.0, 0.0])
        g = fc.metric_tensor(fund, y)
        _, _, g_fd = fc.fd_grad_hess(energy_field(fund), y, 1e-5)
        assert np.max(np.abs(g - g_fd)) <= 1e-6

    @pytest.mark.parametrize("family", ("euclidean", "quadratic", "randers", "pnorm", "mroot"))
    @pytest.mark.parametrize("dim", DIMS)
    def test_spd_and_zero_homogeneous(self, family, dim):
        fund = catalog(dim)[family]
        for index, y in enumerate(interior_points(fund, 100, 500 + dim)):
            g = fc.metric_tensor(fund, y)  # SPD check inside
            if index % 10 == 0:
                for lam in (0.5, 2.0, 10.0):
                    g_scaled = fc.metric_tensor(fund, lam * y)
                    assert np.max(np.abs(g_scaled - g)) <= 1e-9 * np.max(np.abs(g))

    @pytest.mark.parametrize("family", ("euclidean", "quadratic", "randers", "pnorm", "mroot"))
    def test_hyperdual_fd_agreement(self, family):
        fund = catalog(3)[family]
        for y in interior_points(fund, 10, 900):
            _, _, g = fc.grad_hess(energy_field(fund), y)
            _, _, g_fd = fc.fd_grad_hess(energy_field(fund), y, 1e-4)
            bound = max(1e-6 * np.max(np.abs(g)), 1e-8)
            assert np.max(np.abs(g - g_fd)) <= bound

    def test_degenerate_metric_rejected(self):
        # off-guard hyperplane point where the quartic-norm metric degenerates
        fund = fc.pnorm(2, 4, guard_margin=0.0)
        with pytest.raises(NotPositiveDefinite):
            fc.metric_tensor(fund, [1.0, 0.0])


class TestHomogeneity:
    def test_euclidean_exact(self):
        res_f, res_g = fc.check_homogeneity(fc.euclidean(2), [1.0, 2.0], 3.0)
        assert res_f <= 1e-15 and res_g <= 1e-15

    def test_randers_seeded(self):
        a, b = seeded_randers(3, 5)
        fund = fc.randers(a, b)
        for y in interior_points(fund, 20, 6):
            res_f, res_g = fc.check_homogeneity(fund, y, 0.5)
            assert res_f <= 1e-10 and res_g <= 1e-10

    @pytest.mark.parametrize("lam", [np.inf, np.nan, 0.0, -1.0])
    def test_lambda_must_be_finite_and_positive(self, lam):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # rejected before any arithmetic warns
            with pytest.raises(InvalidParams, match="^lambda must be finite and positive$"):
                fc.check_homogeneity(fc.euclidean(2), [1.0, 2.0], lam)

    @pytest.mark.parametrize("lam", [1e308, 2.0 ** 1023])
    def test_scaled_point_must_be_finite(self, lam):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # rejected before any arithmetic warns
            with pytest.raises(InvalidParams, match=r"^lambda \* y must be finite$"):
                fc.check_homogeneity(fc.euclidean(3), [1.0, 2.0, 3.0], lam)

    @pytest.mark.parametrize("family", ("euclidean", "quadratic", "randers", "pnorm", "mroot"))
    def test_euler_identity(self, family):
        # gradient of F^2/2 dotted with y equals F^2
        fund = catalog(4)[family]
        for y in interior_points(fund, 25, 800):
            _, grad, _ = fc.grad_hess(energy_field(fund), y)
            f2 = fc.eval_F(fund, y) ** 2
            assert abs(float(grad @ y) - f2) <= 1e-10 * f2


class TestSpecGrammar:
    def test_euclidean(self):
        fund = parse_metric_spec("euclidean", dim=3)
        assert fund.family == "euclidean" and fund.dim == 3

    def test_quadratic_diagonal(self):
        fund = parse_metric_spec("quadratic:A=4,1", dim=2)
        assert np.array_equal(fund.matrix, np.diag([4.0, 1.0]))

    def test_quadratic_file(self, tmp_path):
        path = tmp_path / "a.json"
        path.write_text(json.dumps({"order": 2, "entries": [2.0, 0.5, 0.5, 1.0]}))
        fund = parse_metric_spec(f"quadratic:A=@{path}", dim=2)
        assert np.array_equal(fund.matrix, [[2.0, 0.5], [0.5, 1.0]])

    @pytest.mark.parametrize("payload, message", [
        ({"order": 2, "entries": [2.0, 0.5, 0.5, 1.0]}, "^metric has dimension 2 but dim is 3$"),
        ({"order": 3, "entries": [1.0, 0.0, 0.0, 1.0]}, "entries length must be order\\*\\*2$"),
    ], ids=["order-below-dim", "short-entries"])
    def test_bad_quadratic_file(self, tmp_path, payload, message):
        path = tmp_path / "a.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(UsageError, match=message):
            parse_metric_spec(f"quadratic:A=@{path}", dim=3)

    def test_randers_inline(self, tmp_path):
        path = tmp_path / "a.json"
        path.write_text(json.dumps({"order": 3, "entries": list(np.eye(3).ravel())}))
        fund = parse_metric_spec(f"randers:a=@{path},b=0.3,0,0", dim=3)
        assert fund.family == "randers"
        assert np.array_equal(fund.drift, [0.3, 0.0, 0.0])

    def test_exponent_families(self):
        assert parse_metric_spec("pnorm:p=4", dim=3).exponent == 4
        assert parse_metric_spec("mroot:m=6", dim=2).exponent == 6

    @pytest.mark.parametrize("bad", [
        "", "unknown", "pnorm:p=3", "pnorm:p=x", "pnorm", "euclidean:x=1",
        "quadratic", "quadratic:A=", "quadratic:A=1,oops",
        "randers:a=1,1", "randers:b=0.3", "randers:a=1,1,b=2,0,0",
        "euclidean ", "pnorm:p=4,p=4", "quadratic:A=@/nonexistent.json",
        "randers:a=@/nonexistent.json,b=0.1,0",
    ])
    def test_malformed_specs(self, bad):
        with pytest.raises(UsageError):
            parse_metric_spec(bad, dim=3)

    @pytest.mark.parametrize("bad, message", [
        ("pnorm:p= 4", "metric spec must be a non-empty whitespace-free string"),
        ("pnorm:p=4,p=6", "bad parameter token 'p=6'"),
        ("pnorm:=4", "bad parameter token '=4'"),
    ])
    def test_malformed_spec_messages(self, bad, message):
        with pytest.raises(UsageError, match=f"^{re.escape(message)}$"):
            parse_metric_spec(bad, dim=3)

    def test_dim_mismatch(self):
        with pytest.raises(UsageError):
            parse_metric_spec("quadratic:A=4,1", dim=3)

    def test_missing_dim(self):
        with pytest.raises(UsageError):
            parse_metric_spec("euclidean", dim=None)
