import numpy as np
import pytest

import finslercurv as fc
from finslercurv import autodiff
from finslercurv import indicatrix as ind
from finslercurv.autodiff import HyperDual
from finslercurv.exceptions import DimensionMismatch, DomainViolation


def seeded_cubic(n, seed):
    """Random degree-3 polynomial with hand-expandable derivatives."""
    rng = np.random.default_rng(seed)
    c1 = rng.standard_normal(n)
    c2 = rng.standard_normal((n, n))
    c2 = 0.5 * (c2 + c2.T)
    c3 = rng.standard_normal((n, n, n))

    def func(z):
        total = 0.0
        for i in range(n):
            total = total + z[i] * float(c1[i])
            for j in range(n):
                total = total + z[i] * z[j] * float(c2[i, j])
                for k in range(n):
                    total = total + z[i] * z[j] * z[k] * float(c3[i, j, k])
        return total

    def grad_hess_exact(y):
        grad = c1 + 2.0 * c2 @ y
        hess = 2.0 * c2.copy()
        for i in range(n):
            acc = 0.0
            for j in range(n):
                for k in range(n):
                    acc += (c3[i, j, k] + c3[j, i, k] + c3[j, k, i]) * y[j] * y[k]
            grad[i] += acc
        for i in range(n):
            for j in range(n):
                acc = 0.0
                for k in range(n):
                    acc += (c3[i, j, k] + c3[i, k, j] + c3[j, i, k]
                            + c3[j, k, i] + c3[k, i, j] + c3[k, j, i]) * y[k]
                hess[i, j] += acc
        return grad, hess

    return fc.ScalarField(n, func), grad_hess_exact


class TestHyperDualArithmetic:
    def test_product_rule(self):
        x = HyperDual(2.0, 1.0, 1.0, 0.0)  # seed both slots on one variable
        y = x * x * x  # d^2(x^3)/dx^2 = 6x
        assert y.real == 8.0 and y.d1 == 12.0 and y.d12 == 12.0

    def test_division(self):
        x = HyperDual(2.0, 1.0, 1.0, 0.0)
        y = 1.0 / x
        assert y.real == 0.5
        assert abs(y.d1 + 0.25) <= 1e-16
        assert abs(y.d12 - 0.25) <= 1e-16  # second derivative of 1/x is 2/x^3

    def test_sqrt(self):
        x = HyperDual(4.0, 1.0, 1.0, 0.0)
        y = autodiff.sqrt(x)
        assert y.real == 2.0 and y.d1 == 0.25
        assert abs(y.d12 + 1.0 / 32.0) <= 1e-17

    def test_fractional_power(self):
        x = HyperDual(2.0, 1.0, 1.0, 0.0)
        y = x ** 0.25
        r = 2.0 ** 0.25
        assert abs(y.real - r) <= 1e-15
        assert abs(y.d1 - 0.25 * 2.0 ** -0.75) <= 1e-15
        assert abs(y.d12 - 0.25 * -0.75 * 2.0 ** -1.75) <= 1e-15

    def test_negative_base_fractional_power_rejected(self):
        with pytest.raises(DomainViolation):
            HyperDual(-1.0, 1.0, 0.0, 0.0) ** 0.5

    def test_integer_power_at_zero(self):
        y = HyperDual(0.0, 1.0, 1.0, 0.0) ** 2
        assert y.real == 0.0 and y.d1 == 0.0 and y.d12 == 2.0

    def test_exp_log_roundtrip(self):
        x = HyperDual(1.3, 1.0, 1.0, 0.0)
        y = autodiff.log(autodiff.exp(x))
        assert abs(y.real - 1.3) <= 1e-15
        assert abs(y.d1 - 1.0) <= 1e-15
        assert abs(y.d12) <= 1e-15


class TestGradHess:
    def test_polynomial_hand_check(self):
        fld = fc.ScalarField(2, lambda z: z[0] * z[0] * z[1])
        value, grad, hess = fc.grad_hess(fld, [1.0, 1.0])
        assert value == 1.0
        assert np.array_equal(grad, [2.0, 1.0])
        assert np.array_equal(hess, [[2.0, 2.0], [2.0, 0.0]])

    def test_half_sum_of_squares(self):
        fld = fc.ScalarField(3, lambda z: (z[0] * z[0] + z[1] * z[1] + z[2] * z[2]) * 0.5)
        y = np.array([0.3, -1.2, 0.7])
        _, grad, hess = fc.grad_hess(fld, y)
        assert np.allclose(grad, y, rtol=0, atol=1e-16)
        assert np.array_equal(hess, np.eye(3))

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_cubic_exact(self, seed):
        n = 3
        fld, exact = seeded_cubic(n, seed)
        rng = np.random.default_rng(50 + seed)
        y = rng.uniform(-1.0, 1.0, n)
        _, grad, hess = fc.grad_hess(fld, y)
        grad_x, hess_x = exact(y)
        scale = max(1.0, np.max(np.abs(hess_x)))
        assert np.max(np.abs(grad - grad_x)) <= 1e-12 * max(1.0, np.max(np.abs(grad_x)))
        assert np.max(np.abs(hess - hess_x)) <= 1e-12 * scale

    @pytest.mark.parametrize("seed", [4, 5])
    def test_matches_fd_oracle(self, seed):
        n = 4
        fld, _ = seeded_cubic(n, seed)
        rng = np.random.default_rng(60 + seed)
        y = rng.uniform(-1.0, 1.0, n)
        _, grad, hess = fc.grad_hess(fld, y)
        # a cubic has no fourth derivative, so the only FD error at this
        # step is rounding (~1e-16 / h^2)
        _, grad_fd, hess_fd = fc.fd_grad_hess(fld, y, 1e-3)
        scale = max(1.0, np.max(np.abs(hess)))
        assert np.max(np.abs(grad - grad_fd)) <= 1e-6 * max(1.0, np.max(np.abs(grad)))
        assert np.max(np.abs(hess - hess_fd)) <= 1e-6 * scale

    def test_hessian_exactly_symmetric(self):
        fld, _ = seeded_cubic(5, 9)
        _, _, hess = fc.grad_hess(fld, np.linspace(-0.4, 0.8, 5))
        assert np.array_equal(hess, hess.T)

    def test_guard_enforced(self):
        fld = fc.ScalarField(2, lambda z: z[0] + z[1],
                             guard=lambda y: bool(np.linalg.norm(y) > 1.0))
        with pytest.raises(DomainViolation):
            fc.grad_hess(fld, [0.1, 0.1])

    def test_dimension_mismatch(self):
        fld = fc.ScalarField(2, lambda z: z[0])
        with pytest.raises(DimensionMismatch):
            fc.grad_hess(fld, [1.0, 2.0, 3.0])


class TestFiniteDifferences:
    def test_quadratic_hessian(self):
        fld = fc.ScalarField(2, lambda z: (z[0] * z[0] + z[1] * z[1]) * 0.5)
        # large enough step that cancellation noise stays below 1e-9
        _, _, hess = fc.fd_grad_hess(fld, [0.3, 0.7], 1e-3)
        assert np.max(np.abs(hess - np.eye(2))) <= 1e-9

    def test_exponential_second_derivative(self):
        fld = fc.ScalarField(2, lambda z: autodiff.exp(z[0]))
        _, _, hess = fc.fd_grad_hess(fld, [0.0, 0.0], 1e-4)
        assert abs(hess[0, 0] - 1.0) <= 1e-7

    def test_order_two_convergence(self):
        # quartic with large fourth derivative so truncation dominates rounding
        rng = np.random.default_rng(7)
        n = 3
        c4 = rng.standard_normal((n, n, n, n)) * 20.0
        c2 = rng.standard_normal((n, n))

        def quartic(z):
            total = 0.0
            for i in range(n):
                for j in range(n):
                    total = total + z[i] * z[j] * float(c2[i, j])
                    for k in range(n):
                        for l in range(n):
                            total = total + z[i] * z[j] * z[k] * z[l] * float(c4[i, j, k, l])
            return total

        fld = fc.ScalarField(n, quartic)
        y = rng.uniform(-0.5, 0.5, n)
        _, _, exact = fc.grad_hess(fld, y)
        _, _, coarse = fc.fd_grad_hess(fld, y, 1e-4)
        _, _, fine = fc.fd_grad_hess(fld, y, 5e-5)
        err_coarse = np.max(np.abs(coarse - exact))
        err_fine = np.max(np.abs(fine - exact))
        assert 3.5 <= err_coarse / err_fine <= 4.5

    def test_stencil_guard(self):
        fld = fc.ScalarField(2, lambda z: z[0] * z[1],
                             guard=lambda y: bool(np.all(y > 0.0)))
        with pytest.raises(DomainViolation):
            fc.fd_grad_hess(fld, [1e-7, 1.0], 1e-5)

    def test_stacked_rows_match_row_by_row(self):
        # a field without a pre-map, and adapted fields with a (P, n, n) one
        # against their one-point fields; rows at unequal norms get unequal steps
        cubic, _ = seeded_cubic(4, 11)
        rows = np.random.default_rng(12).uniform(-1.5, 1.5, (5, 4))
        fund = fc.pnorm(3, 4)
        points = fc.sample_indicatrix(fund, 6, 13)
        cases = [
            (cubic, rows, [cubic] * len(rows)),
            (ind.adapted_field(fund, points), np.stack([p.y_adapted for p in points]),
             [ind.adapted_field(fund, p) for p in points]),
        ]
        for fld, stacked, solo_fields in cases:
            value, grad, hess = fc.fd_grad_hess(fld, stacked, 1e-4)
            count, n = stacked.shape
            assert (value.shape, grad.shape, hess.shape) == ((count,), (count, n), (count, n, n))
            for i, (solo_fld, row) in enumerate(zip(solo_fields, stacked)):
                v, g, h = fc.fd_grad_hess(solo_fld, row, 1e-4)
                assert isinstance(v, float) and float(value[i]).hex() == v.hex()
                assert grad[i].tobytes() == g.tobytes()
                assert hess[i].tobytes() == h.tobytes()
                assert np.array_equal(h, h.T)
