import operator

import numpy as np
import pytest

import finslercurv as fc
from finslercurv import autodiff
from finslercurv import indicatrix as ind
from finslercurv.autodiff import Dual, HyperDual
from finslercurv.exceptions import DimensionMismatch, DomainViolation
from finslercurv.metrics import energy_field

from conftest import catalog


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
        x = HyperDual(2.0, 1.0, 0.0)  # one variable: a float d1 is its own pair
        y = x * x * x  # d^2(x^3)/dx^2 = 6x
        assert y.real == 8.0 and y.d1 == 12.0 and y.d12 == 12.0

    def test_division(self):
        x = HyperDual(2.0, 1.0, 0.0)
        y = 1.0 / x
        assert y.real == 0.5
        assert abs(y.d1 + 0.25) <= 1e-16
        assert abs(y.d12 - 0.25) <= 1e-16  # second derivative of 1/x is 2/x^3

    def test_sqrt(self):
        x = HyperDual(4.0, 1.0, 0.0)
        y = autodiff.sqrt(x)
        assert y.real == 2.0 and y.d1 == 0.25
        assert abs(y.d12 + 1.0 / 32.0) <= 1e-17

    def test_fractional_power(self):
        x = HyperDual(2.0, 1.0, 0.0)
        y = x ** 0.25
        r = 2.0 ** 0.25
        assert abs(y.real - r) <= 1e-15
        assert abs(y.d1 - 0.25 * 2.0 ** -0.75) <= 1e-15
        assert abs(y.d12 - 0.25 * -0.75 * 2.0 ** -1.75) <= 1e-15

    def test_negative_base_fractional_power_rejected(self):
        with pytest.raises(DomainViolation):
            HyperDual(-1.0, 1.0, 0.0) ** 0.5

    def test_zero_base_fractional_power_and_sqrt_rejected(self):
        # a zero real part is outside both domains: the derivative would divide by zero
        with pytest.raises(DomainViolation, match="^fractional power needs positive real part$"):
            HyperDual(0.0, 1.0) ** 0.5
        with pytest.raises(DomainViolation, match="^sqrt needs positive real part$"):
            autodiff.sqrt(Dual(0.0, 1.0))

    def test_integer_power_at_zero(self):
        y = HyperDual(0.0, 1.0, 0.0) ** 2
        assert y.real == 0.0 and y.d1 == 0.0 and y.d12 == 2.0


class TestReciprocals:
    """Dual / Dual and negative integer powers go through the reciprocal 1/a, -1/a^2, 2/a^3."""

    @pytest.mark.parametrize("kind", [Dual, HyperDual])
    def test_quotient(self, kind):
        # one variable t with x = 3 + 2t, y = 4 + 5t: the quotient rule, twice
        q = kind(3.0, 2.0) / kind(4.0, 5.0)
        assert type(q) is kind
        assert q.real == 3.0 / 4.0
        assert q.d1 == (2.0 * 4.0 - 3.0 * 5.0) / 4.0 ** 2
        if kind is HyperDual:
            assert q.d12 == -2.0 * 5.0 * (2.0 * 4.0 - 3.0 * 5.0) / 4.0 ** 3

    @pytest.mark.parametrize("kind", [Dual, HyperDual])
    @pytest.mark.parametrize("a, k", [(2.0, -1), (2.0, -2), (-2.0, -3)])
    def test_negative_integer_power(self, kind, a, k):
        y = kind(a, 3.0) ** k
        assert type(y) is kind
        assert y.real == a ** k
        assert y.d1 == k * a ** (k - 1) * 3.0
        if kind is HyperDual:
            assert y.d12 == k * (k - 1) * a ** (k - 2) * 9.0

    @pytest.mark.parametrize("kind", [Dual, HyperDual])
    def test_scalar_over_dual(self, kind):
        # c / x is c times the reciprocal: d(2 / x) = -2 / x^2, d2 = 4 / x^3
        q = 2.0 / kind(4.0, 1.0)
        assert type(q) is kind
        assert (q.real, q.d1) == (0.5, -0.125)
        if kind is HyperDual:
            assert q.d12 == 0.0625  # a float d1 seeds both perturbations

    @pytest.mark.parametrize("divide", [
        lambda x: Dual(1.0, 1.0) / x, lambda x: 1.0 / x, lambda x: x ** -2,
        lambda x: HyperDual(1.0, 1.0) / HyperDual(x.real, x.d1)],
        ids=["dual", "float", "power", "hyperdual"])
    def test_zero_real_part_raises(self, divide):
        x = Dual(np.array([1.0, 0.0]), 1.0)
        with pytest.raises(ZeroDivisionError, match="^hyper-dual division by zero real part$"):
            divide(x)


def dual_pair(kind, arrays, seed):
    """Two ``kind`` numbers of random parts: floats, or real (n, 1, S, P) and slots (n, m, 1, P)."""
    rng = np.random.default_rng(seed)
    width = len(kind(0.0)._parts())
    if not arrays:
        return [kind(*rng.standard_normal(width).tolist()) for _ in range(2)]
    shapes = [(3, 1, 4, 2)] + [(3, 5, 1, 2)] * (width - 1)
    return [kind(*[rng.standard_normal(shape) for shape in shapes]) for _ in range(2)]


def shaped_bits(parts):
    return [(np.shape(part), np.asarray(part).tobytes()) for part in parts]


class TestPartwiseOperations:
    """The linear operations act part by part; only the product and lifts mix parts."""

    @pytest.mark.parametrize("arrays", [False, True], ids=["floats", "arrays"])
    @pytest.mark.parametrize("kind", [Dual, HyperDual])
    @pytest.mark.parametrize("c", [0.37, np.float64(-2.5)])
    def test_each_part_follows_its_formula(self, kind, arrays, c):
        x, y = dual_pair(kind, arrays, 5)
        (a, *u), (b, *v) = x._parts(), y._parts()
        cases = [
            (x + y, [a + b] + [p + q for p, q in zip(u, v)]),
            (x - y, [a - b] + [p - q for p, q in zip(u, v)]),
            (x + c, [a + c] + u),
            (x - c, [a - c] + u),
            (c + x, [c + a] + u),
            (c - x, [c - a] + [-p for p in u]),
            (-x, [-a] + [-p for p in u]),
            (x * c, [a * c] + [p * c for p in u]),
            (c * x, [c * a] + [c * p for p in u]),
        ]
        for out, want in cases:
            assert type(out) is kind
            assert shaped_bits(out._parts()) == shaped_bits(want)

    @pytest.mark.parametrize("n, layout", [
        *[pytest.param(n, "contiguous", id=str(n)) for n in (1, 3, 6)],
        *[pytest.param(n, "seeded", id=f"{n}-seeded") for n in (1, 3, 6)],
        pytest.param(6, "wide", id="6-wide")])
    def test_hyperdual_mixes_its_gradient_at_each_index_pair(self, n, layout):
        # pair k's eps1 and eps2 parts are d1 at first[k] and at second[k] on the slot
        # axis (-3): a seeded d1 is _evaluated's contiguous (n, n, 1, P) copy of a
        # (P, n, n) pre-map stack; a wide one spans 16 rows of each point
        rng = np.random.default_rng(n)
        first, second = np.triu_indices(n)
        lead = {"contiguous": (1,), "seeded": (n, 1), "wide": (1,)}[layout]
        rows = 16 if layout == "wide" else 1

        def operand():
            real = rng.standard_normal(lead + (max(rows, 4), 2))  # 4 rows, or the wide 16
            if layout == "seeded":
                d1 = rng.standard_normal((2, n, n)).transpose(1, 2, 0).copy()[:, :, None]
            else:
                d1 = rng.standard_normal((n, rows, 2))
            return HyperDual(real, d1, rng.standard_normal(lead[:-1] + (first.size, rows, 2)))

        x, y = operand(), operand()
        assert x.d1.flags.c_contiguous
        a1, a2 = x.d1[..., first, :, :], x.d1[..., second, :, :]
        b1, b2 = y.d1[..., first, :, :], y.d1[..., second, :, :]
        assert shaped_bits((x * y)._parts()) == shaped_bits([
            x.real * y.real, x.real * y.d1 + x.d1 * y.real,
            x.real * y.d12 + x.d12 * y.real + a1 * b2 + a2 * b1])
        a = np.abs(x.real) + 0.5  # a lift: sqrt at a positive real part
        r = np.sqrt(a)
        assert shaped_bits(autodiff.sqrt(HyperDual(a, x.d1, x.d12))._parts()) == shaped_bits([
            r, (0.5 / r) * x.d1, (0.5 / r) * x.d12 + (-0.25 / (a * r)) * a1 * a2])

    def test_repr_lists_every_part(self):
        assert repr(Dual(1.5, -2.0)) == "Dual(1.5, -2.0)"
        assert repr(HyperDual(1.5, -2.0, 3.0)) == "HyperDual(1.5, -2.0, 3.0)"
        assert repr(HyperDual(np.array([1.0]))) == "HyperDual(array([1.]), 0.0, 0.0)"


def ulp_distance(x, y):
    """Largest number of doubles between x and y, entry by entry; both of one sign."""
    x, y = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
    assert np.array_equal(np.signbit(x), np.signbit(y))
    return int(np.max(np.abs(x.view(np.int64) - y.view(np.int64))))


def as_kind(column, kind):
    """(R, 1) ``column`` as itself or as one Python float per entry."""
    return [column] if kind == "column" else [float(v) for v in column[:, 0]]


class TestIntegerPower:
    """Dual.__pow__ raises |a| to the power and puts the sign back for odd exponents."""

    POSITIVE = np.geomspace(1e-3, 1e3, 257)[:, None]
    KINDS = ("float", "column")

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("k", range(9))
    def test_positive_bases_exact(self, kind, k):
        for a in as_kind(self.POSITIVE, kind):
            expected = a ** k
            assert np.array_equal((HyperDual(a) ** k).real * np.ones_like(a), expected)
            assert np.array_equal(autodiff.power(a, k), expected)

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("k", range(9))
    def test_negative_bases_within_one_ulp(self, kind, k):
        for a in as_kind(-self.POSITIVE, kind):
            real = (HyperDual(a) ** k).real * np.ones_like(a)
            assert np.all(np.signbit(real) == (k % 2 == 1))
            assert ulp_distance(real, a ** k) <= 1
            assert np.array_equal(autodiff.power(a, k), real)

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("k", range(9))
    def test_special_values_as_numpy(self, kind, k):
        special = np.array([[-0.0], [0.0], [np.nan], [np.inf], [-np.inf]])
        for a in as_kind(special, kind):
            expected = np.asarray(a ** k)
            with np.errstate(invalid="ignore"):  # inf * 0 in the derivative slots
                real = np.asarray((HyperDual(a) ** k).real * np.ones_like(a))
            for got in (real, np.asarray(autodiff.power(a, k))):
                assert np.array_equal(got, expected, equal_nan=True)
                assert np.array_equal(np.signbit(got[~np.isnan(got)]),
                                      np.signbit(expected[~np.isnan(expected)]))

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("k", range(1, 9))
    def test_negative_base_derivatives(self, kind, k):
        # e * a^(e-1) rounds twice, in the power (1 ulp) and in the product, hence 2
        for a in as_kind(-self.POSITIVE, kind):
            y = HyperDual(a, 1.0, 0.0) ** k
            first = k * a ** (k - 1)
            second = k * (k - 1) * a ** (k - 2) if k > 1 else 0.0
            assert ulp_distance(y.d1, first) <= 2
            assert ulp_distance(y.d12, second) <= 2


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
                             guard=lambda y: np.linalg.norm(y, axis=-1) > 1.0)
        with pytest.raises(DomainViolation):
            fc.grad_hess(fld, [0.1, 0.1])

    def test_guard_must_return_one_boolean_per_row(self):
        # a per-point predicate gets the whole (R, n) array and returns one bool
        fld = fc.ScalarField(2, lambda z: z[0] + z[1],
                             guard=lambda y: bool(np.linalg.norm(y) > 1.0))
        for y in ([3.0, 4.0], [[3.0, 4.0], [0.1, 0.1]]):
            with pytest.raises(DimensionMismatch):
                fc.grad_hess(fld, y)

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
        fld = fc.ScalarField(2, lambda z: np.exp(z[0]))  # fd evaluates floats only
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

    @pytest.mark.parametrize("h", [0.0, -1e-5, np.nan, np.inf, 1e-300, 2.0 ** -512, 2.0 ** 512])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_step_needs_a_normal_square(self, h):
        fld = fc.ScalarField(2, lambda z: z[0] * z[1])
        with pytest.raises(ValueError, match=r"^finite-difference step must lie in \[2\*\*-511"):
            fc.fd_grad_hess(fld, [0.3, 0.7], h)

    @pytest.mark.parametrize("field, y, h", [
        (lambda z: z[0] * z[1], [0.3, 0.7], 2.0 ** 511),     # 4 * step * step overflows
        (lambda z: z[0] + 2.0 * z[1], [1e200, 1.0], 1e-5),  # step * step overflows
    ], ids=["largest-h", "huge-point"])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_scaled_step_checked_before_evaluation(self, field, y, h):
        def evaluated(z):
            raise AssertionError("the field was evaluated")

        with pytest.raises(ValueError, match=r"^scaled finite-difference step .* below 2\*\*511"):
            fc.fd_grad_hess(fc.ScalarField(2, evaluated), y, h)
        with pytest.raises(ValueError, match=r"^scaled finite-difference step"):
            fc.fd_grad_hess(fc.ScalarField(2, field), y, h)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_largest_scaled_step_passes(self):
        fld = fc.ScalarField(2, lambda z: z[0] * z[1])
        h = float(np.nextafter(2.0 ** 511, 0.0))
        assert np.array_equal(fc.fd_grad_hess(fld, [0.3, 0.7], h)[2], [[0.0, 1.0], [1.0, 0.0]])

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_smallest_step_passes(self):
        fld = fc.ScalarField(2, lambda z: z[0] * z[1])
        assert np.isfinite(fc.fd_grad_hess(fld, [0.3, 0.7], 2.0 ** -511)[2]).all()

    def test_stencil_guard(self):
        fld = fc.ScalarField(2, lambda z: z[0] * z[1],
                             guard=lambda y: np.all(y > 0.0, axis=-1))
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
            (ind.adapted_field(fund, np.array([p.chol for p in points])),
             np.stack([p.y_adapted for p in points]),
             [ind.adapted_field(fund, p.chol) for p in points]),
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


def coordinatewise_F(fund):
    """F of ``fund`` as a user field writes it: one coordinate at a time, sums from 0.0 up in k."""
    def ascending(terms):
        acc = 0.0
        for term in terms:
            acc = acc + term
        return acc

    def F(z):
        zs = [z[k] for k in range(len(z))]
        if fund.family == "euclidean":
            return autodiff.sqrt(ascending(zk * zk for zk in zs))
        if fund.family in ("quadratic", "randers"):
            a = fund.matrix
            rows = [ascending(zk * a[i, k] for k, zk in enumerate(zs)) for i in range(len(zs))]
            f = autodiff.sqrt(ascending(zi * row for zi, row in zip(zs, rows)))
            if fund.family == "quadratic":
                return f
            return f + ascending(zk * bk for zk, bk in zip(zs, fund.drift))
        return ascending(autodiff.power(zk, fund.exponent) for zk in zs) ** (1.0 / fund.exponent)
    return F


def bits(result):
    return [np.asarray(part).tobytes() for part in result]


class TestVectorSeeds:
    """One vector-seeded argument per field evaluation, summed over k in ascending order."""

    @pytest.mark.parametrize("n", range(2, 10))
    @pytest.mark.parametrize("family", ["euclidean", "quadratic", "randers", "pnorm", "mroot"])
    def test_coordinatewise_field_matches_vector_evaluation(self, family, n):
        # bit for bit, alone and batched; n >= 8 is where numpy's pairwise
        # summation would part a contiguous one-point axis from a batch's
        fund = catalog(n)[family]
        points = fc.sample_indicatrix(fund, 4, 70 + n)
        F = coordinatewise_F(fund)

        def user(pre, level):  # (F^2 - level) / 2, as energy_field and defining_field
            def func(z):
                v = F(z)
                return (v * v - level) * 0.5 if level else (v * v) * 0.5
            return fc.ScalarField(n, func, fund.guard_rows, pre)

        adapted = [ind.adapted_field(fund, p.chol) for p in points]
        stacked = ind.adapted_field(fund, np.array([p.chol for p in points]))
        cases = [  # (catalog field, user field, rows, the catalog field of each row alone)
            (energy_field(fund), user(None, 0.0), np.stack([p.y for p in points]),
             [energy_field(fund)] * len(points)),
            (stacked, user(stacked.pre, 1.0),
             np.stack([p.y_adapted for p in points]), adapted),
        ]
        for derive in (fc.grad_hess, autodiff.gradients,
                       lambda fld, y: fc.fd_grad_hess(fld, y, 1e-4)):
            for vector, coordinatewise, rows, alone in cases:
                batched = derive(vector, rows)
                assert bits(derive(coordinatewise, rows)) == bits(batched)
                for i, (fld, row) in enumerate(zip(alone, rows)):
                    assert bits(derive(fld, row)) == bits(part[i] for part in batched)
        ys = np.stack([p.y for p in points])
        values = fc.eval_F(fund, ys)
        assert values.tobytes() == F([ys[:, k:k + 1] for k in range(n)])[:, 0].tobytes()
        for y, value in zip(ys, values):
            assert fc.eval_F(fund, y) == value

    @pytest.mark.parametrize("derive, kind", [(fc.grad_hess, HyperDual),
                                              (autodiff.gradients, Dual)])
    def test_points_run_innermost_in_contiguous_arguments(self, derive, kind, monkeypatch):
        # real (n, 1, S, P) and d1 (n, n, 1, P): a product of the two runs its inner
        # loop over the P points, and each point's seeds broadcast over its S rows
        n, per = 3, 2
        fund = catalog(n)["randers"]
        points = fc.sample_indicatrix(fund, 3, 11)
        stacked = ind.adapted_field(fund, np.array([p.chol for p in points]))
        seen = []
        value = fc.FundamentalFunction.value
        monkeypatch.setattr(fc.FundamentalFunction, "value",
                            lambda self, z: seen.append(z) or value(self, z))
        derive(stacked, np.repeat([p.y_adapted for p in points], per, axis=0))
        x, = seen
        assert type(x) is kind
        assert x.real.shape == (n, 1, per, len(points)) and x.real.flags.c_contiguous
        assert x.d1.shape == (n, n, 1, len(points)) and x.d1.flags.c_contiguous
        assert np.array_equal(x.d1[:, :, 0], stacked.pre.transpose(1, 2, 0))

    @pytest.mark.parametrize("kind", [Dual, HyperDual])
    def test_numpy_operand_on_the_left_keeps_the_dual(self, kind):
        slots = [np.arange(1.0, 7.0).reshape(3, 2, 1, 1)]  # a gradient over 2 slots
        if kind is HyperDual:
            slots.append(np.arange(1.0, 10.0).reshape(3, 3, 1, 1))  # mixed part, m = 3 pairs
        x = kind(np.arange(2.0, 5.0).reshape(3, 1, 1, 1), *slots)
        for left in (np.float64(2.0), np.array(2.0), np.full((1, 1, 1), 2.0)):
            for op in (operator.add, operator.sub, operator.mul, operator.truediv):
                for right in (x, x[1]):
                    out = op(left, right)
                    assert type(out) is kind
                    assert bits(out._parts()) == bits(op(2.0, right)._parts())

    def test_a_vector_dual_is_a_sequence_of_coordinates(self):
        x = HyperDual(np.arange(3.0).reshape(3, 1, 1, 1), np.eye(3)[:, :, None, None],
                      np.arange(18.0).reshape(3, 6, 1, 1))  # m = 6 index pairs
        first, second, third = x
        assert len(x) == 3 and [float(c.real[0, 0, 0]) for c in x] == [0.0, 1.0, 2.0]
        assert np.array_equal(second.d1, np.array([0.0, 1.0, 0.0])[:, None, None])
        assert np.array_equal(second.d12, np.arange(6.0, 12.0)[:, None, None])
        total = autodiff.total(x)
        assert np.array_equal(total.d1, np.ones((3, 1, 1)))
        assert np.array_equal(total.d12, np.arange(18.0, 36.0, 3.0)[:, None, None])
