import dataclasses

import numpy as np
import pytest

import finslercurv as fc
from finslercurv import hypersurface, indicatrix
from finslercurv.exceptions import OffSurface, VanishingGradient


def sphere_field(radius=1.0, dim=3):
    r2 = radius * radius
    return fc.ScalarField(dim, lambda z: (sum(zi * zi for zi in z) - r2) * 0.5)


def plane_field(normal, offset):
    normal = np.asarray(normal, dtype=float)
    return fc.ScalarField(normal.size,
                          lambda z: sum(zi * float(ai) for zi, ai in zip(z, normal)) - offset)


def ellipsoid_field():
    # y1^2/4 + y2^2 + y3^2 = 1
    return fc.ScalarField(3, lambda z: z[0] * z[0] / 4.0 + z[1] * z[1] + z[2] * z[2] - 1.0)


def ellipsoid_point(u, v):
    return np.array([2.0 * np.sin(u) * np.cos(v), np.sin(u) * np.sin(v), np.cos(u)])


class TestEvaluateDefining:
    def test_sphere_pole(self):
        ev = fc.evaluate_defining(sphere_field(), [0.0, 0.0, 1.0], on_surface=True)
        assert ev.value == 0.0
        assert np.array_equal(ev.gradient, [0.0, 0.0, 1.0])
        assert np.array_equal(ev.hessian, np.eye(3))
        assert ev.grad_norm == 1.0

    def test_linear_field(self):
        ev = fc.evaluate_defining(plane_field([0.0, 2.0, 0.0], 1.0), [3.0, 0.5, -1.0],
                                  on_surface=True)
        assert np.array_equal(ev.hessian, np.zeros((3, 3)))

    def test_quartic_matches_fd(self):
        rng = np.random.default_rng(21)
        c = rng.standard_normal((3, 3))
        fld = fc.ScalarField(3, lambda z: sum(
            z[i] * z[j] * (z[i] * z[j]) * float(c[i, j])
            for i in range(3) for j in range(3)))
        y = rng.uniform(0.5, 1.0, 3)
        ev = fc.evaluate_defining(fld, y)
        _, grad_fd, hess_fd = fc.fd_grad_hess(fld, y, 1e-5)
        scale = max(1.0, np.max(np.abs(ev.hessian)))
        assert np.max(np.abs(ev.gradient - grad_fd)) <= 1e-6 * scale
        assert np.max(np.abs(ev.hessian - hess_fd)) <= 1e-6 * scale

    def test_off_surface_flag(self):
        with pytest.raises(OffSurface):
            fc.evaluate_defining(sphere_field(), [0.0, 0.0, 1.1], on_surface=True)

    def test_nan_value_is_off_surface(self):
        with pytest.raises(OffSurface, match=r"^\|f\| = nan exceeds 1e-08$"):
            hypersurface.defining_evaluation(np.zeros(2), np.nan, np.array([1.0, 0.0]), np.eye(2),
                                             on_surface=True)

    def test_vanishing_gradient(self):
        with pytest.raises(VanishingGradient):
            fc.evaluate_defining(fc.ScalarField(2, lambda z: z[0] * z[0] + z[1] * z[1]),
                                 [0.0, 0.0])

    def test_gradient_floor_brackets(self):
        # GRADIENT_FLOOR = 1e-10: |grad f| = 7e-11 vanishes, 1.5e-10 does not
        with pytest.raises(VanishingGradient, match=r"^\|grad f\| = 7.000e-11$"):
            hypersurface.defining_evaluation(np.zeros(2), 0.0, np.array([7e-11, 0.0]), np.eye(2))
        ev = hypersurface.defining_evaluation(np.zeros(2), 0.0, np.array([1.5e-10, 0.0]),
                                              np.eye(2))
        assert ev.grad_norm == 1.5e-10 and np.array_equal(ev.normal, [1.0, 0.0])

    @pytest.mark.parametrize("gradient", [[np.nan, 0.0], [[1.0, 0.0], [np.nan, np.nan]]])
    def test_nan_gradient_counts_as_vanishing(self, gradient):
        gradient = np.array(gradient)
        y = np.zeros(gradient.shape)
        hessian = np.zeros(gradient.shape + (2,))
        with pytest.raises(VanishingGradient, match=r"^\|grad f\| = nan$"):
            hypersurface.defining_evaluation(y, np.zeros(gradient.shape[:-1]), gradient, hessian)


class TestUnitNormal:
    def test_sphere_radius_vector(self):
        y = np.array([0.6, 0.0, 0.8])
        ev = fc.evaluate_defining(sphere_field(), y, on_surface=True)
        assert np.max(np.abs(ev.normal - y)) <= 1e-15

    def test_plane(self):
        a = np.array([3.0, 0.0, 4.0])
        ev = fc.evaluate_defining(plane_field(a, 0.0), [0.0, 1.0, 0.0], on_surface=True)
        assert np.max(np.abs(ev.normal - a / 5.0)) <= 1e-15


class TestShapeOperator:
    def test_unit_sphere(self):
        ev = fc.evaluate_defining(sphere_field(), [0.0, 0.0, 1.0], on_surface=True)
        shape = fc.shape_operator(ev)
        assert np.max(np.abs(shape.entries - np.eye(2))) <= 1e-15
        assert np.allclose(shape.principal_curvatures, [1.0, 1.0], rtol=0, atol=1e-14)
        assert shape.mean == 1.0

    def test_radius_two_sphere(self):
        ev = fc.evaluate_defining(sphere_field(2.0), [2.0, 0.0, 0.0], on_surface=True)
        shape = fc.shape_operator(ev)
        assert abs(shape.mean - 0.5) <= 1e-15

    def test_ellipsoid_matches_oracle(self):
        fld = ellipsoid_field()
        for u, v in ((0.7, 0.3), (1.2, 2.1), (2.0, 4.0)):
            y = ellipsoid_point(u, v)
            ev = fc.evaluate_defining(fld, y, on_surface=True)
            shape = fc.shape_operator(ev)
            oracle = fc.weingarten_oracle(fld, y, 1e-5)
            assert np.max(np.abs(shape.entries - oracle.entries)) <= 1e-5
            assert np.max(np.abs(np.sort(shape.principal_curvatures)
                                 - np.sort(oracle.principal_curvatures))) <= 1e-5

    def test_axis_point_principal_curvatures(self):
        # at (2,0,0) the oracle supplies the reference values independently
        fld = ellipsoid_field()
        y = np.array([2.0, 0.0, 0.0])
        ev = fc.evaluate_defining(fld, y, on_surface=True)
        shape = fc.shape_operator(ev)
        oracle = fc.weingarten_oracle(fld, y, 1e-5)
        assert abs(shape.mean - oracle.mean) <= 1e-6

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_mirror_bits_match_triu_sum(self, n):
        # entries equal np.triu(full) + np.triu(full, 1)^T bit for bit, on a stack whose
        # projected Hessians hold +-0.0, NaN and inf
        rng = np.random.default_rng(70 + n)
        hess = rng.standard_normal((6, n, n))
        hess[0] = 0.0                                   # with |grad f| = -inf, full is -0.0
        hess[1, 1, -1] = 0.0                            # one zero entry
        hess[2, -1, 1] = np.nan                         # NaN below the diagonal only
        hess[3, 1, 1] = np.inf                          # inf and NaN (0 * inf)
        hess[4] *= 1e306                                # full overflows to +-inf
        basis = np.broadcast_to(np.eye(n)[1:], (6, n - 1, n))  # exact: e_2, ..., e_n
        normal = np.broadcast_to(np.eye(n)[0], (6, n))  # complete_frame(e_1) is exactly basis
        grad_norm = np.array([-np.inf, 2.0, 0.5, 3.0, 1e-3, 1.0])
        ev = fc.DefiningEvaluation(normal, np.zeros(6), normal, hess, grad_norm, normal)
        with np.errstate(over="ignore", invalid="ignore"):
            shape = fc.shape_operator(ev)
            coef = 1 / grad_norm[:, None, None]
            full = coef * (basis @ hess @ np.swapaxes(basis, -1, -2))
            want = np.triu(full) + np.swapaxes(np.triu(full, 1), -1, -2)
        assert np.array_equal(shape.entries.view(np.uint64), want.view(np.uint64))
        if n > 2:  # the stack really holds each special value
            assert (np.signbit(full) & (full == 0.0)).any()
            assert np.isnan(full).any() and np.isinf(full).any()


class TestMeanCurvatureTrace:
    def test_unit_sphere(self):
        ev = fc.evaluate_defining(sphere_field(), [0.0, 0.0, 1.0], on_surface=True)
        assert fc.mean_curvature_trace(ev) == 1.0

    def test_hyperplane(self):
        ev = fc.evaluate_defining(plane_field([1.0, 1.0, 1.0], 0.3),
                                  [0.1, 0.1, 0.1], on_surface=True)
        assert fc.mean_curvature_trace(ev) == 0.0

    @pytest.mark.parametrize("radius", [0.5, 1.0, 2.0, 5.0])
    def test_sphere_family(self, radius):
        rng = np.random.default_rng(int(radius * 10))
        d = rng.standard_normal(3)
        y = radius * d / np.linalg.norm(d)
        fld = sphere_field(radius)
        ev = fc.evaluate_defining(fld, y, on_surface=True)
        h = fc.mean_curvature_trace(ev)
        assert abs(h - 1.0 / radius) <= 1e-10
        assert abs(h * radius - 1.0) <= 1e-10
        oracle = fc.weingarten_oracle(fld, y, 1e-5)
        assert abs(oracle.mean - h) <= 1e-6

    def test_path_equivalence(self):
        fld = ellipsoid_field()
        for u, v in ((0.4, 0.9), (1.5, 3.3), (2.6, 5.0)):
            y = ellipsoid_point(u, v)
            ev = fc.evaluate_defining(fld, y, on_surface=True)
            h_trace = fc.mean_curvature_trace(ev)
            h_eigen = fc.shape_operator(ev).mean
            assert abs(h_trace - h_eigen) <= 1e-10


@pytest.mark.parametrize("y", [[1.0], [[1.0], [-1.0]]], ids=["point", "rows"])
@pytest.mark.parametrize("stage", [fc.mean_curvature_trace, fc.shape_operator],
                         ids=lambda stage: stage.__name__)
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_stages_need_two_dimensions(stage, y):
    # the points {-1, 1} of a line have no tangent space to take a trace or a frame in
    ev = fc.evaluate_defining(fc.ScalarField(1, lambda z: (z[0] * z[0] - 1.0) * 0.5), y,
                              on_surface=True)
    with pytest.raises(fc.DimensionMismatch, match="^ambient dimension must be >= 2$"):
        stage(ev)


class TestWeingartenOracle:
    @pytest.mark.parametrize("h", [0.0, np.nan, -1e-5, 1e-300, np.array([1e-5, 0.0])])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_step_needs_a_normal_square(self, h):
        # a per-row step fails if any of its entries does
        y = np.array([[0.0, 0.0, 1.0], [0.0, 0.6, 0.8]])
        with pytest.raises(ValueError, match="^finite-difference step must lie in"):
            fc.weingarten_oracle(sphere_field(), y, h)

    @pytest.mark.parametrize("y, h", [
        ([0.6, 0.8], 2.0 ** 511),  # 4 * step * step overflows
        ([1e200, 1.0], 1e-5),      # step * step overflows
    ], ids=["largest-h", "huge-point"])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_scaled_step_checked_before_evaluation(self, y, h):
        def evaluated(z):
            raise AssertionError("the field was evaluated")

        with pytest.raises(ValueError, match=r"^scaled finite-difference step .* below 2\*\*511"):
            fc.weingarten_oracle(fc.ScalarField(2, evaluated), y, h)
        with pytest.raises(ValueError, match=r"^scaled finite-difference step"):
            fc.weingarten_oracle(sphere_field(dim=2), y, h)

    def test_unit_sphere_identity(self):
        oracle = fc.weingarten_oracle(sphere_field(), np.array([0.0, 0.0, 1.0]), 1e-5)
        assert np.max(np.abs(oracle.entries - np.eye(2))) <= 1e-9

    def test_given_frame_keeps_the_step(self):
        # the third positional argument is the step, also when the frame is given
        y = np.array([0.0, 0.0, 1.0])
        oracle = fc.weingarten_oracle(sphere_field(), y, 1e-5, frame=fc.complete_frame(y))
        assert np.max(np.abs(oracle.entries - np.eye(2))) <= 1e-9

    def test_seeded_quadric_r4(self):
        rng = np.random.default_rng(99)
        r = rng.standard_normal((4, 4))
        a = r @ r.T + 4.0 * np.eye(4)
        fld = fc.ScalarField(4, lambda z: sum(
            z[i] * z[j] * float(a[i, j]) for i in range(4) for j in range(4)) - 1.0)
        d = rng.standard_normal(4)
        y = d / np.sqrt(d @ a @ d)
        ev = fc.evaluate_defining(fld, y, on_surface=True)
        shape = fc.shape_operator(ev)
        oracle = fc.weingarten_oracle(fld, y, 1e-5)
        assert np.max(np.abs(shape.entries - oracle.entries)) <= 1e-6

    def test_order_two_convergence(self):
        fld = ellipsoid_field()
        y = ellipsoid_point(0.7, 0.3)
        ev = fc.evaluate_defining(fld, y, on_surface=True)
        shape = fc.shape_operator(ev)
        gap_coarse = np.max(np.abs(
            fc.weingarten_oracle(fld, y, 4e-4).entries - shape.entries))
        gap_fine = np.max(np.abs(
            fc.weingarten_oracle(fld, y, 2e-4).entries - shape.entries))
        assert 3.5 <= gap_coarse / gap_fine <= 4.5

    def test_weingarten_identity_property(self):
        # u . S(v) equals (eps/|grad f|) u Hess v under the package's sign
        # convention (outward sphere positively curved)
        fld = ellipsoid_field()
        rng = np.random.default_rng(55)
        for u_par, v_par in ((0.6, 1.1), (1.9, 4.2)):
            y = ellipsoid_point(u_par, v_par)
            ev = fc.evaluate_defining(fld, y, on_surface=True)
            oracle = fc.weingarten_oracle(fld, y, 1e-5)
            frame = oracle.frame
            for _ in range(10):
                cu = rng.standard_normal(2)
                cv = rng.standard_normal(2)
                u = cu @ frame.basis
                v = cv @ frame.basis
                lhs = cu @ oracle.entries @ cv
                rhs = fc.quadratic_form(ev.hessian, u, v) / ev.grad_norm
                assert abs(lhs - rhs) <= 1e-5


def _empty_shapes(result):
    """Shapes of every array in a result, a record or a tuple of them."""
    if isinstance(result, tuple):
        return tuple(_empty_shapes(r) for r in result)
    fields = getattr(result, "__dataclass_fields__", None)
    if fields is not None:
        return {k: _empty_shapes(getattr(result, k)) for k in fields}
    return np.shape(result)


N = 3
EMPTY, EMPTY_MATRICES = np.zeros((0, N)), np.zeros((0, N, N))


def _on_empty_stack(fld):
    return fc.evaluate_defining(fld, EMPTY)


def _with_eigenvalues(shape):
    return shape.entries, shape.principal_curvatures, shape.mean


def _no_points(fld):
    """fld with an empty (0, N, N) pre-map stack: a pull-back for no points."""
    return dataclasses.replace(fld, pre=EMPTY_MATRICES)


EMPTY_CASES = {  # name: (result on a (0, N) stack, its shapes)
    "gradients": (lambda fund, fld: fc.gradients(fld, EMPTY), ((0,), (0, N))),
    "grad_hess": (lambda fund, fld: fc.grad_hess(fld, EMPTY), ((0,), (0, N), (0, N, N))),
    "fd_grad_hess": (lambda fund, fld: fc.fd_grad_hess(fld, EMPTY), ((0,), (0, N), (0, N, N))),
    "gradients pre-map": (lambda fund, fld: fc.gradients(_no_points(fld), EMPTY), ((0,), (0, N))),
    "grad_hess pre-map": (lambda fund, fld: fc.grad_hess(_no_points(fld), EMPTY),
                          ((0,), (0, N), (0, N, N))),
    "fd_grad_hess pre-map": (lambda fund, fld: fc.fd_grad_hess(_no_points(fld), EMPTY),
                             ((0,), (0, N), (0, N, N))),
    "metric_tensor": (lambda fund, fld: fc.metric_tensor(fund, EMPTY), (0, N, N)),
    "eval_F": (lambda fund, fld: fc.eval_F(fund, EMPTY), (0,)),
    "normalize_to_indicatrix": (lambda fund, fld: fc.normalize_to_indicatrix(fund, EMPTY),
                                (0, N)),
    "evaluate_defining": (lambda fund, fld: _on_empty_stack(fld), {
        "at": (0, N), "value": (0,), "gradient": (0, N), "hessian": (0, N, N),
        "grad_norm": (0,), "normal": (0, N)}),
    "mean_curvature_trace": (lambda fund, fld: fc.mean_curvature_trace(_on_empty_stack(fld)),
                             (0,)),
    "shape_operator": (lambda fund, fld: _with_eigenvalues(
        fc.shape_operator(_on_empty_stack(fld))), ((0, N - 1, N - 1), (0, N - 1), (0,))),
    "weingarten_oracle": (lambda fund, fld: _with_eigenvalues(fc.weingarten_oracle(fld, EMPTY)),
                          ((0, N - 1, N - 1), (0, N - 1), (0,))),
    "adapted_field": (lambda fund, fld: indicatrix.adapted_field(fund, EMPTY_MATRICES).pre,
                      (0, N, N)),
    "complete_frame": (lambda fund, fld: fc.complete_frame(EMPTY),
                       {"normal": (0, N), "basis": (0, N - 1, N)}),
    "cholesky": (lambda fund, fld: fc.cholesky(EMPTY_MATRICES), (0, N, N)),
    "trace_reduction": (lambda fund, fld: fc.trace_reduction(EMPTY_MATRICES, EMPTY), (0,)),
    "quadratic_form": (lambda fund, fld: fc.quadratic_form(EMPTY_MATRICES, EMPTY, EMPTY), (0,)),
}


@pytest.mark.parametrize("name", sorted(EMPTY_CASES))
@pytest.mark.filterwarnings("error")
def test_empty_stacks_give_empty_results(name):
    fund = fc.randers(2.0 * np.eye(N), np.array([0.1, 0.2, 0.0]))
    compute, shapes = EMPTY_CASES[name]
    assert _empty_shapes(compute(fund, fc.defining_field(fund))) == shapes


@pytest.mark.parametrize("derive", [fc.gradients, fc.grad_hess, fc.fd_grad_hess],
                         ids=lambda derive: derive.__name__)
@pytest.mark.parametrize("rows", [np.ones(N), np.ones((2, N))], ids=["point", "rows"])
@pytest.mark.filterwarnings("error")
def test_empty_pre_map_stack_takes_no_rows(derive, rows):
    fund = fc.randers(2.0 * np.eye(N), np.array([0.1, 0.2, 0.0]))
    with pytest.raises(fc.DimensionMismatch, match=r"rows do not split among 0 points$"):
        derive(_no_points(fc.defining_field(fund)), rows)
