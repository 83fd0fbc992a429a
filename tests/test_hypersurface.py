import numpy as np
import pytest

import finslercurv as fc
from finslercurv import hypersurface
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

    def test_vanishing_gradient(self):
        with pytest.raises(VanishingGradient):
            fc.evaluate_defining(fc.ScalarField(2, lambda z: z[0] * z[0] + z[1] * z[1]),
                                 [0.0, 0.0])


    @pytest.mark.parametrize("gradient", [[np.nan, 0.0], [[1.0, 0.0], [np.nan, np.nan]]])
    def test_nan_gradient_counts_as_vanishing(self, gradient):
        gradient = np.array(gradient)
        y = np.zeros(gradient.shape)
        hessian = np.zeros(gradient.shape + (2,))
        with pytest.raises(VanishingGradient, match=r"^\|grad f\| = nan$"):
            hypersurface.defining_evaluation(y, np.zeros(gradient.shape[:-1]), gradient, hessian)
        ev = hypersurface.DefiningEvaluation(y, 0.0, gradient, hessian, np.sqrt(
            (gradient * gradient).sum(axis=-1)))
        with pytest.raises(VanishingGradient, match=r"^\|grad f\| = nan$"):
            fc.unit_normal(ev)


class TestUnitNormal:
    def test_sphere_radius_vector(self):
        y = np.array([0.6, 0.0, 0.8])
        ev = fc.evaluate_defining(sphere_field(), y, on_surface=True)
        normal = fc.unit_normal(ev, 1)
        assert np.max(np.abs(normal.direction - y)) <= 1e-15

    def test_plane(self):
        a = np.array([3.0, 0.0, 4.0])
        ev = fc.evaluate_defining(plane_field(a, 0.0), [0.0, 1.0, 0.0], on_surface=True)
        normal = fc.unit_normal(ev, 1)
        assert np.max(np.abs(normal.direction - a / 5.0)) <= 1e-15

    def test_orientation_flip(self):
        ev = fc.evaluate_defining(sphere_field(), [0.0, 0.0, 1.0], on_surface=True)
        plus = fc.unit_normal(ev, 1)
        minus = fc.unit_normal(ev, -1)
        assert np.array_equal(minus.direction, -plus.direction)


class TestShapeOperator:
    def test_unit_sphere(self):
        ev = fc.evaluate_defining(sphere_field(), [0.0, 0.0, 1.0], on_surface=True)
        shape = fc.shape_operator(ev, fc.unit_normal(ev, 1))
        assert np.max(np.abs(shape.entries - np.eye(2))) <= 1e-15
        assert np.allclose(shape.principal_curvatures, [1.0, 1.0], rtol=0, atol=1e-14)
        assert shape.mean == 1.0

    def test_radius_two_sphere(self):
        ev = fc.evaluate_defining(sphere_field(2.0), [2.0, 0.0, 0.0], on_surface=True)
        shape = fc.shape_operator(ev, fc.unit_normal(ev, 1))
        assert abs(shape.mean - 0.5) <= 1e-15

    def test_ellipsoid_matches_oracle(self):
        fld = ellipsoid_field()
        for u, v in ((0.7, 0.3), (1.2, 2.1), (2.0, 4.0)):
            y = ellipsoid_point(u, v)
            ev = fc.evaluate_defining(fld, y, on_surface=True)
            shape = fc.shape_operator(ev, fc.unit_normal(ev, 1))
            oracle = fc.weingarten_oracle(fld, y, 1, 1e-5)
            assert np.max(np.abs(shape.entries - oracle.entries)) <= 1e-5
            assert np.max(np.abs(np.sort(shape.principal_curvatures)
                                 - np.sort(oracle.principal_curvatures))) <= 1e-5

    def test_axis_point_principal_curvatures(self):
        # at (2,0,0) the oracle supplies the reference values independently
        fld = ellipsoid_field()
        y = np.array([2.0, 0.0, 0.0])
        ev = fc.evaluate_defining(fld, y, on_surface=True)
        shape = fc.shape_operator(ev, fc.unit_normal(ev, 1))
        oracle = fc.weingarten_oracle(fld, y, 1, 1e-5)
        assert abs(shape.mean - oracle.mean) <= 1e-6

    def test_orientation_negates_entries(self):
        fld = ellipsoid_field()
        y = ellipsoid_point(0.9, 1.4)
        ev = fc.evaluate_defining(fld, y, on_surface=True)
        plus = fc.unit_normal(ev, 1)
        minus = fc.unit_normal(ev, -1)
        frame = fc.complete_frame(plus.direction)
        s_plus = fc.shape_operator(ev, plus, frame=frame)
        s_minus = fc.shape_operator(ev, minus, frame=frame)
        assert np.array_equal(s_minus.entries, -s_plus.entries)
        assert fc.mean_curvature_trace(ev, minus) == -fc.mean_curvature_trace(ev, plus)

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_mirror_bits_match_triu_sum(self, n):
        # entries equal np.triu(full) + np.triu(full, 1)^T bit for bit, on a stack whose
        # projected Hessians hold +-0.0, NaN and inf
        rng = np.random.default_rng(70 + n)
        hess = rng.standard_normal((6, n, n))
        hess[0] = 0.0                                   # with eps = -1, full is all -0.0
        hess[1, 1, -1] = 0.0                            # one zero entry
        hess[2, -1, 1] = np.nan                         # NaN below the diagonal only
        hess[3, 1, 1] = np.inf                          # inf and NaN (0 * inf)
        hess[4] *= 1e306                                # full overflows to +-inf
        basis = np.broadcast_to(np.eye(n)[1:], (6, n - 1, n))  # exact: e_2, ..., e_n
        normal = np.broadcast_to(np.eye(n)[0], (6, n))
        frame = fc.TangentFrame(n, normal, basis)
        grad_norm = np.array([1.0, 2.0, 0.5, 3.0, 1e-3, 1.0])
        ev = fc.DefiningEvaluation(normal, np.zeros(6), normal, hess, grad_norm)
        with np.errstate(over="ignore", invalid="ignore"):
            shape = fc.shape_operator(ev, fc.OrientedNormal(-normal, -1, grad_norm), frame)
            coef = hypersurface.SIGN_CONVENTION * -1 / grad_norm[:, None, None]
            full = coef * (basis @ hess @ np.swapaxes(basis, -1, -2))
            want = np.triu(full) + np.swapaxes(np.triu(full, 1), -1, -2)
        assert np.array_equal(shape.entries.view(np.uint64), want.view(np.uint64))
        if n > 2:  # the stack really holds each special value
            assert (np.signbit(full) & (full == 0.0)).any()
            assert np.isnan(full).any() and np.isinf(full).any()


class TestMeanCurvatureTrace:
    def test_unit_sphere(self):
        ev = fc.evaluate_defining(sphere_field(), [0.0, 0.0, 1.0], on_surface=True)
        assert fc.mean_curvature_trace(ev, fc.unit_normal(ev, 1)) == 1.0

    def test_hyperplane(self):
        ev = fc.evaluate_defining(plane_field([1.0, 1.0, 1.0], 0.3),
                                  [0.1, 0.1, 0.1], on_surface=True)
        assert fc.mean_curvature_trace(ev, fc.unit_normal(ev, 1)) == 0.0

    @pytest.mark.parametrize("radius", [0.5, 1.0, 2.0, 5.0])
    def test_sphere_family(self, radius):
        rng = np.random.default_rng(int(radius * 10))
        d = rng.standard_normal(3)
        y = radius * d / np.linalg.norm(d)
        fld = sphere_field(radius)
        ev = fc.evaluate_defining(fld, y, on_surface=True)
        normal = fc.unit_normal(ev, 1)
        h = fc.mean_curvature_trace(ev, normal)
        assert abs(h - 1.0 / radius) <= 1e-10
        assert abs(h * radius - 1.0) <= 1e-10
        oracle = fc.weingarten_oracle(fld, y, 1, 1e-5)
        assert abs(oracle.mean - h) <= 1e-6

    def test_path_equivalence(self):
        fld = ellipsoid_field()
        for u, v in ((0.4, 0.9), (1.5, 3.3), (2.6, 5.0)):
            y = ellipsoid_point(u, v)
            ev = fc.evaluate_defining(fld, y, on_surface=True)
            normal = fc.unit_normal(ev, 1)
            h_trace = fc.mean_curvature_trace(ev, normal)
            h_eigen = fc.shape_operator(ev, normal).mean
            assert abs(h_trace - h_eigen) <= 1e-10


class TestWeingartenOracle:
    def test_unit_sphere_identity(self):
        oracle = fc.weingarten_oracle(sphere_field(), np.array([0.0, 0.0, 1.0]), 1, 1e-5)
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
        shape = fc.shape_operator(ev, fc.unit_normal(ev, 1))
        oracle = fc.weingarten_oracle(fld, y, 1, 1e-5)
        assert np.max(np.abs(shape.entries - oracle.entries)) <= 1e-6

    def test_order_two_convergence(self):
        fld = ellipsoid_field()
        y = ellipsoid_point(0.7, 0.3)
        ev = fc.evaluate_defining(fld, y, on_surface=True)
        shape = fc.shape_operator(ev, fc.unit_normal(ev, 1))
        gap_coarse = np.max(np.abs(
            fc.weingarten_oracle(fld, y, 1, 4e-4).entries - shape.entries))
        gap_fine = np.max(np.abs(
            fc.weingarten_oracle(fld, y, 1, 2e-4).entries - shape.entries))
        assert 3.5 <= gap_coarse / gap_fine <= 4.5

    def test_weingarten_identity_property(self):
        # u . S(v) equals (eps/|grad f|) u Hess v under the package's sign
        # convention (outward sphere positively curved)
        fld = ellipsoid_field()
        rng = np.random.default_rng(55)
        for u_par, v_par in ((0.6, 1.1), (1.9, 4.2)):
            y = ellipsoid_point(u_par, v_par)
            ev = fc.evaluate_defining(fld, y, on_surface=True)
            normal = fc.unit_normal(ev, 1)
            oracle = fc.weingarten_oracle(fld, y, 1, 1e-5)
            frame = oracle.frame
            for _ in range(10):
                cu = rng.standard_normal(2)
                cv = rng.standard_normal(2)
                u = cu @ frame.basis
                v = cv @ frame.basis
                lhs = cu @ oracle.entries @ cv
                rhs = fc.quadratic_form(ev.hessian, u, v) / ev.grad_norm
                assert abs(lhs - rhs) <= 1e-5
