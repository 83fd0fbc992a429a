import numpy as np
import pytest

import finslercurv as fc
from finslercurv.exceptions import NotPositiveDefinite, NotUnit


def random_spd(rng, n):
    r = rng.standard_normal((n, n))
    a = r @ r.T + n * np.eye(n)
    return 0.5 * (a + a.T)


def random_sym(rng, n):
    r = rng.standard_normal((n, n))
    return 0.5 * (r + r.T)


def column_cholesky(g):
    """Textbook Cholesky, one column at a time: the reference for LAPACK's factor."""
    n = len(g)
    low = np.zeros_like(g)
    for j in range(n):
        low[j, j] = np.sqrt(g[j, j] - low[j, :j] @ low[j, :j])
        low[j + 1:, j] = (g[j + 1:, j] - low[j + 1:, :j] @ low[j, :j]) / low[j, j]
    return low


class TestCholesky:
    def test_identity(self):
        assert np.array_equal(fc.cholesky(np.eye(3)), np.eye(3))

    def test_diagonal(self):
        assert np.allclose(fc.cholesky(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]),
                           rtol=0, atol=0)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_multiply_back(self, n):
        rng = np.random.default_rng(100 + n)
        for _ in range(20):
            g = random_spd(rng, n)
            low = fc.cholesky(g)
            assert np.max(np.abs(low @ low.T - g)) <= 1e-12 * np.max(np.abs(g))
            assert np.all(np.diag(low) > 0)
            assert np.array_equal(np.triu(low, 1), np.zeros((n, n)))

    def test_indefinite_rejected(self):
        with pytest.raises(NotPositiveDefinite):
            fc.cholesky(np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_tiny_pivot_rejected(self):
        # second pivot is ~1e-14 of the max diagonal entry
        g = np.array([[1.0, 0.0], [0.0, 1e-14]])
        with pytest.raises(NotPositiveDefinite):
            fc.cholesky(g)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_matches_reference_within_backward_error_bound(self, n):
        # each factor is the exact factor of g + dg, |dg| <= gamma_{n+1} |L||L^T|
        # (Higham, Accuracy and Stability, Thm 10.3), so two factors of one g
        # differ by at most about 2 n (n + 1) u cond(g) ||L||
        rng = np.random.default_rng(300 + n)
        u = np.finfo(float).eps / 2
        for scale in (1.0, 1e-3, 1e-6):  # r r^T is singular: cond(g) about 1/scale
            r = rng.standard_normal((n, n - 1))
            g = r @ r.T + scale * np.eye(n)
            g = 0.5 * (g + g.T)
            low, ref = fc.cholesky(g), column_cholesky(g)
            bound = 2 * n * (n + 1) * u * np.linalg.cond(g) * np.linalg.norm(ref, 2)
            assert np.max(np.abs(low - ref)) <= bound

    @pytest.mark.parametrize("n", range(2, 9))
    def test_stack_factors_like_each_matrix_alone(self, n):
        # a batch's report equals its point's report alone only if this holds bit for bit
        rng = np.random.default_rng(200 + n)
        stack = np.stack([random_spd(rng, n) for _ in range(7)])
        low = fc.cholesky(stack)
        for g, l in zip(stack, low):
            assert np.array_equal(fc.cholesky(g), l)

    @pytest.mark.parametrize("bad", [np.array([[1.0, 2.0], [2.0, 1.0]]),
                                     np.array([[1.0, 0.0], [0.0, 1e-14]])])
    def test_one_bad_matrix_rejects_the_stack(self, bad):
        stack = np.stack([np.eye(2), bad, 2.0 * np.eye(2)])
        with pytest.raises(NotPositiveDefinite) as info:
            fc.cholesky(stack)
        message = str(info.value)
        assert message and "\n" not in message

    @pytest.mark.parametrize("g, entry", [
        (np.array([[np.inf, 0.0], [0.0, 1.0]]), "inf"),        # LAPACK factors it
        (np.array([[1.0, np.inf], [np.inf, 1.0]]), "inf"),     # LAPACK fails
        (np.array([[1.0, 0.0], [0.0, -np.inf]]), "-inf"),
        (np.stack([np.eye(2), np.array([[1.0, 0.0], [0.0, np.inf]])]), "inf"),
    ])
    def test_infinite_entry_named(self, g, entry):
        with pytest.raises(NotPositiveDefinite,
                           match=f"^matrix has a non-finite entry {entry}$"):
            fc.cholesky(g)


ASYMMETRIC = np.array([[2.0, 1.0], [0.5, 2.0]])
NAN_DIAGONAL = np.array([[np.nan, 0.0], [0.0, 1.0]])
NAN_OFF_DIAGONAL = np.array([[1.0, np.nan], [np.nan, 1.0]])


class TestInputChecks:
    """The symmetry and unit-length checks raise the same class and message for every input."""

    @pytest.mark.parametrize("a", [ASYMMETRIC, NAN_DIAGONAL, NAN_OFF_DIAGONAL,
                                   np.stack([np.eye(2), ASYMMETRIC])])
    def test_cholesky_rejects_asymmetric_and_nan(self, a):
        # a NaN entry never equals its mirror, so NaN reads as asymmetric
        with pytest.raises(ValueError) as info:
            fc.cholesky(a)
        assert type(info.value) is ValueError
        assert str(info.value) == "matrix is not symmetric"

    @pytest.mark.parametrize("a", [ASYMMETRIC, NAN_DIAGONAL, NAN_OFF_DIAGONAL])
    def test_trace_reduction_rejects_asymmetric_and_nan(self, a):
        with pytest.raises(ValueError) as info:
            fc.trace_reduction(a, np.array([1.0, 0.0]))
        assert type(info.value) is ValueError
        assert str(info.value) == "matrix is not symmetric"

    @pytest.mark.parametrize("normal", [np.array([1.0, 1.0]), np.array([1.0 + 2e-10, 0.0]),
                                        np.array([[0.6, 0.8], [0.0, 0.5]])])
    def test_trace_reduction_rejects_non_unit(self, normal):
        with pytest.raises(NotUnit, match="^vector is not unit length$"):
            fc.trace_reduction(np.broadcast_to(np.eye(2), normal.shape + (2,)), normal)

    @pytest.mark.parametrize("normal", [np.array([np.nan, 0.0]),
                                        np.array([[1.0, 0.0], [0.0, np.nan]])])
    def test_nan_normal_rejected(self, normal):
        # a NaN deviation from length 1 is never within UNIT_TOL
        with pytest.raises(NotUnit, match="^vector is not unit length$"):
            fc.trace_reduction(np.broadcast_to(np.eye(2), normal.shape + (2,)), normal)
        with pytest.raises(NotUnit, match="^vector is not unit length$"):
            fc.complete_frame(normal)

    def test_nan_frame_rejected(self):
        with pytest.raises(ValueError, match="^tangent basis is not orthonormal$"):
            fc.TangentFrame(2, np.array([1.0, 0.0]), np.array([[np.nan, 1.0]]))
        with pytest.raises(ValueError, match="^tangent basis is not orthogonal to the normal$"):
            fc.TangentFrame(2, np.array([np.nan, 0.0]), np.array([[0.0, 1.0]]))

    def test_unit_tolerance_boundary(self):
        # within UNIT_TOL of length 1 passes, on one vector and on a stack
        normal = np.array([[1.0 + 5e-11, 0.0], [0.0, 1.0 - 5e-11]])
        assert fc.trace_reduction(np.eye(2), normal[0]) == (2.0 - (1.0 + 5e-11) ** 2)
        assert fc.trace_reduction(np.stack([np.eye(2)] * 2), normal).shape == (2,)


class TestCompleteFrame:
    def test_axis_aligned(self):
        frame = fc.complete_frame(np.array([1.0, 0.0, 0.0]))
        assert np.allclose(frame.basis, np.array([[0, 1, 0], [0, 0, 1]]),
                           rtol=0, atol=0)

    def test_diagonal_direction(self):
        frame = fc.complete_frame(np.ones(3) / np.sqrt(3.0))
        gram = frame.basis @ frame.basis.T
        assert np.max(np.abs(gram - np.eye(2))) <= 1e-12
        assert np.max(np.abs(frame.basis @ frame.normal)) <= 1e-12

    def test_stable_near_axis(self):
        base = fc.complete_frame(np.array([1.0, 0.0, 0.0]))
        tweaked = np.array([1.0, 1e-12, -1e-12])
        tweaked /= np.linalg.norm(tweaked)
        near = fc.complete_frame(tweaked)
        assert np.max(np.abs(near.basis - base.basis)) <= 1e-10

    @pytest.mark.parametrize("n", range(2, 9))
    def test_orthonormal_invariants(self, n):
        rng = np.random.default_rng(200 + n)
        for _ in range(50):
            v = rng.standard_normal(n)
            v /= np.linalg.norm(v)
            frame = fc.complete_frame(v)
            gram = frame.basis @ frame.basis.T
            assert np.max(np.abs(gram - np.eye(n - 1))) <= 1e-12
            assert np.max(np.abs(frame.basis @ v)) <= 1e-12

    def test_not_unit_rejected(self):
        with pytest.raises(NotUnit):
            fc.complete_frame(np.array([1.0, 1.0, 0.0]))

    def test_deterministic(self):
        v = np.array([0.3, -0.4, np.sqrt(1 - 0.25)])
        assert np.array_equal(fc.complete_frame(v).basis, fc.complete_frame(v).basis)


def shape_matrix(entries):
    """A ShapeOperatorMatrix holding ``entries``, one matrix or a stack.

    Its frame completes e1 in one dimension more; the eigenvalues depend
    on the entries alone.
    """
    entries = np.asarray(entries, dtype=float)
    normal = np.zeros(entries.shape[:-2] + (entries.shape[-1] + 1,))
    normal[..., 0] = 1.0
    return fc.ShapeOperatorMatrix(fc.complete_frame(normal), entries)


class TestEigenvalues:
    """Principal curvatures: the eigensolve every curvature report uses."""

    def test_diagonal(self):
        kappa = shape_matrix(np.diag([3.0, 1.0, 2.0])).principal_curvatures
        assert np.allclose(kappa, [1.0, 2.0, 3.0], rtol=0, atol=1e-14)

    def test_two_by_two(self):
        kappa = shape_matrix(np.array([[2.0, 1.0], [1.0, 2.0]])).principal_curvatures
        assert np.allclose(kappa, [1.0, 3.0], rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_reconstruction(self, n):
        rng = np.random.default_rng(300 + n)
        stack = np.stack([random_sym(rng, n) for _ in range(10)])
        stacked = shape_matrix(stack)
        for a, kappa, mean in zip(stack, stacked.principal_curvatures, stacked.mean):
            solo = shape_matrix(a)
            # a stack gives every matrix the bits it gets alone
            assert np.array_equal(solo.principal_curvatures, kappa)
            assert solo.mean == mean
            assert np.all(np.diff(kappa) >= 0)
            for w in kappa:  # each value is an eigenvalue of a
                assert np.linalg.svd(a - w * np.eye(n), compute_uv=False)[-1] <= 1e-10
            assert abs(np.sum(kappa) - np.trace(a)) <= 1e-10
            assert abs(np.sum(kappa * kappa) - np.sum(a * a)) <= 1e-10
            assert abs(np.mean(kappa) - mean) <= 1e-12

    def test_spd_spectrum_positive(self):
        rng = np.random.default_rng(11)
        for n in (2, 4, 6):
            assert np.all(shape_matrix(random_spd(rng, n)).principal_curvatures > 0)


class TestQuadraticForm:
    def test_identity(self):
        assert fc.quadratic_form(np.eye(2), [1.0, 0.0], [1.0, 0.0]) == 1.0

    def test_hand_expansion(self):
        val = fc.quadratic_form(np.diag([1.0, 2.0]), [1.0, 1.0], [1.0, -1.0])
        assert val == -1.0

    def test_against_loop_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            n = int(rng.integers(2, 7))
            a = rng.standard_normal((n, n))
            u = rng.standard_normal(n)
            v = rng.standard_normal(n)
            naive = 0.0
            for i in range(n):
                for j in range(n):
                    naive += a[i, j] * u[i] * v[j]
            assert abs(fc.quadratic_form(a, u, v) - naive) <= 1e-12 * max(1.0, abs(naive))

    def test_dimension_mismatch(self):
        with pytest.raises(fc.DimensionMismatch):
            fc.quadratic_form(np.eye(2), [1.0, 0.0, 0.0], [1.0, 0.0])


class TestTraceReduction:
    def test_identity(self):
        assert fc.trace_reduction(np.eye(3), np.array([1.0, 0, 0])) == 2.0

    def test_diagonal(self):
        assert fc.trace_reduction(np.diag([1.0, 2.0, 3.0]),
                                  np.array([0.0, 0, 1.0])) == 3.0

    def test_not_unit_rejected(self):
        with pytest.raises(NotUnit):
            fc.trace_reduction(np.eye(2), np.array([1.0, 1.0]))

    @pytest.mark.parametrize("n", range(2, 9))
    def test_matches_projection_oracle(self, n):
        # explicit-basis restatement of the deflated-trace identity
        rng = np.random.default_rng(400 + n)
        for _ in range(1000):
            a = random_sym(rng, n)
            v = rng.standard_normal(n)
            v /= np.linalg.norm(v)
            frame = fc.complete_frame(v)
            projected = 0.0
            for x in frame.basis:
                acc = 0.0
                for i in range(n):
                    for j in range(n):
                        acc += x[i] * a[i, j] * x[j]
                projected += acc
            assert abs(fc.trace_reduction(a, v) - projected) <= 1e-10
