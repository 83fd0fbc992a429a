import dataclasses
import json
from types import SimpleNamespace

import numpy as np
import pytest

import finslercurv as fc
from finslercurv import autodiff
from finslercurv import indicatrix as ind
from finslercurv.autodiff import HyperDual
from finslercurv.exceptions import DomainViolation, RejectionOverflow
from finslercurv.metrics import FundamentalFunction, energy_field, parse_metric_spec

import golden_corpus as golden
from conftest import catalog, seeded_randers

FAMILIES = ("euclidean", "quadratic", "randers", "pnorm", "mroot")
BAD_POINT_CASES = [(bad, method) for method in ind.METHODS
                   for bad in ("off_surface", "singular_chol", "stencil_off_guard")]


def report_bits(rep):
    """Every number of a report, as exact hex strings."""
    point = rep.point
    arrays = (point.y, point.metric, point.chol, point.y_adapted, rep.principal)
    scalars = (rep.H, rep.residual_H, rep.residual_trace, rep.residual_umbilic,
               rep.oracle_gap, rep.path_gap, rep.normal_residual, rep.grad_norm_residual)
    return ([float(v).hex() for a in arrays for v in np.ravel(a)]
            + [float(v).hex() for v in scalars] + [rep.method])


class TestDefiningField:
    def test_euclidean(self):
        fld = fc.defining_field(fc.euclidean(3))
        y = np.array([0.3, -0.4, 1.2])
        value, grad, hess = fc.grad_hess(fld, y)
        assert abs(value - (y @ y - 1.0) / 2.0) <= 1e-15
        assert np.max(np.abs(hess - np.eye(3))) <= 1e-15

    def test_quadratic_hessian_is_parameter_matrix(self):
        a = np.array([[4.0, 1.0], [1.0, 2.0]])
        fld = fc.defining_field(fc.quadratic(a))
        _, _, hess = fc.grad_hess(fld, np.array([0.7, -0.2]))
        assert np.max(np.abs(hess - a)) <= 1e-12

    def test_hessian_equals_metric_tensor(self):
        a, b = seeded_randers(3, 8)
        fund = fc.randers(a, b)
        rng = np.random.default_rng(4)
        for _ in range(5):
            y = rng.standard_normal(3)
            _, _, hess = fc.grad_hess(fc.defining_field(fund), y)
            g = fc.metric_tensor(fund, y)
            assert np.max(np.abs(hess - g)) <= 1e-12 * np.max(np.abs(g))


class TestSampling:
    def test_normalization_euclidean(self):
        y = fc.normalize_to_indicatrix(fc.euclidean(2), [3.0, 4.0])
        assert np.max(np.abs(y - [0.6, 0.8])) <= 1e-16

    def test_normalization_randers(self):
        fund = fc.randers(np.eye(2), [0.5, 0.0])
        y = fc.normalize_to_indicatrix(fund, [1.0, 0.0])
        assert np.max(np.abs(y - [2.0 / 3.0, 0.0])) <= 1e-16

    @pytest.mark.parametrize("family", FAMILIES)
    def test_samples_on_indicatrix(self, family):
        fund = catalog(3)[family]
        for point in fc.sample_indicatrix(fund, 50, 7):
            assert abs(fc.eval_F(fund, point.y) - 1.0) <= 1e-12
            assert abs(np.linalg.norm(point.y_adapted) - 1.0) <= 1e-8
            low = point.chol
            assert np.max(np.abs(low @ low.T - point.metric)) <= 1e-12 * \
                np.max(np.abs(point.metric))

    def test_large_sweep_on_surface(self):
        fund = fc.euclidean(3)
        points = fc.sample_indicatrix(fund, 10_000, 99)
        residuals = [abs(fc.eval_F(fund, p.y) - 1.0) for p in points]
        assert max(residuals) <= 1e-12

    def test_deterministic_and_prefix_stable(self):
        fund = catalog(4)["randers"]
        first = fc.sample_indicatrix(fund, 10, 42)
        second = fc.sample_indicatrix(fund, 10, 42)
        short = fc.sample_indicatrix(fund, 4, 42)
        for a, b in zip(first, second):
            assert np.array_equal(a.y, b.y)
        for a, b in zip(short, first):
            assert np.array_equal(a.y, b.y)

    @pytest.mark.parametrize("family", ["pnorm", "mroot"])
    def test_prefix_stable_with_retries(self, family):
        # the guarded families map their draws into the sampling guard;
        # the longest run crosses a chunk boundary at each n
        for dim in (2, 6):
            fund = catalog(dim)[family]
            runs = [fc.sample_indicatrix(fund, count, 42)
                    for count in (1, 7, ind.chunk_points(dim) + 9)]
            longest = runs[-1]
            for run in runs[:-1]:
                for a, b in zip(run, longest):
                    assert np.array_equal(a.y, b.y)
                    assert np.array_equal(a.chol, b.chol)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_one_generator_per_call(self, monkeypatch, family):
        # one (count, n) block keyed [seed, 0], whatever the family's guard margin
        fund = catalog(6)[family]
        keys = []
        default_rng = np.random.default_rng

        def counted(seed=None):
            keys.append(list(seed))
            return default_rng(seed)

        monkeypatch.setattr(np.random, "default_rng", counted)
        fc.sample_indicatrix(fund, ind.chunk_points(6) + 9, 42)
        assert keys == [[42, 0]]

    @pytest.mark.parametrize("dim", range(2, 45))
    def test_zero_draws_land_inside_sampling_guard(self, monkeypatch, dim):
        # a zero coordinate maps to the floor of the cone, where rounding decides the
        # guard; the floor's slack of 4n eps keeps every such row inside it
        fund = fc.pnorm(dim, 4)
        rng = np.random.default_rng(dim)
        draws = rng.standard_normal((400, dim))
        draws[np.arange(dim) < rng.integers(1, dim, 400)[:, None]] = 0.0
        draws[::4] = rng.choice([-1.0, 1.0], (100, dim))  # the cone's diagonals
        monkeypatch.setattr(ind, "_per_chunk", lambda compute, rows, dim: rows)
        monkeypatch.setattr(np.random, "default_rng",
                            lambda seed: SimpleNamespace(standard_normal=lambda shape: draws))
        mapped = ind._sample_chunks(fund, 400, 0)
        margin = ind.SAMPLING_MARGIN_FACTOR * fund.guard_margin
        assert dataclasses.replace(fund, guard_margin=margin).guard_rows(mapped).all()

    def test_draw_outside_sampling_guard_raises(self, monkeypatch):
        # a non-finite draw fails the guard check with one line, and is not redrawn
        monkeypatch.setattr(np.random, "default_rng", lambda seed: SimpleNamespace(
            standard_normal=lambda shape: np.full(shape, np.inf)))
        with np.errstate(invalid="ignore"), pytest.raises(
                DomainViolation,
                match=r"^draw 0 misses the sampling guard min\|y_i\| >= 0.15\*\|y\| at dim 3$"):
            fc.sample_indicatrix(fc.pnorm(3, 4), 5, 0)

    def test_rejection_overflow(self):
        # a guard excluding almost everything
        fund = FundamentalFunction("pnorm", 3, exponent=4, guard_margin=0.9)
        with pytest.raises(RejectionOverflow):
            fc.sample_indicatrix(fund, 1, 0)

    def test_rejection_overflow_where_only_the_diagonals_pass(self):
        # margin * sqrt(n) = 0.5 * 2 = 1 exactly: min|y_i| >= |y| / sqrt(n) holds only on
        # the diagonals, a set no draw hits
        fund = fc.pnorm(4, 4, guard_margin=1 / 30)
        assert ind.SAMPLING_MARGIN_FACTOR * fund.guard_margin * 2.0 == 1.0
        with pytest.raises(RejectionOverflow, match=r"at dim 4; the largest dim it allows is 3$"):
            fc.sample_indicatrix(fund, 1, 0)

    def test_negative_seed_rejected_before_first_draw(self, monkeypatch):
        def no_draws(seed=None):
            raise AssertionError("a generator was created")

        monkeypatch.setattr(np.random, "default_rng", no_draws)
        with pytest.raises(ValueError, match="^seed must be >= 0$"):
            fc.sample_indicatrix(fc.euclidean(3), 5, -1)

    def test_zero_count_rejected(self):
        with pytest.raises(ValueError, match="^count must be >= 1$"):
            fc.sample_indicatrix(fc.euclidean(3), 0, 1)

    def test_empty_domain_rejected_before_first_draw(self, monkeypatch):
        # 0.15 * sqrt(n) > 1 from n = 45 on: no direction passes the guard
        def no_draws(seed=None):
            raise AssertionError("a generator was created")

        monkeypatch.setattr(np.random, "default_rng", no_draws)
        with pytest.raises(RejectionOverflow, match=r"at dim 45; the largest dim it allows is 44$"):
            fc.sample_indicatrix(fc.pnorm(45, 4), 5, 0)
        with pytest.raises(AssertionError):  # dim 44 goes on to draw
            fc.sample_indicatrix(fc.pnorm(44, 4), 5, 0)


# normalize_to_indicatrix's one rule: metric specs, and the rows scaled in one stacked call
SCALING_SPECS = ("euclidean", "quadratic:A=2,3,4", "randers:a=1,2,3,b=0.3,-0.2,0.1",
                 "pnorm:p=16")
SCALED_ROWS = [[1.0, -2.0, 1.5], [1e-160, 1e-160, 1e-160], [5e-324, 5e-324, 1e-323],
               [1e200, -2e200, 3e200]]
EXTRA_ROWS = {"pnorm:p=16": [1e20, 2e20, 1.5e20]}  # in the window, but F overflows
UNSCALABLE = [  # (spec, row): a zero, non-finite or off-guard row
    ("euclidean", [0.0, 0.0, 0.0]),
    ("euclidean", [np.inf, 1.0, 1.0]),
    ("euclidean", [np.nan, 1.0, 1.0]),
    ("randers:a=1,2,3,b=0.3,-0.2,0.1", [np.inf, -np.inf, 1.0]),
    ("pnorm:p=16", [1.0, 0.0, 1.0]),
    ("pnorm:p=16", [1e300, 1e-300, 1.0]),  # off the guard once divided by 2^997
    ("pnorm:p=16", [np.inf, np.inf, np.inf]),
]


def curvature_cli(spec, row):
    """Exit code, stdout and stderr of ``curvature --format json`` at ``row``."""
    point = ",".join(map(repr, row))
    return golden.run_cli_in_process(golden.CLI + [
        "curvature", "--metric", spec, "--dim", "3", f"--point={point}", "--format", "json"])


class TestNormalization:
    @pytest.mark.parametrize("spec", SCALING_SPECS)
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_rows_scale_as_the_cli_scales_them(self, spec):
        fund = parse_metric_spec(spec, 3)
        rows = SCALED_ROWS + [EXTRA_ROWS.get(spec, [1e200, 1.0, 1.0])]
        scaled = fc.normalize_to_indicatrix(fund, rows)
        residuals = np.abs(fc.eval_F(fund, scaled) - 1.0)
        assert (residuals <= 1e-15).all(), residuals
        for row, y in zip(rows, scaled):
            code, out, err = curvature_cli(spec, row)
            assert code == 0, err
            assert y.tobytes() == np.array(json.loads(out)["point"]).tobytes(), row

    @pytest.mark.parametrize("spec", SCALING_SPECS)
    def test_point_within_tolerance_comes_back_as_given(self, spec):
        fund = parse_metric_spec(spec, 3)
        on = fc.normalize_to_indicatrix(fund, [1.0, -2.0, 1.5])
        near, off = on * (1.0 + 5e-11), on * (1.0 + 2e-10)
        got = fc.normalize_to_indicatrix(fund, np.stack([on, near, off]))
        assert got[:2].tobytes() == np.stack([on, near]).tobytes()
        assert got[2].tobytes() != off.tobytes()
        alone = [fc.normalize_to_indicatrix(fund, row) for row in (on, near, off)]
        assert got.tobytes() == np.stack(alone).tobytes()  # a stack gives each row's own bits
        assert fc.indicatrix_point(fund, near).y.tobytes() == near.tobytes()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_stack_with_an_overflowing_row_scales_each_row_alone(self):
        # both rows lie in the window, so the stack is evaluated at once; F of the second
        # overflows there, and the stack then falls back to each row's own rule
        fund = parse_metric_spec("pnorm:p=16", 3)
        rows = [[1.0, -2.0, 1.5], EXTRA_ROWS["pnorm:p=16"]]
        alone = np.stack([fc.normalize_to_indicatrix(fund, row) for row in rows])
        assert np.abs(fc.eval_F(fund, alone) - 1.0).max() <= 1e-15
        assert fc.normalize_to_indicatrix(fund, rows).tobytes() == alone.tobytes()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_large_exponent_row_is_scaled_by_its_largest_entry(self):
        # at p = 4000, 0.72^4000 underflows and 1.5^4000 overflows, and the power-of-two
        # rescale leaves both sums out of range; dividing by the largest entry gives [1, 1]
        fund = fc.pnorm(2, 4000)
        rows = [[0.72, 0.72], [1.0, 1.0], [1.5, 1.5]]
        on = fc.normalize_to_indicatrix(fund, rows)
        assert np.abs(fc.eval_F(fund, on) - 1.0).max() <= 1e-15
        assert on.tobytes() == np.stack([on[1]] * 3).tobytes()

    @pytest.mark.parametrize("p", [12, 16])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_subnormal_power_sum_is_rescaled(self, p):
        # sum |y_i|^p of the row is subnormal but positive, so F is finite and nonzero;
        # only the window's lower end 2^(-200/p) sends the row to the exact rescale
        spec, row = f"pnorm:p={p}", [1e-20, 2e-20, 1.5e-20]
        fund = parse_metric_spec(spec, 3)
        y = fc.normalize_to_indicatrix(fund, row)
        assert abs(fc.eval_F(fund, y) - 1.0) <= 1e-15
        code, out, err = curvature_cli(spec, row)
        assert code == 0, err
        assert y.tobytes() == np.array(json.loads(out)["point"]).tobytes()

    @pytest.mark.parametrize("spec, row", UNSCALABLE,
                             ids=[f"{spec.partition(':')[0]}-{row}" for spec, row in UNSCALABLE])
    def test_unscalable_row_raises_the_cli_message(self, spec, row):
        fund = parse_metric_spec(spec, 3)
        code, _, err = curvature_cli(spec, row)
        assert code == 2
        for rows in ([row], [[1.0, -2.0, 1.5], row]):
            with pytest.raises(DomainViolation) as info:
                fc.normalize_to_indicatrix(fund, rows)
            assert err == f"finslercurv: error: {' '.join(str(info.value).split())}\n"


class TestAdaptedReport:
    def test_euclidean_exact(self):
        fund = fc.euclidean(3)
        for point in fc.sample_indicatrix(fund, 10, 3):
            rep = fc.adapted_report(fund, point)
            assert rep.residual_H <= 1e-12
            assert rep.residual_trace <= 1e-12
            assert rep.residual_umbilic <= 1e-10

    def test_quadratic_ellipse(self):
        fund = fc.quadratic(np.diag([4.0, 1.0]))
        for point in fc.sample_indicatrix(fund, 20, 5):
            rep = fc.adapted_report(fund, point)
            assert rep.residual_H <= 1e-10

    def test_randers_hundred_points(self):
        fund = fc.randers(np.eye(3), [0.3, 0.0, 0.0])
        worst_h = worst_umb = 0.0
        for point in fc.sample_indicatrix(fund, 100, 11):
            rep = fc.adapted_report(fund, point)
            worst_h = max(worst_h, rep.residual_H)
            worst_umb = max(worst_umb, rep.residual_umbilic)
        assert worst_h <= 1e-8
        assert worst_umb <= 1e-6

    @pytest.mark.parametrize("family", FAMILIES)
    def test_radius_vector_normal(self, family):
        fund = catalog(3)[family]
        for point in fc.sample_indicatrix(fund, 10, 13):
            rep = fc.adapted_report(fund, point)
            assert rep.normal_residual <= 1e-8
            assert rep.grad_norm_residual <= 1e-8

    def test_fd_method(self):
        fund = catalog(3)["randers"]
        for point in fc.sample_indicatrix(fund, 10, 17):
            rep = fc.adapted_report(fund, point, method="fd")
            assert rep.method == "fd"
            assert rep.residual_H <= 1e-5

    def test_path_equivalence(self):
        for family in FAMILIES:
            fund = catalog(4)[family]
            for point in fc.sample_indicatrix(fund, 10, 19):
                rep = fc.adapted_report(fund, point)
                assert rep.path_gap <= 1e-10

    def test_near_degenerate_randers(self):
        a, b = seeded_randers(3, 23, strength=0.99)
        fund = fc.randers(a, b)
        for point in fc.sample_indicatrix(fund, 30, 29):
            rep = fc.adapted_report(fund, point)
            assert rep.residual_H <= 1e-6
            assert rep.residual_trace <= 1e-6

    @pytest.mark.parametrize("bad, method", BAD_POINT_CASES,
                             ids=[bad + ("" if method == "hyperdual" else f"-{method}")
                                  for bad, method in BAD_POINT_CASES])
    def test_bad_point_isolated_in_chunk(self, bad, method):
        fund = catalog(3)["pnorm"]
        points = fc.sample_indicatrix(fund, 12, 37)
        p = points[5]
        if bad == "off_surface":
            y = 1.1 * p.y
            points[5] = ind.IndicatrixPoint(y, p.metric, p.chol, p.chol.T @ y)
        elif bad == "singular_chol":
            points[5] = ind.IndicatrixPoint(p.y, p.metric, np.zeros((3, 3)), p.y_adapted)
        else:
            # just inside the guard band around y_3 = 0: the stencil leaves it
            y = fc.normalize_to_indicatrix(fund, [1.0, 0.8, 0.010001 * np.sqrt(1.64)])
            points[5] = fc.indicatrix_point(fund, y)
        batch = fc.adapted_reports(fund, points, method=method)
        failures = [index for index, item in enumerate(batch) if isinstance(item, Exception)]
        assert failures == [5]
        for index, point in enumerate(points):
            if index == 5:
                with pytest.raises(Exception) as solo:
                    fc.adapted_report(fund, point, method=method)
                assert type(batch[5]) is solo.type
                assert str(batch[5]) == str(solo.value)
            else:
                assert report_bits(batch[index]) == \
                    report_bits(fc.adapted_report(fund, point, method=method))

    def test_unknown_method_rejected(self):
        fund = fc.euclidean(2)
        point = fc.sample_indicatrix(fund, 1, 1)[0]
        with pytest.raises(ValueError):
            fc.adapted_report(fund, point, method="symbolic")


class TestVerifyClaims:
    def test_euclidean_summary(self):
        summary = fc.verify_claims(fc.euclidean(4), count=100, seed=1, tol=1e-10,
                                   methods=("hyperdual",))
        stats = summary.stats["hyperdual"]
        assert summary.passed
        assert stats.max_residual_H <= 1e-12
        assert stats.count == 100
        assert not stats.failures

    def test_pnorm_pipeline(self):
        summary = fc.verify_claims(fc.pnorm(3, 4), count=200, seed=2, tol=1e-8,
                                   methods=("hyperdual",))
        assert summary.passed

    def test_both_methods(self):
        summary = fc.verify_claims(fc.euclidean(3), count=20, seed=3, tol=1e-5)
        assert set(summary.stats) == {"hyperdual", "fd"}
        assert summary.passed

    @pytest.mark.parametrize("tol", [0.0, -1e-8, float("nan")])
    def test_non_positive_tolerance_rejected(self, tol):
        with pytest.raises(ValueError, match="tol must be positive"):
            fc.verify_claims(fc.euclidean(3), count=2, tol=tol)

    @pytest.mark.parametrize("fd_step", [0.0, float("nan"), -1e-5, 1e-300])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_fd_step_checked_before_sampling(self, fd_step, monkeypatch):
        monkeypatch.setattr(ind, "_sample_chunks", None)  # would raise TypeError if reached
        with pytest.raises(ValueError, match="^finite-difference step must lie in"):
            fc.verify_claims(fc.euclidean(3), count=2, methods=("fd",), fd_step=fd_step)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_fd_step_is_a_point_failure(self):
        # h = 2**511 passes check_step, but the scaled step leaves 4 * step**2 infinite
        summary = fc.verify_claims(fc.euclidean(3), count=3, methods=("fd",), fd_step=2.0 ** 511)
        stats = summary.stats["fd"]
        assert not summary.passed and stats.count == 0
        assert [f["index"] for f in stats.failures] == [0, 1, 2]
        assert all(f["error"].startswith("scaled finite-difference step") for f in stats.failures)
        assert all(isinstance(item, ValueError) for item in summary.reports["fd"])

    @pytest.mark.parametrize("methods", [("HyperDual",), (), "hyperdual"])
    def test_bad_methods_rejected_before_sampling(self, methods, monkeypatch):
        monkeypatch.setattr(ind, "_sample_chunks", None)  # would raise TypeError if reached
        with pytest.raises(ValueError, match="method"):
            fc.verify_claims(fc.euclidean(3), count=2, methods=methods)

    def test_impossible_tolerance_marks_failures(self):
        summary = fc.verify_claims(catalog(3)["randers"], count=20, seed=4, tol=1e-16,
                                   methods=("hyperdual",))
        assert not summary.passed
        assert summary.stats["hyperdual"].failures

    def test_batch_composition_invariance(self):
        for method in ind.METHODS:
            # n = 6: below n = 5 the stacked BLAS paths hid a layout dependence
            fund = catalog(6)["randers"]
            batched = fc.verify_claims(fund, count=20, seed=5, tol=1e-8,
                                       methods=(method,))
            solo = [fc.adapted_report(fund, p, method=method) for p in batched.points]
            a = batched.stats[method]
            b = report_statistics(method, solo, 1e-8)
            assert (a.max_residual_H, a.mean_residual_H, a.max_residual_trace,
                    a.max_residual_umbilic, a.max_oracle_gap) == \
                   (b.max_residual_H, b.mean_residual_H, b.max_residual_trace,
                    b.max_residual_umbilic, b.max_oracle_gap), method
            for x, y in zip(batched.reports[method], solo):
                assert report_bits(x) == report_bits(y), method
            for dim in (2, 6):  # the long run crosses a chunk boundary at each n
                for fam in FAMILIES:
                    fund = catalog(dim)[fam]
                    short = fc.verify_claims(fund, count=7, seed=8, methods=(method,))
                    long = fc.verify_claims(fund, count=ind.chunk_points(dim) + 9, seed=8,
                                            methods=(method,))
                    for x, y in zip(short.reports[method], long.reports[method]):
                        assert report_bits(x) == report_bits(y), (method, dim, fam)

    @pytest.mark.parametrize("method", ind.METHODS)
    @pytest.mark.parametrize("dim, count, bad", [(3, 50, 25), (6, ind.chunk_points(6) + 9, 64)],
                             ids=["n3", "n6-two-chunks"])
    def test_report_failure_isolated_in_stacked_path(self, monkeypatch, method, dim, count,
                                                     bad):
        # one point raises in the report stage, mid-chunk: the bisection slices the
        # stacks with the records, and the statistics merge its error record in order
        fund = catalog(dim)["randers"]
        target = fc.sample_indicatrix(fund, count, 8)[bad].y_adapted
        evaluation = ind.defining_evaluation

        def faulty(y, *args, **kwargs):
            if (y == target).all(axis=-1).any():
                raise fc.OffSurface("injected fault")
            return evaluation(y, *args, **kwargs)

        monkeypatch.setattr(ind, "defining_evaluation", faulty)
        summary = fc.verify_claims(fund, count=count, seed=8, methods=(method,))
        solo = []
        for point in summary.points:
            try:
                solo.append(fc.adapted_report(fund, point, method=method))
            except ind.POINT_ERRORS as exc:
                solo.append(exc)
        reports = summary.reports[method]
        assert [index for index, item in enumerate(reports)
                if isinstance(item, Exception)] == [bad]
        assert type(reports[bad]) is type(solo[bad]) is fc.OffSurface
        assert str(reports[bad]) == str(solo[bad]) == "injected fault"
        stats = summary.stats[method]
        assert {"index": bad, "error": "injected fault"} in stats.failures
        assert repr(dataclasses.asdict(stats)) == \
            repr(dataclasses.asdict(report_statistics(method, solo, 1e-8)))
        for index, (x, y) in enumerate(zip(reports, solo)):
            if index != bad:
                assert report_bits(x) == report_bits(y), index

    def test_record_lists_are_plain_lists(self):
        fund = catalog(3)["randers"]
        points = fc.sample_indicatrix(fund, 5, 1)
        summary = fc.verify_claims(fund, count=5, seed=1)
        for records, kind in [(points, fc.IndicatrixPoint), (summary.points, fc.IndicatrixPoint),
                              (fc.adapted_reports(fund, points), fc.CurvatureReport),
                              *((summary.reports[m], fc.CurvatureReport) for m in ind.METHODS)]:
            assert type(records) is list
            assert all(type(record) is kind for record in records)
        assert all(type(p.metric) is np.ndarray for p in points + summary.points)

    def test_value_calls_do_not_grow_with_points(self, monkeypatch):
        calls = []
        value = FundamentalFunction.value

        def counted(self, z):
            calls.append(1)
            return value(self, z)

        monkeypatch.setattr(FundamentalFunction, "value", counted)
        counts = []
        # the top count is the most whose widest evaluation, the oracle's 4 stencil rows
        # of 3 x 3 slots a point, fits one block at n = 3
        for count in (1, 5, autodiff.STACK_FLOATS // (4 * 3 * 3)):
            calls.clear()
            fc.verify_claims(catalog(3)["randers"], count=count, seed=5,
                             methods=("hyperdual",))
            counts.append(len(calls))
        assert counts[0] == counts[1] == counts[2]

    def test_near_degenerate_stress(self):
        a, b = seeded_randers(3, 31, strength=0.99)
        summary = fc.verify_claims(fc.randers(a, b), count=50, seed=6, tol=1e-6,
                                   methods=("hyperdual",))
        assert summary.passed


class TestDimensionLadder:
    @pytest.mark.parametrize("dim", [8, 12, 16, 24])
    @pytest.mark.parametrize("family", FAMILIES)
    def test_every_family_passes(self, family, dim):
        # 20 points are one chunk here; from n = 12 on they cross the oracle's
        # evaluation blocks (14 points a block at n = 12, 1 at n = 24)
        self.check(family, dim, 20)

    @pytest.mark.parametrize("dim", [64, 100])
    @pytest.mark.parametrize("family", ["euclidean", "quadratic", "randers"])
    def test_high_dimensions(self, family, dim):
        # the power sums sample only up to n = 44
        self.check(family, dim, 3)

    @staticmethod
    def check(family, dim, count):
        fund = catalog(dim)[family]
        summary = fc.verify_claims(fund, count=count, seed=dim, methods=("hyperdual",))
        assert summary.passed, summary.stats["hyperdual"]
        for point, rep in zip(summary.points, summary.reports["hyperdual"]):
            assert report_bits(rep) == report_bits(fc.adapted_report(fund, point))


class TestChunks:
    def test_chunk_points_by_dimension(self):
        assert [ind.chunk_points(n) for n in range(2, 8)] == [11520, 3840, 1920, 1152, 768, 548]
        assert [ind.chunk_points(n) for n in (24, 32, 44, 100, 107, 108, 400)] == \
            [41, 23, 12, 2, 2, 1, 1]

    def test_widest_stacked_array_within_budget(self, monkeypatch):
        # widest = coordinates x rows x slots of an argument the field's func receives,
        # over two chunks' sampling and reports; one point wider than the budget
        # (fd and the oracle from n = 29) is its own block
        widths = []
        value = FundamentalFunction.value

        def measured(fund, z):
            n = fund.dim
            slots = {HyperDual: n * (n + 1) // 2, autodiff.Dual: n}.get(type(z), 1)
            widths.append(np.size(z.real) * slots)
            return value(fund, z)

        monkeypatch.setattr(FundamentalFunction, "value", measured)
        for n in (6, 16, 29):
            fund = fc.euclidean(n)
            widths.clear()
            points = fc.sample_indicatrix(fund, ind.chunk_points(n) + 1, 3)
            for method in ind.METHODS:
                reports = fc.adapted_reports(fund, points, method=method)
                assert not any(isinstance(item, Exception) for item in reports)
                one_point = max(n * n * (n + 1) // 2, 2 * (n - 1) * n * n,
                                n * (2 * n * n + 1) if method == "fd" else 0)
                assert max(widths) <= max(one_point, autodiff.STACK_FLOATS), (n, method)
        # every route keeps the budget under a pre-map of one matrix (blocked by rows) or of
        # one matrix per 2 rows (by whole matrices); unblocked, 4,000 rows at n = 3 are
        # 228,000 floats for fd and 72,000 for grad_hess
        rows = np.random.default_rng(3).standard_normal((4000, 3))
        for pre in (np.eye(3), np.tile(np.eye(3), (2000, 1, 1))):
            fld = dataclasses.replace(energy_field(fc.euclidean(3)), pre=pre)
            for route in (autodiff.grad_hess, autodiff.gradients, autodiff.fd_grad_hess):
                widths.clear()
                route(fld, rows)
                assert max(widths) <= autodiff.STACK_FLOATS, (route.__name__, pre.shape)

    def test_bad_point_isolated_by_bisection(self, monkeypatch):
        fund = catalog(3)["pnorm"]
        points = fc.sample_indicatrix(fund, 64, 37)
        p = points[37]
        y = 1.1 * p.y
        points[37] = ind.IndicatrixPoint(y, p.metric, p.chol, p.chol.T @ y)
        calls = []
        chunk_reports = ind._chunk_reports

        def counted(fund, chunk, *args):
            calls.append(len(chunk))
            return chunk_reports(fund, chunk, *args)

        monkeypatch.setattr(ind, "_chunk_reports", counted)
        batch = fc.adapted_reports(fund, points)
        assert calls[0] == 64 <= ind.chunk_points(3)
        assert len(calls) <= 2 * 6 + 1
        assert [index for index, item in enumerate(batch)
                if isinstance(item, Exception)] == [37]

    def test_failing_items_keep_their_places(self):
        def compute(items):
            for item in items:
                if item % 5 == 3:
                    raise ValueError(f"bad {item}")
            return list(items)

        out = ind._isolating(compute, list(range(16)))
        assert [str(x) if isinstance(x, Exception) else x for x in out] == \
            [f"bad {i}" if i % 5 == 3 else i for i in range(16)]


class TestMechanism:
    def test_pull_back_adds_no_dual_arithmetic(self, monkeypatch):
        fund = catalog(4)["randers"]
        point = fc.sample_indicatrix(fund, 1, 3)[0]
        products = []
        mul = HyperDual.__mul__

        def counted(self, other):
            products.append(1)
            return mul(self, other)

        monkeypatch.setattr(HyperDual, "__mul__", counted)
        fc.grad_hess(fc.defining_field(fund), point.y)
        plain = len(products)
        products.clear()
        fc.grad_hess(ind.adapted_field(fund, point.chol), point.y_adapted)
        assert plain > 0 and len(products) == plain

    def test_seed_tables_built_once_per_dimension(self, monkeypatch):
        calls = []
        triu_indices = np.triu_indices

        def counted(n, *args, **kwargs):
            calls.append(n)
            return triu_indices(n, *args, **kwargs)

        monkeypatch.setattr(np, "triu_indices", counted)
        autodiff._seeds.cache_clear()
        for _ in range(3):
            for dim in range(2, 6):
                fc.grad_hess(energy_field(fc.euclidean(dim)), np.ones((4, dim)))
        assert sorted(calls) == [2, 3, 4, 5]
        with pytest.raises(ValueError):
            autodiff._seeds(3).eye[0, 0] = 2.0  # shared tables are read-only

    def test_seed_tables_hold_quadratic_bytes(self):
        # the identity and the m = n(n+1)/2 index pairs, O(n^2): no (n, m) table,
        # and none of fd's 2n^2 + 1 stencil offsets (1 GB at n = 400)
        n = 100
        m = n * (n + 1) // 2
        assert sum(table.nbytes for table in autodiff._seeds(n)) <= 8 * (n * n + 3 * m)

    def test_one_eigensolve_per_report_chunk(self, monkeypatch):
        fund = catalog(3)["randers"]
        points = fc.sample_indicatrix(fund, ind.chunk_points(3) + 5, 3)
        calls = []
        eigvalsh = np.linalg.eigvalsh

        def counted(a, *args, **kwargs):
            calls.append(1)
            return eigvalsh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", counted)
        fc.adapted_reports(fund, points)
        assert len(calls) == 2

    def test_fd_runs_one_evaluation_per_report_chunk(self, monkeypatch):
        # a failure only the stacked path raises would be bisected away to
        # single points, every report still right but the chunk not batched
        fund = catalog(3)["randers"]
        points = fc.sample_indicatrix(fund, ind.chunk_points(3) + 5, 3)
        chunks, evaluations = [], []
        chunk_reports, fd_grad_hess = ind._chunk_reports, ind.fd_grad_hess

        def counted_chunk(fund, chunk, *args):
            chunks.append(len(chunk))
            return chunk_reports(fund, chunk, *args)

        def counted_fd(fld, y, *args, **kwargs):
            evaluations.append(len(y))
            return fd_grad_hess(fld, y, *args, **kwargs)

        monkeypatch.setattr(ind, "_chunk_reports", counted_chunk)
        monkeypatch.setattr(ind, "fd_grad_hess", counted_fd)
        reports = fc.adapted_reports(fund, points, method="fd")
        assert not any(isinstance(item, Exception) for item in reports)
        assert chunks == evaluations == [ind.chunk_points(3), 5]


def report_columns(reports):
    """The (8, N) columns _reports gives for ``reports``: each report's float fields in
    order, NaN for an exception in place of one that raised."""
    return np.array([[np.nan] * 8 if isinstance(item, Exception) else
                     [item.H, *item[3:6], *item[7:]] for item in reports]).reshape(-1, 8).T


def report_statistics(method, reports, tol):
    """ind._statistics over a list of reports, with their report_columns."""
    return ind._statistics(method, reports, report_columns(reports), tol)


def reference_aggregate(method, reports, tol):
    """ind._statistics' rule as a plain running loop over the reports, one at a time."""
    stats = ind.MethodStats(method)
    residuals = []
    for index, item in enumerate(reports):
        if isinstance(item, Exception):
            stats.failures.append({"index": index, "error": str(item)})
            continue
        stats.count += 1
        residuals.append(item.residual_H)
        stats.max_residual_H = max(stats.max_residual_H, item.residual_H)
        stats.max_residual_trace = max(stats.max_residual_trace, item.residual_trace)
        stats.max_residual_umbilic = max(stats.max_residual_umbilic, item.residual_umbilic)
        stats.max_oracle_gap = max(stats.max_oracle_gap, item.oracle_gap)
        stats.max_path_gap = max(stats.max_path_gap, item.path_gap)
        if not (item.residual_H <= tol and item.residual_trace <= tol
                and item.residual_umbilic <= tol):
            stats.failures.append({
                "index": index,
                "residual_H": item.residual_H,
                "residual_trace": item.residual_trace,
                "residual_umbilic": item.residual_umbilic,
            })
    stats.mean_residual_H = float(np.mean(residuals)) if residuals else 0.0
    stats.passed = not stats.failures and stats.max_oracle_gap <= ind.ORACLE_GAP_BOUND
    return stats


@pytest.fixture(scope="module")
def chunk_reports():
    fund = catalog(3)["randers"]
    return fc.adapted_reports(fund, fc.sample_indicatrix(fund, 200, 11))


def aggregate_cases(reps):
    nan = float("nan")
    bad = [fc.DomainViolation("point [1. 0. 0.] is outside the field's domain"),
           ValueError("singular"), ZeroDivisionError("zero real part")]
    return {
        "empty": [],
        "single": reps[:1],
        "errors only": bad,
        "errors mixed": [bad[0], reps[0], reps[1], bad[1], reps[2], bad[2]],
        "nan residual_H": [reps[0], reps[1]._replace(residual_H=nan), reps[2]],
        "nan first": [reps[0]._replace(residual_H=nan, residual_trace=nan, oracle_gap=nan),
                      reps[1]],
        "nan gaps": [reps[0]._replace(oracle_gap=nan, path_gap=nan, residual_umbilic=nan)],
        "above tol": [reps[0], reps[1]._replace(residual_trace=1e-6),
                      reps[2]._replace(residual_umbilic=2e-8, residual_H=3e-8), reps[3]],
        "oracle gap above bound": [reps[0], reps[1]._replace(oracle_gap=2 * ind.ORACLE_GAP_BOUND)],
        "equal maxima": [reps[0]._replace(residual_H=1e-12), reps[1]._replace(residual_H=1e-12)],
        "real chunk": reps,
        "real chunk with errors": [bad[k % 3] if k % 37 == 5 else rep
                                   for k, rep in enumerate(reps)],
    }


class TestAggregate:
    @pytest.mark.parametrize("case", ["empty", "single", "errors only", "errors mixed",
                                      "nan residual_H", "nan first", "nan gaps", "above tol",
                                      "oracle gap above bound", "equal maxima", "real chunk",
                                      "real chunk with errors"])
    @pytest.mark.parametrize("tol", [1e-8, 1e-15])
    def test_matches_running_loop(self, chunk_reports, case, tol):
        reports = aggregate_cases(chunk_reports)[case]
        got = report_statistics("hyperdual", reports, tol)
        want = reference_aggregate("hyperdual", reports, tol)
        # repr tells every float apart, NaN included, and keeps failure order
        assert repr(dataclasses.asdict(got)) == repr(dataclasses.asdict(want))
        for name in ("max_residual_H", "mean_residual_H", "max_residual_trace",
                     "max_residual_umbilic", "max_oracle_gap", "max_path_gap"):
            assert type(getattr(got, name)) is float


RECORD_FIELDS = {
    fc.IndicatrixPoint: ("y", "metric", "chol", "y_adapted"),
    fc.CurvatureReport: ("point", "H", "principal", "residual_H", "residual_trace",
                         "residual_umbilic", "method", "oracle_gap", "path_gap",
                         "normal_residual", "grad_norm_residual"),
}


class TestRecords:
    @pytest.fixture(scope="class")
    def records(self):
        fund = catalog(3)["pnorm"]
        rep = fc.adapted_report(fund, fc.sample_indicatrix(fund, 1, 2)[0])
        return {fc.IndicatrixPoint: rep.point, fc.CurvatureReport: rep}

    @pytest.mark.parametrize("kind", list(RECORD_FIELDS), ids=lambda kind: kind.__name__)
    def test_field_order(self, records, kind):
        assert kind._fields == RECORD_FIELDS[kind]
        record = records[kind]
        assert all(getattr(record, name) is value
                   for name, value in zip(RECORD_FIELDS[kind], record))

    @pytest.mark.parametrize("kind", list(RECORD_FIELDS), ids=lambda kind: kind.__name__)
    def test_positional_and_keyword_construction_agree(self, records, kind):
        values = list(records[kind])
        by_position = kind(*values)
        by_keyword = kind(**dict(zip(RECORD_FIELDS[kind], values)))
        for name, value in zip(RECORD_FIELDS[kind], values):
            assert getattr(by_position, name) is value
            assert getattr(by_keyword, name) is value

    @pytest.mark.parametrize("kind", list(RECORD_FIELDS), ids=lambda kind: kind.__name__)
    def test_immutable(self, records, kind):
        record = records[kind]
        for name in RECORD_FIELDS[kind]:
            with pytest.raises(AttributeError):
                setattr(record, name, None)
        with pytest.raises(AttributeError):
            record.extra = 1.0