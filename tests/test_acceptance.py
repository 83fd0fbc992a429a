"""End-to-end acceptance checks for the constant-curvature claims.

One sweep is shared by several criteria: every metric family in the
catalog, at dimensions 2, 3, 4 and 6, with 200 seeded indicatrix points
each (4000 curvature reports, hyperdual path). Each criterion prints a
single PASS/FAIL summary line directly to the terminal.
"""

import numpy as np
import pytest

import finslercurv as fc
from finslercurv.hypersurface import evaluate_defining, shape_operator, weingarten_oracle
from finslercurv.indicatrix import adapted_field
from finslercurv.numkernel import projected_trace, trace_reduction

from conftest import catalog

FAMILIES = ("euclidean", "quadratic", "randers", "pnorm", "mroot")
DIMS = (2, 3, 4, 6)
POINTS_PER_SURFACE = 200
SWEEP_SEED = 9000


@pytest.fixture(scope="module")
def sweep():
    """All curvature reports for the catalog sweep, plus wall time."""
    import time
    start = time.perf_counter()
    reports = {}
    for dim in DIMS:
        cat = catalog(dim)
        for family in FAMILIES:
            fund = cat[family]
            points = fc.sample_indicatrix(fund, POINTS_PER_SURFACE, SWEEP_SEED + dim)
            reports[(family, dim)] = [fc.adapted_report(fund, p) for p in points]
    elapsed = time.perf_counter() - start
    return reports, elapsed


def announce(capsys, label, ok, detail):
    with capsys.disabled():
        print(f"\n[{'PASS' if ok else 'FAIL'}] {label}: {detail}")
    assert ok, f"{label}: {detail}"


def sweep_max(reports, attr):
    return max(getattr(r, attr) for batch in reports.values() for r in batch)


def test_criterion_1_constant_mean_curvature(sweep, capsys):
    reports, elapsed = sweep
    worst = sweep_max(reports, "residual_H")
    ok = worst <= 1e-8 and elapsed < 30.0
    announce(capsys, "criterion 1 (H == 1 across catalog)",
             ok, f"max |H - 1| = {worst:.3e}, sweep time {elapsed:.1f}s")


def test_criterion_2_hessian_trace_is_dimension(sweep, capsys):
    reports, _ = sweep
    worst = sweep_max(reports, "residual_trace")
    announce(capsys, "criterion 2 (adapted Hessian trace == dim)",
             worst <= 1e-8, f"max |trace - n| = {worst:.3e}")


def test_criterion_3_total_umbilicity(sweep, capsys):
    reports, _ = sweep
    worst = sweep_max(reports, "residual_umbilic")
    announce(capsys, "criterion 3 (all principal curvatures == 1)",
             worst <= 1e-6, f"max principal-curvature deviation = {worst:.3e}")


def test_criterion_4_trace_reduction_lemma(capsys):
    worst = 0.0
    for dim in range(2, 9):
        for trial in range(1000):
            rng = np.random.default_rng([81, dim, trial])
            a = rng.standard_normal((dim, dim))
            a = 0.5 * (a + a.T)
            normal = rng.standard_normal(dim)
            normal /= np.linalg.norm(normal)
            delta = abs(trace_reduction(a, normal) - projected_trace(a, normal))
            worst = max(worst, delta)
    announce(capsys, "criterion 4 (trace reduction lemma, dims 2..8 x 1000)",
             worst <= 1e-10, f"max |algebraic - projected| = {worst:.3e}")


def test_criterion_5_weingarten_oracle_agreement(sweep, capsys):
    reports, _ = sweep
    worst = sweep_max(reports, "oracle_gap")  # oracle step 1e-5 in every report
    ratios = []
    for family, dim, seed in (("randers", 3, 71), ("quadratic", 4, 72)):
        fund = catalog(dim)[family]
        point = fc.sample_indicatrix(fund, 1, seed)[0]
        fld = adapted_field(fund, point.chol)
        z = point.y_adapted
        ev = evaluate_defining(fld, z, on_surface=True)
        exact = shape_operator(ev).entries
        # steps where truncation dominates rounding, so halving shows the order
        coarse = np.max(np.abs(weingarten_oracle(fld, z, 4e-4).entries - exact))
        fine = np.max(np.abs(weingarten_oracle(fld, z, 2e-4).entries - exact))
        ratios.append(coarse / fine)
    ok = worst <= 1e-5 and all(3.5 <= r <= 4.5 for r in ratios)
    announce(capsys, "criterion 5 (finite-difference Weingarten oracle)",
             ok, f"max gap = {worst:.3e}, halving ratios = "
                 + ", ".join(f"{r:.2f}" for r in ratios))


def test_criterion_6_sphere_and_hyperplane_sanity(capsys):
    worst_sphere = 0.0
    rng = np.random.default_rng(55)
    for radius in (0.5, 1.0, 2.0, 5.0):
        fld = fc.ScalarField(3, lambda z, r=radius:
                             (z[0] * z[0] + z[1] * z[1] + z[2] * z[2] - r * r) * 0.5)
        for _ in range(10):
            u = rng.standard_normal(3)
            y = radius * u / np.linalg.norm(u)
            ev = evaluate_defining(fld, y, on_surface=True)
            h = fc.mean_curvature_trace(ev)
            worst_sphere = max(worst_sphere, abs(h - 1.0 / radius))
    plane = fc.ScalarField(3, lambda z: z[0] + 2.0 * z[1] - z[2] - 0.7)
    worst_plane = 0.0
    for _ in range(10):
        y = rng.standard_normal(3)
        y[2] = y[0] + 2.0 * y[1] - 0.7
        ev = evaluate_defining(plane, y, on_surface=True)
        worst_plane = max(worst_plane,
                          abs(fc.mean_curvature_trace(ev)))
    ok = worst_sphere <= 1e-10 and worst_plane <= 1e-12
    announce(capsys, "criterion 6 (spheres H = 1/r, hyperplanes H = 0)",
             ok, f"sphere residual {worst_sphere:.3e}, plane residual {worst_plane:.3e}")


def test_criterion_7_trace_vs_eigenvalue_path(sweep, capsys):
    reports, _ = sweep
    worst = sweep_max(reports, "path_gap")
    announce(capsys, "criterion 7 (trace route == shape-operator route)",
             worst <= 1e-10, f"max path gap = {worst:.3e}")


def test_criterion_8_byte_identical_reports(tmp_path, capsys):
    import finslercurv.cli as cli
    payloads = []
    for run in range(3):
        out = tmp_path / f"run_{run}.json"
        code = cli.main(["verify", "--metric", "randers:a=1,1,1,b=0.4,0,0",
                         "--dim", "3", "--samples", "60",
                         "--format", "json", "--output", str(out)])
        assert code == 0
        payloads.append(out.read_bytes())
    ok = payloads[0] == payloads[1] == payloads[2]
    announce(capsys, "criterion 8 (deterministic verify output)",
             ok, f"three runs, {len(payloads[0])} bytes each, "
                 f"identical={ok}")
