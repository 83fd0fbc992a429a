"""Curvature verification on the indicatrix {y : F(y) = 1}.

The indicatrix is treated as the zero level set of f(y) = (F(y)^2 - 1)/2,
whose Hessian is exactly the metric tensor g. At each sampled point y the
coordinates are adapted by the Cholesky factor of g(y): in z = L^T y
coordinates the metric at that point is the identity, the unit normal is
the radius vector z itself with |grad f| = 1, the Hessian trace equals
the ambient dimension, and the mean curvature is identically 1 with every
principal curvature equal to 1 (total umbilicity). Reports record the
numerical residuals of each of those statements, plus the gap to the
finite-difference Weingarten oracle.

Points are processed chunk_points(n) at a time, a count sized so that
the widest stacked array of a chunk stays within CHUNK_SLOTS: each stage
of a report runs once per chunk on stacked rows, and the pull-back to
adapted coordinates rides in the derivative seeds (ScalarField.pre), so
it adds no dual arithmetic. A chunk in which any point raises is redone
by halves down to the failing point, so every point gets exactly the
outcome it would get alone.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass, field as dc_field

import numpy as np

from .autodiff import ScalarField, fd_grad_hess, grad_hess
from .exceptions import FinslerError, RejectionOverflow
from .hypersurface import (
    defining_evaluation,
    mean_curvature_trace,
    shape_operator,
    unit_normal,
    weingarten_oracle,
)
from .metrics import FundamentalFunction, MetricTensor, energy_field, eval_F
from .numkernel import cholesky

METHODS = ("hyperdual", "fd")

# Stacked width budget of one chunk, in derivative slots. The Weingarten oracle
# stacks 2(n-1) stencil rows of n first-order slots per point (fd's 2n^2 + 1
# float rows are about as wide); 7680 is that width for 128 points at n = 6.
# A chunk has a fixed cost (a one-point chunk takes 0.9 ms at n = 2 and
# 1.0-1.9 ms at n = 6, each further point 0.002-0.05 ms), so
# chunk_points(n) fills the budget: 1920 points at n = 2, 640 at 3, 320
# at 4, 192 at 5. It never drops below 128 points, which take most of the
# batching gain at every n (catalog sweep, interleaved in one process,
# median of 5 rounds, 2-core Xeon, Python 3.11, numpy 2.4: 32/64/128/200
# points per chunk -> 0.51/0.32/0.29/0.24 s, fresh-process peak RSS
# 46.8/-/47.7/48.2 MB).
CHUNK_SLOTS = 7680


def chunk_points(dim: int) -> int:
    """Points per batched evaluation at dimension ``dim``."""
    return max(128, CHUNK_SLOTS // (2 * (dim - 1) * dim))


# What a single point can raise; such a point gets a failure record and
# the rest of its batch goes on.
POINT_ERRORS = (FinslerError, ValueError, ArithmeticError)

# Step of the finite-difference Weingarten oracle, and the fixed bound on
# the formula-vs-oracle gap at that step; separate from the user tolerance
# on the claim residuals.
ORACLE_STEP = 1e-5
ORACLE_GAP_BOUND = 1e-5

# Draws are rejected with this multiple of the metric's guard margin so
# that finite-difference stencils around accepted points never leave the
# evaluation guard.
SAMPLING_MARGIN_FACTOR = 15.0


@dataclass(frozen=True)
class IndicatrixPoint:
    """A point on the indicatrix with its metric data.

    ``y_adapted = chol.T @ y`` is the point in coordinates where the metric
    at y is the identity; it is a Euclidean unit vector.
    """

    y: np.ndarray
    metric: MetricTensor
    chol: np.ndarray
    y_adapted: np.ndarray


@dataclass(frozen=True)
class CurvatureReport:
    """Per-point residual record for the constant-curvature claims."""

    point: IndicatrixPoint
    H: float
    principal: np.ndarray
    residual_H: float
    residual_trace: float
    residual_umbilic: float
    method: str
    oracle_gap: float
    path_gap: float            # |trace-route H - eigen-route H|
    normal_residual: float     # max |N - y_adapted|
    grad_norm_residual: float  # ||grad f| - 1|


def defining_field(fund: FundamentalFunction) -> ScalarField:
    """f(y) = (F(y)^2 - 1)/2; its Hessian is the metric tensor g."""
    def func(z):
        v = fund.value(z)
        return (v * v - 1.0) * 0.5
    return ScalarField(fund.dim, func, fund.guard, fund.guard_rows)


def normalize_to_indicatrix(fund: FundamentalFunction, direction) -> np.ndarray:
    """Scale a direction (or each row of a stack) onto the indicatrix: y = d / F(d)."""
    d = np.asarray(direction, dtype=float)
    return d / np.asarray(eval_F(fund, d))[..., None]


def _by_chunks(compute, items, size: int, keep_errors: bool) -> list:
    """``compute`` over ``size`` items at a time, concatenated.

    A chunk that raises one of POINT_ERRORS is redone by halves, left half
    first, down to single items: with ``keep_errors`` a failing item's
    exception takes its place in the result, otherwise the first failing
    item's exception propagates. One failing item thus costs O(log size)
    calls, and every other item comes from a sub-batch that succeeded.
    """
    out = []
    for start in range(0, len(items), size):
        out.extend(_isolating(compute, items[start:start + size], keep_errors))
    return out


def _isolating(compute, items, keep_errors: bool) -> list:
    try:
        return compute(items)
    except POINT_ERRORS as exc:
        if len(items) == 1:
            if not keep_errors:
                raise
            return [exc]
    half = len(items) // 2
    return (_isolating(compute, items[:half], keep_errors)
            + _isolating(compute, items[half:], keep_errors))


def _indicatrix_points(fund: FundamentalFunction, rows: np.ndarray) -> list[IndicatrixPoint]:
    """IndicatrixPoints for (P, n) rows on the indicatrix, one batched evaluation."""
    _, _, g = grad_hess(energy_field(fund), rows)
    low = cholesky(g)  # SPD check and factor at once; NotPositiveDefinite propagates
    adapted = (rows[:, None, :] @ low)[:, 0, :]  # chol.T @ y per row
    return [IndicatrixPoint(y, MetricTensor(y, gi), li, zi)
            for y, gi, li, zi in zip(rows, g, low, adapted)]


def indicatrix_point(fund: FundamentalFunction, y) -> IndicatrixPoint:
    """Attach metric, Cholesky factor and adapted coordinates to a point."""
    return _indicatrix_points(fund, np.asarray(y, dtype=float)[None])[0]


def sample_indicatrix(fund: FundamentalFunction, count: int, seed: int) -> list[IndicatrixPoint]:
    """Deterministic seeded sample of indicatrix points.

    Directions are standard Gaussian draws, one block per retry round: a
    round draws ``(pending, dim)`` values from one generator keyed by
    (seed, retry), and row i of the block goes to the i-th index, in
    ascending order, whose draws so far were all rejected by the guard
    domain. Each round is guarded in one call. The result for a given
    (seed, count) does not depend on evaluation order, and shorter runs
    are prefixes of longer ones: for a smaller count, every round's
    pending indices are an ascending prefix of the longer run's, so they
    receive the same rows. Metric Hessians and Cholesky factors are
    computed chunk_points(dim) points at a time.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    if fund.guard_margin > 0.0:
        draw_guard = dataclasses.replace(
            fund, guard_margin=SAMPLING_MARGIN_FACTOR * fund.guard_margin).guard_rows
    else:
        draw_guard = fund.guard_rows
    directions = np.empty((count, fund.dim))
    pending = np.arange(count)  # indices whose draws so far were all rejected
    rejections = 0
    retry = 0
    while pending.size:
        draws = np.random.default_rng([seed, retry]).standard_normal((pending.size, fund.dim))
        accepted = draw_guard(draws)
        directions[pending[accepted]] = draws[accepted]
        pending = pending[~accepted]
        rejections += pending.size
        if rejections > 1000 * count:
            raise RejectionOverflow(
                f"more than {1000 * count} rejected draws for {count} samples; "
                "guard domain too aggressive for this dimension")
        retry += 1
    return _by_chunks(
        lambda rows: _indicatrix_points(fund, normalize_to_indicatrix(fund, rows)),
        directions, chunk_points(fund.dim), keep_errors=False)


def adapted_field(fund: FundamentalFunction, point) -> ScalarField:
    """The defining field pulled back to the adapted coordinates of ``point``.

    ``point`` is one IndicatrixPoint or a sequence of P of them. The field
    is the defining field with the pre-map B = chol^-T, which maps adapted
    coordinates z to original ones w = B z, as a (P, n, n) stack (P = 1
    for a single point), so the field takes stacked rows grouped by point
    (of R rows, each consecutive block of R / P rows belongs to one point,
    in order).
    """
    points = [point] if isinstance(point, IndicatrixPoint) else list(point)
    back = np.linalg.inv(np.stack([p.chol for p in points]).swapaxes(-1, -2))
    base = defining_field(fund)
    return ScalarField(fund.dim, base.func, base.guard, base.guard_rows, back)


def _check_method(method: str) -> None:
    if method not in METHODS:
        raise ValueError(f"method must be one of {METHODS}")


def _chunk_reports(fund, points, method, fd_step) -> list[CurvatureReport]:
    """Curvature reports for a chunk of points, every stage run once on stacked rows.

    The adapted Hessian is a fresh evaluation of the defining field in
    adapted coordinates, not a transform of the metric stored with each
    point: it uses that g only through the Cholesky pull-back B = chol^-T,
    so the claims compare two independent evaluations of g.
    """
    fld = adapted_field(fund, points)
    z = np.stack([p.y_adapted for p in points])
    derive = grad_hess if method == "hyperdual" else lambda f, y: fd_grad_hess(f, y, fd_step)
    ev = defining_evaluation(z, *derive(fld, z), on_surface=method == "hyperdual")
    normal = unit_normal(ev, 1)  # outward: the radius vector
    h_trace = mean_curvature_trace(ev, normal)
    shape = shape_operator(ev, normal)
    oracle = weingarten_oracle(fld, z, 1, ORACLE_STEP, frame=shape.frame)
    principal = shape.principal_curvatures
    # one list per residual: indexing a list is cheaper than float(array[i])
    H, residual_H, residual_trace, residual_umbilic, oracle_gap, path_gap, \
        normal_residual, grad_norm_residual = (values.tolist() for values in (
            h_trace,
            np.abs(h_trace - 1.0),
            np.abs(np.trace(ev.hessian, axis1=-2, axis2=-1) - fund.dim),
            np.max(np.abs(principal - 1.0), axis=-1),
            np.max(np.abs(shape.entries - oracle.entries), axis=(-2, -1)),
            np.abs(h_trace - shape.mean),
            np.max(np.abs(normal.direction - z), axis=-1),
            np.abs(ev.grad_norm - 1.0),
        ))
    return [CurvatureReport(
        point=point,
        H=H[i],
        principal=principal[i],
        residual_H=residual_H[i],
        residual_trace=residual_trace[i],
        residual_umbilic=residual_umbilic[i],
        method=method,
        oracle_gap=oracle_gap[i],
        path_gap=path_gap[i],
        normal_residual=normal_residual[i],
        grad_norm_residual=grad_norm_residual[i],
    ) for i, point in enumerate(points)]


def adapted_reports(fund: FundamentalFunction, points, method: str = "hyperdual",
                    fd_step: float = 1e-5) -> list:
    """adapted_report for every point, chunk_points(dim) points per batched evaluation.

    A point whose report raises one of POINT_ERRORS gets that exception in
    its place, with the class and message adapted_report raises for it
    alone; every other report is bit-identical to its adapted_report.
    """
    _check_method(method)
    return _by_chunks(
        lambda chunk: _chunk_reports(fund, chunk, method, fd_step),
        list(points), chunk_points(fund.dim), keep_errors=True)


def adapted_report(fund: FundamentalFunction, point: IndicatrixPoint,
                   method: str = "hyperdual", fd_step: float = 1e-5) -> CurvatureReport:
    """Curvature residuals at one indicatrix point, in adapted coordinates."""
    _check_method(method)
    return _chunk_reports(fund, [point], method, fd_step)[0]


@dataclass
class MethodStats:
    """Aggregated residuals for one derivative method over a sample."""

    method: str
    count: int = 0
    max_residual_H: float = 0.0
    mean_residual_H: float = 0.0
    max_residual_trace: float = 0.0
    max_residual_umbilic: float = 0.0
    max_oracle_gap: float = 0.0
    max_path_gap: float = 0.0
    failures: list = dc_field(default_factory=list)
    passed: bool = True


@dataclass
class VerificationSummary:
    """Outcome of a full claim-verification batch."""

    metric: str
    dim: int
    count: int
    seed: int
    tol: float
    stats: dict
    passed: bool
    elapsed_seconds: float
    reports: dict
    points: list


def _aggregate(method: str, reports: list, tol: float) -> MethodStats:
    """Residual maxima, failure records and the pass rule over ``reports``.

    A batch passes when no report raised, every report's residuals are
    within ``tol`` and the largest oracle gap is within ORACLE_GAP_BOUND.
    """
    stats = MethodStats(method)
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
    stats.passed = (not stats.failures
                    and stats.max_oracle_gap <= ORACLE_GAP_BOUND)
    return stats


def verify_claims(fund: FundamentalFunction, count: int = 100, seed: int = 42,
                  tol: float = 1e-8, methods=METHODS, fd_step: float = 1e-5,
                  label: str | None = None) -> VerificationSummary:
    """Sample the indicatrix and verify the constant-curvature claims.

    Sampling and reports run in chunks of chunk_points(dim) points, each stage
    once per chunk on stacked rows. Per-point failures (residuals above
    ``tol`` or raised errors) are recorded without aborting the batch.
    Output is deterministic for a fixed (seed, count, tol), and each
    report is bit-identical to adapted_report on its point alone.
    """
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    start = time.perf_counter()
    points = sample_indicatrix(fund, count, seed)
    stats = {}
    all_reports = {}
    for method in methods:
        reports = adapted_reports(fund, points, method=method, fd_step=fd_step)
        all_reports[method] = reports
        stats[method] = _aggregate(method, reports, tol)
    return VerificationSummary(
        metric=label if label is not None else fund.describe(),
        dim=fund.dim,
        count=count,
        seed=seed,
        tol=tol,
        stats=stats,
        passed=all(s.passed for s in stats.values()),
        elapsed_seconds=time.perf_counter() - start,
        reports=all_reports,
        points=points,
    )
