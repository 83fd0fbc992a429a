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

Points are processed CHUNK_ROWS at a time: each stage of a report runs
once per chunk on stacked rows. A chunk in which any point raises is
redone point by point, so every point gets exactly the outcome it would
get alone.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass, field as dc_field

import numpy as np

from .autodiff import Dual, ScalarField, fd_grad_hess, grad_hess
from .exceptions import DimensionMismatch, FinslerError, RejectionOverflow
from .hypersurface import (
    defining_evaluation,
    evaluate_defining,
    mean_curvature_trace,
    shape_operator,
    unit_normal,
    weingarten_oracle,
)
from .metrics import FundamentalFunction, MetricTensor, energy_field, eval_F
from .numkernel import cholesky

METHODS = ("hyperdual", "fd")

# Points per batched evaluation. Larger chunks cost peak memory (the
# oracle stacks 2(n-1) stencil rows per point) and gain less and less
# speed. Catalog sweep (5 families x n in {2,3,4,6} x 200 points), chunk
# sizes timed interleaved in one process, median of 5 rounds, 2-core
# Xeon, Python 3.11, numpy 2.4: chunk 32/64/128/200 -> 0.51/0.32/0.29/
# 0.24 s; peak RSS of a fresh process 46.8/-/47.7/48.2 MB. 128 takes most
# of the gain for under 1 MB.
CHUNK_ROWS = 128

# What a single point can raise; such a point gets a failure record and
# the rest of its batch goes on.
POINT_ERRORS = (FinslerError, ValueError, ArithmeticError)

# Fixed cross-check bound for the formula-vs-Weingarten gap at the default
# oracle step; separate from the user tolerance on the claim residuals.
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


def _by_chunks(compute, items, keep_errors: bool) -> list:
    """``compute`` over CHUNK_ROWS items at a time, concatenated.

    A chunk that raises one of POINT_ERRORS is redone item by item: with
    ``keep_errors`` a failing item's exception takes its place in the
    result, otherwise the first failing item's exception propagates.
    """
    out = []
    for start in range(0, len(items), CHUNK_ROWS):
        chunk = items[start:start + CHUNK_ROWS]
        try:
            results = compute(chunk)
        except POINT_ERRORS:
            results = []
            for index in range(len(chunk)):
                try:
                    results.extend(compute(chunk[index:index + 1]))
                except POINT_ERRORS as exc:
                    if not keep_errors:
                        raise
                    results.append(exc)
        out.extend(results)
    return out


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
    computed CHUNK_ROWS points at a time.
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
        directions, keep_errors=False)


def adapted_field(fund: FundamentalFunction, point) -> ScalarField:
    """The defining field pulled back to the adapted coordinates of ``point``.

    ``point`` is one IndicatrixPoint or a sequence of P of them. The field
    takes stacked rows grouped by point: of R rows, each consecutive block
    of R / P rows belongs to one point, in order. Plain float coordinates
    are accepted for a single point.
    """
    points = [point] if isinstance(point, IndicatrixPoint) else list(point)
    # maps adapted coords to original ones, one (n, n) matrix per point
    back = np.linalg.inv(np.stack([p.chol for p in points]).swapaxes(-1, -2))
    used = np.any(back != 0.0, axis=0)
    base = defining_field(fund)
    n = fund.dim

    def rows_per_point(rows: int) -> int:
        if rows % len(points):
            raise DimensionMismatch(f"{rows} rows do not split among {len(points)} points")
        return rows // len(points)

    def func(z):
        lead = np.shape(z[0].real if isinstance(z[0], Dual) else z[0])
        reps = rows_per_point(lead[0]) if lead and len(points) > 1 else None
        w = []
        for i in range(n):
            acc = 0.0
            for k in range(n):
                if used[i, k]:
                    # back[i, k] of each row's point as an (R, 1) column, built
                    # only when used; one point's scalar broadcasts over its rows
                    coef = (back[0, i, k] if reps is None
                            else np.repeat(back[:, i, k], reps)[:, None])
                    acc = acc + z[k] * coef
            w.append(acc)
        return base.func(w)

    def guard_rows(rows) -> np.ndarray:
        rows = np.asarray(rows, dtype=float)
        grouped = rows.reshape(len(points), rows_per_point(len(rows)), n)
        w = back[:, None, :, 0] * grouped[:, :, :1]
        for k in range(1, n):
            w = w + back[:, None, :, k] * grouped[:, :, k:k + 1]
        return base.guard_rows(w.reshape(-1, n))

    def guard(zt) -> bool:
        return bool(guard_rows(np.asarray(zt, dtype=float)[None])[0])

    return ScalarField(n, func, guard, guard_rows)


def _check_method(method: str) -> None:
    if method not in METHODS:
        raise ValueError(f"method must be one of {METHODS}")


def _chunk_reports(fund, points, method, fd_step, oracle_step) -> list[CurvatureReport]:
    """Curvature reports for a chunk of points, every stage run once on stacked rows."""
    fld = adapted_field(fund, points)
    z = np.stack([p.y_adapted for p in points])
    if method == "hyperdual":
        ev = evaluate_defining(fld, z, on_surface=True)
    else:
        parts = [fd_grad_hess(adapted_field(fund, p), p.y_adapted, fd_step) for p in points]
        ev = defining_evaluation(z, *(np.array(part) for part in zip(*parts)))
    normal = unit_normal(ev, 1)  # outward: the radius vector
    h_trace = mean_curvature_trace(ev, normal)
    shape = shape_operator(ev, normal)
    oracle = weingarten_oracle(fld, z, 1, oracle_step, frame=shape.frame)
    principal = shape.principal_curvatures
    residual_H = np.abs(h_trace - 1.0)
    residual_trace = np.abs(np.trace(ev.hessian, axis1=-2, axis2=-1) - fund.dim)
    residual_umbilic = np.max(np.abs(principal - 1.0), axis=-1)
    oracle_gap = np.max(np.abs(shape.entries - oracle.entries), axis=(-2, -1))
    path_gap = np.abs(h_trace - shape.mean)
    normal_residual = np.max(np.abs(normal.direction - z), axis=-1)
    grad_norm_residual = np.abs(ev.grad_norm - 1.0)
    return [CurvatureReport(
        point=point,
        H=float(h_trace[i]),
        principal=principal[i],
        residual_H=float(residual_H[i]),
        residual_trace=float(residual_trace[i]),
        residual_umbilic=float(residual_umbilic[i]),
        method=method,
        oracle_gap=float(oracle_gap[i]),
        path_gap=float(path_gap[i]),
        normal_residual=float(normal_residual[i]),
        grad_norm_residual=float(grad_norm_residual[i]),
    ) for i, point in enumerate(points)]


def adapted_reports(fund: FundamentalFunction, points, method: str = "hyperdual",
                    fd_step: float = 1e-5, oracle_step: float = 1e-5) -> list:
    """adapted_report for every point, CHUNK_ROWS points per batched evaluation.

    A point whose report raises one of POINT_ERRORS gets that exception in
    its place, with the class and message adapted_report raises for it
    alone; every other report is bit-identical to its adapted_report.
    """
    _check_method(method)
    return _by_chunks(
        lambda chunk: _chunk_reports(fund, chunk, method, fd_step, oracle_step),
        list(points), keep_errors=True)


def adapted_report(fund: FundamentalFunction, point: IndicatrixPoint,
                   method: str = "hyperdual", fd_step: float = 1e-5,
                   oracle_step: float = 1e-5) -> CurvatureReport:
    """Curvature residuals at one indicatrix point, in adapted coordinates."""
    _check_method(method)
    return _chunk_reports(fund, [point], method, fd_step, oracle_step)[0]


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
        if (item.residual_H > tol or item.residual_trace > tol
                or item.residual_umbilic > tol):
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

    Sampling and reports run in chunks of CHUNK_ROWS points, each stage
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
