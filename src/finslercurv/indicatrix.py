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
it adds no dual arithmetic. A report chunk in which a point raises is
redone by halves down to that point, so every point gets exactly the
outcome it would get alone; a sampler chunk raises its error. The
per-point records are immutable NamedTuples, built a chunk at a time. In
verify_claims a chunk's stacked arrays go from the sampler to the
reports to the statistics unregathered.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field, replace
from functools import partial
from itertools import repeat
from typing import NamedTuple

import numpy as np

from .autodiff import ScalarField, fd_grad_hess, grad_hess
from .exceptions import DomainViolation, FinslerError, RejectionOverflow
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
# at 4, 192 at 5, 128 at 6, where 128-point chunks take most of the
# batching gain (catalog sweep, interleaved in one process, median of 5
# rounds, 2-core Xeon, Python 3.11, numpy 2.4: 32/64/128/200 points per
# chunk -> 0.51/0.32/0.29/0.24 s, fresh-process peak RSS 46.8/-/47.7/48.2
# MB). Above n = 6 it follows the budget down (91 points at n = 7, 3 at
# n = 32), since the stacks grow like n^2 per point; never below one point.
CHUNK_SLOTS = 7680


def chunk_points(dim: int) -> int:
    """Points per batched evaluation at dimension ``dim``."""
    return max(1, CHUNK_SLOTS // (2 * (dim - 1) * dim))


# What a single point can raise; such a point gets a failure record and
# the rest of its batch goes on.
POINT_ERRORS = (FinslerError, ValueError, ArithmeticError)

# Largest step of the finite-difference Weingarten oracle (_oracle_steps
# shrinks it per point), and the fixed bound on the formula-vs-oracle gap;
# separate from the user tolerance on the claim residuals.
ORACLE_STEP = 1e-5
ORACLE_GAP_BOUND = 1e-5

# Draws are mapped inside this multiple of the metric's guard margin so
# that finite-difference stencils around sampled points never leave the
# evaluation guard.
SAMPLING_MARGIN_FACTOR = 15.0


class IndicatrixPoint(NamedTuple):
    """A point on the indicatrix with its metric data.

    ``y_adapted = chol.T @ y`` is the point in coordinates where the metric
    at y is the identity; it is a Euclidean unit vector.
    """

    y: np.ndarray
    metric: MetricTensor
    chol: np.ndarray
    y_adapted: np.ndarray


class CurvatureReport(NamedTuple):
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
    """f(y) = (F(y)^2 - 1)/2, the energy field minus 1/2; its Hessian is the metric tensor g."""
    energy = energy_field(fund)
    return ScalarField(energy.dim, lambda z: energy.func(z) - 0.5, energy.guard)


def normalize_to_indicatrix(fund: FundamentalFunction, direction) -> np.ndarray:
    """Scale a direction (or each row of a stack) onto the indicatrix: y = d / F(d)."""
    d = np.asarray(direction, dtype=float)
    return d / np.asarray(eval_F(fund, d))[..., None]


def _per_chunk(compute, items, dim: int) -> list:
    """``compute`` of each consecutive piece of chunk_points(dim) items, in order."""
    size = chunk_points(dim)
    return [compute(items[start:start + size]) for start in range(0, len(items), size)]


def _isolating(compute, items) -> list:
    """``compute(items)``, redone by halves, left first, where it raises one of POINT_ERRORS.

    A failing item's exception takes its place in the result; it costs O(log len(items))
    calls, and every other item comes from a sub-batch that succeeded.
    """
    try:
        return compute(items)
    except POINT_ERRORS as exc:
        if len(items) == 1:
            return [exc]
    half = len(items) // 2
    return _isolating(compute, items[:half]) + _isolating(compute, items[half:])


class _Chunk:
    """Consecutive indicatrix points with their Cholesky factors and adapted rows stacked.

    A slice cuts the stacks with the records, so a chunk bisected around a
    failing point keeps them aligned.
    """

    def __init__(self, points: list, chol: np.ndarray, z: np.ndarray):
        self.points, self.chol, self.z = points, chol, z

    def __len__(self) -> int:
        return len(self.points)

    def __getitem__(self, part: slice) -> _Chunk:
        return _Chunk(self.points[part], self.chol[part], self.z[part])


def _gathered(points: list) -> _Chunk:
    """``points`` as a _Chunk, the stacks gathered from their records."""
    return _Chunk(points, np.array([p.chol for p in points]),
                  np.array([p.y_adapted for p in points]))


def _indicatrix_points(fund: FundamentalFunction, rows: np.ndarray) -> _Chunk:
    """IndicatrixPoints for (P, n) rows on the indicatrix, one batched evaluation."""
    _, _, g = grad_hess(energy_field(fund), rows)
    low = cholesky(g)  # SPD check and factor at once; NotPositiveDefinite propagates
    adapted = (rows[:, None, :] @ low)[:, 0, :]  # chol.T @ y per row
    new = tuple.__new__  # C-level record construction, no Python __new__ per point
    return _Chunk([new(IndicatrixPoint, (y, new(MetricTensor, (y, gy)), chol, z))
                   for y, gy, chol, z in zip(rows, g, low, adapted)], low, adapted)


def indicatrix_point(fund: FundamentalFunction, y) -> IndicatrixPoint:
    """Attach metric, Cholesky factor and adapted coordinates to a point."""
    return _indicatrix_points(fund, np.asarray(y, dtype=float)[None]).points[0]


def sample_indicatrix(fund: FundamentalFunction, count: int, seed: int) -> list[IndicatrixPoint]:
    """Deterministic seeded sample of indicatrix points.

    Directions come from one (count, dim) standard Gaussian block g, drawn
    from a generator keyed by (seed, 0); row i of the block gives the i-th
    point, so shorter runs are prefixes of longer ones. A norm with a guard
    margin maps each row into the cone min|y_i| >= c|y| of its sampling
    guard (c = SAMPLING_MARGIN_FACTOR * guard_margin), by
    y_i = sign(g_i) sqrt(c^2 + (1 - n c^2) g_i^2 / |g|^2), which reaches the
    whole cone; other norms use g as it is. Every direction is checked
    against the sampling guard, and one that misses it raises
    DomainViolation; none is redrawn. A margin that leaves the cone empty at
    this dimension raises RejectionOverflow before the draw. Metric Hessians
    and Cholesky factors are computed chunk_points(dim) points at a time.
    """
    return [point for chunk in _sample_chunks(fund, count, seed) for point in chunk.points]


def _sample_chunks(fund: FundamentalFunction, count: int, seed: int) -> list[_Chunk]:
    """sample_indicatrix's points, as _Chunks of chunk_points(dim) points."""
    if count < 1:
        raise ValueError("count must be >= 1")
    if seed < 0:
        raise ValueError("seed must be >= 0")
    margin = SAMPLING_MARGIN_FACTOR * fund.guard_margin
    # min|y_i| <= |y| / sqrt(n), with equality only on the diagonals
    if margin * math.sqrt(fund.dim) >= 1.0:
        raise RejectionOverflow(
            f"no direction passes the sampling guard min|y_i| >= {margin:g}*|y| "
            f"at dim {fund.dim}; the largest dim it allows is {math.ceil(margin ** -2) - 1}")
    draws = np.random.default_rng([seed, 0]).standard_normal((count, fund.dim))
    if margin > 0.0:
        # y_i^2 = c^2 + (1 - n c^2) g_i^2 / |g|^2 sums to 1 with every |y_i| >= c; the map
        # and the guard's |y| each round by a few n u, which the slack on c covers
        floor = margin * (1.0 + 4 * fund.dim * np.finfo(float).eps)
        share = draws * draws
        share /= share.sum(axis=1, keepdims=True)
        draws = np.copysign(np.sqrt(floor * floor + (1.0 - fund.dim * floor * floor) * share),
                            draws)
    missed = ~replace(fund, guard_margin=margin).guard_rows(draws)
    if missed.any():
        raise DomainViolation(f"draw {missed.argmax()} misses the sampling guard "
                              f"min|y_i| >= {margin:g}*|y| at dim {fund.dim}")
    return _per_chunk(lambda rows: _indicatrix_points(fund, normalize_to_indicatrix(fund, rows)),
                      draws, fund.dim)


def adapted_field(fund: FundamentalFunction, point) -> ScalarField:
    """The defining field pulled back to the adapted coordinates of ``point``.

    ``point`` is one IndicatrixPoint or a sequence of P of them. The field
    is the defining field with the pre-map B = chol^-T, which maps adapted
    coordinates z to original ones w = B z, as a (P, n, n) stack (P = 1
    for a single point), so the field takes stacked rows grouped by point
    (of R rows, each consecutive block of R / P rows belongs to one point,
    in order).
    """
    points = [point] if isinstance(point, IndicatrixPoint) else point
    return _adapted_field(fund, np.array([p.chol for p in points]))


def _adapted_field(fund: FundamentalFunction, chol: np.ndarray) -> ScalarField:
    """adapted_field for a (P, n, n) stack of Cholesky factors."""
    back = np.linalg.inv(chol.swapaxes(-1, -2))
    return ScalarField(fund.dim, defining_field(fund).func, fund.guard_rows, back)


def _check_method(method: str) -> None:
    if method not in METHODS:
        raise ValueError(f"method must be one of {METHODS}")


def _oracle_steps(pre: np.ndarray) -> np.ndarray:
    """The Weingarten oracle's step for each matrix B of a (P, n, n) pre-map stack.

    A step in adapted coordinates z grows by up to ||B||_2 = 1/sqrt(lambda_min(g))
    in w = B z, where the field is evaluated. So ORACLE_STEP is divided by the power
    of two nearest sqrt(||B||_1 ||B||_inf), an upper bound on ||B||_2 that costs two
    absolute sums per matrix (||B||_2 itself needs an SVD, 1-2.7 ms per chunk). It is
    never multiplied: where B stretches by less than sqrt(2), as at every euclidean
    point (B = I up to rounding), the step stays ORACLE_STEP, bit for bit.
    """
    mag = np.abs(pre)
    bound = np.sqrt(mag.sum(axis=-2).max(axis=-1) * mag.sum(axis=-1).max(axis=-1))
    return np.ldexp(ORACLE_STEP, -np.maximum(0, np.rint(np.log2(bound))).astype(int))


def _chunk_reports(fund, chunk: _Chunk, method, fd_step) -> tuple[list, np.ndarray]:
    """Curvature reports for a chunk of points, every stage run once on stacked rows.

    Returns the reports and their float fields, in field order, as (8, P) columns.
    The adapted Hessian is a fresh evaluation of the defining field in
    adapted coordinates, not a transform of the metric stored with each
    point: it uses that g only through the Cholesky pull-back B = chol^-T,
    so the claims compare two independent evaluations of g.
    """
    fld = _adapted_field(fund, chunk.chol)
    z = chunk.z
    derive = grad_hess if method == "hyperdual" else lambda f, y: fd_grad_hess(f, y, fd_step)
    ev = defining_evaluation(z, *derive(fld, z), on_surface=method == "hyperdual")
    normal = unit_normal(ev, 1)  # outward: the radius vector
    h_trace = mean_curvature_trace(ev, normal)
    shape = shape_operator(ev, normal)
    oracle = weingarten_oracle(fld, z, 1, _oracle_steps(fld.pre), frame=shape.frame)
    principal = shape.principal_curvatures
    columns = np.array([
        h_trace,
        np.abs(h_trace - 1.0),
        np.abs(ev.hessian.trace(0, -2, -1) - fund.dim),
        np.abs(principal - 1.0).max(axis=-1),
        np.abs(shape.entries - oracle.entries).max(axis=(-2, -1)),
        np.abs(h_trace - shape.mean),
        np.abs(normal.direction - z).max(axis=-1),
        np.abs(ev.grad_norm - 1.0),
    ])
    # one list per residual, so that the records hold Python floats
    H, residual_H, residual_trace, residual_umbilic, *rest = columns.tolist()
    return list(map(partial(tuple.__new__, CurvatureReport), zip(
        chunk.points, H, principal, residual_H, residual_trace, residual_umbilic,
        repeat(method), *rest))), columns


def _report_pieces(fund, chunks, method: str, fd_step: float) -> list:
    """_chunk_reports of each _Chunk via _isolating: (reports, columns), or a point's error."""
    return [piece for chunk in chunks for piece in _isolating(
        lambda part: [_chunk_reports(fund, part, method, fd_step)], chunk)]


def adapted_reports(fund: FundamentalFunction, points, method: str = "hyperdual",
                    fd_step: float = 1e-5) -> list:
    """adapted_report for every point, chunk_points(dim) points per batched evaluation.

    A point whose report raises one of POINT_ERRORS gets that exception in
    its place, with the class and message adapted_report raises for it
    alone; every other report is bit-identical to its adapted_report.
    """
    _check_method(method)
    pieces = _report_pieces(fund, _per_chunk(_gathered, list(points), fund.dim), method, fd_step)
    return [item for piece in pieces
            for item in ([piece] if isinstance(piece, Exception) else piece[0])]


def adapted_report(fund: FundamentalFunction, point: IndicatrixPoint,
                   method: str = "hyperdual", fd_step: float = 1e-5) -> CurvatureReport:
    """Curvature residuals at one indicatrix point, in adapted coordinates."""
    _check_method(method)
    return _chunk_reports(fund, _gathered([point]), method, fd_step)[0][0]


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
    reports: dict
    points: list


def _aggregate(method: str, reports: list, tol: float) -> MethodStats:
    """_statistics over a list of reports, an exception in place of each that raised."""
    return _statistics(method, [item if isinstance(item, Exception) else
                                ([item], np.array([[item.H, *item[3:6], *item[7:]]]).T)
                                for item in reports], tol)[1]


def _statistics(method: str, pieces: list, tol: float) -> tuple[list, MethodStats]:
    """One method's reports, and their residual maxima, failure records and pass rule.

    ``pieces`` are in index order: each is a (reports, columns) pair as
    _chunk_reports returns it, or the exception of one report that raised.
    A batch passes when no report raised, every report's residuals are
    within ``tol`` and the largest oracle gap is within ORACLE_GAP_BOUND.
    """
    reports, columns, errors = [], [np.empty((8, 0))], {}
    for piece in pieces:
        if isinstance(piece, Exception):  # NaN columns: the maxima skip them, the rule fails them
            errors[len(reports)] = piece
            piece = [piece], np.full((8, 1), math.nan)
        reports += piece[0]
        columns.append(piece[1])
    columns = np.concatenate(columns, axis=1)
    stats = MethodStats(method, count=len(reports) - len(errors))
    if stats.count:  # like a running max from 0.0: NaN is skipped
        _, stats.max_residual_H, stats.max_residual_trace, stats.max_residual_umbilic, \
            stats.max_oracle_gap, stats.max_path_gap, _, _ = \
            np.fmax.reduce(columns, axis=1, initial=0.0).tolist()
        stats.mean_residual_H = float(np.mean(np.delete(columns[1], list(errors))
                                              if errors else columns[1]))
    # _passes's residual rule on every column at once (NaN fails); its gap rule is below
    for index in np.flatnonzero(~(columns[1:4] <= tol).all(axis=0)).tolist():
        stats.failures.append({"index": index, "error": str(errors[index])} if index in errors
                              else {"index": index, **dict(zip(CurvatureReport._fields[3:6],
                                                               columns[1:4, index].tolist()))})
    stats.passed = (not stats.failures
                    and stats.max_oracle_gap <= ORACLE_GAP_BOUND)
    return reports, stats


def _passes(rep: CurvatureReport, tol: float) -> bool:
    """Residuals within ``tol`` (NaN fails) and oracle gap within ORACLE_GAP_BOUND (NaN passes)."""
    return (rep.residual_H <= tol and rep.residual_trace <= tol and rep.residual_umbilic <= tol
            and not rep.oracle_gap > ORACLE_GAP_BOUND)


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
    if not tol > 0.0:  # also NaN
        raise ValueError("tol must be positive")
    if isinstance(methods, str) or not methods:
        raise ValueError(f"methods must be a non-empty sequence of {METHODS}")
    for method in methods:
        _check_method(method)
    chunks = _sample_chunks(fund, count, seed)
    stats = {}
    all_reports = {}
    for method in methods:
        all_reports[method], stats[method] = _statistics(
            method, _report_pieces(fund, chunks, method, fd_step), tol)
    return VerificationSummary(
        metric=label if label is not None else fund.describe(),
        dim=fund.dim,
        count=count,
        seed=seed,
        tol=tol,
        stats=stats,
        passed=all(s.passed for s in stats.values()),
        reports=all_reports,
        points=[point for chunk in chunks for point in chunk.points],
    )
