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
the oracle's stencil of a chunk fills STACK_FLOATS, the derivative
engine's budget (see autodiff): each stage of a report runs once per
chunk on stacked rows, and the pull-back to adapted coordinates rides in
the derivative seeds (ScalarField.pre), so it adds no dual arithmetic.
A report chunk in which a point raises (an off-surface one under either
method) is redone by halves down to it, so every point gets the outcome
it would get alone; a sampler chunk raises.
The per-point records are immutable NamedTuples (an IndicatrixPoint's
metric is the g array), built a chunk at a time. In verify_claims, and
in the CLI's one-point curvature, a chunk's stacks pass from sampler to
reports to statistics unregathered.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field, replace
from functools import partial
from itertools import repeat
from typing import NamedTuple

import numpy as np

from .autodiff import STACK_FLOATS, ScalarField, check_step, fd_grad_hess, grad_hess, point_rows
from .exceptions import DomainViolation, FinslerError, RejectionOverflow
from .hypersurface import (
    defining_evaluation,
    mean_curvature_trace,
    shape_operator,
    weingarten_oracle,
)
from .metrics import FundamentalFunction, energy_field, eval_F
from .numkernel import cholesky

METHODS = ("hyperdual", "fd")

def chunk_points(dim: int) -> int:
    """Points per chunk at ``dim``: the oracle's (P, 2(n - 1), n) stencil within STACK_FLOATS."""
    return max(1, STACK_FLOATS // (2 * (dim - 1) * dim))


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

    ``metric`` is g(y), (n, n). ``y_adapted = chol.T @ y`` is the point in
    coordinates where g(y) is the identity; it is a Euclidean unit vector.
    """

    y: np.ndarray
    metric: np.ndarray
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
    """Scale a direction (or each row of a stack) onto the indicatrix, y = d / F(d): a row whose
    largest entry lies outside [2^(-200/e), 2^100], e the norm's degree (a power sum's exponent,
    else 2), or whose F over- or underflows, is first divided exactly by the power of two nearest
    that entry, and by the entry itself where F still over- or underflows (a power sum of large
    exponent). A row with |F - 1| <= 1e-10 comes back as given; one off the guard or with F
    not in (0, inf) raises DomainViolation naming it."""
    rows = point_rows(direction, fund.dim)
    big = np.abs(rows).max(axis=-1)
    low = 2.0 ** (-200 / (fund.exponent or 2))
    with np.errstate(over="ignore", invalid="ignore"):  # an F that over- or underflows is caught
        if len(rows) > 1 and low <= big.min() and big.max() <= 2.0 ** 100:
            f = eval_F(fund, rows)  # a stack in the window at once; one row is cheaper alone
            if 0.0 < f.min() and f.max() < np.inf:
                f[np.abs(f - 1.0) <= 1e-10] = 1.0  # y / 1.0 is the row as given
                return (rows / f[:, None]).reshape(np.shape(direction))
        scaled = [_scaled_row(fund, row, b, low) for row, b in zip(rows, big.tolist())]
    return np.array(scaled).reshape(np.shape(direction))


def _scaled_row(fund: FundamentalFunction, d: np.ndarray, big: float, low: float) -> np.ndarray:
    """normalize_to_indicatrix of one row ``d`` of largest entry ``big``, window [low, 2^100]."""
    finite = 0.0 < big < np.inf
    y = d
    f = eval_F(fund, d) if low <= big <= 2.0 ** 100 or not finite else np.nan
    if not 0.0 < f < np.inf and finite:  # tiny, huge or overflowing
        y = np.ldexp(d, -round(np.log2(big)))  # divide exactly by a power of two near big
        if not fund.guard(y):
            raise DomainViolation(f"point {d} is outside the guarded domain")
        f = eval_F(fund, y)
        if not 0.0 < f < np.inf:  # a power sum of large exponent: make the largest entry 1
            y = d / big
            f = eval_F(fund, y)
    if not 0.0 < f < np.inf:  # also where a coordinate is not finite
        raise DomainViolation(f"cannot scale point {d.tolist()} onto the indicatrix: F = {f}")
    return y if y is d and abs(f - 1.0) <= 1e-10 else y / f


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


def _indicatrix_points(fund: FundamentalFunction, directions: np.ndarray) -> _Chunk:
    """IndicatrixPoints in the directions of (P, n) rows (normalize_to_indicatrix), batched."""
    rows = normalize_to_indicatrix(fund, directions)
    _, _, g = grad_hess(energy_field(fund), rows)
    low = cholesky(g)  # SPD check and factor at once; NotPositiveDefinite propagates
    adapted = (rows[:, None, :] @ low)[:, 0, :]  # chol.T @ y per row
    # C-level record construction, no Python __new__ per point
    return _Chunk(list(map(partial(tuple.__new__, IndicatrixPoint), zip(rows, g, low, adapted))),
                  low, adapted)


def indicatrix_point(fund: FundamentalFunction, direction) -> IndicatrixPoint:
    """The indicatrix point in ``direction`` (normalize_to_indicatrix) with its metric data."""
    return _indicatrix_points(fund, np.asarray(direction, dtype=float)[None]).points[0]


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
    and Cholesky factors are computed chunk_points(dim) points a chunk.
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
    return _per_chunk(partial(_indicatrix_points, fund), draws, fund.dim)


def adapted_field(fund: FundamentalFunction, chol) -> ScalarField:
    """The defining field pulled back to the adapted coordinates of each Cholesky factor.

    ``chol`` is a (P, n, n) stack of factors of g, one per point (one (n, n)
    factor is P = 1, an empty stack P = 0). The field is the defining field
    with the pre-map B = chol^-T, which maps adapted coordinates z to
    original ones w = B z, as a (P, n, n) stack, so the field takes stacked
    rows grouped by point (of R rows, each consecutive block of R / P rows
    belongs to one point, in order).
    """
    back = np.linalg.inv(np.reshape(chol, (-1, fund.dim, fund.dim)).swapaxes(-1, -2))
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
    fld = adapted_field(fund, chunk.chol)
    z = chunk.z
    derive = grad_hess if method == "hyperdual" else lambda f, y: fd_grad_hess(f, y, fd_step)
    ev = defining_evaluation(z, *derive(fld, z), on_surface=True)
    h_trace = mean_curvature_trace(ev)
    shape = shape_operator(ev)
    oracle = weingarten_oracle(fld, z, _oracle_steps(fld.pre), frame=shape.frame)
    principal = shape.principal_curvatures
    columns = np.array([
        h_trace,
        np.abs(h_trace - 1.0),
        np.abs(ev.hessian.trace(0, -2, -1) - fund.dim),
        np.abs(principal - 1.0).max(axis=-1),
        np.abs(shape.entries - oracle.entries).max(axis=(-2, -1)),
        np.abs(h_trace - shape.mean),
        np.abs(ev.normal - z).max(axis=-1),  # outward: the radius vector
        np.abs(ev.grad_norm - 1.0),
    ])
    # one list per residual, so that the records hold Python floats
    H, residual_H, residual_trace, residual_umbilic, *rest = columns.tolist()
    return list(map(partial(tuple.__new__, CurvatureReport), zip(
        chunk.points, H, principal, residual_H, residual_trace, residual_umbilic,
        repeat(method), *rest))), columns


def _reports(fund, chunks, method: str, fd_step: float) -> tuple[list, np.ndarray]:
    """_chunk_reports of each _Chunk via _isolating: the reports in order, the exception of
    each point that raised in its place, and their (8, N) columns, NaN where one raised."""
    reports, columns = [], [np.empty((8, 0))]
    for chunk in chunks:
        for piece in _isolating(lambda part: [_chunk_reports(fund, part, method, fd_step)],
                                chunk):
            if isinstance(piece, Exception):
                piece = [piece], np.full((8, 1), math.nan)
            reports += piece[0]
            columns.append(piece[1])
    return reports, np.concatenate(columns, axis=1)


def adapted_reports(fund: FundamentalFunction, points, method: str = "hyperdual",
                    fd_step: float = 1e-5) -> list:
    """adapted_report for every point, chunk_points(dim) points per batched evaluation.

    A point whose report raises one of POINT_ERRORS gets that exception in
    its place, with the class and message adapted_report raises for it
    alone; every other report is bit-identical to its adapted_report.
    """
    _check_method(method)
    return _reports(fund, _per_chunk(_gathered, list(points), fund.dim), method, fd_step)[0]


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


def _statistics(method: str, reports: list, columns: np.ndarray, tol: float) -> MethodStats:
    """The one verdict rule: residual maxima, failure records and pass, for ``reports``
    and ``columns`` as _reports returns them. A batch passes when no report raised, every
    residual_H, residual_trace and residual_umbilic is within ``tol`` (NaN fails) and the
    largest oracle gap is within ORACLE_GAP_BOUND (a NaN gap is skipped)."""
    failing = np.flatnonzero(~(columns[1:4] <= tol).all(axis=0)).tolist()  # NaN fails
    # a report that raised has NaN columns, so it is among the failing ones
    errors = {index: reports[index] for index in failing
              if isinstance(reports[index], Exception)}
    stats = MethodStats(method, count=len(reports) - len(errors))
    if stats.count:  # like a running max from 0.0: NaN is skipped
        _, stats.max_residual_H, stats.max_residual_trace, stats.max_residual_umbilic, \
            stats.max_oracle_gap, stats.max_path_gap, _, _ = \
            np.fmax.reduce(columns, axis=1, initial=0.0).tolist()
        kept = np.delete(columns[1], list(errors)) if errors else columns[1]
        stats.mean_residual_H = float(np.add.reduce(kept)) / stats.count  # np.mean's arithmetic
    stats.failures = [{"index": index, "error": str(errors[index])} if index in errors
                      else {"index": index, **dict(zip(CurvatureReport._fields[3:6],
                                                       columns[1:4, index].tolist()))}
                      for index in failing]
    stats.passed = not stats.failures and stats.max_oracle_gap <= ORACLE_GAP_BOUND
    return stats


def verify_claims(fund: FundamentalFunction, count: int = 100, seed: int = 42,
                  tol: float = 1e-8, methods=METHODS,
                  fd_step: float = 1e-5) -> VerificationSummary:
    """Sample the indicatrix and verify the constant-curvature claims.

    Sampling and reports run in chunks of chunk_points(dim) points, each stage
    once per chunk on stacked rows. Per-point failures (residuals above
    ``tol`` or raised errors) are recorded without aborting the batch.
    Output is deterministic for a fixed (seed, count, tol), and each
    report is bit-identical to adapted_report on its point alone.
    """
    if not tol > 0.0:  # also NaN
        raise ValueError("tol must be positive")
    check_step(fd_step)
    if isinstance(methods, str) or not methods:
        raise ValueError(f"methods must be a non-empty sequence of {METHODS}")
    for method in methods:
        _check_method(method)
    chunks = _sample_chunks(fund, count, seed)
    stats, all_reports = {}, {}
    for method in methods:
        all_reports[method], columns = _reports(fund, chunks, method, fd_step)
        stats[method] = _statistics(method, all_reports[method], columns, tol)
    return VerificationSummary(
        metric=fund.describe(),
        dim=fund.dim,
        count=count,
        seed=seed,
        tol=tol,
        stats=stats,
        passed=all(s.passed for s in stats.values()),
        reports=all_reports,
        points=[point for chunk in chunks for point in chunk.points],
    )
