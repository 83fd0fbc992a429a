"""Curvature of an implicitly defined, oriented hypersurface.

The surface is the zero level set of a defining scalar field f with
nonvanishing gradient. The unit normal is eps * grad f / |grad f|; the
shape operator in an orthonormal tangent frame is the projected Hessian
of f scaled by 1/|grad f|, and the mean curvature is the corresponding
normal-deflated trace. A finite-difference Weingarten construction
(differencing the normal field itself) provides an independent oracle
for the same matrix. Every stage takes one point or a (P, n) stack of
points, and a stack gives each point the numbers it would get alone.

Sign convention: SIGN_CONVENTION = +1 selects the orientation in which
the unit sphere with outward normal has every principal curvature +1
(so convex surfaces seen from outside are positively curved). Flipping
eps negates the shape operator and the mean curvature.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .autodiff import ScalarField, grad_hess, gradients
from .exceptions import DimensionMismatch, OffSurface, VanishingGradient
from .numkernel import TangentFrame, _first, _norms, complete_frame, trace_reduction

# +1: outward-oriented unit sphere has principal curvatures +1.
SIGN_CONVENTION = 1.0

# Numerical floor below which the gradient counts as vanishing.
GRADIENT_FLOOR = 1e-10

# |f| above this at an asserted on-surface point raises OffSurface.
ON_SURFACE_TOL = 1e-8

# (rows, columns) of the entries below the diagonal of an order-m matrix, built once per m.
_below_diagonal = functools.cache(functools.partial(np.tril_indices, k=-1))


@dataclass(frozen=True)
class DefiningEvaluation:
    """f, grad f, Hess f and |grad f| at one point (or at P stacked rows).

    For stacked rows every field gains a leading axis of length P.
    """

    at: np.ndarray
    value: float
    gradient: np.ndarray
    hessian: np.ndarray
    grad_norm: float


@dataclass(frozen=True)
class OrientedNormal:
    """Unit normal eps * grad f / |grad f| with its orientation sign."""

    direction: np.ndarray
    epsilon: int
    grad_norm: float


@dataclass(frozen=True)
class ShapeOperatorMatrix:
    """The (n-1) x (n-1) shape-operator matrix in an orthonormal frame.

    For stacked rows ``entries`` is (P, n-1, n-1), ``principal_curvatures``
    (P, n-1) and ``mean`` (P,). Those two are computed from ``entries`` on
    first read, so a caller that needs only the matrix pays for no
    eigensolve.
    """

    frame: TangentFrame
    entries: np.ndarray

    @functools.cached_property
    def principal_curvatures(self) -> np.ndarray:
        return np.linalg.eigvalsh(self.entries)

    @functools.cached_property
    def mean(self):
        mean = self.entries.trace(0, -2, -1) / self.entries.shape[-1]
        return float(mean) if self.entries.ndim == 2 else mean


def _check_grad_norm(grad_norm) -> None:
    small = _first(grad_norm, ~(np.asarray(grad_norm) > GRADIENT_FLOOR))  # NaN is small
    if small is not None:
        raise VanishingGradient(f"|grad f| = {small:.3e}")


def _unit(gradient, epsilon: int) -> np.ndarray:
    """eps * grad / |grad| over the last axis."""
    grad_norm = _norms(gradient)
    _check_grad_norm(grad_norm)
    return epsilon * gradient / grad_norm[..., None]


def defining_evaluation(y, value, gradient, hessian,
                        on_surface: bool = False) -> DefiningEvaluation:
    """Check f and its derivatives at y (or at stacked rows) and bundle them."""
    if on_surface:
        off = _first(np.abs(value), np.abs(value) > ON_SURFACE_TOL)
        if off is not None:
            raise OffSurface(f"|f| = {off:.3e} exceeds {ON_SURFACE_TOL}")
    grad_norm = _norms(gradient)
    _check_grad_norm(grad_norm)
    grad_norm = float(grad_norm) if grad_norm.ndim == 0 else grad_norm
    return DefiningEvaluation(y, value, gradient, hessian, grad_norm)


def evaluate_defining(fld: ScalarField, y, on_surface: bool = False) -> DefiningEvaluation:
    """Evaluate f and its exact derivatives (hyper-dual path) at y or at (P, n) rows."""
    y = np.asarray(y, dtype=float)
    return defining_evaluation(y, *grad_hess(fld, y), on_surface=on_surface)


def unit_normal(ev: DefiningEvaluation, epsilon: int = 1) -> OrientedNormal:
    """Oriented unit normal from a defining evaluation."""
    if epsilon not in (1, -1):
        raise ValueError("epsilon must be +1 or -1")
    _check_grad_norm(ev.grad_norm)
    direction = epsilon * ev.gradient / np.asarray(ev.grad_norm)[..., None]
    return OrientedNormal(direction, epsilon, ev.grad_norm)


def shape_operator(ev: DefiningEvaluation, normal: OrientedNormal,
                   frame: TangentFrame | None = None) -> ShapeOperatorMatrix:
    """Shape-operator matrix from the projected Hessian of f.

    Entry (a, b) is SIGN_CONVENTION * eps / |grad f| times
    X_a . (Hess f) X_b; the lower triangle mirrors the upper one, so the
    matrix is exactly symmetric. ``frame`` defaults to complete_frame of
    the normal direction; passing one explicitly lets both orientations
    be compared in the same basis.
    """
    if ev.at.shape[-1] < 2:
        raise DimensionMismatch("ambient dimension must be >= 2")
    if frame is None:
        frame = complete_frame(normal.direction)
    coef = SIGN_CONVENTION * normal.epsilon / np.asarray(normal.grad_norm)[..., None, None]
    basis = frame.basis
    full = coef * (basis @ ev.hessian @ basis.swapaxes(-1, -2))
    entries = full + 0.0  # a copy in which -0.0 reads +0.0, in both triangles
    rows, cols = _below_diagonal(full.shape[-1])
    entries[..., rows, cols] = entries[..., cols, rows]
    return ShapeOperatorMatrix(frame, entries)


def mean_curvature_trace(ev: DefiningEvaluation, normal: OrientedNormal):
    """Mean curvature via the normal-deflated Hessian trace.

    SIGN_CONVENTION * eps / ((n-1) |grad f|) * (tr Hess f - N Hess f N^T).
    Agrees with shape_operator(...).mean to rounding; the two routes share
    only the Hessian. A float, or one value per stacked row.
    """
    n = ev.at.shape[-1]
    coef = SIGN_CONVENTION * normal.epsilon / ((n - 1) * normal.grad_norm)
    return coef * trace_reduction(ev.hessian, normal.direction)


def weingarten_oracle(fld: ScalarField, y, epsilon: int = 1, h: float = 1e-5,
                      frame: TangentFrame | None = None) -> ShapeOperatorMatrix:
    """Shape operator by central differencing of the unit normal field.

    For each frame vector X_b, the normal is re-evaluated at
    y +- h*max(1, ||y||)*X_b; the difference quotient is projected back
    onto the frame and the matrix symmetrized by transpose averaging.
    Entirely independent of the Hessian-formula route except for the
    field itself. All 2(n-1) stencil points of every row of a (P, n) y go
    through one first-order field evaluation, grouped by row (the layout
    a per-row field such as indicatrix.adapted_field expects); ``h`` is
    one step, or one per row. ``frame`` is the oriented tangent frame at
    y when the caller already has it; otherwise it is completed from the
    gradient at y.
    """
    y = np.asarray(y, dtype=float)
    if frame is None:
        frame = complete_frame(_unit(gradients(fld, y)[1], epsilon))
    n = y.shape[-1]
    step = h * np.maximum(1.0, _norms(y))
    offsets = step[..., None, None, None] * frame.basis[..., None, :]  # (..., k, 1, n)
    stencil = y[..., None, None, :] + np.concatenate([offsets, -offsets], axis=-2)
    _, grads = gradients(fld, stencil.reshape(-1, n))
    normals = _unit(grads, epsilon).reshape(stencil.shape)
    derivs = (normals[..., 0, :] - normals[..., 1, :]) / (2.0 * step[..., None, None])
    raw = SIGN_CONVENTION * frame.basis @ derivs.swapaxes(-1, -2)  # X_a . D_b N
    entries = 0.5 * (raw + raw.swapaxes(-1, -2))
    return ShapeOperatorMatrix(frame, entries)
