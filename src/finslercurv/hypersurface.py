"""Curvature of an implicitly defined hypersurface.

The surface is the zero level set of a defining scalar field f with
nonvanishing gradient. One DefiningEvaluation holds f, grad f, Hess f,
|grad f| and the unit normal grad f / |grad f|, and the stages read only
it: the shape operator in an orthonormal tangent frame is the projected
Hessian of f scaled by 1/|grad f|, and the mean curvature is the
normal-deflated trace. A finite-difference Weingarten construction
(differencing the normal field itself) is an independent oracle for the
same matrix. Every stage takes one point or a (P, n) stack of points,
and a stack gives each point the numbers it would get alone.

Sign convention: the shape operator is the derivative of the unit normal
itself, so the unit sphere f = (|y|^2 - 1)/2, whose normal points
outward, has every principal curvature +1 (convex surfaces seen from
outside are positively curved). The inward orientation is the zero set
of -f, which negates the shape operator and the mean curvature.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .autodiff import ScalarField, _scaled_step, grad_hess, gradients
from .exceptions import DimensionMismatch, OffSurface, VanishingGradient
from .numkernel import TangentFrame, _first, _norms, complete_frame, trace_reduction

# Numerical floor at or below which the gradient counts as vanishing.
GRADIENT_FLOOR = 1e-10

# |f| above this at an asserted on-surface point raises OffSurface.
ON_SURFACE_TOL = 1e-8

# (rows, columns) of the entries below the diagonal of an order-m matrix, built once per m.
_below_diagonal = functools.cache(functools.partial(np.tril_indices, k=-1))


@dataclass(frozen=True)
class DefiningEvaluation:
    """f, grad f, Hess f, |grad f| and the unit normal at one point (or at P stacked rows).

    For stacked rows every field gains a leading axis of length P.
    """

    at: np.ndarray
    value: float
    gradient: np.ndarray
    hessian: np.ndarray
    grad_norm: float
    normal: np.ndarray


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


def _unit(gradient) -> tuple[np.ndarray, np.ndarray]:
    """grad / |grad| and |grad| over the last axis; VanishingGradient where |grad| is small."""
    grad_norm = _norms(gradient)
    small = _first(grad_norm, ~(grad_norm > GRADIENT_FLOOR))  # NaN is small
    if small is not None:
        raise VanishingGradient(f"|grad f| = {small:.3e}")
    return gradient / grad_norm[..., None], grad_norm


def defining_evaluation(y, value, gradient, hessian,
                        on_surface: bool = False) -> DefiningEvaluation:
    """Check f and its derivatives at y (or at stacked rows) and bundle them."""
    if on_surface:
        off = _first(np.abs(value), ~(np.abs(value) <= ON_SURFACE_TOL))  # NaN is off
        if off is not None:
            raise OffSurface(f"|f| = {off:.3e} exceeds {ON_SURFACE_TOL}")
    normal, grad_norm = _unit(gradient)
    grad_norm = float(grad_norm) if grad_norm.ndim == 0 else grad_norm
    return DefiningEvaluation(y, value, gradient, hessian, grad_norm, normal)


def evaluate_defining(fld: ScalarField, y, on_surface: bool = False) -> DefiningEvaluation:
    """Evaluate f and its exact derivatives (hyper-dual path) at y or at (P, n) rows."""
    y = np.asarray(y, dtype=float)
    return defining_evaluation(y, *grad_hess(fld, y), on_surface=on_surface)


def _tangent_dim(ev: DefiningEvaluation) -> int:
    """n - 1, the dimension of the surface through the evaluation's points (n >= 2)."""
    n = ev.at.shape[-1]
    if n < 2:
        raise DimensionMismatch("ambient dimension must be >= 2")
    return n - 1


def shape_operator(ev: DefiningEvaluation) -> ShapeOperatorMatrix:
    """Shape-operator matrix from the projected Hessian of f.

    Entry (a, b) is X_a . (Hess f) X_b / |grad f| in the frame
    complete_frame(ev.normal) of the unit normal; the lower triangle mirrors
    the upper one, so the matrix is exactly symmetric.
    """
    _tangent_dim(ev)
    frame = complete_frame(ev.normal)
    coef = 1 / np.asarray(ev.grad_norm)[..., None, None]
    basis = frame.basis
    full = coef * (basis @ ev.hessian @ basis.swapaxes(-1, -2))
    entries = full + 0.0  # a copy in which -0.0 reads +0.0, in both triangles
    rows, cols = _below_diagonal(full.shape[-1])
    entries[..., rows, cols] = entries[..., cols, rows]
    return ShapeOperatorMatrix(frame, entries)


def mean_curvature_trace(ev: DefiningEvaluation):
    """Mean curvature via the normal-deflated Hessian trace.

    (tr Hess f - N Hess f N^T) / ((n-1) |grad f|), N the unit normal.
    Agrees with shape_operator(ev).mean to rounding; the two routes share
    only the Hessian. A float, or one value per stacked row.
    """
    coef = 1 / (_tangent_dim(ev) * ev.grad_norm)
    return coef * trace_reduction(ev.hessian, ev.normal)


def weingarten_oracle(fld: ScalarField, y, h: float = 1e-5,
                      frame: TangentFrame | None = None) -> ShapeOperatorMatrix:
    """Shape operator by central differencing of the unit normal field.

    For each frame vector X_b, the normal is re-evaluated at y +- step*X_b,
    where step = h*max(1, ||y||) by fd_grad_hess's rule (autodiff's
    _scaled_step, whose ValueError comes before any evaluation). The
    difference quotient is projected back onto the frame and the matrix
    symmetrized by transpose averaging. Entirely independent of the
    Hessian-formula route except for the field itself. The 2(n-1) stencil
    points of every row of a (P, n) y go through gradients' first-order
    evaluations grouped by row, the layout of a field with one pre-map matrix
    per row, such as indicatrix.adapted_field(fund, chol) for a (P, n, n)
    chol (a row's stencil is then one point of autodiff's block rule);
    ``h`` is one step, or one per row.
    ``frame`` is the tangent frame at y when the caller already has it;
    otherwise it is completed from the gradient at y.
    """
    y = np.asarray(y, dtype=float)
    step = _scaled_step(h, y)
    if frame is None:
        frame = complete_frame(_unit(gradients(fld, y)[1])[0])
    n = y.shape[-1]
    offsets = step[..., None, None, None] * frame.basis[..., None, :]  # (..., k, 1, n)
    stencil = y[..., None, None, :] + np.concatenate([offsets, -offsets], axis=-2)
    _, grads = gradients(fld, stencil.reshape(-1, n))
    normals = _unit(grads)[0].reshape(stencil.shape)
    derivs = (normals[..., 0, :] - normals[..., 1, :]) / (2.0 * step[..., None, None])
    raw = frame.basis @ derivs.swapaxes(-1, -2)  # X_a . D_b N
    entries = 0.5 * (raw + raw.swapaxes(-1, -2))
    return ShapeOperatorMatrix(frame, entries)
