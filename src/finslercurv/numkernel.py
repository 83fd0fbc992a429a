"""Dense linear algebra for small symmetric systems.

Everything here works on plain numpy arrays of modest order (2 to 100 in
the tests): Cholesky factorization, orthonormal frame completion around a
unit normal, quadratic forms, and the normal-deflated trace used by the
curvature formulas, with an explicit-projection route to the same trace.
Cholesky factors come from LAPACK (np.linalg.cholesky), eigenvalues from
np.linalg.eigvalsh (see hypersurface.ShapeOperatorMatrix). Cholesky,
frame completion, quadratic forms and the trace reduction also take
stacks (leading axes before the vector or matrix axes) and treat every
entry of the stack alone. All functions are pure; nothing is cached.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import DimensionMismatch, NotPositiveDefinite, NotUnit

# Orthonormality tolerance for tangent frames.
FRAME_TOL = 1e-12
# Allowed deviation of a "unit" vector from length 1.
UNIT_TOL = 1e-10
# A Cholesky pivot below this fraction of the largest diagonal entry is
# treated as loss of positive definiteness.
PIVOT_REL_TOL = 1e-13


def _as_square(a) -> np.ndarray:
    """A square matrix, or a stack of them."""
    a = np.asarray(a, dtype=float)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise DimensionMismatch(f"expected a square matrix, got shape {a.shape}")
    return a


def _as_symmetric(a, stack: bool = True) -> np.ndarray:
    a = _as_square(a)
    if not stack and a.ndim != 2:
        raise DimensionMismatch(f"expected one square matrix, got shape {a.shape}")
    if not (a == a.swapaxes(-1, -2)).all():  # a NaN entry never equals its mirror
        raise ValueError("matrix is not symmetric")
    return a


def _norms(x) -> np.ndarray:
    """Euclidean norm over the last axis: np.linalg.norm(x, axis=-1)'s own arithmetic."""
    return np.sqrt(np.add.reduce(x * x, axis=-1))


def _as_unit(v) -> np.ndarray:
    """A unit vector, or a stack of them."""
    v = np.asarray(v, dtype=float)
    if v.ndim < 1:
        raise DimensionMismatch(f"expected a vector, got shape {v.shape}")
    if not (np.abs(_norms(v) - 1.0) <= UNIT_TOL).all():  # NaN fails
        raise NotUnit("vector is not unit length")
    return v


def _first(values, mask):
    """The entry of ``values`` at the first True of ``mask``, or None."""
    mask = np.asarray(mask)
    return np.ravel(values)[mask.argmax()] if mask.any() else None


@dataclass(frozen=True)
class TangentFrame:
    """Orthonormal basis of the hyperplane orthogonal to a unit normal.

    ``basis`` has shape (n-1, n); its rows together with ``normal`` form an
    orthonormal basis of R^n. A stack of P frames has ``normal`` of shape
    (P, n) and ``basis`` of shape (P, n-1, n).
    """

    ambient_dim: int
    normal: np.ndarray
    basis: np.ndarray

    def __post_init__(self):
        n = self.ambient_dim
        if (self.normal.shape[-1:] != (n,)
                or self.basis.shape != self.normal.shape[:-1] + (n - 1, n)):
            raise DimensionMismatch("frame arrays have inconsistent shapes")
        gram = self.basis @ self.basis.swapaxes(-1, -2)
        if not np.abs(gram - np.eye(n - 1)).max() <= FRAME_TOL:  # NaN fails
            raise ValueError("tangent basis is not orthonormal")
        if not np.abs(self.basis @ self.normal[..., None]).max() <= FRAME_TOL:
            raise ValueError("tangent basis is not orthogonal to the normal")


def cholesky(g) -> np.ndarray:
    """Lower-triangular L with L @ L.T == g, for SPD input g (or a stack), from LAPACK.

    Raises NotPositiveDefinite where LAPACK fails, or where a pivot L_jj^2 is
    at most PIVOT_REL_TOL times the largest diagonal entry of its matrix;
    the message names the first infinite entry where there is one.
    """
    g = _as_symmetric(g)
    if g.shape[-1] < 1:
        raise DimensionMismatch("matrix order must be >= 1")
    try:
        low = np.linalg.cholesky(g)
    except np.linalg.LinAlgError:
        raise NotPositiveDefinite(_fault(g, "matrix is not positive definite")) from None
    pivots = low.diagonal(0, -2, -1) ** 2
    floor = PIVOT_REL_TOL * g.diagonal(0, -2, -1).max(axis=-1)
    bad = _first(pivots, pivots <= floor[..., None])
    if bad is not None:
        raise NotPositiveDefinite(
            _fault(g, f"pivot {bad:.3e} is at most {PIVOT_REL_TOL:g} x max diag"))
    return low


def _fault(g, message: str) -> str:
    """``message``, or the first non-finite entry of ``g`` where there is one."""
    entry = _first(g, ~np.isfinite(g))
    return message if entry is None else f"matrix has a non-finite entry {entry}"


def complete_frame(normal) -> TangentFrame:
    """Deterministic orthonormal basis of the hyperplane orthogonal to ``normal``.

    Uses the Householder reflection exchanging ``normal`` with a signed
    first coordinate axis and returns the images of the remaining axes.
    The target axis is -e1 whenever normal[0] > 0.5, which keeps the
    reflection well conditioned near normal = e1; as a consequence
    complete_frame(e1) is exactly {e2, ..., en}. A (P, n) stack of
    normals gives a stack of P frames.
    """
    normal = _as_unit(normal)
    n = normal.shape[-1]
    if n < 2:
        raise DimensionMismatch("ambient dimension must be >= 2")
    u = normal.copy()
    u[..., 0] -= np.where(normal[..., 0] > 0.5, -1.0, 1.0)  # normal - sign*e1, never ~0
    beta = 2.0 / np.add.reduce(u * u, axis=-1)
    basis = -(beta[..., None] * u[..., 1:])[..., None] * u[..., None, :]
    basis[..., np.arange(n - 1), np.arange(1, n)] += 1.0
    normal = normal.copy()
    normal.flags.writeable = False
    basis.flags.writeable = False
    return TangentFrame(n, normal, basis)


def quadratic_form(a, u, v):
    """sum_ij a[i,j] u[i] v[j]; a float, or an array for stacked inputs."""
    a = _as_square(a)
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if u.shape != a.shape[:-1] or v.shape != a.shape[:-1]:
        raise DimensionMismatch("vector lengths do not match matrix order")
    value = (u[..., None, :] @ a @ v[..., :, None])[..., 0, 0]
    return float(value) if value.ndim == 0 else value


def trace_reduction(a, normal):
    """tr(a) minus the normal-normal component: tr(a) - N a N^T.

    Equals the trace of ``a`` restricted (as an operator) to the
    hyperplane orthogonal to the unit vector ``normal``. Stacks of
    matrices and normals give an array of traces.
    """
    a = _as_symmetric(a)
    normal = _as_unit(normal)
    if normal.shape != a.shape[:-1]:
        raise DimensionMismatch("normal length does not match matrix order")
    value = a.trace(0, -2, -1) - quadratic_form(a, normal, normal)
    return float(value) if a.ndim == 2 else value


def projected_trace(a, normal) -> float:
    """Trace of ``a`` projected onto the hyperplane orthogonal to ``normal``.

    Builds an explicit orthonormal basis {X_1, ..., X_{n-1}} of the
    hyperplane and sums X_alpha . (a X_alpha). Independent route for the
    same quantity as trace_reduction; the two are cross-checked in the
    test suite and by the CLI lemma-test command.
    """
    a = _as_symmetric(a, stack=False)
    frame = complete_frame(normal)
    total = 0.0
    for x in frame.basis:
        total += quadratic_form(a, x, x)
    return total
