"""First and second derivatives of scalar fields.

Primary mechanism: hyper-dual numbers, a scalar extended with two
nilpotent perturbations (eps1^2 = eps2^2 = 0) whose mixed term carries an
exact second derivative. Evaluating a smooth expression on hyper-dual
inputs yields value, two first partials and one mixed second partial with
no truncation error.

A central finite-difference engine lives alongside it and is used only as
an independent cross-check; the two share only the field and its row layout.

The coefficient slots of a HyperDual may hold floats or numpy arrays.
Evaluations are vector-seeded: a field gets one argument with a leading
coordinate axis, real part (n, P, S, 1) for R = P * S stacked rows in P
blocks (for a dual, one per pre-map matrix; else P = 1) and slots
(n, P, 1, m) that broadcast over each block's rows, so one evaluation
carries every coordinate, row and derivative direction in O(n) array
operations. Dual, the first-order half, does the same for gradients.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field as dc_field
from typing import Callable, NamedTuple

import numpy as np

from .exceptions import DimensionMismatch, DomainViolation

_SCALARS = (int, float, np.floating, np.ndarray)


class Dual:
    """real + d1*eps with eps^2 = 0: a value and its first derivatives.

    The first-order half of HyperDual, for evaluations that need gradients
    only; HyperDual extends it with the second perturbation.
    """

    __slots__ = ("real", "d1")

    __array_ufunc__ = None  # numpy operands defer to the reflected operators below

    def __init__(self, real, d1=0.0):
        self.real = real
        self.d1 = d1

    def __repr__(self):
        return f"Dual({self.real!r}, {self.d1!r})"

    def _parts(self):
        return self.real, self.d1

    def __len__(self):
        return len(self.real)

    def __getitem__(self, k):
        """Coordinate k of a vector-seeded dual; a scalar slot is shared by every coordinate."""
        return type(self)(*[p[k] if isinstance(p, np.ndarray) else p for p in self._parts()])

    # -- ring operations -------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Dual):
            return Dual(self.real + other.real, self.d1 + other.d1)
        if isinstance(other, _SCALARS):
            return Dual(self.real + other, self.d1)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return Dual(-self.real, -self.d1)

    def __sub__(self, other):
        if isinstance(other, Dual):
            return Dual(self.real - other.real, self.d1 - other.d1)
        if isinstance(other, _SCALARS):
            return Dual(self.real - other, self.d1)
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, _SCALARS):
            return Dual(other - self.real, -self.d1)
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, Dual):
            return Dual(self.real * other.real,
                        self.real * other.d1 + self.d1 * other.real)
        if isinstance(other, _SCALARS):
            return Dual(self.real * other, self.d1 * other)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Dual):
            return self * other._reciprocal()
        if isinstance(other, _SCALARS):
            return self * (1.0 / other)
        return NotImplemented

    def __rtruediv__(self, other):
        if isinstance(other, _SCALARS):
            return self._reciprocal() * other
        return NotImplemented

    # -- smooth univariate lifts -----------------------------------------

    def _lift(self, f, df, d2f):
        """Compose with a univariate function given f, f', f'' at self.real."""
        return Dual(f, df * self.d1)

    def _reciprocal(self):
        a = self.real
        if np.any(a == 0.0):
            raise ZeroDivisionError("hyper-dual division by zero real part")
        inv = 1.0 / a
        return self._lift(inv, -inv * inv, 2.0 * inv * inv * inv)

    def __pow__(self, e):
        a = self.real
        if isinstance(e, (int, np.integer)):
            e = int(e)
            if e < 0:
                return self._reciprocal() ** (-e)
            if e == 0:
                return type(self)(np.ones_like(a) if isinstance(a, np.ndarray) else 1.0)
            # Powers of |a| with the sign put back (_abs_power): numpy 2.4's
            # AVX-512 pow loop sends every negative base to a per-element
            # fallback about 35x slower than its vector path.
            b = np.abs(a)
            f = _abs_power(b, a, e)
            df = e * _abs_power(b, a, e - 1)
            d2f = e * (e - 1) * _abs_power(b, a, e - 2) if e != 1 else 0.0
            return self._lift(f, df, d2f)
        if np.any(np.asarray(self.real) <= 0.0):
            raise DomainViolation("fractional power needs positive real part")
        f = a ** e
        return self._lift(f, e * a ** (e - 1.0), e * (e - 1.0) * a ** (e - 2.0))


class HyperDual(Dual):
    """real + d1*eps1 + d2*eps2 + d12*eps1*eps2 with eps1^2 = eps2^2 = 0."""

    __slots__ = ("d2", "d12")

    def __init__(self, real, d1=0.0, d2=0.0, d12=0.0):
        self.real = real
        self.d1 = d1
        self.d2 = d2
        self.d12 = d12

    def __repr__(self):
        return f"HyperDual({self.real!r}, {self.d1!r}, {self.d2!r}, {self.d12!r})"

    def _parts(self):
        return self.real, self.d1, self.d2, self.d12

    def __add__(self, other):
        if isinstance(other, HyperDual):
            return HyperDual(self.real + other.real, self.d1 + other.d1,
                             self.d2 + other.d2, self.d12 + other.d12)
        if isinstance(other, _SCALARS):
            return HyperDual(self.real + other, self.d1, self.d2, self.d12)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return HyperDual(-self.real, -self.d1, -self.d2, -self.d12)

    def __sub__(self, other):
        if isinstance(other, HyperDual):
            return HyperDual(self.real - other.real, self.d1 - other.d1,
                             self.d2 - other.d2, self.d12 - other.d12)
        if isinstance(other, _SCALARS):
            return HyperDual(self.real - other, self.d1, self.d2, self.d12)
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, _SCALARS):
            return HyperDual(other - self.real, -self.d1, -self.d2, -self.d12)
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, HyperDual):
            return HyperDual(
                self.real * other.real,
                self.real * other.d1 + self.d1 * other.real,
                self.real * other.d2 + self.d2 * other.real,
                self.real * other.d12 + self.d12 * other.real
                + self.d1 * other.d2 + self.d2 * other.d1,
            )
        if isinstance(other, _SCALARS):
            return HyperDual(self.real * other, self.d1 * other,
                             self.d2 * other, self.d12 * other)
        return NotImplemented

    __rmul__ = __mul__

    def _lift(self, f, df, d2f):
        return HyperDual(f, df * self.d1, df * self.d2,
                         df * self.d12 + d2f * self.d1 * self.d2)


def _abs_power(b, a, k: int):
    """a ** k for an integer k >= 0 from b = |a|: pow sees b only, odd k takes a's sign.

    Within 1 ulp of a ** k, and equal to it for a > 0, -0.0, nan and +-inf.
    """
    p = b ** k
    return np.copysign(p, a) if k % 2 else p


def power(x, k: int):
    """x ** k for an integer k >= 0 and floats, arrays, or (hyper-)duals; exactly even for even k.

    The real part of a dual result is bit-identical to the float result.
    """
    if isinstance(x, Dual):
        return x ** k
    return _abs_power(np.abs(x), x, k)


def _coordinate_sum(terms, x):
    """Sum terms(part) over k ascending from the first term, on each part of field argument x.

    The real part's sum then gains +0.0, as a loop of dual sums from 0.0 does; that
    order gives a batch's row its point's own bits, unlike numpy's pairwise sum.
    """
    def ascending(part):
        each = terms(part)
        return sum(each, next(each))
    if not isinstance(x, Dual):
        return ascending(x) + 0.0
    real, *slots = x._parts()
    return type(x)(ascending(real) + 0.0, *[
        ascending(s if isinstance(s, np.ndarray) else np.full((len(real), 1, 1, 1), s))
        for s in slots])


def total(x):
    """x[0] + x[1] + ... over the coordinate axis of a field argument x, k ascending."""
    return _coordinate_sum(iter, x)


def matvec(a, x):
    """sum_k a[:, k] * x[k] for an (n, n) matrix a and a field argument x, k ascending."""
    cols = a.T[:, :, None, None, None]  # cols[k] is a[:, k] as (n, 1, 1, 1)
    return _coordinate_sum(lambda p: map(np.multiply, p, cols), x)


def sqrt(x):
    """Square root for floats, arrays, or (hyper-)dual numbers."""
    if isinstance(x, Dual):
        a = x.real
        if np.any(np.asarray(a) <= 0.0):
            raise DomainViolation("sqrt needs positive real part")
        r = np.sqrt(a)
        return x._lift(r, 0.5 / r, -0.25 / (a * r))
    return np.sqrt(x)


def exp(x):
    """Exponential for floats, arrays, or (hyper-)dual numbers."""
    if isinstance(x, Dual):
        e = np.exp(x.real)
        return x._lift(e, e, e)
    return np.exp(x)


def log(x):
    """Natural logarithm for floats, arrays, or (hyper-)dual numbers."""
    if isinstance(x, Dual):
        a = x.real
        if np.any(np.asarray(a) <= 0.0):
            raise DomainViolation("log needs positive real part")
        inv = 1.0 / a
        return x._lift(np.log(a), inv, -inv * inv)
    return np.log(x)


def _always(_y) -> bool:
    return True


@dataclass(frozen=True)
class ScalarField:
    """A scalar function of an n-vector together with its validity domain.

    ``func`` receives one sequence-like argument z of the n coordinates,
    floats (n, P, S, 1) or a vector-seeded (hyper-)dual (see above); it may
    index, iterate or unpack z, or use total and matvec, and must be built
    from the generic arithmetic above so every kind flows through. ``guard``
    is a predicate on real n-vectors; func is only ever invoked where the
    guard holds. ``guard_rows``, if given, is the same predicate on every
    row of an (R, n) array at once, returning R booleans.

    ``pre``, if given, is a linear pre-map B: the field's value at z is
    func(B z), and its derivatives are taken in z. B is one (n, n) matrix,
    or a (P, n, n) stack whose p-th matrix applies to the p-th of P equal
    consecutive blocks of the stacked rows. The guard is checked at B z,
    where func is evaluated.
    """

    dim: int
    func: Callable
    guard: Callable[[np.ndarray], bool] = dc_field(default=_always)
    guard_rows: Callable[[np.ndarray], np.ndarray] | None = None
    pre: np.ndarray | None = None


class _Seeds(NamedTuple):
    """Read-only derivative seeds for one dimension n."""

    first: np.ndarray   # index pairs (first[j], second[j]) of the upper triangle
    second: np.ndarray
    diagonal: np.ndarray  # first == second
    eye: np.ndarray     # gradient seeds: row k is the direction of coordinate k
    d1: np.ndarray      # Hessian seeds: row k is 1 where first == k
    d2: np.ndarray      # row k is 1 where second == k
    stencil: np.ndarray  # fd offsets: 0, +e_i, -e_i, then +-e_i +-e_j per pair i < j


@functools.cache
def _seeds(n: int) -> _Seeds:
    first, second = np.triu_indices(n)
    eye = np.eye(n)
    ei, ej = eye[first[first != second]], eye[second[first != second]]
    pairs = np.stack([ei + ej, ei - ej, ej - ei, -ei - ej], axis=1).reshape(-1, n)
    stencil = np.concatenate([np.zeros((1, n)), eye, -eye, pairs])
    seeds = _Seeds(first, second, first == second, eye, eye[:, first], eye[:, second],
                   stencil)
    for table in seeds:
        table.setflags(write=False)
    return seeds


def _pulled_back(fld: ScalarField, rows: np.ndarray) -> np.ndarray:
    """B z for every row z of ``rows`` (R, n).

    The sum runs over k in ascending order from +0.0, the order in which a
    field composed from dual products would accumulate it.
    """
    if fld.pre is None:
        return rows
    n = fld.dim
    stack = fld.pre.reshape(-1, n, n)
    if len(rows) % len(stack):
        raise DimensionMismatch(f"{len(rows)} rows do not split among {len(stack)} points")
    grouped = rows.reshape(len(stack), -1, n)
    w = 0.0
    for k in range(n):
        w = w + stack[:, None, :, k] * grouped[:, :, k:k + 1]
    return w.reshape(rows.shape)


def _seed_rows(fld: ScalarField, plain: np.ndarray, columns) -> np.ndarray:
    """Seed table whose entry i seeds coordinate i of the field's argument.

    It is (n, P, 1, m): each of the P points' B[:, columns], broadcast over
    the point's block of rows, or ``plain`` (n, m) as one block (P = 1)
    without a pre-map.
    """
    if fld.pre is None:
        return plain[:, None, None, :]
    n = fld.dim
    return fld.pre.reshape(-1, n, n)[..., columns].transpose(1, 0, 2)[:, :, None, :]


def point_rows(y, dim: int) -> np.ndarray:
    """``y``, one point (n,) or stacked rows (R, n), as (R, n) rows; n must be ``dim``."""
    y = np.asarray(y, dtype=float)
    if y.ndim not in (1, 2) or y.shape[-1] != dim:
        raise DimensionMismatch(f"point shape {y.shape} does not match dim {dim}")
    return y.reshape(-1, dim)


def _guarded_rows(fld: ScalarField, y) -> np.ndarray:
    """The (R, n) rows w = B z where the field is evaluated, for ``y`` as rows z.

    z is checked against the field's dimension and w against its guard.
    """
    rows = point_rows(y, fld.dim)
    w = _pulled_back(fld, rows)
    if fld.guard_rows is not None:
        inside = np.asarray(fld.guard_rows(w), dtype=bool)
    else:
        inside = np.array([fld.guard(row) for row in w], dtype=bool)
    if not inside.all():
        raise DomainViolation(f"point {rows[inside.argmin()]} is outside the field's domain")
    return w


def gradients(fld: ScalarField, y):
    """Value and gradient of ``fld`` via dual numbers (first order only).

    ``y`` is one point (n,), giving (float, (n,)), or stacked rows (R, n),
    giving ((R,), (R, n)); all rows go through one field evaluation with n
    slots. Coordinate i of w = B z is seeded as Dual(w_i, B[i, :]), so the
    slots carry derivatives in z. The gradient is bit-identical to the one
    grad_hess returns.
    """
    w = _guarded_rows(fld, y)
    seed = _seed_rows(fld, _seeds(fld.dim).eye, slice(None))
    coords = w.T.copy().reshape(seed.shape[:2] + (-1, 1))  # (n, P, S, 1)
    out = fld.func(Dual(coords, seed))
    if isinstance(out, Dual):
        real, first = out.real, out.d1
    else:  # constant field
        real, first = out, 0.0
    value = np.full(coords.shape[1:], real, float).reshape(-1)
    grad = np.full(coords.shape[1:-1] + (fld.dim,), first, float).reshape(w.shape)
    if np.ndim(y) == 1:
        return float(value[0]), grad[0]
    return value.copy(), grad


def grad_hess(fld: ScalarField, y):
    """Value, gradient, and Hessian of ``fld`` via hyper-duals.

    ``y`` is one point (n,), giving (float, (n,), (n, n)), or stacked rows
    (R, n), giving ((R,), (R, n), (R, n, n)). One field evaluation carries
    all rows and all n(n+1)/2 index pairs (first, second): coordinate i of
    w = B z is seeded as HyperDual(w_i, B[i, first], B[i, second]), so the
    mixed coefficient of a pair is exactly d2f/dz_first dz_second and the
    returned Hessian is symmetric by construction (the (j, i) entry is the
    mirrored copy of the same number).
    """
    w = _guarded_rows(fld, y)
    seeds = _seeds(fld.dim)
    d1 = _seed_rows(fld, seeds.d1, seeds.first)
    d2 = _seed_rows(fld, seeds.d2, seeds.second)
    coords = w.T.copy().reshape(d1.shape[:2] + (-1, 1))  # (n, P, S, 1)
    out = fld.func(HyperDual(coords, d1, d2))
    if isinstance(out, HyperDual):
        real, slope, mixed = out.real, out.d1, out.d12
    else:  # constant field
        real, slope, mixed = out, 0.0, 0.0
    value, slope, mixed = (np.full(coords.shape[1:-1] + (size,), part, float).reshape(len(w), -1)
                           for part, size in ((real, 1), (slope, seeds.first.size),
                                              (mixed, seeds.first.size)))
    grad = np.ascontiguousarray(slope[:, seeds.diagonal])  # C order, as for one row
    return _second_order(y, value[:, 0], grad, mixed)


def fd_grad_hess(fld: ScalarField, y, h: float = 1e-5):
    """Central-difference value/gradient/Hessian, O(h^2) accurate, shaped as grad_hess's.

    Steps are h times max(1, ||z||) for each row z, taken before any pre-map;
    the 2n^2 + 1 stencil points of every row, grouped by row, go through one
    float evaluation of the field. Independent of the hyper-dual path, and
    its oracle. Raises DomainViolation if any stencil point leaves the guard.
    """
    rows = point_rows(y, fld.dim)
    n = fld.dim
    seeds = _seeds(n)
    step = h * np.maximum(1.0, np.linalg.norm(rows, axis=-1))[:, None]  # (R, 1)
    w = _guarded_rows(fld, (rows[:, None, :] + step[:, :, None] * seeds.stencil).reshape(-1, n))
    out = fld.func(w.T.copy()[:, None, :, None])
    f = np.full((1, len(w), 1), out, float).reshape(len(rows), -1)
    value, plus, minus, cross = np.split(f, [1, n + 1, 2 * n + 1], axis=1)
    pp, pm, mp, mm = np.moveaxis(cross.reshape(len(rows), -1, 4), -1, 0)  # signs of i, j
    upper = np.empty((len(rows), seeds.first.size))
    upper[:, seeds.diagonal] = (plus - 2.0 * value + minus) / (step * step)
    upper[:, ~seeds.diagonal] = (pp - pm - mp + mm) / (4.0 * step * step)
    return _second_order(y, value[:, 0], (plus - minus) / (2.0 * step), upper)


def _second_order(y, value, grad, upper):
    """grad_hess's result: each Hessian mirrors its upper triangle, (R, m) in _seeds order."""
    n = grad.shape[-1]
    seeds = _seeds(n)
    hess = np.empty((len(grad), n, n))
    hess[:, seeds.first, seeds.second] = upper
    hess[:, seeds.second, seeds.first] = upper
    if np.ndim(y) == 1:
        return float(value[0]), grad[0], hess[0]
    return value.copy(), grad, hess
