"""First and second derivatives of scalar fields.

Primary mechanism: hyper-dual numbers, a scalar extended with two
nilpotent perturbations (eps1^2 = eps2^2 = 0) whose mixed term carries an
exact second derivative. Evaluating a smooth expression on hyper-dual
inputs yields value, two first partials and one mixed second partial with
no truncation error.

A central finite-difference engine lives alongside it and is used only as
an independent cross-check; the two share only the field and its row layout.

The parts of a (hyper-)dual may hold floats or numpy arrays. Evaluations
are vector-seeded: a field gets one argument laid out as (coordinate,
slot, row of its point, point): real part (n, 1, S, P) for R = P * S
stacked rows, S for each of P points (defined below; without a pre-map
stack every row is a point, P = R and S = 1), and gradient d1 (n, n, 1, P),
each point's seeds broadcast over its rows. One evaluation carries every
coordinate, row and derivative direction of a block in O(n) array
operations, each with its inner loop over the points. With the slots
innermost instead, a product of a real part and a slot part broadcasts on
the innermost axis, in loops of n or m elements: a (6, 128, 10, 1) by
(6, 128, 1, 6) product takes about 3x as long as the same 46k products
points-innermost.
HyperDual adds d12 (n, m, 1, P), the mixed partials at the m = n(n+1)/2
index pairs (first, second) of _seeds(n), and gathers d1 at first and at
second for the two first partials of each pair: the gradient is stored
once. Addition, subtraction, negation and scaling act part by part, written
once in Dual; HyperDual adds only the product and the lifts, which carry
the eps1*eps2 term (Fike & Alonso, AIAA 2011-886).

A square x * x forms each symmetric product once, with the general
product's bits, and total, matvec and the pre-map add each coordinate's
term into one running array. An n = 6 report chunk's 130-370 KB
temporaries then reuse heap pages; with a new array per product and per
addend, every chunk grew the heap and faulted its pages in again.

One budget bounds memory, and one rule (_blockwise) keeps it for both
engines: a batch is evaluated in consecutive blocks of whole points whose
widest array holds at most STACK_FLOATS floats. A point is one matrix of a
(P, n, n) pre-map stack with its rows; without a pre-map, or with one
(n, n) matrix for all rows, each row is a point. Rows never mix, so blocks
keep every bit, and a point wider than the budget is its own block
(Griewank & Walther, Evaluating Derivatives, ch. 13).
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple

import numpy as np

from .exceptions import DimensionMismatch, DomainViolation
from .numkernel import _first, _norms

_SCALARS = (int, float, np.floating, np.ndarray)

# Floats in the widest array (n coordinates x rows x slots) of one field evaluation,
# 368 KB, sized on the n = 6 oracle of 128 points; chunk_points sizes chunks by it.
STACK_FLOATS = 46_080


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
        return f"{type(self).__name__}({', '.join(map(repr, self._parts()))})"

    def _parts(self):
        return self.real, self.d1

    def __len__(self):
        return len(self.real)

    def __getitem__(self, k):
        """Coordinate k of a vector-seeded dual; a scalar slot is shared by every coordinate."""
        return type(self)(*[p[k] if isinstance(p, np.ndarray) else p for p in self._parts()])

    # -- ring operations -------------------------------------------------

    def __add__(self, other):
        if isinstance(other, type(self)):
            return type(self)(*map(operator.add, self._parts(), other._parts()))
        if isinstance(other, _SCALARS):
            return type(self)(self.real + other, *self._parts()[1:])
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return type(self)(*map(operator.neg, self._parts()))

    def __sub__(self, other):
        if isinstance(other, type(self)):
            return type(self)(*map(operator.sub, self._parts(), other._parts()))
        if isinstance(other, _SCALARS):
            return type(self)(self.real - other, *self._parts()[1:])
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, _SCALARS):
            return type(self)(other - self.real, *map(operator.neg, self._parts()[1:]))
        return NotImplemented

    def __mul__(self, other):
        if other is self:  # a square forms each symmetric product once
            t = self.real * self.d1
            return Dual(self.real * self.real, t + t)
        if isinstance(other, Dual):
            return Dual(self.real * other.real,
                        self.real * other.d1 + self.d1 * other.real)
        if isinstance(other, _SCALARS):
            return type(self)(*[p * other for p in self._parts()])
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
        if (np.asarray(a) == 0.0).any():
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
        if (np.asarray(self.real) <= 0.0).any():
            raise DomainViolation("fractional power needs positive real part")
        f = a ** e
        return self._lift(f, e * a ** (e - 1.0), e * (e - 1.0) * a ** (e - 2.0))


class HyperDual(Dual):
    """real + d1[first]*eps1 + d1[second]*eps2 + d12*eps1*eps2 with eps1^2 = eps2^2 = 0."""

    __slots__ = ("d12",)

    def __init__(self, real, d1=0.0, d12=0.0):
        self.real = real
        self.d1 = d1
        self.d12 = d12

    def _parts(self):
        return self.real, self.d1, self.d12

    def _pair(self):
        """d1 at each pair's first and second slot; a float d1 is its own pair.

        take gathers along the slot axis (-3), outside each slot's rows and
        points, so it copies whole contiguous blocks at every size.
        """
        if not isinstance(self.d1, np.ndarray):
            return self.d1, self.d1
        seeds = _seeds(self.d1.shape[-3])
        return self.d1.take(seeds.first, axis=-3), self.d1.take(seeds.second, axis=-3)

    def __mul__(self, other):
        if other is self:  # the general product's sums with its equal products formed once
            a1, a2 = self._pair()
            t, u, w = self.real * self.d1, self.real * self.d12, a1 * a2
            return HyperDual(self.real * self.real, t + t, ((u + u) + w) + w)
        if isinstance(other, HyperDual):
            (a1, a2), (b1, b2) = self._pair(), other._pair()
            return HyperDual(self.real * other.real, self.real * other.d1 + self.d1 * other.real,
                             self.real * other.d12 + self.d12 * other.real + a1 * b2 + a2 * b1)
        return super().__mul__(other)

    __rmul__ = __mul__

    def _lift(self, f, df, d2f):
        a1, a2 = self._pair()
        return HyperDual(f, df * self.d1, df * self.d12 + d2f * a1 * a2)


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


def _ascending(each):
    """Iterator each's terms summed left to right in one fresh array; one term comes back copied."""
    acc = next(each) + next(each, -0.0)  # x + -0.0 is x, bit for bit
    for t in each:
        acc += t
    return acc


def _coordinate_sum(terms, x):
    """Sum terms(part) over k ascending from the first term, on each part of field argument x.

    The real part's sum then gains +0.0, as a loop of dual sums from 0.0 does; that
    order gives a batch's row its point's own bits, unlike numpy's pairwise sum.
    """
    if not isinstance(x, Dual):
        return _ascending(terms(x)) + 0.0
    real, *slots = x._parts()
    return type(x)(_ascending(terms(real)) + 0.0, *[
        _ascending(terms(s if isinstance(s, np.ndarray) else np.full((len(real), 1, 1, 1), s)))
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
        if (np.asarray(a) <= 0.0).any():
            raise DomainViolation("sqrt needs positive real part")
        r = np.sqrt(a)
        return x._lift(r, 0.5 / r, -0.25 / (a * r))
    return np.sqrt(x)


@dataclass(frozen=True)
class ScalarField:
    """A scalar function of an n-vector together with its validity domain.

    ``func`` receives one sequence-like argument z of the n coordinates,
    floats (n, 1, S, P) or a vector-seeded (hyper-)dual (see above); it may
    index, iterate or unpack z, or use total and matvec, and must be built
    from the generic arithmetic above so every kind flows through.
    ``guard``, unless None, takes an (R, n) array of rows and returns R
    booleans; func is only ever invoked at rows where it holds.

    ``pre``, if given, is a linear pre-map B: the field's value at z is
    func(B z), and its derivatives are taken in z. B is one (n, n) matrix,
    or a (P, n, n) stack whose p-th matrix applies to the p-th of P equal
    consecutive groups of the stacked rows. The guard is checked at B z,
    where func is evaluated. A point is one matrix of a stack with its
    group of rows, else one row; func sees whole points only, as many as
    STACK_FLOATS allows at a time (see above).
    """

    dim: int
    func: Callable
    guard: Callable[[np.ndarray], np.ndarray] | None = None
    pre: np.ndarray | None = None


class _Seeds(NamedTuple):
    """Read-only derivative seeds for one dimension n."""

    first: np.ndarray   # index pairs (first[j], second[j]) of the upper triangle
    second: np.ndarray
    diagonal: np.ndarray  # first == second
    eye: np.ndarray     # seeds: row k is the direction of coordinate k


@functools.cache
def _seeds(n: int) -> _Seeds:
    first, second = np.triu_indices(n)
    seeds = _Seeds(first, second, first == second, np.eye(n))
    for table in seeds:
        table.setflags(write=False)
    return seeds


def _per_point(rows: int, points: int) -> int:
    """Rows in each of ``points`` equal consecutive blocks of ``rows`` rows; no points take none."""
    per_point, extra = divmod(rows, points) if points else (0, rows)
    if extra:
        raise DimensionMismatch(f"{rows} rows do not split among {points} points")
    return per_point


def _pulled_back(fld: ScalarField, z: np.ndarray) -> tuple:
    """The real part w = B z of fld's argument at the (R, n) rows z, and B's seeds.

    Both are in the argument layout (see above): w is (n, 1, S, P), and the
    seeds, B[i, :] at coordinate i, are one contiguous (n, n, 1, P) copy of a
    (P, n, n) stack, else (n, n, 1, 1). The sum runs over k in ascending order
    from +0.0, the order in which a field composed from dual products would
    accumulate it.
    """
    n = fld.dim
    pre = _seeds(n).eye if fld.pre is None else fld.pre
    points = len(pre) if pre.ndim == 3 else len(z)
    zt = z.reshape(points, _per_point(len(z), points), n).T.copy()  # (n, S, P)
    bt = pre.reshape(-1, n, n).transpose(1, 2, 0).copy()[:, :, None]
    if fld.pre is None:
        return zt[:, None], bt
    w = _ascending(bt[:, k] * zt[k] for k in range(n))
    w += 0.0  # a sum from the first term, then + 0.0, is the sum from +0.0
    return w[:, None], bt


def point_rows(y, dim: int) -> np.ndarray:
    """``y``, one point (n,) or stacked rows (R, n), as (R, n) rows; n must be ``dim``."""
    y = np.asarray(y, dtype=float)
    if y.ndim not in (1, 2) or y.shape[-1] != dim:
        raise DimensionMismatch(f"point shape {y.shape} does not match dim {dim}")
    return y.reshape(-1, dim)


def _evaluated(fld: ScalarField, z: np.ndarray, kind) -> list:
    """fld at the (R, n) rows z, as kind's parts in (R, width) rows.

    The field is evaluated at w = B z, which must pass the guard. kind float
    gives the value (R, 1). Dual and HyperDual seed coordinate i as
    kind(w_i, B[i, :]), row i of each point's B (the identity without a
    pre-map), so their slots carry derivatives in z: the gradient (R, n) and
    a HyperDual's mixed part (R, m) follow the value. The guard gets
    C-contiguous rows: a transposed view would change the order of its sums.
    """
    n = fld.dim
    x, seeds = _pulled_back(fld, z)
    if fld.guard is not None:
        w = z if fld.pre is None else _rows(x[:, 0], n, x.shape[2:])
        inside = np.asarray(fld.guard(w), dtype=bool)
        if inside.shape != (len(z),):
            raise DimensionMismatch(f"guard gave shape {inside.shape}, not one boolean per row")
        if not inside.all():
            raise DomainViolation(f"point {z[inside.argmin()]} is outside the field's domain")
    if kind is float:
        parts, widths = [fld.func(x)], (1,)
    else:
        out = fld.func(kind(x, seeds))
        parts = (out if isinstance(out, Dual) else kind(out))._parts()  # a constant's slots are 0
        widths = (1, n, _seeds(n).first.size)
    return [_rows(part, width, x.shape[2:]) for part, width in zip(parts, widths)]


def _rows(part, width: int, block: tuple) -> np.ndarray:
    """A part laid out (width, S, P), or broadcast to it, as C-contiguous (P * S, width)
    rows, grouped by point; block is (S, P)."""
    out = np.empty(block[::-1] + (width,))
    np.copyto(out.T, part)
    return out.reshape(-1, width)


def _blockwise(fld: ScalarField, count: int, width: int, kind, rows: Callable) -> list:
    """_evaluated's parts for ``count`` input rows, joined by row: the one block rule.

    Each block is consecutive whole points (as the module docstring defines
    them) within STACK_FLOATS at ``width`` floats an input row; a wider point
    is a block alone. rows(r) gives the rows evaluated for the input rows of
    slice r, grouped by input row: the rows themselves, or fd's stencils.
    """
    stack = fld.pre if fld.pre is not None and fld.pre.ndim == 3 else None
    per = 1 if stack is None else _per_point(count, len(stack))
    points = count if stack is None else len(stack)
    size = max(1, STACK_FLOATS // max(1, per * width))
    if points <= size:
        return _evaluated(fld, rows(slice(0, count)), kind)
    blocks = [_evaluated(fld if stack is None else replace(fld, pre=stack[p:p + size]),
                         rows(slice(p * per, (p + size) * per)), kind)
              for p in range(0, points, size)]
    return [np.concatenate(part) for part in zip(*blocks)]


def _seeded(fld: ScalarField, y, kind) -> list:
    """kind's parts of fld at y's rows (_evaluated), evaluated in blocks (_blockwise).

    It returns real (R, 1), gradient (R, n) and a HyperDual's mixed part (R, m).
    """
    z = point_rows(y, fld.dim)
    n = fld.dim
    slots = _seeds(n).first.size if kind is HyperDual else n
    return _blockwise(fld, len(z), n * slots, kind, lambda r: z[r])


def gradients(fld: ScalarField, y):
    """Value and gradient of ``fld`` via dual numbers (first order only).

    ``y`` is one point (n,), giving (float, (n,)), or stacked rows (R, n),
    giving ((R,), (R, n)); the rows go through field evaluations with n
    slots, a block of points each (see the module docstring). Coordinate i
    of w = B z is seeded as Dual(w_i, B[i, :]), so the slots carry
    derivatives in z. The gradient is bit-identical to the one grad_hess
    returns.
    """
    value, grad = _seeded(fld, y, Dual)
    if np.ndim(y) == 1:
        return float(value[0, 0]), grad[0]
    return value[:, 0].copy(), grad


def grad_hess(fld: ScalarField, y):
    """Value, gradient, and Hessian of ``fld`` via hyper-duals.

    ``y`` is one point (n,), giving (float, (n,), (n, n)), or stacked rows
    (R, n), giving ((R,), (R, n), (R, n, n)). Each field evaluation carries
    a block of points (see the module docstring) and all n(n+1)/2 index
    pairs (first, second): coordinate i of w = B z is seeded as
    HyperDual(w_i, B[i, :]), as in gradients, so the d1 part is the gradient
    and d12 is exactly d2f/dz_first dz_second. The Hessian is symmetric by
    construction (the (j, i) entry mirrors (i, j)).
    """
    value, grad, mixed = _seeded(fld, y, HyperDual)
    return _second_order(y, value[:, 0], grad, mixed)


def check_step(h) -> None:
    """Raise ValueError unless every entry of h, a finite-difference step or one per row,
    lies in [2**-511, 2**511]: finite and positive, with h * h a normal float."""
    h = np.asarray(h, dtype=float)
    if not ((h >= 2.0 ** -511) & (h <= 2.0 ** 511)).all():  # NaN fails
        raise ValueError("finite-difference step must lie in [2**-511, 2**511], "
                         "where h * h is a normal float")


def _scaled_step(h, y) -> np.ndarray:
    """The step h * max(1, ||z||) for each row z of y, h one step or one per row.

    Raises ValueError unless h passes check_step and every scaled step is
    below 2**511, where 4 * step * step is finite. A NaN step, from a NaN
    row, is left to the field.
    """
    check_step(h)
    with np.errstate(over="ignore"):  # a step that overflows fails the check below
        step = h * np.maximum(1.0, _norms(y))
    big = _first(step, step >= 2.0 ** 511)
    if big is not None:
        raise ValueError(f"scaled finite-difference step {big:.3e} "
                         "must be below 2**511, where 4 * step * step is finite")
    return step


def fd_grad_hess(fld: ScalarField, y, h: float = 1e-5):
    """Central-difference value/gradient/Hessian, O(h^2) accurate, shaped as grad_hess's.

    Steps are _scaled_step's, taken before any pre-map; the 2n^2 + 1 stencil
    points of every row, grouped by row, go through float evaluations of the
    field, a block of points each (_blockwise, as for grad_hess). Independent
    of the hyper-dual path, and its oracle. Raises _scaled_step's ValueError
    before any evaluation, and DomainViolation if a stencil point leaves the
    guard.
    """
    rows = point_rows(y, fld.dim)
    step = _scaled_step(h, rows)[:, None]  # (R, 1)
    n = fld.dim
    seeds = _seeds(n)
    # offsets 0, +e_i, -e_i, then +-e_i +-e_j per pair i < j; built here, not with the
    # seeds, which the hyper-dual path reads: at n = 400 the stencil alone takes 1 GB
    ei, ej = seeds.eye[seeds.first[~seeds.diagonal]], seeds.eye[seeds.second[~seeds.diagonal]]
    pairs = np.stack([ei + ej, ei - ej, ej - ei, -ei - ej], axis=1).reshape(-1, n)
    stencil = np.concatenate([np.zeros((1, n)), seeds.eye, -seeds.eye, pairs])
    f, = _blockwise(fld, len(rows), len(stencil) * n, float,
                    lambda r: (rows[r, None, :] + step[r, :, None] * stencil).reshape(-1, n))
    f = f.reshape(len(rows), len(stencil))
    value, plus, minus, cross = np.split(f, [1, n + 1, 2 * n + 1], axis=1)
    pp, pm, mp, mm = np.moveaxis(cross.reshape(len(rows), len(ei), 4), -1, 0)  # signs of i, j
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
