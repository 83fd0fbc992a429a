"""Catalog of Minkowski norms (fundamental functions) on a tangent space.

Each FundamentalFunction is a positively 1-homogeneous, smooth, positive
norm F on R^n minus a guarded neighbourhood of its non-smooth locus. The
metric tensor it generates is half the Hessian of F^2, computed with the
hyper-dual engine so there is no truncation error.

Families:
  euclidean            F(y) = ||y||
  quadratic (SPD A)    F(y) = sqrt(y^T A y)
  randers (SPD a, b)   F(y) = sqrt(y^T a y) + b . y,   b^T a^-1 b < 1
  pnorm (even p)       F(y) = (sum |y_i|^p)^(1/p)
  mroot (even m)       F(y) = (sum |y_i|^m)^(1/m)

pnorm and mroot are currently one power sum under two names (POWER_SUMS).
It is evaluated as sum |y_i|^p (autodiff.power), so F(-y) = F(y) holds
exactly in floating point, on floats and (hyper-)duals alike.
Its metric tensor degenerates on the coordinate hyperplanes, so the
guard excludes points with any |y_i| below guard_margin * ||y||.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import autodiff
from .autodiff import ScalarField, grad_hess, matvec, point_rows, total
from .exceptions import DomainViolation, InvalidParams, UsageError
from .numkernel import _norms, cholesky

FAMILIES = ("euclidean", "quadratic", "randers", "pnorm", "mroot")

# The power-sum families, each with the name of its exponent parameter.
POWER_SUMS = {"pnorm": "p", "mroot": "m"}

# Default exclusion band around the coordinate hyperplanes for the
# pnorm/mroot families, as a fraction of ||y||.
DEFAULT_GUARD_MARGIN = 1e-2

# Strong-convexity margin for Randers data: require b^T a^-1 b < 1 - this.
RANDERS_MARGIN = 1e-6


@dataclass(frozen=True)
class FundamentalFunction:
    """One Minkowski norm, i.e. one tangent space frozen at a base point."""

    family: str
    dim: int
    matrix: np.ndarray | None = None    # quadratic / randers SPD matrix
    drift: np.ndarray | None = None     # randers covector b
    exponent: int | None = None         # pnorm / mroot even exponent
    guard_margin: float = 0.0

    def value(self, z):
        """F at z, a field argument: (n, 1, S, P) floats or a vector-seeded (hyper-)dual.

        The coordinate axis comes first and the points last (autodiff's layout),
        so each product runs its inner loop over the points."""
        fam = self.family
        if fam == "euclidean":
            return autodiff.sqrt(total(z * z))
        if fam == "quadratic":
            return autodiff.sqrt(total(z * matvec(self.matrix, z)))
        if fam == "randers":
            return (autodiff.sqrt(total(z * matvec(self.matrix, z)))
                    + total(z * self.drift[:, None, None, None]))
        # a power sum
        p = self.exponent
        return total(autodiff.power(z, p)) ** (1.0 / p)

    def guard(self, y) -> bool:
        """guard_rows for one point y, as one bool."""
        y = np.asarray(y, dtype=float)
        return y.shape == (self.dim,) and bool(self.guard_rows(y[None])[0])

    def guard_rows(self, rows) -> np.ndarray:
        """One bool per row of an (R, dim) array: True where F and g are smooth and well posed."""
        rows = np.asarray(rows, dtype=float)
        nrm = _norms(rows)
        inside = nrm > 0.0
        if self.guard_margin > 0.0:
            inside &= np.abs(rows).min(axis=-1) >= self.guard_margin * nrm
        return inside

    def describe(self) -> str:
        key = POWER_SUMS.get(self.family)
        return self.family if key is None else f"{self.family}:{key}={self.exponent}"


def _spd_matrix(a, what: str) -> np.ndarray:
    a = np.array(a, dtype=float)  # a copy: the norm owns its matrix
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InvalidParams(f"{what} must be a square matrix")
    _dimension(a.shape[0])
    if not np.isfinite(a).all():
        raise InvalidParams(f"{what} must have finite entries")
    if not (a == a.T).all():
        raise InvalidParams(f"{what} must be symmetric")
    try:
        cholesky(a)
    except Exception as exc:
        raise InvalidParams(f"{what} must be positive definite") from exc
    return a


def euclidean(dim: int) -> FundamentalFunction:
    """The Euclidean norm on R^dim."""
    return FundamentalFunction("euclidean", _dimension(dim))


def quadratic(a) -> FundamentalFunction:
    """F(y) = sqrt(y^T a y) for SPD a (a Riemannian norm)."""
    a = _spd_matrix(a, "quadratic matrix")
    return FundamentalFunction("quadratic", a.shape[0], matrix=a)


def randers(a, b) -> FundamentalFunction:
    """F(y) = sqrt(y^T a y) + b . y with the strong-convexity bound on b."""
    a = _spd_matrix(a, "randers matrix")
    b = np.asarray(b, dtype=float)
    if b.shape != (a.shape[0],):
        raise InvalidParams("randers covector length must match the matrix order")
    if not np.isfinite(b).all():
        raise InvalidParams("randers covector must have finite entries")
    s = float(b @ np.linalg.solve(a, b))
    if not s < 1.0 - RANDERS_MARGIN:
        raise InvalidParams(f"randers data not strongly convex: b^T a^-1 b = {s:.6f}")
    return FundamentalFunction("randers", a.shape[0], matrix=a, drift=b)


def _dimension(value) -> int:
    try:
        dim = int(value)
    except (TypeError, ValueError, OverflowError):
        dim = None
    if dim is None or dim != value:
        raise InvalidParams(f"dim must be an integer, got {value!r}")
    if dim < 2:
        raise InvalidParams("dim must be >= 2")
    return dim


def _even_exponent(value, name: str) -> int:
    try:
        e = int(value)
    except (TypeError, ValueError, OverflowError):
        raise InvalidParams(f"{name} must be an integer") from None
    if e != value or e < 2 or e % 2 != 0:
        raise InvalidParams(f"{name} must be an even integer >= 2, got {value!r}")
    return e


def _guard_margin(value) -> float:
    try:
        margin = float(value)
    except (TypeError, ValueError):
        margin = np.nan  # not a number: rejected below with the same message
    if not 0.0 <= margin < 1.0:
        raise InvalidParams(f"guard_margin must be a finite number in [0, 1), got {value!r}")
    return margin


def _power_sum(family: str, dim: int, exponent, guard_margin) -> FundamentalFunction:
    """F(y) = (sum y_i^e)^(1/e) for even e, as the power-sum ``family``."""
    return FundamentalFunction(family, _dimension(dim),
                               exponent=_even_exponent(exponent, POWER_SUMS[family]),
                               guard_margin=_guard_margin(guard_margin))


def pnorm(dim: int, p, guard_margin: float = DEFAULT_GUARD_MARGIN) -> FundamentalFunction:
    """F(y) = (sum y_i^p)^(1/p) for even p."""
    return _power_sum("pnorm", dim, p, guard_margin)


def mroot(dim: int, m, guard_margin: float = DEFAULT_GUARD_MARGIN) -> FundamentalFunction:
    """F(y) = (sum y_i^m)^(1/m) for even m; currently the same power sum as pnorm."""
    return _power_sum("mroot", dim, m, guard_margin)


def energy_field(fund: FundamentalFunction) -> ScalarField:
    """The scalar field y -> F(y)^2 / 2, whose Hessian is the metric tensor."""
    def func(z):
        v = fund.value(z)
        return (v * v) * 0.5
    return ScalarField(fund.dim, func, fund.guard_rows)


def eval_F(fund: FundamentalFunction, y):
    """F(y) on the guarded domain: a float, or one value per row of an (R, n) y."""
    y = np.asarray(y, dtype=float)
    rows = point_rows(y, fund.dim)
    inside = fund.guard_rows(rows)
    if not inside.all():
        raise DomainViolation(f"point {rows[inside.argmin()]} is outside the guarded domain")
    values = fund.value(rows.T[:, None, None, :])[0, 0]
    return float(values[0]) if y.ndim == 1 else values


def metric_tensor(fund: FundamentalFunction, y) -> np.ndarray:
    """g_ij(y), half the Hessian of F^2: (n, n) at a point, (R, n, n) at stacked rows.

    Raises NotPositiveDefinite if degenerate.
    """
    _, _, g = grad_hess(energy_field(fund), np.asarray(y, dtype=float))
    cholesky(g)  # SPD check; NotPositiveDefinite propagates
    return g


def check_homogeneity(fund: FundamentalFunction, y, lam: float):
    """Residuals of 1-homogeneity of F and 0-homogeneity of g at (y, lam).

    Returns (|F(lam y) - lam F(y)| / (lam F(y)),
             max-entry relative difference of g at lam*y versus y).
    """
    if not 0.0 < lam < np.inf:  # also NaN
        raise InvalidParams("lambda must be finite and positive")
    y = np.asarray(y, dtype=float)
    with np.errstate(over="ignore"):
        scaled = lam * y
    if not np.isfinite(scaled).all():
        raise InvalidParams("lambda * y must be finite")
    f0 = eval_F(fund, y)
    f1 = eval_F(fund, scaled)
    res_f = abs(f1 - lam * f0) / (lam * f0)
    g0 = metric_tensor(fund, y)
    g1 = metric_tensor(fund, scaled)
    res_g = float(np.max(np.abs(g1 - g0)) / np.max(np.abs(g0)))
    return res_f, res_g


# ---------------------------------------------------------------------------
# Metric-spec mini-grammar (consumed by the CLI):
#   euclidean
#   quadratic:A=d1,d2,...         (diagonal)  or  quadratic:A=@file.json
#   randers:a=@file.json,b=v1,v2,...          (a may also be a diagonal list)
#   pnorm:p=4
#   mroot:m=6
# Matrix files: {"order": n, "entries": [n*n numbers, row-major]}.
# ---------------------------------------------------------------------------

def _split_params(text: str) -> dict[str, list[str]]:
    params: dict[str, list[str]] = {}
    current: list[str] | None = None
    for token in text.split(","):
        if "=" in token:
            name, _, first = token.partition("=")
            name = name.strip()
            if not name or name in params:
                raise UsageError(f"bad parameter token {token!r}")
            current = params.setdefault(name, [])
            current.append(first)
        else:
            if current is None:
                raise UsageError(f"value {token!r} without a parameter name")
            current.append(token)
    return params


def load_matrix_file(path: str) -> np.ndarray:
    """Read {"order": n, "entries": [...]} and return the n x n matrix."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
        order = int(payload["order"])
        entries = np.asarray(payload["entries"], dtype=float)
        if order < 1 or entries.shape != (order * order,):
            raise ValueError("entries length must be order**2")
        return entries.reshape(order, order)
    except Exception as exc:
        raise UsageError(f"cannot read matrix file {path!r}: {exc}") from exc


def _matrix_param(values: list[str], dim: int | None, what: str) -> np.ndarray:
    if len(values) == 1 and values[0].startswith("@"):
        return load_matrix_file(values[0][1:])
    try:
        diag = np.asarray([float(v) for v in values], dtype=float)
    except ValueError as exc:
        raise UsageError(f"bad numeric value in {what}: {exc}") from exc
    if dim is not None and diag.size != dim:
        raise UsageError(f"{what} has {diag.size} entries but dim is {dim}")
    return np.diag(diag)


def parse_metric_spec(spec: str, dim: int | None = None) -> FundamentalFunction:
    """Build a catalog object from a metric-spec string.

    Raises UsageError on any malformed input, including parameters the
    constructors reject.
    """
    if not isinstance(spec, str) or not spec or any(c.isspace() for c in spec):
        raise UsageError("metric spec must be a non-empty whitespace-free string")
    family, sep, rest = spec.partition(":")
    if family not in FAMILIES:
        raise UsageError(f"unknown metric family {family!r}")
    params = _split_params(rest) if sep else {}
    try:
        if family == "euclidean":
            if params:
                raise UsageError("euclidean takes no parameters")
            if dim is None:
                raise UsageError("euclidean needs an ambient dimension")
            return euclidean(dim)
        if family == "quadratic":
            if set(params) != {"A"}:
                raise UsageError("quadratic needs exactly the parameter A")
            fund = quadratic(_matrix_param(params["A"], dim, "A"))
        elif family == "randers":
            if set(params) != {"a", "b"}:
                raise UsageError("randers needs exactly the parameters a and b")
            a = _matrix_param(params["a"], dim, "a")
            try:
                b = np.asarray([float(v) for v in params["b"]], dtype=float)
            except ValueError as exc:
                raise UsageError(f"bad numeric value in b: {exc}") from exc
            fund = randers(a, b)
        else:  # a power sum
            key = POWER_SUMS[family]
            if set(params) != {key}:
                raise UsageError(f"{family} needs exactly the parameter {key}")
            if len(params[key]) != 1:
                raise UsageError(f"{key} must be a single integer")
            fund = _power_sum(family, dim if dim is not None else 0,
                              _parse_int(params[key][0], key), DEFAULT_GUARD_MARGIN)
    except InvalidParams as exc:
        raise UsageError(str(exc)) from exc
    if dim is not None and fund.dim != dim:
        raise UsageError(f"metric has dimension {fund.dim} but dim is {dim}")
    return fund


def _parse_int(text: str, name: str) -> int:
    try:
        return int(text)
    except ValueError as exc:
        raise UsageError(f"{name} must be an integer, got {text!r}") from exc
