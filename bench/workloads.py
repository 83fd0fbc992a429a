"""Seeded inputs, requests and correctness checks for each workload.

Constructing a workload object is the set-up the benchmark times: it
generates every input from the seed and builds the metrics. A workload
is a fixed cycle of requests; ``run(k)`` issues request k of the cycle,
checks its output and returns a ``Result``. Requests are issued one at a
time by one client (a closed loop).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import finslercurv as fc
import finslercurv.cli as cli
from finslercurv import indicatrix as ind

TOL = 1e-8                    # default --tol of the CLI and of verify_claims
FAMILIES = ("euclidean", "quadratic", "randers", "pnorm", "mroot")
SWEEP_DIMS = (2, 3, 4, 6)
SWEEP_POINTS = 200
# Independent check of a reported indicatrix point: |F(y) - 1| and the
# deviation of y from the ray through the query point.
POINT_TOL = 1e-12


@dataclass
class Result:
    """Outcome of one request: reports checked, reports failed, output digest."""

    reports: int
    failed: int
    digest: str
    seconds: float            # time spent in the package call alone
    stdout_bytes: int = 0
    problems: tuple = ()


def seeded_spd(dim: int, seed: int) -> np.ndarray:
    """A dense, well-conditioned SPD matrix, exactly symmetric."""
    rng = np.random.default_rng(seed)
    r = rng.standard_normal((dim, dim))
    a = r @ r.T + dim * np.eye(dim)
    return 0.5 * (a + a.T)


def seeded_randers(dim: int, seed: int, strength: float = 0.81):
    """Randers data (a, b) with b^T a^-1 b equal to ``strength``."""
    a = seeded_spd(dim, seed)
    rng = np.random.default_rng(seed + 1)
    b0 = rng.standard_normal(dim)
    b = b0 * np.sqrt(strength / (b0 @ np.linalg.solve(a, b0)))
    return a, b


def catalog(dim: int, seed: int) -> dict:
    """One norm of every family at ``dim``, as the acceptance suite builds them."""
    a, b = seeded_randers(dim, seed)
    return {
        "euclidean": fc.euclidean(dim),
        "quadratic": fc.quadratic(seeded_spd(dim, seed + 7)),
        "randers": fc.randers(a, b),
        "pnorm": fc.pnorm(dim, 4),
        "mroot": fc.mroot(dim, 6),
    }


def call_cli(argv):
    """Run ``finslercurv.cli.main`` in-process.

    Returns (exit code, stdout, stderr, seconds spent in the call).
    """
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except Exception as exc:  # a traceback a user would see
            err.write(f"{type(exc).__name__}: {exc}")
            code = 1
    seconds = time.perf_counter() - start
    return code, out.getvalue(), err.getvalue(), seconds


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _bad_report(rep) -> bool:
    if isinstance(rep, Exception):
        return True
    values = (rep.residual_H, rep.residual_trace, rep.residual_umbilic, rep.oracle_gap)
    return (not all(math.isfinite(v) for v in values)
            or rep.residual_H > TOL or rep.residual_trace > TOL
            or rep.residual_umbilic > TOL or rep.oracle_gap > ind.ORACLE_GAP_BOUND)


def _summary_failures(payload, samples: int, dim: int) -> tuple[int, list]:
    """Failed reports in a ``verify --format json`` payload, and why."""
    problems = []
    if payload.get("samples") != samples or payload.get("dim") != dim:
        problems.append("wrong samples or dim")
    for key in ("max_residual_H", "max_residual_trace", "max_residual_umbilic"):
        if not payload.get(key, math.inf) <= TOL:
            problems.append(f"{key} above tol")
    if not payload.get("max_oracle_gap", math.inf) <= ind.ORACLE_GAP_BOUND:
        problems.append("oracle gap above bound")
    if payload.get("pass") is not True:
        problems.append("pass is not true")
    failures = payload.get("failures")
    if not isinstance(failures, list):
        problems.append("no failures list")
        failures = []
    if failures:
        problems.append(f"{len(failures)} failure records")
    listed = len({f.get("index") for f in failures if isinstance(f, dict)})
    if problems and not listed:
        return samples, problems  # failure not attributable to points
    return listed, problems


class CatalogSweep:
    """Library ``verify_claims`` over 5 families x dims {2,3,4,6} x 200 points."""

    name = "catalog-sweep"

    def __init__(self, seed: int, workdir: Path):
        self.cells = []
        for dim in SWEEP_DIMS:
            cat = catalog(dim, 2024 + seed)
            for family in FAMILIES:
                self.cells.append((cat[family], 9000 + dim + 100 * seed))

    def __len__(self):
        return len(self.cells)

    def _check(self, fund, count, sample_seed) -> Result:
        start = time.perf_counter()
        summary = ind.verify_claims(fund, count=count, seed=sample_seed,
                                    methods=("hyperdual",))
        seconds = time.perf_counter() - start
        reports = summary.reports["hyperdual"]
        failed = sum(_bad_report(r) for r in reports)
        problems = [f"{failed} bad reports"] if failed else []
        if len(reports) != count or summary.passed != (failed == 0):
            problems.append("summary disagrees with its reports")
            failed = count
        blob = ";".join(
            "error" if isinstance(r, Exception) else
            ",".join(float(v).hex() for v in (r.H, r.residual_H, r.residual_trace,
                                              r.residual_umbilic, r.oracle_gap))
            for r in reports)
        return Result(count, failed, _sha(blob), seconds, problems=tuple(problems))

    def warmup(self) -> Result:
        fund, sample_seed = self.cells[-1]
        return self._check(fund, 4, sample_seed)

    def run(self, k: int) -> Result:
        fund, sample_seed = self.cells[k]
        return self._check(fund, SWEEP_POINTS, sample_seed)


class VerifyRanders6:
    """CLI ``verify`` of a dense Randers norm at n=6, 400 samples, JSON output."""

    name = "verify-randers6"
    samples = 400
    dim = 6

    def __init__(self, seed: int, workdir: Path):
        a, b = seeded_randers(self.dim, seed)
        path = workdir / f"randers6-a-seed{seed}.json"
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps({"order": self.dim, "entries": a.ravel().tolist()}))
        tmp.replace(path)
        spec = f"randers:a=@{path.as_posix()},b=" + ",".join(repr(float(v)) for v in b)
        fc.parse_metric_spec(spec, self.dim)
        self.argv = ["verify", "--metric", spec, "--dim", str(self.dim),
                     "--seed", str(seed), "--format", "json"]

    def __len__(self):
        return 1

    def _check(self, samples: int) -> Result:
        code, out, err, seconds = call_cli(self.argv + ["--samples", str(samples)])
        if code != 0:
            failed, problems = samples, [f"exit {code}: {err.strip()[:200]}"]
        else:
            try:
                failed, problems = _summary_failures(json.loads(out), samples, self.dim)
            except (ValueError, TypeError, AttributeError):
                failed, problems = samples, ["malformed JSON report"]
        return Result(samples, failed, _sha(out), seconds, len(out.encode()), tuple(problems))

    def warmup(self) -> Result:
        return self._check(8)

    def run(self, k: int) -> Result:
        return self._check(self.samples)


class VerifyEuclid3Csv:
    """CLI ``verify`` of the Euclidean norm at n=3, 2000 samples, CSV output."""

    name = "verify-euclid3-csv"
    samples = 2000
    dim = 3

    def __init__(self, seed: int, workdir: Path):
        fc.parse_metric_spec("euclidean", self.dim)
        self.argv = ["verify", "--metric", "euclidean", "--dim", str(self.dim),
                     "--seed", str(seed), "--format", "csv"]
        self.header = ("index," + ",".join(f"y_{i + 1}" for i in range(self.dim))
                       + ",F,H,residual_H")

    def __len__(self):
        return 1

    def _bad_row(self, index: int, line: str) -> bool:
        fields = line.split(",")
        if len(fields) != self.dim + 4 or fields[0] != str(index):
            return True
        try:
            values = [float(v) for v in fields[1:]]
        except ValueError:
            return True
        if not all(math.isfinite(v) for v in values):
            return True
        y, f_val, h_val, res_h = values[:self.dim], values[-3], values[-2], values[-1]
        return (abs(math.hypot(*y) - 1.0) > POINT_TOL or abs(f_val - 1.0) > POINT_TOL
                or abs(h_val - 1.0) > TOL or res_h > TOL)

    def _failures(self, samples: int, out: str) -> tuple[int, list]:
        lines = out.split("\n")
        if lines[-1] != "" or lines[0] != self.header or len(lines) != samples + 2:
            return samples, ["wrong header or row count"]
        failed = sum(self._bad_row(i, line) for i, line in enumerate(lines[1:-1]))
        problems = [f"{failed} bad rows"] if failed else []
        if "nan" in out.lower():
            problems.append("nan in output")
            failed = failed or samples
        return failed, problems

    def _check(self, samples: int) -> Result:
        code, out, err, seconds = call_cli(self.argv + ["--samples", str(samples)])
        if code != 0:
            failed, problems = samples, [f"exit {code}: {err.strip()[:200]}"]
        else:
            failed, problems = self._failures(samples, out)
        return Result(samples, failed, _sha(out), seconds, len(out.encode()), tuple(problems))

    def warmup(self) -> Result:
        return self._check(16)

    def run(self, k: int) -> Result:
        return self._check(self.samples)


def _norm_value(family: str, params: dict, x: np.ndarray) -> float:
    """F(x) computed by the benchmark, independently of the package."""
    if family == "euclidean":
        return float(np.linalg.norm(x))
    if family == "quadratic":
        return float(np.sqrt(params["A"] @ (x * x)))
    if family == "randers":
        return float(np.sqrt(params["a"] @ (x * x)) + params["b"] @ x)
    p = params["p"]
    return float(np.sum(x ** p) ** (1.0 / p))


def _fmt(values) -> str:
    return ",".join(repr(float(v)) for v in values)


class PointQueries:
    """Sequential single-point ``curvature`` calls over seeded specs and points."""

    name = "point-queries"
    pool = 1000       # one cycle: at least ten queries lie beyond the p99
    # min |x_i| / ||x||. This is the band the package's own sampler keeps
    # (SAMPLING_MARGIN_FACTOR x DEFAULT_GUARD_MARGIN). Closer to the
    # coordinate hyperplanes, but still inside the guard, the formula-oracle
    # gap of pnorm/mroot exceeds ORACLE_GAP_BOUND and the query exits 1.
    clearance = 0.15

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng([seed, 0x51])
        self.queries = [self._query(rng, i) for i in range(self.pool)]

    def _query(self, rng, index: int):
        # Every (family, dimension) pair is equally frequent in the pool, so
        # the cost of a cycle does not depend on the seed.
        family = FAMILIES[index % len(FAMILIES)]
        d = 2 + (index // len(FAMILIES)) % 5
        params = {}
        if family == "euclidean":
            spec = "euclidean"
        elif family == "quadratic":
            params["A"] = rng.uniform(0.5, 2.0, d)
            spec = "quadratic:A=" + _fmt(params["A"])
        elif family == "randers":
            params["a"] = a = rng.uniform(0.5, 2.0, d)
            b0 = rng.standard_normal(d)
            params["b"] = b0 * np.sqrt(rng.uniform(0.1, 0.9) / (b0 @ (b0 / a)))
            spec = "randers:a=" + _fmt(a) + ",b=" + _fmt(params["b"])
        elif family == "pnorm":
            params["p"] = 4
            spec = "pnorm:p=4"
        else:
            params["p"] = 6
            spec = "mroot:m=6"
        while True:
            x = rng.standard_normal(d) * rng.uniform(0.5, 2.0)
            if (np.min(np.abs(x)) >= self.clearance * np.linalg.norm(x)
                    and abs(_norm_value(family, params, x) - 1.0) > 1e-6):
                break
        argv = ["curvature", "--metric", spec, "--dim", str(d),
                f"--point={_fmt(x)}", "--format", "json"]
        return argv, family, params, x

    def __len__(self):
        return len(self.queries)

    def _problems(self, out: str, family: str, params: dict, x: np.ndarray) -> list:
        try:
            p = json.loads(out)
            y = np.asarray(p["point"], dtype=float)
            residuals = (p["residual_H"], p["residual_trace"], p["residual_umbilic"])
            gap, h_val, normalized, ok = p["oracle_gap"], p["H"], p["normalized"], p["pass"]
        except (ValueError, KeyError, TypeError):
            return ["malformed JSON report"]
        problems = []
        if ok is not True:
            problems.append("pass is not true")
        if not all(r <= TOL for r in residuals) or not abs(h_val - 1.0) <= TOL:
            problems.append("residual above tol")
        if not gap <= ind.ORACLE_GAP_BOUND:
            problems.append("oracle gap above bound")
        if y.shape != x.shape or normalized is not True:
            problems.append("point not normalized onto the indicatrix")
        elif not (abs(_norm_value(family, params, y) - 1.0) <= POINT_TOL
                  and np.max(np.abs(y * _norm_value(family, params, x) - x))
                  <= POINT_TOL * np.max(np.abs(x))):
            problems.append("reported point is not x / F(x)")
        return problems

    def _check(self, k: int) -> Result:
        argv, family, params, x = self.queries[k]
        code, out, err, seconds = call_cli(argv)
        if code != 0:
            problems = [f"exit {code}: {err.strip()[:200]}"]
        else:
            problems = self._problems(out, family, params, x)
        return Result(1, int(bool(problems)), _sha(out), seconds, len(out.encode()),
                      tuple(f"query {k}: {m}" for m in problems))

    def warmup(self) -> Result:
        return self._check(0)

    def run(self, k: int) -> Result:
        return self._check(k)


WORKLOADS = {w.name: w for w in (CatalogSweep, VerifyRanders6, VerifyEuclid3Csv, PointQueries)}
