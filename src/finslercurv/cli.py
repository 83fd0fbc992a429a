"""Command-line front end.

Subcommands:
  verify      sample the indicatrix of a metric and check the
              constant-curvature claims against a tolerance
  curvature   single-point curvature report on the indicatrix
  sample      emit seeded indicatrix points with their curvature
  lemma-test  randomized cross-check of the normal-deflated trace
              against the explicit projection route

Exit codes: 0 all checks passed, 1 a claim check failed, 2 usage, input
or I/O error, including a package error raised outside a per-point
failure record (a point outside the metric's domain, a sampler out of
retries). Output is byte-identical for identical arguments, in every
format.
Points are evaluated chunk_points(n) at a time on one thread (see
indicatrix); a point that fails gets its own failure record and the
rest of the batch goes on.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import dataclass

import numpy as np

from . import indicatrix as ind
from .exceptions import DomainViolation, FinslerError, UsageError
from .metrics import FundamentalFunction, eval_F, parse_metric_spec
from .numkernel import projected_trace, trace_reduction

FORMATS = ("json", "csv", "text")


@dataclass
class RunConfig:
    command: str
    metric_spec: str | None = None
    dim: int | None = None
    samples: int = 100
    seed: int = 42
    tol: float = 1e-8
    method: str = "hyperdual"
    fd_step: float = 1e-5
    output: str | None = None
    fmt: str = "text"
    point: np.ndarray | None = None
    trials: int = 1000
    fund: FundamentalFunction | None = None  # built from metric_spec by parse_args


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _add_common(sub, metric: bool = True):
    if metric:
        sub.add_argument("--metric", required=True, help="metric spec string")
    sub.add_argument("--dim", type=int, default=None, help="ambient dimension")
    sub.add_argument("--seed", type=int, default=42)
    sub.add_argument("--tol", type=float, default=1e-8)
    sub.add_argument("--method", choices=ind.METHODS, default="hyperdual")
    sub.add_argument("--fd-step", type=float, default=1e-5, dest="fd_step")
    sub.add_argument("--output", default=None, help="write the report to a file")
    sub.add_argument("--format", choices=FORMATS, default="text", dest="fmt")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="finslercurv", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    subs = parser.add_subparsers(dest="command", required=True)

    verify = subs.add_parser("verify", help="verify curvature claims on a sample")
    _add_common(verify)
    verify.add_argument("--samples", type=int, default=100)

    curv = subs.add_parser("curvature", help="curvature report at one point")
    _add_common(curv)
    curv.add_argument("--point", required=True, help="comma-separated coordinates")

    sample = subs.add_parser("sample", help="emit seeded indicatrix points")
    _add_common(sample)
    sample.add_argument("--samples", type=int, default=100)

    lemma = subs.add_parser("lemma-test", help="trace-reduction cross-check")
    _add_common(lemma, metric=False)
    lemma.add_argument("--trials", type=int, default=1000)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's one parser, built on first use."""
    return build_parser()


def _join_point_value(argv) -> list:
    """Rewrite ``--point -0.35,0.2`` as ``--point=-0.35,0.2``.

    argparse reads a value that starts with '-' as an option unless it is
    a single plain number, so a coordinate list with a negative first
    entry would otherwise be missing its argument.
    """
    argv = list(argv)
    for i in range(len(argv) - 1):
        if argv[i] == "--point" and argv[i + 1].startswith("-"):
            try:
                [float(v) for v in argv[i + 1].split(",")]
            except ValueError:
                continue
            argv[i:i + 2] = [f"--point={argv[i + 1]}"]
            break
    return argv


def parse_args(argv) -> RunConfig:
    """Parse and validate the command line into a RunConfig."""
    ns = _parser().parse_args(_join_point_value(argv))
    config = RunConfig(command=ns.command)
    config.metric_spec = getattr(ns, "metric", None)
    config.dim = ns.dim
    config.seed = ns.seed
    config.tol = ns.tol
    config.method = ns.method
    config.fd_step = ns.fd_step
    config.output = ns.output
    config.fmt = ns.fmt
    if hasattr(ns, "samples"):
        config.samples = ns.samples
    if hasattr(ns, "trials"):
        config.trials = ns.trials
    if hasattr(ns, "point"):
        try:
            config.point = np.asarray(
                [float(v) for v in ns.point.split(",")], dtype=float)
        except ValueError:
            raise UsageError(f"--point: bad coordinate list {ns.point!r}") from None

    if config.dim is not None and config.dim < 2:
        raise UsageError("--dim must be >= 2")
    if config.samples < 1:
        raise UsageError("--samples must be >= 1")
    if config.trials < 1:
        raise UsageError("--trials must be >= 1")
    if not config.tol > 0.0:
        raise UsageError("--tol must be positive")
    if not 0.0 < config.fd_step <= 1e-2:
        raise UsageError("--fd-step must lie in (0, 1e-2]")

    if config.metric_spec is not None:
        # Validate the metric spec eagerly so bad specs fail with exit 2.
        config.fund = parse_metric_spec(config.metric_spec, config.dim)
        config.dim = config.fund.dim
    elif config.command == "lemma-test":
        if config.dim is None:
            config.dim = 3
    if config.point is not None and config.point.size != config.dim:
        raise UsageError(
            f"--point has {config.point.size} coordinates but dim is {config.dim}")
    return config


def _thread_count() -> int:
    """Threads a run uses: always 1, since points are batched, not threaded.

    Kept for bench/run.py, which records it with each measurement.
    """
    return 1


def _emit(config: RunConfig, text: str) -> None:
    if config.output is None:
        sys.stdout.write(text)
    else:
        with open(config.output, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _fmt17(x: float) -> str:
    return f"{x:.17g}"


def _f_values(fund, points) -> list:
    """F at every point's y, from one stacked evaluation."""
    return eval_F(fund, np.stack([point.y for point in points])).tolist()


def _point_records(points, reports, fund) -> list[dict]:
    """One record per point: index, y, F, then H and residual_H or the error."""
    records = []
    for index, (point, rep, f_val) in enumerate(zip(points, reports, _f_values(fund, points))):
        record = {"index": index, "y": point.y.tolist(), "F": f_val}
        if isinstance(rep, Exception):
            record["error"] = str(rep)
        else:
            record["H"] = rep.H
            record["residual_H"] = rep.residual_H
        records.append(record)
    return records


def _csv_rows(points, reports, fund) -> str:
    """The point records as CSV; a failed point reads nan for H and residual_H."""
    header = "index," + ",".join(f"y_{i + 1}" for i in range(fund.dim)) + ",F,H,residual_H"
    lines = [header]
    for record in _point_records(points, reports, fund):
        values = record["y"] + [record["F"], record.get("H", np.nan),
                                record.get("residual_H", np.nan)]
        lines.append(",".join([str(record["index"])] + [_fmt17(v) for v in values]))
    return "\n".join(lines) + "\n"


def _run_verify(config: RunConfig) -> int:
    fund = config.fund
    summary = ind.verify_claims(
        fund, count=config.samples, seed=config.seed, tol=config.tol,
        methods=(config.method,), fd_step=config.fd_step, label=config.metric_spec)
    stats = summary.stats[config.method]
    if config.fmt == "json":
        payload = {
            "metric": config.metric_spec,
            "dim": summary.dim,
            "samples": summary.count,
            "seed": summary.seed,
            "method": config.method,
            "max_residual_H": stats.max_residual_H,
            "mean_residual_H": stats.mean_residual_H,
            "max_residual_trace": stats.max_residual_trace,
            "max_residual_umbilic": stats.max_residual_umbilic,
            "max_oracle_gap": stats.max_oracle_gap,
            "pass": stats.passed,
            "failures": stats.failures,
        }
        _emit(config, json.dumps(payload, indent=2) + "\n")
    elif config.fmt == "csv":
        _emit(config, _csv_rows(summary.points, summary.reports[config.method], fund))
    else:
        lines = [
            f"metric {config.metric_spec}  dim {summary.dim}  "
            f"samples {summary.count}  seed {summary.seed}  method {config.method}",
            f"max |H - 1|            = {stats.max_residual_H:.3e}",
            f"mean |H - 1|           = {stats.mean_residual_H:.3e}",
            f"max |tr(Hess) - n|     = {stats.max_residual_trace:.3e}",
            f"max |kappa - 1|        = {stats.max_residual_umbilic:.3e}",
            f"max formula-oracle gap = {stats.max_oracle_gap:.3e}",
            f"failures               = {len(stats.failures)}",
            f"result                 = {'PASS' if stats.passed else 'FAIL'} "
            f"(tol {config.tol:g})",
        ]
        _emit(config, "\n".join(lines) + "\n")
    return 0 if stats.passed else 1


def _run_curvature(config: RunConfig) -> int:
    fund = config.fund
    y = config.point
    with np.errstate(over="ignore", invalid="ignore"):  # reported below, point as given
        f_val = eval_F(fund, y)
    if not 0.0 < f_val < np.inf:  # also where a coordinate is not finite
        raise DomainViolation(f"cannot scale point {list(map(float, y))} onto the "
                              f"indicatrix: F = {f_val}")
    normalized = abs(f_val - 1.0) > 1e-10
    if normalized:
        y = y / f_val  # normalize_to_indicatrix, with F already evaluated
    point = ind.indicatrix_point(fund, y)
    rep = ind.adapted_report(fund, point, method=config.method, fd_step=config.fd_step)
    ok = ind._aggregate(config.method, [rep], config.tol).passed
    if config.fmt == "json":
        payload = {
            "metric": config.metric_spec,
            "dim": fund.dim,
            "point": [float(v) for v in y],
            "normalized": normalized,
            "method": config.method,
            "H": rep.H,
            "principal_curvatures": [float(v) for v in rep.principal],
            "residual_H": rep.residual_H,
            "residual_trace": rep.residual_trace,
            "residual_umbilic": rep.residual_umbilic,
            "oracle_gap": rep.oracle_gap,
            "pass": ok,
        }
        _emit(config, json.dumps(payload, indent=2) + "\n")
    elif config.fmt == "csv":
        _emit(config, _csv_rows([point], [rep], fund))
    else:
        kappas = ", ".join(f"{v:.12f}" for v in rep.principal)
        lines = [
            f"metric {config.metric_spec}  point {list(map(float, y))}"
            + ("  (scaled onto the indicatrix)" if normalized else ""),
            f"H = {rep.H:.15f}   principal curvatures: [{kappas}]",
            f"|H - 1| = {rep.residual_H:.3e}   |tr - n| = {rep.residual_trace:.3e}   "
            f"max |kappa - 1| = {rep.residual_umbilic:.3e}",
            f"formula-oracle gap = {rep.oracle_gap:.3e}   "
            f"result = {'PASS' if ok else 'FAIL'}",
        ]
        _emit(config, "\n".join(lines) + "\n")
    return 0 if ok else 1


def _run_sample(config: RunConfig) -> int:
    fund = config.fund
    points = ind.sample_indicatrix(fund, config.samples, config.seed)
    reports = ind.adapted_reports(fund, points, method=config.method,
                                  fd_step=config.fd_step)
    if config.fmt == "json":
        _emit(config, json.dumps(_point_records(points, reports, fund), indent=2) + "\n")
    else:
        # text and csv share the re-ingestible row format
        _emit(config, _csv_rows(points, reports, fund))
    return 0


def _run_lemma_test(config: RunConfig) -> int:
    max_delta = 0.0
    worst = 0
    for trial in range(config.trials):
        rng = np.random.default_rng([config.seed, trial])
        r = rng.standard_normal((config.dim, config.dim))
        a = 0.5 * (r + r.T)
        v = rng.standard_normal(config.dim)
        normal = v / np.linalg.norm(v)
        delta = abs(trace_reduction(a, normal) - projected_trace(a, normal))
        if delta > max_delta:
            max_delta = delta
            worst = trial
    ok = max_delta <= config.tol
    if config.fmt == "json":
        payload = {"trials": config.trials, "dim": config.dim, "seed": config.seed,
                   "max_delta": max_delta, "worst_trial": worst, "pass": ok}
        _emit(config, json.dumps(payload, indent=2) + "\n")
    else:
        _emit(config,
              f"lemma-test dim {config.dim} trials {config.trials} seed {config.seed}: "
              f"max |delta trace| = {max_delta:.3e} -> "
              f"{'PASS' if ok else 'FAIL'} (tol {config.tol:g})\n")
    return 0 if ok else 1


def run(config: RunConfig) -> int:
    """Execute a validated RunConfig; returns the process exit code."""
    handlers = {
        "verify": _run_verify,
        "curvature": _run_curvature,
        "sample": _run_sample,
        "lemma-test": _run_lemma_test,
    }
    try:
        return handlers[config.command](config)
    except OSError as exc:
        raise UsageError(f"i/o error: {exc}") from exc


def main(argv=None) -> int:
    """Run the command line; a package error outside per-point isolation exits 2."""
    try:
        config = parse_args(sys.argv[1:] if argv is None else argv)
        return run(config)
    except FinslerError as exc:
        message = " ".join(str(exc).split())  # one line, even for a wrapped array
        print(f"finslercurv: error: {message}", file=sys.stderr)
        return 2
