"""Command-line front end.

Subcommands:
  verify      sample the indicatrix of a metric and check the
              constant-curvature claims against a tolerance
  curvature   curvature report at the indicatrix point along --point
  sample      emit seeded indicatrix points with their curvature
  lemma-test  randomized cross-check of the normal-deflated trace
              against the explicit projection route

Exit codes: 0 all checks passed, 1 a claim check failed, 2 usage, input
or I/O error, including a package error raised outside a per-point
failure record (a point outside the metric's domain, a dimension its
sampling guard leaves empty), one of indicatrix.POINT_ERRORS at
curvature's one point, and running out of memory. Output is
byte-identical for identical arguments, in every format. Points are
evaluated chunk_points(n) at a time on one thread, in blocks within
autodiff.STACK_FLOATS (see indicatrix); in verify and sample a failing
point gets its own failure record and the rest of the batch goes on.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

import numpy as np

from . import indicatrix as ind
from .autodiff import check_step
from .exceptions import FinslerError, UsageError
from .metrics import eval_F, parse_metric_spec
from .numkernel import projected_trace, trace_reduction

FORMATS = ("json", "csv", "text")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    """Each subcommand takes exactly the options its handler reads, each defined once."""
    options = {
        "--metric": {"required": True, "dest": "metric_spec", "metavar": "METRIC",
                     "help": "metric spec string"},
        "--dim": {"type": int, "default": None, "help": "ambient dimension"},
        "--seed": {"type": int, "default": 42},
        "--tol": {"type": float, "default": 1e-8},
        "--method": {"choices": ind.METHODS, "default": "hyperdual"},
        "--fd-step": {"type": float, "default": 1e-5, "dest": "fd_step"},
        "--output": {"default": None, "help": "write the report to a file"},
        "--format": {"choices": FORMATS, "default": "text", "dest": "fmt"},
        "--samples": {"type": int, "default": 100},
        "--point": {"required": True, "help": "comma-separated coordinates"},
        "--trials": {"type": int, "default": 1000},
    }
    commands = {
        "verify": ("verify curvature claims on a sample", "--metric --dim --seed --tol "
                   "--method --fd-step --output --format --samples"),
        "curvature": ("curvature report at one point", "--metric --dim --tol --method "
                      "--fd-step --output --format --point"),
        "sample": ("emit seeded indicatrix points", "--metric --dim --seed --method "
                   "--fd-step --output --format --samples"),
        "lemma-test": ("trace-reduction cross-check",
                       "--dim --seed --tol --output --format --trials"),
    }
    parser = _Parser(prog="finslercurv", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    subs = parser.add_subparsers(dest="command", required=True)
    for command, (summary, names) in commands.items():
        sub = subs.add_parser(command, help=summary)
        for name in names.split():
            sub.add_argument(name, **options[name])
    subs.choices["lemma-test"].set_defaults(dim=3)
    parser.commands = subs.choices  # each subcommand's own parser, for parse_args
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


def parse_args(argv) -> argparse.Namespace:
    """Parse and validate the command line; the namespace is the run's configuration.

    ``point`` is parsed, and a subcommand with ``--metric`` gains ``fund``. A named subcommand's
    own parser reads its options; the top-level parser only prints help or a subcommand error.
    """
    argv, parser = _join_point_value(argv), _parser()
    sub = parser.commands.get(argv[0]) if argv else None
    args = (parser.parse_args(argv) if sub is None
            else sub.parse_args(argv[1:], argparse.Namespace(command=argv[0])))
    if hasattr(args, "point"):
        try:
            args.point = np.asarray([float(v) for v in args.point.split(",")], dtype=float)
        except ValueError:
            raise UsageError(f"--point: bad coordinate list {args.point!r}") from None

    if args.dim is not None and args.dim < 2:
        raise UsageError("--dim must be >= 2")
    for name, low in (("samples", 1), ("seed", 0), ("trials", 1)):
        if getattr(args, name, low) < low:
            raise UsageError(f"--{name} must be >= {low}")
    if not getattr(args, "tol", 1.0) > 0.0:
        raise UsageError("--tol must be positive")
    if hasattr(args, "fd_step"):
        if not 0.0 < args.fd_step <= 1e-2:
            raise UsageError("--fd-step must lie in (0, 1e-2]")
        try:
            check_step(args.fd_step)
        except ValueError as exc:
            raise UsageError(f"--fd-step: {exc}") from None

    if hasattr(args, "metric_spec"):
        # Validate the metric spec eagerly so bad specs fail with exit 2.
        args.fund = parse_metric_spec(args.metric_spec, args.dim)
        args.dim = args.fund.dim
    if hasattr(args, "point") and args.point.size != args.dim:
        raise UsageError(
            f"--point has {args.point.size} coordinates but dim is {args.dim}")
    return args


def _thread_count() -> int:
    """Threads a run uses: always 1, since points are batched, not threaded.

    Kept for bench/run.py, which records it with each measurement.
    """
    return 1


def _point_records(points, reports, fund) -> list[dict]:
    """One record per point: index, y, F, then H and residual_H or the error."""
    f_values = eval_F(fund, np.stack([point.y for point in points])).tolist()
    return [{"index": index, "y": point.y.tolist(), "F": f_val,
             **({"error": str(rep)} if isinstance(rep, Exception)
                else {"H": rep.H, "residual_H": rep.residual_H})}
            for index, (point, rep, f_val) in enumerate(zip(points, reports, f_values))]


def _records_csv(records, dim: int) -> str:
    """Point records as CSV; a failed point reads nan for H and residual_H."""
    header = "index," + ",".join(f"y_{i + 1}" for i in range(dim)) + ",F,H,residual_H"
    lines = [header]
    for record in records:
        values = record["y"] + [record["F"], record.get("H", np.nan),
                                record.get("residual_H", np.nan)]
        lines.append(",".join([str(record["index"])] + [f"{v:.17g}" for v in values]))
    return "\n".join(lines) + "\n"


# Each handler returns (passed, record, csv, text): the JSON output is the
# record; csv and text are callables, so only the requested format is rendered.

def _run_verify(args):
    summary = ind.verify_claims(
        args.fund, count=args.samples, seed=args.seed, tol=args.tol,
        methods=(args.method,), fd_step=args.fd_step)
    stats = summary.stats[args.method]
    record = {
        "metric": args.metric_spec, "dim": summary.dim, "samples": summary.count,
        "seed": summary.seed, "method": args.method,
        "max_residual_H": stats.max_residual_H,
        "mean_residual_H": stats.mean_residual_H,
        "max_residual_trace": stats.max_residual_trace,
        "max_residual_umbilic": stats.max_residual_umbilic,
        "max_oracle_gap": stats.max_oracle_gap,
        "pass": stats.passed, "failures": stats.failures,
    }

    def text():
        r = record
        return "\n".join([
            f"metric {r['metric']}  dim {r['dim']}  "
            f"samples {r['samples']}  seed {r['seed']}  method {r['method']}",
            f"max |H - 1|            = {r['max_residual_H']:.3e}",
            f"mean |H - 1|           = {r['mean_residual_H']:.3e}",
            f"max |tr(Hess) - n|     = {r['max_residual_trace']:.3e}",
            f"max |kappa - 1|        = {r['max_residual_umbilic']:.3e}",
            f"max formula-oracle gap = {r['max_oracle_gap']:.3e}",
            f"failures               = {len(r['failures'])}",
            f"result                 = {'PASS' if r['pass'] else 'FAIL'} (tol {args.tol:g})",
        ]) + "\n"

    def csv():
        return _records_csv(_point_records(summary.points, summary.reports[args.method],
                                           args.fund), args.dim)

    return stats.passed, record, csv, text


def _run_curvature(args):
    """verify's pipeline and verdict on a one-point chunk; a point error exits 2."""
    fund = args.fund
    chunk = ind._indicatrix_points(fund, args.point[None])
    try:
        reports, columns = ind._chunk_reports(fund, chunk, args.method, args.fd_step)
    except ind.POINT_ERRORS as exc:  # verify's isolation set, reported as main reports
        raise FinslerError(str(exc) or type(exc).__name__) from exc
    (point,), (rep,) = chunk.points, reports
    ok = ind._statistics(args.method, reports, columns, args.tol).passed
    record = {
        "metric": args.metric_spec, "dim": fund.dim, "point": point.y.tolist(),
        "normalized": not np.array_equal(point.y, args.point), "method": args.method,
        "H": rep.H, "principal_curvatures": [float(v) for v in rep.principal],
        "residual_H": rep.residual_H, "residual_trace": rep.residual_trace,
        "residual_umbilic": rep.residual_umbilic, "oracle_gap": rep.oracle_gap,
        "pass": ok,
    }

    def text():
        r = record
        kappas = ", ".join(f"{v:.12f}" for v in r["principal_curvatures"])
        return "\n".join([
            f"metric {r['metric']}  point {r['point']}"
            + ("  (scaled onto the indicatrix)" if r["normalized"] else ""),
            f"H = {r['H']:.15f}   principal curvatures: [{kappas}]",
            f"|H - 1| = {r['residual_H']:.3e}   |tr - n| = {r['residual_trace']:.3e}   "
            f"max |kappa - 1| = {r['residual_umbilic']:.3e}",
            f"formula-oracle gap = {r['oracle_gap']:.3e}   "
            f"result = {'PASS' if r['pass'] else 'FAIL'}",
        ]) + "\n"

    def csv():
        return _records_csv(_point_records(chunk.points, reports, fund), fund.dim)

    return ok, record, csv, text


def _run_sample(args):
    summary = ind.verify_claims(  # verify's pipeline, so its CSV is verify's; no verdict
        args.fund, count=args.samples, seed=args.seed,
        methods=(args.method,), fd_step=args.fd_step)
    records = _point_records(summary.points, summary.reports[args.method], args.fund)

    def csv():  # also the text format: the re-ingestible row format
        return _records_csv(records, args.dim)

    return True, records, csv, csv


def _run_lemma_test(args):
    max_delta = 0.0
    worst = 0
    for trial in range(args.trials):
        rng = np.random.default_rng([args.seed, trial])
        r = rng.standard_normal((args.dim, args.dim))
        a = 0.5 * (r + r.T)
        v = rng.standard_normal(args.dim)
        normal = v / np.linalg.norm(v)
        delta = abs(trace_reduction(a, normal) - projected_trace(a, normal))
        if delta > max_delta:
            max_delta = delta
            worst = trial
    ok = max_delta <= args.tol
    record = {"trials": args.trials, "dim": args.dim, "seed": args.seed,
              "max_delta": max_delta, "worst_trial": worst, "pass": ok}

    def text():  # also the csv format
        return (f"lemma-test dim {args.dim} trials {args.trials} seed {args.seed}: "
                f"max |delta trace| = {max_delta:.3e} -> "
                f"{'PASS' if ok else 'FAIL'} (tol {args.tol:g})\n")

    return ok, record, text, text


def run(args: argparse.Namespace) -> int:
    """Execute a validated command line and write its report; returns the exit code."""
    handlers = {
        "verify": _run_verify,
        "curvature": _run_curvature,
        "sample": _run_sample,
        "lemma-test": _run_lemma_test,
    }
    passed, record, csv, text = handlers[args.command](args)
    render = {"csv": csv, "text": text}.get(args.fmt)
    report = render() if render else json.dumps(record, indent=2) + "\n"
    try:
        if args.output is None:
            sys.stdout.write(report)
        else:
            with open(args.output, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(report)
    except OSError as exc:
        raise UsageError(f"i/o error: {exc}") from exc
    return 0 if passed else 1


def main(argv=None) -> int:
    """Run the command line; a MemoryError or an unisolated package error exits 2."""
    try:
        return run(parse_args(sys.argv[1:] if argv is None else argv))
    except (FinslerError, MemoryError) as exc:
        # one line, even for a wrapped array; a bare MemoryError has no message
        message = " ".join(str(exc).split()) or type(exc).__name__
        print(f"finslercurv: error: {message}", file=sys.stderr)
        return 2
