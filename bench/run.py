"""Benchmark for finslercurv: one workload per run, from a seed.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``. With ``--trace 0`` the run measures end-to-end metrics for
about S seconds; with ``--trace 1`` it runs one cycle of the workload
untraced and one traced, and reports per-layer metrics. Every output is
checked. The last line of stdout is the result object; the line before
it holds provenance and check details. Exit status is 0 only when every
check passed. See README.md in this directory for the workloads and
metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# Relative to ROOT, the working directory of every run: the Randers matrix
# path is part of the metric spec, and so of the output being digested.
WORKDIR = Path(".bench_build", "finslercurv-bench")
WORKLOAD_NAMES = ("catalog-sweep", "verify-randers6", "verify-euclid3-csv", "point-queries")
SETUP_PROBES = 5
# Time of one reference unit (see reference_time) at the nominal speed all
# time metrics are scaled to; about its time on the machine this was sized on.
REFERENCE_S = 0.5e-3
REFERENCE_SHARE = 0.05   # reference work run next to a request, as a share of its time

PER_LAYER_SPANS = (
    "cli.main", "cli.build_parser", "cli.parse_args", "cli.run",
    "metrics.parse_metric_spec", "metrics.metric_tensor", "metrics.eval_F",
    "autodiff.grad_hess",
    "numkernel.cholesky", "numkernel.complete_frame", "numkernel.sym_eigenvalues",
    "numkernel.sym_eigensystem", "numkernel.quadratic_form", "numkernel.trace_reduction",
    "hypersurface.evaluate_defining", "hypersurface.unit_normal",
    "hypersurface.mean_curvature_trace", "hypersurface.shape_operator",
    "hypersurface.weingarten_oracle",
    "indicatrix.sample_indicatrix", "indicatrix.indicatrix_point",
    "indicatrix.adapted_field", "indicatrix.adapted_report", "indicatrix.verify_claims",
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def reference_time(work_s: float) -> float:
    """Mean seconds per reference unit, over units worth REFERENCE_SHARE of ``work_s``.

    The host's speed drifts by 10-50% over seconds to minutes, through
    contention that CPU time does not exclude. The unit is fixed code that
    does not depend on the package, a mix of interpreter work and small
    numpy arrays like the package's hot loops, and its time measured next
    to a request tracks the speed that request ran at.
    """
    import numpy as np
    units = max(1, round(REFERENCE_SHARE * work_s / REFERENCE_S))
    a = np.arange(21.0)
    start = time.perf_counter()
    for _ in range(units):
        acc = 0.0
        for i in range(100):
            acc += float((a * 1.5 + i).sum()) + (i * 0.5) ** 2
    return (time.perf_counter() - start) / units


def probe_setup(args) -> None:
    """Child mode: time import + input generation + metric construction."""
    start = time.perf_counter()
    import workloads
    workloads.WORKLOADS[args.workload](args.seed, WORKDIR)
    seconds = time.perf_counter() - start
    print(json.dumps([seconds, reference_time(seconds)]))


def measure_setup(args) -> tuple[list, list]:
    """Raw and speed-scaled set-up seconds of SETUP_PROBES fresh interpreters."""
    raw, scaled = [], []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
             "--workload", args.workload, "--seed", str(args.seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        seconds, ref = json.loads(proc.stdout.strip().splitlines()[-1])
        raw.append(seconds)
        scaled.append(seconds * REFERENCE_S / ref)
    return raw, scaled


def code_hash() -> str:
    """Digest of the package and benchmark sources: identifies 'the same code'."""
    h = hashlib.sha256()
    for path in sorted(list((SRC / "finslercurv").glob("*.py")) + list(HERE.glob("*.py"))):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def provenance(threads: int, load: tuple, code: str) -> dict:
    import numpy
    return {
        "git_commit": git_commit(),
        "code_hash": code,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "os_cpu_count": os.cpu_count(),
        "finsler_threads": threads,
        "cpu_model": cpu_model(),
        "loadavg_start": list(load),
    }


def p99(values) -> float:
    """Nearest-rank 99th percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(0.99 * len(ordered)) - 1)]


class Tally:
    """Checked reports, failures and output digests over a run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.digests = {}

    def add(self, res, key=None) -> None:
        self.attempted += res.reports
        self.failed += res.failed
        self.problems.extend(res.problems)
        if key is None:
            return
        first = self.digests.setdefault(key, res.digest)
        if res.digest != first:
            self.failed += res.reports
            self.problems.append(f"request {key}: output differs from an earlier identical request")

    def run_digest(self) -> str:
        return hashlib.sha256("".join(self.digests[k] for k in sorted(self.digests))
                              .encode()).hexdigest()


def run_cycle(wl, tally) -> list:
    results = []
    for k in range(len(wl)):
        res = wl.run(k)
        tally.add(res, k)
        results.append(res)
    return results


def measure(wl, seconds: float, tally) -> dict:
    """Repeat whole cycles while the next is expected to end within ``seconds``.

    Each request's latency is scaled to the nominal speed by the reference
    time measured just before and just after it. Throughput is all reports
    over the summed scaled latencies; a request's latency is its median over
    the cycles.
    """
    raw, scaled = [[] for _ in range(len(wl))], [[] for _ in range(len(wl))]
    refs, reports = [], 0
    ref_before = reference_time(0.0)
    start = time.perf_counter()
    while True:
        cycle_start = time.perf_counter()
        for k in range(len(wl)):
            res = wl.run(k)
            ref_after = reference_time(res.seconds)
            tally.add(res, k)
            reports += res.reports
            raw[k].append(res.seconds)
            scaled[k].append(res.seconds * 2.0 * REFERENCE_S / (ref_before + ref_after))
            refs.append(ref_after)
            ref_before = ref_after
        cycle_wall = time.perf_counter() - cycle_start
        if time.perf_counter() - start + cycle_wall > seconds:
            break
    return {"rate": reports / sum(map(sum, scaled)), "raw_rate": reports / sum(map(sum, raw)),
            "latencies": [statistics.median(lat) for lat in scaled],
            "raw_latencies": [statistics.median(lat) for lat in raw],
            "cycles": len(raw[0]), "reference_s": statistics.median(refs)}


def check_record(name: str, seed: int, code: str, key: str, value, tally) -> None:
    """Compare ``value`` with what earlier runs of the same code and seed recorded."""
    path = WORKDIR / "records" / code / f"{name}-seed{seed}.json"
    record = json.loads(path.read_text()) if path.exists() else {}
    if key in record and record[key] != value:
        tally.failed += 1
        tally.problems.append(f"{key} differs from an earlier run of the same code and seed")
        return
    record[key] = value
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    tmp.write_text(json.dumps(record, indent=1, sort_keys=True))
    tmp.replace(path)


def end_to_end(args, wl, tally, setup) -> tuple[dict, dict]:
    import workloads
    tally.add(wl.warmup())
    m = measure(wl, args.seconds, tally)
    pass_frac = (tally.attempted - tally.failed) / tally.attempted
    metrics = {
        "points_per_s": (m["rate"], "1/s"),
        "query_ms_p50": (1e3 * statistics.median(m["latencies"]), "ms"),
        "query_ms_p99": (1e3 * p99(m["latencies"]), "ms"),
        "setup_s": (statistics.median(setup[1]), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "pass_frac": (pass_frac, "ratio"),
    }
    detail = {"unscaled": {"points_per_s": m["raw_rate"],
                           "query_ms_p50": 1e3 * statistics.median(m["raw_latencies"]),
                           "query_ms_p99": 1e3 * p99(m["raw_latencies"]),
                           "setup_s": statistics.median(setup[0])},
              "reference_unit_s": m["reference_s"], "distinct_requests": len(m["latencies"]),
              "cycles": m["cycles"], "fail_frac": 1.0 - pass_frac, "tol": workloads.TOL}
    return metrics, detail


def traced(args, wl, tally, code) -> tuple[dict, dict]:
    import finslercurv
    import tracer as tracing
    tally.add(wl.warmup())
    start = time.perf_counter()
    run_cycle(wl, tally)
    plain_wall = time.perf_counter() - start

    tr = tracing.Tracer(finslercurv)
    tr.install()
    try:
        start = time.perf_counter()
        results = [wl.run(k) for k in range(len(wl))]
        traced_wall = time.perf_counter() - start
    finally:
        tr.uninstall()
    for k, res in enumerate(results):
        tally.add(res, k)  # traced output must match the untraced cycle

    counts = tr.count_snapshot()
    check_record(args.workload, args.seed, code, "counts", counts, tally)
    metrics = {}
    for name in PER_LAYER_SPANS:
        metrics[f"{name}.calls"] = (tr.calls.get(name, 0), "count")
        metrics[f"{name}.self_s"] = (tr.self_s.get(name, 0.0), "s")
    for layer in tracing.LAYERS:
        metrics[f"{layer}.self_s"] = (
            sum(t for name, t in tr.self_s.items() if name.startswith(layer + ".")), "s")
    metrics["cli.stdout_bytes"] = (sum(r.stdout_bytes for r in results), "bytes")
    metrics["autodiff.grad_hess.slots"] = (tr.grad_hess_slots, "count")
    metrics["autodiff.fd_grad_hess.calls"] = (tr.calls.get("autodiff.fd_grad_hess", 0), "count")
    metrics["indicatrix.sample.draws"] = (tr.draws, "count")
    metrics["indicatrix.sample.accept_ratio"] = (
        tr.accepted / tr.draws if tr.draws else 1.0, "ratio")
    report_s = tr.total_s.get("indicatrix.adapted_report", 0.0)
    metrics["hypersurface.oracle_share"] = (
        tr.total_s.get("hypersurface.weingarten_oracle", 0.0) / report_s if report_s else 0.0,
        "ratio")
    metrics["trace.overhead_frac"] = ((traced_wall - plain_wall) / plain_wall, "ratio")
    detail = {"untraced_wall_s": plain_wall, "traced_wall_s": traced_wall,
              "spans": {name: {"calls": tr.calls[name], "total_s": tr.total_s[name],
                               "self_s": tr.self_s[name]} for name in sorted(tr.calls)},
              "counts": counts}
    return metrics, detail


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if not (SRC / "finslercurv" / "__init__.py").is_file():
        print(f"bench: no package sources at {SRC / 'finslercurv'}; "
              "run from a finslercurv source checkout", file=sys.stderr)
        return 2
    # FINSLER_THREADS stays at its default (os.cpu_count()), as a user leaves it.
    os.environ.pop("FINSLER_THREADS", None)
    sys.path[:0] = [str(SRC), str(HERE)]
    os.chdir(ROOT)
    WORKDIR.mkdir(parents=True, exist_ok=True)
    if args.probe_setup:
        probe_setup(args)
        return 0

    load = os.getloadavg()
    setup = measure_setup(args) if not args.trace else None
    import finslercurv
    import workloads
    from finslercurv import cli
    if Path(finslercurv.__file__).resolve().parent != (SRC / "finslercurv").resolve():
        print(f"bench: imported finslercurv from {finslercurv.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    code = code_hash()
    wl = workloads.WORKLOADS[args.workload](args.seed, WORKDIR)
    tally = Tally()
    if args.trace:
        metrics, detail = traced(args, wl, tally, code)
    else:
        metrics, detail = end_to_end(args, wl, tally, setup)
    check_record(args.workload, args.seed, code, "stdout_sha256", tally.run_digest(), tally)
    detail.update(workload=args.workload, seed=args.seed, trace=args.trace,
                  stdout_sha256=tally.run_digest(), problems=tally.problems[:50],
                  provenance=provenance(cli._thread_count(), load, code))
    correct = tally.failed == 0 and not tally.problems
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
