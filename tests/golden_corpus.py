"""The golden output corpus: recorded outputs of the CLI and the demos, and their replay rule.

    python3 tests/golden_corpus.py      # rewrite tests/golden/ from the current sources

Each case is one file ``tests/golden/<name>.json`` holding the argv after
``python3`` (``-m finslercurv ...`` or a demo script), the exit code, and
stdout and stderr as lists of lines (joined by "\\n", they give the streams
back byte for byte). The corpus is written by running every case in a fresh
interpreter from the root of the checkout, with ``PYTHONPATH=src`` and
``PYTHONWARNINGS=error::RuntimeWarning``, so a numpy warning fails the run;
``provenance.json`` records the Python, numpy and platform it ran on.

A replay compares in one of two modes (see ``replay_mode``):
- exact, where numpy and the platform match the provenance: every byte;
- tolerant, elsewhere: the exit code and every non-numeric byte exactly (so
  every verdict, key and count layout), and each number within
  ``|a - b| <= RTOL * max(|a|, |b|) + ATOL``.
"""

from __future__ import annotations

import contextlib
import difflib
import io
import json
import math
import os
import platform
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
PROVENANCE = GOLDEN / "provenance.json"
CLI = ["-m", "finslercurv"]

# Tolerant mode's bound on each number. The relative part covers rounding of O(1)
# values amplified by cond(g) (at most ~1e6 over the corpus) from a different libm,
# BLAS or LAPACK build. The absolute floor covers residual-sized values: under fd a
# residual carries rounding of order c * eps / h^2 ~ 2e-6 * c at the default step
# h = 1e-5, which a one-ulp change in F moves entirely; 1e-4 covers c up to ~50.
RTOL = 1e-6
ATOL = 1e-4

# A decimal number (sign and exponent included) or a non-finite float word.
NUMBER = re.compile(r"([-+]?(?:(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?"
                    r"|\b(?:nan|NaN|inf|Infinity)\b))")

_FORMATTED = {  # one command per subcommand, each in every format
    "verify-euclidean": ["verify", "--metric", "euclidean", "--dim", "3", "--samples", "5"],
    "curvature-pnorm": ["curvature", "--metric", "pnorm:p=4", "--dim", "3",
                        "--point", "1,-2,1.5"],
    "sample-randers": ["sample", "--metric", "randers:a=1,1,b=0.3,0", "--dim", "2",
                       "--samples", "3"],
    "lemma-test": ["lemma-test", "--dim", "3", "--trials", "20"],
}
# one chunk, whose oracle and fd evaluations each run in 3 blocks of <= 128 points
_CHUNKED = ["--metric", "pnorm:p=4", "--dim", "6", "--samples", "300"]
_FUNK = "randers:a=250000249980.27924,500000.24998021673,b=499999.7499799667,0"

CLI_CASES = {
    **{f"{name}-{fmt}": args + ["--format", fmt]
       for name, args in _FORMATTED.items() for fmt in ("json", "csv", "text")},
    "curvature-tiny-point": ["curvature", "--metric", "euclidean", "--dim", "3",
                             "--point", "1e-160,1e-160,1e-160"],
    "curvature-huge-point": ["curvature", "--metric", "pnorm:p=4", "--dim", "3",
                             "--point", "1e200,-2e200,3e200", "--format", "json"],
    "curvature-pnorm16-subnormal-sum": ["curvature", "--metric", "pnorm:p=16", "--dim", "3",
                                        "--point", "1e-20,2e-20,1.5e-20", "--format", "json"],
    "curvature-negative-first": ["curvature", "--metric", "randers:a=1,1,b=0.4,0", "--dim", "2",
                                 "--point", "-0.35,0.2"],
    "curvature-impossible-tol": ["curvature", "--metric", "randers:a=1,1,b=0.4,0", "--dim", "2",
                                 "--point", "0.6,0.8", "--tol", "1e-20", "--format", "json"],
    "verify-pnorm16": ["verify", "--metric", "pnorm:p=16", "--dim", "3", "--samples", "50"],
    "verify-chunked-text": ["verify", *_CHUNKED],
    "sample-chunked-text": ["sample", *_CHUNKED],
    "verify-chunked-csv": ["verify", *_CHUNKED, "--format", "csv"],
    "sample-chunked-csv": ["sample", *_CHUNKED, "--format", "csv"],
    "verify-pnorm-dim24": ["verify", "--metric", "pnorm:p=4", "--dim", "24", "--samples", "20"],
    "verify-mroot-dim16": ["verify", "--metric", "mroot:m=6", "--dim", "16", "--samples", "20"],
    "verify-euclidean-dim64": ["verify", "--metric", "euclidean", "--dim", "64",
                               "--samples", "3"],
    "verify-funk-edge": ["verify", "--metric", _FUNK, "--dim", "2", "--format", "json"],
    "verify-fd-randers": ["verify", "--metric", "randers:a=2,1,1,b=0.3,-0.2,0.1", "--dim", "3",
                          "--samples", "20", "--method", "fd", "--format", "json"],
    "verify-fd-mroot": ["verify", "--metric", "mroot:m=6", "--dim", "4", "--samples", "20",
                        "--method", "fd"],
    "curvature-fd-pnorm": ["curvature", "--metric", "pnorm:p=4", "--dim", "3",
                           "--point", "1,-2,1.5", "--method", "fd", "--format", "json"],
    "error-one-by-one-matrix": ["verify", "--metric", "quadratic:A=2", "--samples", "3"],
    "error-randers-one-by-one": ["curvature", "--metric", "randers:a=2,b=0.1", "--point", "1"],
    "error-verify-negative-seed": ["verify", "--metric", "euclidean", "--dim", "3",
                                   "--samples", "3", "--seed", "-1"],
    "error-lemma-negative-seed": ["lemma-test", "--trials", "3", "--seed", "-1"],
    "error-empty-sampling-cone": ["verify", "--metric", "pnorm:p=4", "--dim", "45",
                                  "--samples", "5"],
    "error-verify-fd-step": ["verify", "--metric", "euclidean", "--dim", "3", "--samples", "2",
                             "--method", "fd", "--fd-step", "1e-300"],
    "error-curvature-fd-step": ["curvature", "--metric", "euclidean", "--dim", "3",
                                "--point", "1,2,3", "--method", "fd", "--fd-step", "1e-300"],
    "error-point-off-guard": ["curvature", "--metric", "pnorm:p=4", "--dim", "3",
                              "--point", "1e300,1e-300,1"],
    "error-point-bad-coordinate": ["curvature", "--metric", "euclidean", "--dim", "2",
                                   "--point", "1,a"],
    "error-point-dash-word": ["curvature", "--metric", "euclidean", "--dim", "2",
                              "--point", "-x,1"],
    "error-spec-value-without-name": ["verify", "--metric", "quadratic:1", "--dim", "2"],
    "error-randers-bad-covector": ["verify", "--metric", "randers:a=1,1,b=x,0", "--dim", "2"],
}
DEMO_CASES = {f"demo-{path.stem}": [str(path.relative_to(ROOT))]
              for path in sorted((ROOT / "demos").glob("*.py"))}


def provenance() -> dict:
    """What the bytes of a run may depend on beyond the sources."""
    import numpy

    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "platform": f"{sys.platform}-{platform.machine()}"}


def replay_mode() -> str:
    """"exact" where numpy and the platform match the corpus's provenance, else "tolerant"."""
    here, recorded = provenance(), json.loads(PROVENANCE.read_text())
    return "exact" if all(here[key] == recorded[key] for key in ("numpy", "platform")) \
        else "tolerant"


def load(name: str) -> dict:
    return json.loads((GOLDEN / f"{name}.json").read_text())


def run_python(args):
    """``python3 args`` from the root of the checkout, as the corpus was recorded."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONWARNINGS="error::RuntimeWarning")
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)


def run_cli_in_process(argv) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of ``python3 -m finslercurv argv[2:]``, run in this process."""
    from finslercurv import cli

    assert argv[:2] == CLI, argv
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv[2:])
    return code, out.getvalue(), err.getvalue()


def _numbers_differ(want: str, got: str) -> str | None:
    """Where ``got`` leaves ``want`` beyond tolerant mode's rule, or None."""
    want_parts, got_parts = NUMBER.split(want), NUMBER.split(got)
    if len(want_parts) != len(got_parts):
        return f"has {len(got_parts) // 2} numbers, golden {len(want_parts) // 2}"
    for index, (a, b) in enumerate(zip(want_parts, got_parts)):
        if index % 2 == 0:
            if a != b:
                return f"text {b!r} where golden has {a!r}"
            continue
        x, y = float(a), float(b)
        if not (x == y or (math.isnan(x) and math.isnan(y))
                or abs(x - y) <= RTOL * max(abs(x), abs(y)) + ATOL):
            return f"number {b} where golden has {a}"
    return None


def check(case: dict, code: int, stdout: str, stderr: str, mode: str) -> None:
    """Assert that a run's exit code and streams match ``case`` under ``mode``."""
    assert code == case["exit"], f"{mode} replay: exit {code}, golden {case['exit']}\n{stderr}"
    for stream, got in (("stdout", stdout), ("stderr", stderr)):
        want = "\n".join(case[stream])
        if mode == "exact":
            if got != want:
                diff = difflib.unified_diff(want.split("\n"), got.split("\n"), "golden",
                                            "replay", lineterm="")
                raise AssertionError(f"exact replay: {stream} differs\n"
                                     + "\n".join(list(diff)[:40]))
        else:
            problem = _numbers_differ(want, got)
            assert problem is None, f"tolerant replay: {stream} {problem}"


def regenerate() -> None:
    """Run every case in a fresh interpreter and rewrite tests/golden/ with the results."""
    GOLDEN.mkdir(exist_ok=True)
    for stale in GOLDEN.glob("*.json"):
        stale.unlink()
    for name, argv in {**{n: CLI + a for n, a in CLI_CASES.items()}, **DEMO_CASES}.items():
        run = run_python(argv)
        case = {"argv": argv, "exit": run.returncode,
                "stdout": run.stdout.split("\n"), "stderr": run.stderr.split("\n")}
        (GOLDEN / f"{name}.json").write_text(json.dumps(case, indent=1) + "\n")
        print(f"{name}: exit {run.returncode}")
    PROVENANCE.write_text(json.dumps(provenance(), indent=1) + "\n")


if __name__ == "__main__":
    regenerate()
