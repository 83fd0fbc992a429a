"""The demo scripts, the README's Python quick start and ``python -m finslercurv`` run cleanly."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def run_python(args):
    # a numpy RuntimeWarning (overflow, invalid value) fails the run, as in the CLI smoke
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONWARNINGS="error::RuntimeWarning")
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)


def test_demos_found():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(demo):
    result = run_python([str(demo)])
    assert result.returncode == 0, result.stderr
    assert result.stderr == ""
    assert result.stdout


def test_readme_quick_start_passes():
    blocks = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    assert len(blocks) == 1
    result = run_python(["-c", blocks[0]])
    assert result.returncode == 0, result.stderr
    assert result.stderr == ""
    assert result.stdout.split()[0] == "True"


def test_module_entry_point():
    result = run_python(["-m", "finslercurv", "lemma-test", "--trials", "10"])
    assert result.returncode == 0, result.stderr
    assert result.stderr == ""
    assert result.stdout.startswith("lemma-test dim 3 trials 10 seed 42: ")
