"""The demo scripts, the README's Python quick start and ``python -m finslercurv`` run cleanly."""

import re

import pytest

import golden_corpus as golden
from golden_corpus import ROOT, run_python  # a numpy RuntimeWarning fails the run

DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_found():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(demo):
    # exit 0, empty stderr and the golden stdout, under golden_corpus's replay mode
    case = golden.load(f"demo-{demo.stem}")
    result = run_python(case["argv"])
    golden.check(case, result.returncode, result.stdout, result.stderr, golden.replay_mode())


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
