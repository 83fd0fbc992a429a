"""The golden corpus: every recorded CLI command replays to its exit code, stdout and stderr.

The demos replay in test_demos.py. golden_corpus.py regenerates the corpus and
states the two replay modes; each assertion message names the mode it ran in.
"""

import pytest

import golden_corpus as golden

MODE = golden.replay_mode()


def test_corpus_holds_every_case():
    names = {path.stem for path in golden.GOLDEN.glob("*.json")} - {golden.PROVENANCE.stem}
    assert names == set(golden.CLI_CASES) | set(golden.DEMO_CASES)


@pytest.mark.parametrize("name", list(golden.CLI_CASES))
def test_replay(name):
    case = golden.load(name)
    assert case["argv"] == golden.CLI + golden.CLI_CASES[name]
    golden.check(case, *golden.run_cli_in_process(case["argv"]), MODE)


@pytest.mark.parametrize("got, same", [
    ("H = 1.0000000001 PASS n=3", True),      # within RTOL
    ("H = 1.0 PASS n=3 ", False),             # a byte outside a number
    ("H = 1.0 FAIL n=3", False),              # a verdict
    ("H = 1.0 PASS n=4", False),              # a count
    ("H = 1.001 PASS n=3", False),            # beyond RTOL
    ("H = 1.0 PASS n=3 1", False),            # one more number
])
def test_tolerant_rule(got, same):
    case = {"exit": 0, "stdout": ["H = 1.0 PASS n=3"], "stderr": [""]}
    if same:
        golden.check(case, 0, got, "", "tolerant")
    else:
        with pytest.raises(AssertionError, match="^tolerant replay: stdout"):
            golden.check(case, 0, got, "", "tolerant")


def test_tolerant_floor_covers_residuals():
    case = {"exit": 1, "stdout": ["gap 2.0e-5, nan, -inf"], "stderr": [""]}
    golden.check(case, 1, "gap 9.0e-5, nan, -inf", "", "tolerant")
    with pytest.raises(AssertionError, match="^tolerant replay: stdout number 2.0e-3"):
        golden.check(case, 1, "gap 2.0e-3, nan, -inf", "", "tolerant")
    with pytest.raises(AssertionError, match="^tolerant replay: exit 0, golden 1"):
        golden.check(case, 0, "gap 2.0e-5, nan, -inf", "", "tolerant")
