"""The mutation census's committed survivor list against the current sources (no mutant runs)."""

import pytest

import mutation_census as census


def test_listed_survivors_name_current_sites():
    # each listed id is a site of the census, and the line it names still holds the source
    # it was triaged on: an edit that moves or changes the line needs a new triage
    assert census.stale_survivors(census.census(), census.listed_survivors()) == []


FIRST = census.census()[0]


@pytest.mark.parametrize("line, message", [
    (f"{FIRST.module}:9999 {FIRST.label}: `x` no such line",
     f"listed survivor names no site: {FIRST.module}:9999 {FIRST.label}"),
    (f"{FIRST.id}: `x` its source changed",
     f"listed survivor's line is now `{census._source_line(FIRST).strip()}`, "
     f"triage it again: {FIRST.id}"),
])
def test_list_exits_one_on_a_stale_survivor(tmp_path, monkeypatch, capsys, line, message):
    survivors = tmp_path / "survivors.txt"
    current = f"{FIRST.id}: `{census._source_line(FIRST).strip()}` a current line"
    monkeypatch.setattr(census, "SURVIVORS", survivors)
    survivors.write_text(f"{current}\n", encoding="utf-8")
    assert census.main(["--list"]) == 0
    survivors.write_text(f"{current}\n{line}\n", encoding="utf-8")
    capsys.readouterr()
    assert census.main(["--list"]) == 1
    assert capsys.readouterr().err.splitlines() == [message]
