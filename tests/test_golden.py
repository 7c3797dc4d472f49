"""The golden per-page lock: a corpus slice must match the committed file."""

import copy
import json
import pathlib

import pytest

from repro.evalkit.golden import collect, compare, main

GOLDEN = pathlib.Path(__file__).resolve().parents[1] / "golden-corpus.json"
SLICE = 12


@pytest.fixture(scope="module")
def locked():
    with open(GOLDEN, encoding="utf-8") as handle:
        return json.load(handle)["engines"]


@pytest.fixture(scope="module")
def recomputed():
    return collect(list(range(SLICE)))


def test_lock_covers_the_whole_corpus(locked):
    assert sorted(map(int, locked)) == list(range(119))
    assert all(len(record["pages"]) == 10 for record in locked.values())


def test_slice_matches_the_lock(locked, recomputed):
    records, problems = recomputed
    assert problems == []
    assert compare(locked, records, complete=False) == []


def test_moved_engines_and_pages_are_named(locked, recomputed):
    records = copy.deepcopy(recomputed[0])
    records["3"]["pages"][7]["health"] = "0" * 64
    records["5"]["rows"]["test_sections"]["perfect"] += 1
    records["9"]["wrapper"] = "f" * 64
    moved = compare(locked, records, complete=False)
    assert moved[0] == "engine 3 page 7: health moved"
    assert moved[1].startswith("engine 5: EvalRows moved")
    assert moved[2] == "engine 9: wrapper JSON moved"
    assert len(moved) == 3
    # Without the prefix allowance every unrecomputed engine is named.
    assert len(compare(locked, records)) == 3 + 119 - SLICE


def test_cli_check_exit_codes(tmp_path, locked, capsys):
    assert main(["--check", str(GOLDEN), "--limit", "2"]) == 0
    doctored = copy.deepcopy(locked)
    doctored["1"]["pages"][0]["extraction"] = "0" * 64
    path = tmp_path / "golden.json"
    path.write_text(json.dumps({"engines": doctored}), encoding="utf-8")
    assert main(["--check", str(path), "--limit", "2"]) == 1
    assert "engine 1 page 0: extraction moved" in capsys.readouterr().out
