"""Tests of the benchmark itself, on shrunken inputs.

Run with ``python3 -m pytest perfbench`` from the repository root.
"""

from __future__ import annotations

import sys
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import pytest  # noqa: E402

from repro.core.model import PageExtraction  # noqa: E402
from repro.perf.server import Server  # noqa: E402

from perfbench import run as run_module  # noqa: E402
from perfbench import workloads  # noqa: E402
from perfbench.inputs import HOSTILE_KINDS, page_stream  # noqa: E402
from perfbench.workloads import WORKLOADS, Run, Sizes  # noqa: E402

SMALL = Sizes(
    stream_pages=200,
    pool_pages=224,
    batch_pages=16,
    engines=6,
    drift_engines=2,
    drift_total_pages=18,
    setup_reps=2,
)

CATALOGUE = run_module.load_catalogue(ROOT)


def _small_run(seed: int = 3) -> Run:
    return Run(root=ROOT, seed=seed, seconds=0.01, sizes=SMALL)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_small_run_reports_every_metric(name: str, trace: bool) -> None:
    outcome = WORKLOADS[name](_small_run(), trace)
    mismatches = list(outcome.mismatches)
    result = run_module.result_line(
        CATALOGUE, trace, outcome.attempted, outcome.failed, outcome.metrics, mismatches
    )
    assert mismatches == []
    assert result["correct"] is True
    assert result["attempted"] >= 1
    declared = CATALOGUE["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [entry["name"] for entry in declared]
    if not trace:
        assert all(item["value"] > 0 for item in result["metrics"].values())
        for key in ("env", "inputs_digest", "outputs_digest", "failed_share"):
            assert key in outcome.info


def test_catalogue_names_every_workload() -> None:
    names = sorted(entry["name"] for entry in CATALOGUE["workloads"])
    assert names == sorted(WORKLOADS)


def test_streams_are_seeded_and_carry_the_hostile_slice() -> None:
    ids = [0, 40, 90]
    first = page_stream(7, 800, ids)
    assert first == page_stream(7, 800, ids)
    assert first != page_stream(8, 800, ids)
    assert [page.hostile for page in first if page.hostile] == list(HOSTILE_KINDS)


def test_hostile_deep_page_fails_in_serve_stream() -> None:
    outcome = WORKLOADS["serve_stream"](_small_run(), False)
    assert outcome.info["failures"] == {"deep_nesting": 1}
    assert outcome.failed == outcome.info["passes"]


def test_corrupted_pool_output_fails_the_check(monkeypatch: pytest.MonkeyPatch) -> None:
    real_serve = Server.serve

    def corrupting_serve(self, pages, wrapper_of=None):  # type: ignore[no-untyped-def]
        rows = real_serve(self, pages, wrapper_of)
        served = rows[0][0]
        rows[0][0] = replace(served, extraction=PageExtraction(sections=()))
        return rows

    monkeypatch.setattr(Server, "serve", corrupting_serve)
    outcome = WORKLOADS["pool_serve"](_small_run(), False)
    assert any("differs from in-process" in text for text in outcome.mismatches)


def test_corrupted_layer_split_fails_and_exits_nonzero(
    monkeypatch: pytest.MonkeyPatch, capsys: pytest.CaptureFixture[str]
) -> None:
    real_split = workloads.traced_serve

    def corrupting_split(obs, compiled, markup, query):  # type: ignore[no-untyped-def]
        served, counts = real_split(obs, compiled, markup, query)
        return replace(served, extraction=PageExtraction(sections=())), counts

    monkeypatch.setattr(workloads, "traced_serve", corrupting_split)
    code = run_module.main(
        "--workload serve_stream --seed 3 --seconds 0.01 --trace 1".split(),
        sizes=SMALL,
    )
    assert code == 1
    assert '"correct": false' in capsys.readouterr().out.splitlines()[-1]
