"""The golden per-page behaviour lock over the synthetic corpus.

    python -m repro.evalkit.golden --write golden-corpus.json [--jobs N] [--limit N]
    python -m repro.evalkit.golden --check golden-corpus.json [--jobs N] [--limit N]

Per engine the lock records:

- ``wrapper`` — the SHA-256 of the induced wrapper's sorted-key
  :func:`~repro.core.serialize.engine_to_obj` JSON;
- ``rows`` — the engine's :class:`~repro.evalkit.metrics.EvalRows`
  counters, the numbers Tables 1-3 aggregate;
- ``pages`` — for each of the engine's ten pages, the SHA-256 of the
  served extraction document and of the served health document
  (:meth:`repro.perf.serve.CompiledWrapper.serve`).

Floats are rounded to :data:`FLOAT_DECIMALS` places before hashing, so
the lock holds on every Python version CI runs.

Every page is also extracted with :meth:`EngineWrapper.extract
<repro.core.wrapper.EngineWrapper.extract>`, which must equal the served
extraction.  ``--check`` recomputes the lock, lists every engine and
page that moved, and exits 1 when anything did.  ``--limit N`` covers
the first N engines only; ``--jobs N`` spreads engines over N worker
processes (the records do not depend on it).
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import multiprocessing
import sys
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.mse import MSE
from repro.core.serialize import engine_to_obj
from repro.evalkit.harness import evaluate_extractor
from repro.testbed.corpus import engine_ids, load_engine_pages

#: one engine's lock entry, as stored in the golden file
EngineRecord = Dict[str, Any]


#: decimals floats keep before hashing.  Python 3.12's compensated
#: float ``sum()`` moves the last bits of health averages (~1e-16)
#: between interpreter versions; a behaviour change moves far more.
FLOAT_DECIMALS = 9


def _canonical(obj: Any) -> Any:
    if isinstance(obj, float):
        return round(obj, FLOAT_DECIMALS)
    if isinstance(obj, dict):
        return {key: _canonical(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_canonical(value) for value in obj]
    return obj


def _digest(obj: Any) -> str:
    text = json.dumps(_canonical(obj), sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def engine_record(engine_id: int) -> Tuple[EngineRecord, List[int]]:
    """Induce, serve and grade one engine.

    Returns the engine's lock entry and the indexes of the pages whose
    ``EngineWrapper.extract`` result differs from the served extraction.
    """
    # Imported here: repro.perf.serve imports back into repro.core.
    from repro.perf.serve import CompiledWrapper

    engine_pages = load_engine_pages(engine_id)
    wrapper = MSE().build_wrapper(engine_pages.sample_set)
    compiled = CompiledWrapper(wrapper)
    pages: List[Dict[str, str]] = []
    split: List[int] = []

    def served_extraction(markup: str, query: str) -> Any:
        served = compiled.serve(markup, query)
        if wrapper.extract(markup, query) != served.extraction:
            split.append(len(pages))
        pages.append(
            {
                "extraction": _digest(dataclasses.asdict(served.extraction)),
                "health": _digest(served.health.to_obj()),
            }
        )
        return served.extraction

    rows = evaluate_extractor(engine_pages, served_extraction).rows
    record = {
        "wrapper": _digest(engine_to_obj(wrapper)),
        "rows": dataclasses.asdict(rows),
        "pages": pages,
    }
    return record, split


def collect(
    ids: Sequence[int], jobs: int = 1
) -> Tuple[Dict[str, EngineRecord], List[str]]:
    """Lock entries for ``ids`` plus the extract-vs-serve disagreements."""
    if jobs > 1 and len(ids) > 1:
        with multiprocessing.Pool(processes=min(jobs, len(ids))) as pool:
            results = pool.map(engine_record, ids, chunksize=1)
    else:
        results = [engine_record(engine_id) for engine_id in ids]
    records: Dict[str, EngineRecord] = {}
    problems: List[str] = []
    for engine_id, (record, split) in zip(ids, results):
        records[str(engine_id)] = record
        problems.extend(
            f"engine {engine_id} page {page}: EngineWrapper.extract differs "
            "from the served extraction"
            for page in split
        )
    return records, problems


def compare(
    expected: Dict[str, EngineRecord],
    actual: Dict[str, EngineRecord],
    complete: bool = True,
) -> List[str]:
    """Human-readable list of every engine and page that moved.

    ``complete`` also requires every locked engine to have been
    recomputed (a ``--limit`` run checks a prefix only).
    """
    moved: List[str] = []
    for key in sorted(set(expected) | set(actual), key=int):
        want, got = expected.get(key), actual.get(key)
        if want is None:
            moved.append(f"engine {key}: not in the golden file")
            continue
        if got is None:
            if complete:
                moved.append(f"engine {key}: locked but not recomputed")
            continue
        if want["wrapper"] != got["wrapper"]:
            moved.append(f"engine {key}: wrapper JSON moved")
        if want["rows"] != got["rows"]:
            moved.append(
                f"engine {key}: EvalRows moved: {want['rows']} -> {got['rows']}"
            )
        if len(want["pages"]) != len(got["pages"]):
            moved.append(
                f"engine {key}: {len(want['pages'])} locked pages, "
                f"{len(got['pages'])} served"
            )
        for page, (old, new) in enumerate(zip(want["pages"], got["pages"])):
            for document in ("extraction", "health"):
                if old[document] != new[document]:
                    moved.append(f"engine {key} page {page}: {document} moved")
    return moved


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Write or check the golden per-page behaviour lock."
    )
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--write", action="store_true", help="record the lock")
    mode.add_argument("--check", action="store_true", help="verify the lock")
    parser.add_argument("file", help="the golden JSON file")
    parser.add_argument(
        "--jobs", type=int, default=1, help="worker processes (engines)"
    )
    parser.add_argument(
        "--limit", type=int, default=None, help="only the first N engines"
    )
    args = parser.parse_args(argv)

    ids = engine_ids("all")
    if args.limit is not None:
        ids = ids[: args.limit]
    records, problems = collect(ids, jobs=args.jobs)

    if args.write:
        for problem in problems:
            print(problem, file=sys.stderr)
        if problems:
            return 1
        with open(args.file, "w", encoding="utf-8") as handle:
            json.dump({"engines": records}, handle, indent=1, sort_keys=True)
            handle.write("\n")
        pages = sum(len(record["pages"]) for record in records.values())
        print(f"locked {len(records)} engines, {pages} pages in {args.file}")
        return 0

    with open(args.file, encoding="utf-8") as handle:
        expected = json.load(handle)["engines"]
    moved = problems + compare(expected, records, complete=args.limit is None)
    for line in moved:
        print(line)
    if moved:
        print(f"golden check FAILED: {len(moved)} differences", file=sys.stderr)
        return 1
    pages = sum(len(record["pages"]) for record in records.values())
    print(f"golden check ok: {len(records)} engines, {pages} pages")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
