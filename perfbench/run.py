"""Run one benchmark workload and print its result.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload serve_stream --seed 1 --seconds 10 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: every end-to-end
metric of ``BENCHMARK.json`` with ``--trace 0``, every per-layer metric
with ``--trace 1`` (a layer the workload never runs reports 0).  The line
before it carries the environment block, the input and output digests
and the failure breakdown.  The exit code is 1 when an output check
fails and 2 when the program's source is not beside the benchmark.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

ROOT = Path(__file__).resolve().parent.parent


def load_catalogue(root: Path) -> Dict[str, Any]:
    """``BENCHMARK.json``: the workload names and the metric catalogue."""
    with open(root / "BENCHMARK.json", "r", encoding="utf-8") as handle:
        doc: Dict[str, Any] = json.load(handle)
    return doc


def result_line(
    catalogue: Dict[str, Any],
    trace: bool,
    attempted: int,
    failed: int,
    metrics: Dict[str, float],
    mismatches: List[str],
) -> Dict[str, Any]:
    """The final result object, with every metric the mode promises.

    A per-layer metric the workload did not measure is 0; a missing or
    unknown metric is a benchmark bug and fails the output check.
    """
    declared = catalogue["per_layer" if trace else "end_to_end"]
    names = [entry["name"] for entry in declared]
    unknown = sorted(set(metrics) - set(names))
    if unknown:
        mismatches.append(f"metrics not in BENCHMARK.json: {unknown}")
    out: Dict[str, Dict[str, Any]] = {}
    for entry in declared:
        value = metrics.get(entry["name"])
        if value is None:
            if not trace:
                mismatches.append(f"end-to-end metric {entry['name']} not measured")
            value = 0.0
        out[entry["name"]] = {"value": float(value), "unit": entry["unit"]}
    return {
        "correct": not mismatches,
        "attempted": attempted,
        "failed": failed,
        "metrics": out,
    }


def main(argv: Optional[Sequence[str]] = None, sizes: Any = None) -> int:
    """The command line; ``sizes`` shrinks the inputs (the benchmark's tests)."""
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    source = ROOT / "src" / "repro" / "__init__.py"
    if not source.is_file():
        print(f"perfbench: program source {source.relative_to(ROOT)} not found; "
              "run from the root of a full checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.workloads import WORKLOADS, Run, Sizes

    catalogue = load_catalogue(ROOT)
    known = [entry["name"] for entry in catalogue["workloads"]]
    if args.workload not in known or args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {known}")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    outcome = WORKLOADS[args.workload](
        Run(ROOT, args.seed, args.seconds, sizes or Sizes()), bool(args.trace)
    )
    mismatches = list(outcome.mismatches)
    result = result_line(
        catalogue,
        bool(args.trace),
        outcome.attempted,
        outcome.failed,
        outcome.metrics,
        mismatches,
    )
    details = {"workload": args.workload, **outcome.info, "mismatches": mismatches}
    print(json.dumps(details, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
