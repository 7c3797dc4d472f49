"""Measurement helpers: percentiles, memory, quality, span reduction."""

from __future__ import annotations

import dataclasses
import json
import math
import os
import platform
import resource
from typing import Any, Dict, Optional, Sequence

from repro.evalkit import RecordCounts, SectionCounts, grade_page
from repro.obs import Observer
from repro.perf.kernels import kernel_cache_stats
from repro.perf.serve import ServedPage
from repro.core.model import PageExtraction
from repro.testbed import PageTruth

#: the per-layer self-time spans the traced runs open, by metric stem
PAGE_LAYERS = (
    "htmlmod.parse",
    "render.layout",
    "dse.clean",
    "serve.index",
    "serve.apply",
    "verify.health",
)
PIPELINE_STAGES = (
    "render",
    "mre",
    "dse",
    "refine",
    "mine",
    "granularity",
    "grouping",
    "wrapper",
    "families",
)
_MEMOS = ("tree_memo", "forest_memo", "record_memo", "dinr_memo")


def percentile(samples: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile; ``math.inf`` samples sort last."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(fraction * len(ordered)))
    return ordered[rank - 1]


def latency_ms(samples: Sequence[float], fraction: float, cap: float) -> float:
    """A latency percentile in ms.

    Failed operations are recorded as ``math.inf`` (beyond any limit);
    when the percentile lands on one, ``cap`` seconds (the whole timed
    phase, longer than any single operation) is reported instead.
    """
    value = percentile(samples, fraction)
    return 1000.0 * (cap if math.isinf(value) else value)


def vm_hwm_mb(pid: Optional[int] = None) -> float:
    """Peak resident set (VmHWM) of a process, in MB."""
    status = f"/proc/{pid or 'self'}/status"
    try:
        with open(status, "r", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    if pid is None:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return 0.0


def effective_workers() -> int:
    """CPUs this process may run on (the pool's ``jobs``)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def environment(seed: int, workers: int, prep_s: float) -> Dict[str, Any]:
    """The environment block every result carries."""
    return {
        "cpu_count": os.cpu_count(),
        "effective_workers": effective_workers(),
        "workers_used": workers,
        "python": platform.python_version(),
        "seed": seed,
        "prep_s": round(prep_s, 3),
    }


def served_doc(served: ServedPage) -> str:
    """Canonical JSON of one served page: extraction plus health."""
    return json.dumps(
        {
            "extraction": dataclasses.asdict(served.extraction),
            "health": served.health.to_obj(),
        },
        sort_keys=True,
    )


class Quality:
    """Table 1 "perfect" and Table 3 counters over graded pages."""

    def __init__(self) -> None:
        self.sections = SectionCounts()
        self.records = RecordCounts()

    def grade(self, extraction: PageExtraction, truth: PageTruth) -> None:
        grade = grade_page(extraction, truth)
        self.sections.add_grade(grade, len(truth.sections))
        self.records.add_grade(grade)

    def metrics(self) -> Dict[str, float]:
        return {
            "section_recall": self.sections.recall_perfect,
            "section_precision": self.sections.precision_perfect,
            "record_recall": self.records.recall,
            "record_precision": self.records.precision,
        }


def self_ms(obs: Observer, units: int) -> Dict[str, float]:
    """Per-span-name self time in ms per unit (page or engine).

    A span's self time is its duration minus its children's; spans of
    one name under different parents add up.
    """
    totals: Dict[str, float] = {}
    for node in obs.spans():
        own = node.seconds - sum(child.seconds for child in node.children.values())
        totals[node.name] = totals.get(node.name, 0.0) + own
    return {name: 1000.0 * seconds / max(1, units) for name, seconds in totals.items()}


def kernel_metrics(
    stats: Sequence[Dict[str, Dict[str, float]]] = (),
) -> Dict[str, float]:
    """``kernels.*`` metrics, averaged over processes' ``kernel_cache_stats()``.

    With no stats given, this process's own.
    """
    if not stats:
        stats = [kernel_cache_stats()]
    out: Dict[str, float] = {}
    for memo in _MEMOS:
        rates = [doc[memo]["hit_rate"] for doc in stats]
        out[f"kernels.{memo.split('_')[0]}_hit_rate"] = sum(rates) / len(rates)
    entries = [sum(doc[memo]["entries"] for memo in _MEMOS) for doc in stats]
    out["kernels.memo_entries"] = sum(entries) / len(entries)
    return out


def dir_usage(path: str) -> Dict[str, float]:
    """Total bytes and file count under a directory."""
    size = 0
    files = 0
    for folder, _, names in os.walk(path):
        for name in names:
            size += os.path.getsize(os.path.join(folder, name))
            files += 1
    return {"bytes": float(size), "files": float(files)}


def mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0
