"""Micro-benchmarks for the hot distance kernels (repro.perf).

Times each optimised kernel against its naive reference on block
features taken from real corpus pages, checks the scores agree exactly,
and writes per-kernel wall time, speedup and cache hit rates to
``BENCH_kernels.json``.  Comparing these files across commits shows
whether a change moved the kernels themselves, independently of the
stage-level trajectory in ``BENCH_stages.json``.

Set ``REPRO_BENCH_KERNELS`` to override the output path.  Runnable as a
pytest target (``pytest benchmarks/bench_kernels.py``) or directly
(``python benchmarks/bench_kernels.py``).
"""

import json
import os
import time
from itertools import combinations

from repro.algorithms.string_edit import edit_distance, edit_distance_reference
from repro.algorithms.tree_edit import forest_distance
from repro.algorithms.string_edit import normalized_edit_distance
from repro.features.blocks import Block
from repro.features.line_distance import text_attr_distance
from repro.htmlmod.parser import parse_html
from repro.perf import (
    block_fingerprint,
    clear_kernel_caches,
    fast_forest_distance,
    kernel_cache_stats,
    masked_attr_distance,
)
from repro.render.layout import render_page
from repro.render.linetypes import type_distance
from repro.testbed.corpus import load_engine_pages

OUTPUT = os.environ.get("REPRO_BENCH_KERNELS", "BENCH_kernels.json")

#: corpus slice the kernel inputs are drawn from
ENGINES = 4
PAGES_PER_ENGINE = 2
BLOCK_SPAN = 3
#: pairwise workload size (blocks -> blocks*(blocks-1)/2 pairs)
MAX_BLOCKS = 36


def _corpus_blocks():
    """Fixed-span blocks over real rendered corpus pages."""
    blocks = []
    for engine_id in range(ENGINES):
        pages = load_engine_pages(engine_id, pages_per_engine=PAGES_PER_ENGINE)
        for markup in pages.pages:
            page = render_page(parse_html(markup))
            for start in range(0, len(page.lines) - BLOCK_SPAN, BLOCK_SPAN):
                blocks.append(Block(page, start, start + BLOCK_SPAN - 1))
    return blocks[:MAX_BLOCKS]


def _timed(fn, pairs):
    start = time.perf_counter()
    scores = [fn(a, b) for a, b in pairs]
    return time.perf_counter() - start, scores


def _bench_edit_distance(pairs):
    seqs = [(a.type_codes, b.type_codes) for a, b in pairs]
    ref_seconds, ref = _timed(
        lambda s1, s2: edit_distance_reference(s1, s2, substitution_cost=type_distance),
        seqs,
    )
    fast_seconds, fast = _timed(
        lambda s1, s2: edit_distance(s1, s2, substitution_cost=type_distance),
        seqs,
    )
    assert ref == fast, "trimmed edit_distance diverged from reference"
    return ref_seconds, fast_seconds


def _bench_forest(pairs):
    forests = [(a.tag_forest(), b.tag_forest()) for a, b in pairs]
    ref_seconds, ref = _timed(forest_distance, forests)
    clear_kernel_caches()
    fast_seconds, fast = _timed(fast_forest_distance, forests)
    assert ref == fast, "memoized forest distance diverged from reference"
    return ref_seconds, fast_seconds


def _bench_attr_masks(pairs):
    attrs = [(a.text_attrs, b.text_attrs) for a, b in pairs]
    masks = [
        (block_fingerprint(a).attr_masks, block_fingerprint(b).attr_masks)
        for a, b in pairs
    ]
    ref_seconds, ref = _timed(
        lambda t1, t2: normalized_edit_distance(
            t1, t2, substitution_cost=text_attr_distance
        ),
        attrs,
    )
    fast_seconds, fast = _timed(
        lambda m1, m2: normalized_edit_distance(
            m1, m2, substitution_cost=masked_attr_distance
        ),
        masks,
    )
    assert ref == fast, "bitmask Dtal diverged from the frozenset reference"
    return ref_seconds, fast_seconds


def test_kernel_bench_emitted():
    blocks = _corpus_blocks()
    assert len(blocks) >= 8, "corpus slice produced too few blocks"
    pairs = list(combinations(blocks, 2))

    kernels = {}
    for name, (ref_seconds, fast_seconds) in (
        ("edit_distance", _bench_edit_distance(pairs)),
        ("forest_distance", _bench_forest(pairs)),
        ("attr_distance", _bench_attr_masks(pairs)),
    ):
        kernels[name] = {
            "reference_seconds": ref_seconds,
            "fast_seconds": fast_seconds,
            "speedup": ref_seconds / fast_seconds if fast_seconds else 0.0,
        }

    # The memoized tree kernel is where the ISSUE's >=2x target lives; the
    # other kernels only have to not regress (their wins are workload
    # dependent and too small to gate CI on without flakes).
    assert kernels["forest_distance"]["speedup"] >= 2.0, kernels["forest_distance"]

    doc = {
        "format": "repro-bench-kernels",
        "version": 1,
        "workload": {
            "engines": ENGINES,
            "pages_per_engine": PAGES_PER_ENGINE,
            "blocks": len(blocks),
            "pairs": len(pairs),
        },
        "kernels": kernels,
        "caches": kernel_cache_stats(),
    }
    with open(OUTPUT, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, indent=2, sort_keys=True)
    print(f"\nkernel bench written to {OUTPUT}")
    for name, row in kernels.items():
        print(
            f"  {name:<16s} ref {row['reference_seconds'] * 1000:>8.1f}ms  "
            f"fast {row['fast_seconds'] * 1000:>8.1f}ms  "
            f"{row['speedup']:>6.1f}x"
        )


if __name__ == "__main__":
    test_kernel_bench_emitted()
