"""Micro-benchmarks for the hot distance kernels (repro.perf).

Times each optimised kernel against its naive reference on block
features taken from real corpus pages, checks the scores agree exactly,
and writes per-kernel wall time, speedup and cache hit rates to
``BENCH_kernels.json``.  The ``tree_distance`` row is the unmemoized
Zhang–Shasha program over tree signatures against the callback oracle
over :class:`~repro.algorithms.tree_edit.OrderedTree` trees, on every
pair of distinct trees of the corpus slice.  Comparing these files
across commits shows whether a change moved the kernels themselves,
independently of the stage-level trajectory in ``BENCH_stages.json``.

Set ``REPRO_BENCH_KERNELS`` to override the output path.  Runnable as a
pytest target (``pytest benchmarks/bench_kernels.py``) or directly
(``python benchmarks/bench_kernels.py``).
"""

import json
import os
import time
from itertools import combinations

from repro.algorithms.string_edit import edit_distance, edit_distance_reference
from repro.algorithms.tree_edit import (
    forest_distance,
    signature_tree_distance,
    tree_edit_distance,
    tree_from_element,
)
from repro.algorithms.string_edit import normalized_edit_distance
from repro.features.blocks import Block
from repro.features.line_distance import text_attr_distance
from repro.htmlmod.parser import parse_html
from repro.perf import (
    block_fingerprint,
    clear_kernel_caches,
    kernel_cache_stats,
    masked_attr_distance,
    memo_forest_distance,
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


def _tag_forest(block):
    return [tree_from_element(element) for element in block.span_elements()]


def _bench_forest(pairs):
    forests = [(_tag_forest(a), _tag_forest(b)) for a, b in pairs]
    ref_seconds, ref = _timed(forest_distance, forests)
    clear_kernel_caches()
    sigs = [
        (block_fingerprint(a).forest_sig, block_fingerprint(b).forest_sig)
        for a, b in pairs
    ]
    fast_seconds, fast = _timed(memo_forest_distance, sigs)
    assert ref == fast, "memoized forest distance diverged from reference"
    return ref_seconds, fast_seconds


def _distinct_trees(blocks):
    """Every distinct tag tree of the blocks: signature -> OrderedTree."""
    trees = {}
    for block in blocks:
        forest_sig = block_fingerprint(block).forest_sig
        for sig, element in zip(forest_sig, block.span_elements()):
            trees.setdefault(sig, tree_from_element(element))
    return trees


def _bench_tree(tree_pairs):
    ref_seconds, ref = _timed(
        tree_edit_distance, [(t1, t2) for (_, t1), (_, t2) in tree_pairs]
    )
    fast_seconds, fast = _timed(
        signature_tree_distance, [(s1, s2) for (s1, _), (s2, _) in tree_pairs]
    )
    assert ref == fast, "signature tree distance diverged from the oracle"
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
    rows = [
        ("edit_distance", _bench_edit_distance(pairs)),
        ("forest_distance", _bench_forest(pairs)),
        ("attr_distance", _bench_attr_masks(pairs)),
    ]
    # After the forest row: collecting the trees fingerprints the blocks,
    # which the forest row does itself after clearing the caches.
    tree_pairs = list(combinations(_distinct_trees(blocks).items(), 2))
    rows.append(("tree_distance", _bench_tree(tree_pairs)))
    for name, (ref_seconds, fast_seconds) in rows:
        kernels[name] = {
            "reference_seconds": ref_seconds,
            "fast_seconds": fast_seconds,
            "speedup": ref_seconds / fast_seconds if fast_seconds else 0.0,
        }

    # The memoized forest kernel carries the >=2x gate; the other rows
    # (the tree row included) only have to stay exact, asserted above
    # (their wins are workload dependent and too small to gate CI on
    # without flakes).
    assert kernels["forest_distance"]["speedup"] >= 2.0, kernels["forest_distance"]

    doc = {
        "format": "repro-bench-kernels",
        "version": 1,
        "workload": {
            "engines": ENGINES,
            "pages_per_engine": PAGES_PER_ENGINE,
            "blocks": len(blocks),
            "pairs": len(pairs),
            "tree_pairs": len(tree_pairs),
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
