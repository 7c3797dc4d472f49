"""Hot-kernel optimisation layer: fingerprints, memoized kernels, serving.

The distance kernels of §4 — Zhang–Shasha tree edit (Dtf), generalized
Levenshtein (Dbt/Dbs/Dbta) and the O(n²) cohesion sums of Formulas 5–7 —
dominate wrapper-induction time (see the ``BENCH_stages.json``
trajectory).  This package attacks them from the data side and the
compute side while keeping every result bit-identical to the reference
implementations:

- :mod:`repro.perf.fingerprints` — per-block compact signatures:
  attribute-set bitmasks (Dtal by popcount), interned feature tuples
  and flattened post-order tag-forest signatures, the one tree form
  the §4.1 distances run on;
- :mod:`repro.perf.kernels` — the process-wide tree, forest, record
  (Drec) and section (Dinr) distance memos, the only memo layer for the
  §4 distances, with hit/miss statistics surfaced as ``perf.*``
  observability gauges;
- :mod:`repro.perf.serve` — the serving path: one shared render per
  page, from which the engine wrapper's extraction *and* its health
  are assembled (one apply pass, the same
  :func:`~repro.core.wrapper.apply_section_wrapper` code the
  interpreted path runs), and the batch ``extract_many`` entry point
  behind ``python -m repro serve``;
- :mod:`repro.perf.server` — the warm persistent worker pool:
  :class:`~repro.perf.server.Server` spawns serving workers once,
  primes their per-process memos over representative pages, and
  amortizes IPC with auto-sized task chunks across repeated batches.

See the "Performance" section of DESIGN.md for how the layers fit, and
``benchmarks/bench_kernels.py`` / ``benchmarks/bench_serve.py`` for the
benchmarks feeding ``BENCH_kernels.json`` and ``BENCH_serve.json``.
"""

from typing import Any

from repro.perf.fingerprints import (
    ATTR_INTERNER,
    TUPLE_INTERNER,
    AttrInterner,
    BlockFingerprint,
    TupleInterner,
    block_fingerprint,
    masked_attr_distance,
)
from repro.perf.kernels import (
    FOREST_MEMO,
    TREE_MEMO,
    PairMemo,
    clear_kernel_caches,
    fast_normalized_tree_distance,
    kernel_cache_stats,
    memo_forest_distance,
    observe_kernel_gauges,
)

# repro.perf.serve imports back into repro.core (which itself reaches
# repro.perf.fingerprints through the feature kernels), so an eager
# import here would close an import cycle during partial init.  The
# serve names are exported lazily instead (PEP 562); `import
# repro.perf.serve` also works directly.
_SERVE_EXPORTS = frozenset(
    {
        "CompiledWrapper",
        "PageIndex",
        "ServedPage",
        "build_page_index",
        "compile_wrapper",
        "extract_many",
    }
)

#: names resolved lazily from repro.perf.server (same cycle reasoning)
_SERVER_EXPORTS = frozenset({"Server", "auto_chunksize"})


def __getattr__(name: str) -> Any:
    if name in _SERVE_EXPORTS:
        from repro.perf import serve

        return getattr(serve, name)
    if name in _SERVER_EXPORTS:
        from repro.perf import server

        return getattr(server, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [  # lint: allow API01 -- serve names resolve lazily via module __getattr__ (PEP 562)
    "ATTR_INTERNER",
    "FOREST_MEMO",
    "TREE_MEMO",
    "TUPLE_INTERNER",
    "AttrInterner",
    "BlockFingerprint",
    "CompiledWrapper",
    "PageIndex",
    "PairMemo",
    "ServedPage",
    "Server",
    "TupleInterner",
    "auto_chunksize",
    "block_fingerprint",
    "build_page_index",
    "clear_kernel_caches",
    "compile_wrapper",
    "extract_many",
    "fast_normalized_tree_distance",
    "kernel_cache_stats",
    "masked_attr_distance",
    "memo_forest_distance",
    "observe_kernel_gauges",
]
