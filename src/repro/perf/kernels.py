"""Memoized distance kernels (the perf layer's compute side).

Tag forests repeat massively across records, pages and engines — every
record of a section shares one tag structure, and the corpus reuses a
small population of record styles.  The memos here are the only memo
layer for the paper's §4 distances, all process-wide:

- :func:`fast_normalized_tree_distance` — one Zhang–Shasha run per
  distinct *pair of tree signatures*, ever (``TREE_MEMO``), keyed on
  the flattened post-order signatures of :mod:`repro.perf.fingerprints`
  and computed from them directly: no tree object is built on a miss;
- :func:`memo_forest_distance` — one generalized-Levenshtein run per
  distinct *pair of forest signatures*, ever (``FOREST_MEMO``); the one
  forest-distance body, shared by Drec's Dtf term, §5.6 grouping and
  the MDR baseline;
- ``RECORD_MEMO`` — whole Drec values, filled by
  :func:`repro.features.record_distance.record_distance`;
- ``DINR_MEMO`` — whole-section Dinr values, filled by the health check.

Every value is bit-identical to the reference implementations in
:mod:`repro.algorithms.tree_edit` and :mod:`repro.features`: a memo hit
returns the exact value a fresh computation would produce, because the
distances are pure functions of their keys.  Every memo keeps hit/miss
counters, surfaced through :func:`kernel_cache_stats` and the
``perf.<memo>.*`` observability gauges.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple

from repro.algorithms.string_edit import normalized_edit_distance
from repro.algorithms.tree_edit import TreeSignature, signature_tree_distance
from repro.obs import ObserverLike
from repro.perf.fingerprints import ATTR_INTERNER, TUPLE_INTERNER, Interned


class PairMemo:
    """A bounded symmetric pair memo with hit/miss statistics.

    Keys are (signature, signature) tuples; the pair is canonicalized by
    object identity, which is stable because signatures are interned
    (and the memo itself keeps them alive).  Insertion stops at
    ``max_entries`` — lookups keep working, new pairs just recompute —
    so a pathological workload degrades to the unmemoized kernel instead
    of exhausting memory.
    """

    __slots__ = ("name", "max_entries", "hits", "misses", "_table")

    def __init__(self, name: str, max_entries: int = 1_000_000) -> None:
        self.name = name
        self.max_entries = max_entries
        self.hits = 0
        self.misses = 0
        self._table: Dict[Tuple[Any, Any], float] = {}

    def lookup(self, sig1: Any, sig2: Any) -> Tuple[Tuple[Any, Any], Optional[float]]:
        """Canonical key for the pair plus the memoized value, if any."""
        # Canonical order by object identity: valid because signatures
        # are interned (equal => identical) and the memo is process-local.
        key = (sig1, sig2) if id(sig1) <= id(sig2) else (sig2, sig1)
        found = self._table.get(key)
        if found is None:
            self.misses += 1
        else:
            self.hits += 1
        return key, found

    def get(self, key: Any) -> Optional[float]:
        """Counted lookup for callers that canonicalize their own keys.

        :func:`repro.features.record_distance.record_distance` orders its
        fingerprint pair by the fingerprints' (cached) value hashes —
        identity ordering would split one logical pair across two keys
        whenever equal fingerprints are distinct objects, which is the
        common cross-page case.
        """
        found = self._table.get(key)
        if found is None:
            self.misses += 1
        else:
            self.hits += 1
        return found

    def store(self, key: Any, value: float) -> None:
        if len(self._table) < self.max_entries:
            self._table[key] = value

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> Dict[str, float]:
        """Hit/miss counters plus derived rate and current size."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": self.hit_rate,
            "entries": len(self._table),
        }

    def clear(self) -> None:
        self._table.clear()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._table)


#: process-wide memos; cleared by :func:`clear_kernel_caches`
TREE_MEMO = PairMemo("tree_memo")
FOREST_MEMO = PairMemo("forest_memo")

#: whole-Drec memo keyed on ``(config, fingerprint, fingerprint)`` — the
#: record distance is a pure function of the two block fingerprints and
#: the feature config, so one weighted-sum computation per distinct
#: record-style pair serves the whole process (the serving loop's health
#: checks re-meet the same styles on every page of an engine).
RECORD_MEMO = PairMemo("record_memo")

#: whole-section homogeneity memo keyed on ``(config, record
#: fingerprints...)`` — Dinr (Formula 5) is the mean of pairwise Drec
#: values, each pure in its fingerprint pair, so the section-level mean
#: is pure in the ordered fingerprint tuple.  Health checks meet the
#: same record line-up page after page; a warm hit skips the whole
#: pairwise loop.
DINR_MEMO = PairMemo("dinr_memo")


def fast_normalized_tree_distance(sig1: TreeSignature, sig2: TreeSignature) -> float:
    """Memoized normalized tree edit distance over tree signatures.

    Bit-identical to
    :func:`repro.algorithms.tree_edit.normalized_tree_distance` over the
    trees the signatures encode: on a miss it runs the same Zhang–Shasha
    program (:func:`~repro.algorithms.tree_edit.signature_tree_distance`)
    normalized by the same larger-size denominator
    (``len(signature) == tree.size()``).
    """
    if sig1 is sig2 or sig1 == sig2:
        return 0.0
    key, found = TREE_MEMO.lookup(sig1, sig2)
    if found is None:
        found = min(
            1.0, signature_tree_distance(sig1, sig2) / max(len(sig1), len(sig2))
        )
        TREE_MEMO.store(key, found)
    return found


def memo_forest_distance(sig1: Interned, sig2: Interned) -> float:
    """Memoized normalized tag-forest distance (paper §4.1).

    Bit-identical to :func:`repro.algorithms.tree_edit.forest_distance`
    over the two forests whose interned signatures are ``sig1`` and
    ``sig2``.  The callers (``record_distance``, §5.6 grouping, the MDR
    baseline) hold the signatures from the block fingerprints or the
    DOM.  Two memo layers cooperate: a hit at the forest level skips
    everything, a miss runs the sequence kernel over the tree-signature
    tuples themselves (tuple ``==`` short-circuits on the interned
    identity), whose per-pair substitution costs hit the tree-level memo.
    """
    if sig1 is sig2 or sig1 == sig2:
        return 0.0
    key, found = FOREST_MEMO.lookup(sig1, sig2)
    if found is None:
        found = normalized_edit_distance(
            sig1, sig2, substitution_cost=fast_normalized_tree_distance
        )
        FOREST_MEMO.store(key, found)
    return found


def kernel_cache_stats() -> Dict[str, Dict[str, float]]:
    """Snapshot of every process-wide kernel cache, keyed by cache name."""
    return {
        "tree_memo": TREE_MEMO.stats(),
        "forest_memo": FOREST_MEMO.stats(),
        "record_memo": RECORD_MEMO.stats(),
        "dinr_memo": DINR_MEMO.stats(),
        "attr_interner": ATTR_INTERNER.stats(),
        "tuple_interner": {"entries": len(TUPLE_INTERNER)},
    }


def clear_kernel_caches() -> None:
    """Reset every process-wide memo/interner (benchmarks, tests)."""
    TREE_MEMO.clear()
    FOREST_MEMO.clear()
    RECORD_MEMO.clear()
    DINR_MEMO.clear()
    ATTR_INTERNER.clear()
    TUPLE_INTERNER.clear()


def observe_kernel_gauges(obs: ObserverLike) -> None:
    """Export the kernel cache stats as ``perf.<cache>.<stat>`` gauges."""
    for cache, stats in kernel_cache_stats().items():
        for stat, value in stats.items():
            obs.gauge(f"perf.{cache}.{stat}", value)
