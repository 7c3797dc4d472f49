"""Seeded benchmark inputs: page streams, hostile pages, cached wrappers.

Everything here is derived from the workload seed through
``random.Random`` instances and sorted id lists, never from ``hash()``
order, so one seed always yields byte-identical inputs; the digests
recorded in each result let two runs show it.

The serving workloads need one induced wrapper per engine.  Inducing
all 119 takes seconds, so the wrappers (induced from each engine's
corpus sample pages, which do not depend on the seed) are cached as
``engine_to_obj`` JSON under ``.perfbench-cache/`` in the checkout,
keyed by a digest of the program's source.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.mse import build_wrapper
from repro.core.serialize import engine_to_obj
from repro.testbed import (
    SAMPLE_PAGES,
    TOTAL_ENGINES,
    make_engine,
)
from repro.testbed.vocab import make_query

#: scratch directory (relative to the checkout root) for caches and traces
CACHE_DIR = ".perfbench-cache"

#: bump when the cached wrapper document changes shape
_CACHE_FORMAT = 1

#: one hostile page per this many stream pages (0.5%)
HOSTILE_EVERY = 200

#: hostile mutations, applied in this rotation along a stream
HOSTILE_KINDS = ("deep_nesting", "truncation", "stray_tags", "unclosed_tags")

#: nesting depth of the deep-nesting mutation (the layout walk recurses
#: once per level; 400 levels still render, 600 do not)
DEEP_NESTING = 600

_STRAY_TAGS = ("</td>", "</tr>", "</table>", "</li>", "</ul>", "</div>", "</a>")
_UNCLOSED_TAGS = ("<b>", "<table>", "<ul>", "<div>", '<font size="5">', "<td>")


@dataclass(frozen=True)
class StreamPage:
    """One page of a served stream."""

    engine_id: int
    markup: str
    query: str
    #: the hostile mutation applied to the page, or "" for a clean page
    hostile: str = ""


def hostile_markup(kind: str, markup: str, rng: random.Random) -> str:
    """``markup`` under one hostile mutation."""
    if kind == "deep_nesting":
        return "<div>" * DEEP_NESTING + markup
    if kind == "truncation":
        return markup[: rng.randrange(len(markup) // 4, len(markup) * 3 // 4)]
    if kind in ("stray_tags", "unclosed_tags"):
        pool = _STRAY_TAGS if kind == "stray_tags" else _UNCLOSED_TAGS
        starts = [index for index, char in enumerate(markup) if char == "<"]
        cuts = sorted(rng.sample(starts, min(8, len(starts))))
        pieces: List[str] = []
        previous = 0
        for cut in cuts:
            pieces.append(markup[previous:cut])
            pieces.append(pool[rng.randrange(len(pool))])
            previous = cut
        pieces.append(markup[previous:])
        return "".join(pieces)
    raise ValueError(f"unknown hostile mutation {kind!r}")


def page_stream(
    seed: int, length: int, engine_ids: Sequence[int]
) -> List[StreamPage]:
    """A seeded stream interleaving ``engine_ids``, with a hostile slice.

    The engines appear in seeded round-robin order (every engine once per
    round).  One page in every :data:`HOSTILE_EVERY` is replaced by a
    hostile variant: the stream is cut into that many equal blocks, each
    holding one hostile page at a seeded offset, and the mutations rotate
    through :data:`HOSTILE_KINDS`.  The hostile count and mix are fixed by
    the length, so every seed carries the same number of each kind.
    """
    rng = random.Random(seed)
    engines = {engine_id: make_engine(engine_id) for engine_id in engine_ids}
    order: List[int] = []
    while len(order) < length:
        round_ids = sorted(engine_ids)
        rng.shuffle(round_ids)
        order.extend(round_ids)
    pages: List[StreamPage] = []
    for engine_id in order[:length]:
        query = make_query(rng, rng.randint(1, 2))
        markup = engines[engine_id].result_page(query)
        pages.append(StreamPage(engine_id, markup, query))
    hostile_count = length // HOSTILE_EVERY
    if hostile_count:
        block = length // hostile_count
        for number in range(hostile_count):
            position = number * block + rng.randrange(block)
            kind = HOSTILE_KINDS[number % len(HOSTILE_KINDS)]
            page = pages[position]
            pages[position] = StreamPage(
                page.engine_id,
                hostile_markup(kind, page.markup, rng),
                page.query,
                kind,
            )
    return pages


def corpus_samples(engine_id: int) -> List[Tuple[str, str]]:
    """An engine's corpus sample pages (its own first queries)."""
    engine = make_engine(engine_id)
    queries = engine.queries(SAMPLE_PAGES)
    return [(engine.result_page(query), query) for query in queries]


def priming_pages(engine_ids: Iterable[int]) -> List[StreamPage]:
    """One corpus sample page per engine, to warm a server before a stream."""
    pages = []
    for engine_id in sorted(engine_ids):
        engine = make_engine(engine_id)
        query = engine.queries(1)[0]
        pages.append(StreamPage(engine_id, engine.result_page(query), query))
    return pages


def digest_pages(pages: Iterable[Tuple[int, str, str]]) -> str:
    """SHA-256 over (engine id, query, markup) triples, in order."""
    digest = hashlib.sha256()
    for engine_id, query, markup in pages:
        digest.update(f"{engine_id}\t{query}\t".encode("utf-8"))
        digest.update(markup.encode("utf-8"))
        digest.update(b"\0")
    return digest.hexdigest()


def digest_texts(texts: Iterable[str]) -> str:
    """SHA-256 over a sequence of output documents, in order."""
    digest = hashlib.sha256()
    for text in texts:
        digest.update(text.encode("utf-8"))
        digest.update(b"\0")
    return digest.hexdigest()


def source_digest(root: Path) -> str:
    """Digest of the program's Python sources under ``src/repro``."""
    digest = hashlib.sha256()
    package = root / "src" / "repro"
    for path in sorted(package.rglob("*.py")):
        digest.update(path.relative_to(package).as_posix().encode("utf-8"))
        digest.update(b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def corpus_wrappers(root: Path, engine_ids: Sequence[int]) -> Dict[int, dict]:
    """``engine_to_obj`` documents of the corpus wrappers of ``engine_ids``.

    Loaded from the cache when present; missing engines are induced from
    their corpus sample pages and the cache is rewritten atomically.
    """
    cache_dir = root / CACHE_DIR
    path = cache_dir / f"wrappers-{_CACHE_FORMAT}-{source_digest(root)[:16]}.json"
    cached: Dict[int, dict] = {}
    if path.is_file():
        with open(path, "r", encoding="utf-8") as handle:
            cached = {int(key): value for key, value in json.load(handle).items()}
    missing = [engine_id for engine_id in engine_ids if engine_id not in cached]
    for engine_id in missing:
        cached[engine_id] = engine_to_obj(build_wrapper(corpus_samples(engine_id)))
    if missing:
        cache_dir.mkdir(parents=True, exist_ok=True)
        partial = path.with_suffix(f".{os.getpid()}.tmp")
        with open(partial, "w", encoding="utf-8") as handle:
            json.dump({str(key): cached[key] for key in sorted(cached)}, handle)
        os.replace(partial, path)
    return {engine_id: cached[engine_id] for engine_id in engine_ids}


def all_engine_ids(limit: Optional[int] = None) -> List[int]:
    """Every corpus engine id, or an even spread of ``limit`` of them."""
    if limit is None or limit >= TOTAL_ENGINES:
        return list(range(TOTAL_ENGINES))
    step = TOTAL_ENGINES / limit
    return sorted({int(number * step) for number in range(limit)})
