"""The serving path: one shared render per page, extraction plus health.

Serving a result page means two answers from one pass: the page's
extraction and the health of the wrapper that produced it.  The
interpreted pair — :meth:`EngineWrapper.extract
<repro.core.wrapper.EngineWrapper.extract>` followed by
:func:`repro.core.verify.check_wrapper` — parses, renders and applies
every section wrapper twice.  :meth:`CompiledWrapper.serve` does each
once:

- :func:`build_page_index` parses, renders and query-cleans the page
  once (:func:`repro.core.wrapper.render_result_page`); the resulting
  :class:`PageIndex` is shared by every wrapper applied to the page;
- :meth:`EngineWrapper.apply <repro.core.wrapper.EngineWrapper.apply>`
  applies every family and section wrapper to that render once;
- the extraction (:meth:`EngineWrapper.assemble
  <repro.core.wrapper.EngineWrapper.assemble>`) and the health
  (:func:`repro.core.verify.health_from_applications`) are both
  assembled from those shared per-schema results.

There is one wrapper-apply path: serving, ``extract`` and
``check_wrapper`` all run :func:`repro.core.wrapper
.apply_section_wrapper` and ``SectionFamily.apply``, so serving is
byte-identical to the interpreted pair by construction.  The golden lock
(:mod:`repro.evalkit.golden`) pins both per page over the whole corpus.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

from repro.core.model import PageExtraction
from repro.core.verify import WrapperHealth, health_from_applications
from repro.core.wrapper import (
    EngineWrapper,
    PageApplications,
    render_result_page,
)
from repro.htmlmod.dom import Document
from repro.obs import NULL_OBSERVER, ObserverLike
from repro.render.lines import RenderedPage


@dataclass(frozen=True)
class PageIndex:
    """One result page's shared, query-cleaned render."""

    page: RenderedPage


def build_page_index(
    markup_or_document: Union[str, Document],
    query: str = "",
    obs: ObserverLike = NULL_OBSERVER,
) -> PageIndex:
    """Parse, render and clean one result page (the shared render).

    The rendering steps are exactly ``EngineWrapper.extract``'s (same
    span name, same cleaning), so every downstream decision sees the
    same content lines the interpreted path sees.
    """
    return PageIndex(render_result_page(markup_or_document, query, obs))


@dataclass(frozen=True)
class ServedPage:
    """One served page: its extraction plus the wrapper health behind it."""

    extraction: PageExtraction
    health: WrapperHealth


class CompiledWrapper:
    """An :class:`~repro.core.wrapper.EngineWrapper` on the serving path.

    ``extract`` equals ``EngineWrapper.extract``; ``serve`` additionally
    returns the page's :class:`~repro.core.verify.WrapperHealth`, equal
    to ``check_wrapper``'s, from the same shared application results.
    """

    __slots__ = ("engine",)

    def __init__(self, engine: EngineWrapper) -> None:
        self.engine = engine

    def __repr__(self) -> str:
        return f"CompiledWrapper({self.engine!r})"

    # -- application ------------------------------------------------------
    def apply_to_index(
        self, index: PageIndex, obs: ObserverLike = NULL_OBSERVER
    ) -> PageApplications:
        """Apply every family and schema to one rendered page, once."""
        return self.engine.apply(index.page, obs)

    def _assemble(
        self, applications: PageApplications, obs: ObserverLike = NULL_OBSERVER
    ) -> PageExtraction:
        """The extraction assembled from shared applications."""
        return self.engine.assemble(applications, obs)

    def extract_index(
        self, index: PageIndex, obs: ObserverLike = NULL_OBSERVER
    ) -> PageExtraction:
        """Extraction from an already-rendered page."""
        with obs.span("apply"):
            return self._assemble(self.apply_to_index(index, obs), obs)

    def extract(
        self,
        markup_or_document: Union[str, Document],
        query: str = "",
        obs: ObserverLike = NULL_OBSERVER,
    ) -> PageExtraction:
        """The same extraction as :meth:`EngineWrapper.extract`."""
        return self.extract_index(
            build_page_index(markup_or_document, query, obs=obs), obs=obs
        )

    def serve_index(
        self, index: PageIndex, obs: ObserverLike = NULL_OBSERVER
    ) -> ServedPage:
        """Extraction + health for one rendered page, from one apply pass."""
        with obs.span("apply"):
            applications = self.apply_to_index(index, obs)
            extraction = self._assemble(applications, obs)
        health = health_from_applications(
            self.engine, applications.wrapper_instances, obs=obs
        )
        return ServedPage(extraction=extraction, health=health)

    def serve(
        self,
        markup_or_document: Union[str, Document],
        query: str = "",
        obs: ObserverLike = NULL_OBSERVER,
    ) -> ServedPage:
        """One shared render serving extraction *and* monitoring health.

        The health returned here is bit-identical to
        ``check_wrapper(engine, page, query)``.
        """
        index = build_page_index(markup_or_document, query, obs=obs)
        return self.serve_index(index, obs=obs)


def compile_wrapper(engine: EngineWrapper) -> CompiledWrapper:
    """Wrap an engine wrapper for the serving path."""
    return CompiledWrapper(engine)


# ---------------------------------------------------------------------------
# Batch serving
# ---------------------------------------------------------------------------


def assign_wrappers(
    count: int, wrapper_of: Optional[Sequence[int]], wrapper_count: int
) -> List[Tuple[int, ...]]:
    """Per-page wrapper-id tuples (every wrapper unless ``wrapper_of``)."""
    if wrapper_of is not None and len(wrapper_of) != count:
        raise ValueError("wrapper_of must assign one wrapper per page")
    if wrapper_of is None:
        everyone = tuple(range(wrapper_count))
        return [everyone] * count
    for wrapper_id in wrapper_of:
        if not 0 <= wrapper_id < wrapper_count:
            raise ValueError(f"wrapper_of index {wrapper_id} out of range")
    return [(wrapper_id,) for wrapper_id in wrapper_of]


def extract_many(
    pages: Sequence[Tuple[str, str]],
    wrappers: Sequence[Union[EngineWrapper, CompiledWrapper]],
    jobs: int = 1,
    wrapper_of: Optional[Sequence[int]] = None,
    obs: ObserverLike = NULL_OBSERVER,
    chunksize: Optional[int] = None,
) -> List[List[PageExtraction]]:
    """Batch extraction: render each page once, apply many wrappers.

    ``pages`` is a sequence of ``(markup, query)`` pairs; ``wrappers``
    may mix plain and compiled engine wrappers.  By default every
    wrapper is applied to every page; ``wrapper_of`` (one wrapper index
    per page) restricts each page to its own wrapper — the shape of a
    multi-engine serving fleet.  Returns
    one list of :class:`PageExtraction` per page, aligned with the
    applied wrapper order; results are deterministic and independent of
    ``jobs`` (asserted corpus-wide in the serve tests).

    ``jobs <= 1`` (or a single page) runs the in-process loop and never
    touches ``multiprocessing``.  Larger ``jobs`` delegate to a
    temporary :class:`repro.perf.server.Server` — a compatibility shim
    for one-shot callers.  The pool is torn down on return, so its
    workers start cold; a caller serving repeated batches should hold a
    ``Server`` (with priming pages) open instead.
    """
    assignments = assign_wrappers(len(pages), wrapper_of, len(wrappers))
    with obs.span("extract_many"):
        if jobs <= 1 or len(pages) <= 1:
            compiled = [
                wrapper
                if isinstance(wrapper, CompiledWrapper)
                else CompiledWrapper(wrapper)
                for wrapper in wrappers
            ]
            serial: List[List[PageExtraction]] = []
            for (markup, query), wrapper_ids in zip(pages, assignments):
                index = build_page_index(markup, query, obs=obs)
                serial.append(
                    [
                        compiled[wrapper_id].extract_index(index, obs=obs)
                        for wrapper_id in wrapper_ids
                    ]
                )
            obs.count("serve.pages", len(serial))
            return serial

        # Imported here: repro.perf.server imports this module.
        from repro.perf.server import Server

        with Server(
            wrappers,
            jobs=min(jobs, len(pages)),
            chunksize=chunksize,
            obs=obs,
        ) as server:
            return server.extract(pages, wrapper_of=wrapper_of)
