"""The pipeline runner: executes stages with checkpoints and resume.

The runner walks an ordered stage list (:func:`repro.pipeline.stages
.induction_stages`) over one :class:`InductionContext`:

- a *page* stage runs once per sample page, under one span with the
  pages inside;
- a *barrier* stage runs once over every page's artifacts.

Everything runs in the calling process.  Per-page induction work is a
few milliseconds, so shipping pages to worker processes cost more than
it saved; corpus-scale callers parallelize across engines instead
(``eval --jobs``).

With an :class:`~repro.pipeline.artifacts.ArtifactStore` attached, every
checkpointed stage's outputs are persisted and a resumed run loads them
instead of recomputing — per page for page stages, per page *set* for
barriers.  Cached results do not count as *fresh*; a stage actually
re-executed marks its outputs fresh, and any stage whose inputs are
fresh ignores its own cache.  That is what makes "delete one stage file,
resume" re-run exactly that stage and its dependents, and what keeps a
grown sample set sound (the DSE barrier re-runs, so everything past it
recomputes while per-page MRE artifacts are reused).

Stages are pure over rendering (no wall-clock, no randomness, no
iteration-order dependence — enforced by ``repro.analysis``), so fresh
and resumed runs produce bit-identical wrappers.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional, Sequence, Set

from repro.pipeline.artifacts import ArtifactStore
from repro.pipeline.context import InductionContext
from repro.pipeline.stages import (
    BarrierStage,
    PageStage,
    Stage,
    decode_artifact,
    encode_artifact,
)

#: freshness mark meaning "every page" (barrier-scope artifacts)
_ALL = -1


@contextmanager
def _stage_span(ctx: InductionContext, stage: Stage) -> Iterator[None]:
    """The stage's span, or nothing for an unspanned stage."""
    if not stage.spanned:
        yield
        return
    with ctx.obs.span(stage.name):
        yield


class PipelineRunner:
    """Executes a stage list over a context; see the module docstring."""

    def __init__(self, store: Optional[ArtifactStore] = None) -> None:
        self.store = store
        #: artifact name -> page indices recomputed this run (_ALL = all)
        self._fresh: Dict[str, Set[int]] = {}

    # -- public ---------------------------------------------------------
    def run(self, ctx: InductionContext, stages: Sequence[Stage]) -> InductionContext:
        """Execute the stages in order; artifacts land in ``ctx``."""
        self._fresh = {}
        for stage in stages:
            if isinstance(stage, BarrierStage):
                self._run_barrier(ctx, stage)
            else:
                assert isinstance(stage, PageStage)
                self._run_page_stage(ctx, stage)
        return ctx

    # -- freshness ------------------------------------------------------
    def _mark_fresh(self, name: str, index: int) -> None:
        self._fresh.setdefault(name, set()).add(index)

    def _inputs_fresh(self, requires: Sequence[str], index: Optional[int]) -> bool:
        """Whether any required artifact was recomputed this run.

        ``index`` scopes the check to one page; None means "any page"
        (barrier stages).  Rendered pages never count as fresh: rendering
        always re-runs but is deterministic, so it cannot invalidate.
        """
        for name in requires:
            if name == "page":
                continue
            marks = self._fresh.get(name)
            if not marks:
                continue
            if index is None or _ALL in marks or index in marks:
                return True
        return False

    # -- barrier stages -------------------------------------------------
    def _run_barrier(self, ctx: InductionContext, stage: BarrierStage) -> None:
        store = self.store if stage.checkpointed else None
        if store is not None and not self._inputs_fresh(stage.requires, None):
            payload = store.load_barrier(stage.name)
            if payload is not None:
                for name, value in stage.decode(ctx, payload).items():
                    ctx.artifacts[name] = value
                return

        previous = {name: ctx.artifacts.get(name) for name in stage.provides}
        with _stage_span(ctx, stage):
            produced = stage.run(ctx)
        for name, value in produced.items():
            ctx.artifacts[name] = value
            # An identity-returning hook (SelectStage's default) leaves
            # downstream caches valid; only a changed value is fresh.
            if stage.checkpointed or value is not previous.get(name):
                self._mark_fresh(name, _ALL)
        if store is not None:
            store.save_barrier(stage.name, stage.encode(ctx))

    # -- page stages ----------------------------------------------------
    def _run_page_stage(self, ctx: InductionContext, stage: PageStage) -> None:
        """Run one page stage on every page whose checkpoint is missing
        or whose inputs were recomputed; decode the rest.

        A page that re-runs marks its outputs fresh, so the next stage
        re-runs on that page too.
        """
        store = self.store if stage.checkpointed else None
        cached = store.load_pages(stage.name) if store is not None else None
        pending: List[int] = []
        for index in range(ctx.page_count):
            encoded = cached[index] if cached is not None else None
            if encoded is None or self._inputs_fresh(stage.requires, index):
                pending.append(index)
                continue
            for name in stage.provides:
                ctx.set_page_value(
                    name,
                    index,
                    decode_artifact(name, encoded[name], ctx.pages[index]),
                )
        if not pending:
            return

        computed: Dict[str, Dict[str, Any]] = {}
        with _stage_span(ctx, stage):
            for index in pending:
                produced = stage.run_page(ctx, index)
                for name, value in produced.items():
                    ctx.set_page_value(name, index, value)
                if store is not None:
                    computed[store.page_ids[index]] = {
                        name: encode_artifact(name, value)
                        for name, value in produced.items()
                    }
        for index in pending:
            for name in stage.provides:
                if name != "page":
                    self._mark_fresh(name, index)
        if store is not None:
            store.save_pages(stage.name, computed)
