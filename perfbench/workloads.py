"""The benchmark workloads, each with a timed and a traced run.

Every workload is a closed loop driven by one caller.  A timed run
repeats *passes* over its seeded inputs until ``seconds`` of steady-phase
time have elapsed; each pass starts from cleared kernel memos and its
own set-up (wrapper load, monitor construction or ``Server.start``, and
a warm-up), so the passes repeat identical work and ``setup_s`` is the
median of several set-ups.  Outputs are checked untimed after the clock
stops.

A traced run (``trace=True``) measures the per-layer split instead.  It
opens spans from this module, around calls into each layer's public
functions, on a :class:`repro.obs.Observer` that is never handed to the
program; the per-layer self times come from those spans.
"""

from __future__ import annotations

import gc
import json
import math
import multiprocessing
import os
import random
import shutil
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.dse import clean_page_lines
from repro.core.mse import MSE, build_wrapper
from repro.core.mse_config import MSEConfig
from repro.core.serialize import engine_from_obj, engine_to_obj
from repro.core.verify import health_from_applications
from repro.core.wrapper import EngineWrapper
from repro.htmlmod.parser import parse_html
from repro.monitor import MonitorConfig, WrapperMonitor
from repro.obs import Observer
from repro.perf.kernels import clear_kernel_caches
from repro.perf.serve import CompiledWrapper, PageIndex, ServedPage
from repro.perf.server import Server, auto_chunksize
from repro.pipeline import InductionContext, PipelineRunner, induction_stages
from repro.render.layout import render_page
from repro.testbed import (
    MUTATIONS,
    SAMPLE_PAGES,
    compute_truth,
    load_evolving_pages,
)

from perfbench.inputs import (
    CACHE_DIR,
    StreamPage,
    all_engine_ids,
    corpus_wrappers,
    digest_pages,
    digest_texts,
    page_stream,
    priming_pages,
)
from perfbench.measure import (
    PAGE_LAYERS,
    PIPELINE_STAGES,
    Quality,
    dir_usage,
    effective_workers,
    environment,
    kernel_metrics,
    latency_ms,
    mean,
    self_ms,
    served_doc,
    vm_hwm_mb,
)


#: the latency percentile each workload reports as ``tail_ms``: p99 of
#: pages where re-induction pages sit in the top percent, p90 of batches
#: (at least ten samples beyond it), and p95 of the plain serving
#: stream, whose p99 moves with host jitter more than the bound
TAILS = {
    "serve_stream": 0.95,
    "pool_serve": 0.90,
    "drift_heal": 0.99,
}


@dataclass(frozen=True)
class Sizes:
    """Input sizes of the workloads (the defaults are the benchmark)."""

    #: serve_stream pages per pass (p99 has >= 10 samples beyond it)
    stream_pages: int = 1200
    #: pool_serve pages per pass, sent as ``batch_pages``-page batches
    pool_pages: int = 1600
    batch_pages: int = 16
    #: corpus engines used (None = all 119)
    engines: Optional[int] = None
    #: drift_heal engines (an even spread), each evolved under every
    #: mutation, and the pages of each stream counting its 5 sample pages
    drift_engines: int = 20
    drift_total_pages: int = 24
    #: minimum number of set-ups whose median is ``setup_s``
    setup_reps: int = 5


@dataclass
class Run:
    """One workload invocation's parameters."""

    root: Path
    seed: int
    seconds: float
    sizes: Sizes = field(default_factory=Sizes)

    @property
    def scratch(self) -> Path:
        return self.root / CACHE_DIR


@dataclass
class Outcome:
    """What a workload reports: counts, metrics, checks and context."""

    attempted: int
    failed: int
    metrics: Dict[str, float]
    info: Dict[str, Any]
    mismatches: List[str]


# ---------------------------------------------------------------------------
# shared pieces
# ---------------------------------------------------------------------------


def _cold_start() -> None:
    """Empty the kernel memos and collect garbage before a set-up."""
    clear_kernel_caches()
    gc.collect()


def _start_monitors(
    wrappers: Dict[int, dict], priming: Sequence[StreamPage]
) -> Tuple[float, Dict[int, WrapperMonitor]]:
    """Cold set-up: load wrappers, build monitors, serve the priming pages."""
    _cold_start()
    start = perf_counter()
    monitors = {
        engine_id: WrapperMonitor(engine_from_obj(obj))
        for engine_id, obj in wrappers.items()
    }
    for page in priming:
        monitors[page.engine_id].compiled.serve(page.markup, page.query)
    return perf_counter() - start, monitors


def _timed_serve(
    monitor: WrapperMonitor, page: StreamPage, latencies: List[float]
) -> Optional[ServedPage]:
    """One ``serve_page`` call; a failure is recorded as an infinite latency."""
    start = perf_counter()
    try:
        served = monitor.serve_page(page.markup, page.query)
    except Exception:  # a failed page is a measured outcome, not a crash
        latencies.append(math.inf)
        return None
    latencies.append(perf_counter() - start)
    return served


def _failures_by_kind(
    pages: Sequence[StreamPage], served: Sequence[Optional[Any]]
) -> Dict[str, int]:
    counts: Dict[str, int] = {}
    for page, result in zip(pages, served):
        if result is None:
            kind = page.hostile or "clean"
            counts[kind] = counts.get(kind, 0) + 1
    return counts


def _grade_pages(
    served: Sequence[Optional[ServedPage]], pages: Sequence[StreamPage]
) -> Quality:
    """Grade the served clean pages against their testbed truth."""
    quality = Quality()
    for result, page in zip(served, pages):
        if result is not None and not page.hostile:
            quality.grade(result.extraction, compute_truth(page.markup))
    return quality


def traced_serve(
    obs: Observer, compiled: CompiledWrapper, markup: str, query: str
) -> Tuple[ServedPage, Dict[str, int]]:
    """``CompiledWrapper.serve`` split into one span per layer.

    Runs the same steps as ``build_page_index`` + ``serve_index`` —
    parse, layout, clean, index, apply (with the extraction assembly),
    health — calling each layer directly so its time is its own span.
    """
    with obs.span("htmlmod.parse"):
        document = parse_html(markup)
    with obs.span("render.layout"):
        page = render_page(document)
    with obs.span("dse.clean"):
        clean_page_lines(page, query.split())
    with obs.span("serve.index"):
        index = PageIndex(page)
    with obs.span("serve.apply"):
        applications = compiled.apply_to_index(index)
        extraction = compiled._assemble(applications)
    with obs.span("verify.health"):
        health = health_from_applications(
            compiled.engine, applications.wrapper_instances
        )
    counts = {
        "htmlmod.nodes": sum(1 for _ in document.iter()),
        "render.lines": len(page.lines),
        "serve.schemas": len(compiled.engine.wrappers),
    }
    return ServedPage(extraction=extraction, health=health), counts


#: the call orders :meth:`PageTrace.run` rotates through
_ROTATIONS = (
    ("monitor", "compiled", "split"),
    ("compiled", "split", "monitor"),
    ("split", "monitor", "compiled"),
)


@dataclass
class PageTrace:
    """The per-page split of one traced pass."""

    obs: Observer = field(default_factory=Observer)
    attempted: int = 0
    failed: int = 0
    traced: int = 0
    #: untraced serve_page and compiled-serve seconds on pages that did
    #: not re-induce, and how many such pages there were
    monitor_s: float = 0.0
    compiled_s: float = 0.0
    steady_pages: int = 0
    #: untraced compiled-serve seconds over every traced page
    untraced_s: float = 0.0
    reinduce_s: List[float] = field(default_factory=list)
    counts: Dict[str, int] = field(default_factory=dict)
    mismatches: List[str] = field(default_factory=list)
    served: List[Optional[ServedPage]] = field(default_factory=list)

    def run(self, monitor: WrapperMonitor, page: StreamPage) -> None:
        """Serve one page three ways and compare the results.

        ``serve_page`` and the compiled serve run untraced (their
        difference is the monitor's own cost); the layer-by-layer serve
        runs inside a ``page`` span.  The three calls rotate their order
        from page to page, so the caches one call leaves warm do not
        always favour the same one.  Pages whose ``serve_page`` call
        re-induced the wrapper are timed separately.
        """
        self.attempted += 1
        compiled = monitor.compiled
        events_before = len(monitor.log.events)
        seconds: Dict[str, float] = {}
        results: Dict[str, ServedPage] = {}
        counts: Dict[str, int] = {}
        try:
            for step in _ROTATIONS[self.attempted % len(_ROTATIONS)]:
                start = perf_counter()
                if step == "monitor":
                    results[step] = monitor.serve_page(page.markup, page.query)
                elif step == "compiled":
                    results[step] = compiled.serve(page.markup, page.query)
                else:
                    with self.obs.span("page"):
                        results[step], counts = traced_serve(
                            self.obs, compiled, page.markup, page.query
                        )
                seconds[step] = perf_counter() - start
        except Exception:  # a failed page is a measured outcome
            self.failed += 1
            self.served.append(None)
            return
        served = results["monitor"]
        self.served.append(served)
        self.traced += 1
        self.untraced_s += seconds["compiled"]
        for name, amount in counts.items():
            self.counts[name] = self.counts.get(name, 0) + amount
        reference = served_doc(served)
        if any(served_doc(result) != reference for result in results.values()):
            self.mismatches.append(
                f"engine {page.engine_id} query {page.query!r}: the layer-by-layer "
                "serve differs from serve_page"
            )
        reinduced = any(
            event["event"] == "reinduce"
            for event in monitor.log.events[events_before:]
        )
        if reinduced:
            self.reinduce_s.append(seconds["monitor"])
        else:
            self.monitor_s += seconds["monitor"]
            self.compiled_s += seconds["compiled"]
            self.steady_pages += 1

    def metrics(self) -> Dict[str, float]:
        layers = self_ms(self.obs, self.traced)
        metrics = {f"{name}_ms": layers.get(name, 0.0) for name in PAGE_LAYERS}
        for name, total in self.counts.items():
            metrics[name] = total / max(1, self.traced)
        page_span = sum(
            node.seconds for node in self.obs.spans() if node.name == "page"
        )
        steady = max(1, self.steady_pages)
        own_s = self.monitor_s - self.compiled_s
        metrics["monitor.self_ms"] = 1000.0 * own_s / steady
        metrics["trace.overhead"] = page_span / max(1e-9, self.untraced_s)
        return metrics


def _warm_then_split(
    warm: Sequence[Tuple[WrapperMonitor, StreamPage]],
    split_on: Sequence[Tuple[WrapperMonitor, StreamPage]],
) -> Tuple[PageTrace, List[Optional[ServedPage]], float]:
    """An untimed warm pass, then the traced per-page split.

    The warm pass leaves the kernel memos as warm as a timed run's
    steady phase finds them.  Returns the split, the warm pass's results
    and its wall seconds; the two passes' outputs must be identical.
    """
    start = perf_counter()
    warm_served = [_timed_serve(monitor, page, []) for monitor, page in warm]
    warm_s = perf_counter() - start
    split = PageTrace()
    for monitor, page in split_on:
        split.run(monitor, page)
    if _docs(warm_served) != _docs(split.served):
        split.mismatches.append(
            "the traced pass produced different outputs than the warm pass"
        )
    return split, warm_served, warm_s


def _write_trace(run: Run, workload: str, obs: Observer) -> str:
    run.scratch.mkdir(parents=True, exist_ok=True)
    path = run.scratch / f"trace-{workload}-{run.seed}.jsonl"
    obs.write_jsonl(str(path))
    return str(path.relative_to(run.root))


@dataclass
class _Passes:
    """The timed passes of one run and what they produced."""

    latencies: List[float] = field(default_factory=list)
    setups: List[float] = field(default_factory=list)
    steady: float = 0.0
    count: int = 0
    peak_rss_mb: float = 0.0
    #: the first pass's results and output documents
    first: List[Any] = field(default_factory=list)
    docs: List[Optional[str]] = field(default_factory=list)
    mismatches: List[str] = field(default_factory=list)

    def record(
        self,
        setup_s: float,
        seconds: float,
        results: Sequence[Any],
        docs: List[Optional[str]],
        rss_mb: float,
    ) -> None:
        """Book one pass; passes repeat identical work, so outputs must match.

        Peak memory is read once, after the first pass: later passes
        would add the benchmark's own copies of earlier outputs, and the
        number of passes varies with speed.
        """
        self.setups.append(setup_s)
        self.steady += seconds
        if self.count == 0:
            self.peak_rss_mb = rss_mb
            self.first = list(results)
            self.docs = docs
        elif docs != self.docs:
            self.mismatches.append(
                f"pass {self.count} produced different outputs than pass 0"
            )
        self.count += 1


def _repeat(
    run: Run, one_pass: Callable[[_Passes], None], set_up: Callable[[], float]
) -> _Passes:
    """Passes until ``run.seconds`` of steady phase, then extra set-ups.

    Each pass keeps its program state in ``one_pass``'s locals, so the
    previous pass is freed before the next one sets up.
    """
    passes = _Passes()
    while passes.count == 0 or passes.steady < run.seconds:
        one_pass(passes)
    while len(passes.setups) < run.sizes.setup_reps:
        passes.setups.append(set_up())
    return passes


def _finish(
    workload: str,
    passes: _Passes,
    units: int,
    failed_units: int,
    quality: Quality,
    info: Dict[str, Any],
) -> Outcome:
    """The timed outcome: ``units`` operations per pass, some failing."""
    attempted = units * passes.count
    failed = failed_units * passes.count
    ok = attempted - failed
    tail = TAILS[workload]
    info.update(
        passes=passes.count,
        tail_percentile=100 * tail,
        failed_share=failed / attempted,
        outputs_digest=_output_digest(passes.docs),
    )
    metrics = {
        "throughput": ok / passes.steady,
        "p50_ms": latency_ms(passes.latencies, 0.5, passes.steady),
        "tail_ms": latency_ms(passes.latencies, tail, passes.steady),
        "setup_s": statistics.median(passes.setups),
        "peak_rss_mb": passes.peak_rss_mb,
        "ok_share": ok / attempted,
    }
    metrics.update(quality.metrics())
    return Outcome(attempted, failed, metrics, info, passes.mismatches)


def _docs(served: Sequence[Optional[ServedPage]]) -> List[Optional[str]]:
    return [None if item is None else served_doc(item) for item in served]


def _output_digest(docs: Sequence[Optional[str]]) -> str:
    return digest_texts("" if doc is None else doc for doc in docs)


# ---------------------------------------------------------------------------
# serve_stream
# ---------------------------------------------------------------------------


def serve_stream(run: Run, trace: bool) -> Outcome:
    """One healthy monitor per engine serves a seeded interleaved stream."""
    began = perf_counter()
    ids = all_engine_ids(run.sizes.engines)
    wrappers = corpus_wrappers(run.root, ids)
    pages = page_stream(run.seed, run.sizes.stream_pages, ids)
    priming = priming_pages(ids)
    prep_s = perf_counter() - began
    info: Dict[str, Any] = {
        "env": environment(run.seed, 1, prep_s),
        "inputs_digest": digest_pages((p.engine_id, p.query, p.markup) for p in pages),
        "pages": len(pages),
    }
    if trace:
        return _serve_stream_traced(run, wrappers, pages, priming, info)

    def one_pass(passes: _Passes) -> None:
        setup_s, monitors = _start_monitors(wrappers, priming)
        start = perf_counter()
        served = [
            _timed_serve(monitors[page.engine_id], page, passes.latencies)
            for page in pages
        ]
        seconds = perf_counter() - start
        passes.record(setup_s, seconds, served, _docs(served), vm_hwm_mb())

    passes = _repeat(run, one_pass, lambda: _start_monitors(wrappers, priming)[0])
    failures = _failures_by_kind(pages, passes.first)
    info["failures"] = failures
    return _finish(
        "serve_stream",
        passes,
        len(pages),
        sum(failures.values()),
        _grade_pages(passes.first, pages),
        info,
    )


def _serve_stream_traced(
    run: Run,
    wrappers: Dict[int, dict],
    pages: Sequence[StreamPage],
    priming: Sequence[StreamPage],
    info: Dict[str, Any],
) -> Outcome:
    _, monitors = _start_monitors(wrappers, priming)
    pairs = [(monitors[page.engine_id], page) for page in pages]
    split, _, _ = _warm_then_split(pairs, pairs)
    metrics = split.metrics()
    metrics.update(kernel_metrics())
    info["trace"] = _write_trace(run, "serve_stream", split.obs)
    return Outcome(split.attempted, split.failed, metrics, info, split.mismatches)


# ---------------------------------------------------------------------------
# pool_serve
# ---------------------------------------------------------------------------


def _start_server(
    wrappers: Dict[int, dict],
    priming: Sequence[StreamPage],
    slot_of: Dict[int, int],
    jobs: int,
) -> Tuple[float, float, Server]:
    """Cold set-up of a primed pool; returns (set-up s, start s, server)."""
    _cold_start()
    start = perf_counter()
    engines = [engine_from_obj(wrappers[engine_id]) for engine_id in sorted(wrappers)]
    server = Server(
        engines,
        jobs=jobs,
        prime_pages=[(page.markup, page.query) for page in priming],
        prime_of=[slot_of[page.engine_id] for page in priming],
    )
    started = perf_counter()
    server.start()
    end = perf_counter()
    return end - start, end - started, server


def _children_rss_mb() -> float:
    return sum(vm_hwm_mb(child.pid) for child in multiprocessing.active_children())


def _pool_pass(
    server: Server,
    batches: Sequence[Sequence[StreamPage]],
    slot_of: Dict[int, int],
    latencies: List[float],
) -> Tuple[float, List[Optional[ServedPage]], int]:
    """Send every batch; returns (seconds, per-page results, failed batches)."""
    served: List[Optional[ServedPage]] = []
    failed_batches = 0
    start = perf_counter()
    for batch in batches:
        sent = perf_counter()
        try:
            rows = server.serve(
                [(page.markup, page.query) for page in batch],
                wrapper_of=[slot_of[page.engine_id] for page in batch],
            )
        except RuntimeError:  # one bad page fails its whole batch
            latencies.append(math.inf)
            served.extend([None] * len(batch))
            failed_batches += 1
            continue
        latencies.append(perf_counter() - sent)
        served.extend(row[0] for row in rows)
    return perf_counter() - start, served, failed_batches


def pool_serve(run: Run, trace: bool) -> Outcome:
    """Fixed-size batches of a seeded stream sent to a warm, primed pool."""
    began = perf_counter()
    ids = all_engine_ids(run.sizes.engines)
    wrappers = corpus_wrappers(run.root, ids)
    pages = page_stream(run.seed, run.sizes.pool_pages, ids)
    priming = priming_pages(ids)
    prep_s = perf_counter() - began
    jobs = effective_workers()
    slot_of = {engine_id: slot for slot, engine_id in enumerate(sorted(wrappers))}
    size = run.sizes.batch_pages
    batches = [pages[start : start + size] for start in range(0, len(pages), size)]
    info: Dict[str, Any] = {
        "env": environment(run.seed, jobs, prep_s),
        "inputs_digest": digest_pages((p.engine_id, p.query, p.markup) for p in pages),
        "pages": len(pages),
        "batches": len(batches),
    }
    if trace:
        return _pool_serve_traced(
            run, wrappers, pages, batches, priming, slot_of, jobs, info
        )

    def one_pass(passes: _Passes) -> None:
        setup_s, _, server = _start_server(wrappers, priming, slot_of, jobs)
        try:
            seconds, served, _ = _pool_pass(server, batches, slot_of, passes.latencies)
            rss_mb = vm_hwm_mb() + _children_rss_mb()
        finally:
            server.close()
        passes.record(setup_s, seconds, served, _docs(served), rss_mb)

    def set_up() -> float:
        setup_s, _, server = _start_server(wrappers, priming, slot_of, jobs)
        server.close()
        return setup_s

    passes = _repeat(run, one_pass, set_up)
    _, monitors = _start_monitors(wrappers, priming)
    local = [_timed_serve(monitors[page.engine_id], page, []) for page in pages]
    _check_pool_parity(pages, passes.first, local, passes.mismatches)
    failures = _failures_by_kind(pages, passes.first)
    info.update(
        failures=failures,
        failed_batches=sum(1 for latency in passes.latencies if math.isinf(latency)),
    )
    return _finish(
        "pool_serve",
        passes,
        len(pages),
        sum(failures.values()),
        _grade_pages(passes.first, pages),
        info,
    )


def _check_pool_parity(
    pages: Sequence[StreamPage],
    pooled: Sequence[Optional[ServedPage]],
    local: Sequence[Optional[ServedPage]],
    mismatches: List[str],
) -> None:
    """Pool results must equal in-process ``serve_page`` byte for byte."""
    for page, result, mine in zip(pages, pooled, local):
        if result is None:
            continue
        if mine is None or served_doc(mine) != served_doc(result):
            mismatches.append(
                f"engine {page.engine_id} query {page.query!r}: pool result "
                "differs from in-process serve_page"
            )


def _pool_serve_traced(
    run: Run,
    wrappers: Dict[int, dict],
    pages: Sequence[StreamPage],
    batches: Sequence[Sequence[StreamPage]],
    priming: Sequence[StreamPage],
    slot_of: Dict[int, int],
    jobs: int,
    info: Dict[str, Any],
) -> Outcome:
    _, start_s, server = _start_server(wrappers, priming, slot_of, jobs)
    try:
        pool_s, pooled, failed_batches = _pool_pass(server, batches, slot_of, [])
    finally:
        server.close()
    pool_rate = sum(1 for item in pooled if item is not None) / pool_s

    # The same pages in process: the warm pass is the serial rate the
    # pool is measured against, then the layer-by-layer split.
    _, monitors = _start_monitors(wrappers, priming)
    pairs = [(monitors[page.engine_id], page) for page in pages]
    split, serial, serial_s = _warm_then_split(pairs, pairs)
    serial_rate = sum(1 for item in serial if item is not None) / serial_s
    _check_pool_parity(pages, pooled, serial, split.mismatches)
    metrics = split.metrics()
    metrics.update(
        kernel_metrics(
            [stats["final"] for _, stats in sorted(server.worker_stats.items())
             if "final" in stats]
        )
    )
    metrics.update(
        {
            "server.start_s": start_s,
            "server.efficiency": pool_rate / (jobs * serial_rate),
            "server.chunk_pages": float(auto_chunksize(run.sizes.batch_pages, jobs)),
            "server.restarts": float(server.restarts),
            "server.failed_batches": float(failed_batches),
        }
    )
    info["trace"] = _write_trace(run, "pool_serve", split.obs)
    failed = sum(1 for item in pooled if item is None)
    return Outcome(len(pages), failed, metrics, info, split.mismatches)


# ---------------------------------------------------------------------------
# the induction pipeline, stage by stage
# ---------------------------------------------------------------------------


def _wrapper_doc(wrapper: EngineWrapper) -> str:
    return json.dumps(engine_to_obj(wrapper), sort_keys=True)


def staged_induction(
    obs: Observer, samples: Sequence[Tuple[str, str]]
) -> Tuple[EngineWrapper, int]:
    """``build_wrapper`` run one stage at a time, one span per stage.

    Returns the wrapper and the number of section instances found.
    """
    mse = MSE(MSEConfig())
    ctx = InductionContext.from_samples(samples, mse.config)
    runner = PipelineRunner()
    for stage in induction_stages(mse.select_sections):
        if stage.name in PIPELINE_STAGES:
            with obs.span(f"pipeline.{stage.name}"):
                runner.run(ctx, [stage])
        else:
            runner.run(ctx, [stage])
    engine: EngineWrapper = ctx.engine
    return engine, sum(len(found) for found in ctx.sections_per_page)


def _pipeline_split(
    obs: Observer,
    sample_sets: Sequence[Sequence[Tuple[str, str]]],
    mismatches: List[str],
) -> Dict[str, float]:
    """The per-stage split of inducing a wrapper from each sample set.

    Every set is induced by ``build_wrapper`` and then stage by stage
    under spans, each batch from cold kernel memos; the two wrappers
    must be identical.
    """
    _cold_start()
    plain = [_wrapper_doc(build_wrapper(samples)) for samples in sample_sets]
    _cold_start()
    schemas = 0
    sections = 0
    for samples, expected in zip(sample_sets, plain):
        staged, found = staged_induction(obs, samples)
        schemas += len(staged.wrappers)
        sections += found
        if _wrapper_doc(staged) != expected:
            mismatches.append("a stage-by-stage induction differs from build_wrapper")
    count = max(1, len(sample_sets))
    layers = self_ms(obs, count)
    metrics = {
        f"pipeline.{name}_ms": layers.get(f"pipeline.{name}", 0.0)
        for name in PIPELINE_STAGES
    }
    metrics["pipeline.sections"] = sections / count
    metrics["pipeline.schemas"] = schemas / count
    return metrics


# ---------------------------------------------------------------------------
# drift_heal
# ---------------------------------------------------------------------------


@dataclass
class _Streams:
    """The evolving streams of one drift_heal run, interleaved."""

    engine_ids: List[int]
    mutate_at: List[int]
    drift_expected: List[bool]
    pages: List[List[StreamPage]]
    priming: List[StreamPage]

    def order(self) -> List[Tuple[int, StreamPage]]:
        """Round-robin over the streams, page by page."""
        steps = max(len(pages) for pages in self.pages)
        return [
            (number, pages[step])
            for step in range(steps)
            for number, pages in enumerate(self.pages)
            if step < len(pages)
        ]


def _drift_streams(run: Run) -> _Streams:
    """Every drift engine under every mutation, in seeded turn order.

    The engines (an even spread over the corpus) and the change point are
    fixed, so every seed re-induces the same engines from the same pages;
    the seed decides the order the streams take turns in, and with it
    what the process-wide kernel memos hold when each re-induction runs.
    """
    rng = random.Random(run.seed)
    sizes = run.sizes
    turns = [
        (engine_id, mutation)
        for engine_id in all_engine_ids(sizes.drift_engines)
        for mutation in sorted(MUTATIONS)
    ]
    rng.shuffle(turns)
    streams = _Streams([], [], [], [], [])
    for engine_id, mutation in turns:
        evolving = load_evolving_pages(
            engine_id, mutation, total_pages=sizes.drift_total_pages
        )
        streams.engine_ids.append(engine_id)
        streams.mutate_at.append(evolving.truth.mutate_at)
        streams.drift_expected.append(evolving.truth.drift_expected)
        streams.pages.append(
            [
                StreamPage(engine_id, markup, query)
                for markup, query in evolving.stream()
            ]
        )
        markup, query = evolving.sample_set[0]
        streams.priming.append(StreamPage(engine_id, markup, query))
    return streams


def _start_healing(
    wrappers: Dict[int, dict], streams: _Streams, checkpoints: Path
) -> Tuple[float, List[WrapperMonitor]]:
    """Cold set-up: one healing monitor per stream, checkpointing apart."""
    _cold_start()
    start = perf_counter()
    monitors = []
    for number, engine_id in enumerate(streams.engine_ids):
        config = MonitorConfig(heal=True, checkpoint_dir=str(checkpoints / str(number)))
        monitor = WrapperMonitor(engine_from_obj(wrappers[engine_id]), config)
        page = streams.priming[number]
        monitor.compiled.serve(page.markup, page.query)
        monitors.append(monitor)
    return perf_counter() - start, monitors


def drift_heal(run: Run, trace: bool) -> Outcome:
    """Healing monitors over evolving streams, one per engine and mutation."""
    began = perf_counter()
    streams = _drift_streams(run)
    wrappers = corpus_wrappers(run.root, sorted(set(streams.engine_ids)))
    order = streams.order()
    prep_s = perf_counter() - began
    info: Dict[str, Any] = {
        "env": environment(run.seed, 1, prep_s),
        "inputs_digest": digest_pages(
            (page.engine_id, page.query, page.markup) for _, page in order
        ),
        "streams": len(streams.pages),
        "pages": len(order),
    }
    work = run.scratch / f"checkpoints-{os.getpid()}"
    try:
        if trace:
            return _drift_heal_traced(run, wrappers, streams, order, work, info)
        return _drift_heal_timed(run, wrappers, streams, order, work, info)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _drift_heal_timed(
    run: Run,
    wrappers: Dict[int, dict],
    streams: _Streams,
    order: Sequence[Tuple[int, StreamPage]],
    work: Path,
    info: Dict[str, Any],
) -> Outcome:
    def one_pass(passes: _Passes) -> None:
        checkpoints = work / f"pass-{passes.count}"
        setup_s, monitors = _start_healing(wrappers, streams, checkpoints)
        start = perf_counter()
        served = [
            _timed_serve(monitors[number], page, passes.latencies)
            for number, page in order
        ]
        seconds = perf_counter() - start
        shutil.rmtree(checkpoints, ignore_errors=True)
        passes.record(setup_s, seconds, served, _docs(served), vm_hwm_mb())

    passes = _repeat(
        run, one_pass, lambda: _start_healing(wrappers, streams, work / "setup")[0]
    )
    return _finish(
        "drift_heal",
        passes,
        len(order),
        sum(1 for item in passes.first if item is None),
        _grade_pages(passes.first, [page for _, page in order]),
        info,
    )


def _drift_heal_traced(
    run: Run,
    wrappers: Dict[int, dict],
    streams: _Streams,
    order: Sequence[Tuple[int, StreamPage]],
    work: Path,
    info: Dict[str, Any],
) -> Outcome:
    _, warm_monitors = _start_healing(wrappers, streams, work / "warm")
    checkpoints = work / "traced"
    _, monitors = _start_healing(wrappers, streams, checkpoints)
    split, _, _ = _warm_then_split(
        [(warm_monitors[number], page) for number, page in order],
        [(monitors[number], page) for number, page in order],
    )

    detect: List[int] = []
    for number, monitor in enumerate(monitors):
        if not streams.drift_expected[number]:
            continue
        mutated = streams.mutate_at[number] - SAMPLE_PAGES
        drifts = [
            event["page"]
            for event in monitor.log.of_kind("drift")
            if event["page"] >= mutated
        ]
        if drifts:
            detect.append(drifts[0] - mutated)
    # Each re-induction used the last ``samples`` pages its monitor had
    # served, up to and including the page that logged it.
    sample_sets = []
    for number, monitor in enumerate(monitors):
        served = [(page.markup, page.query) for page in streams.pages[number]]
        for event in monitor.log.of_kind("reinduce"):
            sample_sets.append(served[: event["page"] + 1][-event["samples"] :])
    summaries = [monitor.summary() for monitor in monitors]
    usage = dir_usage(str(checkpoints))
    metrics = split.metrics()
    metrics.update(kernel_metrics())
    metrics.update(_pipeline_split(split.obs, sample_sets, split.mismatches))
    metrics.update(
        {
            "monitor.reinduce_ms": 1000.0 * mean(split.reinduce_s),
            "monitor.reinductions": mean([float(s.reinductions) for s in summaries]),
            "monitor.heals": mean([float(s.heals) for s in summaries]),
            "monitor.detect_pages": mean([float(pages) for pages in detect]),
            "artifacts.bytes": usage["bytes"],
            "artifacts.files": usage["files"],
        }
    )
    info["trace"] = _write_trace(run, "drift_heal", split.obs)
    return Outcome(split.attempted, split.failed, metrics, info, split.mismatches)


WORKLOADS = {
    "serve_stream": serve_stream,
    "pool_serve": pool_serve,
    "drift_heal": drift_heal,
}
