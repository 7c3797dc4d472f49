"""Warm persistent serving workers: the long-lived batch pool.

:func:`repro.perf.serve.extract_many` answers *one* batch, but it used
to pay the whole pool tax per call: fork workers, re-compile every
wrapper inside each of them, start with cold ``TREE_MEMO`` /
``FOREST_MEMO`` / ``DINR_MEMO`` caches, and ship one page per IPC
round-trip.  ``BENCH_serve.json`` recorded the result — a 4-worker pool
*losing* to one warm thread.

:class:`Server` keeps the pool alive instead:

- **Spawn once.**  Workers are forked at :meth:`Server.start` (or on
  first use) and stay resident across calls.  Each worker wraps the
  engine wrappers once and then runs a *priming pass* over caller-chosen
  representative pages, so the per-process kernel memos and interners
  are warm before the first real batch arrives.  Per-worker cache
  warmth is reported back (``server.worker.*`` gauges and
  :attr:`Server.worker_stats`) so benchmarks can show the
  cold-vs-warm delta next to pages/sec.
- **Amortize IPC.**  Batches are split into chunks sized by
  :func:`auto_chunksize` (the classic ``len(pages) / (workers * 4)``
  heuristic, capped) and dispatched one chunk per idle worker, so the
  per-message cost spreads over many pages while the tail stays
  balanced.
- **Degrade, don't lose.**  The parent polls worker liveness while it
  collects results.  One recovery path covers every fault: when a
  worker is found dead, or the pool stays silent for a whole stall
  window (a stopped worker, or a result queue poisoned by a worker
  killed mid-write), the parent SIGKILLs every worker, requeues the
  in-flight chunks and respawns the pool on fresh result and task
  queues.  A fresh queue means no message from before the rebuild can
  ever be read, so a retried chunk lands exactly once in its
  chunk-indexed slot: a crash costs throughput, never a page, never a
  duplicate, never the ordering.  Each rebuild spends one unit of a
  fixed restart budget; once it is spent the server closes and raises.
  A chunk that *raises* is not a fault of the pool: the batch stops
  dispatching, drains the chunks still in flight and then raises, so
  nothing of a failed batch can reach the next one.

Results are bit-identical to the serial serving path (and therefore to
the interpreted :meth:`~repro.core.wrapper.EngineWrapper.extract` /
``check_wrapper`` pair): workers run the exact same
:class:`~repro.perf.serve.CompiledWrapper` code on the exact same
render, and the parity suite asserts it.

Per-worker observability rides the same protocol: when the caller's
observer is enabled each worker keeps its own
:class:`~repro.obs.Observer`, and at :meth:`Server.close` the worker
stats documents merge back through :meth:`Observer.merge_stats` (spans
graft, counters add, metrics fold via
:meth:`MetricsRegistry.merge_snapshot`).

Fork-safety and pickle-safety of this module are enforced by the flow
rules (MP01/MP02): the worker entry points are registered in
:data:`repro.analysis.registry.POOL_WORKER_ENTRYPOINTS`, and the only
globals workers touch are the registered process-local memos.
"""

from __future__ import annotations

import gc
import multiprocessing
import traceback
from collections import deque
from queue import Empty
from typing import (
    Any,
    Callable,
    Deque,
    Dict,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from repro.core.model import PageExtraction
from repro.core.wrapper import EngineWrapper
from repro.obs import NULL_OBSERVER, Observer, ObserverLike
from repro.perf.kernels import kernel_cache_stats
from repro.perf.serve import (
    CompiledWrapper,
    ServedPage,
    assign_wrappers,
    build_page_index,
)

#: one unit of worker work: (markup, query, wrapper ids to apply)
_PageTask = Tuple[str, str, Tuple[int, ...]]

#: a chunk of page tasks shipped in one IPC message
_Chunk = Tuple[_PageTask, ...]

#: batch modes (what the worker runs per page)
_MODE_EXTRACT = "extract"
_MODE_SERVE = "serve"

#: seconds between liveness checks while waiting on the result queue
_POLL_SECONDS = 0.05

#: consecutive empty polls (~60 s at _POLL_SECONDS) before the parent
#: assumes the worker IPC is wedged — fork can copy a queue mid-write
#: on a loaded box — and rebuilds the pool instead of polling forever
_STALL_POLLS = 1200

#: pool rebuilds a Server may spend before it closes and raises
_MAX_RESTARTS = 8

#: auto_chunksize targets this many chunks per worker (the stdlib
#: Pool heuristic): enough slack for work stealing without paying
#: per-page IPC
_CHUNKS_PER_WORKER = 4

#: auto_chunksize cap so huge batches still stream progress
_MAX_CHUNKSIZE = 64


def auto_chunksize(page_count: int, workers: int) -> int:
    """Chunk size amortizing IPC for ``page_count`` pages on ``workers``.

    Mirrors ``multiprocessing.Pool``'s heuristic — about
    ``_CHUNKS_PER_WORKER`` chunks per worker so stragglers can steal
    work — capped at ``_MAX_CHUNKSIZE`` pages per message so one chunk
    never serializes an unbounded payload.
    """
    if page_count <= 0 or workers <= 0:
        return 1
    chunk, extra = divmod(page_count, workers * _CHUNKS_PER_WORKER)
    if extra:
        chunk += 1
    return max(1, min(chunk, _MAX_CHUNKSIZE))


def _prime_worker(
    compiled: Sequence[CompiledWrapper],
    prime_tasks: Sequence[_PageTask],
    obs: ObserverLike,
) -> int:
    """Warm this process's kernel memos: serve every priming page.

    ``serve_index`` exercises strictly more of the hot path than
    ``extract_index`` (extraction *and* the DINR/health kernels), so
    priming through it warms every memo a later batch can hit.  The
    served results are discarded — only the cache side effects matter.
    """
    primed = 0
    for markup, query, wrapper_ids in prime_tasks:
        index = build_page_index(markup, query, obs=obs)
        for wrapper_id in wrapper_ids:
            compiled[wrapper_id].serve_index(index, obs=obs)
        primed += 1
    return primed


def _run_chunk(
    compiled: Sequence[CompiledWrapper],
    mode: str,
    chunk: _Chunk,
    obs: ObserverLike,
) -> List[List[Any]]:
    """Serve or extract every page of one chunk, in chunk order."""
    payload: List[List[Any]] = []
    for markup, query, wrapper_ids in chunk:
        index = build_page_index(markup, query, obs=obs)
        if mode == _MODE_SERVE:
            payload.append(
                [
                    compiled[wrapper_id].serve_index(index, obs=obs)
                    for wrapper_id in wrapper_ids
                ]
            )
        else:
            payload.append(
                [
                    compiled[wrapper_id].extract_index(index, obs=obs)
                    for wrapper_id in wrapper_ids
                ]
            )
    return payload


def _worker_main(
    worker_id: int,
    engines: Sequence[EngineWrapper],
    prime_tasks: Sequence[_PageTask],
    observed: bool,
    tasks: Any,
    results: Any,
) -> None:
    """Resident worker loop: compile, prime, then serve chunks forever.

    Protocol (messages on ``results``):

    - ``("primed", worker_id, prime_pages, kernel_stats)`` once the
      wrappers are compiled and the priming pass has run;
    - ``("done", worker_id, chunk_id, payload)`` per completed chunk;
    - ``("error", worker_id, chunk_id, formatted_traceback)`` when a
      chunk raises — the worker stays alive for the next chunk;
    - ``("stats", worker_id, stats_doc, kernel_stats)`` in response to
      the ``None`` shutdown sentinel, after which the worker exits.
    """
    obs: ObserverLike = Observer() if observed else NULL_OBSERVER
    compiled = [CompiledWrapper(engine) for engine in engines]
    primed = _prime_worker(compiled, prime_tasks, obs)
    # The serving wrappers and primed memos are permanent for this
    # worker's lifetime; freeze them out of the cyclic GC so later
    # collections never re-scan the (large) warm cache population.
    gc.collect()
    gc.freeze()
    results.put(("primed", worker_id, primed, kernel_cache_stats()))
    while True:
        message = tasks.get()
        if message is None:
            stats_doc = obs.stats() if isinstance(obs, Observer) else None
            results.put(("stats", worker_id, stats_doc, kernel_cache_stats()))
            return
        chunk_id, mode, chunk = message
        try:
            payload = _run_chunk(compiled, mode, chunk, obs)
        except Exception:
            results.put(("error", worker_id, chunk_id, traceback.format_exc()))
            continue
        results.put(("done", worker_id, chunk_id, payload))


class Server:
    """A long-lived pool of pre-warmed serving workers.

    ``wrappers`` may mix plain :class:`EngineWrapper` and
    :class:`CompiledWrapper` (workers compile their own copies).
    ``prime_pages`` — optional representative ``(markup, query)`` pairs
    — are served once by *every* worker at spawn to warm its kernel
    memos; ``prime_of`` restricts each priming page to one wrapper, the
    same shape as ``wrapper_of``.

    Use as a context manager, or call :meth:`close`::

        with Server(wrappers, jobs=4, prime_pages=samples) as server:
            extractions = server.extract(pages, wrapper_of=owners)
            served = server.serve(more_pages, wrapper_of=owners)

    Batches may be submitted repeatedly; workers stay resident (that is
    the point).  Results are deterministic and bit-identical to the
    serial serving path regardless of ``jobs``/``chunksize``; a worker
    crash is detected, the pool rebuilt and the in-flight chunks
    retried, so pages are never lost or duplicated.
    """

    def __init__(
        self,
        wrappers: Sequence[Union[EngineWrapper, CompiledWrapper]],
        jobs: int = 1,
        chunksize: Optional[int] = None,
        prime_pages: Sequence[Tuple[str, str]] = (),
        prime_of: Optional[Sequence[int]] = None,
        obs: ObserverLike = NULL_OBSERVER,
    ) -> None:
        if not wrappers:
            raise ValueError("Server needs at least one wrapper")
        if chunksize is not None and chunksize < 1:
            raise ValueError("chunksize must be >= 1")
        self.jobs = max(1, jobs)
        self.chunksize = chunksize
        self.obs = obs
        self.restarts = 0
        #: per-worker telemetry: {"prime_pages", "primed", "final", ...}
        self.worker_stats: Dict[int, Dict[str, Any]] = {}
        self._engines: List[EngineWrapper] = [
            wrapper.engine if isinstance(wrapper, CompiledWrapper) else wrapper
            for wrapper in wrappers
        ]
        prime_ids = assign_wrappers(
            len(prime_pages), prime_of, len(self._engines)
        )
        self._prime: Tuple[_PageTask, ...] = tuple(
            (markup, query, wrapper_ids)
            for (markup, query), wrapper_ids in zip(prime_pages, prime_ids)
        )
        self._observed = bool(getattr(obs, "enabled", False))
        self._ctx = multiprocessing.get_context()
        self._result_queue: Any = None
        self._workers: Dict[int, Any] = {}
        self._task_queues: Dict[int, Any] = {}
        self._primed: Set[int] = set()
        #: worker id -> chunk id of its in-flight chunk
        self._busy: Dict[int, int] = {}
        self._next_worker_id = 0
        self._started = False
        self._closed = False
        # per-batch state (reset by _run_batch)
        self._chunks: List[_Chunk] = []
        self._pending: Deque[int] = deque()
        #: chunk id -> its per-page results, once done
        self._slots: List[Optional[List[List[Any]]]] = []
        #: first chunk error of the batch; stops dispatch until drained
        self._failure: Optional[str] = None
        self._mode: str = _MODE_EXTRACT

    # -- lifecycle ------------------------------------------------------
    def __enter__(self) -> "Server":
        self.start()
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    @property
    def workers_alive(self) -> int:
        """Live worker processes right now (crash tests poke at this)."""
        return sum(1 for proc in self._workers.values() if proc.is_alive())

    def start(self) -> "Server":
        """Spawn and prime the pool; idempotent; blocks until warm."""
        if self._closed:
            raise RuntimeError("Server is closed")
        if self._started:
            return self
        self._started = True
        with self.obs.span("server.start"):
            self._spawn()
            self._pump(lambda: len(self._primed) == len(self._workers))
            self.obs.gauge("server.workers", float(len(self._workers)))
        return self

    def close(self) -> None:
        """Shut the pool down: drain stats, merge telemetry, join."""
        if self._closed:
            return
        self._closed = True
        if not self._started:
            return
        for worker_id in sorted(self._task_queues):
            self._task_queues[worker_id].put(None)
        waiting = {
            worker_id
            for worker_id, proc in self._workers.items()
            if proc.is_alive()
        }
        silent = 0
        while waiting:
            message = self._poll()
            if message is None:
                silent += 1
                if silent >= _STALL_POLLS:
                    break  # wedged workers: the join/kill below cleans up
                dead = {
                    worker_id
                    for worker_id in waiting
                    if not self._workers[worker_id].is_alive()
                }
                if not dead:
                    continue
                # A worker queues its final stats and then exits, so a
                # dead worker's stats may still be on the queue: read
                # everything already there before giving up on it.
                messages = self._drain()
                waiting -= dead
            else:
                silent = 0
                messages = [message]
            for message in messages:
                if message[0] == "stats":
                    self._on_final_stats(message[1], message[2], message[3])
                    waiting.discard(message[1])
                # late "done"/"error"/"primed" messages are harmless here
        self._stop_workers(grace=5)
        self.obs.gauge("server.restarts", float(self.restarts))

    # -- the public batch API -------------------------------------------
    def extract(
        self,
        pages: Sequence[Tuple[str, str]],
        wrapper_of: Optional[Sequence[int]] = None,
    ) -> List[List[PageExtraction]]:
        """Batch extraction across the pool; order matches ``pages``."""
        return self._run_batch(pages, wrapper_of, _MODE_EXTRACT)

    def serve(
        self,
        pages: Sequence[Tuple[str, str]],
        wrapper_of: Optional[Sequence[int]] = None,
    ) -> List[List[ServedPage]]:
        """Batch serving (extraction + health) across the pool."""
        return self._run_batch(pages, wrapper_of, _MODE_SERVE)

    # -- internals ------------------------------------------------------
    def _spawn(self) -> None:
        """Start ``jobs`` workers on a fresh result queue and task queues."""
        self._result_queue = self._ctx.Queue()
        for _ in range(self.jobs):
            worker_id = self._next_worker_id
            self._next_worker_id += 1
            task_queue = self._ctx.Queue()
            proc = self._ctx.Process(
                target=_worker_main,
                args=(
                    worker_id,
                    self._engines,
                    self._prime,
                    self._observed,
                    task_queue,
                    self._result_queue,
                ),
            )
            proc.daemon = True
            proc.start()
            self._task_queues[worker_id] = task_queue
            self._workers[worker_id] = proc

    def _stop_workers(self, grace: float) -> None:
        """Join every worker, SIGKILLing any still alive after ``grace`` s."""
        for proc in self._workers.values():
            proc.join(timeout=grace)
            if proc.is_alive():
                # SIGKILL, not SIGTERM: a wedged (or stopped) worker may
                # never get to deliver a catchable signal.
                proc.kill()
                proc.join()
        self._workers.clear()
        self._task_queues.clear()
        self._primed.clear()
        self._busy.clear()

    def _poll(self) -> Optional[Tuple[Any, ...]]:
        """One result-queue read; ``None`` means check liveness."""
        try:
            message: Tuple[Any, ...] = self._result_queue.get(
                timeout=_POLL_SECONDS
            )
        except Empty:
            return None
        return message

    def _drain(self) -> List[Tuple[Any, ...]]:
        """Every message already on the result queue, without blocking."""
        messages: List[Tuple[Any, ...]] = []
        while True:
            try:
                messages.append(self._result_queue.get_nowait())
            except Empty:
                return messages

    def _recover(self) -> None:
        """Rebuild the whole pool on fresh queues; retry in-flight chunks.

        The one recovery path, for a dead worker and for a silent pool
        alike.  Per-worker respawn cannot fix a *poisoned result queue*
        — a worker killed between writing its message bytes and
        releasing the queue's shared write lock leaves that semaphore
        held forever, wedging every other worker — so: SIGKILL every
        worker, put the in-flight chunks back at the front of the
        pending deque, and respawn the pool on fresh queues.  No message
        from before the rebuild can be read afterwards, so a retried
        chunk can never land twice.  Costs one re-prime and one unit of
        the restart budget; a fault that persists across
        ``_MAX_RESTARTS`` rebuilds closes the server and raises rather
        than looping.
        """
        for task_queue in self._task_queues.values():
            # a chunk still buffered for a dead reader must not block
            # interpreter exit on the queue's feeder thread
            task_queue.cancel_join_thread()
        in_flight = sorted(self._busy.values(), reverse=True)
        self._stop_workers(grace=0)
        self._pending.extendleft(in_flight)
        self.restarts += 1
        if self.restarts > _MAX_RESTARTS:
            self._closed = True
            raise RuntimeError(
                f"Server exceeded {_MAX_RESTARTS} worker restarts"
            )
        self._spawn()

    def _on_primed(
        self, worker_id: int, prime_pages: int, kernel_stats: Dict[str, Any]
    ) -> None:
        self._primed.add(worker_id)
        stats = self.worker_stats.setdefault(worker_id, {})
        stats["prime_pages"] = prime_pages
        if self.obs.enabled:
            self.obs.gauge(
                f"server.worker.{worker_id}.prime_pages", float(prime_pages)
            )
        self._record_warmth(worker_id, "primed", kernel_stats)

    def _on_final_stats(
        self,
        worker_id: int,
        stats_doc: Optional[Dict[str, Any]],
        kernel_stats: Dict[str, Any],
    ) -> None:
        if stats_doc is not None:
            merge = getattr(self.obs, "merge_stats", None)
            if merge is not None:
                merge(stats_doc)
        self._record_warmth(worker_id, "final", kernel_stats)

    def _record_warmth(
        self, worker_id: int, phase: str, kernel_stats: Dict[str, Any]
    ) -> None:
        """Store one worker's kernel-cache stats; gauge each hit rate."""
        self.worker_stats.setdefault(worker_id, {})[phase] = kernel_stats
        if not self.obs.enabled:
            return
        for cache, cache_stats in kernel_stats.items():
            rate = cache_stats.get("hit_rate")
            if rate is not None:
                self.obs.gauge(
                    f"server.worker.{worker_id}.{phase}.{cache}.hit_rate",
                    float(rate),
                )

    def _dispatch(self) -> None:
        """Hand one pending chunk to every idle worker, unless one failed."""
        if self._failure is not None:
            return
        for worker_id, task_queue in sorted(self._task_queues.items()):
            if not self._pending:
                return
            if worker_id in self._busy:
                continue
            chunk_id = self._pending.popleft()
            task_queue.put((chunk_id, self._mode, self._chunks[chunk_id]))
            self._busy[worker_id] = chunk_id

    def _pump(self, finished: Callable[[], bool]) -> None:
        """Dispatch, collect and recover until ``finished()`` holds.

        The pool's one event loop: :meth:`start` runs it until every
        worker is primed, a batch until every chunk is done (or, after
        an error, until no chunk is in flight).  An empty poll that
        finds a dead worker, or ``_STALL_POLLS`` empty polls in a row,
        rebuilds the pool through :meth:`_recover`.
        """
        silent = 0
        while not finished():
            self._dispatch()
            message = self._poll()
            if message is None:
                silent += 1
                if silent >= _STALL_POLLS or not all(
                    proc.is_alive() for proc in self._workers.values()
                ):
                    silent = 0
                    self._recover()
                continue
            silent = 0
            kind, worker_id = message[0], message[1]
            if kind == "primed":
                self._on_primed(worker_id, message[2], message[3])
            elif kind == "done":
                del self._busy[worker_id]
                self._slots[message[2]] = message[3]
            elif kind == "error":
                del self._busy[worker_id]
                if self._failure is None:
                    self._failure = (
                        f"server worker {worker_id} failed on chunk "
                        f"{message[2]}:\n{message[3]}"
                    )

    def _run_batch(
        self,
        pages: Sequence[Tuple[str, str]],
        wrapper_of: Optional[Sequence[int]],
        mode: str,
    ) -> List[List[Any]]:
        if self._closed:
            raise RuntimeError("Server is closed")
        assignments = assign_wrappers(
            len(pages), wrapper_of, len(self._engines)
        )
        if not pages:
            return []
        self.start()
        obs = self.obs
        with obs.span("server.batch"):
            if self._busy:
                # An interrupted batch left chunks in flight: rebuild so
                # none of their results can land in this batch's slots.
                self._recover()
            size = self.chunksize or auto_chunksize(len(pages), self.jobs)
            tasks: List[_PageTask] = [
                (markup, query, wrapper_ids)
                for (markup, query), wrapper_ids in zip(pages, assignments)
            ]
            self._mode = mode
            self._chunks = [
                tuple(tasks[start : start + size])
                for start in range(0, len(tasks), size)
            ]
            self._pending = deque(range(len(self._chunks)))
            self._slots = [None] * len(self._chunks)
            self._failure = None
            obs.gauge("server.chunksize", float(size))
            self._pump(
                lambda: not self._busy
                and (self._failure is not None or not self._pending)
            )
            slots, self._chunks, self._slots = self._slots, [], []
            if self._failure is not None:
                raise RuntimeError(self._failure)
            obs.count("serve.pages", len(pages))
            results: List[List[Any]] = []
            for chunk_results in slots:
                assert chunk_results is not None  # every chunk completed
                results.extend(chunk_results)
            return results
