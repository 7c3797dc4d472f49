"""Warm persistent Server pool tests (lifecycle, parity, crash recovery)."""

import json
import os
import pathlib
import signal
import subprocess
import sys
import textwrap
from dataclasses import asdict

import pytest

from repro.core.mse import build_wrapper
from repro.core.verify import check_wrapper
from repro.perf.serve import compile_wrapper, extract_many
from repro.perf.server import Server, auto_chunksize
from tests.helpers import make_records, sample_pages, simple_result_page


@pytest.fixture(scope="module")
def engine():
    pages = sample_pages(
        ("apple", "banana", "cherry"), [("Web", 4), ("News", 3)]
    )
    return build_wrapper(pages)


@pytest.fixture(scope="module")
def compiled(engine):
    return compile_wrapper(engine)


def unseen_pages():
    """Unseen, evolved and markerless pages (the test_serve.py gauntlet)."""
    pages = [
        (
            simple_result_page(
                query,
                [
                    ("Web", make_records("Web", count, query)),
                    ("News", make_records("News", 3, query)),
                ],
            ),
            query,
        )
        for query, count in (("durian", 6), ("elderberry", 2), ("fig", 5))
    ]
    base, query = pages[0]
    # Evolved layouts: extra chrome, deeper wrap, renamed header, filler.
    pages.append(
        (
            base.replace(
                "<body>", "<body><div id='banner'><span>Ad</span></div>", 1
            ),
            query,
        )
    )
    pages.append(
        (
            base.replace("<body>", "<body><div class='wrap'>", 1).replace(
                "</body>", "</div></body>", 1
            ),
            query,
        )
    )
    pages.append(
        (base.replace("<ul>", "<ul><li>sponsored filler</li>", 1), query)
    )
    # One section legitimately absent, and a markerless drifted layout.
    pages.append(
        (
            simple_result_page(
                "grape", [("Web", make_records("Web", 4, "grape"))]
            ),
            "grape",
        )
    )
    pages.append(
        (
            "<html><body><table><tr><td>totally different "
            "layout</td></tr></table></body></html>",
            "kiwi",
        )
    )
    return pages


def extraction_doc(extraction):
    return json.dumps(asdict(extraction), sort_keys=True)


def served_doc(served):
    return extraction_doc(served.extraction) + json.dumps(
        served.health.to_obj(), sort_keys=True
    )


def serial_extract_docs(engine, pages):
    return [[extraction_doc(engine.extract(m, q))] for m, q in pages]


def pooled_extract_docs(results):
    return [[extraction_doc(e) for e in page] for page in results]


# -- the chunking heuristic ---------------------------------------------------


class TestAutoChunksize:
    def test_targets_four_chunks_per_worker(self):
        assert auto_chunksize(64, 4) == 4
        assert auto_chunksize(100, 4) == 7

    def test_small_batches_round_up_to_one(self):
        assert auto_chunksize(3, 4) == 1
        assert auto_chunksize(1, 1) == 1

    def test_capped_for_huge_batches(self):
        assert auto_chunksize(100_000, 2) == 64

    def test_degenerate_inputs(self):
        assert auto_chunksize(0, 4) == 1
        assert auto_chunksize(10, 0) == 1


# -- lifecycle ----------------------------------------------------------------


class TestLifecycle:
    def test_start_submit_close(self, engine):
        pages = unseen_pages()
        server = Server([engine], jobs=2)
        server.start()
        assert server.workers_alive == 2
        got = server.extract(pages)
        assert len(got) == len(pages)
        server.close()
        assert server.workers_alive == 0

    def test_close_is_idempotent_and_safe_before_start(self, engine):
        server = Server([engine])
        server.close()
        server.close()

    def test_closed_server_rejects_batches(self, engine):
        server = Server([engine], jobs=1)
        server.close()
        with pytest.raises(RuntimeError, match="closed"):
            server.extract(unseen_pages()[:1])
        with pytest.raises(RuntimeError, match="closed"):
            server.start()

    def test_needs_at_least_one_wrapper(self):
        with pytest.raises(ValueError, match="at least one wrapper"):
            Server([])

    def test_chunksize_validated(self, engine):
        with pytest.raises(ValueError, match="chunksize"):
            Server([engine], chunksize=0)

    def test_empty_batch_short_circuits(self, engine):
        with Server([engine], jobs=2) as server:
            assert server.extract([]) == []

    def test_context_manager_reuse_across_batches(self, engine):
        """Workers stay resident: two batches, same pool, same pids."""
        pages = unseen_pages()
        serial = serial_extract_docs(engine, pages)
        with Server([engine], jobs=2) as server:
            first = server.extract(pages)
            pids = sorted(p.pid for p in server._workers.values())
            second = server.extract(list(reversed(pages)))
            assert sorted(p.pid for p in server._workers.values()) == pids
        assert pooled_extract_docs(first) == serial
        assert pooled_extract_docs(second) == list(reversed(serial))


# -- parity -------------------------------------------------------------------


class TestParity:
    def test_extract_byte_parity_with_serial(self, engine, compiled):
        """Pooled == serial interpreted == serial compiled, byte for byte,
        on unseen, evolved and markerless pages."""
        pages = unseen_pages()
        serial = serial_extract_docs(engine, pages)
        fast = [[extraction_doc(compiled.extract(m, q))] for m, q in pages]
        assert fast == serial
        for jobs, chunksize in ((1, None), (2, None), (2, 1), (3, 2)):
            with Server([engine], jobs=jobs, chunksize=chunksize) as server:
                assert pooled_extract_docs(server.extract(pages)) == serial, (
                    jobs,
                    chunksize,
                )

    def test_serve_matches_check_wrapper(self, engine):
        pages = unseen_pages()
        reference = [
            extraction_doc(engine.extract(m, q))
            + json.dumps(check_wrapper(engine, m, q).to_obj(), sort_keys=True)
            for m, q in pages
        ]
        with Server([engine], jobs=2, chunksize=2) as server:
            served = server.serve(pages)
        assert [served_doc(page[0]) for page in served] == reference

    def test_priming_does_not_change_results(self, engine):
        pages = unseen_pages()
        serial = serial_extract_docs(engine, pages)
        with Server([engine], jobs=2, prime_pages=pages[:2]) as server:
            assert pooled_extract_docs(server.extract(pages)) == serial

    def test_wrapper_of_routes_pages(self, engine, compiled):
        pages = unseen_pages()[:4]
        with Server([engine, compiled], jobs=2) as server:
            got = server.extract(pages, wrapper_of=[1, 0, 1, 0])
        assert [len(page) for page in got] == [1, 1, 1, 1]
        serial = serial_extract_docs(engine, pages)
        assert pooled_extract_docs(got) == serial

    def test_wrapper_of_validated(self, engine):
        with Server([engine], jobs=1) as server:
            with pytest.raises(ValueError, match="one wrapper per page"):
                server.extract(unseen_pages()[:2], wrapper_of=[0])
            with pytest.raises(ValueError, match="out of range"):
                server.extract(unseen_pages()[:1], wrapper_of=[3])

    def test_deterministic_ordering(self, engine):
        """Result order matches page order on every run and chunking."""
        pages = unseen_pages() * 3
        serial = serial_extract_docs(engine, pages)
        with Server([engine], jobs=3, chunksize=1) as server:
            for _ in range(2):
                assert pooled_extract_docs(server.extract(pages)) == serial


# -- crash recovery -----------------------------------------------------------


class TestCrashRecovery:
    def test_respawn_no_lost_or_duplicate_pages(self, engine):
        pages = unseen_pages() * 2
        serial = serial_extract_docs(engine, pages)
        with Server([engine], jobs=2, chunksize=1) as server:
            victim = next(iter(server._workers.values()))
            os.kill(victim.pid, signal.SIGKILL)
            got = server.extract(pages)
            assert server.restarts >= 1
            assert server.workers_alive == 2
            assert pooled_extract_docs(got) == serial

    def test_stalled_worker_is_killed_and_replaced(self, engine, monkeypatch):
        """A silent-but-alive worker (wedged IPC) cannot deadlock a batch."""
        import repro.perf.server as server_mod

        monkeypatch.setattr(server_mod, "_STALL_POLLS", 5)
        pages = unseen_pages()
        serial = serial_extract_docs(engine, pages)
        with Server([engine], jobs=2, chunksize=1) as server:
            victim = next(iter(server._workers.values()))
            os.kill(victim.pid, signal.SIGSTOP)
            got = server.extract(pages)
            assert server.restarts >= 1
            assert server.workers_alive == 2
            assert pooled_extract_docs(got) == serial

    def test_restart_budget_enforced(self, engine, monkeypatch):
        import repro.perf.server as server_mod

        monkeypatch.setattr(server_mod, "_MAX_RESTARTS", 0)
        server = Server([engine], jobs=1)
        server.start()
        victim = next(iter(server._workers.values()))
        os.kill(victim.pid, signal.SIGKILL)
        with pytest.raises(RuntimeError, match="worker restarts"):
            server.extract(unseen_pages())
        assert server.workers_alive == 0

    def test_worker_death_while_priming_rebuilds_the_pool(
        self, engine, monkeypatch, tmp_path
    ):
        """start() recovers a worker that dies before it is primed."""
        import repro.perf.server as server_mod

        real_prime = server_mod._prime_worker
        flag = str(tmp_path / "crashed")

        def prime_or_crash_once(*args):
            try:
                os.close(os.open(flag, os.O_CREAT | os.O_EXCL))
            except FileExistsError:
                return real_prime(*args)
            os._exit(1)

        # forked workers inherit the patched module global
        monkeypatch.setattr(server_mod, "_prime_worker", prime_or_crash_once)
        pages = unseen_pages()
        serial = serial_extract_docs(engine, pages)
        with Server([engine], jobs=2, prime_pages=pages[:1]) as server:
            assert server.restarts == 1
            assert server.workers_alive == 2
            assert pooled_extract_docs(server.extract(pages)) == serial

    def test_interrupted_batch_never_leaks_into_the_next(self, engine):
        """Chunks left in flight by an interrupted batch are rebuilt away."""
        pages = unseen_pages()
        serial = serial_extract_docs(engine, pages)
        with Server([engine], jobs=2, chunksize=1) as server:
            real_poll = server._poll

            def interrupt():
                server._poll = real_poll
                raise KeyboardInterrupt

            server._poll = interrupt
            with pytest.raises(KeyboardInterrupt):
                server.extract(list(reversed(pages)))
            # two chunks were in flight; the next batch has one slot
            got = server.extract(pages[:1])
            assert pooled_extract_docs(got) == serial[:1]
            assert server.restarts == 1

    def test_recovery_never_blocks_interpreter_exit(self):
        """A chunk too big for the pipe, queued to a worker that died,
        must not hang the parent's exit on the discarded queue."""
        script = textwrap.dedent(
            """
            import os, signal
            from repro.core.mse import build_wrapper
            from repro.perf.server import Server
            from tests.helpers import sample_pages

            engine = build_wrapper(
                sample_pages(("apple", "banana"), [("Web", 3)])
            )
            server = Server([engine], jobs=1).start()
            victim = next(iter(server._workers.values()))
            os.kill(victim.pid, signal.SIGKILL)
            victim.join()
            big = "<html><body>" + "<p>filler text</p>" * 8000
            server.extract([(big + "</body></html>", "apple")])
            server.close()
            assert server.restarts == 1
            """
        )
        root = pathlib.Path(__file__).resolve().parent.parent
        env = dict(
            os.environ,
            PYTHONPATH=os.pathsep.join([str(root / "src"), str(root)]),
        )
        result = subprocess.run(
            [sys.executable, "-c", script],
            cwd=str(root),
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert result.returncode == 0, result.stderr[-2000:]


# -- error propagation --------------------------------------------------------


class TestErrors:
    def test_worker_exception_raises_with_traceback(self, engine):
        with Server([engine], jobs=1) as server:
            with pytest.raises(RuntimeError, match="failed on chunk"):
                server.extract([(None, "boom")])

    def test_pool_reusable_after_error(self, engine):
        """A failed batch drains its in-flight chunks; it never recovers,
        and none of its chunks leak into the next batch."""
        pages = unseen_pages()
        serial = serial_extract_docs(engine, pages)
        with Server([engine], jobs=2, chunksize=1) as server:
            pids = sorted(p.pid for p in server._workers.values())
            with pytest.raises(RuntimeError, match="failed on chunk"):
                server.extract([(None, "boom")] + pages)
            assert server.restarts == 0
            assert sorted(p.pid for p in server._workers.values()) == pids
            assert pooled_extract_docs(server.extract(pages)) == serial


# -- telemetry ----------------------------------------------------------------


class TestTelemetry:
    def test_worker_stats_report_priming_and_final_warmth(self, engine):
        pages = unseen_pages()
        with Server([engine], jobs=2, prime_pages=pages[:3]) as server:
            server.extract(pages)
        assert set(server.worker_stats) == {0, 1}
        for stats in server.worker_stats.values():
            assert stats["prime_pages"] == 3
            assert "tree_memo" in stats["primed"]
            assert "dinr_memo" in stats["final"]

    def test_final_stats_survive_a_poll_timeout_after_worker_exit(
        self, engine
    ):
        """A worker queues its final stats and exits; if the parent's
        poll times out before reading them, close() must still find
        them on the queue instead of giving up on the dead worker."""
        server = Server([engine], jobs=2)
        server.start()
        real_poll = server._poll
        timed_out = []

        def poll_after_exit():
            if not timed_out:
                timed_out.append(True)
                for proc in server._workers.values():
                    proc.join(timeout=30)
                assert not any(
                    proc.is_alive() for proc in server._workers.values()
                )
                return None
            return real_poll()

        server._poll = poll_after_exit
        server.close()
        assert timed_out
        assert set(server.worker_stats) == {0, 1}
        for stats in server.worker_stats.values():
            assert "dinr_memo" in stats["final"]

    def test_observer_merges_worker_metrics(self, engine):
        from repro.obs import Observer

        obs = Observer()
        pages = unseen_pages()
        with Server(
            [engine], jobs=2, prime_pages=pages[:1], obs=obs
        ) as server:
            server.serve(pages)
        doc = obs.stats()
        metrics = doc["metrics"]
        gauges = metrics["gauges"]
        assert gauges["server.workers"] == 2.0
        assert "server.chunksize" in gauges
        assert any(
            name.startswith("server.worker.") and name.endswith("hit_rate")
            for name in gauges
        )
        assert metrics["counters"]["serve.pages"] == len(pages)


# -- the extract_many shim ----------------------------------------------------


class TestExtractManyShim:
    def test_jobs1_never_touches_the_pool(self, engine, monkeypatch):
        """The serial short-circuit must not even construct a Server."""
        import repro.perf.server as server_mod

        def explode(*args, **kwargs):
            raise AssertionError("jobs=1 must not build a Server")

        monkeypatch.setattr(server_mod, "Server", explode)
        pages = unseen_pages()
        serial = serial_extract_docs(engine, pages)
        got = extract_many(pages, [engine], jobs=1)
        assert pooled_extract_docs(got) == serial
        # A single page also short-circuits, whatever jobs says.
        got = extract_many(pages[:1], [engine], jobs=4)
        assert pooled_extract_docs(got) == serial[:1]

    def test_pooled_shim_matches_serial(self, engine):
        pages = unseen_pages()
        serial = serial_extract_docs(engine, pages)
        got = extract_many(pages, [engine], jobs=2, chunksize=2)
        assert pooled_extract_docs(got) == serial
