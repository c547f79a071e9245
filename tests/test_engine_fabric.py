"""Unit tests of the queue execution fabric.

Covers the :class:`~repro.engine.broker.FileBroker` transport, the
``python -m repro.engine.worker`` entrypoint, the
:class:`~repro.engine.QueueExecutor` supervision paths (stale-claim
requeue, dead-fleet inline fallback, error propagation).  The
byte-identity of the queue engine against the serial reference is
pinned alongside the other executors in
``tests/test_perf_equivalence.py``.
"""

from __future__ import annotations

import subprocess
import sys
import time

import pytest

from repro import counters
from repro.engine import (
    ENGINES,
    Broker,
    EngineStats,
    FileBroker,
    QueueExecutor,
    RunRequest,
    create_executor,
    execute_request,
    shared_cache,
    worker_identity,
)
from repro.engine import queue_exec
from repro.engine.worker import (
    decode_result,
    decode_task,
    encode_task,
    serve,
)
from repro.exceptions import ConfigurationError


def _square(base, *, seed):
    """Module-level runner: deterministic in (payload, seed)."""
    return base + seed * seed


def _boom(message, *, seed):
    """Module-level runner that always fails."""
    raise ValueError(f"{message} (seed={seed})")


def _requests(count, base=100):
    return [
        RunRequest(fn=_square, payload=(base,), seed=s, tag=s)
        for s in range(count)
    ]


class TestFileBroker:
    def test_satisfies_the_protocol(self, tmp_path):
        assert isinstance(FileBroker(tmp_path), Broker)

    def test_submit_claim_complete_roundtrip(self, tmp_path):
        broker = FileBroker(tmp_path)
        broker.submit("t1", b"payload-1")
        assert broker.pending_tasks() == 1
        claimed = broker.claim("w1")
        assert claimed == ("t1", b"payload-1")
        assert broker.pending_tasks() == 0
        assert broker.claim("w2") is None  # at most one claimant
        broker.complete("t1", b"result-1")
        assert broker.fetch_result("t1") == b"result-1"
        assert broker.fetch_result("t1") is None  # consumed exactly once

    def test_claim_order_is_lexicographic(self, tmp_path):
        broker = FileBroker(tmp_path)
        for task_id in ("c-002", "c-000", "c-001"):
            broker.submit(task_id, task_id.encode())
        order = [broker.claim("w")[0] for _ in range(3)]
        assert order == ["c-000", "c-001", "c-002"]

    def test_requeue_returns_claimed_task(self, tmp_path):
        broker = FileBroker(tmp_path)
        broker.submit("t1", b"p")
        broker.claim("w1")
        assert broker.requeue("t1") is True
        assert broker.claim("w2") == ("t1", b"p")
        broker.complete("t1", b"r")
        assert broker.requeue("t1") is False  # completed: nothing to requeue

    def test_heartbeat_and_liveness(self, tmp_path):
        broker = FileBroker(tmp_path)
        broker.heartbeat("w1")
        assert broker.live_workers(horizon=30.0) == ["w1"]
        assert broker.live_workers(horizon=0.0) == []

    def test_stale_claims_follow_owner_heartbeat(self, tmp_path):
        from conftest import wait_for

        broker = FileBroker(tmp_path)
        broker.submit("t1", b"p")
        broker.heartbeat("w1")
        broker.claim("w1")
        assert broker.stale_claims(horizon=30.0) == []
        wait_for(
            lambda: broker.stale_claims(horizon=0.01) == ["t1"],
            message="the heartbeat to age past the horizon",
        )

    def test_discard_withdraws_queued_and_results(self, tmp_path):
        broker = FileBroker(tmp_path)
        broker.submit("t1", b"p")
        assert broker.discard("t1") is True
        assert broker.claim("w1") is None  # withdrawn before any claim
        broker.submit("t2", b"p")
        broker.claim("w1")
        assert broker.discard("t2") is False  # claimed: left in flight
        broker.complete("t2", b"r")
        assert broker.discard("t2") is True  # uncollected result dropped
        assert broker.fetch_result("t2") is None

    def test_claim_resets_staleness_clock(self, tmp_path):
        # os.replace preserves the submit-time mtime; claim() must
        # restamp it or a task that waited in the queue looks instantly
        # stale to ownerless-claim aging.
        broker = FileBroker(tmp_path)
        broker.submit("t1", b"p")
        time.sleep(0.05)  # deliberate window: ages the submit mtime itself
        broker.heartbeat("w1")
        broker.claim("w1")
        assert broker.stale_claims(horizon=0.04) == []

    def test_stop_flag(self, tmp_path):
        broker = FileBroker(tmp_path)
        assert not broker.stop_requested()
        broker.request_stop()
        assert broker.stop_requested()

    def test_rejects_path_escaping_task_ids(self, tmp_path):
        broker = FileBroker(tmp_path)
        with pytest.raises(ConfigurationError):
            broker.submit("../evil", b"p")

    def test_worker_identity_unique(self):
        assert worker_identity() != worker_identity()


class TestWorkerServe:
    """serve() in-process: the loop the subprocess entrypoint runs."""

    def test_executes_chunks_and_reports_deltas(self, tmp_path):
        broker = FileBroker(tmp_path)
        requests = _requests(4)
        assert decode_task(encode_task(requests)) == tuple(requests)
        broker.submit("t1", encode_task(requests))
        broker.request_stop()
        assert serve(broker, max_tasks=1) == 1
        results, counts = decode_result(broker.fetch_result("t1"))
        assert list(results) == [execute_request(r) for r in requests]
        # One named delta per registry counter, every one an EngineStats
        # field; these toy runners touch no cache and never retry.
        assert set(counts) == set(counters.COUNTERS)
        assert set(counts) <= set(EngineStats().cache_info())
        assert all(count == 0 for count in counts.values())

    def test_error_payload_carries_the_traceback(self, tmp_path):
        broker = FileBroker(tmp_path)
        broker.submit(
            "t1",
            encode_task([RunRequest(fn=_boom, payload=("kaboom",), seed=9)]),
        )
        assert serve(broker, max_tasks=1) == 1
        with pytest.raises(RuntimeError, match="kaboom \\(seed=9\\)"):
            decode_result(broker.fetch_result("t1"))

    def test_stop_flag_ends_the_loop(self, tmp_path):
        broker = FileBroker(tmp_path)
        broker.request_stop()
        assert serve(broker) == 0

    def test_max_idle_ends_the_loop(self, tmp_path):
        broker = FileBroker(tmp_path)
        start = time.monotonic()
        assert serve(broker, max_idle=0.05, poll_interval=0.01) == 0
        assert time.monotonic() - start < 5.0

    def test_subprocess_entrypoint(self, tmp_path):
        """python -m repro.engine.worker drains a spool and exits."""
        broker = FileBroker(tmp_path)
        broker.submit("t1", encode_task(_requests(3)))
        broker.request_stop()  # drain, then exit
        completed = subprocess.run(
            [
                sys.executable,
                "-m",
                "repro.engine.worker",
                "--broker",
                str(tmp_path),
                "--max-tasks",
                "1",
            ],
            capture_output=True,
            text=True,
            timeout=120,
            env={"PYTHONPATH": ":".join(p for p in sys.path if p)},
        )
        assert completed.returncode == 0, completed.stderr
        assert "1 task(s) executed" in completed.stdout
        results, *_ = decode_result(broker.fetch_result("t1"))
        assert list(results) == [execute_request(r) for r in _requests(3)]


class _FlakyHeartbeatBroker:
    """Delegates to a real broker; the first ``failures`` beats fail."""

    def __init__(self, broker, failures):
        self._broker = broker
        self.failures = failures
        self.beats = 0

    def heartbeat(self, worker_id):
        self.beats += 1
        if self.beats <= self.failures:
            raise OSError("injected beat failure")
        self._broker.heartbeat(worker_id)

    def __getattr__(self, name):
        return getattr(self._broker, name)


_DRAIN = None  # set by test_drain_finishes_the_claimed_chunk


def _set_drain_flag(base, *, seed):
    """Module-level runner that requests a drain from inside a chunk."""
    _DRAIN.set()
    return base + seed * seed


class TestWorkerResilience:
    def test_heartbeat_failures_do_not_kill_the_worker(self, tmp_path):
        """A broker that rejects beats must not cost liveness or work."""
        broker = _FlakyHeartbeatBroker(FileBroker(tmp_path), failures=1000)
        broker.submit("t1", encode_task(_requests(2)))
        assert serve(broker, max_tasks=1, heartbeat_interval=0.005) == 1
        assert broker.fetch_result("t1") is not None

    def test_beater_backs_off_and_recovers(self, tmp_path):
        """The beat thread retries past failures instead of giving up."""
        broker = _FlakyHeartbeatBroker(FileBroker(tmp_path), failures=2)
        assert (
            serve(
                broker,
                heartbeat_interval=0.005,
                poll_interval=0.005,
                max_idle=0.25,
            )
            == 0
        )
        # it kept beating after (and despite) the injected failures
        assert broker.beats > broker.failures

    def test_serve_deregisters_on_exit(self, tmp_path):
        broker = FileBroker(tmp_path)
        broker.request_stop()
        serve(broker, worker_id="w-gone")
        assert broker.live_workers(60.0) == []

    def test_drain_finishes_the_claimed_chunk(self, tmp_path):
        """SIGTERM semantics: publish the claimed chunk, then leave."""
        import threading

        global _DRAIN
        _DRAIN = threading.Event()
        broker = FileBroker(tmp_path)
        requests = [
            RunRequest(fn=_set_drain_flag, payload=(7,), seed=s)
            for s in range(2)
        ]
        broker.submit("t1", encode_task(tuple(requests)))
        broker.submit("t2", encode_task(tuple(requests)))
        executed = serve(broker, drain=_DRAIN, poll_interval=0.005)
        # the drain arrived mid-chunk: that chunk was finished and
        # published, the untouched one stayed queued for the fleet
        assert executed == 1
        results, *_ = decode_result(broker.fetch_result("t1"))
        assert list(results) == [execute_request(r) for r in requests]
        assert broker.claim("survivor") == ("t2", encode_task(tuple(requests)))
        assert broker.live_workers(60.0) == []

    def test_preset_drain_exits_before_claiming(self, tmp_path):
        import threading

        drain = threading.Event()
        drain.set()
        broker = FileBroker(tmp_path)
        broker.submit("t1", encode_task(_requests(1)))
        assert serve(broker, drain=drain) == 0
        assert broker.claim("survivor") is not None  # nothing was taken


class TestQueueExecutor:
    def test_external_broker_with_manual_worker(self, tmp_path):
        """The shared-broker shape: submitter and fleet are decoupled."""
        broker = FileBroker(tmp_path)
        worker = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.engine.worker",
                "--broker",
                str(tmp_path),
                "--poll-interval",
                "0.01",
            ],
            env={"PYTHONPATH": ":".join(p for p in sys.path if p)},
        )
        try:
            with QueueExecutor(
                workers=2, chunk_size=2, broker=broker, poll_interval=0.01
            ) as executor:
                assert executor.map(_requests(7)) == [
                    execute_request(r) for r in _requests(7)
                ]
                # External fleet: nothing spawned, nothing launched.
                assert executor.stats().pool_launches == 0
                assert not executor._procs
        finally:
            broker.request_stop()
            assert worker.wait(timeout=30) == 0

    def test_inline_fallback_when_fleet_dies(self):
        """A dead spawned fleet must not deadlock a dispatch."""
        executor = QueueExecutor(workers=2, poll_interval=0.01)
        try:
            executor._ensure_fabric()
            executor._broker.request_stop()  # workers exit cleanly
            for proc in executor._procs:
                proc.wait(timeout=60)
            expected = [execute_request(r) for r in _requests(5)]
            assert executor.map(_requests(5)) == expected
        finally:
            executor.close()

    def test_stale_claim_is_requeued(self, tmp_path):
        """A chunk claimed by a silent worker reaches another claimant."""
        from conftest import wait_for

        broker = FileBroker(tmp_path)
        broker.submit("hog", encode_task(_requests(2)))
        broker.claim("dead-worker")  # claims, then never heartbeats
        wait_for(
            lambda: broker.stale_claims(horizon=0.02) == ["hog"],
            message="the dead worker's claim to look stale",
        )
        with QueueExecutor(
            workers=2,
            broker=broker,
            poll_interval=0.01,
            heartbeat_timeout=0.02,
        ) as executor:
            # The submitter's own fallback claims the requeued chunk
            # (no live workers, horizon already elapsed).
            assert executor.map(_requests(3)) == [
                execute_request(r) for r in _requests(3)
            ]

    def test_worker_error_propagates_to_submitter(self):
        requests = [RunRequest(fn=_boom, payload=("kaboom",), seed=1)] * 3
        with QueueExecutor(workers=2, poll_interval=0.01) as executor:
            with pytest.raises(RuntimeError, match="kaboom"):
                executor.map(list(requests))

    def test_close_removes_spool_and_fleet(self):
        executor = QueueExecutor(workers=2, poll_interval=0.01)
        executor.map(_requests(6))
        spool = executor._spool
        procs = list(executor._procs)
        assert spool is not None and procs
        executor.close()
        import os

        assert not os.path.exists(spool)
        assert all(proc.poll() is not None for proc in procs)
        executor.close()  # idempotent

    def test_fleet_reused_across_dispatches(self):
        with QueueExecutor(workers=2, poll_interval=0.01) as executor:
            for _ in range(3):
                executor.map(_requests(6))
            stats = executor.stats()
        assert stats.pool_launches == 1
        assert stats.pool_reuses == 2

    def test_idled_out_fleet_is_respawned(self, monkeypatch):
        """Workers that hit --max-idle are relaunched, not worked around."""
        monkeypatch.setattr(queue_exec, "WORKER_MAX_IDLE_S", 0.05)
        with QueueExecutor(workers=2, poll_interval=0.01) as executor:
            expected = [execute_request(r) for r in _requests(5)]
            assert executor.map(_requests(5)) == expected
            for proc in executor._procs:
                proc.wait(timeout=60)  # fleet idles out between campaigns
            assert executor.map(_requests(5)) == expected
            stats = executor.stats()
        assert stats.pool_launches == 2

    def test_abandoned_stream_discards_queued_tasks(self, tmp_path):
        """Closing map_stream early withdraws the unrun chunks."""
        broker = FileBroker(tmp_path)
        with QueueExecutor(
            workers=2, chunk_size=1, broker=broker, poll_interval=0.01,
            heartbeat_timeout=0.05,
        ) as executor:
            stream = executor.map_stream(_requests(6))
            next(stream)  # inline fallback serves the first chunk
            stream.close()
        assert broker.pending_tasks() == 0  # nothing left for a fleet

    def test_rejects_bad_supervision_knobs(self):
        with pytest.raises(ConfigurationError):
            QueueExecutor(poll_interval=0.0)
        with pytest.raises(ConfigurationError):
            QueueExecutor(heartbeat_timeout=-1.0)

    def test_workers_one_runs_inline_when_self_hosted(self):
        with QueueExecutor(workers=1) as executor:
            assert executor.map(_requests(3)) == [
                execute_request(r) for r in _requests(3)
            ]
            assert executor.stats().pool_launches == 0


def _scenario_requests():
    from repro.experiments import ScenarioConfig
    from repro.experiments.runner import FAULT_SERIES, scenario_requests

    config = ScenarioConfig(
        n=4, p=12, m_inf=120.0, m_sup=200.0, mtbf_years=0.002,
        replicates=4,
    )
    return scenario_requests(config, FAULT_SERIES, seed=3)


def _work_counts(stats):
    """The registry-backed (work) fields of one executor's stats."""
    info = stats.cache_info()
    return {name: info[name] for name in counters.COUNTERS}


class TestQueueStatsAcrossBoundary:
    """EngineStats — profile + decision counters included — survive."""

    def test_simulation_counters_cross_the_queue(self):
        requests = _scenario_requests()
        with QueueExecutor(workers=2, poll_interval=0.01) as executor:
            executor.map(requests)
            stats = executor.stats()
        assert stats.profile_hits + stats.profile_misses > 0
        assert stats.decision_rows_patched + stats.decision_rows_reused > 0
        assert stats.workloads_built >= 1

    def test_work_counts_conserved_across_executors(self):
        # The same requests from cold workload caches do the same work
        # whether it runs here, in a pool or behind the queue.
        requests = _scenario_requests()
        counts = {}
        for engine in ENGINES:
            shared_cache.clear()
            with create_executor(engine, workers=2) as executor:
                executor.map(requests)
                counts[engine] = _work_counts(executor.stats())
        assert counts["persistent"] == counts["serial"]
        assert counts["queue"] == counts["serial"]
        assert counts["serial"]["workloads_built"] == len(requests)
        assert counts["serial"]["profile_misses"] > 0
        assert counts["serial"]["decision_rows_patched"] > 0

    def test_journal_replay_adds_no_work(self, tmp_path):
        requests = _scenario_requests()
        for engine in ENGINES:
            journal = tmp_path / engine
            with create_executor(engine, workers=2, journal=journal) as first:
                expected = first.map(requests)
            chunks = first.stats().journal_misses
            for replay in ("map", "map_stream"):
                with create_executor(
                    engine, workers=2, journal=journal
                ) as again:
                    if replay == "map":
                        assert again.map(requests) == expected
                    else:
                        results = [None] * len(requests)
                        for start, got in again.map_stream(requests):
                            results[start:start + len(got)] = got
                        assert results == expected
                stats = again.stats()
                assert (stats.journal_hits, stats.journal_misses) == (chunks, 0)
                assert stats.pool_launches == 0
                assert _work_counts(stats) == dict.fromkeys(
                    counters.COUNTERS, 0
                )

    def test_cli_verbose_reports_queue_statistics(self, capsys):
        from repro.cli import main

        code = main(
            [
                "compare",
                "--n", "3", "--p", "8",
                "--replicates", "2",
                "--policies", "ig-el", "stf-el",
                "--engine", "queue",
                "--workers", "2",
                "--verbose",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "engine[queue]:" in out
        assert "profiles:" in out and "hit rate" in out
        assert "decisions:" in out and "rows patched" in out
