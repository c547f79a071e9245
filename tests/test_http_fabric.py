"""The remote broker fabric: partitions, restarts, elastic fleets.

The tentpole pins of the HTTP transport
(:mod:`repro.engine.broker_server` + :mod:`repro.engine.http_broker`):

* campaigns dispatched through an :class:`~repro.engine.HTTPBroker`
  are byte-identical to serial runs — including the paper figures —
  with seeded wire chaos (resets, 5xx, timeouts, truncated bodies)
  injected under the client;
* a broker server killed mid-campaign and restarted on the same spool
  loses nothing: the campaign stalls through the partition and
  converges to the same bytes, with zero duplicated chunk results;
* fleets are elastic: workers join over HTTP mid-campaign and drain
  gracefully on SIGTERM (finish the claimed chunk, publish, leave),
  and the ``EngineStats`` fleet counters record it all;
* authentication failures are *permanent* (no retry storm against a
  wrong token), server-side claim leases expire on the server's own
  monotonic clock, and idempotent claim nonces make a lost response
  harmless.
"""

import os
import signal
import subprocess
import sys
import threading
import time

import pytest

from conftest import raw_post
from repro.engine import (
    FaultPlan,
    HTTPBroker,
    QueueExecutor,
    RunRequest,
    SerialExecutor,
    connect_broker,
)
from repro.engine.broker import FileBroker
from repro.engine.broker_server import BrokerService, BrokerServer
from repro.engine.http_broker import _b64
from repro.engine.worker import serve
from repro.exceptions import PermanentEngineError
from repro.experiments import run_figure

TOKEN = "fabric-test-token"


def _square(base, *, seed):
    return base * base + seed


def _slow_square(base, *, seed):
    time.sleep(0.03)  # stretch the campaign so faults land mid-flight
    return base * base + seed


def _requests(count, fn=_square):
    return [RunRequest(fn=fn, payload=(i,), seed=i) for i in range(count)]


def _start_server(spool, *, port=0):
    server = BrokerServer(FileBroker(spool), token=TOKEN, port=port)
    return server, server.start()


def _start_worker_thread(url, *, chaos_plan=None, **kwargs):
    kwargs.setdefault("poll_interval", 0.01)
    kwargs.setdefault("max_idle", 15.0)
    thread = threading.Thread(
        target=serve,
        args=(connect_broker(url, token=TOKEN, chaos_plan=chaos_plan),),
        kwargs=kwargs,
        daemon=True,
    )
    thread.start()
    return thread


class TestAuthentication:
    def test_wrong_token_is_permanent(self, tmp_path):
        server, url = _start_server(tmp_path / "spool")
        try:
            with pytest.raises(PermanentEngineError, match="authentication"):
                HTTPBroker(url, token="not-the-token").stop_requested()
            with pytest.raises(PermanentEngineError, match="authentication"):
                HTTPBroker(url).stop_requested()  # no token at all
        finally:
            server.shutdown()

    def test_open_server_accepts_anyone(self, tmp_path):
        server = BrokerServer(FileBroker(tmp_path / "spool"))
        url = server.start()
        try:
            assert HTTPBroker(url).stop_requested() is False
            assert HTTPBroker(url, token="ignored").stop_requested() is False
        finally:
            server.shutdown()

    def test_unknown_operation_is_permanent_version_skew(self, tmp_path):
        server, url = _start_server(tmp_path / "spool")
        try:
            broker = HTTPBroker(url, token=TOKEN)
            with pytest.raises(PermanentEngineError, match="unknown operation"):
                broker._call("frobnicate", {})
            # private service internals are not reachable as operations
            with pytest.raises(PermanentEngineError, match="unknown operation"):
                broker._call("_op_claim", {})
        finally:
            server.shutdown()


class TestFraming:
    """Malformed requests get a 400 reply, never a hang or a dropped
    connection (real sockets, raw bytes)."""

    def test_negative_content_length_is_400(self, tmp_path):
        server, url = _start_server(tmp_path / "spool")
        try:
            status, body = raw_post(
                url, "/api/claim", b"", token=TOKEN, content_length=-1
            )
            assert status == 400 and "Content-Length" in body["error"]
            assert HTTPBroker(url, token=TOKEN).stop_requested() is False
        finally:
            server.shutdown()

    @pytest.mark.parametrize("doc", [b"[1]", b"null"])
    def test_non_object_body_is_400(self, tmp_path, doc):
        server, url = _start_server(tmp_path / "spool")
        try:
            status, body = raw_post(url, "/api/claim", doc, token=TOKEN)
            assert status == 400 and "JSON object" in body["error"]
        finally:
            server.shutdown()

    @pytest.mark.parametrize(
        "path, doc",
        [
            ("/api/submit", b'{"task_id": "t-x", "payload": 123}'),
            ("/api/complete", b'{"task_id": "t-0", "payload": null}'),
            (
                "/api/dead_letter",
                b'{"task_id": "t-0", "payload": "", "info": 3}',
            ),
            ("/api/claim", b'{"worker_id": 7}'),
            ("/api/heartbeat", b'{"worker_id": 7}'),
            ("/api/requeue", b'{"task_id": ["t-0"]}'),
        ],
        ids=["submit", "complete", "dead_letter", "claim", "heartbeat",
             "requeue"],
    )
    def test_wrongly_typed_fields_are_400_before_any_state_change(
        self, tmp_path, path, doc
    ):
        spool = tmp_path / "spool"
        server, url = _start_server(spool)
        try:
            HTTPBroker(url, token=TOKEN).submit("t-0", b"queued")
            status, body = raw_post(url, path, doc, token=TOKEN)
            assert status == 400, body
            status, body = raw_post(
                url, "/api/live_workers", b'{"horizon": 60}', token=TOKEN
            )
            assert status == 200 and body["workers"] == []
            assert (spool / "queue" / "t-0.task").read_bytes() == b"queued"
        finally:
            server.shutdown()


class TestServerSideLeases:
    def test_claim_nonce_replay_is_idempotent(self, tmp_path):
        service = BrokerService(tmp_path / "spool")
        service.handle("submit", {"task_id": "t-0001", "payload": _b64(b"a")})
        service.handle("submit", {"task_id": "t-0002", "payload": _b64(b"b")})
        first = service.handle("claim", {"worker_id": "w", "nonce": "n1"})
        # the response was lost on the wire: the retry replays it
        # verbatim instead of claiming (and stranding) a second task
        again = service.handle("claim", {"worker_id": "w", "nonce": "n1"})
        assert again == first
        fresh = service.handle("claim", {"worker_id": "w", "nonce": "n2"})
        assert fresh["task_id"] == "t-0002"

    def test_leases_expire_on_the_server_clock(self, tmp_path):
        now = [100.0]
        service = BrokerService(tmp_path / "spool", clock=lambda: now[0])
        service.handle("submit", {"task_id": "t-0001", "payload": _b64(b"a")})
        service.handle("claim", {"worker_id": "w", "nonce": "n1"})
        answer = service.handle("stale_claims", {"horizon": 5.0})
        assert answer["task_ids"] == []
        now[0] += 6.0
        answer = service.handle("stale_claims", {"horizon": 5.0})
        assert answer["task_ids"] == ["t-0001"]
        assert service.counters["lease_expiries"] == 1
        # asking again does not double-count the same expiry
        service.handle("stale_claims", {"horizon": 5.0})
        assert service.counters["lease_expiries"] == 1
        # the owner comes back: its beat renews the lease
        service.handle("heartbeat", {"worker_id": "w"})
        assert service.handle("stale_claims", {"horizon": 5.0}) == {
            "task_ids": [],
            "lease_expiries": 1,
        }

    def test_restart_grace_period_then_requeue(self, tmp_path):
        spool = tmp_path / "spool"
        first = BrokerService(spool)
        first.handle("submit", {"task_id": "t-0001", "payload": _b64(b"a")})
        first.handle("claim", {"worker_id": "w", "nonce": "n1"})
        # a fresh server on the same spool: the claim is not instantly
        # stale (boot grace), then ages out and requeues cleanly — all
        # on the injected server clock, no wall time involved
        now = [100.0]
        reborn = BrokerService(spool, clock=lambda: now[0])
        assert reborn.handle("stale_claims", {"horizon": 5.0})["task_ids"] == []
        now[0] += 6.0
        assert reborn.handle("stale_claims", {"horizon": 5.0})[
            "task_ids"
        ] == ["t-0001"]
        assert reborn.handle("requeue", {"task_id": "t-0001"})["requeued"]
        assert reborn.handle("claim", {"worker_id": "w2", "nonce": "n2"})[
            "task_id"
        ] == "t-0001"

    def test_lease_expiry_reaches_engine_stats(self, tmp_path):
        from conftest import wait_for

        server, url = _start_server(tmp_path / "spool")
        try:
            broker = HTTPBroker(url, token=TOKEN)
            broker.submit("t-0001", b"payload")
            assert broker.claim("ghost-worker") is not None
            # the server clock ages the lease; poll instead of guessing
            # a sleep (repeat expiry checks never double-count)
            wait_for(
                lambda: broker.stale_claims(0.01) == ["t-0001"],
                message="the ghost worker's lease to expire",
            )
            assert broker.engine_counters()["lease_expiries"] == 1
        finally:
            server.shutdown()


class TestWireChaos:
    @pytest.mark.parametrize(
        "fault",
        ["wire_reset", "wire_5xx", "wire_timeout", "wire_truncate"],
    )
    def test_each_fault_class_converges_at_full_rate(self, tmp_path, fault):
        """Rate 1.0: every logical operation faults once, nothing breaks."""
        requests = _requests(12)
        reference = SerialExecutor().map(requests)
        server, url = _start_server(tmp_path / "spool")
        plan = FaultPlan(seed=3, **{fault: 1.0})
        broker = connect_broker(url, token=TOKEN, chaos_plan=plan)
        worker = _start_worker_thread(url)
        try:
            with QueueExecutor(
                workers=2, chunk_size=3, broker=broker, heartbeat_timeout=10.0
            ) as executor:
                assert executor.map(requests) == reference
                stats = executor.stats()
            label = f"wire-{fault[len('wire_'):]}"
            assert broker.transport.injected[label] >= 4  # one per chunk op
            assert stats.wire_retries >= 4
            assert stats.duplicate_results == 0
        finally:
            broker.request_stop()
            worker.join(timeout=10.0)
            server.shutdown()

    def test_mixed_wire_chaos_keeps_fig7_byte_identical(self, tmp_path):
        reference = run_figure("fig7", scale="tiny", seed=1, engine="serial")
        server, url = _start_server(tmp_path / "spool")
        plan = FaultPlan(
            seed=7,
            wire_reset=0.2,
            wire_5xx=0.2,
            wire_timeout=0.1,
            wire_truncate=0.2,
        )
        broker = connect_broker(url, token=TOKEN, chaos_plan=plan)
        worker = _start_worker_thread(url)
        try:
            with QueueExecutor(
                workers=2, broker=broker, heartbeat_timeout=10.0
            ) as executor:
                chaotic = run_figure(
                    "fig7", scale="tiny", seed=1, executor=executor
                )
                stats = executor.stats()
            assert chaotic.x_values == reference.x_values
            assert chaotic.normalized == reference.normalized
            assert chaotic.means == reference.means
            assert sum(broker.transport.injected.values()) > 0
            assert stats.duplicate_results == 0
        finally:
            broker.request_stop()
            worker.join(timeout=10.0)
            server.shutdown()


class TestHTTPFigures:
    @pytest.mark.parametrize("figure", ["fig7", "fig10"])
    def test_figures_byte_identical_over_http(self, tmp_path, figure):
        reference = run_figure(figure, scale="tiny", seed=1, engine="serial")
        server, url = _start_server(tmp_path / "spool")
        broker = HTTPBroker(url, token=TOKEN)
        worker = _start_worker_thread(url)
        try:
            with QueueExecutor(
                workers=2, broker=broker, heartbeat_timeout=10.0
            ) as executor:
                remote = run_figure(
                    figure, scale="tiny", seed=1, executor=executor
                )
            assert remote.x_values == reference.x_values
            assert remote.normalized == reference.normalized
            assert remote.means == reference.means
        finally:
            broker.request_stop()
            worker.join(timeout=10.0)
            server.shutdown()


class TestPartitionRecovery:
    def test_server_restart_mid_campaign_is_invisible(self, tmp_path):
        """Kill the broker server mid-dispatch; restart on the same spool.

        The submitter and the worker both stall through the partition
        (wire retries), the restarted server recovers every queued and
        claimed task from disk, and the campaign converges byte-for-
        byte with zero duplicated chunk results.
        """
        requests = _requests(24, fn=_slow_square)
        reference = SerialExecutor().map(requests)
        spool = tmp_path / "spool"
        server, url = _start_server(spool)
        port = server.port
        broker = HTTPBroker(url, token=TOKEN)
        worker = _start_worker_thread(url)
        replacement = []

        def bounce():
            server.shutdown()  # mid-campaign kill: spool survives
            time.sleep(0.3)  # the partition window
            reborn = BrokerServer(FileBroker(spool), token=TOKEN, port=port)
            reborn.start()
            replacement.append(reborn)

        bouncer = threading.Timer(0.25, bounce)
        bouncer.start()
        try:
            with QueueExecutor(
                workers=2, chunk_size=2, broker=broker, heartbeat_timeout=10.0
            ) as executor:
                assert executor.map(requests) == reference
                stats = executor.stats()
            assert stats.wire_retries >= 1  # somebody hit the partition
            assert stats.duplicate_results == 0
        finally:
            bouncer.join()
            broker.request_stop()
            worker.join(timeout=15.0)
            for reborn in replacement:
                reborn.shutdown()


class TestElasticFleet:
    def test_workers_join_and_sigterm_drains_end_to_end(self, tmp_path):
        """Two subprocess workers over HTTP; one is SIGTERM'd mid-run.

        The drained worker exits 0 after publishing its claimed chunk,
        the survivor finishes the campaign, fig7 stays byte-identical,
        and the fleet counters record the join/leave churn.
        """
        reference = run_figure("fig7", scale="tiny", seed=1, engine="serial")
        server, url = _start_server(tmp_path / "spool")
        env = dict(os.environ)
        env["PYTHONPATH"] = ":".join(sys.path)
        command = [
            sys.executable,
            "-m",
            "repro.engine.worker",
            "--broker",
            url,
            "--broker-token",
            TOKEN,
            "--poll-interval",
            "0.01",
            "--max-idle",
            "30",
        ]
        procs = [
            subprocess.Popen(
                command,
                stdout=subprocess.PIPE,
                stderr=subprocess.STDOUT,
                text=True,
                env=env,
            )
            for _ in range(2)
        ]
        broker = HTTPBroker(url, token=TOKEN)
        deadline = time.monotonic() + 30.0
        while broker.server_status()["worker_joins"] < 2:
            # both workers must be aboard before dispatch starts, or a
            # tiny campaign outruns the second join
            assert time.monotonic() < deadline, "workers never joined"
            time.sleep(0.05)
        victim = threading.Timer(
            0.2, lambda: procs[0].send_signal(signal.SIGTERM)
        )
        victim.start()
        try:
            with QueueExecutor(
                workers=2, broker=broker, heartbeat_timeout=30.0
            ) as executor:
                remote = run_figure(
                    "fig7", scale="tiny", seed=1, executor=executor
                )
                stats = executor.stats()
            assert remote.x_values == reference.x_values
            assert remote.normalized == reference.normalized
            assert remote.means == reference.means
            assert stats.worker_joins >= 2
            assert stats.worker_leaves >= 1
            assert stats.duplicate_results == 0
        finally:
            victim.join()
            broker.request_stop()
            outputs = []
            for proc in procs:
                try:
                    out, _ = proc.communicate(timeout=30)
                except subprocess.TimeoutExpired:
                    proc.kill()
                    out, _ = proc.communicate()
                outputs.append(out)
            server.shutdown()
        assert procs[0].returncode == 0, outputs[0]
        assert procs[1].returncode == 0, outputs[1]
        assert "task(s) executed" in outputs[0]
        assert "worker drained:" in outputs[0]
