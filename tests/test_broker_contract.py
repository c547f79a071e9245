"""One contract suite, every broker transport.

The queue fabric is honest about its seams: anything that implements
the :class:`repro.engine.broker.Broker` protocol can carry a campaign,
so the protocol's behavioural contract — claim atomicity, FIFO order,
at-least-once completion, liveness bookkeeping, the cooperative stop
flag — is pinned here *once* and run against every transport:

* ``file`` — :class:`repro.engine.FileBroker` on a local spool;
* ``http`` — :class:`repro.engine.HTTPBroker` against an in-process
  token-authenticated :class:`repro.engine.broker_server.BrokerServer`
  wrapping the same spool implementation;
* ``chaos`` — a :class:`repro.engine.ChaosBroker` wrapping a FileBroker
  with an all-zero-rate :class:`repro.engine.FaultPlan`: with nothing
  armed, the chaos wrapper must be a *true no-op pass-through* of the
  full protocol — ``deregister``, ``stale_claims`` and the dead-letter
  spool included — so arming a plan in production changes faults, never
  semantics.

A behaviour that holds for one transport but not the others is a bug
in the remote or chaos layer, and this suite is where it surfaces.
"""

import pytest

from repro.engine import ChaosBroker, FaultPlan
from repro.engine.broker import Broker, FileBroker
from repro.engine.broker_server import BrokerServer
from repro.engine.http_broker import HTTPBroker


@pytest.fixture(params=["file", "http", "chaos"])
def broker(request, tmp_path):
    """The same spool semantics, reached through each transport."""
    spool = tmp_path / "spool"
    if request.param == "file":
        yield FileBroker(spool)
        return
    if request.param == "chaos":
        # every rate zero: the wrapper must never inject, only delegate
        chaotic = ChaosBroker(FileBroker(spool), FaultPlan(seed=7))
        yield chaotic
        assert chaotic.injected == {}, "a zero-rate plan injected faults"
        return
    server = BrokerServer(FileBroker(spool), token="contract-secret")
    url = server.start()
    try:
        yield HTTPBroker(url, token="contract-secret")
    finally:
        server.shutdown()


class TestBrokerContract:
    def test_satisfies_the_protocol(self, broker):
        assert isinstance(broker, Broker)

    def test_submit_claim_complete_roundtrip(self, broker):
        broker.submit("t-0001", b"payload-bytes")
        claimed = broker.claim("w1")
        assert claimed == ("t-0001", b"payload-bytes")
        broker.complete("t-0001", b"result-bytes")
        assert broker.fetch_result("t-0001") == b"result-bytes"
        # a result is consumed exactly once
        assert broker.fetch_result("t-0001") is None

    def test_claim_on_empty_queue_returns_none(self, broker):
        assert broker.claim("w1") is None

    def test_fetch_result_before_completion_returns_none(self, broker):
        broker.submit("t-0001", b"payload")
        assert broker.fetch_result("t-0001") is None

    def test_claims_are_exclusive(self, broker):
        broker.submit("t-0001", b"a")
        broker.submit("t-0002", b"b")
        first = broker.claim("w1")
        second = broker.claim("w2")
        assert first is not None and second is not None
        assert first[0] != second[0]
        assert broker.claim("w3") is None

    def test_claims_follow_lexicographic_order(self, broker):
        for task_id in ("t-0002", "t-0001", "t-0003"):
            broker.submit(task_id, task_id.encode())
        order = [broker.claim("w1")[0] for _ in range(3)]
        assert order == ["t-0001", "t-0002", "t-0003"]
        assert broker.claim("w1") is None

    def test_requeue_returns_a_claimed_task(self, broker):
        broker.submit("t-0001", b"payload")
        assert broker.claim("w1") is not None
        assert broker.requeue("t-0001") is True
        assert broker.claim("w2") == ("t-0001", b"payload")
        broker.complete("t-0001", b"result")
        # completed -> no claim left to requeue
        assert broker.requeue("t-0001") is False

    def test_duplicate_completion_is_harmless(self, broker):
        # At-least-once delivery: a requeued task may complete twice.
        # The payloads are byte-identical in real campaigns; the broker
        # just keeps a result available either way.
        broker.submit("t-0001", b"payload")
        broker.claim("w1")
        broker.complete("t-0001", b"result")
        broker.complete("t-0001", b"result")
        assert broker.fetch_result("t-0001") == b"result"

    def test_discard_withdraws_queued_work(self, broker):
        broker.submit("t-0001", b"payload")
        assert broker.discard("t-0001") is True
        assert broker.claim("w1") is None
        assert broker.discard("t-0001") is False

    def test_dead_letter_roundtrip(self, broker):
        broker.dead_letter("t-0666", b"poison-payload", b"the traceback")
        assert broker.dead_letters() == ["t-0666"]
        fetched = broker.fetch_dead_letter("t-0666")
        assert fetched == (b"poison-payload", b"the traceback")
        assert broker.dead_letters() == []
        assert broker.fetch_dead_letter("t-0666") is None

    def test_stop_flag(self, broker):
        assert broker.stop_requested() is False
        broker.request_stop()
        assert broker.stop_requested() is True

    def test_heartbeat_liveness_and_deregister(self, broker):
        broker.heartbeat("w1")
        assert "w1" in broker.live_workers(30.0)
        broker.deregister("w1")
        assert "w1" not in broker.live_workers(30.0)
        # deregistering an unknown worker is a no-op, not an error
        broker.deregister("never-seen")

    def test_silent_claims_go_stale_and_beats_renew_them(self, broker):
        from conftest import wait_for

        broker.submit("t-0001", b"payload")
        broker.heartbeat("w1")
        assert broker.claim("w1") is not None
        # a fresh claim is not stale under a generous horizon
        assert broker.stale_claims(30.0) == []
        wait_for(
            lambda: broker.stale_claims(0.01) == ["t-0001"],
            message="the silent claim to age past the horizon",
        )
        # the owner speaks up again: the lease is renewed
        broker.heartbeat("w1")
        assert broker.stale_claims(0.05) == []
