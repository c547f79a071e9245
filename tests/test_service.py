"""Service API, HTTP transport and daemon lifecycle.

Three layers, pinned separately:

* **in-process transport seam** — :class:`repro.service.ServiceAPI`
  driven directly (the exact objects the HTTP handler calls), so these
  tests exercise scheduling semantics without sockets;
* **HTTP framing/auth** — a :class:`repro.service.ServiceServer` on a
  daemon thread: bearer-token auth in constant time, JSON framing,
  error mapping (400/401/404);
* **daemon lifecycle** — a real ``python -m repro.service`` subprocess:
  submit two jobs over the wire, poll ``/metrics``, SIGTERM, and assert
  a graceful drain with zero lost or double-counted jobs.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import signal
import subprocess
import sys
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from conftest import raw_post, wait_for
from repro.exceptions import ConfigurationError
from repro.resilience.expected_time import ExpectedTimeModel, TaskGrid
from repro.service import (
    ReplayConfig,
    ServiceAPI,
    ServiceServer,
    ServiceSession,
    VirtualClock,
    generate_trace,
    horizon,
    replay_service,
)

REPO_ROOT = Path(__file__).resolve().parent.parent


def make_api(processors=16, mtbf_years=0.05, seed=11):
    clock = VirtualClock()
    config = ReplayConfig(
        processors=processors, mtbf_years=mtbf_years, seed=seed
    )
    session = ServiceSession(config.engine(), clock)
    return ServiceAPI(session), session, clock


class TestVirtualClock:
    def test_advances_and_sets_monotonically(self):
        clock = VirtualClock()
        clock.advance(5.0)
        clock.set(9.0)
        assert clock.now() == 9.0

    def test_rejects_time_travel(self):
        clock = VirtualClock(start=10.0)
        with pytest.raises(ConfigurationError):
            clock.set(9.0)
        with pytest.raises(ConfigurationError):
            clock.advance(-1.0)


class TestServiceAPI:
    def test_submit_assigns_processors_and_runs(self):
        api, _session, _clock = make_api()
        response = api.handle("submit", {"job_id": "alpha", "size": 8_000.0})
        job = response["job"]
        assert job["status"] == "running"
        assert 2 <= job["sigma"] <= 16
        assert job["alpha_remaining"] == 1.0

    def test_auto_job_ids_are_sequential(self):
        api, _session, _clock = make_api()
        first = api.handle("submit", {"size": 7_000.0})["job"]["job_id"]
        second = api.handle("submit", {"size": 7_000.0})["job"]["job_id"]
        assert [first, second] == ["job-0001", "job-0002"]

    def test_auto_job_ids_skip_client_chosen_ids(self):
        api, session, _clock = make_api()
        api.handle("submit", {"job_id": "job-0001", "size": 7_000.0})
        api.handle("submit", {"job_id": "job-0003", "size": 7_000.0})
        ids = [
            api.handle("submit", {"size": 7_000.0})["job"]["job_id"]
            for _ in range(2)
        ]
        assert ids == ["job-0002", "job-0004"]
        assert len(session.engine.jobs) == 4

    def test_duplicate_job_id_rejected(self):
        api, _session, _clock = make_api()
        api.handle("submit", {"job_id": "dup", "size": 7_000.0})
        with pytest.raises(ConfigurationError):
            api.handle("submit", {"job_id": "dup", "size": 7_000.0})

    def test_submit_validates_size(self):
        api, _session, _clock = make_api()
        with pytest.raises(ConfigurationError):
            api.handle("submit", {})
        with pytest.raises(ConfigurationError):
            api.handle("submit", {"size": "not-a-number"})
        with pytest.raises(ConfigurationError):
            api.handle("submit", {"size": -3.0})

    @pytest.mark.parametrize("field", ["size", "checkpoint_cost"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_submit_leaves_no_job_behind(self, field, value):
        # json.loads parses NaN/Infinity, and nan <= 0 is False: a
        # non-finite field must be refused before the job is registered.
        api, session, _clock = make_api()
        api.handle("submit", {"job_id": "good", "size": 7_000.0})
        before = dict(session.engine.jobs)
        with pytest.raises(ConfigurationError):
            api.handle(
                "submit", {"job_id": "bad", "size": 7_000.0, field: value}
            )
        assert session.engine.jobs == before
        assert api.handle("drain", {})["lost"] == []

    @pytest.mark.parametrize(
        "size", [1e200, 1e308], ids=["inconsistent-checkpoint", "non-finite"]
    )
    def test_refused_grid_leaves_no_job_behind(self, size):
        # The job's Eq. 4 grid is built before the job is registered, so
        # a size the grid refuses (its checkpoint period would not
        # exceed its cost, or overflows to inf) is a 400 that changes
        # nothing — with a job running and one queued.
        api, session, _clock = make_api(processors=4)
        for name in ("a", "b", "c"):
            api.handle("submit", {"job_id": name, "size": 6_500.0})
        jobs, queue = dict(session.engine.jobs), session.engine.queued_jobs
        with pytest.raises(ConfigurationError):
            api.handle("submit", {"job_id": "bad", "size": size})
        assert session.engine.jobs == jobs
        assert session.engine.queued_jobs == queue == ["c"]
        assert api.handle("drain", {})["lost"] == []

    def test_refused_grid_names_the_job_and_its_size(self):
        # The grid is built on a throwaway one-task pack (index 0); the
        # refusal must name the submitted job, not that index.
        api, _session, _clock = make_api()
        with pytest.raises(ConfigurationError) as refused:
            api.handle("submit", {"job_id": "bad", "size": 1e200})
        message = str(refused.value)
        assert message.startswith("task bad: checkpoint period")
        assert "job size 1e+200" in message
        assert "task 0" not in message

    def test_unknown_and_private_operations_raise_lookup(self):
        api, _session, _clock = make_api()
        with pytest.raises(LookupError):
            api.handle("explode", {})
        with pytest.raises(LookupError):
            api.handle("_op_submit", {})
        with pytest.raises(LookupError):
            api.handle("SUBMIT", {})

    def test_capacity_queueing_then_completion_admission(self):
        # p=4 admits at most one buddy-pair job alongside another:
        # 2*(n_active+1) <= p  =>  two running, the third queues.
        api, session, clock = make_api(processors=4)
        for name in ("a", "b", "c"):
            api.handle("submit", {"job_id": name, "size": 6_500.0})
        by_id = {j["job_id"]: j for j in api.handle("jobs", {})["jobs"]}
        assert by_id["a"]["status"] == "running"
        assert by_id["b"]["status"] == "running"
        assert by_id["c"]["status"] == "queued"
        # fast-forward the virtual timeline: completions admit the queue
        clock.set(1e9)
        by_id = {j["job_id"]: j for j in api.handle("jobs", {})["jobs"]}
        assert all(j["status"] == "completed" for j in by_id.values())
        assert api.handle("status", {})["queue_depth"] == 0

    def test_cancel_queued_running_and_unknown(self):
        api, _session, _clock = make_api(processors=4)
        for name in ("a", "b", "c"):
            api.handle("submit", {"job_id": name, "size": 6_500.0})
        assert api.handle("cancel", {"job_id": "c"})["cancelled"] is True
        assert api.handle("cancel", {"job_id": "a"})["cancelled"] is True
        assert api.handle("cancel", {"job_id": "ghost"})["cancelled"] is False
        # cancelling twice is a no-op, not an error
        assert api.handle("cancel", {"job_id": "a"})["cancelled"] is False
        with pytest.raises(ConfigurationError):
            api.handle("cancel", {})

    def test_schedule_exposes_epochs_and_allocations(self):
        api, _session, clock = make_api()
        api.handle("submit", {"job_id": "alpha", "size": 8_000.0})
        clock.advance(1_000.0)
        api.handle("submit", {"job_id": "beta", "size": 6_000.0})
        schedule = api.handle("schedule", {})
        assert [e["trigger"] for e in schedule["epochs"]] == [
            "arrival",
            "arrival",
        ]
        last = schedule["epochs"][-1]
        assert set(last["sigma"]) == {"alpha", "beta"}
        assert sum(last["sigma"].values()) <= 16

    def test_metrics_document_shape(self):
        api, _session, _clock = make_api()
        api.handle("submit", {"job_id": "alpha", "size": 8_000.0})
        metrics = api.handle("metrics", {})
        assert set(metrics) == {
            "service",
            "engine_stats",
            "decision_latency",
            "jobs",
            "draining",
            "host",
        }
        assert metrics["service"]["epochs"] == 1
        assert metrics["decision_latency"]["count"] == 1
        assert metrics["jobs"]["alpha"]["status"] == "running"
        assert isinstance(metrics["host"]["available"], bool)
        assert metrics["draining"] is False
        # the whole document must survive the HTTP framing
        json.dumps(metrics)

    def test_metrics_count_only_this_sessions_work(self):
        # Work done earlier in this process (here a whole replay) is not
        # the new session's: its engine_stats start at zero.
        trace = generate_trace(1, n_jobs=4, mean_gap=20_000.0)
        replay_service(trace, ReplayConfig(processors=40, seed=1))
        api, _session, _clock = make_api()
        before = api.handle("metrics", {})["engine_stats"]
        assert before == dict.fromkeys(before, 0)
        api.handle("submit", {"job_id": "alpha", "size": 8_000.0})
        after = api.handle("metrics", {})["engine_stats"]
        assert after["tasks_submitted"] == after["workloads_built"] == 1
        assert after["profile_misses"] > 0

    def test_metrics_ignore_another_live_sessions_work(self):
        # Two sessions alive in one process: A's submit is not B's work,
        # although it happened after B was built.
        api_a, _session, _clock = make_api()
        api_b, _session, _clock = make_api()
        api_a.handle("submit", {"job_id": "alpha", "size": 8_000.0})
        assert api_a.handle("metrics", {})["engine_stats"]["profile_misses"]
        stats = api_b.handle("metrics", {})["engine_stats"]
        assert stats == dict.fromkeys(stats, 0)

    def test_status_document(self):
        api, _session, _clock = make_api()
        status = api.handle("status", {})
        assert status["schema_version"] == 1
        assert status["processors"] == 16
        assert status["policy"] == "ig-el"
        assert status["jobs_total"] == 0

    def test_drain_completes_everything_and_refuses_new_work(self):
        api, session, _clock = make_api(processors=4)
        for name in ("a", "b", "c"):
            api.handle("submit", {"job_id": name, "size": 6_500.0})
        summary = api.handle("drain", {})
        assert summary["completed"] == 3
        assert summary["cancelled"] == 0
        assert summary["lost"] == []
        assert session.draining
        with pytest.raises(ConfigurationError):
            api.handle("submit", {"size": 5_000.0})
        # drain is idempotent
        assert api.handle("drain", {})["completed"] == 3


#: A busy trace for the grid-store checks: overlapping arrivals on a
#: small platform (so jobs queue), cancels, and failures mid-trace.
GRID_TRACE = dict(n_jobs=24, mean_gap=2_500.0, cancel_every=3)
GRID_CONFIG = ReplayConfig(processors=12, mtbf_years=0.05, seed=7)


def _drive(engine, trace, after_event=None):
    """Feed ``trace`` into ``engine`` and drain it (``replay_reference``'s
    loop, with a hook after every event)."""
    for event in trace:
        engine.advance_to(event.time)
        if after_event is not None:
            after_event(engine)
        if event.kind == "submit":
            engine.submit(
                event.job_id,
                event.size,
                event.checkpoint_cost,
                now=event.time,
            )
        else:
            engine.cancel(event.job_id, now=event.time)
        if after_event is not None:
            after_event(engine)
    engine.drain()


class TestTaskGridStore:
    """The engine's per-job Eq. 4 grids, shared across re-packs."""

    def test_handed_grids_equal_fresh_model_grids(self, monkeypatch):
        handed = []

        class Recording(ExpectedTimeModel):
            def __init__(self, pack, cluster, **kwargs):
                handed.append((pack, cluster, kwargs["grids"]))
                super().__init__(pack, cluster, **kwargs)

        monkeypatch.setattr(horizon, "ExpectedTimeModel", Recording)
        _drive(GRID_CONFIG.engine(), generate_trace(4, **GRID_TRACE))
        assert len(handed) > 5
        # the same grid object serves several models (the point of it)
        ids = [id(grid) for _, _, grids in handed for grid in grids]
        assert len(set(ids)) < len(ids)
        for pack, cluster, grids in handed:
            fresh = ExpectedTimeModel(pack, cluster)
            assert len(grids) == len(pack)
            for i, grid in enumerate(grids):
                for field in dataclasses.fields(TaskGrid):
                    assert (
                        getattr(grid, field.name).tobytes()
                        == getattr(fresh.grid(i), field.name).tobytes()
                    ), (pack[i].name, field.name)

    def test_store_holds_one_grid_per_live_job_and_none_after_drain(self):
        engine = GRID_CONFIG.engine()
        seen = []

        def check(engine):
            held = engine.metrics()["task_grids"]
            assert held == len(engine.active_jobs) + len(engine.queued_jobs)
            seen.append(held)

        _drive(engine, generate_trace(4, **GRID_TRACE), after_event=check)
        assert max(seen) >= 2
        assert engine.queued_jobs == [] and engine.active_jobs == []
        assert engine.metrics()["task_grids"] == 0

    def test_envelope_rows_live_only_on_running_jobs_grids(self):
        engine = GRID_CONFIG.engine()
        seen = []

        def check(engine):
            held = engine.metrics()["envelope_rows"]
            running = sum(
                len(engine._grids[job_id].envelopes)
                for job_id in engine.active_jobs
                if job_id in engine._grids
            )
            assert held <= running
            seen.append(held)

        _drive(engine, generate_trace(4, **GRID_TRACE), after_event=check)
        assert max(seen) >= 2
        assert engine.metrics()["envelope_rows"] == 0

    def test_each_job_builds_its_grid_once_and_cancel_drops_it(
        self, monkeypatch
    ):
        built = []
        build = TaskGrid.build.__func__

        def recording(cls, task, *args):
            built.append(task.name)
            return build(cls, task, *args)

        monkeypatch.setattr(TaskGrid, "build", classmethod(recording))
        api, session, _clock = make_api(processors=4)
        for name in ("a", "b", "c"):
            api.handle("submit", {"job_id": name, "size": 6_500.0})
        assert session.engine.queued_jobs == ["c"]
        assert session.engine.metrics()["task_grids"] == 3
        assert api.handle("cancel", {"job_id": "c"})["cancelled"] is True
        assert session.engine.metrics()["task_grids"] == 2
        assert api.handle("drain", {})["completed"] == 2
        assert sorted(built) == ["a", "b", "c"]
        assert session.engine.metrics()["task_grids"] == 0


def _call(url, path, *, token=None, payload=None, timeout=10.0):
    """One JSON request; returns (status, decoded body)."""
    data = None if payload is None else json.dumps(payload).encode()
    request = urllib.request.Request(
        url + path, data=data, method="POST" if data is not None else "GET"
    )
    request.add_header("Content-Type", "application/json")
    if token is not None:
        request.add_header("Authorization", f"Bearer {token}")
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


class TestServiceHTTP:
    TOKEN = "service-secret"

    @pytest.fixture
    def server(self):
        _api, session, _clock = make_api(processors=8)
        server = ServiceServer(session, token=self.TOKEN)
        url = server.start()
        try:
            yield url
        finally:
            server.shutdown()

    def test_requests_without_token_are_rejected(self, server):
        status, body = _call(server, "/metrics")
        assert status == 401 and body["error"] == "unauthorized"
        status, _ = _call(server, "/api/submit", payload={"size": 5_000.0})
        assert status == 401
        status, _ = _call(server, "/metrics", token="wrong-secret")
        assert status == 401

    def test_unknown_paths_and_operations_404(self, server):
        status, _ = _call(server, "/nope", token=self.TOKEN)
        assert status == 404
        status, _ = _call(server, "/api/explode", token=self.TOKEN,
                          payload={})
        assert status == 404
        # GET routes are not reachable over POST
        status, _ = _call(server, "/api/jobs", token=self.TOKEN, payload={})
        assert status == 404

    def test_submit_jobs_metrics_cancel_roundtrip(self, server):
        status, body = _call(
            server, "/api/submit", token=self.TOKEN,
            payload={"job_id": "alpha", "size": 8_000.0},
        )
        assert status == 200
        assert body["job"]["status"] == "running"
        status, body = _call(server, "/api/jobs", token=self.TOKEN)
        assert status == 200
        assert [j["job_id"] for j in body["jobs"]] == ["alpha"]
        status, body = _call(server, "/metrics", token=self.TOKEN)
        assert status == 200
        assert body["jobs"]["alpha"]["status"] == "running"
        status, body = _call(
            server, "/api/cancel", token=self.TOKEN,
            payload={"job_id": "alpha"},
        )
        assert status == 200 and body["cancelled"] is True

    def test_bad_requests_400(self, server):
        status, body = _call(server, "/api/submit", token=self.TOKEN,
                             payload={})
        assert status == 400 and "size" in body["error"]
        status, _ = _call(server, "/api/submit", token=self.TOKEN,
                          payload={"size": -1.0})
        assert status == 400

    def test_nan_submit_over_the_wire_is_400_and_loses_nothing(self, server):
        status, body = raw_post(
            server, "/api/submit", b'{"size": NaN, "job_id": "bad"}',
            token=self.TOKEN,
        )
        assert status == 400 and "finite" in body["error"]
        status, body = _call(server, "/api/drain", token=self.TOKEN,
                             payload={})
        assert status == 200 and body["lost"] == []

    def test_non_finite_grid_submit_is_400_and_loses_nothing(self, server):
        status, body = _call(
            server, "/api/submit", token=self.TOKEN,
            payload={"job_id": "huge", "size": 1e308},
        )
        assert status == 400 and "not finite" in body["error"]
        status, body = _call(server, "/api/drain", token=self.TOKEN,
                             payload={})
        assert status == 200 and body["lost"] == []

    @pytest.mark.parametrize("length", [-1, -4096])
    def test_negative_content_length_is_400_not_a_hang(self, server, length):
        status, body = raw_post(
            server, "/api/submit", b"", token=self.TOKEN,
            content_length=length,
        )
        assert status == 400 and "Content-Length" in body["error"]
        # The listener is still healthy afterwards.
        status, _ = _call(server, "/status", token=self.TOKEN)
        assert status == 200

    @pytest.mark.parametrize("op", ["submit", "cancel"])
    @pytest.mark.parametrize("doc", [b"[1]", b"null", b'"alpha"', b"3"])
    def test_non_object_bodies_are_400(self, server, op, doc):
        status, body = raw_post(server, f"/api/{op}", doc, token=self.TOKEN)
        assert status == 400 and "JSON object" in body["error"]

    def test_tokenless_server_is_open(self):
        _api, session, _clock = make_api(processors=8)
        server = ServiceServer(session, token=None)
        url = server.start()
        try:
            status, _ = _call(url, "/status")
            assert status == 200
        finally:
            server.shutdown()


class TestDaemonLifecycle:
    """End-to-end smoke: the daemon as users run it."""

    def test_sigterm_drains_gracefully(self):
        token = "smoke-secret"
        env = dict(
            os.environ,
            PYTHONPATH=str(REPO_ROOT / "src"),
            REPRO_SERVICE_TOKEN=token,
        )
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.service",
                "--port", "0", "--processors", "8",
                "--mtbf-years", "0.05", "--virtual-clock",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
            cwd=REPO_ROOT,
        )
        try:
            banner = proc.stdout.readline()
            assert "scheduling service on http://" in banner
            url = next(
                word for word in banner.split() if word.startswith("http://")
            )
            for job_id in ("smoke-a", "smoke-b"):
                status, body = _call(
                    url, "/api/submit", token=token,
                    payload={"job_id": job_id, "size": 6_000.0},
                )
                assert status == 200
                assert body["job"]["status"] == "running"

            def both_visible():
                status, metrics = _call(url, "/metrics", token=token)
                return status == 200 and len(metrics["jobs"]) == 2

            wait_for(both_visible, timeout=10.0, message="both jobs in /metrics")
            proc.send_signal(signal.SIGTERM)
            output, _ = proc.communicate(timeout=30)
        finally:
            if proc.poll() is None:  # pragma: no cover - cleanup path
                proc.kill()
                proc.communicate()
        assert proc.returncode == 0, output
        assert "service drained: 2 completed, 0 cancelled, 0 lost" in output
