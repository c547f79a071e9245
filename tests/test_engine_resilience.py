"""Unit tests of the engine resilience layer.

Covers the retry policy (:mod:`repro.engine.retry`), the deterministic
fault-injection layer (:mod:`repro.engine.chaos`), the
content-addressed result journal (:mod:`repro.engine.journal`), the
dead-letter quarantine flow of the queue executor, duplicate-result
absorption and worker shutdown escalation.  The end-to-end
byte-identity of figure campaigns under injected faults is pinned in
``tests/test_engine_chaos.py``.
"""

from __future__ import annotations

import pickle
import subprocess
import sys
import time

import pytest

from repro.engine import (
    ChaosBroker,
    ChaosCrash,
    DEFAULT_RETRY_POLICY,
    FaultPlan,
    FileBroker,
    QueueExecutor,
    ResultJournal,
    RetryPolicy,
    RunRequest,
    SerialExecutor,
    create_executor,
    ensure_journal,
)
from repro.engine.executors import _execute_chunk
from repro.engine.journal import decode_journal_hit
from repro.engine.payloads import (
    PAYLOAD_VERSION,
    decode_result,
    encode_error,
    encode_result,
    encode_task,
)
from repro.engine.retry import execute_with_retry, is_transient
from repro.engine.worker import serve
from repro.exceptions import (
    ConfigurationError,
    EngineError,
    PermanentEngineError,
    PoisonChunkError,
    TransientEngineError,
)


def _square(base, *, seed):
    """Module-level runner: deterministic in (payload, seed)."""
    return base + seed * seed


def _boom(message, *, seed):
    """Module-level runner that always fails (deterministically)."""
    raise ValueError(f"{message} (seed={seed})")


def _requests(count, base=100):
    return [
        RunRequest(fn=_square, payload=(base,), seed=s, tag=s)
        for s in range(count)
    ]


FAST = RetryPolicy(max_attempts=3, backoff_base=0.0, backoff_max=0.0)


class TestExceptionTaxonomy:
    def test_engine_errors_are_runtime_errors(self):
        for cls in (EngineError, TransientEngineError, PermanentEngineError):
            assert issubclass(cls, RuntimeError)

    def test_classification(self):
        assert is_transient(TransientEngineError("x"))
        assert is_transient(OSError("spool hiccup"))
        assert not is_transient(PermanentEngineError("x"))
        assert not is_transient(ValueError("deterministic"))

    def test_poison_chunk_error_carries_chunks_and_pickles(self):
        chunks = (("t-1", 3, "Traceback ..."),)
        exc = PoisonChunkError("1 chunk quarantined", chunks=chunks)
        assert exc.chunks == chunks
        clone = pickle.loads(pickle.dumps(exc))
        assert clone.chunks == chunks
        assert str(clone) == str(exc)


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ConfigurationError):
            RetryPolicy(backoff_base=-1.0)
        with pytest.raises(ConfigurationError):
            RetryPolicy(backoff_factor=0.5)
        with pytest.raises(ConfigurationError):
            RetryPolicy(jitter=1.0)

    def test_delay_is_deterministic_and_bounded(self):
        policy = RetryPolicy(
            backoff_base=0.1, backoff_factor=2.0, backoff_max=0.3, jitter=0.25
        )
        for attempt, raw in ((1, 0.1), (2, 0.2), (3, 0.3), (4, 0.3)):
            a = policy.delay(attempt, seed=42)
            b = policy.delay(attempt, seed=42)
            assert a == b  # pure function of (policy, attempt, seed)
            assert raw * 0.75 <= a <= raw * 1.25
        # different seeds jitter differently (with overwhelming odds)
        spread = {policy.delay(1, seed=s) for s in range(16)}
        assert len(spread) > 1

    def test_zero_jitter_is_exact(self):
        policy = RetryPolicy(backoff_base=0.5, jitter=0.0)
        assert policy.delay(1, seed=7) == 0.5
        assert policy.delay(2, seed=7) == 1.0

    def test_delay_rejects_bad_attempt(self):
        with pytest.raises(ConfigurationError):
            DEFAULT_RETRY_POLICY.delay(0, seed=0)


class TestExecuteWithRetry:
    def test_first_success_needs_one_attempt(self):
        calls = []
        result = execute_with_retry(
            lambda n: calls.append(n) or "ok", seed=0, policy=FAST
        )
        assert result == "ok"
        assert calls == [1]

    def test_transient_failures_retry_until_budget(self):
        calls = []

        def flaky(attempt):
            calls.append(attempt)
            if attempt < 3:
                raise TransientEngineError("not yet")
            return "ok"

        assert execute_with_retry(flaky, seed=0, policy=FAST) == "ok"
        assert calls == [1, 2, 3]

    def test_budget_exhaustion_raises_the_last_error(self):
        def always(attempt):
            raise TransientEngineError(f"attempt {attempt}")

        with pytest.raises(TransientEngineError, match="attempt 3"):
            execute_with_retry(always, seed=0, policy=FAST)

    def test_permanent_errors_never_retry(self):
        calls = []

        def fatal(attempt):
            calls.append(attempt)
            raise PermanentEngineError("skewed")

        with pytest.raises(PermanentEngineError):
            execute_with_retry(fatal, seed=0, policy=FAST)
        assert calls == [1]

    def test_deterministic_runner_errors_never_retry(self):
        calls = []

        def fatal(attempt):
            calls.append(attempt)
            raise ValueError("same seed, same error")

        with pytest.raises(ValueError):
            execute_with_retry(fatal, seed=0, policy=FAST)
        assert calls == [1]

    def test_none_policy_is_a_single_attempt(self):
        def always(attempt):
            raise TransientEngineError("no budget")

        with pytest.raises(TransientEngineError):
            execute_with_retry(always, seed=0, policy=None)

    def test_sleeps_the_deterministic_backoff(self):
        policy = RetryPolicy(max_attempts=3, backoff_base=0.1, jitter=0.25)
        slept = []

        def flaky(attempt):
            if attempt < 3:
                raise TransientEngineError("again")
            return attempt

        execute_with_retry(flaky, seed=5, policy=policy, sleep=slept.append)
        assert slept == [policy.delay(1, 5), policy.delay(2, 5)]


class TestFaultPlan:
    def test_rate_validation(self):
        with pytest.raises(ConfigurationError):
            FaultPlan(corrupt_result=1.5)
        with pytest.raises(ConfigurationError):
            FaultPlan(stall_duration=-1.0)

    def test_decide_is_deterministic(self):
        plan = FaultPlan(seed=7, corrupt_result=0.5)
        outcomes = [plan.decide(0.5, "corrupt", f"t-{i}") for i in range(64)]
        assert outcomes == [
            plan.decide(0.5, "corrupt", f"t-{i}") for i in range(64)
        ]
        assert any(outcomes) and not all(outcomes)  # a real coin at 0.5

    def test_decide_edges(self):
        plan = FaultPlan(seed=0)
        assert plan.decide(0.0, "x", 1) is False
        assert plan.decide(1.0, "x", 1) is True

    def test_different_seeds_differ(self):
        fires = [
            FaultPlan(seed=s, corrupt_result=0.5).decide(0.5, "corrupt", "t")
            for s in range(32)
        ]
        assert any(fires) and not all(fires)

    def test_json_roundtrip(self):
        plan = FaultPlan(seed=3, crash_after_claim=0.25, slow_delay=0.5)
        assert FaultPlan.from_json(plan.to_json()) == plan

    def test_from_spec_variants(self):
        plan = FaultPlan(seed=9, corrupt_result=0.5)
        assert FaultPlan.from_spec(None) is None
        assert FaultPlan.from_spec("") is None
        assert FaultPlan.from_spec(plan) is plan
        assert FaultPlan.from_spec({"seed": 9, "corrupt_result": 0.5}) == plan
        assert FaultPlan.from_spec("seed=9,corrupt_result=0.5") == plan
        assert FaultPlan.from_spec(plan.to_json()) == plan

    def test_from_spec_rejects_unknown_fields(self):
        with pytest.raises(ConfigurationError, match="unknown chaos plan"):
            FaultPlan.from_spec("tyop=1.0")
        with pytest.raises(ConfigurationError, match="key=value"):
            FaultPlan.from_spec("just-a-word")

    def test_any_faults_and_describe(self):
        assert not FaultPlan(seed=1).any_faults()
        plan = FaultPlan(seed=1, slow_worker=0.5)
        assert plan.any_faults()
        assert "slow_worker=0.5" in plan.describe()

    def test_runner_fault_only_fires_on_first_attempt(self):
        plan = FaultPlan(seed=2, runner_fault=1.0)
        with pytest.raises(TransientEngineError):
            plan.maybe_runner_fault(11, attempt=1)
        plan.maybe_runner_fault(11, attempt=2)  # recovery is guaranteed


class TestChaosBroker:
    def test_io_errors_are_single_shot(self, tmp_path):
        plan = FaultPlan(seed=1, broker_io_error=1.0)
        broker = ChaosBroker(FileBroker(tmp_path), plan)
        with pytest.raises(OSError, match="chaos"):
            broker.submit("t1", b"p")
        broker.submit("t1", b"p")  # the retry sees a clean broker
        assert broker.broker.pending_tasks() == 1
        assert broker.injected == {"io-submit": 1}

    def test_corruption_truncates_only_the_first_fetch(self, tmp_path):
        plan = FaultPlan(seed=1, corrupt_result=1.0)
        broker = ChaosBroker(FileBroker(tmp_path), plan)
        broker.submit("t1", b"p")
        task_id, payload = broker.claim("w")
        broker.complete(task_id, b"result-bytes")
        first = broker.fetch_result("t1")
        assert first == b"result"[: len(b"result-bytes") // 2]
        assert broker.injected == {"corrupt": 1}
        # the consumed result is recomputed via chunk resubmission;
        # a fresh completion then fetches clean
        broker.complete("t1", b"result-bytes")
        assert broker.fetch_result("t1") == b"result-bytes"

    def test_passthrough_operations(self, tmp_path):
        broker = ChaosBroker(FileBroker(tmp_path), FaultPlan(seed=1))
        broker.heartbeat("w1")
        assert broker.live_workers(30.0) == ["w1"]
        assert not broker.stop_requested()
        broker.request_stop()
        assert broker.stop_requested()


class TestPayloadTaxonomy:
    def test_corrupt_payload_is_transient(self):
        with pytest.raises(TransientEngineError, match="corrupt"):
            decode_result(b"\x80garbage")

    def test_version_skew_is_permanent(self):
        stale = pickle.dumps((PAYLOAD_VERSION - 1, "ok", ([],)))
        with pytest.raises(PermanentEngineError, match="version"):
            decode_result(stale)

    def test_error_payloads_carry_their_classification(self):
        transient = encode_error(TransientEngineError("flaky spool"))
        with pytest.raises(TransientEngineError, match="flaky spool"):
            decode_result(transient)
        permanent = encode_error(ValueError("deterministic"))
        with pytest.raises(PermanentEngineError, match="deterministic"):
            decode_result(permanent)


class TestResultJournal:
    def test_roundtrip_and_len(self, tmp_path):
        journal = ResultJournal(tmp_path / "j")
        chunk = tuple(_requests(3))
        key = journal.chunk_key(chunk)
        assert journal.get(key) is None
        output = _execute_chunk(chunk)
        assert journal.put(key, encode_result(output))
        assert len(journal) == 1
        assert decode_journal_hit(journal.get(key))[0] == output[0]
        assert journal.discard(key)
        assert len(journal) == 0

    def test_keys_are_content_addressed(self, tmp_path):
        journal = ResultJournal(tmp_path)
        base = journal.chunk_key(_requests(2))
        assert journal.chunk_key(_requests(2)) == base  # stable
        assert journal.chunk_key(_requests(3)) != base  # more requests
        assert journal.chunk_key(_requests(2, base=7)) != base  # payload
        other_seed = [
            RunRequest(fn=_square, payload=(100,), seed=s + 50)
            for s in range(2)
        ]
        assert journal.chunk_key(other_seed) != base  # seeds

    def test_tag_does_not_influence_the_key(self, tmp_path):
        journal = ResultJournal(tmp_path)
        tagged = [
            RunRequest(fn=_square, payload=(100,), seed=s, tag=f"x{s}")
            for s in range(2)
        ]
        untagged = [
            RunRequest(fn=_square, payload=(100,), seed=s) for s in range(2)
        ]
        assert journal.chunk_key(tagged) == journal.chunk_key(untagged)

    def test_corrupt_entries_are_misses(self, tmp_path):
        assert decode_journal_hit(b"not a payload") is None

    def test_ensure_journal_coercion(self, tmp_path):
        journal = ResultJournal(tmp_path)
        assert ensure_journal(None) is None
        assert ensure_journal(journal) is journal
        coerced = ensure_journal(tmp_path)
        assert isinstance(coerced, ResultJournal)

    def test_clear(self, tmp_path):
        journal = ResultJournal(tmp_path)
        chunk = tuple(_requests(2))
        journal.put(journal.chunk_key(chunk), encode_result(_execute_chunk(chunk)))
        assert journal.clear() == 1
        assert len(journal) == 0


class TestJournalledExecution:
    @pytest.mark.parametrize("engine", ["persistent", "queue"])
    def test_rerun_skips_finished_chunks(self, tmp_path, engine):
        requests = _requests(8)
        reference = SerialExecutor().map(requests)
        journal = tmp_path / "journal"

        with create_executor(
            engine, workers=2, chunk_size=2, journal=journal
        ) as first:
            assert first.map(requests) == reference
            stats = first.stats()
            assert stats.journal_hits == 0
            assert stats.journal_misses == 4

        # a "resubmitted campaign" recomputes nothing
        with create_executor(
            engine, workers=2, chunk_size=2, journal=journal
        ) as second:
            assert second.map(requests) == reference
            stats = second.stats()
            assert stats.journal_hits == 4
            assert stats.journal_misses == 0

    def test_partial_journal_recomputes_only_the_rest(self, tmp_path):
        # the crash-resume contract: kill a campaign after N chunks,
        # re-run, and only the remaining chunks execute
        requests = _requests(8)
        journal = ResultJournal(tmp_path)
        with create_executor(
            "persistent", workers=1, chunk_size=4, journal=journal
        ) as warm:
            warm.map(requests[:4])  # "crashed" after the first chunk
        with create_executor(
            "persistent", workers=1, chunk_size=4, journal=journal
        ) as resumed:
            assert resumed.map(requests) == SerialExecutor().map(requests)
            stats = resumed.stats()
            assert stats.journal_hits == 1
            assert stats.journal_misses == 1

    def test_journal_hits_do_not_fold_cache_deltas(self, tmp_path):
        requests = _requests(4)
        journal = tmp_path / "j"
        with SerialExecutor(journal=journal) as first:
            first.map(requests)
        with SerialExecutor(journal=journal) as second:
            second.map(requests)
            assert second.stats().journal_hits == 1
            assert second.stats().workloads_built == 0
            assert second.stats().workloads_reused == 0


class TestChaosExecution:
    def test_runner_faults_retry_in_place_everywhere(self):
        requests = _requests(6)
        reference = SerialExecutor().map(requests)
        for engine in ("serial", "persistent"):
            with create_executor(
                engine,
                workers=2,
                chunk_size=2,
                chaos_plan=FaultPlan(seed=3, runner_fault=1.0),
            ) as executor:
                assert executor.map(requests) == reference
                assert executor.stats().retries == len(requests)

    def test_runner_fault_without_policy_surfaces(self):
        with SerialExecutor(
            retry_policy=None,
            chaos_plan=FaultPlan(seed=3, runner_fault=1.0),
        ) as executor:
            with pytest.raises(TransientEngineError, match="chaos"):
                executor.map(_requests(2))

    def test_chaos_plan_spec_coercion(self):
        executor = SerialExecutor(chaos_plan="seed=5,slow_worker=0.1")
        assert executor.chaos_plan == FaultPlan(seed=5, slow_worker=0.1)


class TestWorkerChaos:
    def test_crash_before_claim(self, tmp_path):
        broker = FileBroker(tmp_path)
        with pytest.raises(ChaosCrash):
            serve(
                broker,
                chaos=FaultPlan(seed=1, crash_before_claim=1.0),
                chaos_index=0,
            )

    def test_crash_after_claim_leaves_the_claim(self, tmp_path):
        broker = FileBroker(tmp_path)
        broker.submit("t1", encode_task(_requests(2)))
        with pytest.raises(ChaosCrash):
            serve(broker, chaos=FaultPlan(seed=1, crash_after_claim=1.0))
        # the claim is in flight: requeue recovers it for the fleet
        assert broker.requeue("t1") is True
        assert broker.pending_tasks() == 1

    def test_slow_and_stalled_workers_still_complete(self, tmp_path):
        broker = FileBroker(tmp_path)
        broker.submit("t1", encode_task(_requests(2)))
        broker.request_stop()
        plan = FaultPlan(
            seed=1,
            slow_worker=1.0,
            stalled_heartbeat=1.0,
            slow_delay=0.01,
            stall_duration=0.01,
        )
        assert serve(broker, chaos=plan, max_tasks=1) == 1
        results, *_ = decode_result(broker.fetch_result("t1"))
        assert list(results) == [100 + s * s for s in range(2)]


class _ScriptedBroker:
    """A broker double with scripted fetch/stale responses.

    Used to pin the duplicate-result race deterministically: the broker
    reports the task's claim as stale (forcing a requeue), then serves
    the result *twice* — the second copy must be absorbed and counted,
    not yielded.
    """

    def __init__(self, fetch_script, stale_script):
        self.queue = {}
        self.fetch_script = fetch_script  # task -> [None | payload, ...]
        self.stale_script = stale_script  # [[task ids], ...]
        self.requeued = []
        self.discarded = []

    def submit(self, task_id, payload):
        self.queue[task_id] = payload

    def fetch_result(self, task_id):
        script = self.fetch_script.get(task_id)
        return script.pop(0) if script else None

    def requeue(self, task_id):
        self.requeued.append(task_id)
        return True

    def stale_claims(self, horizon):
        return self.stale_script.pop(0) if self.stale_script else []

    def discard(self, task_id):
        self.discarded.append(task_id)
        return True


class TestDuplicateResults:
    def test_duplicate_completion_absorbed_first_result_wins(self):
        requests = _requests(4)
        chunk = tuple(requests)
        payload = encode_result(_execute_chunk(chunk))
        task_id = None

        class Probe(_ScriptedBroker):
            def submit(self, tid, p):
                nonlocal task_id
                task_id = tid
                self.fetch_script[tid] = [None, payload, payload]
                super().submit(tid, p)

        broker = Probe({}, [])
        executor = QueueExecutor(
            workers=2,
            chunk_size=4,
            broker=broker,
            poll_interval=0.001,
            heartbeat_timeout=0.05,
            inline_fallback=False,
        )

        # script: fetch None -> requeue via stale claim -> result lands
        # -> duplicate lands on the absorption sweep
        def stale_once(horizon, _broker=broker):
            return [task_id] if _broker.requeued == [] else []

        broker.stale_claims = stale_once
        results = executor.map(requests)
        assert results == SerialExecutor().map(requests)
        stats = executor.stats()
        assert broker.requeued == [task_id]
        assert stats.requeues == 1
        assert stats.duplicate_results >= 1
        assert stats.dead_lettered == 0


class TestDeadLetterQuarantine:
    def _poison_requests(self):
        return [
            RunRequest(fn=_boom, payload=("kaboom",), seed=9),
            RunRequest(fn=_square, payload=(100,), seed=1),
        ]

    def _executor(self, tmp_path, **kwargs):
        # external broker + inline fallback: the submitter serves its
        # own queue after one (tiny) heartbeat horizon, so the whole
        # flow is in-process and fast
        return QueueExecutor(
            workers=2,
            chunk_size=1,
            broker=FileBroker(tmp_path),
            poll_interval=0.005,
            heartbeat_timeout=0.02,
            inline_fallback=True,
            **kwargs,
        )

    def test_poison_chunks_raise_after_the_dispatch(self, tmp_path):
        broker = FileBroker(tmp_path)
        executor = QueueExecutor(
            workers=2,
            chunk_size=1,
            broker=broker,
            poll_interval=0.005,
            heartbeat_timeout=0.02,
        )
        with pytest.raises(PoisonChunkError, match="kaboom \\(seed=9\\)") as info:
            executor.map(self._poison_requests())
        # the healthy chunk was not abandoned mid-campaign...
        assert executor.stats().dead_lettered == 1
        assert len(info.value.chunks) == 1
        task_id, attempts, text = info.value.chunks[0]
        assert attempts == 1  # permanent: no resubmissions wasted
        assert "kaboom (seed=9)" in text
        # ...and the poisoned payload waits in quarantine, inspectable
        assert broker.dead_letters() == [task_id]
        payload, note = broker.fetch_dead_letter(task_id)
        assert b"kaboom" in note
        from repro.engine.payloads import decode_task

        (request,) = decode_task(payload)
        assert request.seed == 9

    def test_poison_error_is_still_a_runtime_error(self, tmp_path):
        # drop-in compatibility: callers catching RuntimeError keep
        # working when a worker-side failure surfaces
        executor = self._executor(tmp_path)
        with pytest.raises(RuntimeError, match="kaboom \\(seed=9\\)"):
            executor.map(self._poison_requests())

    def test_quarantine_mode_reports_instead_of_raising(self, tmp_path):
        executor = self._executor(tmp_path, on_poison="quarantine")
        results = executor.map(self._poison_requests())
        assert results == [None, _square(100, seed=1)]
        stats = executor.stats()
        assert stats.dead_lettered == 1
        assert stats.any_resilience_events()
        assert "dead-lettered: 1" in stats.describe_resilience()

    def test_transient_chunk_failures_resubmit_then_quarantine(self, tmp_path):
        # corrupt every fetched result: each fetch raises transient, so
        # the chunk burns its full budget and lands in the dead-letter
        # spool instead of wedging the dispatch
        broker = FileBroker(tmp_path)

        class AlwaysCorrupt:
            def __getattr__(self, name):
                return getattr(broker, name)

            def fetch_result(self, task_id):
                payload = broker.fetch_result(task_id)
                return None if payload is None else payload[: len(payload) // 2]

        policy = RetryPolicy(max_attempts=2, backoff_base=0.0, backoff_max=0.0)
        executor = QueueExecutor(
            workers=2,
            chunk_size=2,
            broker=AlwaysCorrupt(),
            poll_interval=0.005,
            heartbeat_timeout=0.02,
            retry_policy=policy,
            on_poison="quarantine",
        )
        results = executor.map(_requests(2))
        assert results == [None, None]
        stats = executor.stats()
        assert stats.dead_lettered == 1
        assert stats.retries >= 1  # the resubmission was attempted
        assert len(broker.dead_letters()) == 1

    def test_on_poison_validation(self, tmp_path):
        with pytest.raises(ConfigurationError):
            QueueExecutor(broker=FileBroker(tmp_path), on_poison="explode")


class TestShutdownEscalation:
    def test_close_kills_a_wedged_worker(self, tmp_path):
        executor = QueueExecutor(
            workers=1,
            broker=FileBroker(tmp_path),
            shutdown_timeout=0.2,
        )
        hung = subprocess.Popen(
            [sys.executable, "-c", "import time; time.sleep(600)"]
        )
        executor._procs.append(hung)
        started = time.monotonic()
        executor.close()
        elapsed = time.monotonic() - started
        assert hung.returncode is not None  # reaped, not leaked
        assert elapsed < 5.0  # escalated instead of waiting 600 s

    def test_shutdown_timeout_validation(self, tmp_path):
        with pytest.raises(ConfigurationError):
            QueueExecutor(
                broker=FileBroker(tmp_path), shutdown_timeout=0.0
            )


class TestStatsSurface:
    def test_resilience_counters_in_cache_info(self):
        stats = SerialExecutor().stats()
        info = stats.cache_info()
        for key in (
            "retries",
            "requeues",
            "dead_lettered",
            "duplicate_results",
            "journal_hits",
            "journal_misses",
        ):
            assert info[key] == 0
        assert not stats.any_resilience_events()
