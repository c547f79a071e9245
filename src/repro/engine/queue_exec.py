"""The queue executor: run-fabric dispatch through a pluggable broker.

:class:`QueueExecutor` is the third engine behind the
:class:`~repro.engine.executors.Executor` interface and the first whose
workers need not live in this process tree: every chunk of
:class:`~repro.engine.request.RunRequest` is pickled and pushed through
a :class:`~repro.engine.broker.Broker`, executed by whatever worker
processes serve that broker (``python -m repro.engine.worker``), and
collected back as a result payload carrying the chunk results plus the
worker's named :mod:`repro.counters` delta — so
:class:`~repro.engine.executors.EngineStats` (workload, profile-cache
and decision-state counters included) survives the queue boundary
exactly as it survives a process pool.

Two deployment shapes, one class:

* **Self-contained** (the default): no broker given — the executor
  creates a private :class:`~repro.engine.broker.FileBroker` spool in a
  temporary directory and spawns ``workers`` local worker subprocesses
  against it, cleaning both up on :meth:`~QueueExecutor.close`.  This
  is what CLI ``--engine queue`` uses.
* **Shared broker**: pass one broker — a spool directory other
  processes on this host or any host mounting it serve with
  ``python -m repro.engine.worker --broker DIR``, or an
  :class:`~repro.engine.http_broker.HTTPBroker` whose server they
  reach with ``--broker URL`` (CLI ``--broker SPEC``).  The executor
  only submits and collects; the worker fleet is yours (see
  ``examples/remote_campaign.py``).

Supervision (the full story is ``docs/RESILIENCE.md``): workers
heartbeat through the broker; a claimed chunk whose claimant goes
silent past ``heartbeat_timeout`` is requeued for another worker
(counted as ``requeues``), and if the fleet dies entirely — or none
ever heartbeats — the submitting process claims the remaining chunks
itself, so a dispatch always completes.  A chunk that
comes back as a *transient* failure (worker I/O, a corrupted result
payload, injected chaos) is resubmitted under the executor's
:class:`~repro.engine.retry.RetryPolicy` with deterministic backoff; a
*permanent* failure — or a transient one that exhausts the budget — is
quarantined in the broker's dead-letter spool with its remote
traceback, and the dispatch finishes the surviving chunks before
reporting the loss as :class:`~repro.exceptions.PoisonChunkError`.
Duplicate executions caused by requeueing are harmless: requests are
pure functions of their seed (the determinism contract in
:mod:`repro.engine`), so any execution of a chunk yields byte-identical
results; redundant completions are absorbed first-result-wins and
counted as ``duplicate_results``.  The queue engine is pinned
byte-identical to :class:`SerialExecutor` alongside every other engine
in ``tests/test_perf_equivalence.py`` — and, under any chaos
:class:`~repro.engine.chaos.FaultPlan`, in ``tests/test_engine_chaos.py``.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
import uuid
from typing import Dict, Iterator, List, Optional, Set, Tuple

from ..exceptions import (
    ConfigurationError,
    PermanentEngineError,
    PoisonChunkError,
    TransientEngineError,
)
from .broker import Broker, FileBroker, worker_identity
from .chaos import ChaosBroker
from .executors import _PooledExecutor
from .request import RunRequest
from .payloads import decode_result, encode_task, execute_payload
from .retry import execute_with_retry

__all__ = ["QueueExecutor"]

#: ``--max-idle`` of self-hosted workers: if the submitter dies without
#: :meth:`QueueExecutor.close` (kill -9, OOM), orphaned workers stop
#: polling after this long instead of spinning forever.  A fleet that
#: idled out is respawned on the next dispatch.
WORKER_MAX_IDLE_S = 600.0

#: Seconds :meth:`QueueExecutor.close` waits for each spawned worker to
#: honour the cooperative stop sentinel before escalating to ``kill()``.
SHUTDOWN_TIMEOUT_S = 10.0


def _worker_env() -> dict:
    """The spawned worker's environment: inherit + parent's sys.path.

    Workers are fresh interpreters, so anything importable here (the
    ``repro`` package itself, plus whatever modules the RunRequest
    runner functions live in) must be importable there; exporting the
    parent's ``sys.path`` as ``PYTHONPATH`` guarantees it.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in sys.path if p)
    return env


class QueueExecutor(_PooledExecutor):
    """Broker-backed fan-out with heartbeat/timeout supervision.

    Parameters
    ----------
    workers:
        Local worker subprocesses to spawn when the executor owns its
        broker (``1`` runs inline, like the pooled executors).  With a
        caller-supplied broker nothing is spawned and this only sizes
        the chunking.
    chunk_size:
        Contiguous requests per broker task; default ~4 chunks per
        worker (:func:`~repro.engine.executors.default_chunk_size`).
    broker:
        A :class:`~repro.engine.broker.Broker` served by an external
        worker fleet.  ``None`` (default) self-hosts a
        :class:`~repro.engine.broker.FileBroker` plus local workers.
    poll_interval:
        Seconds between result-collection passes (and the spawned
        workers' idle poll).
    heartbeat_timeout:
        Seconds of claimant silence after which a claimed task is
        requeued — and, with no live workers at all, after which the
        submitter starts executing queued tasks itself.
    retry_policy, chaos_plan, journal:
        The resilience knobs shared by every executor (see
        :class:`~repro.engine.executors.Executor`).  Here the policy
        additionally governs per-chunk resubmission and transient
        broker I/O, the chaos plan wraps the broker in a
        :class:`~repro.engine.chaos.ChaosBroker` and rides to spawned
        workers on their command line, and the journal short-circuits
        chunks a previous (possibly killed) campaign already finished.
    """

    name = "queue"

    def __init__(
        self,
        workers: int = 2,
        chunk_size: Optional[int] = None,
        *,
        broker: Optional[Broker] = None,
        poll_interval: float = 0.02,
        heartbeat_timeout: float = 60.0,
        **kwargs,
    ):
        super().__init__(workers, chunk_size, **kwargs)
        if poll_interval <= 0:
            raise ConfigurationError(
                f"poll_interval must be > 0, got {poll_interval}"
            )
        if heartbeat_timeout <= 0:
            raise ConfigurationError(
                f"heartbeat_timeout must be > 0, got {heartbeat_timeout}"
            )
        self._broker = broker
        self._spawn_workers = broker is None
        self._spool: Optional[str] = None
        self._procs: List[subprocess.Popen] = []
        self._chaos: Optional[ChaosBroker] = None
        self.poll_interval = float(poll_interval)
        self.heartbeat_timeout = float(heartbeat_timeout)
        self._submitter = f"submitter-{worker_identity()}"
        self._nonce = uuid.uuid4().hex[:8]
        self._counter_base: Dict[str, int] = {}
        self._broker_boot: object = None

    # -- fabric lifecycle --------------------------------------------------
    def _ensure_fabric(self) -> Broker:
        """The live broker, creating the spool + fleet on first use.

        A self-hosted fleet that exited (:data:`WORKER_MAX_IDLE_S` elapsed
        between campaigns, or a crash) is respawned here rather than
        silently degrading every later dispatch to inline execution.
        With an active chaos plan the broker comes back wrapped in a
        persistent :class:`~repro.engine.chaos.ChaosBroker`, so the
        single-shot injection bookkeeping spans the dispatch loop.
        """
        if self._broker is None:
            self._spool = tempfile.mkdtemp(prefix="repro-queue-")
            self._broker = FileBroker(self._spool)
            self._spawn_fleet()
        else:
            if self._stats.dispatches > 1:
                self._stats.pool_reuses += 1
            if (
                self._spawn_workers
                and self._fleet_dead()
                and not self._broker.stop_requested()
            ):
                self._procs = []
                self._spawn_fleet()
        if self.chaos_plan is not None and self.chaos_plan.any_faults():
            if self._chaos is None or self._chaos.broker is not self._broker:
                self._chaos = ChaosBroker(self._broker, self.chaos_plan)
            return self._chaos
        return self._broker

    def _spawn_fleet(self) -> None:
        """Launch ``workers`` local worker subprocesses on the spool."""
        command = [
            sys.executable,
            "-m",
            "repro.engine.worker",
            "--broker",
            self._spool,
            "--poll-interval",
            str(self.poll_interval),
            "--max-idle",
            str(WORKER_MAX_IDLE_S),
        ]
        chaos_active = (
            self.chaos_plan is not None and self.chaos_plan.any_faults()
        )
        if chaos_active:
            command += ["--chaos", self.chaos_plan.to_json()]
        self._stats.pool_launches += 1
        for index in range(self.workers):
            worker_command = list(command)
            if chaos_active:
                worker_command += ["--chaos-index", str(index)]
            log = open(  # noqa: SIM115 - handed to the subprocess
                os.path.join(self._spool, f"worker-{index}.log"), "ab"
            )
            self._procs.append(
                subprocess.Popen(
                    worker_command,
                    stdout=log,
                    stderr=subprocess.STDOUT,
                    env=_worker_env(),
                    close_fds=True,
                )
            )
            log.close()

    def _fleet_dead(self) -> bool:
        """All spawned workers have exited (only meaningful if spawned)."""
        return bool(self._procs) and all(
            proc.poll() is not None for proc in self._procs
        )

    def close(self) -> None:
        """Stop the fleet and remove the owned spool (idempotent).

        Workers get :data:`SHUTDOWN_TIMEOUT_S` seconds to honour the stop
        sentinel; one that is wedged (stuck syscall, pathological
        chunk) is killed outright so ``close`` always returns.
        """
        if self._broker is not None and (self._spawn_workers or self._procs):
            try:
                self._broker.request_stop()
            except OSError:  # pragma: no cover - spool already gone
                pass
        for proc in self._procs:
            try:
                proc.wait(timeout=SHUTDOWN_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        self._procs = []
        self._chaos = None
        if self._spool is not None:
            shutil.rmtree(self._spool, ignore_errors=True)
            self._spool = None
            self._broker = None

    # -- dispatch ----------------------------------------------------------
    def _broker_call(self, fn, *args, seed: int = 0):
        """One broker operation under the retry policy.

        Transient spool I/O (a full disk hiccup, an injected chaos
        ``OSError``) retries with the same deterministic backoff as
        everything else; the attempts beyond the first are counted as
        ``retries``.
        """

        def attempt(number: int):
            if number > 1:
                self._stats.retries += 1
            return fn(*args)

        return execute_with_retry(attempt, seed=seed, policy=self.retry_policy)

    def _sync_broker_counters(self, broker: Broker) -> None:
        """Merge the broker's fabric counters into :class:`EngineStats`.

        Remote brokers (:class:`~repro.engine.http_broker.HTTPBroker`)
        expose cumulative wire/fleet counters, keyed by ``EngineStats``
        field name, plus the server's ``boot_monotonic`` stamp, via
        ``engine_counters()``; brokers without that surface contribute
        nothing.  Only the growth since the last sync is added.  A moved
        boot stamp means the broker server restarted and counts its
        fleet events from zero again, so their base resets;
        ``wire_retries`` is counted by the client and never resets.
        """
        getter = getattr(broker, "engine_counters", None)
        if getter is None:
            return
        try:
            totals = dict(getter())
        except (TransientEngineError, PermanentEngineError, OSError):
            return  # stats merging is best-effort, never fails a dispatch
        boot = totals.pop("boot_monotonic", None)
        if boot != self._broker_boot:
            self._broker_boot = boot
            self._counter_base = {
                "wire_retries": self._counter_base.get("wire_retries", 0)
            }
        self._stats.add(
            {
                name: total - self._counter_base.get(name, 0)
                for name, total in totals.items()
            }
        )
        self._counter_base.update(totals)

    def _run(
        self, chunks: List[Tuple[RunRequest, ...]]
    ) -> Iterator[Tuple[int, Tuple]]:
        """Submit chunks to the broker; yield results as they land.

        A self-hosted single worker runs inline instead.  One iteration
        of the wait loop = resubmit chunks whose backoff deadline
        passed, collect every landed result, then (only if nothing
        landed) supervise: requeue stale claims and, with the fleet dead
        or absent past the heartbeat horizon, claim a task and run it
        inline.  Each result is yielded with its chunk's index, so
        arrival order is irrelevant to the result.
        """
        if self.workers == 1 and self._spawn_workers:
            yield from super()._run(chunks)
            return
        dispatch = self._stats.dispatches  # unique per map() call
        broker = self._ensure_fabric()

        pending: Dict[str, int] = {}  # task id -> chunk index
        payloads: Dict[str, bytes] = {}
        seeds: Dict[str, int] = {}
        attempts: Dict[str, int] = {}
        retry_at: Dict[str, float] = {}  # backoff deadlines (monotonic)
        requeued: Set[str] = set()  # tasks that may complete twice
        completed: Set[str] = set()
        dead: List[Tuple[str, int, str]] = []

        budget = 1 if self.retry_policy is None else self.retry_policy.max_attempts

        def quarantine(task_id: str, exc: Exception) -> None:
            text = str(exc)
            try:
                broker.dead_letter(task_id, payloads[task_id], text.encode())
            except (TransientEngineError, OSError):
                pass  # quarantine is best-effort (e.g. broker down)
            self._stats.dead_lettered += 1
            dead.append((task_id, attempts[task_id], text))
            pending.pop(task_id, None)

        def absorb_duplicates() -> None:
            # A requeued/resubmitted task we already collected may still
            # produce a second (byte-identical) completion; consume it so
            # the spool stays clean and count it.
            for task_id in requeued & completed:
                try:
                    if broker.fetch_result(task_id) is not None:
                        self._stats.duplicate_results += 1
                except OSError:  # pragma: no cover - sweep is best-effort
                    pass

        for index, chunk in enumerate(chunks):
            task_id = f"{self._nonce}-d{dispatch:05d}-c{index:06d}"
            payload = encode_task(chunk)
            seed = chunk[0].seed
            self._broker_call(broker.submit, task_id, payload, seed=seed)
            pending[task_id] = index
            payloads[task_id] = payload
            seeds[task_id] = seed
            attempts[task_id] = 1
        idle_since = time.monotonic()
        try:
            while pending:
                landed = False
                now = time.monotonic()
                for task_id in [
                    t for t, when in retry_at.items() if when <= now
                ]:
                    del retry_at[task_id]
                    self._broker_call(
                        broker.submit,
                        task_id,
                        payloads[task_id],
                        seed=seeds[task_id],
                    )
                    requeued.add(task_id)
                for task_id in sorted(pending):
                    if task_id in retry_at:
                        continue  # resubmission still waiting out backoff
                    payload = self._broker_call(
                        broker.fetch_result, task_id, seed=seeds[task_id]
                    )
                    if payload is None:
                        continue
                    landed = True
                    try:
                        output = decode_result(payload)
                    except TransientEngineError as exc:
                        if attempts[task_id] >= budget:
                            quarantine(task_id, exc)
                        else:
                            delay = (
                                0.0
                                if self.retry_policy is None
                                else self.retry_policy.delay(
                                    attempts[task_id], seeds[task_id]
                                )
                            )
                            retry_at[task_id] = time.monotonic() + delay
                            attempts[task_id] += 1
                            self._stats.retries += 1
                        continue
                    except PermanentEngineError as exc:
                        quarantine(task_id, exc)
                        continue
                    completed.add(task_id)
                    yield pending.pop(task_id), output
                absorb_duplicates()
                if landed or not pending:
                    idle_since = time.monotonic()
                    continue
                for task_id in broker.stale_claims(self.heartbeat_timeout):
                    if task_id in pending and task_id not in retry_at:
                        if self._broker_call(
                            broker.requeue, task_id, seed=seeds[task_id]
                        ):
                            requeued.add(task_id)
                            self._stats.requeues += 1
                if self._should_execute_inline(broker, idle_since):
                    try:
                        claimed = broker.claim(self._submitter)
                    except (TransientEngineError, OSError):
                        claimed = None  # total outage: keep polling
                    if claimed is not None:
                        task_id, payload = claimed
                        result = execute_payload(
                            payload,
                            policy=self.retry_policy,
                            plan=self.chaos_plan,
                        )
                        try:
                            broker.complete(task_id, result)
                        except (TransientEngineError, OSError):
                            # The claim's lease goes stale and the
                            # chunk requeues; purity makes the re-run
                            # byte-identical.
                            pass
                        continue
                time.sleep(self.poll_interval)
        finally:
            # Abandoned dispatch (worker error re-raised, or the
            # map_stream consumer closed early): withdraw what never
            # ran and drop uncollected results, so a shared fleet does
            # not burn time on — and a shared spool does not accumulate
            # — the remains of a dead campaign.  In-flight claimed
            # chunks finish and overwrite harmlessly.
            for task_id in pending:
                broker.discard(task_id)
            absorb_duplicates()
            self._sync_broker_counters(broker)
        if dead:
            lines = [
                f"queue executor: {len(dead)} chunk(s) quarantined in the "
                "dead-letter spool after exhausting their retry budget:"
            ]
            for task_id, tried, text in dead:
                lines.append(f"--- {task_id} (attempts: {tried}) ---\n{text}")
            raise PoisonChunkError("\n".join(lines), chunks=dead)

    def _should_execute_inline(
        self, broker: Broker, idle_since: float
    ) -> bool:
        """Whether the submitter should start serving its own queue.

        Yes when the spawned fleet has died outright, or when no worker
        anywhere has heartbeat within the timeout *and* we have already
        waited one full heartbeat horizon for a fleet to appear.
        """
        if self._fleet_dead():
            return True
        if self._procs:
            return False  # spawned fleet alive: let it work
        return (
            not broker.live_workers(self.heartbeat_timeout)
            and time.monotonic() - idle_since > self.heartbeat_timeout
        )
