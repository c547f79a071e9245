"""The queue fabric's worker-side entrypoint.

::

    python -m repro.engine.worker --broker /path/to/spool
    python -m repro.engine.worker --broker http://host:8642 --broker-token T

runs one worker process against one broker — a local
:class:`~repro.engine.broker.FileBroker` spool directory or (the
elastic-fleet shape) an ``http(s)://`` URL of a running
``python -m repro.engine.broker_server`` — claim a task, unpickle its
tuple of :class:`~repro.engine.request.RunRequest`, execute it exactly
like an in-process chunk (same code path as every other engine, so
results are byte-identical by construction), and publish a result
payload that carries the chunk results *plus* the worker-side
cache-counter deltas — workload cache, profile cache, decision state —
so the submitting :class:`~repro.engine.queue_exec.QueueExecutor` can
fold them into its :class:`~repro.engine.executors.EngineStats` just as
a process pool would.  Failures inside a chunk are published as error
payloads (the traceback travels back to the submitter and is re-raised
there); the worker itself keeps serving.

Liveness and elasticity: the worker heartbeats through the broker (a
daemon thread beats in parallel with chunk execution, and *backs off
and retries* when a beat fails — a broker hiccup must not silently
kill liveness), and exits when the broker's cooperative stop flag is
raised, when ``--max-idle`` seconds pass without work, or after
``--max-tasks`` tasks (testing hook).  Workers may join a campaign at
any time from any host that reaches the broker, and leave gracefully:
``SIGTERM`` requests a *drain* — the claimed chunk is finished and its
result published, the lease released, the worker deregistered — so
shrinking a fleet never loses or duplicates work.  Transient broker
failures (a partition, a restarting broker server) stall the loop with
exponential backoff instead of killing the process.

Chaos: ``--chaos PLAN`` (a :class:`~repro.engine.chaos.FaultPlan` as
JSON) arms deterministic worker-side fault injection — crash on
start-up before any claim (keyed by ``--chaos-index``), crash after
claiming a task, a stalled heartbeat that outlives the submitter's
timeout while the task still completes (the duplicate-result path),
and artificially slow execution.  Each decision is a pure function of
the plan seed and a stable key, so a chaotic fleet is exactly
reproducible (see :mod:`repro.engine.chaos`).
"""

from __future__ import annotations

import argparse
import os
import signal
import sys
import threading
import time
from typing import Optional, Sequence, Tuple

from ..exceptions import TransientEngineError
from .broker import Broker, worker_identity
from .chaos import ChaosCrash, FaultPlan, sleep_for, stable_task_key
from .http_broker import connect_broker
from .payloads import (  # noqa: F401 - re-exported wire-format codecs
    PAYLOAD_VERSION,
    decode_result,
    decode_task,
    encode_error,
    encode_result,
    encode_task,
    execute_payload,
)
from .retry import DEFAULT_RETRY_POLICY

__all__ = [
    "encode_task",
    "decode_task",
    "encode_result",
    "decode_result",
    "serve",
    "main",
]

#: Ceiling on the transient-failure backoff of the serve loop (seconds).
_MAX_BACKOFF = 2.0


def serve(
    broker: Broker,
    *,
    worker_id: Optional[str] = None,
    poll_interval: float = 0.02,
    max_idle: Optional[float] = None,
    max_tasks: Optional[int] = None,
    heartbeat_interval: float = 1.0,
    chaos: Optional[FaultPlan] = None,
    chaos_index: int = 0,
    retry_policy=DEFAULT_RETRY_POLICY,
    drain: Optional[threading.Event] = None,
) -> int:
    """Serve the broker until stopped; returns tasks executed.

    One iteration = publish any pending result, heartbeat, claim,
    execute (or idle-sleep).  Exits when the broker's stop flag is up
    and no task was claimable, after ``max_idle`` seconds without work,
    after ``max_tasks`` tasks, or — the graceful-drain path — when
    ``drain`` is set *and* the claimed chunk has been finished and
    published (``main`` sets it from ``SIGTERM``).  On every exit path
    the worker deregisters from the broker, releasing its liveness
    record immediately.

    A daemon thread heartbeats every ``heartbeat_interval`` seconds *in
    parallel with chunk execution*, so a worker deep inside a long
    chunk still advertises liveness — without it, any chunk outlasting
    the submitter's ``heartbeat_timeout`` would be judged dead,
    requeued and executed twice (harmless but wasteful).  A beat that
    fails backs off exponentially and keeps retrying: transient broker
    trouble must never silently kill liveness.  The claim/complete loop
    is hardened the same way — a transient broker failure (partition,
    broker-server restart) stalls the worker, it does not kill it, and
    an executed chunk's result is held and re-published until the
    broker accepts it (at-least-once, never lost).

    ``chaos`` arms worker-side fault injection (see the module
    docstring); ``chaos_index`` keys the start-up crash decision so a
    plan can kill worker 0 but spare worker 1.  ``retry_policy`` is the
    in-place retry applied to transient request failures inside each
    chunk — the same layer every in-process executor applies — so a
    transient fault recovers *here* instead of costing a round trip.
    """
    worker_id = worker_id or worker_identity()
    stop_beating = threading.Event()
    beats_suspended = threading.Event()

    def _log(message: str) -> None:
        print(f"worker[{worker_id}]: {message}", file=sys.stderr, flush=True)

    def _beat() -> None:
        delay = heartbeat_interval
        while not stop_beating.wait(delay):
            if beats_suspended.is_set():
                continue
            try:
                broker.heartbeat(worker_id)
            except (TransientEngineError, OSError) as exc:
                delay = min(delay * 2.0, max(heartbeat_interval, 30.0))
                _log(f"heartbeat failed ({exc}); next beat in {delay:.1f}s")
            else:
                delay = heartbeat_interval

    if chaos is not None and chaos.decide(
        chaos.crash_before_claim, "crash-before", chaos_index
    ):
        raise ChaosCrash(3)

    beater = threading.Thread(target=_beat, daemon=True)
    beater.start()
    executed = 0
    idle_since = time.monotonic()
    chaos_seen = set()
    unpublished: Optional[Tuple[str, bytes]] = None
    backoff = poll_interval
    try:
        while True:
            if unpublished is not None:
                # An executed chunk's result outranks everything: hold
                # it and retry until the broker accepts it (a drain-safe
                # worker may not exit with a claimed chunk unpublished).
                task_id, result = unpublished
                try:
                    broker.complete(task_id, result)
                except (TransientEngineError, OSError) as exc:
                    _log(
                        f"publishing {task_id} failed ({exc}); "
                        f"retrying in {backoff:.2f}s"
                    )
                    time.sleep(backoff)
                    backoff = min(backoff * 2.0, _MAX_BACKOFF)
                    continue
                unpublished = None
                backoff = poll_interval
                executed += 1
                idle_since = time.monotonic()
                if max_tasks is not None and executed >= max_tasks:
                    return executed
                continue
            if drain is not None and drain.is_set():
                _log(f"drained after {executed} task(s)")
                return executed
            if not beats_suspended.is_set():
                try:
                    broker.heartbeat(worker_id)
                except (TransientEngineError, OSError):
                    pass  # the beater thread owns beat retries
            try:
                task = broker.claim(worker_id)
            except (TransientEngineError, OSError) as exc:
                _log(f"claim failed ({exc}); backing off {backoff:.2f}s")
                time.sleep(backoff)
                backoff = min(backoff * 2.0, _MAX_BACKOFF)
                continue
            backoff = poll_interval
            if task is not None:
                task_id, payload = task
                if chaos is not None and task_id not in chaos_seen:
                    chaos_seen.add(task_id)
                    task_key = stable_task_key(task_id)
                    if chaos.decide(
                        chaos.crash_after_claim, "crash-after", task_key
                    ):
                        raise ChaosCrash(3)
                    if chaos.decide(chaos.slow_worker, "slow", task_key):
                        sleep_for(chaos.slow_delay)
                    if chaos.decide(
                        chaos.stalled_heartbeat, "stall", task_key
                    ):
                        beats_suspended.set()
                        sleep_for(chaos.stall_duration)
                        beats_suspended.clear()
                unpublished = (
                    task_id,
                    execute_payload(payload, policy=retry_policy, plan=chaos),
                )
                continue
            try:
                if broker.stop_requested():
                    return executed
            except (TransientEngineError, OSError):
                pass  # an unreachable stop flag reads as "keep going"
            if (
                max_idle is not None
                and time.monotonic() - idle_since > max_idle
            ):
                return executed
            time.sleep(poll_interval)
    finally:
        stop_beating.set()
        beater.join(timeout=heartbeat_interval + 1.0)
        deregister = getattr(broker, "deregister", None)
        if deregister is not None:
            try:
                deregister(worker_id)
            except (TransientEngineError, OSError):
                pass  # best-effort goodbye; staleness ages us out anyway


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entrypoint: ``python -m repro.engine.worker --broker URL|DIR``."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.engine.worker",
        description=(
            "Serve a repro.engine queue-executor broker: claim RunRequest "
            "chunks, execute them, publish results (with cache-counter "
            "deltas) back through the broker.  SIGTERM drains: the "
            "claimed chunk is finished and published before exit."
        ),
    )
    parser.add_argument(
        "--broker",
        required=True,
        metavar="SPEC",
        help=(
            "broker to serve: an http(s):// URL of a "
            "`python -m repro.engine.broker_server` or a FileBroker "
            "spool directory shared with the submitter"
        ),
    )
    parser.add_argument(
        "--broker-token",
        default=None,
        metavar="TOKEN",
        help="bearer token for http(s) brokers (default: $REPRO_BROKER_TOKEN)",
    )
    parser.add_argument(
        "--poll-interval",
        type=float,
        default=0.02,
        help="seconds to sleep when the queue is empty (default 0.02)",
    )
    parser.add_argument(
        "--max-idle",
        type=float,
        default=None,
        help="exit after this many idle seconds (default: wait for stop)",
    )
    parser.add_argument(
        "--max-tasks",
        type=int,
        default=None,
        help="exit after executing this many tasks (testing hook)",
    )
    parser.add_argument(
        "--heartbeat-interval",
        type=float,
        default=1.0,
        help="seconds between liveness beats (default 1.0)",
    )
    parser.add_argument(
        "--worker-id",
        default=None,
        help="override the advertised worker identity",
    )
    parser.add_argument(
        "--chaos",
        default=None,
        metavar="PLAN",
        help="arm deterministic fault injection (a FaultPlan as JSON)",
    )
    parser.add_argument(
        "--chaos-index",
        type=int,
        default=0,
        help="this worker's index in the fleet (keys start-up crashes)",
    )
    args = parser.parse_args(argv)
    token = (
        args.broker_token
        if args.broker_token is not None
        else os.environ.get("REPRO_BROKER_TOKEN")
    )
    plan = None if args.chaos is None else FaultPlan.from_json(args.chaos)
    broker = connect_broker(args.broker, token=token, chaos_plan=plan)
    drain = threading.Event()
    try:
        signal.signal(signal.SIGTERM, lambda signum, frame: drain.set())
    except ValueError:  # pragma: no cover - not the main thread
        pass
    executed = serve(
        broker,
        worker_id=args.worker_id,
        poll_interval=args.poll_interval,
        max_idle=args.max_idle,
        max_tasks=args.max_tasks,
        heartbeat_interval=args.heartbeat_interval,
        chaos=plan,
        chaos_index=args.chaos_index,
        drain=drain,
    )
    state = "drained" if drain.is_set() else "exit"
    print(f"worker {state}: {executed} task(s) executed")
    return 0


if __name__ == "__main__":  # pragma: no cover - subprocess entrypoint
    raise SystemExit(main())
