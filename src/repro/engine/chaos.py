"""Deterministic fault injection for the run fabric.

The paper's whole subject is computing through failures; this module
turns the same discipline on our own execution engine.  A
:class:`FaultPlan` is a seed-driven schedule of injected faults —
worker crashes before/after claiming, stalled heartbeats, transient
``OSError`` on spool I/O, truncated result payloads, slow workers,
transient runner errors, and (for the remote fabric) wire-level HTTP
faults: connection resets, injected 5xx, timeouts and truncated
response bodies (:class:`ChaosHTTPTransport`) — that wraps any
:class:`~repro.engine.broker.Broker` (:class:`ChaosBroker`) and the
worker entrypoint (``python -m repro.engine.worker --chaos PLAN``), so
every supervision path in the fabric — retry/backoff, heartbeat
requeue, duplicate-result absorption, inline fallback — is exercised
*reproducibly* in tests and benchmarks.

Two properties make the layer safe to run under the byte-identity
pins:

1. **Determinism.**  Every injection decision is a pure function of
   ``(plan.seed, site, key)`` through :func:`repro.rng.derive_rng` —
   no global RNG, no wall clock.  The same plan over the same campaign
   fires the same faults.
2. **Single-shot per site.**  A fault fires at most once per
   ``(site, key)`` — the first result fetch of a task may come back
   truncated, the *re*-fetch after the retry never is; a runner fault
   fires only on attempt 1.  Combined with the supervision machinery
   (retries for I/O and corruption, heartbeat requeue plus inline
   fallback for crashes and stalls) this guarantees recovery: under
   any plan seed, a dispatch with ``inline_fallback`` enabled
   completes with results byte-identical to the fault-free run — the
   invariant ``tests/test_engine_chaos.py`` pins on fig7/fig10.

The injected exceptions are the real taxonomy
(:class:`~repro.exceptions.TransientEngineError`, plain ``OSError``),
so recovery flows through exactly the code paths a genuine fault would
take.
"""

from __future__ import annotations

import json
import socket
import time
from dataclasses import dataclass, fields, replace
from typing import Dict, Optional, Set, Tuple, Union

from ..exceptions import ConfigurationError, TransientEngineError
from ..rng import derive_rng

__all__ = [
    "FaultPlan",
    "ChaosBroker",
    "ChaosCrash",
    "ChaosHTTPTransport",
    "stable_task_key",
]

Key = Union[int, str]


def stable_task_key(task_id: str) -> str:
    """The run-stable part of a queue task id.

    The queue executor prefixes task ids with a per-executor nonce
    (``<nonce>-d00001-c000000``) so concurrent campaigns can share a
    spool; chaos decisions key on the suffix — dispatch + chunk index —
    so the same plan over the same campaign fires the same faults in
    every run.
    """
    _, _, suffix = task_id.partition("-")
    return suffix or task_id


class ChaosCrash(SystemExit):
    """An injected worker crash (a ``SystemExit`` so processes die).

    Raised out of :func:`repro.engine.worker.serve` when the plan
    schedules a crash: in a worker subprocess the interpreter exits
    without completing the claimed task (the claim goes stale and is
    requeued); in-process tests catch it like any exception.
    """


#: FaultPlan fields that are *wire*-level rates (the HTTP transport).
_WIRE_RATE_FIELDS = (
    "wire_reset",
    "wire_5xx",
    "wire_timeout",
    "wire_truncate",
)

#: FaultPlan fields that are injection *rates* (probabilities in [0, 1]).
_RATE_FIELDS = (
    "crash_before_claim",
    "crash_after_claim",
    "stalled_heartbeat",
    "broker_io_error",
    "corrupt_result",
    "slow_worker",
    "runner_fault",
) + _WIRE_RATE_FIELDS


@dataclass(frozen=True)
class FaultPlan:
    """A seed-driven schedule of injected faults.

    All ``*_rate``-style fields are probabilities in ``[0, 1]``; the
    durations are seconds.  The plan is immutable, picklable and
    JSON-serialisable (it travels to worker subprocesses on their
    command line).

    Parameters
    ----------
    seed:
        Master seed of every injection decision.
    crash_before_claim:
        A worker dies on start-up, before claiming anything (keyed by
        its chaos index — the fleet shrinks; supervision must absorb).
    crash_after_claim:
        A worker dies after claiming a task and before completing it
        (keyed by task id — the stale claim must be requeued).
    stalled_heartbeat:
        A worker stops heartbeating for ``stall_duration`` seconds
        while still holding — and eventually completing — its claim
        (keyed by task id — exercises requeue *and* the
        duplicate-result path).
    broker_io_error:
        A broker operation (submit / fetch / requeue) raises a
        transient ``OSError`` on its first invocation for a task.
    corrupt_result:
        The first fetch of a task's result returns truncated bytes
        (the decode fails; the chunk must be retried).
    slow_worker:
        A worker sleeps ``slow_delay`` seconds before executing a
        claimed task.
    runner_fault:
        A request raises :class:`~repro.exceptions.TransientEngineError`
        on its first attempt (keyed by the request seed — exercises the
        in-place retry layer of *every* executor).
    wire_reset, wire_5xx, wire_timeout, wire_truncate:
        HTTP wire faults, armed by wrapping an
        :class:`~repro.engine.http_broker.HTTPTransport` in
        :class:`ChaosHTTPTransport`: a connection reset *after* the
        server processed the request (the response is lost — the hard
        idempotency case), an injected 503, a socket timeout before
        the request is sent, and a response body cut in half.  At most
        one fires per logical operation; the retry always sees a clean
        wire.
    stall_duration, slow_delay:
        Durations for the stall / slow injections.
    """

    seed: int = 0
    crash_before_claim: float = 0.0
    crash_after_claim: float = 0.0
    stalled_heartbeat: float = 0.0
    broker_io_error: float = 0.0
    corrupt_result: float = 0.0
    slow_worker: float = 0.0
    runner_fault: float = 0.0
    wire_reset: float = 0.0
    wire_5xx: float = 0.0
    wire_timeout: float = 0.0
    wire_truncate: float = 0.0
    stall_duration: float = 0.3
    slow_delay: float = 0.02

    def __post_init__(self) -> None:
        for name in _RATE_FIELDS:
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ConfigurationError(
                    f"FaultPlan.{name} must be in [0, 1], got {rate}"
                )
        if self.stall_duration < 0 or self.slow_delay < 0:
            raise ConfigurationError("chaos durations must be >= 0")

    # -- decisions ---------------------------------------------------------
    def decide(self, rate: float, site: str, *keys: Key) -> bool:
        """One deterministic coin: fires with ``rate`` at ``(site, keys)``.

        A pure function of ``(plan.seed, site, keys)``; callers key on
        stable identifiers (task ids, request seeds, worker indices) so
        the schedule is reproducible across runs and processes.
        """
        if rate <= 0.0:
            return False
        if rate >= 1.0:
            return True
        return derive_rng(self.seed, "chaos", site, *keys).random() < rate

    def maybe_runner_fault(self, request_seed: int, attempt: int) -> None:
        """Raise a transient fault for this request's *first* attempt."""
        if attempt == 1 and self.decide(
            self.runner_fault, "runner", request_seed
        ):
            raise TransientEngineError(
                f"chaos: injected runner fault (request seed {request_seed})"
            )

    def any_faults(self) -> bool:
        """Whether any injection rate is non-zero."""
        return any(getattr(self, name) > 0.0 for name in _RATE_FIELDS)

    def any_wire_faults(self) -> bool:
        """Whether any HTTP wire-level injection rate is non-zero."""
        return any(getattr(self, name) > 0.0 for name in _WIRE_RATE_FIELDS)

    # -- wire format -------------------------------------------------------
    def to_json(self) -> str:
        """Compact JSON (the worker command-line / CLI format)."""
        return json.dumps(
            {f.name: getattr(self, f.name) for f in fields(self)},
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        """Inverse of :meth:`to_json`."""
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"invalid chaos plan JSON: {exc}") from exc
        return cls.from_spec(data)

    @classmethod
    def from_spec(
        cls, spec: Union[str, Dict[str, object], "FaultPlan", None]
    ) -> Optional["FaultPlan"]:
        """Build a plan from a CLI-style spec.

        Accepts ``None`` (no chaos), an existing plan, a dict, a JSON
        object string, or ``key=value`` pairs like
        ``"seed=7,crash_after_claim=0.25,corrupt_result=0.5"``.
        """
        if spec is None or isinstance(spec, FaultPlan):
            return spec
        if isinstance(spec, str):
            text = spec.strip()
            if not text:
                return None
            if text.startswith("{"):
                return cls.from_json(text)
            data: Dict[str, object] = {}
            for pair in text.split(","):
                if "=" not in pair:
                    raise ConfigurationError(
                        f"chaos spec entries must be key=value, got {pair!r}"
                    )
                key, value = (part.strip() for part in pair.split("=", 1))
                data[key] = value
            spec = data
        known = {f.name for f in fields(cls)}
        unknown = set(spec) - known
        if unknown:
            raise ConfigurationError(
                f"unknown chaos plan fields {sorted(unknown)}; "
                f"known: {sorted(known)}"
            )
        kwargs: Dict[str, object] = {}
        for key, value in spec.items():
            kwargs[key] = int(value) if key == "seed" else float(value)
        return cls(**kwargs)

    def describe(self) -> str:
        """One-line digest of the active injections."""
        active = [
            f"{name}={getattr(self, name):g}"
            for name in _RATE_FIELDS
            if getattr(self, name) > 0.0
        ]
        return f"FaultPlan(seed={self.seed}, {', '.join(active) or 'no faults'})"


class _SingleShot:
    """Single-shot, site-keyed injection bookkeeping for the wrappers.

    :meth:`_first` is true only on the first sight of an ``(op, key)``
    pair, so the retry after an injected fault always sees a clean
    transport.  :meth:`_fires` is the plan's coin at
    ``(site, stable_task_key(key))``; a fired fault is counted in
    ``injected`` under ``label`` (the site unless given).
    """

    def __init__(self, plan: FaultPlan):
        self.plan = plan
        self.injected: Dict[str, int] = {}
        self._seen: Set[Tuple[str, str]] = set()

    def _first(self, op: str, key: str) -> bool:
        if (op, key) in self._seen:
            return False
        self._seen.add((op, key))
        return True

    def _fires(
        self, rate: float, site: str, key: str, label: Optional[str] = None
    ) -> bool:
        if not self.plan.decide(rate, site, stable_task_key(key)):
            return False
        label = label or site
        self.injected[label] = self.injected.get(label, 0) + 1
        return True


class ChaosBroker(_SingleShot):
    """A :class:`~repro.engine.broker.Broker` wrapper that injects faults.

    Wraps any broker and perturbs the *transport* deterministically:
    transient ``OSError`` on the first ``submit`` / ``fetch_result`` /
    ``requeue`` touching a task, and a truncated payload on the first
    successful result fetch of a task scheduled for corruption.  All
    injections are single-shot per ``(operation, task)`` — the retry
    that follows always sees a clean broker — and every other operation
    passes straight through, so the wrapped broker's contract is
    preserved.

    ``injected`` counts fired faults by site (observability for tests
    and the soak benchmark).
    """

    def __init__(self, broker, plan: FaultPlan):
        super().__init__(plan)
        self.broker = broker

    def _maybe_io_error(self, op: str, task_id: str) -> None:
        if self._first(op, task_id) and self._fires(
            self.plan.broker_io_error, f"io-{op}", task_id
        ):
            raise OSError(f"chaos: injected {op} I/O error for {task_id!r}")

    # -- perturbed operations ----------------------------------------------
    def submit(self, task_id: str, payload: bytes) -> None:
        """Submit, perhaps after one injected ``OSError``."""
        self._maybe_io_error("submit", task_id)
        self.broker.submit(task_id, payload)

    def fetch_result(self, task_id: str) -> Optional[bytes]:
        """Fetch; the first try may raise ``OSError`` or truncate."""
        self._maybe_io_error("fetch", task_id)
        payload = self.broker.fetch_result(task_id)
        if payload is None:
            return None
        if self._first("corrupt", task_id) and self._fires(
            self.plan.corrupt_result, "corrupt", task_id
        ):
            return payload[: max(1, len(payload) // 2)]
        return payload

    def requeue(self, task_id: str) -> bool:
        """Requeue, perhaps after one injected ``OSError``."""
        self._maybe_io_error("requeue", task_id)
        return self.broker.requeue(task_id)

    def __getattr__(self, name: str):
        # Every other operation (claim, complete, heartbeat,
        # engine_counters, ...) passes straight through; callers probe
        # the optional ones with getattr(broker, name, None).
        return getattr(self.broker, name)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ChaosBroker({self.broker!r}, {self.plan.describe()})"


class ChaosHTTPTransport(_SingleShot):
    """An HTTP transport wrapper that perturbs the wire deterministically.

    Wraps anything with ``send(op, body, *, key) -> (status, bytes)``
    (:class:`~repro.engine.http_broker.HTTPTransport`) and injects the
    four classic wide-area faults.  Each decision is keyed on the
    *logical operation identity* — the ``key`` the client holds
    constant across its wire retries — via :func:`stable_task_key`
    (task-carrying keys decide identically across executor nonces), and
    at most one fault fires per logical operation, so the retry that
    follows always sees a clean wire and recovery is guaranteed even at
    rate 1.0:

    * ``wire_timeout`` — ``socket.timeout`` *before* sending (the
      request never reached the server);
    * ``wire_reset`` — the request *is* forwarded and processed, then
      ``ConnectionResetError`` (the response is lost — the hard case
      that exercises idempotent claims and two-phase result fetch);
    * ``wire_5xx`` — an injected 503 response;
    * ``wire_truncate`` — the response body arrives cut in half.

    ``injected`` counts fired faults by site, like
    :class:`ChaosBroker.injected`.
    """

    def __init__(self, transport, plan: FaultPlan):
        super().__init__(plan)
        self.transport = transport
        self.url = getattr(transport, "url", "")

    def _wire(self, rate: float, fault: str, op: str, key: str) -> bool:
        return self._fires(rate, f"wire-{fault}-{op}", key, f"wire-{fault}")

    def send(self, op: str, body: bytes, *, key: str) -> Tuple[int, bytes]:
        """Forward through the wrapped transport, perhaps perturbed once."""
        plan = self.plan
        if self._first(op, key):
            if self._wire(plan.wire_timeout, "timeout", op, key):
                raise socket.timeout(
                    f"chaos: injected timeout on {op} ({key!r})"
                )
            if self._wire(plan.wire_reset, "reset", op, key):
                self.transport.send(op, body, key=key)  # the server DID act
                raise ConnectionResetError(
                    f"chaos: response lost for {op} ({key!r}); "
                    "the server processed the request"
                )
            if self._wire(plan.wire_5xx, "5xx", op, key):
                return 503, b'{"error": "chaos: injected 503"}'
            if self._wire(plan.wire_truncate, "truncate", op, key):
                status, response = self.transport.send(op, body, key=key)
                return status, response[: len(response) // 2]
        return self.transport.send(op, body, key=key)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ChaosHTTPTransport({self.transport!r}, {self.plan.describe()})"


def sleep_for(duration: float) -> None:
    """``time.sleep`` behind a seam the tests can monkeypatch."""
    if duration > 0:
        time.sleep(duration)


def with_seed(plan: Optional[FaultPlan], seed: int) -> Optional[FaultPlan]:
    """The same plan re-keyed to another master seed (``None`` passes)."""
    return None if plan is None else replace(plan, seed=seed)
