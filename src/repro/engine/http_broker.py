"""The remote broker client: the ``Broker`` protocol over HTTP.

:class:`HTTPBroker` implements the full
:class:`~repro.engine.broker.Broker` operation set against a
``python -m repro.engine.broker_server`` — a durable
:class:`~repro.engine.broker.FileBroker` spool behind a stdlib
``ThreadingHTTPServer`` (:mod:`repro.engine.broker_server`).  Plug it
into :class:`~repro.engine.queue_exec.QueueExecutor(broker=...)
<repro.engine.queue_exec.QueueExecutor>` or CLI ``--broker URL`` and a
campaign fans out to ``python -m repro.engine.worker --broker URL``
workers on any host that can reach the server.

Partition tolerance is the design driver — a flaky network must *stall*
a campaign, never kill it or corrupt it:

* **Taxonomy-mapped failures.**  Connection errors, timeouts, 5xx
  responses and undecodable bodies raise
  :class:`~repro.exceptions.TransientEngineError`; authentication
  failures (401/403) and protocol skew (404) raise
  :class:`~repro.exceptions.PermanentEngineError`.  Every operation
  retries transients under a :class:`~repro.engine.retry.RetryPolicy`
  with the engine's deterministic backoff, counting re-sent round
  trips in :attr:`HTTPBroker.wire_retries`.
* **Idempotent claims.**  ``claim`` sends a per-operation nonce that is
  *constant across wire retries*; the server caches its last claim
  response per worker and replays it when the same nonce returns.  A
  response lost on the wire therefore cannot strand a task "claimed by
  a worker that never heard about it".
* **Two-phase result fetch.**  ``fetch_result`` peeks the result, and
  only acks (consumes) it after the payload decoded off the wire — a
  truncated response never destroys the sole copy of a result.

Both make every operation safe to repeat blindly, which is exactly what
the retry layer does.  Chaos testing hooks in below the client:
:class:`~repro.engine.chaos.ChaosHTTPTransport` wraps the
:class:`HTTPTransport` and injects seeded resets, 5xx, timeouts and
truncated bodies keyed on the same per-operation identity.
"""

from __future__ import annotations

import base64
import json
import re
import threading
import urllib.error
import urllib.request
import uuid
import zlib
from typing import Dict, List, Optional, Tuple

from ..exceptions import PermanentEngineError, TransientEngineError
from .retry import RetryPolicy, execute_with_retry

__all__ = [
    "DEFAULT_WIRE_POLICY",
    "HTTPTransport",
    "HTTPBroker",
    "connect_broker",
]

#: Stock wire-level retry schedule: patient enough (~3 s of cumulative
#: backoff) to ride out a broker-server restart, still quick to fail
#: over when combined with the queue executor's own per-op retries.
DEFAULT_WIRE_POLICY = RetryPolicy(
    max_attempts=5,
    backoff_base=0.1,
    backoff_factor=2.0,
    backoff_max=1.0,
    jitter=0.25,
)


def _wire_seed(key: str) -> int:
    """Deterministic backoff seed for one logical operation."""
    return zlib.crc32(key.encode("utf-8"))


def _b64(payload: bytes) -> str:
    """Bytes -> JSON-safe base64 text."""
    return base64.b64encode(payload).decode("ascii")


def _unb64(text: str) -> bytes:
    """Inverse of :func:`_b64`."""
    return base64.b64decode(text.encode("ascii"))


class HTTPTransport:
    """One authenticated POST per broker operation (the chaos seam).

    :meth:`send` returns ``(HTTP status, raw response bytes)`` and lets
    connection-level failures propagate as the ``OSError`` family
    ``urllib`` raises — classification into the engine taxonomy happens
    in :class:`HTTPBroker`.  ``key`` names the *logical operation*: it
    is held constant across the client's wire retries of one operation,
    which is what lets :class:`~repro.engine.chaos.ChaosHTTPTransport`
    key its single-shot fault decisions (the retry after an injected
    fault always sees a clean wire).
    """

    def __init__(
        self,
        url: str,
        token: Optional[str] = None,
        *,
        timeout: float = 10.0,
    ):
        self.url = url.rstrip("/")
        self.token = token
        self.timeout = float(timeout)

    def send(self, op: str, body: bytes, *, key: str) -> Tuple[int, bytes]:
        """POST one operation body; ``(status, response bytes)``."""
        headers = {"Content-Type": "application/json"}
        if self.token:
            headers["Authorization"] = f"Bearer {self.token}"
        request = urllib.request.Request(
            f"{self.url}/api/{op}", data=body, headers=headers, method="POST"
        )
        try:
            with urllib.request.urlopen(request, timeout=self.timeout) as resp:
                return resp.status, resp.read()
        except urllib.error.HTTPError as exc:
            # Non-2xx with a reachable server: surface the status code
            # uniformly so the broker can classify it.
            try:
                payload = exc.read()
            except Exception:  # noqa: BLE001 - body is best-effort
                payload = b""
            return exc.code, payload

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"HTTPTransport({self.url!r})"


class HTTPBroker:
    """A remote :class:`~repro.engine.broker.Broker` over HTTP.

    Parameters
    ----------
    url:
        Base URL of a running ``python -m repro.engine.broker_server``.
    token:
        Bearer token if the server was started with one; a mismatch
        surfaces as :class:`~repro.exceptions.PermanentEngineError`
        (retrying cannot fix bad credentials).
    timeout:
        Per-request socket timeout in seconds.
    retry_policy:
        Wire-level retry schedule applied to every operation
        (:data:`DEFAULT_WIRE_POLICY`); ``None`` disables wire retries
        (each transient then surfaces immediately — the queue
        executor's per-op retry layer still applies on top).
    transport:
        Override the :class:`HTTPTransport` (tests and
        :class:`~repro.engine.chaos.ChaosHTTPTransport` wrapping).
    """

    def __init__(
        self,
        url: str,
        *,
        token: Optional[str] = None,
        timeout: float = 10.0,
        retry_policy: Optional[RetryPolicy] = DEFAULT_WIRE_POLICY,
        transport=None,
    ):
        self.transport = (
            HTTPTransport(url, token, timeout=timeout)
            if transport is None
            else transport
        )
        self.url = getattr(self.transport, "url", url.rstrip("/"))
        self.retry_policy = retry_policy
        self.wire_retries = 0
        self._lock = threading.Lock()
        self._ops = 0
        self._last_status: Dict[str, object] = {}

    # -- wire plumbing -----------------------------------------------------
    def _next_key(self, op: str) -> str:
        with self._lock:
            self._ops += 1
            return f"{op}#{self._ops}"

    def _round_trip(self, op: str, payload: bytes, key: str) -> Dict:
        try:
            status, body = self.transport.send(op, payload, key=key)
        except (TransientEngineError, PermanentEngineError):
            raise
        except Exception as exc:  # noqa: BLE001 - URLError/OSError family
            raise TransientEngineError(
                f"broker {op} @ {self.url} unreachable: {exc!r}"
            ) from exc
        if status in (401, 403):
            raise PermanentEngineError(
                f"broker {op} @ {self.url}: authentication failed "
                f"(HTTP {status}) — check the bearer token"
            )
        if status == 404:
            raise PermanentEngineError(
                f"broker {op} @ {self.url}: unknown operation (HTTP 404) — "
                "client and server are running different repro versions"
            )
        if status >= 500 or status == 429:
            raise TransientEngineError(
                f"broker {op} @ {self.url}: HTTP {status} "
                f"({body[:200].decode('utf-8', 'replace')})"
            )
        if status != 200:
            raise PermanentEngineError(
                f"broker {op} @ {self.url}: unexpected HTTP {status}"
            )
        try:
            return json.loads(body)
        except ValueError as exc:
            raise TransientEngineError(
                f"broker {op} @ {self.url}: response truncated or corrupt "
                f"({len(body)} bytes)"
            ) from exc

    def _call(
        self,
        op: str,
        body: Dict[str, object],
        *,
        key: Optional[str] = None,
    ) -> Dict:
        """One logical operation: POST + classify + retry transients.

        The serialised body and ``key`` are identical on every attempt,
        so the server (idempotent by design) and the chaos layer
        (single-shot per key) both see wire retries as what they are:
        the *same* operation asked again.
        """
        if key is None:
            key = self._next_key(op)
        payload = json.dumps(body, sort_keys=True).encode("utf-8")

        def attempt(number: int) -> Dict:
            if number > 1:
                with self._lock:
                    self.wire_retries += 1
            return self._round_trip(op, payload, key)

        return execute_with_retry(
            attempt, seed=_wire_seed(key), policy=self.retry_policy
        )

    # -- Broker protocol ---------------------------------------------------
    def submit(self, task_id: str, payload: bytes) -> None:
        """Enqueue one task payload (idempotent overwrite on retry)."""
        self._call(
            "submit",
            {"task_id": task_id, "payload": _b64(payload)},
            key=f"submit:{task_id}",
        )

    def claim(self, worker_id: str) -> Optional[Tuple[str, bytes]]:
        """Atomically take one queued task, or ``None`` if empty.

        The per-call nonce makes the operation idempotent: a wire retry
        re-sends the same nonce and the server replays its cached
        response instead of claiming a second task — a lost response
        cannot strand a claim.
        """
        nonce = uuid.uuid4().hex
        data = self._call(
            "claim",
            {"worker_id": worker_id, "nonce": nonce},
            key=f"claim:{nonce}",
        )
        if data.get("task_id") is None:
            return None
        return data["task_id"], _unb64(data["payload"])

    def complete(self, task_id: str, payload: bytes) -> None:
        """Publish a finished task's result payload (idempotent)."""
        self._call(
            "complete",
            {"task_id": task_id, "payload": _b64(payload)},
            key=f"complete:{task_id}",
        )

    def fetch_result(self, task_id: str) -> Optional[bytes]:
        """Collect a result, or ``None`` — two-phase (peek, then ack).

        The result is only consumed server-side after its bytes arrived
        intact; a failed ack is harmless (the lingering duplicate is
        absorbed by the executor's duplicate sweep or a later fetch).
        """
        data = self._call(
            "peek_result", {"task_id": task_id}, key=f"peek:{task_id}"
        )
        payload = data.get("payload")
        if payload is None:
            return None
        raw = _unb64(payload)
        try:
            self._call(
                "ack_result", {"task_id": task_id}, key=f"ack:{task_id}"
            )
        except TransientEngineError:
            pass  # the copy is safe with us; the spool copy lingers
        return raw

    def requeue(self, task_id: str) -> bool:
        """Push a claimed task back onto the queue; ``True`` if it was."""
        data = self._call(
            "requeue", {"task_id": task_id}, key=f"requeue:{task_id}"
        )
        return bool(data.get("requeued"))

    def discard(self, task_id: str) -> bool:
        """Withdraw a queued task / uncollected result; ``True`` if any."""
        data = self._call(
            "discard", {"task_id": task_id}, key=f"discard:{task_id}"
        )
        return bool(data.get("removed"))

    def dead_letter(self, task_id: str, payload: bytes, info: bytes) -> None:
        """Quarantine a poisoned task with its payload + failure info."""
        self._call(
            "dead_letter",
            {
                "task_id": task_id,
                "payload": _b64(payload),
                "info": _b64(info),
            },
            key=f"dead:{task_id}",
        )

    def dead_letters(self) -> List[str]:
        """Task ids currently quarantined in the dead-letter spool."""
        return list(self._call("dead_letters", {})["task_ids"])

    def fetch_dead_letter(
        self, task_id: str
    ) -> Optional[Tuple[bytes, bytes]]:
        """Remove one quarantined task; ``(payload, info)`` or ``None``."""
        data = self._call(
            "fetch_dead_letter",
            {"task_id": task_id},
            key=f"fetch-dead:{task_id}",
        )
        if data.get("payload") is None:
            return None
        return _unb64(data["payload"]), _unb64(data.get("info") or "")

    def heartbeat(self, worker_id: str) -> None:
        """Record that ``worker_id`` is alive on the server's clock."""
        self._call("heartbeat", {"worker_id": worker_id})

    def deregister(self, worker_id: str) -> None:
        """Say goodbye: drop the worker's lease/liveness state."""
        self._call(
            "deregister",
            {"worker_id": worker_id},
            key=f"deregister:{worker_id}",
        )

    def live_workers(self, horizon: float) -> List[str]:
        """Workers the *server's monotonic clock* heard within ``horizon``."""
        data = self._call("live_workers", {"horizon": float(horizon)})
        return list(data["workers"])

    def stale_claims(self, horizon: float) -> List[str]:
        """Claims whose lease expired on the server's monotonic clock.

        Lease arithmetic happens entirely server-side, so clock skew
        between submitter, workers and server cannot misjudge liveness.
        """
        data = self._call("stale_claims", {"horizon": float(horizon)})
        return list(data["task_ids"])

    def request_stop(self) -> None:
        """Raise the cooperative shutdown flag for all workers."""
        self._call("request_stop", {}, key="request_stop")

    def stop_requested(self) -> bool:
        """Whether shutdown has been requested."""
        return bool(self._call("stop_requested", {})["stop"])

    # -- observability -----------------------------------------------------
    def server_status(self) -> Dict[str, object]:
        """The server's ``/status`` document (queue depths, counters)."""
        status = self._call("status", {})
        with self._lock:
            self._last_status = status
        return status

    def engine_counters(self) -> Dict[str, int]:
        """Fleet/wire counter totals for ``EngineStats`` folding.

        Combines the client-side wire-retry count with the server's
        lease/fleet counters; best-effort — with the server unreachable
        the last fetched server counters are reused, so a partitioned
        status poll can never fail a dispatch.
        """
        try:
            status = self.server_status()
        except (TransientEngineError, PermanentEngineError):
            with self._lock:
                status = self._last_status
        with self._lock:
            counters = {"wire_retries": self.wire_retries}
        for name in ("lease_expiries", "worker_joins", "worker_leaves"):
            counters[name] = int(status.get(name, 0))
        return counters

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"HTTPBroker({self.url!r})"


#: URL-shaped specs (``scheme://...``) we can actually speak.  Anything
#: else URL-shaped is rejected loudly instead of being silently treated
#: as a spool *directory* named e.g. ``redis://host``.
_SUPPORTED_SCHEMES = ("http", "https")
_SCHEME_RE = re.compile(r"^(?P<scheme>[A-Za-z][A-Za-z0-9+.-]*)://")


def connect_broker(
    spec: str,
    *,
    token: Optional[str] = None,
    timeout: float = 10.0,
    retry_policy: Optional[RetryPolicy] = DEFAULT_WIRE_POLICY,
    chaos_plan=None,
):
    """A broker from a CLI-style spec.

    The spec is an ``http(s)://`` URL (an :class:`HTTPBroker`, with
    ``chaos_plan`` wire faults, if any, armed below it via
    :class:`~repro.engine.chaos.ChaosHTTPTransport`) or a
    :class:`~repro.engine.broker.FileBroker` spool directory.  A
    URL-shaped spec with any other scheme (``redis://...``) or a
    comma-separated list raises
    :class:`~repro.exceptions.PermanentEngineError` naming the
    supported forms, instead of silently becoming a spool directory
    named after the spec.

    Shared by CLI ``--broker`` and the worker entrypoint so both sides
    of the fabric accept the same notation.
    """
    supported = (
        ", ".join(f"{scheme}://HOST[:PORT]" for scheme in _SUPPORTED_SCHEMES)
        + " or a spool DIR"
    )
    if "," in spec:
        raise PermanentEngineError(
            f"one broker per campaign: {spec!r} lists several — "
            f"supported specs: {supported}"
        )
    match = _SCHEME_RE.match(spec)
    if match and match.group("scheme").lower() not in _SUPPORTED_SCHEMES:
        raise PermanentEngineError(
            f"unsupported broker scheme {match.group('scheme')!r} in "
            f"{spec!r} — supported specs: {supported}"
        )
    if match:
        transport = HTTPTransport(spec, token, timeout=timeout)
        if chaos_plan is not None and chaos_plan.any_wire_faults():
            from .chaos import ChaosHTTPTransport

            transport = ChaosHTTPTransport(transport, chaos_plan)
        return HTTPBroker(
            spec, token=token, retry_policy=retry_policy, transport=transport
        )
    from .broker import FileBroker

    return FileBroker(spec)
