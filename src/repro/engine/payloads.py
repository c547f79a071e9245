"""Wire format of the queue fabric: task and result payload codecs.

Both ends of a :class:`~repro.engine.broker.Broker` speak this format:
the submitting :class:`~repro.engine.queue_exec.QueueExecutor` encodes
chunks of :class:`~repro.engine.request.RunRequest` with
:func:`encode_task`, and workers publish either an ``ok`` payload — the
chunk results plus the worker's named :mod:`repro.counters` delta,
exactly the ``(results, counts)`` pair the in-process ``_execute_chunk``
produces — or an ``error`` payload carrying the formatted traceback
*and a retry classification*:

* ``"transient"`` — the worker's in-place retries ran out on a
  retryable failure (I/O, injected chaos); the submitter may resubmit
  the chunk under its own :class:`~repro.engine.retry.RetryPolicy`.
  :func:`decode_result` re-raises these as
  :class:`~repro.exceptions.TransientEngineError`.
* ``"permanent"`` — the chunk raised a deterministic error (requests
  are pure functions of their seed, so a re-run *must* fail
  identically); re-raised as
  :class:`~repro.exceptions.PermanentEngineError` and dead-lettered by
  the submitter without wasting resubmissions.

A payload that cannot be unpickled at all (truncated or corrupted in
transit) raises :class:`~repro.exceptions.TransientEngineError` — the
result bytes are gone but the work is repeatable, so the submitter
retries the chunk.  A version mismatch is
:class:`~repro.exceptions.PermanentEngineError`: retrying cannot fix
skewed software.

This lives apart from :mod:`repro.engine.worker` so importing the
engine package never imports the ``python -m repro.engine.worker``
entrypoint module itself.
"""

from __future__ import annotations

import pickle
import traceback
from typing import Optional, TYPE_CHECKING

from ..exceptions import PermanentEngineError, TransientEngineError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .chaos import FaultPlan
    from .retry import RetryPolicy

__all__ = [
    "PAYLOAD_VERSION",
    "encode_task",
    "decode_task",
    "encode_result",
    "encode_error",
    "decode_result",
    "execute_payload",
]

#: Result-payload protocol version (bump on layout changes).
#: v2: error payloads carry a retry classification, ok payloads a
#: fifth engine-counter delta tuple.  v3: the decision-counter delta
#: tuple has four entries (the ``tau_last`` patch counter is gone).
#: v4: ok payloads carry ``(results, counts)``, one ``{name: delta}``
#: mapping in place of the four positional delta tuples.
PAYLOAD_VERSION = 4


def encode_task(requests) -> bytes:
    """Pickle one chunk of :class:`RunRequest` for broker transport."""
    return pickle.dumps(tuple(requests), protocol=pickle.HIGHEST_PROTOCOL)


def decode_task(payload: bytes):
    """Inverse of :func:`encode_task`."""
    return pickle.loads(payload)


def encode_result(chunk_output) -> bytes:
    """Pickle one chunk's ``(results, counts)`` pair."""
    return pickle.dumps(
        (PAYLOAD_VERSION, "ok", chunk_output),
        protocol=pickle.HIGHEST_PROTOCOL,
    )


def encode_error(exc: BaseException) -> bytes:
    """Pickle a worker-side failure: classification + remote traceback."""
    from .retry import is_transient

    kind = "transient" if is_transient(exc) else "permanent"
    text = "".join(traceback.format_exception(type(exc), exc, exc.__traceback__))
    return pickle.dumps((PAYLOAD_VERSION, "error", (kind, text)))


def decode_result(payload: bytes):
    """Decode a result payload; raise the taxonomy on non-``ok`` ones.

    Returns the ``(results, counts)`` pair the in-process
    ``_execute_chunk`` would have produced.
    Raises :class:`~repro.exceptions.TransientEngineError` for
    undecodable bytes and transient worker failures,
    :class:`~repro.exceptions.PermanentEngineError` for version skew
    and deterministic worker failures — each carrying the remote
    traceback when one travelled back.
    """
    try:
        version, status, body = pickle.loads(payload)
    except Exception as exc:  # noqa: BLE001 - any unpickle failure
        raise TransientEngineError(
            f"queue result payload is corrupt ({len(payload)} bytes): {exc!r}"
        ) from exc
    if version != PAYLOAD_VERSION:
        raise PermanentEngineError(
            f"queue payload version {version} != {PAYLOAD_VERSION}; "
            "submitter and worker are running different repro versions"
        )
    if status == "error":
        kind, text = body
        message = f"queue worker failed ({kind}):\n{text}"
        if kind == "transient":
            raise TransientEngineError(message)
        raise PermanentEngineError(message)
    return body


def execute_payload(
    payload: bytes,
    *,
    policy: Optional["RetryPolicy"] = None,
    plan: Optional["FaultPlan"] = None,
) -> bytes:
    """Run one task payload in this process; never raises.

    ``policy`` applies the worker-side in-place retry of transient
    request failures (the same layer every executor uses); ``plan``
    threads an active chaos :class:`~repro.engine.chaos.FaultPlan`
    into the runners.  A failure that escapes the retry budget is
    published as an error payload with its classification.
    """
    from .executors import _execute_chunk

    try:
        return encode_result(
            _execute_chunk(decode_task(payload), policy=policy, plan=plan)
        )
    except BaseException as exc:  # noqa: BLE001 - must travel back whole
        return encode_error(exc)
