"""The remote broker server: a durable spool behind authenticated HTTP.

::

    python -m repro.engine.broker_server --spool /srv/campaign --port 8642

exposes the full :class:`~repro.engine.broker.Broker` operation set of
a :class:`~repro.engine.broker.FileBroker` spool over token-bearer
HTTP, for :class:`~repro.engine.http_broker.HTTPBroker` submitters and
``python -m repro.engine.worker --broker http://host:8642`` workers on
any reachable host.  Three properties carry the fabric's robustness
story (the operator runbook is ``docs/RESILIENCE.md``):

* **Durability.**  Every queue/claim/result/dead-letter mutation is an
  fsynced atomic rename in the spool — the server process holds *no*
  task state worth losing.  Kill it (``kill -9`` included) and restart
  it on the same ``--spool`` and every queued, claimed, completed and
  quarantined task is exactly where it was.
* **Server-side leases.**  ``claim`` opens a lease stamped with the
  *server's monotonic clock*, renewed by heartbeats and released by
  ``complete``/``requeue``/``deregister``.  ``stale_claims`` is pure
  server-side arithmetic on that one clock, so cross-host wall-clock
  skew can never misjudge a worker dead (or alive).  After a restart
  the lease table is empty: claims become reclaimable one horizon
  after boot — late enough for surviving workers to re-announce
  themselves, soon enough that work lost with a dead worker requeues.
* **Idempotent wire semantics.**  Claims carry a client nonce and the
  last response per worker is cached and replayed (after a restart,
  from the claim's owner record in the spool), and result fetches
  are two-phase (peek, then ack) — so the
  :class:`~repro.engine.http_broker.HTTPBroker` client may blindly
  retry any operation whose response was lost to the network.

The transport is the stdlib JSON-over-HTTP server the scheduling
service also uses (:mod:`repro._jsonhttp`; base64 for payload bytes):
one request per operation, a bearer token compared in constant time,
``/status`` for monitoring.
"""

from __future__ import annotations

import argparse
import os
import threading
import time
from typing import Dict, Optional, Sequence, Set, Tuple

from .._jsonhttp import JSONServer
from .broker import FileBroker, spool_id
from .http_broker import _b64, _unb64

__all__ = ["SCHEMA_VERSION", "BrokerService", "BrokerServer", "main"]

#: Version of the wire operation set + status document.  Bump it when
#: an operation's semantics change incompatibly.
SCHEMA_VERSION = 2

#: Hard cap on request bodies (a chunk payload is typically ~KBs).
MAX_BODY_BYTES = 256 * 1024 * 1024


def _text(data: Dict, key: str, *, optional: bool = False) -> str:
    """``data[key]``, checked to be a string before any state changes.

    A missing required key raises ``KeyError`` and a wrong type
    ``TypeError`` (both a 400 over HTTP); an absent or null
    ``optional`` key reads as ``""``.
    """
    value = data.get(key) if optional else data[key]
    if optional and value is None:
        return ""
    if not isinstance(value, str):
        kind = type(value).__name__
        raise TypeError(f"{key!r} must be a string, got {kind}")
    return value


def _id(data: Dict, key: str) -> str:
    """``data[key]`` as a task or worker id: a string naming no path
    outside the spool (:func:`~repro.engine.broker.spool_id`)."""
    return spool_id(_text(data, key))


class BrokerService:
    """Server-side broker semantics: durable spool + monotonic leases.

    Everything durable delegates to the :class:`FileBroker` spool;
    everything *temporal* — heartbeats, claim leases, the fleet
    join/leave ledger — lives in memory on one monotonic clock
    (``clock``, injectable for tests).  ``handle(op, data)`` dispatches
    one decoded request and returns the response document; transport
    concerns (HTTP, auth, JSON framing) stay in :mod:`repro._jsonhttp`.
    """

    def __init__(self, spool, *, clock=time.monotonic):
        self.spool = (
            spool if isinstance(spool, FileBroker) else FileBroker(spool)
        )
        self._clock = clock
        self._lock = threading.RLock()
        self._started = clock()
        self._beats: Dict[str, float] = {}
        self._known: Set[str] = set()
        self._owners: Dict[str, str] = {}
        self._claimed_at: Dict[str, float] = {}
        self._expired: Set[str] = set()
        self._claim_replay: Dict[str, Tuple[str, Dict]] = {}
        self.counters: Dict[str, int] = {
            "requests": 0,
            "worker_joins": 0,
            "worker_leaves": 0,
            "lease_expiries": 0,
        }

    # -- internals ---------------------------------------------------------
    def _note_beat(self, worker_id: str) -> None:
        self._beats[worker_id] = self._clock()
        if worker_id not in self._known:
            self._known.add(worker_id)
            self.counters["worker_joins"] += 1

    def _release_lease(self, task_id: str) -> None:
        self._owners.pop(task_id, None)
        self._claimed_at.pop(task_id, None)
        self._expired.discard(task_id)

    def handle(self, op: str, data: Dict) -> Dict:
        """Dispatch one operation; raises ``LookupError`` on unknown ops."""
        handler = getattr(self, f"_op_{op}", None)
        if handler is None or not op.islower() or op.startswith("_"):
            raise LookupError(op)
        with self._lock:
            self.counters["requests"] += 1
        return handler(data)

    # -- durable operations (spool-backed) ---------------------------------
    def _op_submit(self, data: Dict) -> Dict:
        task_id = _id(data, "task_id")
        self.spool.submit(task_id, _unb64(_text(data, "payload")))
        return {}

    def _op_claim(self, data: Dict) -> Dict:
        worker_id = _id(data, "worker_id")
        nonce = data.get("nonce")
        with self._lock:
            cached = self._claim_replay.get(worker_id)
            if nonce is not None and cached is not None and cached[0] == nonce:
                # The worker never saw our previous answer: replay it
                # verbatim instead of claiming a second task (idempotent
                # claim — the partition-tolerance linchpin).
                return dict(cached[1])
            self._note_beat(worker_id)
        task = self._recorded_claim(worker_id) if cached is None else None
        if task is None:
            task = self.spool.claim(worker_id)
        with self._lock:
            if task is None:
                response: Dict = {"task_id": None}
            else:
                task_id, payload = task
                self._owners[task_id] = worker_id
                self._claimed_at[task_id] = self._clock()
                self._expired.discard(task_id)
                response = {"task_id": task_id, "payload": _b64(payload)}
            if nonce is not None:
                self._claim_replay[worker_id] = (nonce, dict(response))
        return response

    def _recorded_claim(
        self, worker_id: str
    ) -> Optional[Tuple[str, bytes]]:
        """A claim the spool records for a worker this server never
        answered: a previous server made it and died before replying,
        so hand it back instead of stranding it under a live owner."""
        claimed = self.spool.root.joinpath("claimed")
        for owner in sorted(claimed.glob("*.owner")):
            try:
                if owner.read_text().strip() == worker_id:
                    task = owner.with_suffix(".task")
                    return task.stem, task.read_bytes()
            except FileNotFoundError:
                continue  # completed or requeued meanwhile
        return None

    def _op_complete(self, data: Dict) -> Dict:
        task_id = _id(data, "task_id")
        self.spool.complete(task_id, _unb64(_text(data, "payload")))
        with self._lock:
            self._release_lease(task_id)
        return {}

    def _op_peek_result(self, data: Dict) -> Dict:
        payload = self.spool.peek_result(_id(data, "task_id"))
        return {"payload": None if payload is None else _b64(payload)}

    def _op_ack_result(self, data: Dict) -> Dict:
        removed = self.spool.fetch_result(_id(data, "task_id"))
        return {"removed": removed is not None}

    def _op_requeue(self, data: Dict) -> Dict:
        task_id = _id(data, "task_id")
        requeued = self.spool.requeue(task_id)
        if requeued:
            with self._lock:
                self._release_lease(task_id)
        return {"requeued": requeued}

    def _op_discard(self, data: Dict) -> Dict:
        return {"removed": self.spool.discard(_id(data, "task_id"))}

    def _op_dead_letter(self, data: Dict) -> Dict:
        task_id = _id(data, "task_id")
        self.spool.dead_letter(
            task_id,
            _unb64(_text(data, "payload")),
            _unb64(_text(data, "info", optional=True)),
        )
        with self._lock:
            self._release_lease(task_id)
        return {}

    def _op_dead_letters(self, data: Dict) -> Dict:
        return {"task_ids": self.spool.dead_letters()}

    def _op_fetch_dead_letter(self, data: Dict) -> Dict:
        fetched = self.spool.fetch_dead_letter(_id(data, "task_id"))
        if fetched is None:
            return {"payload": None}
        payload, info = fetched
        return {"payload": _b64(payload), "info": _b64(info)}

    def _op_request_stop(self, data: Dict) -> Dict:
        self.spool.request_stop()
        return {}

    def _op_stop_requested(self, data: Dict) -> Dict:
        return {"stop": self.spool.stop_requested()}

    # -- temporal operations (server monotonic clock) ----------------------
    def _op_heartbeat(self, data: Dict) -> Dict:
        with self._lock:
            self._note_beat(_id(data, "worker_id"))
        return {}

    def _op_deregister(self, data: Dict) -> Dict:
        worker_id = _id(data, "worker_id")
        with self._lock:
            self._beats.pop(worker_id, None)
            self._claim_replay.pop(worker_id, None)
            if worker_id in self._known:
                self._known.discard(worker_id)
                self.counters["worker_leaves"] += 1
        self.spool.deregister(worker_id)
        return {}

    def _op_live_workers(self, data: Dict) -> Dict:
        horizon = float(data["horizon"])
        with self._lock:
            now = self._clock()
            workers = sorted(
                worker
                for worker, beat in self._beats.items()
                if now - beat <= horizon
            )
        return {"workers": workers}

    def _op_stale_claims(self, data: Dict) -> Dict:
        horizon = float(data["horizon"])
        with self._lock:
            now = self._clock()
            stale = []
            claimed = self.spool.root.joinpath("claimed").glob("*.task")
            for entry in claimed:
                task_id = entry.stem
                owner = self._owners.get(task_id)
                if owner is None:
                    # Unknown lease (a claim that survived a server
                    # restart): recover the owner from the spool so a
                    # surviving worker's fresh beats still renew it.
                    try:
                        owner = (
                            entry.with_suffix(".owner").read_text().strip()
                        )
                    except OSError:
                        owner = None
                # The lease's last signal: boot time (the restart grace
                # period), the claim stamp, and the owner's last beat —
                # all on this one monotonic clock.
                last = max(
                    self._started,
                    self._claimed_at.get(task_id, self._started),
                    self._beats.get(owner, self._started)
                    if owner is not None
                    else self._started,
                )
                if now - last > horizon:
                    stale.append(task_id)
                    if task_id not in self._expired:
                        self._expired.add(task_id)
                        self.counters["lease_expiries"] += 1
            return {
                "task_ids": sorted(stale),
                "lease_expiries": self.counters["lease_expiries"],
            }

    def _op_status(self, data: Dict) -> Dict:
        with self._lock:
            status: Dict[str, object] = {
                "spool": str(self.spool.root),
                # A moved boot stamp tells a monitor the server was
                # restarted; a changed schema tells it the protocol was.
                "schema_version": SCHEMA_VERSION,
                "boot_monotonic": self._started,
                "uptime": self._clock() - self._started,
                "queued": self.spool.pending_tasks(),
                "claimed": sum(
                    1
                    for _ in self.spool.root.joinpath("claimed").glob(
                        "*.task"
                    )
                ),
                "dead": len(self.spool.dead_letters()),
                "workers_known": len(self._known),
                "stop": self.spool.stop_requested(),
            }
            status.update(self.counters)
        return status


#: Every operation is ``POST /api/<op>``; ``GET /status`` is for
#: curl and monitoring.
_ROUTES = {
    ("POST", f"/api/{name[len('_op_'):]}"): name[len("_op_"):]
    for name in vars(BrokerService)
    if name.startswith("_op_")
}
_ROUTES[("GET", "/status")] = _ROUTES[("GET", "/api/status")] = "status"


class BrokerServer(JSONServer):
    """One broker server: spool + service + threaded HTTP listener.

    Usable three ways: in-process for tests and examples
    (:meth:`start` / :meth:`shutdown`), blocking from ``__main__``
    (:meth:`serve_forever`), and *restartable* — construct a new
    instance on the same spool (and port; the listener sets
    ``allow_reuse_address``) after a kill and every durable task state
    is recovered from disk, while leases restart from the boot-time
    grace period (see :class:`BrokerService`).  The spool outlives
    :meth:`shutdown`: a new server on the same directory resumes the
    campaign.  ``listen`` takes :class:`~repro._jsonhttp.JSONServer`'s
    ``host``, ``port``, ``token`` and ``verbose``.
    """

    def __init__(self, spool, **listen):
        self.service = BrokerService(spool)
        super().__init__(
            self.service, _ROUTES, max_body=MAX_BODY_BYTES, **listen
        )


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entrypoint: ``python -m repro.engine.broker_server``."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.engine.broker_server",
        description=(
            "Serve a FileBroker spool over token-authenticated HTTP for "
            "HTTPBroker submitters and `python -m repro.engine.worker "
            "--broker URL` fleets.  The spool is durable: kill and "
            "restart this server on the same --spool and the campaign "
            "resumes."
        ),
    )
    parser.add_argument(
        "--spool",
        required=True,
        metavar="DIR",
        help="FileBroker spool directory (created if missing)",
    )
    parser.add_argument(
        "--host",
        default="127.0.0.1",
        help="bind address (default 127.0.0.1; 0.0.0.0 for a fleet)",
    )
    parser.add_argument(
        "--port",
        type=int,
        default=8642,
        help="TCP port (default 8642; 0 picks a free one)",
    )
    parser.add_argument(
        "--token",
        default=None,
        help=(
            "bearer token clients must present "
            "(default: $REPRO_BROKER_TOKEN; empty = unauthenticated)"
        ),
    )
    parser.add_argument(
        "--verbose",
        action="store_true",
        help="log every request to stderr",
    )
    args = parser.parse_args(argv)
    token = (
        args.token
        if args.token is not None
        else os.environ.get("REPRO_BROKER_TOKEN")
    )
    server = BrokerServer(
        args.spool,
        host=args.host,
        port=args.port,
        token=token,
        verbose=args.verbose,
    )
    print(
        f"broker server on {server.url} "
        f"(spool: {args.spool}, auth: {'token' if token else 'open'})",
        flush=True,
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("broker server: interrupted; spool is durable, restart to resume")
    finally:
        server.close_socket()
    return 0


if __name__ == "__main__":  # pragma: no cover - subprocess entrypoint
    raise SystemExit(main())
