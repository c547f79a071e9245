"""The queue fabric's transport: a pluggable task/result broker.

The queue executor (:mod:`repro.engine.queue_exec`) never talks to its
workers directly — it serialises work through a :class:`Broker`, an
at-least-once task/result queue small enough to implement over any
shared medium.  The bundled :class:`FileBroker` runs it over a spool
directory (atomic renames on one host or any shared filesystem); a
remote backend (redis, SQS, an HTTP service) only has to provide the
same small operation set to plug in.

The delivery contract
---------------------

Brokers are deliberately *at-least-once*, not exactly-once: a claimed
task whose worker goes silent is requeued and may eventually run twice.
That is safe — and is why the contract is so small — because every
payload is a pickled tuple of :class:`~repro.engine.request.RunRequest`
and requests are pure functions of their seed (the determinism contract
in :mod:`repro.engine`): duplicate executions produce byte-identical
result payloads, so whichever completion lands first is *the* answer
and later duplicates overwrite it with the same bytes.

Concretely a broker must guarantee:

* :meth:`~Broker.submit` / :meth:`~Broker.claim` — each submitted task
  is claimed by at most one worker at a time (atomic hand-off);
* :meth:`~Broker.complete` / :meth:`~Broker.fetch_result` — a completed
  task's result payload is retrievable exactly once by the submitter;
  completing an already-completed task is a harmless overwrite;
* :meth:`~Broker.requeue` — a claimed task can be pushed back for
  another worker (used when the claimant's heartbeat goes stale);
* :meth:`~Broker.discard` — a queued task (and any uncollected result)
  can be withdrawn by the submitter, e.g. when a dispatch aborts;
* :meth:`~Broker.dead_letter` / :meth:`~Broker.dead_letters` /
  :meth:`~Broker.fetch_dead_letter` — a chunk that exhausted its retry
  budget is quarantined with its payload and remote traceback instead
  of wedging the campaign (see :mod:`repro.engine.retry` and the
  runbook in ``docs/RESILIENCE.md``);
* :meth:`~Broker.heartbeat` / :meth:`~Broker.live_workers` /
  :meth:`~Broker.deregister` — workers advertise liveness (and say
  goodbye when they drain); the submitter uses it for timeout
  decisions;
* :meth:`~Broker.request_stop` / :meth:`~Broker.stop_requested` — a
  cooperative shutdown flag workers poll between tasks.
"""

from __future__ import annotations

import os
import socket
import time
import uuid
from pathlib import Path
from typing import List, Optional, Protocol, Tuple, runtime_checkable

from ..exceptions import ConfigurationError

__all__ = ["Broker", "FileBroker", "spool_id", "worker_identity"]


def worker_identity() -> str:
    """A broker-unique worker id: ``host-pid-nonce``."""
    return f"{socket.gethostname()}-{os.getpid()}-{uuid.uuid4().hex[:6]}"


def spool_id(ident: str) -> str:
    """``ident``, checked to be safe as a spool file name.

    Task and worker ids become file names under the spool.  An id with
    a ``/`` or a NUL byte, or one that is empty, ``.`` or ``..``,
    raises :class:`~repro.exceptions.ConfigurationError` (a 400 over
    HTTP) before anything touches disk, so no id names a file outside
    the spool.
    """
    if "/" in ident or "\0" in ident or ident in ("", ".", ".."):
        raise ConfigurationError(f"invalid spool id {ident!r}")
    return ident


@runtime_checkable
class Broker(Protocol):
    """The pluggable queue transport (see the module docstring).

    Implementations carry opaque ``bytes`` payloads both ways and never
    inspect them; all ordering/reassembly semantics live in the queue
    executor, all purity/duplication semantics in the RunRequest
    determinism contract.
    """

    def submit(self, task_id: str, payload: bytes) -> None:
        """Enqueue one task payload under ``task_id``."""
        ...

    def claim(self, worker_id: str) -> Optional[Tuple[str, bytes]]:
        """Atomically take one queued task, or ``None`` if empty."""
        ...

    def complete(self, task_id: str, payload: bytes) -> None:
        """Publish a finished task's result payload (idempotent)."""
        ...

    def fetch_result(self, task_id: str) -> Optional[bytes]:
        """Collect (and consume) a result, or ``None`` if not ready."""
        ...

    def requeue(self, task_id: str) -> bool:
        """Push a claimed task back onto the queue; ``True`` if it was."""
        ...

    def discard(self, task_id: str) -> bool:
        """Withdraw a queued task and drop any uncollected result.

        ``True`` if anything was removed.  A task currently *claimed*
        is not touched — its eventual result is dropped by the next
        ``discard`` or overwritten by a later submit of the same id.
        """
        ...

    def dead_letter(self, task_id: str, payload: bytes, info: bytes) -> None:
        """Quarantine a poisoned task: keep its payload + failure info.

        Dead-lettered tasks are out of the delivery loop — no worker
        will claim them — but stay inspectable and resubmittable by an
        operator (``info`` carries the remote traceback).
        """
        ...

    def dead_letters(self) -> List[str]:
        """Task ids currently quarantined in the dead-letter spool."""
        ...

    def fetch_dead_letter(
        self, task_id: str
    ) -> Optional[Tuple[bytes, bytes]]:
        """Remove one quarantined task; ``(payload, info)`` or ``None``.

        Fetching un-quarantines: the caller now owns the payload (to
        resubmit it after a fix, or drop it for good).
        """
        ...

    def heartbeat(self, worker_id: str) -> None:
        """Record that ``worker_id`` is alive right now."""
        ...

    def live_workers(self, horizon: float) -> List[str]:
        """Workers whose last heartbeat is younger than ``horizon`` s."""
        ...

    def deregister(self, worker_id: str) -> None:
        """Forget a worker's liveness record (a graceful drain/leave)."""
        ...

    def stale_claims(self, horizon: float) -> List[str]:
        """Task ids claimed by workers silent for over ``horizon`` s."""
        ...

    def request_stop(self) -> None:
        """Raise the cooperative shutdown flag for all workers."""
        ...

    def stop_requested(self) -> bool:
        """Whether shutdown has been requested."""
        ...


class FileBroker:
    """The bundled local broker: a spool directory of atomic renames.

    Layout under ``root`` (all directories created eagerly)::

        queue/<task>.task      submitted, unclaimed payloads
        claimed/<task>.task    payloads a worker is executing
        claimed/<task>.owner   claimant worker id (one line)
        results/<task>.result  completed result payloads
        dead/<task>.task       quarantined (dead-lettered) payloads
        dead/<task>.info       the quarantined task's failure report
        workers/<worker>.beat  heartbeat files (mtime = last beat)
        stop                   cooperative-shutdown sentinel

    Every visible file appears via ``os.replace`` of a fsynced staging
    file written *in the target's own directory* (dot-prefixed, so no
    glob sees it; same-directory so the rename never crosses a device
    on spools that mount subdirectories separately), so readers never
    observe partial payloads — even across a crash mid-write — and a claim *is*
    one ``os.replace`` from ``queue/`` to ``claimed/`` — the filesystem
    arbitrates racing workers (the losers get ``FileNotFoundError`` and
    move on).  This works unchanged across processes of one host and
    across hosts mounting a shared filesystem; liveness comes from
    heartbeat-file mtimes, so hosts sharing a spool should have loosely
    synchronised clocks (the horizon is seconds, not microseconds).
    """

    def __init__(self, root: os.PathLike | str):
        self.root = Path(root)
        for sub in ("queue", "claimed", "results", "dead", "workers"):
            (self.root / sub).mkdir(parents=True, exist_ok=True)

    # -- internals ---------------------------------------------------------
    def _write_atomic(self, target: Path, payload: bytes) -> None:
        # Stage in the *target's* directory: os.replace cannot cross
        # filesystems, and a shared spool may mount subdirectories on
        # different devices.  The leading dot keeps staging files out of
        # every ``*.task`` / ``*.result`` / ``*.beat`` glob; the fsync
        # before the rename means a crash (broker-server power loss
        # included) can never publish a torn payload under a final name.
        staged = target.parent / f".{uuid.uuid4().hex}.staging"
        with open(staged, "wb") as handle:
            handle.write(payload)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(staged, target)

    def _path(self, sub: str, ident: str, suffix: str) -> Path:
        """``<root>/<sub>/<ident><suffix>``: the one id-to-path map."""
        return self.root / sub / f"{spool_id(ident)}{suffix}"

    # -- Broker protocol ---------------------------------------------------
    def submit(self, task_id: str, payload: bytes) -> None:
        """Stage the payload and rename it into ``queue/``."""
        self._write_atomic(self._path("queue", task_id, ".task"), payload)

    def claim(self, worker_id: str) -> Optional[Tuple[str, bytes]]:
        """Take the lexicographically first queued task, if any.

        The ``os.replace`` into ``claimed/`` is the atomic hand-off;
        losing a race just moves on to the next entry.
        """
        claimed_dir = self.root / "claimed"
        for entry in sorted(self.root.joinpath("queue").glob("*.task")):
            target = claimed_dir / entry.name
            try:
                os.replace(entry, target)
            except FileNotFoundError:
                continue  # another worker won this task
            task_id = entry.stem
            try:
                # Stamp the *claim* time: os.replace preserves the
                # submit-time mtime, which would otherwise make a task
                # that waited in the queue look instantly stale to
                # ownerless-claim aging in stale_claims().
                os.utime(target)
                self._write_atomic(
                    claimed_dir / f"{task_id}.owner", worker_id.encode()
                )
                return task_id, target.read_bytes()
            except FileNotFoundError:
                continue  # requeued from under us: treat as a lost race
        return None

    def complete(self, task_id: str, payload: bytes) -> None:
        """Publish the result and drop the claim (idempotent)."""
        self._write_atomic(self._path("results", task_id, ".result"), payload)
        for suffix in (".task", ".owner"):
            try:
                os.remove(self._path("claimed", task_id, suffix))
            except FileNotFoundError:
                pass  # requeued meanwhile, or a duplicate completion

    def fetch_result(self, task_id: str) -> Optional[bytes]:
        """Read and consume one result file, if it has landed."""
        path = self._path("results", task_id, ".result")
        try:
            payload = path.read_bytes()
        except FileNotFoundError:
            return None
        try:
            os.remove(path)
        except FileNotFoundError:  # pragma: no cover - racing fetchers
            pass
        return payload

    def peek_result(self, task_id: str) -> Optional[bytes]:
        """Read a result *without* consuming it (``None`` if not landed).

        The broker server's two-phase result fetch is built on this:
        the remote client peeks, decodes, and only then acks the
        consumption — so a response lost on the wire never destroys
        the sole copy of a result.
        """
        try:
            return self._path("results", task_id, ".result").read_bytes()
        except FileNotFoundError:
            return None

    def requeue(self, task_id: str) -> bool:
        """Move a claimed task back to ``queue/`` (e.g. dead claimant)."""
        try:
            os.replace(
                self._path("claimed", task_id, ".task"),
                self._path("queue", task_id, ".task"),
            )
        except FileNotFoundError:
            return False  # completed (or re-claimed) in the meantime
        try:
            os.remove(self._path("claimed", task_id, ".owner"))
        except FileNotFoundError:
            pass
        return True

    def discard(self, task_id: str) -> bool:
        """Remove the queued payload and/or result file for ``task_id``."""
        removed = False
        for path in (
            self._path("queue", task_id, ".task"),
            self._path("results", task_id, ".result"),
        ):
            try:
                os.remove(path)
                removed = True
            except FileNotFoundError:
                pass
        return removed

    def dead_letter(self, task_id: str, payload: bytes, info: bytes) -> None:
        """Quarantine ``task_id``: payload + failure report into ``dead/``.

        Any residue of the task elsewhere in the spool (a queued
        payload from a racing resubmit, an uncollected error result)
        is withdrawn, so quarantine is the task's terminal state until
        an operator fetches it back.
        """
        self._write_atomic(self._path("dead", task_id, ".task"), payload)
        self._write_atomic(self._path("dead", task_id, ".info"), info)
        self.discard(task_id)

    def dead_letters(self) -> List[str]:
        """Quarantined task ids, lexicographically sorted."""
        return sorted(
            entry.stem for entry in self.root.joinpath("dead").glob("*.task")
        )

    def fetch_dead_letter(
        self, task_id: str
    ) -> Optional[Tuple[bytes, bytes]]:
        """Remove one quarantined task; ``(payload, info)`` or ``None``."""
        task_path = self._path("dead", task_id, ".task")
        info_path = self._path("dead", task_id, ".info")
        try:
            payload = task_path.read_bytes()
        except FileNotFoundError:
            return None
        try:
            info = info_path.read_bytes()
        except FileNotFoundError:
            info = b""
        for path in (task_path, info_path):
            try:
                os.remove(path)
            except FileNotFoundError:  # pragma: no cover - racing fetchers
                pass
        return payload, info

    def heartbeat(self, worker_id: str) -> None:
        """Touch the worker's beat file (mtime is the liveness clock)."""
        path = self._path("workers", worker_id, ".beat")
        try:
            os.utime(path)
        except FileNotFoundError:
            self._write_atomic(path, b"")

    def live_workers(self, horizon: float) -> List[str]:
        """Worker ids that heartbeat within the last ``horizon`` s."""
        now = time.time()
        alive = []
        for path in self.root.joinpath("workers").glob("*.beat"):
            try:
                if now - path.stat().st_mtime <= horizon:
                    alive.append(path.stem)
            except FileNotFoundError:  # pragma: no cover - races with rm
                continue
        return alive

    def deregister(self, worker_id: str) -> None:
        """Remove the worker's beat file (a drained worker's goodbye).

        A deregistered worker drops out of :meth:`live_workers`
        immediately instead of lingering until its last beat ages past
        the horizon — so the submitter's inline fallback and requeue
        decisions see fleet departures promptly.
        """
        try:
            os.remove(self._path("workers", worker_id, ".beat"))
        except FileNotFoundError:
            pass

    def stale_claims(self, horizon: float) -> List[str]:
        """Claimed task ids whose owner has been silent > ``horizon`` s.

        A claim without an owner file yet (the window between the two
        claim writes) is judged by the claim file's own age instead.
        """
        live = set(self.live_workers(horizon))
        now = time.time()
        stale = []
        for entry in self.root.joinpath("claimed").glob("*.task"):
            owner_path = entry.with_suffix(".owner")
            try:
                owner = owner_path.read_text().strip()
            except FileNotFoundError:
                try:
                    if now - entry.stat().st_mtime > horizon:
                        stale.append(entry.stem)
                except FileNotFoundError:
                    pass
                continue
            if owner not in live:
                stale.append(entry.stem)
        return stale

    def request_stop(self) -> None:
        """Drop the ``stop`` sentinel workers poll between tasks."""
        self._write_atomic(self.root / "stop", b"stop\n")

    def stop_requested(self) -> bool:
        """Whether the ``stop`` sentinel exists."""
        return (self.root / "stop").exists()

    # -- convenience -------------------------------------------------------
    def pending_tasks(self) -> int:
        """Queued (unclaimed) task count — monitoring helper."""
        return sum(1 for _ in self.root.joinpath("queue").glob("*.task"))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FileBroker({str(self.root)!r})"
