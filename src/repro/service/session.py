"""Thread-safe session facade over the rolling-horizon engine.

The HTTP handler threads, the drain signal handler and the verbose
reporter all touch one :class:`~repro.service.horizon.OnlineEngine`,
which is single-threaded by design.  :class:`ServiceSession` is the
serialisation point: one re-entrant lock, and a *pump* that advances
the engine to the injected clock's current time before every
operation — so the service's state is always "as of now" without any
background ticker thread (and with a :class:`VirtualClock` the pump is
a no-op unless the harness moved time, keeping tests deterministic).
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional

from ..exceptions import ConfigurationError
from .horizon import OnlineEngine

__all__ = ["ServiceSession"]


class ServiceSession:
    """Job registry + lifecycle gate in front of an engine.

    ``clock`` is any object with a ``now() -> float`` method
    (:class:`~repro.service.clock.VirtualClock` or
    :class:`~repro.service.clock.WallClock`).  ``draining`` flips once
    on shutdown: submissions are refused while queued work still runs
    to completion — the zero-lost-jobs guarantee of the e2e smoke test.
    """

    def __init__(self, engine: OnlineEngine, clock):
        self.engine = engine
        self.clock = clock
        self._lock = threading.RLock()
        self._auto_id = 0
        self._draining = False

    # -- internals -----------------------------------------------------------
    def _pump(self) -> float:
        now = float(self.clock.now())
        if now > self.engine.now:
            self.engine.advance_to(now)
        return self.engine.now

    def _next_job_id(self) -> str:
        """The next ``job-NNNN`` id no job (client-named or not) holds."""
        while True:
            self._auto_id += 1
            job_id = f"job-{self._auto_id:04d}"
            if job_id not in self.engine.jobs:
                return job_id

    # -- operations ----------------------------------------------------------
    @property
    def draining(self) -> bool:
        return self._draining

    def submit(
        self,
        size: float,
        checkpoint_cost: Optional[float] = None,
        job_id: Optional[str] = None,
    ) -> Dict[str, object]:
        """Accept one job; returns its registry view."""
        with self._lock:
            if self._draining:
                raise ConfigurationError(
                    "service is draining; new submissions are refused"
                )
            self._pump()
            if job_id is None:
                job_id = self._next_job_id()
            job = self.engine.submit(job_id, size, checkpoint_cost)
            return self.engine.job_view(job)

    def cancel(self, job_id: str) -> Dict[str, object]:
        """Withdraw a job; idempotent on unknown/terminal jobs."""
        with self._lock:
            self._pump()
            cancelled = self.engine.cancel(job_id)
            job = self.engine.jobs.get(job_id)
            return {
                "job_id": job_id,
                "cancelled": cancelled,
                "status": job.status if job is not None else None,
            }

    def jobs(self) -> List[Dict[str, object]]:
        """Every known job, in submission order."""
        with self._lock:
            self._pump()
            return [
                self.engine.job_view(job) for job in self.engine.jobs.values()
            ]

    def schedule(self) -> Dict[str, object]:
        """The live allocation plus the full epoch history (the
        engine's epoch log rebuilt in one bulk pass)."""
        with self._lock:
            self._pump()
            doc = self.engine.schedule_view()
            doc["epochs"] = list(self.engine.epochs)
            return doc

    def metrics(self) -> Dict[str, object]:
        """Telemetry document (see :mod:`repro.service.telemetry`)."""
        from .telemetry import service_metrics

        with self._lock:
            self._pump()
            return service_metrics(self)

    def drain(self) -> Dict[str, object]:
        """Refuse new work and run everything accepted to completion."""
        with self._lock:
            self._draining = True
            self._pump()
            final_time = self.engine.drain()
            jobs = [
                self.engine.job_view(job) for job in self.engine.jobs.values()
            ]
            terminal = ("completed", "cancelled")
            lost = [j["job_id"] for j in jobs if j["status"] not in terminal]
            return {
                "drained_at": final_time,
                "jobs": jobs,
                "completed": sum(
                    1 for j in jobs if j["status"] == "completed"
                ),
                "cancelled": sum(
                    1 for j in jobs if j["status"] == "cancelled"
                ),
                "lost": lost,
            }
