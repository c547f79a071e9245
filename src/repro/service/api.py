"""The service's operation set, independent of any transport.

:class:`ServiceAPI` — ``handle(op, data)`` dispatch over decoded JSON
documents — *is* the in-process transport seam: the replay harness, the
benchmark client and the unit tests drive the exact objects the HTTP
handler of :mod:`repro.service.server` does.  It lives apart from the
server so that driving it never imports ``http.server``.
"""

from __future__ import annotations

from typing import Dict

from ..exceptions import ConfigurationError
from .session import ServiceSession

__all__ = ["SCHEMA_VERSION", "ServiceAPI"]

#: Version of the service operation set.  Bump on incompatible changes.
SCHEMA_VERSION = 1


class ServiceAPI:
    """Operation dispatch over one :class:`ServiceSession`.

    Every operation takes and returns plain JSON-safe dicts; transport
    concerns (HTTP framing, auth, sockets) stay in :mod:`repro._jsonhttp`.
    ``handle`` raises ``LookupError`` for unknown operations and
    :class:`~repro.exceptions.ReproError` subclasses for bad requests —
    the HTTP layer maps those to 404/400.
    """

    def __init__(self, session: ServiceSession):
        self.session = session

    def handle(self, op: str, data: Dict) -> Dict:
        handler = getattr(self, f"_op_{op}", None)
        if handler is None or not op.islower() or op.startswith("_"):
            raise LookupError(op)
        return handler(data)

    # -- operations ----------------------------------------------------------
    def _op_submit(self, data: Dict) -> Dict:
        try:
            size = float(data["size"])
        except (KeyError, TypeError, ValueError):
            raise ConfigurationError(
                "submit requires a numeric 'size' field"
            ) from None
        checkpoint_cost = data.get("checkpoint_cost")
        if checkpoint_cost is not None:
            checkpoint_cost = float(checkpoint_cost)
        job_id = data.get("job_id")
        if job_id is not None and not isinstance(job_id, str):
            raise ConfigurationError("job_id must be a string")
        return {"job": self.session.submit(size, checkpoint_cost, job_id)}

    def _op_cancel(self, data: Dict) -> Dict:
        job_id = data.get("job_id")
        if not isinstance(job_id, str):
            raise ConfigurationError("cancel requires a string 'job_id'")
        return self.session.cancel(job_id)

    def _op_jobs(self, data: Dict) -> Dict:
        return {"jobs": self.session.jobs()}

    def _op_schedule(self, data: Dict) -> Dict:
        return self.session.schedule()

    def _op_metrics(self, data: Dict) -> Dict:
        return self.session.metrics()

    def _op_status(self, data: Dict) -> Dict:
        engine = self.session.engine
        return {
            "schema_version": SCHEMA_VERSION,
            "policy": engine.policy.name,
            "processors": engine.cluster.processors,
            "seed": engine.seed,
            "draining": self.session.draining,
            "now": engine.now,
            "jobs_total": len(engine.jobs),
            "queue_depth": len(engine.queued_jobs),
        }

    def _op_drain(self, data: Dict) -> Dict:
        return self.session.drain()
