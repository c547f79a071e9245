"""Online scheduling service (rolling-horizon co-scheduling daemon).

The paper evaluates its algorithms batch-style — one pack, one
``Simulator.run`` — but the regime it targets is a platform where
applications arrive and depart continuously and redistribution
decisions are made *online*.  This package is that service layer:

* :mod:`~repro.service.clock` — the time seam.  ``VirtualClock`` makes
  the whole service deterministic (no wall clock anywhere in the
  decision path); ``WallClock`` paces a real daemon.
* :mod:`~repro.service.horizon` — :class:`OnlineEngine`, the
  rolling-horizon scheduler: each arrival/departure epoch re-packs the
  *residual* workload (remaining fractions read off the live simulator
  via :func:`repro.core.progress.residual_workload`) with Algorithm 1
  over per-task fractions, pays Eq. 4 redistribution costs for moved
  tasks, and resumes a fresh simulator segment that carries unchanged
  tasks bit-exactly.  Failures inside a segment are handled by the
  paper's policy heuristics, exactly as in batch runs.
* :mod:`~repro.service.session` — job registry + thread-safe session
  facade pumping the engine to the clock on every call.
* :mod:`~repro.service.api` — :class:`ServiceAPI`, the transport-free
  operation set (``handle(op, data)`` over decoded JSON documents) that
  the HTTP handler, the replay harness and in-process clients all drive.
* :mod:`~repro.service.server` — the token-authenticated stdlib
  HTTP/JSON transport (``POST /api/submit``, ``/api/cancel``,
  ``GET /api/jobs``, ``/api/schedule``, ``/metrics``) and the
  ``python -m repro.service`` daemon entrypoint with graceful SIGTERM
  drain.
* :mod:`~repro.service.telemetry` — ``/metrics`` assembly
  (:class:`repro.engine.EngineStats` + per-job progress + queue depths
  + decision latency percentiles) and the import-guarded psutil host
  sampler.
* :mod:`~repro.service.replay` — the deterministic arrival-replay
  harness: a seeded trace driven through the live service (virtual
  clock, in-process transport) must be byte-identical to the offline
  reference re-simulation — the service-layer analogue of the
  fig7/fig10 pins.

Everything but the HTTP transport loads with the package:
:class:`ServiceServer` (and with it ``http.server`` and
:mod:`repro._jsonhttp`) loads on first access, so an in-process client
of :class:`ServiceAPI` never imports a socket server.
"""

from .._lazy import lazy_exports
from .api import SCHEMA_VERSION, ServiceAPI
from .clock import VirtualClock, WallClock
from .horizon import JobState, OnlineEngine
from .replay import (
    ReplayConfig,
    ReplayResult,
    TraceEvent,
    canonical_bytes,
    generate_trace,
    replay_reference,
    replay_service,
)
from .session import ServiceSession
from .telemetry import HostSampler, latency_percentiles, service_engine_stats

__all__ = [
    "VirtualClock",
    "WallClock",
    "OnlineEngine",
    "JobState",
    "ServiceSession",
    "ServiceAPI",
    "ServiceServer",
    "SCHEMA_VERSION",
    "TraceEvent",
    "ReplayConfig",
    "ReplayResult",
    "generate_trace",
    "replay_reference",
    "replay_service",
    "canonical_bytes",
    "HostSampler",
    "latency_percentiles",
    "service_engine_stats",
]

__getattr__, __dir__ = lazy_exports(globals(), {"ServiceServer": "server"})
