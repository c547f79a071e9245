"""Deterministic arrival-replay harness — the service-layer pin.

The repo's reliability story is built on reference modes pinned
bit-identical to fast paths (fig7/fig10 under ``Simulator(reference=
True)``, every executor against ``serial``).  The service layer gets
the same treatment: a seeded arrival trace is driven twice —

* **reference**: straight into an :class:`~repro.service.horizon.
  OnlineEngine`, no clock, no transport, no session;
* **service**: through the live stack — :class:`VirtualClock`,
  :class:`ServiceSession`, :class:`ServiceAPI` — with every request and
  response round-tripped through ``json.dumps``/``json.loads`` exactly
  as the HTTP handler frames them;

and the two :class:`ReplayResult`\\ s must serialise to *byte-identical*
canonical JSON (:func:`canonical_bytes`).  Any wall-clock read, any
float drifting through the transport, any session-layer reordering
breaks the bytes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..cluster import Cluster
from ..exceptions import ConfigurationError
from ..rng import derive_rng

__all__ = [
    "TraceEvent",
    "ReplayConfig",
    "ReplayResult",
    "generate_trace",
    "replay_reference",
    "replay_service",
    "canonical_bytes",
]


@dataclass(frozen=True)
class TraceEvent:
    """One timestamped service request in an arrival trace."""

    time: float
    kind: str              #: ``"submit"`` or ``"cancel"``
    job_id: str
    size: float = 0.0
    checkpoint_cost: Optional[float] = None

    def __post_init__(self) -> None:
        if self.kind not in ("submit", "cancel"):
            raise ConfigurationError(f"unknown trace event kind {self.kind!r}")
        if self.time < 0:
            raise ConfigurationError("trace event times must be >= 0")


@dataclass(frozen=True)
class ReplayConfig:
    """Everything the engine needs, hashable and JSON-safe."""

    processors: int = 20
    mtbf_years: float = 10.0
    downtime: float = 60.0
    policy: str = "ig-el"
    seed: int = 0
    inject_faults: bool = True

    def cluster(self) -> Cluster:
        return Cluster.with_mtbf_years(
            self.processors, self.mtbf_years, downtime=self.downtime
        )

    def engine(self):
        """A fresh :class:`OnlineEngine` configured from this replay."""
        from .horizon import OnlineEngine

        return OnlineEngine(
            self.cluster(),
            self.policy,
            seed=self.seed,
            inject_faults=self.inject_faults,
        )


@dataclass
class ReplayResult:
    """Epoch-by-epoch decisions plus final per-job outcomes."""

    epochs: List[Dict[str, object]] = field(default_factory=list)
    jobs: Dict[str, Dict[str, object]] = field(default_factory=dict)
    makespan: float = 0.0
    counters: Dict[str, object] = field(default_factory=dict)
    #: Wall-clock re-pack latencies (telemetry only — NOT canonical).
    decision_latencies: List[float] = field(default_factory=list)

    def canonical(self) -> Dict[str, object]:
        """The content under byte-identity (no wall-clock material)."""
        return {
            "epochs": self.epochs,
            "jobs": self.jobs,
            "makespan": self.makespan,
            "counters": self.counters,
        }


def canonical_bytes(result: ReplayResult) -> bytes:
    """Sorted-keys, compact-separator JSON encoding of a replay.

    Two runs agree on these bytes iff they agreed on every epoch time,
    trigger, allocation, residual fraction, RC payment, queue snapshot
    and per-job outcome — float formatting included (``json`` emits
    ``repr``-shortest doubles, which round-trip exactly).
    """
    return json.dumps(
        result.canonical(), sort_keys=True, separators=(",", ":")
    ).encode("utf-8")


def generate_trace(
    seed: int,
    *,
    n_jobs: int = 12,
    mean_gap: float = 40_000.0,
    m_inf: float = 6_000.0,
    m_sup: float = 10_000.0,
    checkpoint_unit_cost: float = 1.0,
    cancel_every: int = 0,
    cancel_delay: float = 5_000.0,
) -> List[TraceEvent]:
    """A seeded arrival trace: exponential gaps, uniform sizes.

    Derived from ``(seed, "arrivals")`` so it never collides with the
    engine's fault stream.  ``cancel_every=k`` (k > 0) also cancels
    every k-th job ``cancel_delay`` after its arrival — cancels of jobs
    that already finished are no-ops, exercised on purpose.  Events are
    returned sorted by (time, job id): the exact order both replay
    paths must consume them in.
    """
    if n_jobs < 1:
        raise ConfigurationError(f"n_jobs must be >= 1, got {n_jobs}")
    rng = derive_rng(seed, "arrivals")
    events: List[TraceEvent] = []
    t = 0.0
    for k in range(n_jobs):
        if k > 0:
            t += float(rng.exponential(mean_gap))
        size = float(rng.uniform(m_inf, m_sup))
        job_id = f"job-{k + 1:04d}"
        events.append(
            TraceEvent(
                time=t,
                kind="submit",
                job_id=job_id,
                size=size,
                checkpoint_cost=checkpoint_unit_cost * size,
            )
        )
        if cancel_every > 0 and (k + 1) % cancel_every == 0:
            events.append(
                TraceEvent(
                    time=t + cancel_delay, kind="cancel", job_id=job_id
                )
            )
    events.sort(key=lambda ev: (ev.time, ev.job_id, ev.kind))
    return events


def _result_from_engine(engine) -> ReplayResult:
    """Collapse a drained engine into the canonical replay document."""
    jobs = {
        job_id: job.describe() for job_id, job in engine.jobs.items()
    }
    return ReplayResult(
        epochs=list(engine.epochs),
        jobs=jobs,
        makespan=engine.makespan(),
        counters=engine.counters.as_dict(),
        decision_latencies=list(engine.decision_latencies),
    )


def replay_reference(
    trace: List[TraceEvent], config: ReplayConfig
) -> ReplayResult:
    """Offline re-simulation: the trace fed straight into an engine."""
    engine = config.engine()
    for event in trace:
        engine.advance_to(event.time)
        if event.kind == "submit":
            engine.submit(
                event.job_id,
                event.size,
                event.checkpoint_cost,
                now=event.time,
            )
        else:
            engine.cancel(event.job_id, now=event.time)
    engine.drain()
    return _result_from_engine(engine)


def _wire(document: Dict) -> Dict:
    """One JSON round-trip — exactly what the HTTP framing does."""
    return json.loads(json.dumps(document))


def replay_service(
    trace: List[TraceEvent], config: ReplayConfig
) -> Tuple[ReplayResult, List[Dict]]:
    """The same trace through the live service stack (virtual clock).

    Every request and response crosses the in-process transport seam
    (:class:`~repro.service.server.ServiceAPI`) with a full JSON
    round-trip, mimicking the HTTP framing byte for byte.  Returns the
    replay result plus the raw wire responses (for harness inspection).
    """
    from .clock import VirtualClock
    from .server import ServiceAPI
    from .session import ServiceSession

    clock = VirtualClock()
    session = ServiceSession(config.engine(), clock)
    api = ServiceAPI(session)
    responses: List[Dict] = []
    for event in trace:
        clock.set(event.time)
        if event.kind == "submit":
            request = _wire(
                {
                    "job_id": event.job_id,
                    "size": event.size,
                    "checkpoint_cost": event.checkpoint_cost,
                }
            )
            responses.append(_wire(api.handle("submit", request)))
        else:
            request = _wire({"job_id": event.job_id})
            responses.append(_wire(api.handle("cancel", request)))
    responses.append(_wire(api.handle("drain", {})))
    return _result_from_engine(session.engine), responses
