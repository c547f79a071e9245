"""``/metrics`` assembly: engine stats, job progress, host sampling.

Three layers of telemetry, all JSON-safe:

* **engine counters** — the rolling-horizon engine's own epoch/segment
  bookkeeping plus an :class:`repro.engine.EngineStats` holding the
  :mod:`repro.counters` registry's growth during the engine's own write
  calls — the same named counters the distributed executors report, so
  service and campaign dashboards read alike;
* **decision latency** — p50/p99 over the engine's recent re-pack
  latencies (wall-clock, telemetry only — the canonical replay output
  never contains them);
* **host sampler** — optional psutil-backed process/host gauges,
  import-guarded: without psutil the section reports
  ``{"available": false}`` and everything else still works (the
  container this repo targets does not ship psutil).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional, Sequence

from ..engine.executors import EngineStats

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from .session import ServiceSession

try:  # pragma: no cover - exercised only where psutil exists
    import psutil  # type: ignore[import-not-found]
except ImportError:  # pragma: no cover - the expected path here
    psutil = None

__all__ = [
    "HostSampler",
    "latency_percentiles",
    "service_engine_stats",
    "service_metrics",
]


def latency_percentiles(
    latencies: Sequence[float],
) -> Dict[str, float]:
    """p50/p99/max/count over a latency window (seconds).

    Nearest-rank percentiles on the sorted sample — no interpolation,
    so tiny windows (a handful of epochs) still report honest values.
    """
    values = sorted(float(v) for v in latencies)
    if not values:
        return {"count": 0, "p50": 0.0, "p99": 0.0, "max": 0.0}
    n = len(values)

    def rank(q: float) -> float:
        idx = min(n - 1, max(0, int(q * n + 0.5) - 1))
        return values[idx]

    return {
        "count": n,
        "p50": rank(0.50),
        "p99": rank(0.99),
        "max": values[-1],
    }


def service_engine_stats(engine) -> EngineStats:
    """An :class:`EngineStats` for the service's in-process engine.

    The service runs in-process, so its profile and decision work is the
    :mod:`repro.counters` registry's growth during ``engine``'s write
    calls (``engine.work``; work another engine or a replay did in this
    process is not counted); workload build/reuse come from the engine's
    own model memo.
    """
    counts = dict(engine.work)
    counts.update(
        workloads_built=engine.counters.models_built,
        workloads_reused=engine.counters.models_reused,
        tasks_submitted=engine.counters.submissions,
        dispatches=engine.counters.epochs,
    )
    stats = EngineStats()
    stats.add(counts)
    return stats


class HostSampler:
    """Optional psutil host/process gauges (Elasecutor-style resMon).

    Degrades gracefully: when psutil is not importable every sample is
    ``{"available": False}``.  A fresh process handle per sampler keeps
    ``cpu_percent`` deltas meaningful across calls.
    """

    def __init__(self) -> None:
        self.available = psutil is not None
        self._proc = psutil.Process() if self.available else None

    def sample(self) -> Dict[str, object]:
        if not self.available:  # pragma: no branch - container default
            return {"available": False}
        vm = psutil.virtual_memory()  # pragma: no cover - psutil-only
        with self._proc.oneshot():  # pragma: no cover - psutil-only
            return {
                "available": True,
                "cpu_percent": self._proc.cpu_percent(interval=None),
                "rss_bytes": self._proc.memory_info().rss,
                "num_threads": self._proc.num_threads(),
                "host_cpu_percent": psutil.cpu_percent(interval=None),
                "host_memory_percent": vm.percent,
                "host_memory_available": vm.available,
            }


def service_metrics(
    session: "ServiceSession",
    sampler: Optional[HostSampler] = None,
) -> Dict[str, object]:
    """The full ``/metrics`` document for one session.

    Caller holds the session lock (``ServiceSession.metrics`` does).
    """
    engine = session.engine
    doc: Dict[str, object] = {"service": engine.metrics()}
    doc["engine_stats"] = service_engine_stats(engine).cache_info()
    doc["decision_latency"] = latency_percentiles(engine.decision_latencies)
    doc["jobs"] = {
        job_id: {
            "status": view["status"],
            "alpha_remaining": view["alpha_remaining"],
            "redistributions": view["redistributions"],
            "failures": view["failures"],
        }
        for job_id, view in (
            (job.job_id, engine.job_view(job))
            for job in engine.jobs.values()
        )
    }
    doc["draining"] = session.draining
    host = sampler if sampler is not None else _default_sampler()
    doc["host"] = host.sample()
    return doc


_SAMPLER: Optional[HostSampler] = None


def _default_sampler() -> HostSampler:
    global _SAMPLER
    if _SAMPLER is None:
        _SAMPLER = HostSampler()
    return _SAMPLER
