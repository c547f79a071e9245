"""``/metrics`` assembly: engine stats, job progress, host sampling.

Three layers of telemetry, all JSON-safe:

* **engine counters** — the rolling-horizon engine's own epoch/segment
  bookkeeping plus an :class:`repro.engine.EngineStats` assembled from
  the process-wide profile/decision counters
  (:func:`repro.resilience.expected_time.ExpectedTimeModel.
  process_cache_snapshot`, :func:`repro.core.kernels.
  process_decision_snapshot`) — the same counters the distributed
  executors report, so service and campaign dashboards read alike;
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

from ..core.kernels import process_decision_snapshot
from ..engine.executors import EngineStats
from ..resilience.expected_time import ExpectedTimeModel

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

    The distributed executors fold worker snapshots into these fields;
    the service runs in-process, so the process-wide counters *are* its
    totals: profile hits/misses from the expected-time models, decision
    patch/reuse counters from the kernels, workload build/reuse from
    the engine's model memo.
    """
    stats = EngineStats()
    hits, misses = ExpectedTimeModel.process_cache_snapshot()
    stats.profile_hits = hits
    stats.profile_misses = misses
    patched, reused, allocs, env_reused = process_decision_snapshot()
    stats.decision_rows_patched = patched
    stats.decision_rows_reused = reused
    stats.decision_scratch_allocs = allocs
    stats.decision_profile_env_reused = env_reused
    stats.workloads_built = engine.counters.models_built
    stats.workloads_reused = engine.counters.models_reused
    stats.tasks_submitted = engine.counters.submissions
    stats.dispatches = engine.counters.epochs
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
