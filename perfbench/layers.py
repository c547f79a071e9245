"""Layer map of the benchmark: what ``BENCHMARK.json`` cannot hold.

``BENCHMARK.json`` names the workloads and metrics; ``load_spec`` reads
it.  The layer map says, for every per-layer metric, which end-to-end
metric it should move, on which workload, and where it should stay put;
``applicable`` turns the same map into the set of per-layer metrics a
workload reports (the rest print as ``n/a`` and carry 0 in the JSON
result).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, FrozenSet, Iterable

SPEC_FILE = Path(__file__).resolve().parent.parent / "BENCHMARK.json"

FIGURES = frozenset({"fig10-persistent"})
SERVICES = frozenset({"service"})
ALL = FIGURES | SERVICES

#: Worker processes of the pooled figure workload.
WORKERS = 2


def load_spec() -> Dict:
    return json.loads(SPEC_FILE.read_text())


#: Byte counts derived from object sizes, not measured on a wire.
COMPUTED = frozenset({"engine.request_bytes", "service.wire_bytes"})

#: Counts that must repeat exactly across two passes of one seed.
REPEATABLE_COUNTS = (
    "simulation.events",
    "simulation.failures",
    "resilience.profile_misses",
    "resilience.models_built",
    "core.rows_patched",
    "engine.chunks",
    "service.epochs",
    "service.queue_depth_max",
)

#: Per layer: the workloads that run it, the end-to-end metric it
#: should move, on which workloads, and where it should not move.
LAYER_MAP: Dict[str, Dict[str, object]] = {
    "setup": {
        "runs_on": ALL,
        "moves": "setup_s",
        "on": ALL,
        "not_on": frozenset(),
    },
    "experiments": {
        "runs_on": FIGURES,
        "moves": "run_s",
        "on": FIGURES,
        "not_on": SERVICES,
    },
    "engine": {
        "runs_on": FIGURES,
        "moves": "run_s",
        "on": FIGURES,
        "not_on": SERVICES,
    },
    "simulation": {
        "runs_on": ALL,
        "moves": "run_s",
        "on": FIGURES,
        "not_on": frozenset(),
    },
    "core": {
        "runs_on": ALL,
        "moves": "run_s (fig10-persistent); request_p99_ms via core.optimal_s (service)",
        "on": ALL,
        "not_on": frozenset(),
    },
    "resilience": {
        "runs_on": ALL,
        "moves": "jobs_per_s, request_p50_ms (service); run_s (fig10-persistent)",
        "on": ALL,
        "not_on": frozenset(),
    },
    "service": {
        "runs_on": SERVICES,
        "moves": "jobs_per_s, request_p99_ms (re-pack per request)",
        "on": SERVICES,
        "not_on": FIGURES,
    },
    "request": {
        "runs_on": SERVICES,
        "moves": "request latency itself, timed untraced around ServiceAPI.handle",
        "on": SERVICES,
        "not_on": FIGURES,
    },
    "trace": {
        "runs_on": ALL,
        "moves": "nothing (cost of the traced pass)",
        "on": ALL,
        "not_on": frozenset(),
    },
}

#: Metrics that exist only on some of the workloads their layer runs on.
_ONLY_ON: Dict[str, FrozenSet[str]] = {
    "simulation.run_p50_ms": FIGURES,
    "simulation.run_p90_ms": FIGURES,
    "trace.serial_overhead_pct": FIGURES,
}

#: The pooled figure workload takes these from a traced serial pass of
#: the same sweep (the pool's workers are not traced); its cache counts
#: come from the pool's EngineStats.
FROM_SERIAL = (
    "simulation.runs",
    "simulation.events",
    "simulation.failures",
    "simulation.self_s",
    "simulation.run_p50_ms",
    "simulation.run_p90_ms",
    "core.decisions",
    "core.self_s",
    "core.optimal_calls",
    "core.optimal_s",
    "resilience.profile_calls",
    "resilience.self_s",
    "resilience.model_build_s",
)


def layer_of(metric: str) -> str:
    """``engine.chunks`` -> ``engine``; ``request_p99_ms`` -> ``request``."""
    return metric.split(".", 1)[0] if "." in metric else metric.split("_", 1)[0]


def applicable(workload: str, metrics: Iterable[str]) -> FrozenSet[str]:
    """The ones of ``metrics`` (per-layer names) that ``workload`` reports."""
    return frozenset(
        name
        for name in metrics
        if workload in LAYER_MAP[layer_of(name)]["runs_on"]
        and workload in _ONLY_ON.get(name, ALL)
    )
