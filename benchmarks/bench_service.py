"""Service-layer benchmark: replay throughput and decision latency.

Drives a seeded arrival trace through both replay paths of
:mod:`repro.service.replay` —

* **reference** — the trace straight into an
  :class:`~repro.service.OnlineEngine` (no clock, no transport);
* **service** — the live stack (:class:`~repro.service.VirtualClock`,
  :class:`~repro.service.ServiceSession`,
  :class:`~repro.service.ServiceAPI`) with every request and response
  JSON round-tripped exactly as the HTTP framing does —

asserts the two canonical documents are byte-identical (the service
acceptance gate), that no job was lost or double-counted, that the
service replay's Eq. 4 profile misses do not exceed the committed count
(a deterministic count, so the gate cannot flake), and records

* end-to-end **throughput** (jobs/s and requests/s through the service
  stack), and
* the re-pack **decision latency** distribution (p50/p99/max over every
  epoch's ``optimal_schedule`` + residual-extraction + restart cost —
  the pause an arriving job inflicts on the daemon).

Results land in the committed ``BENCH_service.json`` with::

    PYTHONPATH=src python -m benchmarks.bench_service --write

``REPRO_BENCH_SCALE`` (``tiny``/``small``/``paper``) sizes the trace;
``benchmarks.check_regression`` gates the recorded p99 decision latency
(``--max-decision-latency``) and the absolute seconds on a matching
host.
"""

from __future__ import annotations

import argparse
import json
import platform
import time
from pathlib import Path
from typing import Dict, Optional, Sequence

import pytest

from repro.resilience.expected_time import ExpectedTimeModel
from repro.service import (
    ReplayConfig,
    canonical_bytes,
    generate_trace,
    latency_percentiles,
    replay_reference,
    replay_service,
)

try:  # pytest / sys.path import (benchmarks/ on the path)
    from ._common import BENCH_SCALE, BENCH_SEED
except ImportError:  # pragma: no cover - direct execution fallback
    from _common import BENCH_SCALE, BENCH_SEED

#: Committed baseline location (repo root).
DEFAULT_BASELINE = Path(__file__).resolve().parent.parent / "BENCH_service.json"

#: Trace size per scale: enough arrivals to overlap (queueing, repacks,
#: cancels) without turning the bench into a soak.
PRESETS = {
    "tiny": {"n_jobs": 10, "mean_gap": 20_000.0},
    "small": {"n_jobs": 40, "mean_gap": 12_000.0},
    "paper": {"n_jobs": 120, "mean_gap": 8_000.0},
}

#: Short-MTBF platform so failure epochs land inside the trace.
CONFIG = ReplayConfig(processors=40, mtbf_years=0.5, seed=BENCH_SEED)

#: Maximum tolerated p99 re-pack decision latency (seconds).  A sanity
#: ceiling, not a perf target: one epoch is one ``optimal_schedule``
#: over at most ``p/2`` jobs plus residual extraction — milliseconds.
MAX_DECISION_LATENCY = 0.25


def _trace():
    preset = PRESETS.get(BENCH_SCALE, PRESETS["tiny"])
    return generate_trace(
        BENCH_SEED,
        n_jobs=preset["n_jobs"],
        mean_gap=preset["mean_gap"],
        m_inf=6_000.0,
        m_sup=10_000.0,
        cancel_every=5,
    )


def run_bench() -> Dict[str, object]:
    """Both replay paths, timed, plus the identity and accounting gates."""
    trace = _trace()
    submitted = sum(1 for event in trace if event.kind == "submit")

    start = time.perf_counter()
    reference = replay_reference(trace, CONFIG)
    reference_seconds = time.perf_counter() - start

    hits0, misses0 = ExpectedTimeModel.process_cache_snapshot()
    start = time.perf_counter()
    served, responses = replay_service(trace, CONFIG)
    service_seconds = time.perf_counter() - start
    hits, misses = ExpectedTimeModel.process_cache_snapshot()

    assert canonical_bytes(reference) == canonical_bytes(served), (
        "service replay diverged from the offline reference"
    )
    statuses = [job["status"] for job in served.jobs.values()]
    completed = statuses.count("completed")
    cancelled = statuses.count("cancelled")
    assert len(statuses) == submitted, (
        f"{submitted} jobs submitted but {len(statuses)} accounted for"
    )
    assert completed + cancelled == submitted, (
        f"lost jobs: {submitted} submitted, {completed} completed, "
        f"{cancelled} cancelled"
    )

    latency = latency_percentiles(served.decision_latencies)
    return {
        "trace": {
            "jobs": submitted,
            "requests": len(responses),
            "epochs": len(served.epochs),
            "makespan": served.makespan,
            "profile_hits": hits - hits0,
            "profile_misses": misses - misses0,
        },
        "reference": {"seconds": reference_seconds},
        "service": {"seconds": service_seconds},
        "decision_latency": latency,
        "completed": completed,
        "cancelled": cancelled,
    }


def decision_latency_p99(results: Dict[str, object]) -> float:
    """The gated quantity: p99 re-pack latency through the service stack."""
    return float(results["decision_latency"]["p99"])


def throughput_jobs_per_s(results: Dict[str, object]) -> float:
    """Jobs fully scheduled-to-completion per wall second of replay."""
    return results["trace"]["jobs"] / results["service"]["seconds"]


def payload_from(results: Dict[str, object]) -> Dict[str, object]:
    return {
        "schema": 1,
        "scale": BENCH_SCALE,
        "seed": BENCH_SEED,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "config": {
            "processors": CONFIG.processors,
            "mtbf_years": CONFIG.mtbf_years,
            "policy": CONFIG.policy,
        },
        "trace": results["trace"],
        "benchmarks": {
            "service_replay": {"seconds": results["service"]["seconds"]},
            "reference_replay": {"seconds": results["reference"]["seconds"]},
        },
        "derived": {
            "service_decision_latency_p50": results["decision_latency"]["p50"],
            "service_decision_latency_p99": decision_latency_p99(results),
            "service_decision_latency_max": results["decision_latency"]["max"],
            "service_throughput_jobs_per_s": throughput_jobs_per_s(results),
        },
    }


def write_baseline(path: Path = DEFAULT_BASELINE) -> Dict[str, object]:
    """Measure and record the committed baseline JSON."""
    payload = payload_from(run_bench())
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return payload


# -- pytest entry points -----------------------------------------------------

def test_service_replay_is_byte_identical_and_loses_nothing():
    """Acceptance gate: transport invisible, every job accounted for."""
    results = run_bench()
    assert results["trace"]["epochs"] >= results["trace"]["jobs"]
    assert results["completed"] >= 1


def test_decision_latency_within_sanity_ceiling():
    """One re-pack must stay interactive (p99 under the ceiling)."""
    results = run_bench()
    assert decision_latency_p99(results) <= MAX_DECISION_LATENCY, (
        f"p99 decision latency {decision_latency_p99(results):.4f}s over "
        f"the {MAX_DECISION_LATENCY}s ceiling"
    )


def test_profile_misses_within_committed_count():
    """Count gate: a fresh service replay misses the Eq. 4 envelope
    store no more often than the committed baseline recorded."""
    committed = json.loads(DEFAULT_BASELINE.read_text())
    if (committed["scale"], committed["seed"]) != (BENCH_SCALE, BENCH_SEED):
        pytest.skip("baseline recorded at another scale or seed")
    misses = run_bench()["trace"]["profile_misses"]
    assert misses <= committed["trace"]["profile_misses"], (
        f"{misses} profile misses, committed "
        f"{committed['trace']['profile_misses']}"
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=(
            "Benchmark the scheduling service's replay throughput and "
            "decision latency."
        )
    )
    parser.add_argument(
        "--write",
        action="store_true",
        help=f"record the baseline to {DEFAULT_BASELINE.name}",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=DEFAULT_BASELINE,
        help="baseline path (with --write)",
    )
    args = parser.parse_args(argv)
    if args.write:
        payload = write_baseline(args.output)
    else:
        payload = payload_from(run_bench())
    print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":  # pragma: no cover - manual invocation
    raise SystemExit(main())
