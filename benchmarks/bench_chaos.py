"""Chaos soak: a queue-executor sweep under deterministic fault injection.

The resilience layer's acceptance invariant is that faults change
wall-clock and counters, never results: for *any*
:class:`~repro.engine.FaultPlan` seed, a queue campaign produces
series byte-identical to the fault-free serial run.  This benchmark soaks exactly that on a
fig10-shaped MTBF sweep — every broker operation, worker claim and
runner call rolled against a fixed-seed plan that mixes worker crashes
(both sides of the claim), stalled heartbeats, spool I/O errors,
corrupted result payloads, slow workers and transient runner faults —
then asserts

* the chaotic series equals the serial reference byte-for-byte, and
* the plan actually fired (a chaos run where nothing was injected and
  nothing was retried would be vacuous).

Results are recorded into the committed ``BENCH_chaos.json`` with::

    PYTHONPATH=src python -m benchmarks.bench_chaos --write

including the injected-fault schedule (itself reproducible: same plan
seed, same sites) and the resilience counters, plus the derived
``chaos_overhead`` (chaotic seconds over fault-free queue seconds) for
visibility — overhead is expected and unbounded by design (recovery
costs heartbeat horizons), so only the identity gate is enforced.

A second leg (``run_http_soak``) drives the same sweep through the
remote transport: an :class:`~repro.engine.HTTPBroker` submitter whose
wire rides a seeded :class:`~repro.engine.ChaosHTTPTransport` (resets,
5xx, timeouts, truncated bodies) against an in-process broker server —
the partition-tolerance soak for ``python -m
repro.engine.broker_server`` fleets.
``REPRO_BENCH_SCALE`` (``tiny``/``small``) sizes the sweep's scenarios;
``REPRO_CHAOS_SEED`` picks the plan seed (default 2026).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import time
from pathlib import Path
from typing import Dict, Optional, Sequence

from repro.engine import FaultPlan, QueueExecutor, connect_broker, create_executor
from repro.experiments import FAULT_SERIES, run_scenario
from repro.experiments.config import ScenarioConfig, get_scale

try:  # pytest / sys.path import (benchmarks/ on the path)
    from ._common import BENCH_SCALE, BENCH_SEED
except ImportError:  # pragma: no cover - direct execution fallback
    from _common import BENCH_SCALE, BENCH_SEED

#: Committed baseline location (repo root).
DEFAULT_BASELINE = Path(__file__).resolve().parent.parent / "BENCH_chaos.json"

#: MTBF sweep (years) — shorter than bench_engine's: the soak pays
#: recovery stalls per point, and three points already exercise every
#: injection site many times over.
SWEEP_MTBF_YEARS = (5.0, 65.0, 125.0)

WORKERS = 2

CHAOS_SEED = int(os.environ.get("REPRO_CHAOS_SEED", "2026"))

#: A little of everything, at rates high enough that a three-point
#: sweep fires every fault class (pinned by the vacuity assertion).
SOAK_PLAN = FaultPlan(
    seed=CHAOS_SEED,
    crash_before_claim=0.5,
    crash_after_claim=0.2,
    stalled_heartbeat=0.2,
    broker_io_error=0.3,
    corrupt_result=0.3,
    slow_worker=0.3,
    runner_fault=0.2,
    stall_duration=0.6,
    slow_delay=0.01,
)

#: The HTTP-transport leg's plan: wire faults only, injected under the
#: submitter's HTTPBroker while a clean in-process worker serves the
#: same broker server (a partition soak, not a worker-crash soak).
WIRE_PLAN = FaultPlan(
    seed=CHAOS_SEED,
    wire_reset=0.3,
    wire_5xx=0.3,
    wire_timeout=0.15,
    wire_truncate=0.25,
)


def sweep_configs() -> list:
    """The sweep's scaled scenario configs (fig10 shape)."""
    scale = get_scale(BENCH_SCALE if BENCH_SCALE != "paper" else "small")
    base = ScenarioConfig(n=100, p=1000)
    return [
        scale.apply(
            ScenarioConfig(n=base.n, p=base.p, mtbf_years=float(years))
        )
        for years in SWEEP_MTBF_YEARS
    ]


def _sweep_digest(executor) -> list:
    """Run the sweep on ``executor``; return the normalized series."""
    return [
        run_scenario(
            config, FAULT_SERIES, seed=BENCH_SEED, executor=executor
        ).normalized_row()
        for config in sweep_configs()
    ]


def run_soak(plan: FaultPlan = SOAK_PLAN) -> Dict[str, object]:
    """One chaotic sweep plus its serial and fault-free references.

    The process-wide workload cache is cleared between runs for the same
    reason as ``bench_engine.run_sweep``: no run may inherit another's
    constructions, or the counter comparison blurs.
    """
    from repro.engine.cache import shared_cache

    shared_cache.clear()
    with create_executor("serial") as executor:
        reference = _sweep_digest(executor)

    def queue_sweep(chaos_plan: Optional[FaultPlan]) -> Dict[str, object]:
        shared_cache.clear()
        start = time.perf_counter()
        with QueueExecutor(
            workers=WORKERS,
            poll_interval=0.01,
            heartbeat_timeout=0.4,
            chaos_plan=chaos_plan,
        ) as executor:
            digest = _sweep_digest(executor)
            injected = (
                dict(executor._chaos.injected)
                if executor._chaos is not None
                else {}
            )
            stats = executor.stats().cache_info()
        return {
            "seconds": time.perf_counter() - start,
            "digest": digest,
            "stats": stats,
            "injected": injected,
        }

    quiet = queue_sweep(None)
    chaotic = queue_sweep(plan)
    assert quiet["digest"] == reference, (
        "fault-free queue series diverged from the serial reference"
    )
    assert chaotic["digest"] == reference, (
        f"chaotic queue series (plan seed {plan.seed}) diverged from the "
        "serial reference"
    )
    return {
        "plan": plan.describe(),
        "points": len(sweep_configs()),
        "quiet": quiet,
        "chaotic": chaotic,
    }


def run_http_soak(plan: FaultPlan = WIRE_PLAN) -> Dict[str, object]:
    """One sweep over the HTTP broker transport under seeded wire chaos.

    The submitter's :class:`~repro.engine.HTTPBroker` rides a
    :class:`~repro.engine.ChaosHTTPTransport` (seeded resets, 5xx,
    timeouts, truncated bodies) against an in-process broker server; a
    clean worker thread serves the same server.  The gate is the same
    as the spool soak's: the series must equal the fault-free serial
    reference byte-for-byte, and the plan must actually have fired.
    """
    import threading

    from repro.engine.broker import FileBroker
    from repro.engine.broker_server import BrokerServer
    from repro.engine.cache import shared_cache
    from repro.engine.worker import serve

    shared_cache.clear()
    with create_executor("serial") as executor:
        reference = _sweep_digest(executor)

    shared_cache.clear()
    import tempfile

    spool = tempfile.mkdtemp(prefix="bench-http-chaos-")
    server = BrokerServer(FileBroker(spool), token="bench-chaos")
    url = server.start()
    broker = connect_broker(url, token="bench-chaos", chaos_plan=plan)
    worker = threading.Thread(
        target=serve,
        args=(connect_broker(url, token="bench-chaos"),),
        kwargs={"poll_interval": 0.01, "max_idle": 60.0},
        daemon=True,
    )
    worker.start()
    start = time.perf_counter()
    try:
        with QueueExecutor(
            workers=WORKERS,
            poll_interval=0.01,
            heartbeat_timeout=10.0,
            broker=broker,
        ) as executor:
            digest = _sweep_digest(executor)
            stats = executor.stats().cache_info()
    finally:
        broker.request_stop()
        worker.join(timeout=30.0)
        server.shutdown()
        import shutil

        shutil.rmtree(spool, ignore_errors=True)
    injected = dict(broker.transport.injected)
    assert digest == reference, (
        f"HTTP-transport series (wire plan seed {plan.seed}) diverged "
        "from the serial reference"
    )
    return {
        "seconds": time.perf_counter() - start,
        "digest": digest,
        "stats": stats,
        "injected": injected,
    }


def chaos_overhead(results: Dict[str, object]) -> float:
    """Chaotic sweep seconds over fault-free queue sweep seconds."""
    return results["chaotic"]["seconds"] / results["quiet"]["seconds"]


def faults_fired(results: Dict[str, object]) -> bool:
    """Whether the soak actually injected or recovered from anything."""
    chaotic = results["chaotic"]
    stats = chaotic["stats"]
    resilience = (
        stats["retries"]
        + stats["requeues"]
        + stats["dead_lettered"]
        + stats["duplicate_results"]
    )
    return bool(chaotic["injected"]) or resilience > 0


def payload_from(
    results: Dict[str, object],
    http: Optional[Dict[str, object]] = None,
) -> Dict[str, object]:
    payload = {
        "schema": 4,
        "scale": BENCH_SCALE,
        "workers": WORKERS,
        "chaos_seed": CHAOS_SEED,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "plan": results["plan"],
        "wire_plan": WIRE_PLAN.describe(),
        "points": results["points"],
        "benchmarks": {
            run: {
                "seconds": results[run]["seconds"],
                "stats": results[run]["stats"],
                "injected": results[run]["injected"],
            }
            for run in ("quiet", "chaotic")
        },
        "derived": {"chaos_overhead": chaos_overhead(results)},
    }
    if http is not None:
        payload["benchmarks"]["http_chaotic"] = {
            "seconds": http["seconds"],
            "stats": http["stats"],
            "injected": http["injected"],
        }
    return payload


def write_baseline(path: Path = DEFAULT_BASELINE) -> Dict[str, object]:
    """Measure everything and record the committed baseline JSON."""
    payload = payload_from(run_soak(), http=run_http_soak())
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return payload


# -- pytest entry points -----------------------------------------------------

def test_chaotic_sweep_is_byte_identical_and_non_vacuous():
    """Acceptance gate: chaos changed the counters, not the series."""
    results = run_soak()
    assert results["points"] >= 3
    assert faults_fired(results), (
        "the soak plan injected nothing — raise its rates or check the "
        "chaos wiring"
    )


def test_http_transport_chaos_is_byte_identical_and_non_vacuous():
    """Acceptance gate for the wire: partitions stall, never corrupt."""
    results = run_http_soak()
    assert results["injected"], (
        "the wire plan injected nothing — raise its rates or check the "
        "ChaosHTTPTransport wiring"
    )
    assert results["stats"]["wire_retries"] > 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=(
            "Soak the queue executor under deterministic fault injection."
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
        payload = payload_from(run_soak(), http=run_http_soak())
    print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":  # pragma: no cover - manual invocation
    raise SystemExit(main())
