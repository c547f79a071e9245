"""One workload pass in one fresh process: set up, run, check, report.

``run.py`` starts this script once per pass and reads the JSON object
it prints as its last stdout line.  It can be run by hand too::

    python3 perfbench/workload.py --workload service --seed 0 --mode timed

Modes:

* ``timed``   — set up, run the timed region untraced, check outputs;
* ``counted`` — ``timed`` plus a hook on ``Simulator.run`` that sums
  the returned result counters (one call per simulation), so counts can
  be compared with a traced pass of the same seed;
* ``traced``  — ``counted`` plus spans around every layer's public calls
  (see ``tracer.py``); the spans are written under ``.perfbench_out/``.

``setup_s`` runs from ``--t-spawn`` (the parent's ``perf_counter`` just
before it started this process; the clock is system-wide) to the first
timed operation.
"""

from time import perf_counter

T_SCRIPT = perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import pickle  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass, replace  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Dict, List, Optional  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

from repro.engine import create_executor, default_chunk_size  # noqa: E402
from repro.exceptions import ReproError  # noqa: E402
from repro.experiments import figures  # noqa: E402
from repro.experiments.config import get_scale  # noqa: E402
from repro.experiments.runner import scenario_requests  # noqa: E402
from repro.resilience.expected_time import ExpectedTimeModel  # noqa: E402
from repro.core.kernels import process_decision_snapshot  # noqa: E402
from repro.service import (  # noqa: E402
    ReplayConfig,
    ServiceAPI,
    ServiceSession,
    VirtualClock,
    canonical_bytes,
    generate_trace,
    replay_reference,
)
from repro.service.replay import ReplayResult  # noqa: E402
from repro.simulation.simulator import Simulator  # noqa: E402

import tracer as tracing  # noqa: E402

T_IMPORTED = perf_counter()

OUT_DIR = ROOT / ".perfbench_out"
GOLDEN = HERE / "golden.json"


@dataclass(frozen=True)
class FigureWorkload:
    figure: str
    scale: str
    replicates: int
    engine: str
    workers: int


@dataclass(frozen=True)
class ServiceWorkload:
    n_jobs: int
    mean_gap: float


#: Full-size workloads (what BENCHMARK.json names) and the reduced
#: sizes the self-test runs.
WORKLOADS = {
    "full": {
        "fig10-persistent": FigureWorkload("fig10", "small", 20, "persistent", 2),
        "service": ServiceWorkload(n_jobs=2000, mean_gap=8_000.0),
    },
    "reduced": {
        "fig10-persistent": FigureWorkload("fig10", "tiny", 4, "persistent", 2),
        "service": ServiceWorkload(n_jobs=80, mean_gap=8_000.0),
    },
}


def figure_scale(w: FigureWorkload):
    return replace(get_scale(w.scale), replicates=w.replicates)


def service_inputs(w: ServiceWorkload, seed: int):
    """The arrival trace and service configuration of one seed.

    High-throughput regime: 40 processors, a short MTBF so failures land
    inside the trace, every 5th job cancelled 5000 s after it arrives.
    """
    trace = generate_trace(
        seed,
        n_jobs=w.n_jobs,
        mean_gap=w.mean_gap,
        m_inf=6_000.0,
        m_sup=10_000.0,
        cancel_every=5,
    )
    return trace, ReplayConfig(processors=40, mtbf_years=0.5, seed=seed)


def golden_digest(size: str, workload: str, seed: int) -> Optional[str]:
    """The committed digest for this (size, workload, seed), if any."""
    table = json.loads(GOLDEN.read_text())["digests"]
    return table.get(size, {}).get(workload, {}).get(str(seed))


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# ---------------------------------------------------------------------------
# counting hook

class SimCounts:
    """Sums of ``SimulationResult`` counters over every ``Simulator.run``."""

    def __init__(self) -> None:
        self.runs = 0
        self.events = 0
        self.failures = 0

    def install(self) -> None:
        original = Simulator.run

        def counted(sim):
            result = original(sim)
            self.runs += 1
            self.events += result.events
            self.failures += result.failures_effective
            return result

        Simulator.run = counted


# ---------------------------------------------------------------------------
# figure workloads

def figure_digest(result) -> str:
    doc = {
        "x": result.x_values,
        "normalized": result.normalized,
        "means": result.means,
    }
    return sha256(json.dumps(doc, sort_keys=True, separators=(",", ":")).encode())


def figure_sane(result, points: int) -> bool:
    """Checks that hold for every seed (used where no digest is committed)."""
    if len(result.x_values) != points:
        return False
    for key, values in result.normalized.items():
        if len(values) != points:
            return False
        for value, mean in zip(values, result.means[key]):
            if not (math.isfinite(value) and math.isfinite(mean) and mean > 0):
                return False
    return all(v == 1.0 for v in result.normalized["no-rc"])


def dispatched_chunks(spec, scale, seed: int, workers: int):
    """The request chunks a sweep dispatches, by the executors' rule.

    A serial ``map`` runs all of a point's requests as one chunk; a
    pooled one cuts them into ``default_chunk_size`` pieces.
    """
    for _, config in spec.points(scale):
        requests = scenario_requests(config, spec.series, seed=seed)
        size = (
            default_chunk_size(len(requests), workers) if workers > 1
            else len(requests)
        )
        for start in range(0, len(requests), size):
            yield tuple(requests[start:start + size])


def run_figure(w: FigureWorkload, args, tracer) -> Dict:
    spec = figures.FIGURES[w.figure]
    scale = figure_scale(w)
    engine = args.engine or w.engine
    workers = w.workers if engine != "serial" else 1
    points = len(spec.points(scale))
    units = points * scale.replicates * len(spec.series)
    executor = create_executor(engine, workers=workers)
    # ``repro run`` dispatches through ``Executor.map``; only the traced
    # pooled pass streams (``map_stream``, same chunks) to time the
    # submitting process's waits and count the chunks it gets back.
    stream = tracer is not None and workers > 1
    progress = (lambda *_: None) if stream else None

    t_first = perf_counter()

    root = tracer.open(tracer.name_id("bench.run")) if tracer else None
    try:
        result = figures.run_figure(
            w.figure, scale, seed=args.seed, executor=executor, progress=progress
        )
    finally:
        executor.close()
        if tracer:
            tracer.close(root)
    t_end = perf_counter()
    peak_mb = peak_rss_mb()
    args.stop_tracing()

    digest = figure_digest(result)
    golden = golden_digest(args.size, args.workload, args.seed)
    if golden is not None:
        check = "golden"
        correct = digest == golden
    else:
        check = "unverified"
        correct = figure_sane(result, points)
    chunks = list(dispatched_chunks(spec, scale, args.seed, workers))
    stats = executor.stats()
    lookups = stats.profile_hits + stats.profile_misses
    rows = stats.decision_rows_patched + stats.decision_rows_reused
    workloads = stats.workloads_built + stats.workloads_reused
    out = {
        "setup_s": t_first - args.t_spawn,
        "import_s": T_IMPORTED - T_SCRIPT,
        "run_s": t_end - t_first,
        "peak_rss_mb": peak_mb,
        "units": units,
        "attempted": units,
        "failed": 0 if correct else units,
        "correct": correct,
        "digest": digest,
        "check": check,
        "layer": {
            "experiments.points": points,
            "engine.dispatches": stats.dispatches,
            "engine.chunks": tracer.engine_chunks if stream else len(chunks),
            "engine.workload_reuse_rate": (
                stats.workloads_reused / workloads if workloads else 0.0
            ),
            "resilience.profile_misses": stats.profile_misses,
            "resilience.profile_hit_rate": (
                stats.profile_hits / lookups if lookups else 0.0
            ),
            "resilience.models_built": stats.workloads_built,
            "core.rows_patched": stats.decision_rows_patched,
            "core.row_reuse_rate": (
                stats.decision_rows_reused / rows if rows else 0.0
            ),
        },
    }
    if stream:
        out["layer"]["engine.request_bytes"] = sum(
            len(pickle.dumps(chunk)) for chunk in chunks
        )
    return out


# ---------------------------------------------------------------------------
# service workload

class Client:
    """One closed-loop client: JSON in, ``ServiceAPI.handle``, JSON out."""

    def __init__(self, api: ServiceAPI):
        self.api = api
        self.latencies: List[float] = []
        self.wire_bytes = 0
        self.errors = 0

    def call(self, op: str, doc: Dict) -> Optional[Dict]:
        began = perf_counter()
        text = json.dumps(doc)
        try:
            response = self.api.handle(op, json.loads(text))
        except (ReproError, LookupError) as exc:
            response = {"error": str(exc)}
            self.errors += 1
        reply = json.dumps(response)
        decoded = json.loads(reply)
        self.latencies.append(perf_counter() - began)
        self.wire_bytes += len(text) + len(reply)
        return None if "error" in response else decoded


def final_state(engine) -> ReplayResult:
    """The canonical replay document of a drained engine."""
    return ReplayResult(
        epochs=list(engine.epochs),
        jobs={job_id: job.describe() for job_id, job in engine.jobs.items()},
        makespan=engine.makespan(),
        counters=engine.counters.as_dict(),
    )


def run_service(w: ServiceWorkload, args, tracer) -> Dict:
    trace, config = service_inputs(w, args.seed)
    clock = VirtualClock()
    session = ServiceSession(config.engine(), clock)
    client = Client(ServiceAPI(session))
    hits0, misses0 = ExpectedTimeModel.process_cache_snapshot()
    decisions0 = process_decision_snapshot()

    t_first = perf_counter()

    root = tracer.open(tracer.name_id("bench.run")) if tracer else None
    for event in trace:
        clock.set(event.time)
        if event.kind == "submit":
            client.call(
                "submit",
                {
                    "job_id": event.job_id,
                    "size": event.size,
                    "checkpoint_cost": event.checkpoint_cost,
                },
            )
        else:
            client.call("cancel", {"job_id": event.job_id})
    drained = client.call("drain", {})
    if tracer:
        tracer.close(root)
    t_end = perf_counter()
    peak_mb = peak_rss_mb()
    hits, misses = ExpectedTimeModel.process_cache_snapshot()
    decisions = process_decision_snapshot()
    args.stop_tracing()

    engine = session.engine
    submitted = sum(1 for event in trace if event.kind == "submit")
    terminal = ("completed", "cancelled")
    lost = sum(1 for job in engine.jobs.values() if job.status not in terminal)
    lost += submitted - len(engine.jobs)
    if drained is None or drained["lost"]:
        lost = max(lost, 1)
    digest = sha256(canonical_bytes(final_state(engine)))
    golden = golden_digest(args.size, args.workload, args.seed)
    if golden is not None:
        check = "golden"
        matches = digest == golden
    elif args.digest_only:
        check = "digest"
        matches = True
    else:
        check = "reference"
        reference = replay_reference(trace, config)
        matches = digest == sha256(canonical_bytes(reference))
    failed = client.errors + lost + (0 if matches else 1)

    hits, misses = hits - hits0, misses - misses0
    patched, reused = (
        after - before for after, before in zip(decisions[:2], decisions0[:2])
    )
    counters = engine.counters
    models = counters.models_built + counters.models_reused
    queue_max = max((len(epoch["queued"]) for epoch in engine.epochs), default=0)
    return {
        "setup_s": t_first - args.t_spawn,
        "import_s": T_IMPORTED - T_SCRIPT,
        "run_s": t_end - t_first,
        "peak_rss_mb": peak_mb,
        "units": submitted,
        "attempted": len(client.latencies),
        "failed": failed,
        "correct": failed == 0,
        "digest": digest,
        "check": check,
        "latencies": client.latencies,
        "layer": {
            "simulation.runs": counters.segments_closed,
            "simulation.events": counters.events,
            "simulation.failures": counters.failures_effective,
            "resilience.profile_misses": misses,
            "resilience.profile_hit_rate": (
                hits / (hits + misses) if hits + misses else 0.0
            ),
            "resilience.models_built": counters.models_built,
            "core.rows_patched": patched,
            "core.row_reuse_rate": (
                reused / (patched + reused) if patched + reused else 0.0
            ),
            "service.requests": len(client.latencies),
            "service.wire_bytes": client.wire_bytes,
            "service.epochs": counters.epochs,
            "service.model_reuse_rate": (
                counters.models_reused / models if models else 0.0
            ),
            "service.queue_depth_max": queue_max,
        },
    }


# ---------------------------------------------------------------------------
# traced-pass layer metrics

def span_layer_metrics(tracer: tracing.Tracer, engine: Optional[str]) -> Dict:
    """Per-layer times and call counts read off the recorded spans."""
    summary = tracer.summary()
    own = tracing.self_time_by_layer(summary)
    runs = tracer.durations("simulation.run")
    applies = tracing.prefixed(summary, "core.apply.")
    writes = ["service.handle.submit", "service.handle.cancel"]
    handles = tracing.prefixed(summary, "service.handle.")
    layer = {
        "experiments.self_s": own.get("experiments", 0.0),
        "engine.self_s": own.get("engine", 0.0),
        "engine.wait_s": tracer.engine_wait_s,
        "simulation.self_s": own.get("simulation", 0.0),
        "simulation.run_p50_ms": tracing.percentile_ms(runs, 50),
        "simulation.run_p90_ms": tracing.percentile_ms(runs, 90),
        "core.decisions": tracing.count_of(summary, applies + ["core.optimal_schedule"]),
        "core.self_s": own.get("core", 0.0),
        "core.optimal_calls": tracing.count_of(summary, ["core.optimal_schedule"]),
        "core.optimal_s": tracing.total_of(summary, ["core.optimal_schedule"]),
        "resilience.profile_calls": tracing.count_of(summary, tracing.PROFILE_SPANS),
        "resilience.self_s": own.get("resilience", 0.0),
        "resilience.model_build_s": tracing.total_of(
            summary, ["resilience.model_init"]
        ),
        "service.write_s": tracing.total_of(summary, writes),
        "service.api_self_s": tracing.total_of(summary, handles, key="self_s"),
        "service.drain_s": tracing.total_of(summary, ["service.handle.drain"]),
    }
    if engine == "serial":
        layer["engine.wait_s"] = None
    root = summary["bench.run"]["total_s"]
    return {
        "layer": {k: v for k, v in layer.items() if v is not None},
        "span_self_sum_s": float(sum(row["self_s"] for row in summary.values())),
        "root_s": root,
        "spans": len(tracer.start),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument(
        "--mode", choices=("timed", "counted", "traced"), default="timed"
    )
    parser.add_argument("--size", choices=tuple(WORKLOADS), default="full")
    parser.add_argument("--engine", default=None, help="override the executor")
    parser.add_argument("--t-spawn", type=float, default=T_SCRIPT)
    parser.add_argument(
        "--digest-only", action="store_true",
        help="skip the reference replay; the caller compares digests",
    )
    args = parser.parse_args(argv)
    w = WORKLOADS[args.size][args.workload]
    is_figure = isinstance(w, FigureWorkload)
    engine = (args.engine or w.engine) if is_figure else None

    sim_counts = None
    tracer = None
    args.stop_tracing = lambda: None
    if args.mode in ("counted", "traced") and engine == "serial":
        sim_counts = SimCounts()
        sim_counts.install()
    if args.mode == "traced":
        tracer = tracing.Tracer()
        # Layers under a pooled executor run in forked workers, which
        # would inherit the wrappers and keep their spans; trace only
        # the submitting side there.
        traced_layers = (
            tracing.LAYERS if engine in (None, "serial")
            else ("experiments", "engine")
        )
        args.stop_tracing = tracing.install(tracer, traced_layers)

    out = (run_figure if is_figure else run_service)(w, args, tracer)
    if sim_counts is not None:
        out["layer"]["simulation.runs"] = sim_counts.runs
        out["layer"]["simulation.events"] = sim_counts.events
        out["layer"]["simulation.failures"] = sim_counts.failures
    if tracer is not None:
        traced = span_layer_metrics(tracer, engine)
        out["layer"].update(traced.pop("layer"))
        out.update(traced)
        path = OUT_DIR / f"spans-{args.workload}-{engine or 'service'}-seed{args.seed}.json"
        tracer.write(path)
        out["spans_file"] = str(path.relative_to(ROOT))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
