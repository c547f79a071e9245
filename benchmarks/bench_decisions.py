"""Decision benchmark: the fast path against the one reference.

The whole simulator stack — decision cache, array decision kernels,
fused Eq. 4 backend, ndarray failure path — is measured on a
*failure-heavy* scenario (low MTBF, large pack, ~5k+ events) whose
runtime is dominated by rebuild decisions, against the same run under
:class:`repro.oracle.ReferenceSimulator` (scalar heuristics,
per-call-stacking Eq. 4, the seed's per-failure Python scans).

Measurements:

* ``sim_failure_heavy`` — the default path;
* ``sim_failure_heavy_reference`` — the oracle's ``ReferenceSimulator``;
* ``rebuild`` / ``rebuild_reference`` — one isolated Algorithm-5
  rebuild of an ``n``-task pack on each path (the fast path builds a
  one-shot decision cache, like any cache-less caller).

Both simulations run on the same workload and fault draw and the
benchmark asserts they are byte-identical before timing is trusted.

Runs two ways:

* under pytest: ``PYTHONPATH=src python -m pytest benchmarks/bench_decisions.py``
* standalone, recording the committed baseline ``BENCH_decisions.json``::

      REPRO_BENCH_SCALE=small PYTHONPATH=src \\
          python -m benchmarks.bench_decisions --write

``python -m benchmarks.check_regression`` re-runs the measurements and
enforces the one derived host-relative floor,
``sim_speedup_vs_reference`` (reference seconds over default seconds on
the failure-heavy run, floor 2x at every scale).  ``REPRO_BENCH_SCALE``
(``tiny``/``small``/``paper``) sizes the scenario.
"""

from __future__ import annotations

import argparse
import json
import platform
import time
from pathlib import Path
from typing import Callable, Dict, Optional, Sequence

from repro.cluster import Cluster
from repro.core import optimal_schedule
from repro import oracle
from repro.core.heuristics import greedy_rebuild
from repro.core.state import TaskRuntime
from repro.resilience import ExpectedTimeModel
from repro.simulation import Simulator
from repro.tasks import uniform_pack

try:  # pytest / sys.path import (benchmarks/ on the path)
    from ._common import BENCH_SCALE
except ImportError:  # pragma: no cover - direct execution fallback
    from _common import BENCH_SCALE

#: Committed baseline location (repo root).
DEFAULT_BASELINE = Path(__file__).resolve().parent.parent / "BENCH_decisions.json"

#: Failure-heavy scenario per scale: pack size, platform size, task size
#: and a deliberately hopeless MTBF so failures (and their rebuild
#: decisions) dominate the event stream.
SCALE_PARAMS: Dict[str, Dict[str, float]] = {
    "tiny": dict(n=32, p=192, m_sup=14_000.0, mtbf_years=0.001, seed=3),
    "small": dict(n=64, p=512, m_sup=24_000.0, mtbf_years=0.002, seed=3),
    "paper": dict(n=100, p=1000, m_sup=25_000.0, mtbf_years=0.004, seed=3),
}

PARAMS = SCALE_PARAMS.get(BENCH_SCALE, SCALE_PARAMS["small"])

#: Floor on ``sim_speedup_vs_reference`` at every scale.  It is no
#: looser than any floor of the three mode-ratio gates it replaced
#: (kernel 1.5x, state 1.3x, hot core 2x at small/paper and 1.25x at
#: tiny), each of which only removed part of what the reference adds.
SPEEDUP_VS_REFERENCE_FLOOR = 2.0

#: Rebuild microbenchmark pack size per scale.
REBUILD_N = {"tiny": 24, "small": 64, "paper": 128}.get(BENCH_SCALE, 64)


def _sim_workload():
    params = PARAMS
    pack = uniform_pack(
        int(params["n"]),
        m_inf=params["m_sup"] * 0.8,
        m_sup=params["m_sup"],
        seed=1,
    )
    cluster = Cluster.with_mtbf_years(int(params["p"]), params["mtbf_years"])
    return pack, cluster, int(params["seed"])


def measure(
    fn: Callable[[], object], *, number: int = 1, repeats: int = 3
) -> float:
    """Best-of-``repeats`` mean seconds per call over ``number`` calls."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(number):
            fn()
        best = min(best, (time.perf_counter() - start) / number)
    return best


def _sim_runner(reference: bool) -> Callable[[], object]:
    """A zero-argument failure-heavy ``ig-el`` run on one path."""
    pack, cluster, seed = _sim_workload()
    model_class, simulator = (
        (oracle.ReferenceModel, oracle.ReferenceSimulator) if reference
        else (ExpectedTimeModel, Simulator)
    )
    model = model_class(pack, cluster)
    return lambda: simulator(
        pack, cluster, "ig-el", seed=seed, model=model
    ).run()


def _sim_fields(result) -> Dict[str, float]:
    return {
        "events": float(result.events),
        "failures": float(result.failures_effective),
        "makespan": result.makespan,
    }


def measure_sim(reference: bool) -> Dict[str, float]:
    """One full failure-heavy ``ig-el`` run on one path.

    Best-of-5 consecutive reps; when both paths feed the derived
    ratio, prefer :func:`run_all`, which interleaves the reps across
    paths so host drift cannot land on one side of the ratio.
    """
    run = _sim_runner(reference)
    fields = _sim_fields(run())
    return {"seconds": measure(run, repeats=5), **fields}


def _rebuild_once(n: int, reference: bool) -> Callable[[], list]:
    pack = uniform_pack(n, m_inf=6000, m_sup=10000, seed=0)
    cluster = Cluster.with_mtbf_years(8 * n, 0.02)
    model = ExpectedTimeModel(pack, cluster)
    sigma = optimal_schedule(model, 8 * n)
    rebuild = oracle.greedy_rebuild if reference else greedy_rebuild

    def run() -> list:
        runtimes = []
        for i, spec in enumerate(pack):
            rt = TaskRuntime(spec)
            rt.assign(sigma[i])
            rt.t_expected = model.expected_time(i, sigma[i], 1.0)
            runtimes.append(rt)
        t = min(rt.t_expected for rt in runtimes) * 0.5
        rebuild(model, t, runtimes, 8 * n)
        # Full mutated state, so identity checks compare the actual
        # allocations and bookkeeping, not just which tasks moved.
        return [
            (rt.sigma, rt.alpha, rt.t_last, rt.t_expected)
            for rt in runtimes
        ]

    return run


def measure_rebuild(reference: bool) -> Dict[str, float]:
    """One Algorithm-5 rebuild on one path."""
    return {
        "seconds": measure(
            _rebuild_once(REBUILD_N, reference),
            number=max(2, 64 // REBUILD_N),
            repeats=5,
        )
    }


#: Simulation measurements: name -> ``reference`` flag.
SIM_MODES: Dict[str, bool] = {
    "sim_failure_heavy": False,
    "sim_failure_heavy_reference": True,
}

#: name -> zero-argument measurement returning at least {"seconds": s}.
MEASUREMENTS: Dict[str, Callable[[], Dict[str, float]]] = {
    **{
        name: (lambda reference=reference: measure_sim(reference))
        for name, reference in SIM_MODES.items()
    },
    "rebuild": lambda: measure_rebuild(False),
    "rebuild_reference": lambda: measure_rebuild(True),
}


def _measure_sims_interleaved(
    names: Sequence[str], repeats: int = 5
) -> Dict[str, Dict[str, float]]:
    """Best-of-``repeats`` for both sim paths, reps round-robin.

    The derived speedup divides the two measurements, so the reps are
    interleaved (one run of *every* path per round) — a load spike on a
    noisy shared host then inflates both paths in the same rounds
    instead of landing its whole duration on one side of the ratio.
    """
    runners = {name: _sim_runner(SIM_MODES[name]) for name in names}
    results = {}
    for name, run in runners.items():  # warm-up + identity fields
        results[name] = {"seconds": float("inf"), **_sim_fields(run())}
    for _ in range(repeats):
        for name, run in runners.items():
            start = time.perf_counter()
            run()
            elapsed = time.perf_counter() - start
            if elapsed < results[name]["seconds"]:
                results[name]["seconds"] = elapsed
    return results


def run_all(names: Optional[Sequence[str]] = None) -> Dict[str, Dict[str, float]]:
    """Run the selected measurements (all by default) and check identity."""
    selected = list(MEASUREMENTS) if names is None else list(names)
    sim_names = [name for name in selected if name in SIM_MODES]
    results = (
        _measure_sims_interleaved(sim_names) if len(sim_names) > 1 else {}
    )
    for name in selected:
        if name not in results:
            results[name] = MEASUREMENTS[name]()
    sims = [results[name] for name in SIM_MODES if name in results]
    # The timing is only meaningful if both paths executed the exact
    # same simulation.
    for other in sims[1:]:
        for field in ("events", "failures", "makespan"):
            assert sims[0][field] == other[field], (
                f"reference divergence on {field}: "
                f"{sims[0][field]} vs {other[field]}"
            )
    return results


def sim_speedup_vs_reference(results: Dict[str, Dict[str, float]]) -> float:
    """Reference seconds over default seconds (failure-heavy).

    What the fast path buys end to end over the oracle's
    ``ReferenceSimulator`` on the same simulation.
    """
    return (
        results["sim_failure_heavy_reference"]["seconds"]
        / results["sim_failure_heavy"]["seconds"]
    )


def payload_from(results: Dict[str, Dict[str, float]]) -> Dict[str, object]:
    return {
        "schema": 1,
        "scale": BENCH_SCALE,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "benchmarks": results,
        "derived": {
            "sim_speedup_vs_reference": sim_speedup_vs_reference(results),
        },
    }


def write_baseline(path: Path = DEFAULT_BASELINE) -> Dict[str, object]:
    """Measure everything and record the committed baseline JSON."""
    payload = payload_from(run_all())
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return payload


# -- pytest entry points -----------------------------------------------------

def test_fast_path_beats_reference_on_failures():
    """Acceptance gate: the fast path is >= 2x over the reference.

    One retry before failing — the margin is real, but shared CI
    runners can invert a single noisy sample.
    """
    names = list(SIM_MODES)
    results = run_all(names)
    assert results["sim_failure_heavy"]["events"] >= 1000
    if sim_speedup_vs_reference(results) < SPEEDUP_VS_REFERENCE_FLOOR:  # pragma: no cover - noisy host
        results = run_all(names)
    speedup = sim_speedup_vs_reference(results)
    assert speedup >= SPEEDUP_VS_REFERENCE_FLOOR, (
        f"fast path only {speedup:.2f}x over the reference on the "
        f"failure-heavy benchmark (floor {SPEEDUP_VS_REFERENCE_FLOOR:g}x "
        f"at {BENCH_SCALE})"
    )


def test_rebuild_paths_agree():
    """Both paths rebuild identical state on the micro case."""
    assert _rebuild_once(REBUILD_N, False)() == _rebuild_once(REBUILD_N, True)()


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Measure the fast path against the reference."
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
        payload = payload_from(run_all())
    print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
