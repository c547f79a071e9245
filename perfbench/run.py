"""End-to-end benchmark: one workload, fresh processes, one JSON result.

::

    python3 perfbench/run.py --workload service --seed 0 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off: the
workload's timed pass runs in a fresh process (``workload.py``),
repeated until ``--seconds`` of timed work are done, at least three
times; every metric is the median over the passes.
``--trace 1`` reports the per-layer metrics instead: an untraced and a
traced pass of the same seed, the difference between them as
``trace.overhead_pct``, and a self-check that every per-layer count
repeats exactly across passes (``fig10-persistent`` adds ``serial``
passes for the layers under the pool).

``BENCHMARK.json`` names the workloads and metrics.

Human-readable lines come first; the last stdout line is the JSON
result.  The benchmark exits non-zero without a result when the program
is missing, a pass fails or the time limit is hit.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
from tracer import percentile_ms  # noqa: E402

#: Every run must end well inside the 180 s a run is allowed.
TIME_LIMIT_S = 170.0
#: Timed passes per run: at least this many (``setup_s`` and ``run_s``
#: are medians of them) ...
MIN_PASSES = 3
#: ... and at most this many, however long ``--seconds`` is.
MAX_PASSES = 10


class PassFailed(RuntimeError):
    pass


class Runner:
    """Starts workload passes as child processes under one deadline."""

    def __init__(self, args: argparse.Namespace):
        self.args = args
        self.deadline = time.monotonic() + TIME_LIMIT_S

    def run(
        self, mode: str, engine: Optional[str] = None, digest_only: bool = False
    ) -> Dict:
        cmd = [
            sys.executable,
            str(HERE / "workload.py"),
            "--workload", self.args.workload,
            "--seed", str(self.args.seed),
            "--mode", mode,
            "--size", self.args.size,
        ]
        if engine is not None:
            cmd += ["--engine", engine]
        if digest_only:
            cmd.append("--digest-only")
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise PassFailed("time limit reached before a pass could start")
        # The child measures set-up from this instant (the monotonic
        # clock is shared by every process on the host).
        cmd += ["--t-spawn", repr(time.perf_counter())]
        proc = subprocess.Popen(
            cmd, cwd=ROOT, stdout=subprocess.PIPE, start_new_session=True
        )
        try:
            out, _ = proc.communicate(timeout=remaining)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise PassFailed(f"{mode} pass exceeded the time limit") from None
        finally:
            if proc.poll() is None:  # pragma: no cover - interrupted
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
        if proc.returncode != 0:
            raise PassFailed(f"{mode} pass exited with {proc.returncode}")
        lines = out.decode().strip().splitlines()
        if not lines:
            raise PassFailed(f"{mode} pass printed nothing")
        return json.loads(lines[-1])


def request_percentiles(latencies: List[float]) -> Dict[str, float]:
    return {
        "request_p50_ms": percentile_ms(latencies, 50),
        "request_p99_ms": percentile_ms(latencies, 99),
        "request_samples": float(len(latencies)),
    }


def end_to_end(runner: Runner) -> Dict:
    """``--trace 0``: timed passes until ``--seconds`` of timed work."""
    args = runner.args
    # Later passes of the same seed must reproduce the first one's
    # digest, so only the first replays the service reference.
    passes = [runner.run("timed")]
    while len(passes) < MAX_PASSES and (
        len(passes) < MIN_PASSES or sum(p["run_s"] for p in passes) < args.seconds
    ):
        passes.append(runner.run("timed", digest_only=True))
    digests = {p["digest"] for p in passes}
    failed = sum(p["failed"] for p in passes) + (len(digests) - 1)
    attempted = sum(p["attempted"] for p in passes)

    def median(key):
        return statistics.median(p[key] for p in passes)

    values = {
        "setup_s": median("setup_s"),
        "run_s": median("run_s"),
        "jobs_per_s": statistics.median(p["units"] / p["run_s"] for p in passes),
        "peak_rss_mb": median("peak_rss_mb"),
    }
    extra = {
        "error_rate": failed / attempted,
        "passes": len(passes),
        "units": passes[0]["units"],
    }
    if "latencies" in passes[0]:
        latencies = [v for p in passes for v in p["latencies"]]
        extra.update(request_percentiles(latencies))
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "values": values,
        "extra": extra,
        "digest": passes[0]["digest"],
        "checks": sorted({p["check"] for p in passes}),
    }


def compare_counts(a: Dict, b: Dict) -> List[str]:
    """Names of the counts both passes report that differ between them."""
    return sorted(
        name for name in layers.REPEATABLE_COUNTS
        if name in a["layer"] and name in b["layer"]
        and a["layer"][name] != b["layer"][name]
    )


def overhead_pct(untraced: Dict, traced: Dict) -> float:
    return 100.0 * (traced["run_s"] - untraced["run_s"]) / untraced["run_s"]


def per_layer(runner: Runner) -> Dict:
    """``--trace 1``: untraced/traced passes and the per-layer metrics.

    The untraced pass is ``timed``, exactly as in ``--trace 0``.
    """
    workload = runner.args.workload
    pooled = workload in layers.FIGURES
    base = runner.run("timed")
    traced = runner.run("traced", digest_only=True)
    every = [base, traced]
    pairs = [(base, traced)]
    values: Dict[str, float] = dict(base["layer"])
    values.update(traced["layer"])
    values["setup.import_s"] = base["import_s"]
    values["trace.overhead_pct"] = overhead_pct(base, traced)
    if "latencies" in base:
        values.update(request_percentiles(base["latencies"]))
    if pooled:
        # Layers under the pool run in its workers: their times and
        # simulation counts come from serial passes of the same sweep,
        # their cache counts stay those of the pool's own EngineStats.
        # Simulation counts need a hook on ``Simulator.run``, so they
        # are compared between a ``counted`` pass (hook, no spans) and
        # the traced one; ``timed`` gives the untraced serial run_s.
        serial = runner.run("timed", engine="serial", digest_only=True)
        serial_counted = runner.run("counted", engine="serial", digest_only=True)
        serial_traced = runner.run("traced", engine="serial", digest_only=True)
        every += [serial, serial_counted, serial_traced]
        pairs += [(serial, serial_traced), (serial_counted, serial_traced)]
        values.update(
            (name, value) for name, value in serial_traced["layer"].items()
            if name in layers.FROM_SERIAL
        )
        values["trace.serial_overhead_pct"] = overhead_pct(serial, serial_traced)
        values["engine.parallel_efficiency"] = serial["run_s"] / (
            base["run_s"] * layers.WORKERS
        )
    mismatched = sorted({m for a, b in pairs for m in compare_counts(a, b)})
    digests = {p["digest"] for p in every}
    checks = {p["check"] for p in every}
    if pooled:
        checks.add("pooled == serial digest")
    failed = sum(p["failed"] for p in every)
    failed += len(digests) - 1 + (1 if mismatched else 0)
    return {
        "correct": failed == 0,
        "attempted": sum(p["attempted"] for p in every),
        "failed": failed,
        "values": values,
        "extra": {
            "count_mismatches": mismatched,
            "spans": sum(p.get("spans", 0) for p in every),
            "span_self_sum_s": traced["span_self_sum_s"],
            "root_span_s": traced["root_s"],
            "spans_file": traced["spans_file"],
        },
        "digest": base["digest"],
        "checks": sorted(checks),
    }


def main(argv=None) -> int:
    spec = layers.load_spec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True, choices=[w["name"] for w in spec["workloads"]]
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=("full", "reduced"), default="full",
        help="reduced: small inputs for the self-test",
    )
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"program sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2

    runner = Runner(args)
    try:
        report = per_layer(runner) if args.trace else end_to_end(runner)
    except PassFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    specs = spec["per_layer"] if args.trace else spec["end_to_end"]
    names = [m["name"] for m in specs]
    applicable = layers.applicable(args.workload, names) if args.trace else names
    metrics = {}
    for metric in specs:
        name, unit = metric["name"], metric["unit"]
        value = report["values"].get(name)
        if value is None or name not in applicable:
            value = 0.0
            print(f"  {name}: n/a on {args.workload}")
        else:
            note = " (computed)" if name in layers.COMPUTED else ""
            print(f"  {name}: {value:.6g} {unit}{note}")
        metrics[name] = {"value": value, "unit": unit}
    for name, value in report["extra"].items():
        print(f"  {name}: {value}")
    if args.trace:
        for name, row in layers.LAYER_MAP.items():
            print(
                f"  layer {name}: should move {row['moves']} on "
                f"{', '.join(sorted(row['on']))}; should not move on "
                f"{', '.join(sorted(row['not_on'])) or '-'}"
            )
    print(f"  output digest: {report['digest']}")
    print(f"  outputs checked by: {', '.join(report['checks'])}")
    print(
        json.dumps(
            {
                "correct": bool(report["correct"]),
                "attempted": int(report["attempted"]),
                "failed": int(report["failed"]),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
