"""Hot-path performance regression gate.

Re-runs the :mod:`benchmarks.bench_hotpath` and
:mod:`benchmarks.bench_decisions` measurements and compares them
against the committed baselines ``BENCH_hotpath.json`` /
``BENCH_decisions.json``.  A benchmark slower than ``threshold``
(default 1.3x) times its recorded baseline fails the gate; the derived
host-relative speedups must also stay above their floors: the batched
expected-times accessor over the scalar loop
(``--min-batch-speedup``, default 3x) and the default simulator path
over ``Simulator(reference=True)`` on the failure-heavy simulation
(``--min-speedup-vs-reference``, default 2x at every scale).
The scheduling service rides the same gate
(:mod:`benchmarks.bench_service` vs ``BENCH_service.json``): the
arrival replay must stay byte-identical and its p99 re-pack latency
under ``--max-decision-latency`` (default 0.25 s).

Usage (from the repo root)::

    PYTHONPATH=src python -m benchmarks.check_regression
    PYTHONPATH=src python -m benchmarks.check_regression --threshold 1.5

Exit code 0 when every benchmark is within budget, 1 otherwise.
Refresh the baselines after an intentional perf change with::

    PYTHONPATH=src python -m benchmarks.bench_hotpath --write
    REPRO_BENCH_SCALE=small PYTHONPATH=src \\
        python -m benchmarks.bench_decisions --write
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
from pathlib import Path
from typing import Optional, Sequence

try:
    from .bench_hotpath import DEFAULT_BASELINE, batch_speedup, run_all
    from .bench_decisions import (
        BENCH_SCALE as DECISIONS_SCALE,
        DEFAULT_BASELINE as DECISIONS_BASELINE,
        SPEEDUP_VS_REFERENCE_FLOOR,
        run_all as run_decisions,
        sim_speedup_vs_reference,
    )
    from .bench_service import (
        BENCH_SCALE as SERVICE_SCALE,
        DEFAULT_BASELINE as SERVICE_BASELINE,
        MAX_DECISION_LATENCY,
        decision_latency_p99,
        run_bench as run_service,
    )
except ImportError:  # pytest / sys.path import (benchmarks/ on the path)
    from bench_hotpath import DEFAULT_BASELINE, batch_speedup, run_all
    from bench_decisions import (
        BENCH_SCALE as DECISIONS_SCALE,
        DEFAULT_BASELINE as DECISIONS_BASELINE,
        SPEEDUP_VS_REFERENCE_FLOOR,
        run_all as run_decisions,
        sim_speedup_vs_reference,
    )
    from bench_service import (
        BENCH_SCALE as SERVICE_SCALE,
        DEFAULT_BASELINE as SERVICE_BASELINE,
        MAX_DECISION_LATENCY,
        decision_latency_p99,
        run_bench as run_service,
    )

#: Per-benchmark slowdown tolerated before the gate fails.
DEFAULT_THRESHOLD = 1.3
#: Floor on the batched expected_times speedup over the scalar loop.
DEFAULT_MIN_BATCH_SPEEDUP = 3.0
#: Floor on the default-vs-reference simulator speedup (failure-heavy).
DEFAULT_MIN_SPEEDUP_VS_REFERENCE = SPEEDUP_VS_REFERENCE_FLOOR


def _check_against_baseline(
    payload: dict,
    fresh: dict,
    threshold: float,
    *,
    comparable: bool,
    mismatch_note: str,
    derived: Sequence[tuple[str, float, float]],
) -> tuple[bool, str]:
    """Shared gate body: per-benchmark ratios + derived-speedup floors.

    Absolute-seconds ratios only count when ``comparable`` (the fresh
    run matches the baseline's host/scale); the ``(name, value, floor)``
    derived speedups are host-relative and are always enforced.
    """
    baseline = payload["benchmarks"]
    lines = [] if comparable else [mismatch_note]
    ok = True
    width = max(len(name) for name in baseline)
    for name in sorted(baseline):
        ref = baseline[name]["seconds"]
        now = fresh[name]["seconds"]
        ratio = now / ref
        if comparable:
            flag = "ok" if ratio <= threshold else "REGRESSION"
            ok &= ratio <= threshold
        else:
            flag = "(not compared)"
        lines.append(
            f"{name:{width}s} baseline={ref * 1e6:10.1f}us "
            f"now={now * 1e6:10.1f}us ratio={ratio:5.2f}x {flag}"
        )
    for derived_name, derived_value, derived_floor in derived:
        flag = "ok" if derived_value >= derived_floor else "REGRESSION"
        ok &= derived_value >= derived_floor
        lines.append(
            f"{derived_name:{width}s} "
            f"{derived_value:5.2f}x (floor {derived_floor:g}x) {flag}"
        )
    return ok, "\n".join(lines)


def _host() -> tuple[Optional[str], Optional[str]]:
    return platform.machine(), platform.python_version()


def check(
    baseline_path: Path = DEFAULT_BASELINE,
    threshold: float = DEFAULT_THRESHOLD,
    min_batch_speedup: float = DEFAULT_MIN_BATCH_SPEEDUP,
) -> tuple[bool, str]:
    """Hot-path gate: fresh run vs ``BENCH_hotpath.json``; (ok, report)."""
    payload = json.loads(baseline_path.read_text())
    fresh = run_all(sorted(set(payload["benchmarks"])))
    recorded = (payload.get("machine"), payload.get("python"))
    return _check_against_baseline(
        payload,
        fresh,
        threshold,
        comparable=recorded == _host(),
        mismatch_note=(
            f"warning: baseline recorded on machine={recorded[0]} "
            f"python={recorded[1]}, running on machine={_host()[0]} "
            f"python={_host()[1]}; skipping absolute-seconds comparison "
            "— re-record with python -m benchmarks.bench_hotpath --write"
        ),
        derived=[
            ("batch_speedup", batch_speedup(fresh), min_batch_speedup),
        ],
    )


def check_decisions(
    baseline_path: Path = DECISIONS_BASELINE,
    threshold: float = DEFAULT_THRESHOLD,
    min_speedup_vs_reference: float = DEFAULT_MIN_SPEEDUP_VS_REFERENCE,
) -> tuple[bool, str]:
    """Decision gate: fresh run vs ``BENCH_decisions.json``.

    Enforces the host-relative ``sim_speedup_vs_reference`` floor: the
    default simulator path against ``Simulator(reference=True)`` on
    the failure-heavy run.  The committed baseline is recorded at ``small`` scale while CI runs
    ``tiny``, so the scale is part of the comparability test.
    """
    payload = json.loads(baseline_path.read_text())
    fresh = run_decisions(sorted(set(payload["benchmarks"])))
    recorded_scale = payload.get("scale")
    recorded = (payload.get("machine"), payload.get("python"))
    return _check_against_baseline(
        payload,
        fresh,
        threshold,
        comparable=recorded_scale == DECISIONS_SCALE and recorded == _host(),
        mismatch_note=(
            f"warning: decisions baseline recorded at scale={recorded_scale} "
            f"machine={recorded[0]} python={recorded[1]}, running at "
            f"scale={DECISIONS_SCALE} machine={_host()[0]} "
            f"python={_host()[1]}; skipping absolute-seconds comparison"
        ),
        derived=[
            (
                "sim_speedup_vs_reference",
                sim_speedup_vs_reference(fresh),
                min_speedup_vs_reference,
            ),
        ],
    )


def check_service(
    baseline_path: Path = SERVICE_BASELINE,
    max_decision_latency: float = MAX_DECISION_LATENCY,
) -> tuple[bool, str]:
    """Service gate: fresh replay vs ``BENCH_service.json``.

    The replay itself asserts the byte-identity and lost-job invariants
    (it raises on violation — a hard failure, not a report line); this
    gate adds the ``service_decision_latency`` sanity ceiling: the p99
    re-pack latency through the live service stack must stay under
    ``max_decision_latency`` seconds on any host.  Absolute seconds are
    only compared on the recording host, like the other gates.
    """
    payload = json.loads(baseline_path.read_text())
    fresh = run_service()
    p99 = decision_latency_p99(fresh)
    recorded_scale = payload.get("scale")
    recorded = (payload.get("machine"), payload.get("python"))
    comparable = recorded_scale == SERVICE_SCALE and recorded == _host()
    lines = []
    ok = True
    if comparable:
        ref = payload["benchmarks"]["service_replay"]["seconds"]
        now = fresh["service"]["seconds"]
        ratio = now / ref
        flag = "ok" if ratio <= 2.0 else "REGRESSION"
        ok &= ratio <= 2.0
        lines.append(
            f"service_replay baseline={ref * 1e6:10.1f}us "
            f"now={now * 1e6:10.1f}us ratio={ratio:5.2f}x {flag}"
        )
    else:
        lines.append(
            f"warning: service baseline recorded at scale={recorded_scale} "
            f"machine={recorded[0]} python={recorded[1]}; skipping "
            "absolute-seconds comparison"
        )
    flag = "ok" if p99 <= max_decision_latency else "REGRESSION"
    ok &= p99 <= max_decision_latency
    lines.append(
        f"service_decision_latency p99={p99 * 1e3:.3f}ms "
        f"(ceiling {max_decision_latency * 1e3:g}ms) {flag}"
    )
    return ok, "\n".join(lines)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=(
            "Fail on perf regressions vs BENCH_hotpath.json and "
            "BENCH_decisions.json."
        )
    )
    parser.add_argument(
        "--baseline", type=Path, default=DEFAULT_BASELINE,
        help="recorded hot-path baseline JSON",
    )
    parser.add_argument(
        "--decisions-baseline", type=Path, default=DECISIONS_BASELINE,
        help="recorded decision-kernel baseline JSON",
    )
    parser.add_argument(
        "--threshold", type=float, default=DEFAULT_THRESHOLD,
        help="max tolerated slowdown per benchmark (default 1.3)",
    )
    parser.add_argument(
        "--min-batch-speedup", type=float, default=DEFAULT_MIN_BATCH_SPEEDUP,
        help="required batched-vs-scalar speedup (default 3.0)",
    )
    parser.add_argument(
        "--min-speedup-vs-reference", type=float,
        default=DEFAULT_MIN_SPEEDUP_VS_REFERENCE,
        help=(
            "required default-vs-reference failure-heavy simulator "
            f"speedup (default {DEFAULT_MIN_SPEEDUP_VS_REFERENCE:g})"
        ),
    )
    parser.add_argument(
        "--service-baseline", type=Path, default=SERVICE_BASELINE,
        help="recorded service replay baseline JSON",
    )
    parser.add_argument(
        "--max-decision-latency", type=float, default=MAX_DECISION_LATENCY,
        help=(
            "max tolerated p99 service re-pack latency in seconds "
            f"(default {MAX_DECISION_LATENCY:g})"
        ),
    )
    args = parser.parse_args(argv)
    for path, module in (
        (args.baseline, "bench_hotpath"),
        (args.decisions_baseline, "bench_decisions"),
        (args.service_baseline, "bench_service"),
    ):
        if not path.exists():
            print(
                f"no baseline at {path}; record one with "
                f"python -m benchmarks.{module} --write",
                file=sys.stderr,
            )
            return 1
    ok, report = check(args.baseline, args.threshold, args.min_batch_speedup)
    print(report)
    dec_ok, dec_report = check_decisions(
        args.decisions_baseline, args.threshold,
        args.min_speedup_vs_reference,
    )
    print(dec_report)
    ok &= dec_ok
    svc_ok, svc_report = check_service(
        args.service_baseline, args.max_decision_latency
    )
    print(svc_report)
    ok &= svc_ok
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
