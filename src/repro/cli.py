"""Command-line interface.

::

    repro-cosched figures                      # list reproducible figures
    repro-cosched run fig7 --scale small       # regenerate one figure
    repro-cosched run fig8 --plot --csv out.csv --json out.json
    repro-cosched simulate --n 20 --p 100 --policy ig-el --mtbf-years 10
    repro-cosched simulate --gantt --trace-csv events.csv
    repro-cosched policies                     # list scheduling policies
    repro-cosched pack --n 14 --p 12 --k 3     # multi-pack partitioning
    repro-cosched batch --n 10 --p 12          # online batch campaign
    repro-cosched validate --n 4 --p 16        # check Eq. (4) vs Monte-Carlo
    repro-cosched ratios --n 8 --p 24          # competitive ratios
    repro-cosched serve --port 8643            # online scheduling daemon

The same entry point is reachable as ``python -m repro.cli``.

The execution commands (``run``, ``compare``, ``batch``, ``validate``)
accept ``--engine {serial,persistent,queue}`` and
``--workers N`` to pick the run-fabric (:mod:`repro.engine`) that fans
their work out; results are byte-identical under every engine and
worker count, and ``--verbose`` prints the engine's
``cache_info()``-style statistics — for ``run`` and ``compare`` also
the models' profile-cache hit rate, and for ``run`` streamed per-point
replicate progress (``Executor.map_stream``) on stderr while a sweep
executes.  The ``queue`` engine self-hosts a local broker spool plus
``--workers`` worker subprocesses (``python -m repro.engine.worker``);
its statistics — profile-cache and decision-state counters included —
travel back across the queue boundary like any other engine's.
``--broker SPEC`` points that engine at one *externally served* broker
instead — an ``http(s)://`` URL of a running
``python -m repro.engine.broker_server`` (``--broker-token`` or
``$REPRO_BROKER_TOKEN`` authenticates) or a shared spool directory —
and an elastic fleet of ``python -m repro.engine.worker`` processes,
joining and draining at will, executes the campaign.  Two resilience
knobs ride along (``docs/RESILIENCE.md``): ``--journal DIR`` records
finished chunks so a re-run of the same campaign resumes instead of
recomputing, and ``--chaos PLAN`` arms deterministic fault injection
(``--verbose`` then also prints the retry / requeue / dead-letter /
journal digest).  The benchmark suite under
``benchmarks/`` reads the ``REPRO_BENCH_SCALE`` environment variable
(``tiny``/``small``/``paper``) to pick its scaling preset.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Optional, Sequence

from . import __version__
from .cluster import Cluster
from .core.policy import PAPER_POLICY_LABELS, POLICIES
from .engine import ENGINES, create_executor, resolve_engine
from .exceptions import ConfigurationError
from .experiments import (
    FIGURES,
    SCALES,
    TraceFigureResult,
    list_figures,
    render_figure,
    render_trace_figure,
    run_figure,
)
from .simulation import Simulator, simulate
from .tasks import uniform_pack
from .units import to_days

__all__ = ["main", "build_parser"]


def _add_workload_arguments(
    parser: argparse.ArgumentParser,
    *,
    n: int = 10,
    p: int = 100,
    mtbf_years: float = 100.0,
) -> None:
    """Shared workload/platform knobs (simulate, pack, validate, ratios)."""
    parser.add_argument("--n", type=int, default=n, help="number of tasks")
    parser.add_argument(
        "--p", type=int, default=p, help="number of processors"
    )
    parser.add_argument("--mtbf-years", type=float, default=mtbf_years)
    parser.add_argument("--downtime", type=float, default=60.0)
    parser.add_argument("--m-inf", type=float, default=15_000.0)
    parser.add_argument("--m-sup", type=float, default=25_000.0)
    parser.add_argument("--checkpoint-unit-cost", type=float, default=1.0)
    parser.add_argument("--seed", type=int, default=0)


def _add_engine_arguments(parser: argparse.ArgumentParser) -> None:
    """Shared run-fabric knobs (run, compare, batch, validate)."""
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help=(
            "processes for the engine fan-out (1 = in-process; results "
            "are byte-identical at any worker count)"
        ),
    )
    parser.add_argument(
        "--engine",
        choices=ENGINES,
        default=None,
        help=(
            "execution engine (default: serial, or 'persistent' when "
            "--workers > 1: a process pool kept alive across the whole "
            "command; 'queue' serialises work through a local broker "
            "spool to worker subprocesses)"
        ),
    )
    parser.add_argument(
        "--verbose",
        action="store_true",
        help="print the engine's cache/pool statistics after the run",
    )
    parser.add_argument(
        "--journal",
        default=None,
        metavar="DIR",
        help=(
            "content-addressed chunk-result journal: finished chunks are "
            "recorded here and a re-run of the same campaign skips them "
            "(crash-resumable dispatch)"
        ),
    )
    parser.add_argument(
        "--chaos",
        default=None,
        metavar="PLAN",
        help=(
            "arm deterministic fault injection: JSON or key=value pairs, "
            "e.g. 'seed=7,crash_after_claim=0.25,corrupt_result=0.5' "
            "(results stay byte-identical; for testing the fabric)"
        ),
    )
    parser.add_argument(
        "--broker",
        default=None,
        metavar="SPEC",
        help=(
            "dispatch through an externally served broker (implies "
            "--engine queue): an http(s):// URL of a running "
            "`python -m repro.engine.broker_server` or a FileBroker "
            "spool directory; workers join with "
            "`python -m repro.engine.worker --broker SPEC`"
        ),
    )
    parser.add_argument(
        "--broker-token",
        default=None,
        metavar="TOKEN",
        help=(
            "bearer token for an http(s) --broker "
            "(default: $REPRO_BROKER_TOKEN)"
        ),
    )


def _make_executor(args: argparse.Namespace):
    """Build the executor the command's engine flags ask for.

    ``--workers`` > 1 defaults to the persistent pool, so pool start-up
    is paid once per command, not once per dispatch.  ``--broker``
    routes dispatch through an externally served broker (a remote HTTP
    broker server or a shared spool directory) instead of a self-hosted
    fleet — the queue engine, with workers joining from wherever they
    like.
    """
    spec = getattr(args, "broker", None)
    if spec is not None:
        if args.engine not in (None, "queue"):
            raise ConfigurationError(
                f"--broker dispatches through the queue engine; "
                f"it cannot be combined with --engine {args.engine}"
            )
        from .engine import FaultPlan, connect_broker
        from .engine.queue_exec import QueueExecutor

        token = getattr(args, "broker_token", None)
        if token is None:
            token = os.environ.get("REPRO_BROKER_TOKEN")
        plan = FaultPlan.from_spec(getattr(args, "chaos", None))
        return QueueExecutor(
            workers=args.workers,
            broker=connect_broker(spec, token=token, chaos_plan=plan),
            chaos_plan=plan,
            journal=getattr(args, "journal", None),
        )
    return create_executor(
        resolve_engine(args.engine, args.workers),
        workers=args.workers,
        chaos_plan=getattr(args, "chaos", None),
        journal=getattr(args, "journal", None),
    )


def _report_engine(
    args: argparse.Namespace, executor, *, profiles: bool = False
) -> None:
    """Print the ``cache_info()``-style counters under ``--verbose``.

    ``profiles`` adds the :class:`~repro.resilience.ExpectedTimeModel`
    profile-cache line (hit rate of the envelope ring across every
    dispatched simulation) and the decision-state line (rows the
    incremental engine patched vs reused across events).  A line of
    resilience counters (retries, requeues, dead-letters, duplicates,
    journal hits) appears whenever any of them fired.
    """
    if args.verbose:
        stats = executor.stats()
        print(f"engine[{executor.name}]: {stats.describe()}")
        if profiles:
            print(f"profiles: {stats.describe_profiles()}")
            if stats.decision_rows_patched + stats.decision_rows_reused:
                print(f"decisions: {stats.describe_decisions()}")
        if stats.any_resilience_events():
            print(f"resilience: {stats.describe_resilience()}")
        if stats.any_fleet_events():
            print(f"fleet: {stats.describe_fleet()}")


def build_parser() -> argparse.ArgumentParser:
    """The argparse command tree."""
    parser = argparse.ArgumentParser(
        prog="repro-cosched",
        description=(
            "Resilient application co-scheduling with processor "
            "redistribution (Benoit, Pottier, Robert) - reproduction toolkit"
        ),
        epilog=(
            "environment: REPRO_BENCH_SCALE picks the benchmark scaling "
            "preset (tiny/small/paper) for the benchmarks/ suite; "
            "REPRO_BENCH_SEED sets its master seed."
        ),
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser("figures", help="list the reproducible figures")
    commands.add_parser("policies", help="list the scheduling policies")

    run = commands.add_parser("run", help="regenerate one figure's data")
    run.add_argument("figure", choices=sorted(FIGURES))
    run.add_argument(
        "--scale",
        choices=sorted(SCALES),
        default="small",
        help="scaling preset (default: small)",
    )
    run.add_argument("--seed", type=int, default=0)
    _add_engine_arguments(run)
    run.add_argument(
        "--precision", type=int, default=3, help="digits in the tables"
    )
    run.add_argument(
        "--plot", action="store_true", help="also draw an ASCII chart"
    )
    run.add_argument("--csv", metavar="PATH", help="export the series as CSV")
    run.add_argument("--json", metavar="PATH", help="export the data as JSON")

    sim = commands.add_parser("simulate", help="run one simulation")
    _add_workload_arguments(sim)
    sim.add_argument("--policy", choices=sorted(POLICIES), default="ig-el")
    sim.add_argument(
        "--fault-free", action="store_true", help="disable fault injection"
    )
    sim.add_argument(
        "--gantt", action="store_true", help="draw the allocation Gantt"
    )
    sim.add_argument(
        "--json", metavar="PATH", help="export the result (trace included)"
    )
    sim.add_argument(
        "--trace-csv", metavar="PATH", help="export the event log as CSV"
    )

    pack_cmd = commands.add_parser(
        "pack", help="partition a task set into consecutive packs"
    )
    _add_workload_arguments(pack_cmd, n=14, p=12, mtbf_years=0.5)
    pack_cmd.add_argument(
        "--k", type=int, default=3, help="pack count for LPT/DP"
    )
    pack_cmd.add_argument(
        "--policy", choices=sorted(POLICIES), default="ig-el"
    )
    pack_cmd.add_argument(
        "--execute",
        action="store_true",
        help="run the best partition through the simulator",
    )

    batch = commands.add_parser(
        "batch", help="run a Poisson job campaign through batch scheduling"
    )
    _add_workload_arguments(batch, n=10, p=12, mtbf_years=0.5)
    batch.add_argument(
        "--policy", choices=sorted(POLICIES), default="ig-el"
    )
    batch.add_argument(
        "--mean-interarrival",
        type=float,
        default=30_000.0,
        help="mean job inter-arrival time in seconds",
    )
    batch.add_argument(
        "--batch-size",
        type=int,
        default=None,
        help="cap jobs per batch (default: fill the platform)",
    )
    batch.add_argument(
        "--replicates",
        type=int,
        default=1,
        help=(
            "fault-draw replicates of the campaign (> 1 fans the "
            "replicated campaigns out through the engine)"
        ),
    )
    _add_engine_arguments(batch)

    val = commands.add_parser(
        "validate", help="validate Eq. (4) and the simulator consistency"
    )
    _add_workload_arguments(val, n=4, p=16, mtbf_years=0.05)
    val.add_argument(
        "--samples", type=int, default=200, help="Monte-Carlo sample count"
    )
    _add_engine_arguments(val)

    ratios = commands.add_parser(
        "ratios", help="competitive ratios against certified lower bounds"
    )
    _add_workload_arguments(ratios, n=8, p=24, mtbf_years=0.1)

    serve = commands.add_parser(
        "serve",
        help=(
            "run the rolling-horizon scheduling daemon "
            "(token-authenticated HTTP/JSON; SIGTERM drains gracefully)"
        ),
    )
    from .service.server import add_service_arguments

    add_service_arguments(serve)

    compare = commands.add_parser(
        "compare",
        help="paired-replicate policy comparison with significance",
    )
    _add_workload_arguments(compare, n=6, p=16, mtbf_years=0.02)
    compare.add_argument(
        "--replicates", type=int, default=5, help="paired replicates"
    )
    compare.add_argument(
        "--policies",
        nargs="+",
        default=["ig-eg", "ig-el", "stf-eg", "stf-el"],
        choices=sorted(POLICIES),
    )
    compare.add_argument(
        "--fault-free", action="store_true", help="compare without failures"
    )
    _add_engine_arguments(compare)
    return parser


def _cmd_figures() -> int:
    for name in list_figures():
        print(f"{name:8s} {FIGURES[name].title}")
    return 0


def _cmd_policies() -> int:
    for name in sorted(POLICIES):
        print(f"{name:18s} {PAPER_POLICY_LABELS.get(name, '')}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    progress = None
    if args.verbose:
        def progress(figure: str, x: float, done: int, total: int) -> None:
            print(
                f"{figure} x={x:g}: {done}/{total} replicates",
                file=sys.stderr,
            )

    with _make_executor(args) as executor:
        result = run_figure(
            args.figure,
            scale=args.scale,
            seed=args.seed,
            executor=executor,
            progress=progress,
        )
    if isinstance(result, TraceFigureResult):
        print(render_trace_figure(result, precision=args.precision))
        if args.plot:
            from .viz import plot_trace_figure

            print()
            print(plot_trace_figure(result))
        if args.csv or args.json:
            print(
                "note: --csv/--json exports apply to sweep figures only",
                file=sys.stderr,
            )
        if args.engine is not None or args.workers > 1:
            print(
                "note: trace figures are a single replicate; the engine "
                "flags have no effect on them",
                file=sys.stderr,
            )
        _report_engine(args, executor, profiles=True)
        return 0
    print(render_figure(result, precision=args.precision))
    if args.plot:
        from .viz import plot_figure

        print()
        print(plot_figure(result))
    if args.csv:
        from .io import write_figure_csv

        write_figure_csv(result, args.csv)
        print(f"series written to {args.csv}")
    if args.json:
        from .io import save_figure

        save_figure(result, args.json)
        print(f"figure data written to {args.json}")
    _report_engine(args, executor, profiles=True)
    return 0


def _build_workload(args: argparse.Namespace):
    pack = uniform_pack(
        args.n,
        m_inf=args.m_inf,
        m_sup=args.m_sup,
        checkpoint_unit_cost=args.checkpoint_unit_cost,
        seed=args.seed,
    )
    cluster = Cluster.with_mtbf_years(args.p, args.mtbf_years, args.downtime)
    return pack, cluster


def _cmd_simulate(args: argparse.Namespace) -> int:
    pack, cluster = _build_workload(args)
    needs_trace = args.gantt or args.json or args.trace_csv
    result = Simulator(
        pack,
        cluster,
        args.policy,
        seed=args.seed,
        inject_faults=not args.fault_free,
        record_trace=bool(needs_trace),
    ).run()
    print(result.summary())
    print(
        f"makespan: {result.makespan:.6g} s "
        f"({to_days(result.makespan):.2f} days)"
    )
    if args.gantt:
        from .viz import gantt_chart

        print()
        print(gantt_chart(result))
    if args.json:
        from .io import save_result

        save_result(result, args.json)
        print(f"result written to {args.json}")
    if args.trace_csv:
        from .io import write_trace_csv

        assert result.trace is not None
        write_trace_csv(result.trace, args.trace_csv)
        print(f"event log written to {args.trace_csv}")
    return 0


def _cmd_pack(args: argparse.Namespace) -> int:
    from .packing import (
        MultiPackScheduler,
        PackCostOracle,
        dp_contiguous,
        first_fit_capacity,
        fixed_k_lpt,
        one_pack,
    )

    pack, cluster = _build_workload(args)
    oracle = PackCostOracle(pack, cluster)
    candidates = {}
    if args.n <= oracle.max_group_size:
        candidates["one-pack"] = one_pack(oracle)
    candidates["first-fit"] = first_fit_capacity(oracle)
    if args.k <= args.n:
        candidates[f"lpt-k{args.k}"] = fixed_k_lpt(oracle, args.k)
        candidates[f"dp-k{args.k}"] = dp_contiguous(oracle, args.k)

    for name, partition in candidates.items():
        print(f"{name:12s} {partition.describe()}")
    best_name = min(candidates, key=lambda k: candidates[k].estimated_total)
    print(f"\noracle's choice: {best_name}")

    if args.execute:
        outcome = MultiPackScheduler(
            pack, cluster, args.policy, candidates[best_name], seed=args.seed
        ).run()
        print(outcome.summary())
    return 0


def _cmd_batch(args: argparse.Namespace) -> int:
    from .batch import (
        OnlineBatchScheduler,
        poisson_stream,
        run_replicated_campaigns,
    )

    jobs = poisson_stream(
        args.n,
        args.mean_interarrival,
        m_inf=args.m_inf,
        m_sup=args.m_sup,
        checkpoint_unit_cost=args.checkpoint_unit_cost,
        seed=args.seed,
    )
    cluster = Cluster.with_mtbf_years(args.p, args.mtbf_years, args.downtime)
    kwargs = {}
    if args.batch_size is not None:
        kwargs = {"batch_policy": "fixed", "batch_size": args.batch_size}
    if args.replicates > 1:
        with _make_executor(args) as executor:
            outcomes = run_replicated_campaigns(
                jobs,
                cluster,
                args.policy,
                replicates=args.replicates,
                seed=args.seed,
                executor=executor,
                **kwargs,
            )
        for replicate, outcome in enumerate(outcomes):
            print(f"replicate {replicate}: {outcome.summary()}")
        import numpy as np

        makespans = np.array([outcome.makespan for outcome in outcomes])
        print(
            f"campaign makespan over {args.replicates} fault draws: "
            f"mean={makespans.mean():.6g}s min={makespans.min():.6g}s "
            f"max={makespans.max():.6g}s"
        )
        _report_engine(args, executor)
        return 0
    if args.engine is not None or args.workers > 1 or args.verbose:
        print(
            "note: --engine/--workers/--verbose fan out (and report on) "
            "replicated campaigns; a single campaign (--replicates 1) "
            "runs sequentially",
            file=sys.stderr,
        )
    outcome = OnlineBatchScheduler(
        jobs, cluster, args.policy, seed=args.seed, **kwargs
    ).run()
    print(outcome.summary())
    for run in outcome.batches:
        ids = ",".join(f"J{j}" for j in run.job_ids)
        print(
            f"  batch {run.position}: start={run.start:.6g}s "
            f"makespan={run.result.makespan:.6g}s jobs=[{ids}]"
        )
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    from .resilience import ExpectedTimeModel
    from .validation import (
        check_envelope_assumptions,
        check_fault_free_projection,
        validate_expected_time,
    )

    pack, cluster = _build_workload(args)
    print(check_fault_free_projection(pack, cluster, seed=args.seed).describe())
    print(check_envelope_assumptions(pack, cluster).describe())
    model = ExpectedTimeModel(pack, cluster)
    engine_requested = args.engine is not None or args.workers > 1
    executor = _make_executor(args) if engine_requested else None
    if executor is None and args.verbose:
        print(
            "note: --verbose engine statistics apply to engine-driven "
            "sampling; add --engine or --workers",
            file=sys.stderr,
        )
    failed = 0
    try:
        for i in range(min(args.n, 3)):
            j = min(4, 2 * (cluster.processors // (2 * args.n)) * 2) or 2
            report = validate_expected_time(
                model,
                i,
                max(2, j),
                samples=args.samples,
                seed=args.seed,
                executor=executor,
            )
            print(f"Eq.(4) task {i}: {report.describe()}")
            failed += not report.passed
        if executor is not None:
            _report_engine(args, executor)
    finally:
        if executor is not None:
            executor.close()
    return 1 if failed else 0


def _cmd_ratios(args: argparse.Namespace) -> int:
    from .theory.online import competitive_report

    pack, cluster = _build_workload(args)
    results = [
        simulate(pack, cluster, name, seed=args.seed)
        for name in ("no-redistribution", "ig-eg", "ig-el", "stf-eg", "stf-el")
    ]
    report = competitive_report(pack, cluster, results)
    print(report.render())
    print(f"\nbest policy: {report.best_policy()}")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    from .experiments import ScenarioConfig, compare_policies

    config = ScenarioConfig(
        n=args.n,
        p=args.p,
        m_inf=args.m_inf,
        m_sup=args.m_sup,
        checkpoint_unit_cost=args.checkpoint_unit_cost,
        mtbf_years=args.mtbf_years,
        downtime=args.downtime,
        replicates=args.replicates,
    )
    with _make_executor(args) as executor:
        outcome = compare_policies(
            config,
            policies=args.policies,
            faults=not args.fault_free,
            seed=args.seed,
            executor=executor,
        )
    print(outcome.render())
    print(f"\nbest policy: {outcome.best_policy()}")
    _report_engine(args, executor, profiles=True)
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point (returns the process exit code)."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _dispatch(parser, args)
    except BrokenPipeError:
        # stdout was closed early (e.g. `repro-cosched figures | head`);
        # suppress the traceback and exit like a well-behaved filter
        import os

        try:
            sys.stdout.close()
        except BrokenPipeError:
            pass
        os._exit(0)


def _dispatch(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    if args.command == "figures":
        return _cmd_figures()
    if args.command == "policies":
        return _cmd_policies()
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "simulate":
        return _cmd_simulate(args)
    if args.command == "pack":
        return _cmd_pack(args)
    if args.command == "batch":
        return _cmd_batch(args)
    if args.command == "validate":
        return _cmd_validate(args)
    if args.command == "ratios":
        return _cmd_ratios(args)
    if args.command == "serve":
        from .service.server import run_service

        return run_service(args)
    if args.command == "compare":
        return _cmd_compare(args)
    parser.error(f"unknown command {args.command!r}")  # pragma: no cover
    return 2  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
