"""Replicated scenario execution and normalisation (Section 6.2).

The paper's protocol: run each heuristic ``x = 50`` times, average the
makespans, and normalise by the makespan in a fault context without
redistribution (the expected worst case).  Replicates are *paired*: for a
given replicate index every series sees the same workload draw and the
same per-processor failure times (common random numbers), which is what
makes per-point comparisons meaningful at modest replicate counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.policy import get_policy
from ..engine import Executor, RunRequest, ensure_executor
from ..engine.cache import shared_cache
from ..exceptions import ConfigurationError
from ..resilience.expected_time import ExpectedTimeModel
from ..rng import derive_seed
from ..simulation import SimulationResult, Simulator
from ..tasks import Pack
from .config import ScenarioConfig

__all__ = [
    "Series",
    "ScenarioResult",
    "run_scenario",
    "scenario_requests",
    "FAULT_SERIES",
    "FAULT_FREE_SERIES",
]


@dataclass(frozen=True)
class Series:
    """One curve of a figure: a policy in a fault or fault-free context."""

    key: str
    label: str
    policy: str
    faults: bool = True

    def __post_init__(self) -> None:
        if not self.key:
            raise ConfigurationError("series key must be non-empty")


#: The six curves of Figs. 7, 8, 10-14.
FAULT_SERIES: tuple[Series, ...] = (
    Series("no-rc", "Fault context without RC", "no-redistribution", True),
    Series("ig-eg", "IteratedGreedy-EndGreedy", "ig-eg", True),
    Series("ig-el", "IteratedGreedy-EndLocal", "ig-el", True),
    Series("stf-eg", "ShortestTasksFirst-EndGreedy", "stf-eg", True),
    Series("stf-el", "ShortestTasksFirst-EndLocal", "stf-el", True),
    Series("ff-rc", "Fault-free context with RC (local)", "end-local", False),
)

#: The three curves of Figs. 5 and 6 (fault-free study).
FAULT_FREE_SERIES: tuple[Series, ...] = (
    Series("no-rc", "Without RC", "no-redistribution", False),
    Series("rc-greedy", "With RC (greedy)", "end-greedy", False),
    Series("rc-local", "With RC (local decisions)", "end-local", False),
)


@dataclass
class ScenarioResult:
    """All replicate makespans of one scenario, per series."""

    config: ScenarioConfig
    makespans: Dict[str, np.ndarray]
    results: Dict[str, List[SimulationResult]] = field(default_factory=dict)
    baseline_key: str = "no-rc"

    def mean(self, key: str) -> float:
        """Mean makespan of a series (seconds)."""
        return float(self.makespans[key].mean())

    def normalized(self, key: str) -> float:
        """Mean makespan divided by the baseline's mean makespan."""
        return self.mean(key) / self.mean(self.baseline_key)

    def normalized_row(self) -> Dict[str, float]:
        """Normalised value for every series."""
        return {key: self.normalized(key) for key in self.makespans}


def _replicate_seed(base_seed: int, replicate: int) -> int:
    """Stable derived seed for one replicate."""
    return derive_seed(base_seed, "replicate", replicate)


def _validate_series(series: Sequence[Series], baseline_key: str) -> List[str]:
    """Check key uniqueness and baseline membership; return the keys."""
    keys = [s.key for s in series]
    if len(set(keys)) != len(keys):
        raise ConfigurationError(f"duplicate series keys: {keys}")
    if baseline_key not in keys:
        raise ConfigurationError(
            f"baseline series {baseline_key!r} missing from {keys}"
        )
    return keys


def _replicate_workload(
    config: ScenarioConfig, rep_seed: int
) -> Tuple[Pack, ExpectedTimeModel]:
    """Memoised ``(pack, model)`` for one replicate draw.

    The draw is a pure function of ``(config, rep_seed)`` and the
    model's envelope store is history-independent, so sharing a cached
    workload across identical requests (the same scenario at several
    sweep points, repeated figures of one campaign) cannot change any
    result — see the determinism contract in :mod:`repro.engine`.
    """

    def build() -> Tuple[Pack, ExpectedTimeModel]:
        cluster = config.build_cluster()
        pack = config.build_pack(rep_seed)
        return pack, ExpectedTimeModel(pack, cluster)

    return shared_cache.get_or_build((config, rep_seed), build)


def _run_replicate(
    config: ScenarioConfig,
    series: Tuple[Series, ...],
    keep_results: bool,
    simulator_options: Optional[Dict[str, Any]] = None,
    *,
    seed: int,
) -> Tuple[Dict[str, float], Dict[str, SimulationResult]]:
    """Engine runner: one paired replicate — every series on one draw.

    One pack is drawn and one :class:`ExpectedTimeModel` built per
    replicate, then shared by all series (its envelope store is keyed
    by ``(task, quantised alpha)``, which is safe across policies).
    Fault times depend only on the replicate seed, not on the policy,
    so the series share every event up to the first one whose
    heuristic differs between their policies: :func:`_series_tree`
    simulates that prefix once.  ``simulator_options`` are extra
    :class:`Simulator` keywords (``{"reference": True}`` — the
    reference leg, bit-identical by contract); with any option set,
    every series runs on its own from ``start()``, which is what the
    tree is pinned against.
    """
    pack, model = _replicate_workload(config, seed)
    if simulator_options:
        results = {
            spec.key: Simulator(
                pack,
                model.cluster,
                spec.policy,
                seed=seed,
                inject_faults=spec.faults,
                model=model,
                **simulator_options,
            ).run()
            for spec in series
        }
    else:
        results = _series_tree(pack, model, series, seed)
    makespans = {key: result.makespan for key, result in results.items()}
    return makespans, results if keep_results else {}


def _series_tree(
    pack: Pack,
    model: ExpectedTimeModel,
    series: Tuple[Series, ...],
    seed: int,
) -> Dict[str, SimulationResult]:
    """Every series of one replicate, sharing their common prefixes.

    One simulator starts for the replicate; the fault-free series fork
    off it right away with a null injector.  A simulator shared by a
    group of series steps while the next event invokes the same
    heuristic (or none) under each of their policies
    (:meth:`Simulator.next_decision`).  Where the group splits it
    forks one simulator per extra sub-group and carries on with the
    first.  The tree runs depth-first off an explicit stack, and a
    simulator is dropped once its leaf result is taken.  Each series'
    result comes from one ``run()`` of its leaf simulator, which
    finishes the run from the fork point; it equals an independent
    ``Simulator(...).run()`` bit for bit.
    """
    policies = {spec.key: get_policy(spec.policy) for spec in series}
    faulty = [spec.key for spec in series if spec.faults]
    fault_free = [spec.key for spec in series if not spec.faults]
    first = faulty or fault_free
    root = Simulator(
        pack,
        model.cluster,
        policies[first[0]],
        seed=seed,
        inject_faults=bool(faulty),
        model=model,
    )
    root.start()
    # (simulator, keys of the series whose state it holds); the
    # simulator runs the first key's policy.
    pending: List[Tuple[Simulator, List[str]]] = [(root, first)]
    if faulty and fault_free:
        pending.append(
            (root.fork(policies[fault_free[0]], inject_faults=False),
             fault_free)
        )
    del root  # the stack holds the only references: leaves are freed
    results: Dict[str, SimulationResult] = {}
    while pending:
        sim, keys = pending.pop()
        while len(keys) > 1:
            if sim.tasks_remaining == 0:
                split = [[key] for key in keys]
            else:
                kind = sim.next_decision()
                groups: Dict[Optional[str], List[str]] = {}
                for key in keys:
                    heuristic = getattr(policies[key], kind) if kind else None
                    name = getattr(heuristic, "name", None)
                    groups.setdefault(name, []).append(key)
                if len(groups) == 1:
                    sim.step()
                    continue
                split = list(groups.values())
            for sub in split[1:]:
                pending.append((sim.fork(policies[sub[0]]), sub))
            keys = split[0]
            sim.policy = policies[keys[0]]
        results[keys[0]] = sim.run()
    return {spec.key: results[spec.key] for spec in series}


def scenario_requests(
    config: ScenarioConfig,
    series: Sequence[Series],
    *,
    seed: int = 0,
    keep_results: bool = False,
    simulator_options: Optional[Dict[str, Any]] = None,
) -> List[RunRequest]:
    """The engine requests of one scenario: one per paired replicate."""
    series = tuple(series)
    return [
        RunRequest(
            fn=_run_replicate,
            payload=(config, series, keep_results, simulator_options),
            seed=_replicate_seed(seed, replicate),
            tag=replicate,
        )
        for replicate in range(config.replicates)
    ]


def run_scenario(
    config: ScenarioConfig,
    series: Sequence[Series] = FAULT_SERIES,
    *,
    seed: int = 0,
    baseline_key: str = "no-rc",
    keep_results: bool = False,
    workers: Optional[int] = None,
    chunk_size: Optional[int] = None,
    engine: Optional[str] = None,
    executor: Optional[Executor] = None,
    journal: Optional[Any] = None,
    simulator_options: Optional[Dict[str, Any]] = None,
    progress: Optional[Callable[[int, int], None]] = None,
) -> ScenarioResult:
    """Run every series of a scenario over paired replicates.

    Execution goes through the unified engine (:mod:`repro.engine`):
    each replicate becomes one :class:`~repro.engine.RunRequest` and
    the chosen executor maps them.  ``executor`` submits to a
    caller-owned executor (left open for further dispatches, e.g. the
    next sweep point); otherwise ``engine`` — or, failing that,
    ``workers`` — picks one: serial by default, the persistent process
    pool when ``workers`` > 1.  The per-replicate seed derivation, replicate
    pairing and baseline normalisation are preserved exactly under
    every engine, so the returned makespan arrays are byte-identical
    to a serial run.  ``chunk_size`` bounds how many contiguous
    replicates one worker dispatch carries (default: ~4 chunks per
    worker).

    ``simulator_options`` forwards extra :class:`Simulator` keywords
    (``{"reference": True}``) to every replicate's
    :class:`~repro.simulation.Simulator`.  ``progress`` switches the
    dispatch to :meth:`~repro.engine.Executor.map_stream` and is called
    as ``progress(done, total)`` after each completed chunk — the
    reassembled results stay byte-identical to a plain ``map``.

    ``journal`` (a :class:`~repro.engine.ResultJournal` or directory
    path) makes the run crash-resumable: chunks a previous campaign
    already finished are served from the journal instead of
    recomputed.  It only applies when this call creates the executor —
    a caller-owned ``executor`` carries its own journal.
    """
    keys = _validate_series(series, baseline_key)
    requests = scenario_requests(
        config,
        series,
        seed=seed,
        keep_results=keep_results,
        simulator_options=simulator_options,
    )
    with ensure_executor(
        executor,
        engine=engine,
        workers=workers,
        chunk_size=chunk_size,
        journal=journal,
    ) as active:
        if progress is None:
            outputs = active.map(requests)
        else:
            outputs: List[Any] = [None] * len(requests)
            done = 0
            for start, chunk_results in active.map_stream(requests):
                outputs[start:start + len(chunk_results)] = chunk_results
                done += len(chunk_results)
                progress(done, len(requests))

    makespans: Dict[str, List[float]] = {key: [] for key in keys}
    kept: Dict[str, List[SimulationResult]] = {key: [] for key in keys}
    for rep_makespans, rep_results in outputs:
        for key, value in rep_makespans.items():
            makespans[key].append(value)
        if keep_results:
            for key, value in rep_results.items():
                kept[key].append(value)

    return ScenarioResult(
        config=config,
        makespans={key: np.asarray(values) for key, values in makespans.items()},
        results=kept if keep_results else {},
        baseline_key=baseline_key,
    )
