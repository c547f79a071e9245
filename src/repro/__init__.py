"""repro — Resilient application co-scheduling with processor redistribution.

A full Python reproduction of Benoit, Pottier and Robert, *"Resilient
application co-scheduling with processor redistribution"* (ICPP 2016;
Inria research report RR-8795): the malleable-task/fault/checkpoint model,
the optimal no-redistribution algorithm, the four redistribution
heuristics, the NP-completeness reduction, the fault-injection
discrete-event simulator, and a harness regenerating every figure of the
evaluation section.

Quickstart::

    from repro import Cluster, simulate, uniform_pack

    pack = uniform_pack(10, m_inf=15_000, m_sup=25_000, seed=1)
    cluster = Cluster.with_mtbf_years(processors=64, mtbf_years=2.0)
    result = simulate(pack, cluster, "ig-el", seed=1)
    print(result.summary())

See ``examples/`` for richer scenarios and ``repro.experiments`` for the
paper's figures.

``import repro`` loads only :mod:`repro.exceptions` (no numpy): every
other name above resolves on first access from the submodule that
defines it, so a process pays only for the layers it runs (see "Import
layering" in ``docs/ARCHITECTURE.md``).
"""

from __future__ import annotations

__version__ = "1.0.0"

from ._lazy import lazy_exports
from .exceptions import (
    CapacityError,
    ConfigurationError,
    ReproError,
    SimulationError,
)

__all__ = [
    "__version__",
    "Cluster",
    "ProcessorMap",
    "POLICIES",
    "EndGreedy",
    "EndLocal",
    "IteratedGreedy",
    "Policy",
    "ShortestTasksFirst",
    "TaskRuntime",
    "get_policy",
    "optimal_schedule",
    "redistribution_cost",
    "redistribution_rounds",
    "CapacityError",
    "ConfigurationError",
    "ReproError",
    "SimulationError",
    "FIGURES",
    "ScenarioConfig",
    "list_figures",
    "run_figure",
    "run_scenario",
    "RunRequest",
    "SerialExecutor",
    "PersistentPoolExecutor",
    "create_executor",
    "run_replicated_campaigns",
    "ExpectedTimeModel",
    "ExponentialFaults",
    "FaultInjector",
    "MultiPackScheduler",
    "OnlineBatchScheduler",
    "PackCostOracle",
    "Partition",
    "poisson_stream",
    "ResilienceModel",
    "YoungStrategy",
    "competitive_report",
    "fault_free_lower_bound",
    "validate_expected_time",
    "SimulationResult",
    "Simulator",
    "simulate",
    "Pack",
    "PaperSyntheticProfile",
    "SpeedupProfile",
    "TaskSpec",
    "WorkloadGenerator",
    "homogeneous_pack",
    "uniform_pack",
]

#: Every other public name, by the submodule that defines it.
__getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "Cluster": "cluster",
        "ProcessorMap": "cluster",
        "POLICIES": "core",
        "EndGreedy": "core",
        "EndLocal": "core",
        "IteratedGreedy": "core",
        "Policy": "core",
        "ShortestTasksFirst": "core",
        "TaskRuntime": "core",
        "get_policy": "core",
        "optimal_schedule": "core",
        "redistribution_cost": "core",
        "redistribution_rounds": "core",
        "FIGURES": "experiments",
        "ScenarioConfig": "experiments",
        "list_figures": "experiments",
        "run_figure": "experiments",
        "run_scenario": "experiments",
        "RunRequest": "engine",
        "SerialExecutor": "engine",
        "PersistentPoolExecutor": "engine",
        "create_executor": "engine",
        "run_replicated_campaigns": "batch",
        "OnlineBatchScheduler": "batch",
        "poisson_stream": "batch",
        "ExpectedTimeModel": "resilience",
        "ExponentialFaults": "resilience",
        "FaultInjector": "resilience",
        "ResilienceModel": "resilience",
        "YoungStrategy": "resilience",
        "MultiPackScheduler": "packing",
        "PackCostOracle": "packing",
        "Partition": "packing",
        "competitive_report": "theory.online",
        "fault_free_lower_bound": "theory.online",
        "validate_expected_time": "validation",
        "SimulationResult": "simulation",
        "Simulator": "simulation",
        "simulate": "simulation",
        "Pack": "tasks",
        "PaperSyntheticProfile": "tasks",
        "SpeedupProfile": "tasks",
        "TaskSpec": "tasks",
        "WorkloadGenerator": "tasks",
        "homogeneous_pack": "tasks",
        "uniform_pack": "tasks",
    },
)
