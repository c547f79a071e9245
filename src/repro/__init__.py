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
"""

from __future__ import annotations

__version__ = "1.0.0"

from .cluster import Cluster, ProcessorMap
from .core import (
    POLICIES,
    EndGreedy,
    EndLocal,
    IteratedGreedy,
    Policy,
    ShortestTasksFirst,
    TaskRuntime,
    get_policy,
    optimal_schedule,
    redistribution_cost,
    redistribution_rounds,
)
from .exceptions import (
    CapacityError,
    ConfigurationError,
    ReproError,
    SimulationError,
)
from .engine import (
    PersistentPoolExecutor,
    RunRequest,
    SerialExecutor,
    create_executor,
)
from .experiments import (
    FIGURES,
    ScenarioConfig,
    list_figures,
    run_figure,
    run_scenario,
)
from .batch import OnlineBatchScheduler, poisson_stream, run_replicated_campaigns
from .packing import (
    MultiPackScheduler,
    PackCostOracle,
    Partition,
)
from .resilience import (
    ExpectedTimeModel,
    ExponentialFaults,
    FaultInjector,
    ReplicatedExpectedTimeModel,
    ResilienceModel,
    SilentErrorConfig,
    SilentErrorModel,
    YoungStrategy,
)
from .simulation import SimulationResult, Simulator, simulate
from .theory.online import competitive_report, fault_free_lower_bound
from .validation import validate_expected_time
from .tasks import (
    Pack,
    PaperSyntheticProfile,
    SpeedupProfile,
    TaskSpec,
    WorkloadGenerator,
    homogeneous_pack,
    uniform_pack,
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
    "ReplicatedExpectedTimeModel",
    "ResilienceModel",
    "SilentErrorConfig",
    "SilentErrorModel",
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
