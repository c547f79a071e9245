"""Resilience substrate: faults, checkpointing, expected completion times."""

from .checkpoint import (
    CheckpointStrategy,
    DalyStrategy,
    FixedPeriodStrategy,
    ResilienceModel,
    YoungStrategy,
)
from .distributions import (
    ExponentialFaults,
    FaultDistribution,
    LogNormalFaults,
    TraceFaults,
    WeibullFaults,
)
from .expected_time import (
    ExpectedTimeModel,
    TaskGrid,
    checkpoint_count,
    ensure_alpha_vector,
    last_period,
    stacked_raw_profiles,
)
from .faults import FaultInjector, NullFaultInjector
from .replication import (
    ReplicatedExpectedTimeModel,
    crossover_mtbf,
    mnfti,
    mnfti_asymptotic,
    mtti,
)
from .silent import (
    SilentErrorConfig,
    SilentErrorModel,
    simulate_silent_execution,
)

__all__ = [
    "ReplicatedExpectedTimeModel",
    "crossover_mtbf",
    "mnfti",
    "mnfti_asymptotic",
    "mtti",
    "SilentErrorConfig",
    "SilentErrorModel",
    "simulate_silent_execution",
    "CheckpointStrategy",
    "DalyStrategy",
    "FixedPeriodStrategy",
    "ResilienceModel",
    "YoungStrategy",
    "ExponentialFaults",
    "FaultDistribution",
    "LogNormalFaults",
    "TraceFaults",
    "WeibullFaults",
    "ExpectedTimeModel",
    "TaskGrid",
    "checkpoint_count",
    "ensure_alpha_vector",
    "last_period",
    "stacked_raw_profiles",
    "FaultInjector",
    "NullFaultInjector",
]
