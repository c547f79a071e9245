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
)
from .faults import FaultInjector, NullFaultInjector

__all__ = [
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
    "FaultInjector",
    "NullFaultInjector",
]
