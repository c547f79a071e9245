"""Mutable per-task scheduling state.

One :class:`TaskRuntime` per task tracks the paper's bookkeeping triple —
the remaining work fraction ``alpha_i`` (measured at ``tlastR_i``), the
time ``tlastR_i`` when the current periodic pattern (re)started, and the
expected finish ``tU_i`` — plus the current allocation ``sigma(i)`` and
simulation counters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import attrgetter

from ..exceptions import CapacityError, SimulationError
from ..tasks import TaskSpec

__all__ = ["TaskRuntime"]


@dataclass(slots=True)
class TaskRuntime:
    """Scheduling state of one task (see Table 1 of the paper).

    Attributes
    ----------
    spec:
        The immutable task description.
    sigma:
        Current processor count ``sigma(i)`` (even, >= 2 while running,
        0 once completed).
    alpha:
        Remaining work fraction **as of** ``t_last``; only updated at
        events that touch this task.
    t_last:
        ``tlastR_i`` — when the task last (re)started its periodic
        pattern (initially 0; after a failure ``t + D + R``; after a
        redistribution ``t + RC + C``).
    t_expected:
        ``tU_i`` — current expected finish time (drives heuristic order).
    """

    spec: TaskSpec
    sigma: int = 0
    alpha: float = 1.0
    t_last: float = 0.0
    t_expected: float = math.inf
    completed: bool = False
    completion_time: float = math.nan
    failures: int = 0
    redistributions: int = 0
    checkpoint_time: float = 0.0  #: cumulated checkpoint overhead (diagnostics)
    rework: float = 0.0  #: cumulated lost-work fractions (diagnostics)

    @property
    def index(self) -> int:
        """Pack index of the task."""
        return self.spec.index

    def copy(self) -> "TaskRuntime":
        """An independent copy sharing the immutable spec (~5x ``copy.copy``)."""
        return TaskRuntime(*_FIELDS(self))

    def assign(self, sigma: int) -> None:
        """Set the allocation, enforcing the even/minimum invariants."""
        if sigma != 0 and (sigma < 2 or sigma % 2 != 0):
            raise CapacityError(
                f"task {self.index}: allocation must be 0 or an even count >= 2,"
                f" got {sigma}"
            )
        self.sigma = sigma

    def mark_completed(self, t: float) -> None:
        """Finalise the task at time ``t``."""
        if self.completed:
            raise SimulationError(f"task {self.index} completed twice")
        self.completed = True
        self.completion_time = t
        self.alpha = 0.0
        self.sigma = 0

    def busy_at(self, t: float) -> bool:
        """True while the task is recovering/redistributing (Alg. 2 line 15)."""
        return t <= self.t_last and not self.completed

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        status = "done" if self.completed else f"sigma={self.sigma}"
        return (
            f"TaskRuntime(T{self.index + 1}, {status}, alpha={self.alpha:.3f},"
            f" tU={self.t_expected:.3g})"
        )


#: Every field of a :class:`TaskRuntime`, in constructor order.
_FIELDS = attrgetter(*TaskRuntime.__slots__)
