"""Mutable per-task scheduling state.

One :class:`TaskRuntime` per task tracks the paper's bookkeeping triple —
the remaining work fraction ``alpha_i`` (measured at ``tlastR_i``), the
time ``tlastR_i`` when the current periodic pattern (re)started, and the
expected finish ``tU_i`` — plus the current allocation ``sigma(i)`` and
simulation counters.  :class:`TaskArrays` holds the same bookkeeping as
one flat ndarray per field, indexed by task: the vector store the
simulator's per-event scans and the decision kernels read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import attrgetter
from typing import Sequence

import numpy as np

from ..exceptions import CapacityError, SimulationError
from ..tasks import TaskSpec

__all__ = ["TaskRuntime", "TaskArrays"]


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


def _filled(n: int, value, dtype=float) -> np.ndarray:
    """``np.full(n, value)`` without its Python-level overhead (a store
    is built at every ``Simulator.start``, once per service epoch)."""
    out = np.empty(n, dtype=dtype)
    out.fill(value)
    return out


class TaskArrays:
    """The per-task bookkeeping of one run, one flat ndarray per field.

    ``sigma``/``alpha``/``t_last``/``t_expected`` copy the
    :class:`TaskRuntime` fields, ``t_ff``/``tau``/``cost`` the grid
    values at ``sigma``; :meth:`write` is their one write channel.
    Heuristics mutate only the runtimes, so mid-decision ``sigma`` still
    holds the allocation redistribution costs are charged from.
    ``finish`` holds the projected completions, ``done``/``released``
    flag completed and early-released tasks, ``live = ~done & ~released``.
    """

    __slots__ = (
        "sigma", "alpha", "t_last", "t_expected", "t_ff", "tau", "cost",
        "finish", "done", "released", "live",
    )

    def __init__(self, n: int):
        self.sigma = np.zeros(n, dtype=np.int64)
        self.alpha = _filled(n, 1.0)
        self.t_last = np.zeros(n)
        self.t_expected = _filled(n, math.inf)
        self.t_ff = np.empty(n)
        self.tau = np.empty(n)
        self.cost = np.empty(n)
        self.finish = _filled(n, math.inf)
        self.done = np.zeros(n, dtype=bool)
        self.released = np.zeros(n, dtype=bool)
        self.live = _filled(n, True, dtype=bool)

    @classmethod
    def gather(cls, model, runtimes: Sequence[TaskRuntime]) -> "TaskArrays":
        """The store of ``model``'s pack, rows of ``runtimes`` filled in.

        Tasks not listed keep the defaults; a completed task's grid
        values are meaningless (its ``sigma`` is 0).
        """
        arrays = cls(len(model.pack))
        idx = np.array([rt.index for rt in runtimes], dtype=np.int64)
        arrays.sigma[idx] = [rt.sigma for rt in runtimes]
        arrays.alpha[idx] = [rt.alpha for rt in runtimes]
        arrays.t_last[idx] = [rt.t_last for rt in runtimes]
        arrays.t_expected[idx] = [rt.t_expected for rt in runtimes]
        arrays.done[idx] = [rt.completed for rt in runtimes]
        np.logical_not(arrays.done, out=arrays.live)
        slots = (arrays.sigma[idx] >> 1) - 1
        # GRID_ROWS order: t_ff, cost, tau
        arrays.t_ff[idx], arrays.cost[idx], arrays.tau[idx] = (
            model._stacked_array()[:3, idx, slots]
        )
        return arrays

    def copy(self) -> "TaskArrays":
        """An independent copy (a simulator fork's store)."""
        twin = TaskArrays.__new__(TaskArrays)
        for name in self.__slots__:
            setattr(twin, name, getattr(self, name).copy())
        return twin

    def write(self, model, rt: TaskRuntime) -> None:
        """Copy ``rt``'s bookkeeping into its row (grid values on a move)."""
        i = rt.index
        sigma = rt.sigma
        if sigma != self.sigma[i]:
            grid = model.grid(i)
            slot = grid.slot(sigma)
            self.t_ff[i] = grid.t_ff[slot]
            self.tau[i] = grid.tau[slot]
            self.cost[i] = grid.cost[slot]
            self.sigma[i] = sigma
        self.alpha[i] = rt.alpha
        self.t_last[i] = rt.t_last
        self.t_expected[i] = rt.t_expected

    def check(self, runtimes: Sequence[TaskRuntime]) -> None:
        """Raise :class:`SimulationError` unless the store equals the
        runtimes: ``done`` their ``completed`` flags, ``live``
        ``~done & ~released``, and the Table 1 fields of live tasks."""
        done = np.array([rt.completed for rt in runtimes], dtype=bool)
        live = np.nonzero(self.live)[0].tolist()
        pairs = [("done", self.done, done),
                 ("live", self.live, ~done & ~self.released)]
        pairs += [
            (name, getattr(self, name)[live],
             [getattr(runtimes[i], name) for i in live])
            for name in ("sigma", "alpha", "t_last", "t_expected")
        ]
        for name, got, want in pairs:
            if not np.array_equal(got, want):
                raise SimulationError(f"task store: {name} != the runtimes'")
