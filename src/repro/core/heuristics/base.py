"""Shared infrastructure for the redistribution heuristics (Section 5).

Every heuristic scores *candidate* allocations for a task ``T_i`` that
currently holds ``j_init`` processors.  Moving it to ``k`` processors at
time ``t`` gives the expected finish (Sections 3.3.1-3.3.2)

.. math::

    t_E(k) = t + \\text{stall} + RC_i^{j_{init} \\to k} + C_{i,k}
             + t^R_{i,k}(\\alpha^t_i),

where ``stall = D + R`` for the task struck by the failure (per the
Section 3.3.2 text — see DESIGN.md interpretation 2) and 0 otherwise, and
``alpha^t_i`` is the remaining work at the decision time.  A move is taken
only when ``t_E(k) < tU_i``, i.e. when the redistribution pays for itself.

The scoring is vectorised over all candidate ``k`` at once: the scan
loops of Algorithms 3-5 ("q := 2; while q <= k ...") stop at the first
improving candidate, which is exactly ``targets[mask.argmax()]`` on the
boolean improvement mask.

These helpers are the *scalar* decision kernel — the per-probe
reference that ``reference=True`` runs.  The default path
(:mod:`repro.core.kernels`) keeps the same values in one delta-patched
matrix per decision point; the two agree bit for bit by construction.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import List, Optional, Sequence

import numpy as np

from ...exceptions import CapacityError, SimulationError
from ...resilience.expected_time import ExpectedTimeModel
from ..kernels import DecisionCache, faulty_stall
from ..progress import remaining_after_elapsed
from ..redistribution import redistribution_cost, redistribution_cost_vector
from ..state import TaskRuntime

__all__ = [
    "CompletionHeuristic",
    "FailureHeuristic",
    "remaining_at",
    "candidate_finish_times",
    "candidate_finish_time",
    "apply_move",
    "faulty_stall",
]


def remaining_at(
    model: ExpectedTimeModel, rt: TaskRuntime, t: float
) -> float:
    """``alpha^t_i``: remaining work of ``rt`` at decision time ``t``.

    Algorithm 3 line 8 / Algorithm 4-5 line 4: subtract the useful work
    performed since ``tlastR_i`` (elapsed time minus checkpoints).
    """
    return remaining_after_elapsed(
        model, rt.index, rt.sigma, rt.alpha, t, rt.t_last
    )


def candidate_finish_times(
    model: ExpectedTimeModel,
    i: int,
    j_init: int,
    alpha_t: float,
    t: float,
    stall: float,
    targets: np.ndarray,
) -> np.ndarray:
    """``t_E(k)`` for every even candidate count in ``targets``.

    One batched profile lookup scores the whole candidate set; the scan
    loops of Algorithms 3-5 never touch a scalar accessor.  The slot
    arithmetic is inlined (``targets`` are even counts >= 2 by
    construction here, so only the grid bound needs checking) — external
    callers wanting full validation should use
    :meth:`~repro.resilience.expected_time.ExpectedTimeModel.
    expected_times` instead.
    """
    if targets.size == 0:
        return np.empty(0)
    grid = model.grid(i)
    slots = (targets >> 1) - 1
    if int(slots.max()) >= grid.j.size:
        raise SimulationError(
            f"candidate count {int(targets.max())} exceeds the platform grid"
        )
    rc = model.rc_factor * redistribution_cost_vector(
        model.pack[i].size, j_init, targets
    )
    profile = model.profile(i, alpha_t)
    return t + stall + rc + (grid.cost[slots] + profile[slots])


def candidate_finish_time(
    model: ExpectedTimeModel,
    i: int,
    j_init: int,
    alpha_t: float,
    t: float,
    stall: float,
    k: int,
) -> float:
    """Scalar ``t_E(k)`` (used when committing a chosen move).

    The arithmetic mirrors :func:`candidate_finish_times` operation for
    operation so scalar and batched scores agree bit for bit (including
    raising :class:`SimulationError` for an out-of-grid ``k``).
    """
    grid = model.grid(i)
    try:
        slot = grid.slot(k)
    except CapacityError:
        raise SimulationError(
            f"candidate count {int(k)} exceeds the platform grid"
        ) from None
    rc = model.rc_factor * redistribution_cost(
        model.pack[i].size, j_init, k
    )
    profile = model.profile(i, alpha_t)
    finish = float(grid.cost[slot] + profile[slot])
    return t + stall + rc + finish


def apply_move(
    model: ExpectedTimeModel,
    rt: TaskRuntime,
    t: float,
    stall: float,
    j_init: int,
    new_sigma: int,
    alpha_t: float,
    cache: Optional["DecisionCache"] = None,
) -> None:
    """Commit a redistribution on ``rt`` (Alg. 3 lines 24-31 and peers).

    Sets ``alpha`` to the remaining work at the decision time, restarts
    the periodic pattern at ``t + stall + RC + C_{i,new}`` (the
    redistribution always ends with a fresh checkpoint, Section 3.3.2),
    and refreshes the expected finish.  When the committing heuristic
    holds a :class:`~repro.core.kernels.DecisionCache`, the expected
    finish is read off the cache's envelope state
    (:meth:`~repro.core.kernels.DecisionCache.envelope_value` —
    bit-identical, no envelope-store round trip).
    """
    i = rt.index
    rc = model.rc_factor * redistribution_cost(
        model.pack[i].size, j_init, new_sigma
    )
    rt.assign(new_sigma)
    rt.alpha = alpha_t
    rt.t_last = t + stall + rc + model.checkpoint_cost(i, new_sigma)
    if cache is not None:
        rt.t_expected = rt.t_last + cache.envelope_value(
            i, alpha_t, new_sigma
        )
    else:
        rt.t_expected = rt.t_last + model.expected_time(i, new_sigma, alpha_t)
    rt.redistributions += 1


class CompletionHeuristic(ABC):
    """Redistributes processors released by a finished task (Section 5.2)."""

    name: str = "abstract"

    @abstractmethod
    def apply(
        self,
        model: ExpectedTimeModel,
        t: float,
        tasks: Sequence[TaskRuntime],
        free: int,
        reference: bool = False,
        cache: Optional[DecisionCache] = None,
    ) -> List[int]:
        """Redistribute ``free`` processors among ``tasks`` at time ``t``.

        Mutates the runtimes in place and returns the indices of the tasks
        whose allocation changed (the simulator re-projects those).
        ``reference`` runs the scalar per-probe kernel instead of the
        decision matrix — both produce bit-identical decisions.
        ``cache`` supplies the run's persistent
        :class:`~repro.core.kernels.DecisionCache` (without one the fast
        path builds a one-shot cache; the reference path ignores it).
        """

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


class FailureHeuristic(ABC):
    """Rebalances after a failure struck the longest task (Section 5.3)."""

    name: str = "abstract"

    @abstractmethod
    def apply(
        self,
        model: ExpectedTimeModel,
        t: float,
        tasks: Sequence[TaskRuntime],
        free: int,
        faulty: int,
        reference: bool = False,
        cache: Optional[DecisionCache] = None,
    ) -> List[int]:
        """Rebalance around faulty task ``faulty`` at time ``t``.

        ``tasks`` contains the active, non-busy tasks *including* the
        faulty one, whose ``alpha``/``t_last``/``t_expected`` have already
        been rolled back by the simulator skeleton (Alg. 2 lines 23-26).
        Returns the indices of tasks whose allocation changed.
        ``reference`` and ``cache`` are as for
        :meth:`CompletionHeuristic.apply`.
        """

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


