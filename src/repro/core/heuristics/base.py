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

The decision kernels (:mod:`repro.core.kernels`) hold these values in
one delta-patched matrix per decision point; the seed-literal scalar
helpers they are pinned against live in :mod:`repro.oracle`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import List, Optional, Sequence

from ...resilience.expected_time import ExpectedTimeModel
from ..kernels import DecisionCache, faulty_stall
from ..redistribution import redistribution_cost
from ..state import TaskRuntime

__all__ = [
    "CompletionHeuristic",
    "FailureHeuristic",
    "apply_move",
    "faulty_stall",
]


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
        cache: Optional[DecisionCache] = None,
    ) -> List[int]:
        """Redistribute ``free`` processors among ``tasks`` at time ``t``.

        Mutates the runtimes in place and returns the indices of the tasks
        whose allocation changed (the simulator re-projects those).
        ``cache`` supplies the run's persistent
        :class:`~repro.core.kernels.DecisionCache` (without one a
        one-shot cache is built).
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
        cache: Optional[DecisionCache] = None,
    ) -> List[int]:
        """Rebalance around faulty task ``faulty`` at time ``t``.

        ``tasks`` contains the active, non-busy tasks *including* the
        faulty one, whose ``alpha``/``t_last``/``t_expected`` have already
        been rolled back by the simulator skeleton (Alg. 2 lines 23-26).
        Returns the indices of tasks whose allocation changed.
        ``cache`` is as for :meth:`CompletionHeuristic.apply`.
        """

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


