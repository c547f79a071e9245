"""``EndLocal`` — Algorithm 3 (Section 5.2).

When a task terminates and releases processors, greedily hand them out in
buddy pairs to the task with the largest expected finish time, as long as
the move pays for its redistribution cost.  Decisions are purely local: a
task found non-improvable is dropped from consideration and its processors
are never reclaimed.

On the default path (:mod:`repro.core.kernels`) the greedy loop only
slices the decision matrix (rows are patched on first touch — a
completion may consult just a few tasks); ``reference=True`` keeps the
per-pop model calls as the bit-identical reference.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Sequence

import numpy as np

from ...resilience.expected_time import ExpectedTimeModel
from ..kernels import DecisionCache
from ..state import TaskRuntime
from .base import (
    CompletionHeuristic,
    apply_move,
    candidate_finish_time,
    candidate_finish_times,
    remaining_at,
)

__all__ = ["EndLocal"]


class EndLocal(CompletionHeuristic):
    """Local greedy redistribution of released processors (Algorithm 3)."""

    name = "end-local"

    def apply(
        self,
        model: ExpectedTimeModel,
        t: float,
        tasks: Sequence[TaskRuntime],
        free: int,
        reference: bool = False,
        cache: Optional[DecisionCache] = None,
    ) -> List[int]:
        if free < 2 or not tasks:
            return []
        if reference:
            return self._apply_scalar(model, t, tasks, free)
        if cache is None:
            cache = DecisionCache(model)
        return self._apply_array(model, t, tasks, free, cache)

    def _apply_array(
        self,
        model: ExpectedTimeModel,
        t: float,
        tasks: Sequence[TaskRuntime],
        free: int,
        cache: DecisionCache,
    ) -> List[int]:
        by_index: Dict[int, TaskRuntime] = {rt.index: rt for rt in tasks}
        dm = cache.matrix(t, tasks, lazy=True)

        # Max-heap on tU (Algorithm 3 keeps L sorted non-increasingly).
        heap = [(-rt.t_expected, rt.index) for rt in tasks]
        heapq.heapify(heap)

        k = free
        while k >= 2 and heap:
            _, i = heapq.heappop(heap)
            rt = by_index[i]
            finishes = dm.finish_range(i, rt.sigma + 2, rt.sigma + k)
            if finishes.size and bool(np.any(finishes < rt.t_expected)):
                # Improvable: grant exactly one pair (line 17) and re-rank.
                rt.sigma += 2
                rt.t_expected = dm.finish(i, rt.sigma)
                heapq.heappush(heap, (-rt.t_expected, i))
                k -= 2
            # Non-improvable tasks stay popped (dropped from L).

        changed: List[int] = []
        for i, rt in by_index.items():
            if rt.sigma != dm.init_of(i):
                new_sigma = rt.sigma
                rt.sigma = dm.init_of(i)  # apply_move re-assigns from scratch
                apply_move(
                    model, rt, t, 0.0, dm.init_of(i), new_sigma,
                    dm.alpha_of(i), cache=cache,
                )
                changed.append(i)
        return changed

    def _apply_scalar(
        self,
        model: ExpectedTimeModel,
        t: float,
        tasks: Sequence[TaskRuntime],
        free: int,
    ) -> List[int]:
        by_index: Dict[int, TaskRuntime] = {rt.index: rt for rt in tasks}
        sigma_init: Dict[int, int] = {rt.index: rt.sigma for rt in tasks}
        alpha_t: Dict[int, float] = {}

        # Max-heap on tU (Algorithm 3 keeps L sorted non-increasingly).
        heap = [(-rt.t_expected, rt.index) for rt in tasks]
        heapq.heapify(heap)

        k = free
        while k >= 2 and heap:
            _, i = heapq.heappop(heap)
            rt = by_index[i]
            j_init = sigma_init[i]
            if i not in alpha_t:
                # Line 8: work done since tlastR, measured at sigma_init.
                alpha_t[i] = remaining_at(model, rt, t)
            a_t = alpha_t[i]
            targets = np.arange(rt.sigma + 2, rt.sigma + k + 1, 2, dtype=int)
            finishes = candidate_finish_times(
                model, i, j_init, a_t, t, 0.0, targets
            )
            if finishes.size and bool(np.any(finishes < rt.t_expected)):
                # Improvable: grant exactly one pair (line 17) and re-rank.
                rt.sigma += 2
                rt.t_expected = candidate_finish_time(
                    model, i, j_init, a_t, t, 0.0, rt.sigma
                )
                heapq.heappush(heap, (-rt.t_expected, i))
                k -= 2
            # Non-improvable tasks stay popped (dropped from L).

        changed: List[int] = []
        for i, rt in by_index.items():
            if rt.sigma != sigma_init[i]:
                new_sigma = rt.sigma
                rt.sigma = sigma_init[i]  # apply_move re-assigns from scratch
                apply_move(
                    model, rt, t, 0.0, sigma_init[i], new_sigma, alpha_t[i]
                )
                changed.append(i)
        return changed
