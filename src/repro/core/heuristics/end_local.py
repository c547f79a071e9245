"""``EndLocal`` — Algorithm 3 (Section 5.2).

When a task terminates and releases processors, greedily hand them out in
buddy pairs to the task with the largest expected finish time, as long as
the move pays for its redistribution cost.  Decisions are purely local: a
task found non-improvable is dropped from consideration and its processors
are never reclaimed.

On the default path (:mod:`repro.core.kernels`) the greedy loop only
slices the decision matrix (rows are patched on first touch — a
completion may consult just a few tasks).  The per-pop scalar body it
is pinned against is :class:`repro.oracle.ReferenceEndLocal`.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Sequence

from ...resilience.expected_time import ExpectedTimeModel
from ..kernels import DecisionCache
from ..state import TaskRuntime
from .base import CompletionHeuristic, apply_move

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
        cache: Optional[DecisionCache] = None,
    ) -> List[int]:
        if free < 2 or not tasks:
            return []
        if cache is None:
            cache = DecisionCache(model)
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
            if finishes.size and bool((finishes < rt.t_expected).any()):
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
