"""``ShortestTasksFirst`` — Algorithm 4 (Section 5.3).

Local failure-time rebalancing in two phases:

1. hand any *free* processors to the faulty task while that improves its
   expected finish (first-improving increment ``q_max`` per scan);
2. *steal* buddy pairs from the shortest running tasks (those holding at
   least 4 processors) — a donor gives a pair only if both the faulty
   task improves **and** the donor's new finish stays below the faulty
   task's expected finish, i.e. the donor never becomes the bottleneck.

Deviations from the pseudocode, per DESIGN.md (interpretations 2 and 5):
the faulty task's candidates include its ``D + R`` stall (the Section
3.3.2 text), and the phase-1 loop breaks when no improvement is found
(the literal ``while k >= 2`` would never terminate).  Phase 2 runs even
when phase 1 allocated nothing, matching the prose ("Then, if the faulty
task is still improvable ...").

Both phases scan slices of the decision matrix
(:mod:`repro.core.kernels`).  The per-scan scalar body they are pinned
against is :class:`repro.oracle.ReferenceShortestTasksFirst`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from ...resilience.expected_time import ExpectedTimeModel
from ..kernels import DecisionCache
from ..state import TaskArrays, TaskRuntime
from .base import FailureHeuristic, apply_move

__all__ = ["ShortestTasksFirst"]


class ShortestTasksFirst(FailureHeuristic):
    """Give the faulty task free processors, then steal from short tasks."""

    name = "shortest-tasks-first"

    def apply(
        self,
        model: ExpectedTimeModel,
        t: float,
        tasks: Sequence[TaskRuntime],
        free: int,
        faulty: int,
        cache: Optional[DecisionCache] = None,
    ) -> List[int]:
        if cache is None:
            cache = DecisionCache(model, TaskArrays.gather(model, tasks))
        by_index: Dict[int, TaskRuntime] = {rt.index: rt for rt in tasks}
        rt_f = by_index[faulty]
        # Algorithm 4 only ever consults the faulty task and a few
        # donors: patch rows on first touch.
        dm = cache.matrix(t, tasks, faulty=faulty, lazy=True)
        j_max = int(model.j_grid[-1])

        # ---- Phase 1: absorb free processors (Alg. 4 lines 12-25) --------
        k = free
        while k >= 2:
            top = min(rt_f.sigma + k, j_max)
            lo = rt_f.sigma + 2
            finishes = dm.finish_range(faulty, lo, top)
            if finishes.size == 0:
                break
            mask = finishes < rt_f.t_expected
            if not bool(mask.any()):
                break  # not improvable: stop consuming (DESIGN interp. 5)
            first = int(np.argmax(mask))
            q_max = lo + 2 * first - rt_f.sigma
            rt_f.sigma += q_max
            rt_f.t_expected = float(finishes[first])
            k -= q_max

        # ---- Phase 2: steal from the shortest tasks (lines 27-41) --------
        improvable = True
        while improvable:
            donors = [
                rt
                for rt in tasks
                if rt.index != faulty and rt.sigma >= 4
            ]
            if not donors or rt_f.sigma + 2 > j_max:
                break
            rt_s = min(donors, key=lambda rt: (rt.t_expected, rt.index))
            s = rt_s.index
            improvable = False
            # q = 2, 4, ..., rt_s.sigma - 2, clamped so the faulty task
            # stays on the grid — contiguous even targets either way.
            f_top = min(rt_f.sigma + (rt_s.sigma - 2), j_max)
            f_finishes = dm.finish_range(faulty, rt_f.sigma + 2, f_top)
            if f_finishes.size == 0:
                break
            # Donor targets mirror the q values downwards from sigma - 2.
            d_hi = rt_s.sigma - 2
            d_lo = rt_s.sigma - 2 * f_finishes.size
            s_finishes = dm.finish_range(s, d_lo, d_hi)[::-1]
            mask = (f_finishes < rt_f.t_expected) & (
                s_finishes < rt_f.t_expected
            )
            if bool(mask.any()):
                improvable = True
                # Move a single pair regardless of the probe (line 36).
                rt_f.sigma += 2
                rt_s.sigma -= 2
                rt_f.t_expected = dm.finish(faulty, rt_f.sigma)
                rt_s.t_expected = dm.finish(s, rt_s.sigma)
                if rt_s.t_expected > rt_f.t_expected:
                    improvable = False  # the donor became the bottleneck

        # ---- Commit (lines 43-48) -----------------------------------------
        changed: List[int] = []
        for i, rt in by_index.items():
            if rt.sigma != dm.init_of(i):
                apply_move(
                    model, rt, t, dm.stall_of(i), dm.init_of(i), rt.sigma,
                    dm.alpha_of(i), cache=cache,
                )
                changed.append(i)
        return changed
