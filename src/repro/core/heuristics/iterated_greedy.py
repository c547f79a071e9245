"""``IteratedGreedy`` — Algorithm 5 (Section 5.3) and its task-end variant.

At each rebalancing point the whole schedule is rebuilt from scratch with
the greedy of Algorithm 1, but candidate finish times now charge the
redistribution cost from the task's *current* allocation ``sigma_init`` to
the candidate one — with a special case: if a task ends up exactly at
``sigma_init`` it simply keeps running, so no cost is charged and its
original bookkeeping (``alpha`` at ``tlastR``) is preserved (Algorithm 5,
lines 16 and 23).

``EndGreedy`` (Section 5.2) is the same rebuild triggered at task
terminations, without a faulty task.

The rebuild walks the delta-patched candidate finish matrix
(:mod:`repro.core.kernels`) by index; ``reference=True`` keeps the
per-probe model calls as the bit-identical reference.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Sequence

import numpy as np

from ...exceptions import CapacityError
from ...resilience.expected_time import ExpectedTimeModel
from ..kernels import DecisionCache
from ..state import TaskRuntime
from .base import (
    CompletionHeuristic,
    FailureHeuristic,
    apply_move,
    candidate_finish_time,
    candidate_finish_times,
    faulty_stall,
    remaining_at,
)

__all__ = ["IteratedGreedy", "EndGreedy", "greedy_rebuild"]


def greedy_rebuild(
    model: ExpectedTimeModel,
    t: float,
    tasks: Sequence[TaskRuntime],
    capacity: int,
    faulty: Optional[int] = None,
    reference: bool = False,
    cache: Optional[DecisionCache] = None,
) -> List[int]:
    """Rebuild the allocation of ``tasks`` over ``capacity`` processors.

    Core of Algorithm 5.  ``capacity`` counts every processor usable by
    the listed tasks (their current holdings plus the free pool).  The
    runtimes are mutated in place; returns the indices whose allocation
    changed.  The grant loop reads the run's delta-patched
    :class:`~repro.core.kernels.DecisionCache` (a one-shot cache when
    none is given); ``reference=True`` runs the scalar per-probe kernel
    instead — bit-identical decisions either way.
    """
    if not tasks:
        return []
    n = len(tasks)
    if capacity < 2 * n:
        raise CapacityError(
            f"greedy rebuild needs capacity >= 2n: capacity={capacity}, n={n}"
        )
    if reference:
        return _greedy_rebuild_scalar(model, t, tasks, capacity, faulty)
    if cache is None:
        cache = DecisionCache(model)
    return _greedy_rebuild_cached(model, t, tasks, capacity, faulty, cache)


def _greedy_rebuild_cached(
    model: ExpectedTimeModel,
    t: float,
    tasks: Sequence[TaskRuntime],
    capacity: int,
    faulty: Optional[int],
    cache: DecisionCache,
) -> List[int]:
    """Cache-fed kernel: delta-patched matrix + incremental heap.

    Decision-for-decision identical to :func:`_greedy_rebuild_scalar`:
    the candidate values are the scalar helpers' doubles and every
    comparison reads the same ones.  Two loop mechanics differ from the
    seed's pop/scan/push loop without changing any decision:

    * the "can this task still improve within the remaining budget"
      probe is O(1) — the reversed running minimum answers "improvable
      at all", and the first improving candidate (the next smaller
      element from the current slot) is compared against the window
      bound, exactly equivalent to scanning the windowed slice;
    * a granted task is re-popped inline while it still beats the heap
      top (same ``(-finish, index)`` tuple order as push-then-pop), so
      the heap only sees traffic when the longest task actually
      changes — the entries invalidated by the granted pair.
    """
    dm = cache.matrix(t, tasks, faulty=faulty, with_keep=True)
    vals, sufrev, width = cache.rebuild_block(dm)
    indices = dm.indices
    n = len(indices)
    slots = [0] * n  # every task restarts at sigma = 2 (slot 0)
    # Ties break on the task index; the trailing row position never
    # participates in the ordering (the index is already unique).
    heap = [
        (-float(vals[pos, 0]), i, pos) for pos, i in enumerate(indices)
    ]
    heapq.heapify(heap)
    avail = (capacity - 2 * n) >> 1  # remaining buddy pairs

    while avail >= 1 and heap:
        neg, i, pos = heapq.heappop(heap)
        row = vals[pos]
        suf = sufrev[pos]
        e = -neg
        while True:
            s = slots[pos]
            grow = False
            if s + 1 < width:
                if row.item(s + 1) < e:
                    grow = True  # the very next candidate improves
                elif suf.item(width - 2 - s) < e:
                    # Improvable somewhere: the first improving candidate
                    # is the next smaller element; grant iff it is within
                    # the budget (== any(window < e) on the slice).
                    f = s + 1 + int((row[s + 1:] < e).argmax())
                    grow = f - s <= avail
            if not grow:
                # Algorithm 5 line 30: the longest task cannot improve.
                avail = 0
                break
            s += 1
            slots[pos] = s
            e = row.item(s)
            avail -= 1
            if avail < 1:
                break
            if heap:
                # Inlined ``heap[0] < (-e, i)``: the indices are unique,
                # so the tuple order never reaches the third element.
                top = heap[0]
                neg_e = -e
                if top[0] < neg_e or (top[0] == neg_e and top[1] < i):
                    heapq.heappush(heap, (neg_e, i, pos))
                    break
            # Still the longest task: keep growing without heap traffic.

    # ---- Commit, vectorised over the cache's full-pack rows ----------
    # The matrix addresses rows by task index, so the per-task
    # ``init_of``/``stall_of`` accessor hops collapse into fancy
    # gathers; the committed values are the same floats read in the
    # same task order.
    idx = np.fromiter(indices, dtype=np.int64, count=n)
    new_sig = (np.asarray(slots, dtype=np.int64) + 1) << 1
    init = dm.j_init[idx]
    keeps = dm.keep[idx].tolist()
    moved = new_sig != init
    changed: List[int] = []
    if bool(moved.any()):
        stall = dm.stall
        alpha_t = dm.alpha_t
        for pos in np.nonzero(moved)[0]:
            pos = int(pos)
            i = indices[pos]
            apply_move(
                model, tasks[pos], t, float(stall[i]), int(init[pos]),
                int(new_sig[pos]), float(alpha_t[i]), cache=cache,
            )
            changed.append(i)
        for pos in np.nonzero(~moved)[0]:
            # Untouched: restore the expected finish from live bookkeeping.
            tasks[pos].t_expected = keeps[pos]
    else:
        for pos, rt in enumerate(tasks):
            rt.t_expected = keeps[pos]
    return changed


def _greedy_rebuild_scalar(
    model: ExpectedTimeModel,
    t: float,
    tasks: Sequence[TaskRuntime],
    capacity: int,
    faulty: Optional[int],
) -> List[int]:
    """Scalar kernel: the seed-style per-probe reference path."""
    by_index: Dict[int, TaskRuntime] = {rt.index: rt for rt in tasks}
    sigma_init: Dict[int, int] = {rt.index: rt.sigma for rt in tasks}
    stall: Dict[int, float] = {}
    alpha_t: Dict[int, float] = {}
    for rt in tasks:
        i = rt.index
        if i == faulty:
            # Already rolled back to the last checkpoint by the skeleton.
            alpha_t[i] = rt.alpha
            stall[i] = faulty_stall(rt, t)
        else:
            alpha_t[i] = remaining_at(model, rt, t)
            stall[i] = 0.0

    def finish(i: int, k: int) -> float:
        """Expected finish if task ``i`` ends the rebuild on ``k`` procs."""
        rt = by_index[i]
        if k == sigma_init[i]:
            # Line 16/23: unchanged allocation, the task just keeps going.
            return rt.t_last + model.expected_time(i, k, rt.alpha)
        return candidate_finish_time(
            model, i, sigma_init[i], alpha_t[i], t, stall[i], k
        )

    sigma: Dict[int, int] = {rt.index: 2 for rt in tasks}
    expected: Dict[int, float] = {i: finish(i, 2) for i in sigma}
    heap = [(-expected[i], i) for i in sigma]
    heapq.heapify(heap)
    available = capacity - 2 * len(tasks)

    while available >= 2 and heap:
        _, i = heapq.heappop(heap)
        p_max = sigma[i] + available
        targets = np.arange(sigma[i] + 2, p_max + 1, 2, dtype=int)
        finishes = candidate_finish_times(
            model, i, sigma_init[i], alpha_t[i], t, stall[i], targets
        )
        if targets.size:
            # Patch the no-redistribution candidate if it is in range.
            where_init = np.nonzero(targets == sigma_init[i])[0]
            if where_init.size:
                finishes[where_init[0]] = finish(i, sigma_init[i])
        if finishes.size and bool(np.any(finishes < expected[i])):
            sigma[i] += 2
            expected[i] = finish(i, sigma[i])
            heapq.heappush(heap, (-expected[i], i))
            available -= 2
        else:
            # Algorithm 5 line 30: the longest task cannot improve — stop.
            available = 0

    changed: List[int] = []
    for i, rt in by_index.items():
        if sigma[i] != sigma_init[i]:
            apply_move(
                model, rt, t, stall[i], sigma_init[i], sigma[i], alpha_t[i]
            )
            changed.append(i)
        else:
            # Untouched: restore the expected finish from live bookkeeping.
            rt.t_expected = rt.t_last + model.expected_time(
                i, rt.sigma, rt.alpha
            )
    return changed


class IteratedGreedy(FailureHeuristic):
    """Failure-time full rebuild (Algorithm 5)."""

    name = "iterated-greedy"

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
        capacity = free + sum(rt.sigma for rt in tasks)
        return greedy_rebuild(
            model, t, tasks, capacity, faulty=faulty, reference=reference,
            cache=cache,
        )


class EndGreedy(CompletionHeuristic):
    """Task-end full rebuild (Section 5.2, "EndGreedy")."""

    name = "end-greedy"

    def apply(
        self,
        model: ExpectedTimeModel,
        t: float,
        tasks: Sequence[TaskRuntime],
        free: int,
        reference: bool = False,
        cache: Optional[DecisionCache] = None,
    ) -> List[int]:
        if not tasks:
            return []
        capacity = free + sum(rt.sigma for rt in tasks)
        return greedy_rebuild(
            model, t, tasks, capacity, faulty=None, reference=reference,
            cache=cache,
        )
