"""Optimal schedule without redistribution (Section 4.1, Algorithm 1).

Greedy pair-wise allocation: start every task at 2 processors and, while
processors remain, give one buddy pair to the task with the largest
expected execution time ``t^R_{i,sigma(i)}(1)`` — but only if even granting
it *all* remaining processors would strictly improve it (Algorithm 1,
line 9).  Otherwise the remaining processors are deliberately kept free
for later redistribution.  Theorem 1 proves this minimises the expected
makespan when no redistribution is allowed; the complexity is
``O(p log n)``.

The default path scores the whole growth loop against the one
:meth:`~repro.resilience.expected_time.ExpectedTimeModel.profile_batch`
block — pure index arithmetic, zero model calls inside the loop — while
``reference=True`` keeps the per-probe accessor calls as the
bit-identical reference.
"""

from __future__ import annotations

import heapq
from typing import Dict, Optional, Sequence

from ..exceptions import CapacityError
from ..resilience.expected_time import ExpectedTimeModel
__all__ = ["optimal_schedule", "expected_makespan"]


def optimal_schedule(
    model: ExpectedTimeModel,
    p: int,
    indices: Optional[Sequence[int]] = None,
    alpha: float = 1.0,
    reference: bool = False,
    alphas: Optional[Sequence[float]] = None,
) -> Dict[int, int]:
    """Algorithm 1: optimal no-redistribution allocation.

    Parameters
    ----------
    model:
        Expected-time model for the pack (supplies ``t^R_{i,j}(alpha)``).
    p:
        Processors available to this pack.
    indices:
        Task subset to schedule (defaults to the whole pack).
    alpha:
        Remaining work fraction used for every task (1 at pack start).
    reference:
        ``False`` (default) runs the growth loop as index arithmetic
        over the batched envelope block; ``True`` keeps the per-probe
        model calls.  Both produce identical allocations.
    alphas:
        Per-task remaining fractions, one per entry of ``indices``
        (overrides ``alpha``).  This is the rolling-horizon form: the
        online service re-packs *residual* workloads, so each task is
        scored at its own remaining fraction.  The growth loop is
        unchanged — only the envelope rows differ (one
        :meth:`~repro.resilience.expected_time.ExpectedTimeModel.
        profile_matrix` evaluation instead of ``profile_batch``).

    Returns
    -------
    dict mapping task index to its (even) processor count.

    Raises
    ------
    CapacityError
        If ``p < 2 n`` — the buddy scheme needs one pair per task.
    """
    if indices is None:
        indices = range(len(model.pack))
    indices = list(indices)
    n = len(indices)
    if p < 2 * n:
        raise CapacityError(
            f"Algorithm 1 needs p >= 2n: p={p}, n={n} "
            "(each task requires one buddy pair)"
        )
    if alphas is not None and len(alphas) != n:
        raise CapacityError(
            f"alphas must match indices: {len(alphas)} != {n}"
        )
    sigma: Dict[int, int] = {i: 2 for i in indices}
    available = p - 2 * n

    # Max-heap on expected time; ties broken by task index for determinism.
    # One batched profile evaluation scores every task at j=2 (slot 0); the
    # fast path keeps reading the block, the reference re-reads the (now
    # warm) profile cache through the scalar accessors.
    if alphas is None:
        block = model.profile_batch(indices, alpha)
    else:
        block = model.profile_matrix(indices, alphas)
    heap = [(-float(block[pos, 0]), i) for pos, i in enumerate(indices)]
    heapq.heapify(heap)

    if reference:
        alpha_of = (
            {i: alpha for i in indices}
            if alphas is None
            else {i: float(alphas[pos]) for pos, i in enumerate(indices)}
        )
        while available >= 2 and heap:
            neg_current, i = heapq.heappop(heap)
            current = -neg_current
            p_max = sigma[i] + available
            # Line 9: can the longest task still be improved at all?
            if current > model.expected_time(i, p_max, alpha_of[i]):
                sigma[i] += 2
                available -= 2
                heapq.heappush(
                    heap, (-model.expected_time(i, sigma[i], alpha_of[i]), i)
                )
            else:
                # No task can improve the makespan further: keep the rest
                # free.
                available = 0
        return sigma

    pos_of = {i: pos for pos, i in enumerate(indices)}
    width = block.shape[1]
    while available >= 2 and heap:
        neg_current, i = heapq.heappop(heap)
        row = block[pos_of[i]]
        p_max = sigma[i] + available
        slot_max = (p_max >> 1) - 1
        if (p_max & 1) or slot_max >= width:
            # Out-of-grid probe: raise the reference path's CapacityError.
            model.grid(i).slot(p_max)
        # Line 9: can the longest task still be improved at all?
        if -neg_current > float(row[slot_max]):
            sigma[i] += 2
            available -= 2
            heapq.heappush(heap, (-float(row[(sigma[i] >> 1) - 1]), i))
        else:
            # No task can improve the makespan further: keep the rest free.
            available = 0
    return sigma


def expected_makespan(
    model: ExpectedTimeModel, sigma: Dict[int, int], alpha: float = 1.0
) -> float:
    """Expected makespan ``max_i t^R_{i,sigma(i)}(alpha)`` of an allocation.

    One :meth:`~repro.resilience.expected_time.ExpectedTimeModel.
    profile_batch` evaluation scores every task; only the (memoised)
    slot arithmetic stays per-task.
    """
    indices = list(sigma)
    block = model.profile_batch(indices, alpha)
    return max(
        float(block[pos, model.grid(i).slot(sigma[i])])
        for pos, i in enumerate(indices)
    )
