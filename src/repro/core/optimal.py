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
block — pure index arithmetic, zero model calls inside the loop.  The
per-probe form it is pinned against is
:func:`repro.oracle.optimal_schedule`.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..exceptions import CapacityError
from ..resilience.expected_time import ExpectedTimeModel

__all__ = ["optimal_schedule", "envelope_block", "expected_makespan"]


def optimal_schedule(
    model: ExpectedTimeModel,
    p: int,
    indices: Optional[Sequence[int]] = None,
    alpha: float = 1.0,
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
    indices, block = envelope_block(model, p, indices, alpha, alphas)
    sigma: Dict[int, int] = {i: 2 for i in indices}
    available = p - 2 * len(indices)
    # Max-heap on expected time; ties broken by task index for determinism.
    # The growth loop only indexes the block: no model call inside it.
    heap = [(-float(block[pos, 0]), i) for pos, i in enumerate(indices)]
    heapq.heapify(heap)

    pos_of = {i: pos for pos, i in enumerate(indices)}
    width = block.shape[1]
    while available >= 2 and heap:
        neg_current, i = heapq.heappop(heap)
        row = block[pos_of[i]]
        p_max = sigma[i] + available
        slot_max = (p_max >> 1) - 1
        if (p_max & 1) or slot_max >= width:
            # Out-of-grid probe: raise the slot accessor's CapacityError.
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


def envelope_block(
    model: ExpectedTimeModel,
    p: int,
    indices: Optional[Sequence[int]],
    alpha: float,
    alphas: Optional[Sequence[float]],
) -> Tuple[List[int], np.ndarray]:
    """Algorithm 1's checked inputs: the task list and, in one batched
    evaluation, each task's envelope row at its remaining fraction."""
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
    if alphas is None:
        return indices, model.profile_batch(indices, alpha)
    return indices, model.profile_matrix(indices, alphas)


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
