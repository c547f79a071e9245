"""Lazy-deletion event queue for the simulator's completion times.

The simulator's main loop repeatedly needs the earliest projected task
completion.  The seed implementation rescanned every live task per event
— O(n) per event, O(n^2) per run.  :class:`CompletionQueue` writes each
projection into the run's ``finish`` array
(:class:`~repro.core.state.TaskArrays`) and pushes ``(t, i)`` onto a
min-heap with *lazy deletion*: a heap entry is stale once the task
completed or its projection was re-written; :meth:`peek` prunes stale
entries from the top before answering, making event selection
O(log n) amortised.

Entries are ordered ``(time, task index)``, which reproduces the seed's
linear scan tie-break (earliest time, then smallest index) bit for bit.
"""

from __future__ import annotations

import heapq
import math
from typing import List, Tuple

from ..core.state import TaskArrays

__all__ = ["CompletionQueue"]


class CompletionQueue:
    """Projected finish times (``arrays.finish``) behind a min-heap.

    The heap starts with one entry per projection already in
    ``arrays.finish``.  Item assignment (``queue[i] = t``) is the only
    write: it stores the projection and pushes its heap entry, so every
    valid entry ``(finish[i], i)`` of an uncompleted task is on the
    heap.  :meth:`peek` returns the least of them whatever else the heap
    holds, so a queue built over a copy of a running store (a simulator
    fork's) yields the same events as the original.
    """

    __slots__ = ("_finish", "_done", "_heap")

    def __init__(self, arrays: TaskArrays):
        self._finish = arrays.finish
        self._done = arrays.done
        times = arrays.finish.tolist()
        self._heap: List[Tuple[float, int]] = list(
            zip(times, range(len(times)))
        )
        heapq.heapify(self._heap)

    def __setitem__(self, i: int, t: float) -> None:
        self._finish[i] = t
        heapq.heappush(self._heap, (t, i))

    def peek(self) -> Tuple[float, int]:
        """(time, task) of the next valid completion, ``(inf, -1)`` if none.

        Prunes stale heap entries (completed task, or a projection that
        has since been re-written) on the way.
        """
        heap = self._heap
        finish = self._finish
        done = self._done
        while heap:
            t, i = heap[0]
            if done[i] or finish[i] != t:
                heapq.heappop(heap)
                continue
            return t, i
        return math.inf, -1
