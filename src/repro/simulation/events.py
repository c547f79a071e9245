"""Lazy-deletion event queue for the simulator's completion times.

The simulator's main loop repeatedly needs the earliest projected task
completion.  The seed implementation rescanned every live task per event
— O(n) per event, O(n^2) per run.  :class:`CompletionQueue` keeps the
projections in a min-heap with *lazy deletion*: it subclasses ``dict``
(task index -> projected finish), so the redistribution handlers keep
writing ``finish[i] = t`` exactly as before, and every write also pushes
``(t, i)`` onto the heap.  A heap entry is stale once the task completed
or its projection was re-written; :meth:`peek` prunes stale entries from
the top before answering, making event selection O(log n) amortised.

Entries are ordered ``(time, task index)``, which reproduces the seed's
linear scan tie-break (earliest time, then smallest index) bit for bit.
"""

from __future__ import annotations

import heapq
import math
from typing import List, Sequence, Tuple

import numpy as np

__all__ = ["CompletionQueue"]


class CompletionQueue(dict):
    """``finish``-time mapping backed by a lazy-deletion min-heap.

    Only item assignment keeps the heap in sync; the other inherited
    dict mutators (which would bypass the overridden ``__setitem__`` at
    the C level) are blocked so a desynchronised heap cannot be created
    silently.
    """

    def __init__(self, runtimes: Sequence, mirror=None):
        super().__init__()
        self._runtimes = runtimes
        self._heap: List[Tuple[float, int]] = []
        #: Optional flat ndarray mirror of the projections (the
        #: simulator's vectorised failure path scans it instead of the
        #: dict).  __setitem__ is the only write channel, so the mirror
        #: can never desync from the mapping.
        self._mirror = mirror

    def __setitem__(self, i: int, t: float) -> None:
        dict.__setitem__(self, i, t)
        if self._mirror is not None:
            self._mirror[i] = t
        heapq.heappush(self._heap, (t, i))

    def assign_all(self, times: np.ndarray) -> None:
        """``self[i] = times[i]`` for every task, in one pass.

        The heap is built by one ``heapify``; entries are distinct
        ``(time, index)`` pairs, so :meth:`peek` yields the same
        sequence as after one assignment per task.
        """
        values = times.tolist()
        dict.update(self, enumerate(values))
        if self._mirror is not None:
            self._mirror[: len(values)] = times
        self._heap.extend(zip(values, range(len(values))))
        heapq.heapify(self._heap)

    def fork(self, runtimes: Sequence, mirror=None) -> "CompletionQueue":
        """The same projections and heap over ``runtimes`` / ``mirror``
        (a simulator fork's copies); later writes to either queue never
        reach the other."""
        twin = CompletionQueue(runtimes, mirror=mirror)
        dict.update(twin, self)
        twin._heap = list(self._heap)
        return twin

    def _unsupported(self, *_args, **_kwargs):
        raise TypeError(
            "CompletionQueue only supports item assignment "
            "(finish[i] = t); other dict mutators would desync the heap"
        )

    update = _unsupported
    setdefault = _unsupported
    pop = _unsupported
    popitem = _unsupported
    clear = _unsupported
    __delitem__ = _unsupported
    __ior__ = _unsupported

    def peek(self) -> Tuple[float, int]:
        """(time, task) of the next valid completion, ``(inf, -1)`` if none.

        Prunes stale heap entries (completed task, or a projection that
        has since been re-written) on the way.
        """
        heap = self._heap
        while heap:
            t, i = heap[0]
            if self._runtimes[i].completed or dict.__getitem__(self, i) != t:
                heapq.heappop(heap)
                continue
            return t, i
        return math.inf, -1
