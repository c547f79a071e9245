"""Processor identity bookkeeping.

The heuristics of the paper only reason about *counts* ``sigma(i)``, but a
faithful fault simulator needs to know *which* task a failing processor
belongs to.  :class:`ProcessorMap` maintains the partition of processor ids
into per-task sets plus a free pool, and keeps buddy pairs contiguous (a
task always holds an even number of processors, so pairs never straddle
tasks).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set

from ..exceptions import CapacityError, SimulationError

__all__ = ["ProcessorMap"]


class ProcessorMap:
    """Tracks which processors each task currently owns.

    Processors are integers ``0..p-1``.  The map enforces the pack-level
    invariants: per-task counts are even, the same processor never belongs
    to two tasks, and releases return processors to the free pool.
    """

    def __init__(self, p: int):
        if p < 2 or p % 2 != 0:
            raise CapacityError(f"processor count must be even and >= 2, got {p}")
        self._p = p
        self._free: List[int] = list(range(p - 1, -1, -1))  # stack, low ids out first
        self._owner: Dict[int, int] = {}
        self._held: Dict[int, Set[int]] = {}

    # -- queries -----------------------------------------------------------
    @property
    def p(self) -> int:
        return self._p

    @property
    def free_count(self) -> int:
        return len(self._free)

    def count(self, task: int) -> int:
        """Number of processors currently owned by ``task``."""
        return len(self._held.get(task, ()))

    def owner_of(self, proc: int) -> Optional[int]:
        """Task owning ``proc``, or ``None`` if it is idle."""
        if not 0 <= proc < self._p:
            raise CapacityError(f"processor id {proc} out of range 0..{self._p - 1}")
        return self._owner.get(proc)

    def held_by(self, task: int) -> frozenset[int]:
        """Frozen view of the processors owned by ``task``."""
        return frozenset(self._held.get(task, ()))

    def counts(self) -> Dict[int, int]:
        """Snapshot ``{task: count}`` for all tasks holding processors."""
        return {task: len(procs) for task, procs in self._held.items() if procs}

    def copy(self) -> "ProcessorMap":
        """An independent map with the same ownership (a simulator fork)."""
        twin = ProcessorMap.__new__(ProcessorMap)
        twin._p = self._p
        twin._free = list(self._free)
        twin._owner = dict(self._owner)
        twin._held = {task: set(procs) for task, procs in self._held.items()}
        return twin

    # -- mutations ----------------------------------------------------------
    def acquire(self, task: int, count: int) -> List[int]:
        """Give ``count`` free processors to ``task`` (count must be even)."""
        self._check_even(count)
        if count > len(self._free):
            raise CapacityError(
                f"task {task} requested {count} processors but only "
                f"{len(self._free)} are free"
            )
        granted = [self._free.pop() for _ in range(count)]
        bucket = self._held.setdefault(task, set())
        for proc in granted:
            self._owner[proc] = task
            bucket.add(proc)
        return granted

    def acquire_all(self, counts: Dict[int, int]) -> None:
        """Grant every ``task: count`` pair at once, in ``counts`` order.

        The processor ids are exactly those successive :meth:`acquire`
        calls would grant (failures strike ids, so they must match).
        """
        sizes = list(counts.values())
        for count in sizes:
            self._check_even(count)
        cut = len(self._free) - sum(sizes)
        if cut < 0:
            raise CapacityError(
                f"{len(sizes)} tasks requested {sum(sizes)} processors but "
                f"only {len(self._free)} are free"
            )
        granted = self._free[cut:][::-1]  # the stack's pop order
        del self._free[cut:]
        owners: List[int] = []
        start = 0
        for task, count in counts.items():
            ids = granted[start : start + count]
            bucket = self._held.get(task)
            if bucket is None:
                self._held[task] = set(ids)
            else:
                bucket.update(ids)
            owners += [task] * count
            start += count
        self._owner.update(zip(granted, owners))

    def release(self, task: int, count: Optional[int] = None) -> List[int]:
        """Return ``count`` processors of ``task`` (default: all) to the pool."""
        bucket = self._held.get(task)
        if not bucket:
            if count in (None, 0):
                return []
            raise SimulationError(f"task {task} holds no processors to release")
        if count is None:
            count = len(bucket)
        self._check_even(count)
        if count > len(bucket):
            raise CapacityError(
                f"task {task} holds {len(bucket)} processors; cannot release {count}"
            )
        released = sorted(bucket, reverse=True)[:count]
        for proc in released:
            bucket.discard(proc)
            del self._owner[proc]
            self._free.append(proc)
        if not bucket:
            del self._held[task]
        return released

    def transfer(self, src: int, dst: int, count: int) -> List[int]:
        """Move ``count`` processors from ``src`` to ``dst`` directly."""
        self._check_even(count)
        moved = self.release(src, count)
        # re-acquire the exact ids we just released (they sit on top of the
        # free stack, but order is not guaranteed; claim them explicitly)
        for proc in moved:
            self._free.remove(proc)
            self._owner[proc] = dst
            self._held.setdefault(dst, set()).add(proc)
        return moved

    def resize(self, task: int, new_count: int) -> None:
        """Set ``task``'s holding to exactly ``new_count`` processors."""
        self._check_even(new_count)
        current = self.count(task)
        if new_count > current:
            self.acquire(task, new_count - current)
        elif new_count < current:
            self.release(task, current - new_count)

    def apply_counts(self, targets: Dict[int, int]) -> None:
        """Resize several tasks at once (shrink first so grows can succeed)."""
        shrinks = {t: c for t, c in targets.items() if c < self.count(t)}
        grows = {t: c for t, c in targets.items() if c > self.count(t)}
        for task, new_count in shrinks.items():
            self.resize(task, new_count)
        for task, new_count in grows.items():
            self.resize(task, new_count)

    # -- internals -----------------------------------------------------------
    @staticmethod
    def _check_even(count: int) -> None:
        if count < 0 or count % 2 != 0:
            raise CapacityError(
                f"processor counts move in buddy pairs; got odd/negative {count}"
            )

    def validate(self) -> None:
        """Assert internal consistency (used by tests and debug runs)."""
        seen: Set[int] = set(self._free)
        if len(seen) != len(self._free):
            raise SimulationError("duplicate processors in free pool")
        for task, bucket in self._held.items():
            if len(bucket) % 2 != 0:
                raise SimulationError(f"task {task} holds an odd count")
            for proc in bucket:
                if proc in seen:
                    raise SimulationError(f"processor {proc} double-booked")
                seen.add(proc)
                if self._owner.get(proc) != task:
                    raise SimulationError("owner map out of sync")
        if seen != set(range(self._p)):
            raise SimulationError("processor partition does not cover 0..p-1")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ProcessorMap(p={self._p}, free={len(self._free)})"
