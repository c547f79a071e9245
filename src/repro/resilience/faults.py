"""Fault injection: per-processor failure streams.

This replaces the closed-source fault simulator of [20, 21] used by the
paper (see DESIGN.md, Substitutions).  Each processor carries its own
arrival stream drawn from a :class:`~repro.resilience.distributions.
FaultDistribution`; the injector merges them in a heap and serves
platform-wide failures in time order.

Per Section 6.1, a failure may strike during a checkpoint but **not**
during downtime, recovery, or redistribution; the simulator therefore
simply discards arrivals that fall inside such a blackout window for the
struck task — the processor's next arrival has already been redrawn, which
implements the "re-draw after the blackout" semantics.
"""

from __future__ import annotations

import copy
import heapq
import math
from typing import Iterator, List, Optional, Tuple

import numpy as np

from ..exceptions import ConfigurationError
from .distributions import ExponentialFaults, FaultDistribution

__all__ = ["FaultInjector", "NullFaultInjector"]


class FaultInjector:
    """Merged stream of per-processor failures.

    Parameters
    ----------
    p:
        Number of processors (ids ``0..p-1``).
    distribution:
        Inter-arrival distribution (shared; per-processor streams are
        independent because draws are sequential on a dedicated RNG).
    rng:
        Dedicated random generator.  The simulator derives it from the
        replicate seed under the key ``"faults"`` so fault times are
        identical across policies (common random numbers).
    """

    def __init__(
        self,
        p: int,
        distribution: FaultDistribution,
        rng: np.random.Generator,
    ):
        if p < 1:
            raise ConfigurationError(f"need at least one processor, got {p}")
        self._p = p
        self._distribution = distribution
        self._rng = rng
        self._sequence = 0
        initial = distribution.sample_initial(rng, p)
        self._heap: List[Tuple[float, int, int]] = []
        for proc in range(p):
            arrival = float(initial[proc])
            if math.isfinite(arrival):
                self._heap.append((arrival, self._next_seq(), proc))
        heapq.heapify(self._heap)
        self._drawn = len(self._heap)

    @classmethod
    def exponential(
        cls, p: int, mtbf: float, rng: np.random.Generator
    ) -> "FaultInjector":
        """Injector with the paper's exponential law of mean ``mtbf``."""
        return cls(p, ExponentialFaults(mtbf), rng)

    def _next_seq(self) -> int:
        self._sequence += 1
        return self._sequence

    # -- stream interface ----------------------------------------------------
    def peek(self) -> Tuple[float, int]:
        """(time, proc) of the next failure, ``(inf, -1)`` if none remain."""
        if not self._heap:
            return (math.inf, -1)
        time, _, proc = self._heap[0]
        return (time, proc)

    def pop(self) -> Tuple[float, int]:
        """Consume the next failure and redraw the processor's stream."""
        if not self._heap:
            return (math.inf, -1)
        time, _, proc = heapq.heappop(self._heap)
        gap = self._distribution.sample(self._rng, proc)
        if math.isfinite(gap):
            heapq.heappush(self._heap, (time + gap, self._next_seq(), proc))
            self._drawn += 1
        return (time, proc)

    def fork(self) -> "FaultInjector":
        """An independent copy that serves the same future failures.

        The pending heap, the RNG state and the distribution (a trace
        law keeps per-processor cursors) are copied, so drawing from
        either injector never moves the other.
        """
        twin = copy.copy(self)
        twin._heap = list(self._heap)
        twin._rng = _copy_generator(self._rng)
        twin._distribution = copy.deepcopy(self._distribution)
        return twin

    def failures_until(self, horizon: float) -> Iterator[Tuple[float, int]]:
        """Consume and yield every failure strictly before ``horizon``."""
        while True:
            time, proc = self.peek()
            if time >= horizon:
                return
            yield self.pop()

    @property
    def draws(self) -> int:
        """Total number of arrivals drawn so far (diagnostics)."""
        return self._drawn

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"FaultInjector(p={self._p}, dist={self._distribution!r})"


def _copy_generator(rng: np.random.Generator) -> np.random.Generator:
    """An independent generator in ``rng``'s exact state.

    Same draws as ``copy.deepcopy(rng)`` at under half its cost: a
    fixed-seed bit generator of the same type takes over ``rng``'s state.
    """
    bit_generator = type(rng.bit_generator)(0)
    bit_generator.state = rng.bit_generator.state
    return np.random.Generator(bit_generator)


class NullFaultInjector:
    """Injector for fault-free contexts: never produces a failure."""

    def peek(self) -> Tuple[float, int]:
        return (math.inf, -1)

    def pop(self) -> Tuple[float, int]:
        return (math.inf, -1)

    def fork(self) -> "NullFaultInjector":
        return self

    def failures_until(self, horizon: float) -> Iterator[Tuple[float, int]]:
        return iter(())

    @property
    def draws(self) -> int:
        return 0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "NullFaultInjector()"
