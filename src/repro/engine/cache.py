"""Per-process workload memoisation.

Replicates of the same scenario draw their pack — and build their
:class:`~repro.resilience.expected_time.ExpectedTimeModel` — from
``(config, replicate seed)`` alone, so identical draws requested twice
(the same scenario appearing at several sweep points, paired campaigns,
repeated figures of a multi-figure run) can share one construction.
:data:`shared_cache` is that memo: one instance per process, so pool
workers that stay alive across dispatches (the persistent executor)
keep their packs warm across whole campaigns.

Reuse is safe because every cached value is a pure function of its key:
by the :class:`~repro.engine.request.RunRequest` determinism contract a
rebuild would produce the same pack and a model whose outputs are
cache-history-independent, so hits never change any result.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Callable, Dict, Hashable

from ..counters import COUNTERS
from ..exceptions import ConfigurationError

__all__ = ["WorkloadCache", "shared_cache"]


class WorkloadCache:
    """Bounded LRU memo of workload constructions.

    ``get_or_build(key, builder)`` returns the cached value for ``key``
    or calls ``builder()`` and remembers the result, evicting the
    least-recently-used entry past ``capacity``.  Every lookup is also
    counted in the :mod:`repro.counters` registry (``workloads_reused``
    / ``workloads_built``), which the engine's statistics read.

    The default capacity covers the replicate working set of the
    ``tiny``/``small`` scaling presets, so repeated figures of one
    campaign reuse every draw.  Paper-scale scenarios cycle 50
    replicates per sweep point — more than fit here by default, and each
    paper-scale model holds megabytes of grids, so cross-figure reuse at
    that scale is opt-in: raise ``shared_cache.capacity`` to at least
    the scenario's replicate count and budget the memory accordingly.
    """

    def __init__(self, capacity: int = 16):
        if capacity < 1:
            raise ConfigurationError(f"capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self._entries: "OrderedDict[Hashable, Any]" = OrderedDict()
        self.hits = 0
        self.misses = 0

    def get_or_build(self, key: Hashable, builder: Callable[[], Any]) -> Any:
        """The value for ``key``, building (and caching) it on a miss."""
        try:
            value = self._entries[key]
        except KeyError:
            pass
        else:
            self._entries.move_to_end(key)
            self.hits += 1
            COUNTERS["workloads_reused"] += 1
            return value
        value = builder()
        self.misses += 1
        COUNTERS["workloads_built"] += 1
        self._entries[key] = value
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
        return value

    def cache_info(self) -> Dict[str, float]:
        """Counters in the style of ``functools.lru_cache.cache_info``."""
        lookups = self.hits + self.misses
        return {
            "hits": self.hits,
            "misses": self.misses,
            "entries": len(self._entries),
            "capacity": self.capacity,
            "hit_rate": self.hits / lookups if lookups else 0.0,
        }

    def clear(self) -> None:
        """Drop every entry and reset the counters."""
        self._entries.clear()
        self.hits = 0
        self.misses = 0


#: The process-wide memo.  Pool workers each hold their own instance;
#: the persistent executor's workers keep it warm across dispatches.
shared_cache = WorkloadCache()
