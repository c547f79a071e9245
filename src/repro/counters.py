"""Named work counters: one registry per process, merged as deltas.

Each count of work (workload builds, Eq. 4 envelope hits and misses,
decision rows, in-place retries) is bumped in :data:`COUNTERS` under the
name of its :class:`~repro.engine.executors.EngineStats` field.  The
counters only grow; a consumer scopes them to its own work with
:func:`since` a :func:`snapshot`, and that ``{name: delta}`` mapping is
what crosses process, queue and HTTP boundaries into ``EngineStats.add``.
A plain ``dict``, not :class:`collections.Counter`: the bump sites sit
on the Eq. 4 and decision hot paths.
"""

from __future__ import annotations

from typing import Dict, Mapping

__all__ = ["COUNTERS", "snapshot", "since"]

#: The process-wide counters; bump sites import the dict, never rebind it.
COUNTERS: Dict[str, int] = dict.fromkeys(
    (
        "workloads_built",
        "workloads_reused",
        "profile_hits",
        "profile_misses",
        "decision_rows_patched",
        "decision_rows_reused",
        "decision_scratch_allocs",
        "decision_profile_env_reused",
        "retries",
    ),
    0,
)


def snapshot() -> Dict[str, int]:
    """A copy of every counter's current value."""
    return dict(COUNTERS)


def since(before: Mapping[str, int]) -> Dict[str, int]:
    """Each counter's growth since the ``before`` :func:`snapshot`."""
    return {name: value - before[name] for name, value in COUNTERS.items()}
