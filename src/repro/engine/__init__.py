"""The unified execution engine: one pluggable run-fabric.

Every layer that drives the simulator — figure sweeps
(:mod:`repro.experiments`), batch campaigns (:mod:`repro.batch`) and
Monte-Carlo validation (:mod:`repro.validation`) — submits its work
here instead of owning a private fan-out loop.  The engine is two small
pieces:

* a :class:`RunRequest` — one unit of work: a module-level runner
  function, a picklable payload (workload draw + fault draw + policy +
  model knobs) and a single derived seed;
* an :class:`Executor` — ``map(requests) -> results`` in request
  order, in one of three implementations: :class:`SerialExecutor`
  (reference path), :class:`PersistentPoolExecutor` (a process pool
  whose workers and workload caches stay alive across whole campaigns)
  and :class:`QueueExecutor` (chunks serialised through a pluggable
  :class:`Broker` to workers that may live outside this process tree —
  or this host; ``python -m repro.engine.worker`` is the worker-side
  entrypoint, ``python -m repro.engine.broker_server`` serves a spool
  over token-authenticated HTTP and :class:`HTTPBroker` /
  :func:`connect_broker` are the client side).

The RunRequest determinism contract
-----------------------------------

Executors may run requests in any process, in any grouping, with any
pool lifetime — so correctness rests on one contract, which every
runner function must honour:

1. **All entropy flows from the seed.**  ``fn(*payload, seed=seed)``
   must derive every random quantity (workload draw, failure times,
   sampling noise) from ``seed`` via :mod:`repro.rng`; no global RNG,
   no process identity, no wall clock.
2. **Requests are independent.**  A runner must not communicate with
   other requests except through its return value; execution order and
   chunk boundaries are unobservable.
3. **Reuse must be invisible.**  Anything a runner memoises in
   :data:`repro.engine.cache.shared_cache` must be a pure function of
   its cache key, and any internal caching of a reused object (for
   example the :class:`~repro.resilience.expected_time.ExpectedTimeModel`
   envelope store, which evaluates on a quantised-alpha grid) must be
   history-independent: a warm hit returns exactly what a cold rebuild
   would.

Under this contract every executor produces **byte-identical** results
for the same request list — the property
``tests/test_perf_equivalence.py`` pins across serial, persistent and
queue execution — and the only observable
differences are wall-clock and the ``cache_info()``-style counters in
:class:`EngineStats` (which the pool *and* queue transports both carry
back from their workers).

The contract also powers the resilience layer (``docs/RESILIENCE.md``):
because any execution of a request is byte-identical, work can be
retried (:class:`RetryPolicy`), requeued, deduplicated, journaled for
crash-resume (:class:`ResultJournal`) and exercised under deterministic
fault injection (:class:`FaultPlan`) without ever changing a result.
"""

from __future__ import annotations

from .broker import Broker, FileBroker, worker_identity
from .cache import WorkloadCache, shared_cache
from .chaos import ChaosBroker, ChaosCrash, ChaosHTTPTransport, FaultPlan
from .executors import (
    ENGINES,
    EngineStats,
    Executor,
    PersistentPoolExecutor,
    SerialExecutor,
    create_executor,
    default_chunk_size,
    ensure_executor,
    resolve_engine,
)
from .http_broker import HTTPBroker, connect_broker
from .journal import ResultJournal, ensure_journal
from .queue_exec import QueueExecutor
from .request import RunRequest, execute_request
from .retry import DEFAULT_RETRY_POLICY, RetryPolicy

__all__ = [
    "ENGINES",
    "DEFAULT_RETRY_POLICY",
    "Broker",
    "ChaosBroker",
    "ChaosCrash",
    "ChaosHTTPTransport",
    "EngineStats",
    "Executor",
    "FaultPlan",
    "FileBroker",
    "HTTPBroker",
    "PersistentPoolExecutor",
    "QueueExecutor",
    "ResultJournal",
    "RetryPolicy",
    "RunRequest",
    "SerialExecutor",
    "WorkloadCache",
    "connect_broker",
    "create_executor",
    "default_chunk_size",
    "ensure_executor",
    "ensure_journal",
    "execute_request",
    "resolve_engine",
    "shared_cache",
    "worker_identity",
]
