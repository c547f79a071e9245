"""The executors behind the run-fabric.

Every executor consumes a list of :class:`~repro.engine.request.RunRequest`
and returns results *in request order*:

* :class:`SerialExecutor` — the reference path: every request runs in
  the calling process, one after the other;
* :class:`PersistentPoolExecutor` — fans contiguous request chunks
  across a process pool that (with each worker's
  :data:`~repro.engine.cache.shared_cache`) stays alive across ``map``
  calls, amortising pool start-up and workload construction over whole
  sweeps and multi-figure campaigns;
* :class:`~repro.engine.queue_exec.QueueExecutor` — chunks serialised
  through a pluggable :class:`~repro.engine.broker.Broker` to worker
  processes that may live outside this process tree — or this host
  (defined in :mod:`repro.engine.queue_exec`).

This module holds the shared machinery (:class:`Executor`,
:class:`EngineStats`, chunking, the engine registry) plus the first
two executors; the queue engine builds on it from its own module.

Because requests are self-seeded and mutually independent (see the
determinism contract in :mod:`repro.engine.request`), chunk boundaries,
worker counts and pool lifetimes cannot influence any result — every
executor is byte-identical to the serial path.  Chunked dispatch bounds
pickling overhead: with ``R`` requests and ``N`` workers the default
chunk size is ``ceil(R / (4 N))``, ~4 chunks per worker to smooth load
imbalance.

Besides the ordered :meth:`Executor.map`, every executor streams:
:meth:`Executor.map_stream` yields ``(start_index, chunk_results)``
pairs the moment each chunk completes, so long sweeps can render
progress while the pool is still working.  Streamed results are the
same objects ``map`` would return — only arrival order differs.
"""

from __future__ import annotations

import functools
import math
import os
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import (
    Any,
    Callable,
    ClassVar,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from ..exceptions import ConfigurationError
from .cache import shared_cache
from .chaos import FaultPlan
from .journal import ResultJournal, decode_journal_hit, ensure_journal
from .request import RunRequest, execute_request
from .retry import DEFAULT_RETRY_POLICY, RetryPolicy, execute_with_retry

__all__ = [
    "ENGINES",
    "EngineStats",
    "Executor",
    "SerialExecutor",
    "PersistentPoolExecutor",
    "create_executor",
    "ensure_executor",
    "resolve_engine",
    "default_chunk_size",
]

#: Engine names accepted by :func:`create_executor` and the CLI.
ENGINES: Tuple[str, ...] = ("serial", "persistent", "queue")


def default_chunk_size(requests: int, workers: int) -> int:
    """Contiguous requests per dispatch unit (~4 chunks per worker)."""
    return max(1, math.ceil(requests / (4 * workers)))


@dataclass
class EngineStats:
    """``cache_info()``-style counters of one executor's lifetime."""

    tasks_submitted: int = 0    #: requests accepted by map()
    dispatches: int = 0         #: map() calls
    pool_launches: int = 0      #: process pools created
    pool_reuses: int = 0        #: map() calls served by an already-warm pool
    workloads_built: int = 0    #: workload-cache misses across all processes
    workloads_reused: int = 0   #: workload-cache hits across all processes
    profile_hits: int = 0       #: model profile-cache hits across processes
    profile_misses: int = 0     #: model profile-cache misses across processes
    decision_rows_patched: int = 0  #: decision-matrix rows recomputed
    decision_rows_reused: int = 0   #: component rows (finish/RC/keep) reused
    decision_scratch_allocs: int = 0  #: scratch ndarrays preallocated by caches
    decision_profile_env_reused: int = 0  #: profile rows copied from the env cache
    decision_profile_tau_patched: int = 0  #: profile rows via the tau_last patch
    retries: int = 0            #: retried attempts (in-place + chunk resubmits)
    requeues: int = 0           #: stale claims pushed back onto the queue
    dead_lettered: int = 0      #: chunks quarantined after exhausting retries
    duplicate_results: int = 0  #: redundant completions absorbed (first wins)
    wire_retries: int = 0       #: HTTP-broker requests retried on the wire
    lease_expiries: int = 0     #: server-side claim leases judged expired
    worker_joins: int = 0       #: workers first seen by the broker server
    worker_leaves: int = 0      #: workers that deregistered (graceful drain)
    journal_hits: int = 0       #: chunks served from the result journal
    journal_misses: int = 0     #: chunks the journal had not seen yet

    def cache_info(self) -> Dict[str, int]:
        """The counters as a plain dict, in field order."""
        return asdict(self)

    def any_resilience_events(self) -> bool:
        """Whether any retry/quarantine/journal counter is non-zero."""
        return bool(
            self.retries
            or self.requeues
            or self.dead_lettered
            or self.duplicate_results
            or self.wire_retries
            or self.lease_expiries
            or self.journal_hits
            or self.journal_misses
        )

    def any_fleet_events(self) -> bool:
        """Whether any remote-broker/fleet counter is non-zero."""
        return bool(
            self.wire_retries
            or self.lease_expiries
            or self.worker_joins
            or self.worker_leaves
        )

    def describe_fleet(self) -> str:
        """One-line remote-broker fleet digest for ``--verbose``."""
        return (
            f"worker joins: {self.worker_joins} "
            f"leaves: {self.worker_leaves} / "
            f"lease expiries: {self.lease_expiries} "
            f"wire retries: {self.wire_retries}"
        )

    def describe_resilience(self) -> str:
        """One-line retry/quarantine/journal digest for ``--verbose``."""
        return (
            f"retries: {self.retries} requeues: {self.requeues} "
            f"dead-lettered: {self.dead_lettered} "
            f"duplicates absorbed: {self.duplicate_results} / "
            f"journal hits: {self.journal_hits} "
            f"(misses: {self.journal_misses})"
        )

    def decision_reuse_rate(self) -> float:
        """Share of decision-matrix rows served without recomputation."""
        rows = self.decision_rows_patched + self.decision_rows_reused
        return self.decision_rows_reused / rows if rows else 0.0

    def describe_decisions(self) -> str:
        """One-line decision-state digest for ``--verbose`` output."""
        return (
            f"rows patched: {self.decision_rows_patched} "
            f"reused: {self.decision_rows_reused} "
            f"reuse rate: {self.decision_reuse_rate():.1%} "
            f"profile env reuses: {self.decision_profile_env_reused} "
            f"tau patches: {self.decision_profile_tau_patched} "
            f"(scratch allocations: {self.decision_scratch_allocs})"
        )

    def profile_hit_rate(self) -> float:
        """Profile-cache hit rate across every dispatched request."""
        lookups = self.profile_hits + self.profile_misses
        return self.profile_hits / lookups if lookups else 0.0

    def describe(self) -> str:
        """One-line digest for ``--verbose`` output."""
        return (
            f"tasks submitted: {self.tasks_submitted} "
            f"(dispatches: {self.dispatches}) / "
            f"reused workloads: {self.workloads_reused} "
            f"(built: {self.workloads_built}) / "
            f"pool reuse count: {self.pool_reuses} "
            f"(launches: {self.pool_launches})"
        )

    def describe_profiles(self) -> str:
        """One-line profile-cache digest for ``--verbose`` output."""
        return (
            f"hits: {self.profile_hits} misses: {self.profile_misses} "
            f"hit rate: {self.profile_hit_rate():.1%}"
        )


def _execute_one(
    request: RunRequest,
    policy: Optional[RetryPolicy],
    plan: Optional[FaultPlan],
) -> Tuple[Any, int]:
    """Run one request under the retry layer; ``(result, retries)``.

    Transient failures (and injected chaos runner faults) are retried
    in place with the policy's deterministic backoff; the retry count
    rides back to the submitter in the chunk's engine-counter delta.
    """
    retried = 0

    def attempt(number: int) -> Any:
        nonlocal retried
        retried = number - 1
        if plan is not None:
            plan.maybe_runner_fault(request.seed, number)
        return execute_request(request)

    value = execute_with_retry(attempt, seed=request.seed, policy=policy)
    return value, retried


def _execute_chunk(
    requests: Tuple[RunRequest, ...],
    policy: Optional[RetryPolicy] = None,
    plan: Optional[FaultPlan] = None,
) -> Tuple[
    List[Any],
    Tuple[int, int],
    Tuple[int, int],
    Tuple[int, int, int, int, int],
    Tuple[int],
]:
    """Run one contiguous chunk in the current process.

    Module-level so it pickles under every multiprocessing start method
    (the executors bind ``policy``/``plan`` with ``functools.partial``,
    which pickles by reference plus the frozen dataclasses).  Returns
    the results plus this chunk's ``(hits, misses)`` deltas of the
    process-local workload cache, of the process-wide profile counters
    (:meth:`~repro.resilience.expected_time.ExpectedTimeModel.
    process_cache_snapshot`), of the decision-state counters
    (:func:`~repro.core.kernels.process_decision_snapshot`) and of the
    engine's own resilience counters (in-place retries), which the
    parent aggregates into its :class:`EngineStats` (workers' counters
    are otherwise invisible to the submitting process).
    """
    from ..core.kernels import process_decision_snapshot
    from ..resilience.expected_time import ExpectedTimeModel

    hits_before, misses_before = shared_cache.snapshot()
    p_hits_before, p_misses_before = ExpectedTimeModel.process_cache_snapshot()
    d_before = process_decision_snapshot()
    results = []
    retries = 0
    for request in requests:
        value, retried = _execute_one(request, policy, plan)
        results.append(value)
        retries += retried
    hits_after, misses_after = shared_cache.snapshot()
    p_hits_after, p_misses_after = ExpectedTimeModel.process_cache_snapshot()
    d_after = process_decision_snapshot()
    return (
        results,
        (hits_after - hits_before, misses_after - misses_before),
        (p_hits_after - p_hits_before, p_misses_after - p_misses_before),
        tuple(after - before for after, before in zip(d_after, d_before)),
        (retries,),
    )


def _stream_futures(
    executor: "Executor", pool, chunks: List[Tuple[RunRequest, ...]]
) -> Iterator[Tuple[int, List[Any]]]:
    """Submit chunks to a live pool and yield each as it completes.

    Journal-aware: chunks the attached result journal already holds are
    yielded up front without touching the pool; every executed chunk is
    journaled as it lands.
    """
    from concurrent.futures import as_completed

    call = executor._chunk_call()
    futures = {}
    hits: List[Tuple[int, List[Any]]] = []
    start = 0
    for chunk in chunks:
        cached = executor._journal_fetch(chunk)
        if cached is not None:
            hits.append((start, cached))
        else:
            futures[pool.submit(call, chunk)] = (start, chunk)
        start += len(chunk)
    yield from hits
    for future in as_completed(futures):
        output = future.result()
        executor._fold_output(output)
        chunk_start, chunk = futures[future]
        executor._journal_store(chunk, output)
        yield chunk_start, output[0]


class Executor:
    """Common machinery: ordered dispatch, statistics, lifecycle.

    Every executor also carries the resilience layer's three knobs:

    ``retry_policy``
        The :class:`~repro.engine.retry.RetryPolicy` applied to every
        unit of work (in-place per-request retries everywhere, plus
        per-chunk resubmission in the queue engine).  ``None`` disables
        retrying.
    ``chaos_plan``
        An optional :class:`~repro.engine.chaos.FaultPlan` threaded
        into every chunk execution (and, for the queue engine, into the
        broker and worker fleet) for deterministic fault injection.
    ``journal``
        An optional :class:`~repro.engine.journal.ResultJournal` (or a
        directory path) consulted before executing any chunk and
        updated as chunks land, making interrupted campaigns resumable.
    """

    name: ClassVar[str] = "?"

    def __init__(
        self,
        *,
        retry_policy: Optional[RetryPolicy] = DEFAULT_RETRY_POLICY,
        chaos_plan: Optional[FaultPlan] = None,
        journal: Union[ResultJournal, os.PathLike, str, None] = None,
    ) -> None:
        self._stats = EngineStats()
        self.retry_policy = retry_policy
        self.chaos_plan = FaultPlan.from_spec(chaos_plan)
        self.journal = ensure_journal(journal)

    # -- public API --------------------------------------------------------
    def map(self, requests: Sequence[RunRequest]) -> List[Any]:
        """Execute every request; results come back in request order."""
        requests = self._accept(requests)
        if not requests:
            return []
        return self._map(requests)

    def map_stream(
        self, requests: Sequence[RunRequest]
    ) -> Iterator[Tuple[int, List[Any]]]:
        """Yield ``(start_index, chunk_results)`` as chunks complete.

        The streaming counterpart of :meth:`map`: the same chunks run on
        the same processes and the ``(index, result)`` pairs are exactly
        :meth:`map`'s — only the *arrival order* varies, since pooled
        executors yield each chunk the moment it finishes.  Callers that
        need request order reassemble via ``start_index`` (see
        :func:`repro.experiments.runner.run_scenario`); by the
        determinism contract the reassembled list is byte-identical to a
        plain ``map`` call.
        """
        requests = self._accept(requests)
        if not requests:
            return iter(())
        return self._map_stream(requests)

    def _accept(self, requests: Sequence[RunRequest]) -> List[RunRequest]:
        """Validate a dispatch and count it into the statistics."""
        requests = list(requests)
        for request in requests:
            if not isinstance(request, RunRequest):
                raise ConfigurationError(
                    f"executors accept RunRequest, got {type(request)!r}"
                )
        self._stats.tasks_submitted += len(requests)
        self._stats.dispatches += 1
        return requests

    def stats(self) -> EngineStats:
        """Lifetime counters (shared reference, updated in place)."""
        return self._stats

    def close(self) -> None:
        """Release any held resources (idempotent)."""

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- helpers for subclasses -------------------------------------------
    def _map(self, requests: List[RunRequest]) -> List[Any]:
        raise NotImplementedError

    def _map_stream(
        self, requests: List[RunRequest]
    ) -> Iterator[Tuple[int, List[Any]]]:
        """Default streaming: one request at a time, in request order."""
        return self._stream_inline([(request,) for request in requests])

    def _chunk_call(self) -> Callable[[Tuple[RunRequest, ...]], Tuple]:
        """``_execute_chunk`` with this executor's retry/chaos knobs bound.

        A :func:`functools.partial` of the module-level function, so it
        pickles under every multiprocessing start method.
        """
        return functools.partial(
            _execute_chunk, policy=self.retry_policy, plan=self.chaos_plan
        )

    def _run_inline(self, chunks: List[Tuple[RunRequest, ...]]) -> List[Any]:
        """Execute chunks in this process, folding in the cache deltas."""
        results: List[Any] = []
        for start, chunk_results in self._stream_inline(chunks):
            results.extend(chunk_results)
        return results

    def _stream_inline(
        self, chunks: List[Tuple[RunRequest, ...]]
    ) -> Iterator[Tuple[int, List[Any]]]:
        """Execute chunks in this process, yielding each as it finishes.

        Journal-aware like every dispatch path: known chunks are served
        from the attached journal, fresh ones are journaled as they
        complete.
        """
        call = self._chunk_call()
        start = 0
        for chunk in chunks:
            cached = self._journal_fetch(chunk)
            if cached is not None:
                yield start, cached
            else:
                output = call(chunk)
                self._fold_output(output)
                self._journal_store(chunk, output)
                yield start, output[0]
            start += len(chunk)

    def _fold(
        self,
        workloads: Tuple[int, int],
        profiles: Tuple[int, int],
        decisions: Tuple[int, int, int, int, int],
        engine: Tuple[int] = (0,),
    ) -> None:
        """Fold one chunk's cache/engine deltas into the statistics.

        ``decisions`` tuples from journals written before the
        profile-delta counters existed carry three entries; the two new
        slots then stay zero.
        """
        self._stats.workloads_reused += workloads[0]
        self._stats.workloads_built += workloads[1]
        self._stats.profile_hits += profiles[0]
        self._stats.profile_misses += profiles[1]
        self._stats.decision_rows_patched += decisions[0]
        self._stats.decision_rows_reused += decisions[1]
        self._stats.decision_scratch_allocs += decisions[2]
        if len(decisions) > 3:
            self._stats.decision_profile_env_reused += decisions[3]
            self._stats.decision_profile_tau_patched += decisions[4]
        self._stats.retries += engine[0]

    def _fold_output(self, chunk_output: Tuple) -> None:
        """Fold one ``_execute_chunk`` output tuple into the statistics."""
        _, workloads, profiles, decisions, engine = chunk_output
        self._fold(workloads, profiles, decisions, engine)

    # -- journal plumbing --------------------------------------------------
    def _journal_fetch(
        self, chunk: Tuple[RunRequest, ...]
    ) -> Optional[List[Any]]:
        """This chunk's journaled results, or ``None`` (counted either way).

        A hit returns results without folding the stored cache deltas —
        no work happened, so the counters must not claim any.  An entry
        that fails to decode (stale format, torn write) is discarded
        and treated as a miss.
        """
        if self.journal is None:
            return None
        key = self.journal.chunk_key(chunk)
        payload = self.journal.get(key)
        if payload is not None:
            output = decode_journal_hit(payload)
            if output is not None:
                self._stats.journal_hits += 1
                return list(output[0])
            self.journal.discard(key)
        self._stats.journal_misses += 1
        return None

    def _journal_store(
        self, chunk: Tuple[RunRequest, ...], chunk_output: Tuple
    ) -> None:
        """Journal one completed chunk's encoded output (best-effort)."""
        if self.journal is not None:
            from .payloads import encode_result

            self.journal.put(
                self.journal.chunk_key(chunk), encode_result(chunk_output)
            )

    def _gather(
        self, stream: Iterator[Tuple[int, List[Any]]], total: int
    ) -> List[Any]:
        """Reassemble a completion-ordered stream into request order."""
        results: List[Any] = [None] * total
        for start, chunk_results in stream:
            results[start:start + len(chunk_results)] = chunk_results
        return results


class SerialExecutor(Executor):
    """Reference path: every request runs here, in submission order."""

    name = "serial"

    def _map(self, requests: List[RunRequest]) -> List[Any]:
        return self._run_inline([tuple(requests)])


class _PooledExecutor(Executor):
    """Shared chunking/validation of the persistent and queue executors.

    ``resilience`` takes :class:`Executor`'s three knobs.
    """

    def __init__(
        self, workers: int = 2, chunk_size: Optional[int] = None, **resilience
    ):
        super().__init__(**resilience)
        if workers < 1:
            raise ConfigurationError(f"workers must be >= 1, got {workers}")
        self.workers = int(workers)
        self.chunk_size = None if chunk_size is None else max(1, int(chunk_size))

    def _chunked(self, requests: List[RunRequest]) -> List[Tuple[RunRequest, ...]]:
        size = (
            default_chunk_size(len(requests), self.workers)
            if self.chunk_size is None
            else self.chunk_size
        )
        return [
            tuple(requests[start:start + size])
            for start in range(0, len(requests), size)
        ]


class PersistentPoolExecutor(_PooledExecutor):
    """A pool kept alive across ``map`` calls (and the workloads with it).

    The first pooled dispatch launches a ``ProcessPoolExecutor``; every
    later one reuses it (counted as ``pool_reuses``), so sweep
    campaigns pay pool start-up once and worker processes keep their
    :data:`~repro.engine.cache.shared_cache` warm across sweep points.
    A single-chunk (or single-worker) dispatch runs inline and never
    forks, so one-shot callers pay no pool cost for trivial work.  Call
    :meth:`close` (or use the executor as a context manager) when the
    campaign is done.
    """

    name = "persistent"

    def __init__(
        self, workers: int = 2, chunk_size: Optional[int] = None, **resilience
    ):
        super().__init__(workers, chunk_size, **resilience)
        self._pool = None

    def _ensure_pool(self):
        """The live pool, launching it on first use (counted either way)."""
        if self._pool is None:
            from concurrent.futures import ProcessPoolExecutor

            self._pool = ProcessPoolExecutor(max_workers=self.workers)
            self._stats.pool_launches += 1
        else:
            self._stats.pool_reuses += 1
        return self._pool

    def _map(self, requests: List[RunRequest]) -> List[Any]:
        return self._gather(self._map_stream(requests), len(requests))

    def _map_stream(
        self, requests: List[RunRequest]
    ) -> Iterator[Tuple[int, List[Any]]]:
        chunks = self._chunked(requests)
        if self.workers == 1 or len(chunks) == 1:
            return self._stream_inline(chunks)
        return _stream_futures(self, self._ensure_pool(), chunks)

    def close(self) -> None:
        """Shut the persistent pool down (idempotent)."""
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None


def resolve_engine(engine: Optional[str], workers: Optional[int]) -> str:
    """The one place that answers "which engine for these knobs?".

    An explicit ``engine`` always wins; otherwise ``workers`` > 1 picks
    ``persistent`` and anything else is serial.
    """
    if engine is not None:
        return engine
    if workers is not None and workers > 1:
        return "persistent"
    return "serial"


@contextmanager
def ensure_executor(
    executor: Optional[Executor] = None,
    *,
    engine: Optional[str] = None,
    workers: Optional[int] = None,
    chunk_size: Optional[int] = None,
    retry_policy: Optional[RetryPolicy] = DEFAULT_RETRY_POLICY,
    chaos_plan: Union[FaultPlan, Dict[str, object], str, None] = None,
    journal: Union[ResultJournal, os.PathLike, str, None] = None,
) -> Iterator[Executor]:
    """Yield a ready executor; own (and close) it only if we made it.

    A caller-supplied ``executor`` is yielded untouched and left open —
    it may have further dispatches coming (the next sweep point, the
    next figure) and carries its own resilience knobs.  Otherwise one is
    created from :func:`resolve_engine`'s rule and closed when the block
    exits.
    """
    if executor is not None:
        yield executor
        return
    owned = create_executor(
        resolve_engine(engine, workers),
        workers=1 if workers is None else workers,
        chunk_size=chunk_size,
        retry_policy=retry_policy,
        chaos_plan=chaos_plan,
        journal=journal,
    )
    try:
        yield owned
    finally:
        owned.close()


def create_executor(
    engine: str = "serial",
    *,
    workers: int = 1,
    chunk_size: Optional[int] = None,
    retry_policy: Optional[RetryPolicy] = DEFAULT_RETRY_POLICY,
    chaos_plan: Union[FaultPlan, Dict[str, object], str, None] = None,
    journal: Union[ResultJournal, os.PathLike, str, None] = None,
) -> Executor:
    """Instantiate an executor by engine name (CLI ``--engine`` values).

    ``queue`` imports lazily (its module imports this one), with its
    self-contained defaults — the queue engine hosts
    its own :class:`~repro.engine.broker.FileBroker` spool and worker
    fleet; build :class:`~repro.engine.queue_exec.QueueExecutor`
    directly to point it at an externally served broker.  The three
    resilience knobs (``retry_policy``, ``chaos_plan``, ``journal``;
    see :class:`Executor`) thread through to every engine.
    """
    resilience = dict(
        retry_policy=retry_policy, chaos_plan=chaos_plan, journal=journal
    )
    if engine == "serial":
        return SerialExecutor(**resilience)
    if engine == "persistent":
        return PersistentPoolExecutor(
            workers=workers, chunk_size=chunk_size, **resilience
        )
    if engine == "queue":
        from .queue_exec import QueueExecutor

        return QueueExecutor(workers=workers, chunk_size=chunk_size, **resilience)
    known = ", ".join(ENGINES)
    raise ConfigurationError(
        f"unknown engine {engine!r}; known engines: {known}"
    )
