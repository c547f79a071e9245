"""Rolling-horizon co-scheduling engine (the service's decision core).

The batch simulator executes one immutable pack.  The online regime
instead sees a *stream* of jobs; the timeline becomes a sequence of
**segments** separated by **epochs**:

* an **epoch** fires on every arrival that can be admitted, every
  cancellation of a running job, and every completion that lets a
  queued job in.  At an epoch at time ``t`` the engine (1) closes the
  current segment, (2) reads the residual workload off the live
  simulator state (:func:`repro.core.progress.residual_workload` — the
  "remaining fractions" of the paper's ``alpha^t_i``), (3) re-runs
  Algorithm 1 over the residual fractions
  (:func:`repro.core.optimal.optimal_schedule` with per-task
  ``alphas``) and (4) commits the new allocation: a task whose count
  moved pays the paper's Eq. 4 redistribution cost plus a fresh
  checkpoint (exactly :func:`repro.core.heuristics.base.apply_move`'s
  arithmetic), a task whose count is unchanged carries its exact
  ``(alpha, t_last)`` state so its execution continues bit-identically;
* a **segment** between epochs is a plain
  :class:`~repro.simulation.simulator.Simulator` run — failures are
  struck, rolled back and rebalanced by the policy's completion/failure
  heuristics precisely as in batch mode (failure epochs are handled
  *inside* the segment by the paper's own machinery).  One
  :class:`~repro.resilience.faults.FaultInjector` is shared across all
  segments, so the failure realisation is continuous and independent of
  where the epoch boundaries fall.

Determinism: the engine never reads a wall clock.  Given the same
(arrival trace, configuration) it produces the same epochs, the same
allocations and the same per-job completion times — the property the
arrival-replay harness (:mod:`repro.service.replay`) pins byte for
byte.  A trace with a single arrival at ``t=0`` degenerates to one
segment whose prologue and event loop are exactly ``Simulator.run``.

Warm state reused across epochs: each running job's Eq. 4
:class:`~repro.resilience.expected_time.TaskGrid` (fault-free times,
checkpoint costs and periods, failure rates and the ``exp`` terms over
the even-``j`` grid) and the Eq. 6 envelope rows stored on it.  A grid
and its rows depend only on the job and the platform, never on the
pack, so the engine builds the grid when the job is submitted (a job
whose grid is inconsistent is refused before it is registered) and
hands the same object to every model built while the job runs — a new
epoch's model reads the rows earlier epochs evaluated instead of
starting cold.  Grid and rows are dropped when the job completes or is
cancelled, so the store holds at most one grid per queued or running
job.  This is the reuse that pays.
:class:`ExpectedTimeModel` instances are also memoised in a
:class:`~repro.engine.cache.WorkloadCache` keyed by the active job
multiset (each with a :class:`~repro.core.kernels.DecisionCache`
:meth:`~repro.core.kernels.DecisionCache.reset` onto the next
segment's array store),
but the multiset changes at almost every epoch: on the 2,000-job
benchmark trace that memo hits ~2.5% of the time.

Work accounting: the Eq. 4 and decision work counters live in the
process-wide :mod:`repro.counters` registry, which every engine (and
any replay) in the process bumps.  Each outermost write call
(``submit``, ``cancel``, ``advance_to``, ``drain``) adds the registry's
growth during the call to :attr:`OnlineEngine.work`, so ``/metrics``
reports this engine's work and no other's.
"""

from __future__ import annotations

import functools
import math
import operator
import time
from array import array
from collections import OrderedDict, deque
from collections.abc import Sequence
from dataclasses import dataclass, fields
from typing import Deque, Dict, List, Optional

from ..cluster import Cluster
from ..core.kernels import DecisionCache
from ..core.optimal import optimal_schedule
from ..core.policy import Policy, get_policy
from ..core.progress import residual_workload
from ..core.redistribution import redistribution_cost
from ..core.state import TaskArrays
from ..counters import COUNTERS, since, snapshot as counter_snapshot
from ..engine.cache import WorkloadCache
from ..exceptions import ConfigurationError
from ..resilience.checkpoint import ResilienceModel
from ..resilience.distributions import ExponentialFaults
from ..resilience.expected_time import ExpectedTimeModel, TaskGrid, even_grid
from ..resilience.faults import FaultInjector, NullFaultInjector
from ..rng import derive_rng
from ..simulation.simulator import Simulator
from ..tasks import Pack, TaskSpec
from ..tasks.speedup import PaperSyntheticProfile

__all__ = ["EpochLog", "JobState", "OnlineEngine"]

#: Job lifecycle states.
QUEUED = "queued"
RUNNING = "running"
COMPLETED = "completed"
CANCELLED = "cancelled"

#: Re-pack latencies kept for the ``/metrics`` percentiles.
LATENCY_WINDOW = 1024


@dataclass(slots=True)
class JobState:
    """Mutable service-side record of one submitted job."""

    job_id: str
    size: float
    checkpoint_cost: float
    arrival: float
    status: str = QUEUED
    admitted_at: Optional[float] = None
    completion_time: Optional[float] = None
    #: Remaining work fraction last banked at a segment boundary (live
    #: jobs mid-segment are fresher than this; see ``OnlineEngine.jobs``).
    alpha_remaining: float = 1.0
    #: Redistribution count: epoch re-pack moves + in-segment heuristic
    #: moves, folded in at segment close.
    redistributions: int = 0
    failures: int = 0
    segments: int = 0

    def describe(self) -> Dict[str, object]:
        """JSON-safe view of this job."""
        return {name: getattr(self, name) for name in _JOB_FIELDS}


_JOB_FIELDS = tuple(f.name for f in fields(JobState))


def _shared(ids: Sequence[str], prev: Optional[tuple]) -> tuple:
    """``tuple(ids)``, or ``prev`` when it is equal."""
    ids = tuple(ids)
    return prev if prev == ids else ids


class EpochLog(Sequence):
    """The engine's epoch history, stored by column.

    One canonical record per epoch (the replay pin's unit)::

        {"t", "trigger", "order", "admitted", "sigma", "alphas",
         "t_last", "rc_paid", "moves", "queued"}

    Records are not kept as dicts: per-epoch scalars sit in typed
    arrays, every epoch's processor counts in one ``int64`` array and
    its residual fractions then start times (re-pack epochs only) in
    one ``float64`` array, and the job ids in shared tuples (an epoch
    whose ids equal the previous epoch's keeps a reference to them).
    Reads rebuild the records: indexing and slicing build the ones
    asked for, and iteration (so ``list(log)``) builds all of them in
    one pass with one ``tolist()`` per array.  A rebuilt record equals
    the dict the engine would have kept, value for value and type for
    type: ``order``/``alphas``/``t_last`` are None on an epoch without
    a re-pack.
    """

    __slots__ = (
        "_t", "_rc_paid", "_moves", "_sigma_at", "_floats_at",
        "_sigma", "_floats",
        "_trigger", "_order", "_keys", "_admitted", "_queued",
    )

    def __init__(self) -> None:
        self._t = array("d")
        self._rc_paid = array("d")
        self._moves = array("q")
        # Where each epoch's values start in _sigma and _floats.
        self._sigma_at = array("q")
        self._floats_at = array("q")
        self._sigma = array("q")
        self._floats = array("d")
        self._trigger: List[str] = []
        self._order: List[Optional[tuple]] = []
        self._keys: List[tuple] = []     #: job ids of each epoch's sigma
        self._admitted: List[tuple] = []
        self._queued: List[tuple] = []

    def append(
        self,
        t: float,
        trigger: str,
        admitted: Sequence[str],
        queued: Sequence[str],
        rc_paid: float,
        moves: int,
        keys: Sequence[str],
        sigma: Sequence[int],
        order: Optional[Sequence[str]] = None,
        alphas: Sequence[float] = (),
        t_last: Sequence[float] = (),
    ) -> None:
        """Record one epoch: ``sigma[k]`` is job ``keys[k]``'s count;
        a re-pack epoch also gives its ``order`` and, per job of it, the
        residual fraction and start time."""
        prev_keys, prev_queued = (
            (self._keys[-1], self._queued[-1]) if self._keys else (None, None)
        )
        keys = _shared(keys, prev_keys)
        queued = _shared(queued, prev_queued)
        self._t.append(t)
        self._rc_paid.append(rc_paid)
        self._moves.append(moves)
        self._sigma_at.append(len(self._sigma))
        self._floats_at.append(len(self._floats))
        self._sigma.extend(sigma)
        self._trigger.append(trigger)
        self._keys.append(keys)
        self._admitted.append(tuple(admitted))
        self._queued.append(queued)
        if order is None:
            self._order.append(None)
        else:
            self._order.append(_shared(order, keys))
            self._floats.extend(alphas)
            self._floats.extend(t_last)

    def __len__(self) -> int:
        return len(self._t)

    def __getitem__(self, index):
        n = len(self._t)
        if isinstance(index, slice):
            lo, hi, step = index.indices(n)
            if step == 1:
                return self._records(lo, hi)
            return [self._records(i, i + 1)[0] for i in range(lo, hi, step)]
        i = operator.index(index)
        if i < 0:
            i += n
        if not 0 <= i < n:
            raise IndexError("epoch index out of range")
        return self._records(i, i + 1)[0]

    def __iter__(self):
        return iter(self._records(0, len(self._t)))

    def _records(self, lo: int, hi: int) -> List[Dict[str, object]]:
        """The records of epochs ``lo..hi-1`` (none when ``hi <= lo``)."""
        if lo >= hi:
            return []
        end = hi < len(self._t)
        # zip() stops at its first argument's end before it draws from
        # the next, so each dict takes exactly its own epoch's values.
        sigma = iter(self._sigma[
            self._sigma_at[lo]:self._sigma_at[hi] if end else len(self._sigma)
        ].tolist())
        floats = iter(self._floats[
            self._floats_at[lo]:self._floats_at[hi] if end else len(self._floats)
        ].tolist())
        records = []
        for t, trigger, order, keys, admitted, queued, rc_paid, moves in zip(
            self._t[lo:hi].tolist(),
            self._trigger[lo:hi],
            self._order[lo:hi],
            self._keys[lo:hi],
            self._admitted[lo:hi],
            self._queued[lo:hi],
            self._rc_paid[lo:hi].tolist(),
            self._moves[lo:hi].tolist(),
        ):
            if order is None:
                alphas = t_last = None
            else:
                alphas = dict(zip(order, floats))
                t_last = dict(zip(order, floats))
                order = list(order)
            records.append(
                {
                    "t": t,
                    "trigger": trigger,
                    "order": order,
                    "admitted": list(admitted),
                    "sigma": dict(zip(keys, sigma)),
                    "alphas": alphas,
                    "t_last": t_last,
                    "rc_paid": rc_paid,
                    "moves": moves,
                    "queued": list(queued),
                }
            )
        return records


@dataclass
class _EngineCounters:
    """Aggregate event bookkeeping folded over closed segments."""

    events: int = 0
    failures_effective: int = 0
    failures_idle: int = 0
    failures_masked: int = 0
    #: Failures that fell into a window with no running pack at all.
    failures_idle_window: int = 0
    epochs: int = 0
    segments_closed: int = 0
    repack_moves: int = 0
    rc_paid: float = 0.0
    models_built: int = 0
    models_reused: int = 0
    decision_caches_built: int = 0
    decision_caches_reused: int = 0
    completions: int = 0
    cancellations: int = 0
    submissions: int = 0

    def as_dict(self) -> Dict[str, object]:
        return dict(vars(self))


def _counts_work(method):
    """Add the :mod:`repro.counters` growth during an outermost write
    call to ``engine.work``: the engine's own profile and decision work,
    which another engine in the same process never sees."""

    @functools.wraps(method)
    def counted(self, *args, **kwargs):
        if self._work_before is not None:  # nested: the outer call counts
            return method(self, *args, **kwargs)
        self._work_before = counter_snapshot()
        try:
            return method(self, *args, **kwargs)
        finally:
            for name, delta in since(self._work_before).items():
                self.work[name] += delta
            self._work_before = None

    return counted


class OnlineEngine:
    """Rolling-horizon scheduler over a stream of jobs.

    Parameters mirror the batch :class:`Simulator` where they overlap;
    the engine owns the fault injector (one continuous per-processor
    stream derived from ``(seed, "faults")``, shared by every segment)
    and a :class:`~repro.engine.cache.WorkloadCache` of expected-time
    models keyed by the active job multiset.

    The engine is single-threaded by design — the session layer
    (:class:`repro.service.session.ServiceSession`) serialises access.
    """

    def __init__(
        self,
        cluster: Cluster,
        policy: Policy | str = "ig-el",
        *,
        seed: int = 0,
        inject_faults: bool = True,
    ):
        self.cluster = cluster
        self.policy = get_policy(policy) if isinstance(policy, str) else policy
        self.seed = int(seed)
        self.inject_faults = bool(inject_faults)
        # The paper's model: exponential faults, Young periods, the
        # synthetic speedup profile.
        self._distribution = ExponentialFaults(cluster.mtbf)
        self._resilience = ResilienceModel(cluster)
        self._profile = PaperSyntheticProfile()
        self._models = WorkloadCache()
        # One decision cache per memoised model, reset()-reused across
        # segments (bounded alongside the model memo).
        self._dcaches: "OrderedDict[tuple, DecisionCache]" = OrderedDict()
        # Eq. 4 grid of each live job (module docstring: warm state).
        self._j_grid = even_grid(cluster.processors)
        self._grids: Dict[str, TaskGrid] = {}
        if self.inject_faults:
            self._injector: FaultInjector | NullFaultInjector = FaultInjector(
                cluster.processors,
                self._distribution,
                derive_rng(self.seed, "faults"),
            )
        else:
            self._injector = NullFaultInjector()

        self._now = 0.0
        self._sim: Optional[Simulator] = None
        self._order: List[str] = []      #: job ids at pack indices 0..n-1
        self._queue: List[str] = []      #: admission FIFO (job ids)
        self.jobs: Dict[str, JobState] = {}
        self.epochs = EpochLog()
        self.counters = _EngineCounters()
        #: This engine's share of the :mod:`repro.counters` registry,
        #: summed over its write calls (``/metrics`` reports it).
        self.work: Dict[str, int] = dict.fromkeys(COUNTERS, 0)
        self._work_before: Optional[Dict[str, int]] = None
        #: Wall-clock decision latencies (telemetry only — never part of
        #: the canonical replay output, which must be clock-free).
        self.decision_latencies: Deque[float] = deque(maxlen=LATENCY_WINDOW)

    # -- read-side -----------------------------------------------------------
    @property
    def now(self) -> float:
        """The engine's current (virtual) time."""
        return self._now

    @property
    def active_jobs(self) -> List[str]:
        """Job ids currently running, in pack order."""
        return [
            jid for jid in self._order if self.jobs[jid].status == RUNNING
        ]

    @property
    def queued_jobs(self) -> List[str]:
        """Job ids waiting for admission, FIFO."""
        return list(self._queue)

    @property
    def idle(self) -> bool:
        """True when no job is running or queued."""
        return self._sim is None and not self._queue

    def job_view(self, job: JobState) -> Dict[str, object]:
        """``job.describe()`` refreshed with live in-segment state."""
        doc = job.describe()
        if job.status == RUNNING and self._sim is not None:
            try:
                idx = self._order.index(job.job_id)
            except ValueError:  # pragma: no cover - defensive
                return doc
            rt = self._sim.runtimes[idx]
            doc["sigma"] = rt.sigma
            doc["redistributions"] = job.redistributions + rt.redistributions
            doc["failures"] = job.failures + rt.failures
            doc["alpha_remaining"] = rt.alpha
        return doc

    def schedule_view(self) -> Dict[str, object]:
        """The live allocation: ``{job_id: processor count}`` plus queue."""
        sigma: Dict[str, int] = {}
        if self._sim is not None:
            for idx, jid in enumerate(self._order):
                rt = self._sim.runtimes[idx]
                if not rt.completed:
                    sigma[jid] = rt.sigma
        return {
            "now": self._now,
            "sigma": sigma,
            "queued": list(self._queue),
            "epoch_count": self.counters.epochs,
            "last_epoch": self.epochs[-1] if self.epochs else None,
        }

    def makespan(self) -> float:
        """Latest completion time seen so far (0 when none)."""
        times = [
            job.completion_time
            for job in self.jobs.values()
            if job.completion_time is not None
        ]
        return max(times) if times else 0.0

    # -- write-side ----------------------------------------------------------
    @_counts_work
    def submit(
        self,
        job_id: str,
        size: float,
        checkpoint_cost: Optional[float] = None,
        *,
        now: Optional[float] = None,
    ) -> JobState:
        """Accept a job at time ``now``; admit it if capacity allows.

        An admissible arrival triggers an epoch: the whole residual
        workload (existing actives at their remaining fractions, the
        newcomer at fraction 1) is re-packed.  When the platform is full
        (``2 (n_active + 1) > p``) the job waits in FIFO order and the
        running pack is left untouched.
        """
        # Validate everything before any state changes: a rejected
        # submit must leave no job behind and the clock where it was.
        if job_id in self.jobs:
            raise ConfigurationError(f"duplicate job id {job_id!r}")
        size = float(size)
        if not (math.isfinite(size) and size > 0):
            raise ConfigurationError(
                f"job size must be positive and finite, got {size}"
            )
        # Unit checkpoint cost by default: C = size.
        ckpt = size if checkpoint_cost is None else float(checkpoint_cost)
        if not (math.isfinite(ckpt) and ckpt >= 0):
            raise ConfigurationError(
                f"checkpoint cost must be finite and >= 0, got {ckpt}"
            )
        # The job's Eq. 4 grid is a pure function of its spec: build it
        # now, so a grid TaskGrid.build refuses rejects the submit.
        try:
            grid = TaskGrid.build(
                TaskSpec(
                    index=0, size=size, checkpoint_cost=ckpt,
                    profile=self._profile, name=job_id,
                ),
                self._j_grid, self._resilience, self.cluster.downtime,
            )
        except ConfigurationError as exc:
            raise ConfigurationError(f"{exc} (job size {size:g})") from None
        t = self._now if now is None else float(now)
        self.advance_to(t)
        job = JobState(
            job_id=job_id, size=size, checkpoint_cost=ckpt, arrival=t
        )
        self._grids[job_id] = grid
        self.jobs[job_id] = job
        self._queue.append(job_id)
        self.counters.submissions += 1
        n_active = len(self.active_jobs)
        if 2 * (n_active + 1) <= self.cluster.processors:
            self._repack(t, "arrival")
        else:
            self._record_epoch(t, "arrival", admitted=[], rc_paid=0.0, moves=0)
        return job

    @_counts_work
    def cancel(self, job_id: str, *, now: Optional[float] = None) -> bool:
        """Withdraw a job; returns False when it is not queued/running.

        Cancelling a *running* job is a departure epoch: its processors
        free up and the survivors (plus any admissible queued jobs) are
        re-packed over their residual fractions.
        """
        t = self._now if now is None else float(now)
        self.advance_to(t)
        job = self.jobs.get(job_id)
        if job is None or job.status in (COMPLETED, CANCELLED):
            return False
        del self._grids[job_id]
        if job.status == QUEUED:
            self._queue.remove(job_id)
            job.status = CANCELLED
            self.counters.cancellations += 1
            self._record_epoch(t, "cancel", admitted=[], rc_paid=0.0, moves=0)
            return True
        job.status = CANCELLED
        self.counters.cancellations += 1
        self._repack(t, "cancel")
        return True

    @_counts_work
    def advance_to(self, t: float) -> None:
        """Process every event up to time ``t`` (the service's pump).

        Completions that free capacity while jobs wait trigger admission
        epochs; failures are consumed inside the running segment by the
        policy heuristics.  Monotone: ``t`` may not precede the engine's
        current time.
        """
        t = float(t)
        if t < self._now:
            raise ConfigurationError(
                f"engine time cannot move backwards: {t} < {self._now}"
            )
        while self._sim is not None:
            t_next = self._sim.next_event_time()
            if t_next > t:
                break
            event = self._sim.step()
            if event is None:  # pragma: no cover - defensive
                break
            ev_t, kind, idx = event
            if kind != "completion":
                continue
            jid = self._order[idx]
            job = self.jobs[jid]
            job.status = COMPLETED
            del self._grids[jid]
            job.completion_time = ev_t
            job.alpha_remaining = 0.0
            self.counters.completions += 1
            if self._sim.tasks_remaining == 0:
                self._close_segment()
                self._sim = None
                self._order = []
                if self._queue:
                    self._repack(ev_t, "completion")
            elif self._queue:
                self._repack(ev_t, "completion")
        if self._sim is None:
            self._drain_idle_failures(t)
        self._now = t

    @_counts_work
    def drain(self) -> float:
        """Run every accepted job to completion; returns the final time.

        The graceful-shutdown path: no new submissions are assumed, the
        queue empties through completion-admission epochs, and the last
        segment runs dry.
        """
        while self._sim is not None:
            t_next = self._sim.next_event_time()
            self.advance_to(t_next)
        return self._now

    # -- internals -----------------------------------------------------------
    def _drain_idle_failures(self, t: float) -> None:
        """Consume failures striking an empty platform (all idle)."""
        t_fail, _ = self._injector.peek()
        while t_fail < t:
            self._injector.pop()
            self.counters.failures_idle_window += 1
            t_fail, _ = self._injector.peek()

    def _close_segment(self) -> None:
        """Fold the live segment's per-task and event counters."""
        sim = self._sim
        if sim is None:
            return
        for idx, rt in enumerate(sim.runtimes):
            job = self.jobs[self._order[idx]]
            job.redistributions += rt.redistributions
            job.failures += rt.failures
            job.segments += 1
            if not rt.completed and job.status == RUNNING:
                job.alpha_remaining = rt.alpha
        seg = sim._counters
        self.counters.events += seg["events"]
        self.counters.failures_effective += seg["effective"]
        self.counters.failures_idle += seg["idle"]
        self.counters.failures_masked += seg["masked"]
        self.counters.segments_closed += 1

    def _model_key(self, pack: Pack) -> tuple:
        return (
            "service-model",
            tuple((spec.size, spec.checkpoint_cost) for spec in pack),
            self.cluster.processors,
            self.cluster.mtbf,
            self.cluster.downtime,
        )

    def _model_for(self, key: tuple, pack: Pack) -> ExpectedTimeModel:
        misses = self._models.misses

        def build() -> ExpectedTimeModel:
            return ExpectedTimeModel(
                pack,
                self.cluster,
                resilience=self._resilience,
                grids=[self._grids[spec.name] for spec in pack],
            )

        model = self._models.get_or_build(key, build)
        built = self._models.misses - misses  # one lookup: 1 on a miss
        self.counters.models_built += built
        self.counters.models_reused += 1 - built
        return model

    def _decision_cache_for(
        self, key: tuple, model: ExpectedTimeModel, arrays: TaskArrays
    ) -> DecisionCache:
        cache = self._dcaches.get(key)
        if cache is not None and cache.model is model:
            self._dcaches.move_to_end(key)
            cache.reset(arrays)
            self.counters.decision_caches_reused += 1
            return cache
        cache = DecisionCache(model, arrays)
        self._dcaches[key] = cache
        self.counters.decision_caches_built += 1
        while len(self._dcaches) > self._models.capacity:
            self._dcaches.popitem(last=False)
        return cache

    def _repack(self, t: float, trigger: str) -> None:
        """Epoch: close the segment, re-pack residuals, resume."""
        started = time.perf_counter()
        p = self.cluster.processors
        residuals: Dict[str, object] = {}
        carried: Dict[str, tuple] = {}
        if self._sim is not None:
            sim = self._sim
            runtimes = sim.runtimes
            for idx, res in residual_workload(sim.arrays, t).items():
                jid = self._order[idx]
                residuals[jid] = res
                carried[jid] = (runtimes[idx].alpha, runtimes[idx].t_last)
            self._close_segment()
            self._sim = None
        else:
            self._drain_idle_failures(t)

        active = [
            jid for jid in self._order if self.jobs[jid].status == RUNNING
        ]
        admitted: List[str] = []
        while self._queue and 2 * (len(active) + len(admitted) + 1) <= p:
            admitted.append(self._queue.pop(0))
        order = active + admitted
        if not order:
            self._order = []
            self._record_epoch(
                t, trigger, admitted=admitted, rc_paid=0.0, moves=0
            )
            self.decision_latencies.append(time.perf_counter() - started)
            return

        specs = [
            TaskSpec(
                index=i,
                size=self.jobs[jid].size,
                checkpoint_cost=self.jobs[jid].checkpoint_cost,
                profile=self._profile,
                name=jid,
            )
            for i, jid in enumerate(order)
        ]
        pack = Pack(specs)
        key = self._model_key(pack)
        model = self._model_for(key, pack)
        alphas_dec = [
            residuals[jid].alpha if jid in residuals else 1.0 for jid in order
        ]
        sigma = optimal_schedule(model, p, alphas=alphas_dec)

        alphas0: List[float] = []
        t_last0: List[float] = []
        rc_paid = 0.0
        moves = 0
        for i, jid in enumerate(order):
            job = self.jobs[jid]
            if jid in residuals:
                res = residuals[jid]
                if sigma[i] == res.sigma:
                    # Unchanged allocation: the task continues its
                    # periodic pattern bit-exactly.
                    alpha0, tl0 = carried[jid]
                    alphas0.append(alpha0)
                    t_last0.append(tl0)
                else:
                    # Moved allocation: Eq. 4 redistribution cost plus a
                    # fresh checkpoint, after any unserved blackout —
                    # apply_move's arithmetic at the epoch boundary.
                    rc = model.rc_factor * redistribution_cost(
                        specs[i].size, res.sigma, sigma[i]
                    )
                    alphas0.append(res.alpha)
                    t_last0.append(
                        t + res.stall + rc + model.checkpoint_cost(i, sigma[i])
                    )
                    rc_paid += rc
                    moves += 1
                    job.redistributions += 1
            else:
                job.status = RUNNING
                job.admitted_at = t
                alphas0.append(1.0)
                t_last0.append(t)

        sim = Simulator(
            pack,
            self.cluster,
            self.policy,
            seed=self.seed,
            inject_faults=self.inject_faults,
            fault_distribution=self._distribution,
            model=model,
        )
        sim.start(
            t0=t,
            sigma0=sigma,
            alphas=alphas0,
            t_last=t_last0,
            injector=self._injector,
        )
        cache = self._decision_cache_for(key, model, sim.arrays)
        sim._make_decision_cache = lambda: cache  # type: ignore[method-assign]
        self._sim = sim
        self._order = order
        self.counters.repack_moves += moves
        self.counters.rc_paid += rc_paid
        self._record_epoch(
            t,
            trigger,
            admitted=admitted,
            rc_paid=rc_paid,
            moves=moves,
            order=order,
            sigma=[sigma[i] for i in range(len(order))],
            alphas=alphas_dec,
            t_last=t_last0,
        )
        self.decision_latencies.append(time.perf_counter() - started)

    def _record_epoch(
        self,
        t: float,
        trigger: str,
        *,
        admitted: List[str],
        rc_paid: float,
        moves: int,
        order: Optional[List[str]] = None,
        sigma: Sequence[int] = (),
        alphas: Sequence[float] = (),
        t_last: Sequence[float] = (),
    ) -> None:
        """Append one canonical epoch record (the replay pin's unit).

        A re-pack passes its ``order`` and, per job of it, the new
        count, residual fraction and start time; any other epoch records
        the running pack's counts."""
        keys: Sequence[str] = order if order is not None else []
        if order is None and self._sim is not None:
            keys, sigma = [], []
            for jid, rt in zip(self._order, self._sim.runtimes):
                if not rt.completed:
                    keys.append(jid)
                    sigma.append(rt.sigma)
        self.counters.epochs += 1
        self.epochs.append(
            t, trigger, admitted, self._queue, rc_paid, moves, keys, sigma,
            order, alphas, t_last,
        )

    # -- telemetry -----------------------------------------------------------
    def metrics(self) -> Dict[str, object]:
        """Engine-level counters for ``/metrics`` (JSON-safe)."""
        by_status = {QUEUED: 0, RUNNING: 0, COMPLETED: 0, CANCELLED: 0}
        for job in self.jobs.values():
            by_status[job.status] += 1
        doc: Dict[str, object] = {
            "now": self._now,
            "jobs_total": len(self.jobs),
            "jobs_by_status": by_status,
            "queue_depth": len(self._queue),
            "active_pack_size": len(self.active_jobs),
            "makespan": self.makespan(),
            "model_cache": self._models.cache_info(),
            "task_grids": len(self._grids),
            "envelope_rows": sum(
                len(grid.envelopes) for grid in self._grids.values()
            ),
        }
        doc.update(self.counters.as_dict())
        return doc
