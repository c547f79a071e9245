"""Fault-injection discrete-event simulator (Algorithm 2, Section 5.1).

The simulator advances through two kinds of events:

* **task completions** — deterministic fault-free projections
  ``tlastR + alpha t_ff + N^ff C`` of each running task, pre-empted by
  failures (DESIGN.md interpretation 3);
* **processor failures** — drawn by the per-processor fault injector.

On a completion the released processors are redistributed by the policy's
*completion heuristic* (Alg. 2 line 20).  On a failure the struck task is
rolled back to its last checkpoint and pays ``D + R`` (lines 23-26); tasks
projected to finish before the struck task resumes are released early
(line 28); and if the struck task became the longest one the policy's
*failure heuristic* rebalances the pack (lines 30-31).  Tasks still busy
recovering or redistributing are excluded from rebalancing (line 15).

Failures hitting an idle processor, or a task inside its blackout window
(downtime/recovery/redistribution — Section 6.1), are recorded but have no
effect.
"""

from __future__ import annotations

import copy
import math
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..cluster import Cluster, ProcessorMap
from ..core.kernels import DecisionCache
from ..core.optimal import optimal_schedule
from ..core.policy import Policy, get_policy
from ..core.progress import (
    projected_finish,
    projected_finishes,
    remaining_after_failure_from_values,
)
from ..core.state import TaskArrays, TaskRuntime
from ..exceptions import SimulationError
from ..resilience.checkpoint import ResilienceModel
from ..resilience.distributions import ExponentialFaults, FaultDistribution
from ..resilience.expected_time import ExpectedTimeModel
from ..resilience.faults import FaultInjector, NullFaultInjector
from ..rng import derive_rng
from ..tasks import Pack
from .events import CompletionQueue
from .result import SimulationResult
from .trace import EventKind, NullRecorder, TraceRecorder

__all__ = ["Simulator", "simulate"]


class Simulator:
    """One pack execution on a failure-prone platform.

    Parameters
    ----------
    pack:
        The tasks to co-schedule.
    cluster:
        The platform.
    policy:
        A :class:`~repro.core.policy.Policy` or its short name
        (``"ig-el"``, ``"no-redistribution"``, ...).
    seed:
        Replicate seed; fault times derive from ``(seed, "faults")`` so
        different policies see identical failures (common random numbers).
    inject_faults:
        ``False`` gives the paper's *fault-free context* (checkpointing
        overhead is kept — DESIGN.md interpretation 6).
    fault_distribution:
        Defaults to the paper's exponential law at the cluster MTBF.
    model:
        Optional pre-built :class:`ExpectedTimeModel` (shared across
        replicates of the same pack to amortise the grids).
    record_trace:
        Capture the Fig. 9 series and a full event log.

    Besides one :class:`~repro.core.state.TaskRuntime` per task, a
    started simulator keeps one vector store, :attr:`arrays`.  A task's
    row is written at the failure rollback and the post-heuristic
    commit, where the task's decision-cache rows are invalidated too;
    ``live`` flips false at completion and early release, never back.
    Everything vectorised reads the store: the per-failure path of
    Algorithm 2 (rollback, line 28 early-release scan, line 30
    is-longest test, Fig. 9 snapshot), the completion queue, and the
    Algorithm 3-5 decisions through one persistent
    :class:`~repro.core.kernels.DecisionCache` that delta-patches only
    the invalidated candidate-matrix rows.  :class:`repro.oracle.
    ReferenceSimulator` overrides the per-failure steps with the
    seed-literal scans over the runtimes.  ``strict=True`` validates the
    processor map and checks the store against the runtimes
    (:meth:`~repro.core.state.TaskArrays.check`) after every event.

    :meth:`fork` copies a started simulator's mutable state — runtimes,
    store, processor map, fault injector and counters — under another
    policy.  Paired series that invoke the same
    heuristics up to some event share that prefix: the experiments
    layer steps one simulator through it and forks where the series
    diverge (:func:`repro.experiments.runner._run_replicate`).
    """

    def __init__(
        self,
        pack: Pack,
        cluster: Cluster,
        policy: Policy | str = "no-redistribution",
        *,
        seed: int = 0,
        inject_faults: bool = True,
        fault_distribution: Optional[FaultDistribution] = None,
        resilience: Optional[ResilienceModel] = None,
        model: Optional[ExpectedTimeModel] = None,
        record_trace: bool = False,
        strict: bool = False,
    ):
        self.pack = pack
        self.cluster = cluster
        self.policy = get_policy(policy) if isinstance(policy, str) else policy
        self.seed = int(seed)
        self.inject_faults = bool(inject_faults)
        self.model = (
            model if model is not None
            else ExpectedTimeModel(pack, cluster, resilience=resilience)
        )
        self._distribution = (
            fault_distribution
            if fault_distribution is not None
            else ExponentialFaults(cluster.mtbf)
        )
        self._recorder = TraceRecorder() if record_trace else NullRecorder()
        # Cached: the per-failure handlers guard their event calls on it
        # (a NullRecorder call still builds its f-string detail).
        self._rec_enabled = self._recorder.enabled
        self._strict = bool(strict)
        self._cache: Optional[DecisionCache] = None
        self._runtimes: Optional[List[TaskRuntime]] = None

    # ------------------------------------------------------------------
    def _make_decision_cache(self) -> DecisionCache:
        """The run's persistent decision state (overridable for tests)."""
        return DecisionCache(self.model, self._arrays)

    def _decision_cache(self) -> Optional[DecisionCache]:
        """The run's decision cache, built at its first decision.

        A fresh cache holds no valid row, so building it late (or afresh
        in a fork) serves the same matrices as one that saw every event
        (``DecisionCache`` invariant 1).
        """
        if self._cache is None:
            self._cache = self._make_decision_cache()
        return self._cache

    def start(
        self,
        *,
        t0: float = 0.0,
        sigma0: Optional[Dict[int, int]] = None,
        alphas: Optional[Sequence[float]] = None,
        t_last: Optional[Sequence[float]] = None,
        injector: Optional[FaultInjector | NullFaultInjector] = None,
    ) -> None:
        """Initialise the event loop without running it.

        The default call (``start()``) reproduces the ``run()`` prologue
        bit for bit.  The keyword overrides exist for the rolling-horizon
        service (:mod:`repro.service`), which resumes residual workloads
        mid-timeline:

        * ``t0`` — the segment origin (arrivals/epochs happen at nonzero
          times);
        * ``sigma0`` — a pre-computed initial allocation (the online
          re-pack decides it from residual fractions; must cover every
          task);
        * ``alphas`` / ``t_last`` — per-task remaining fractions and
          pattern-restart times carried over from the previous segment
          (defaults: full work, released at ``t0``);
        * ``injector`` — a fault injector shared across segments so the
          failure trace is continuous regardless of epoch boundaries.
        """
        pack, cluster, model = self.pack, self.cluster, self.model
        n, p = len(pack), cluster.processors

        # One decision cache per run, built at the first decision: every
        # later decision point delta-patches it instead of rebuilding the
        # candidate matrix.
        self._cache = None

        runtimes = [TaskRuntime(spec) for spec in pack]
        if sigma0 is None:
            sigma0 = self._initial_sigma()
        elif set(sigma0) != set(range(n)):
            raise SimulationError(
                "sigma0 must assign every task exactly once"
            )
        procs = ProcessorMap(p)

        order = list(sigma0)
        counts = list(sigma0.values())
        for i, count in zip(order, counts):
            rt = runtimes[i]
            rt.assign(count)
            if alphas is not None:
                rt.alpha = float(alphas[i])
            if t_last is not None:
                rt.t_last = float(t_last[i])
            elif t0 != 0.0:
                rt.t_last = t0
        # assign() admits only 0 or even counts >= 2, and every grid of a
        # model spans the same even j, so slot() of the smallest and the
        # largest count checks them all (CapacityError off the grid).
        grid = model.grid(order[0])
        grid.slot(min(counts))
        grid.slot(max(counts))
        arrays = TaskArrays.gather(model, runtimes)
        # Every initial envelope in one batched evaluation; row ``pos``
        # is bit-identical to ``profile(order[pos], alpha)``.
        idx = np.array(order)
        rows = model.profile_matrix(order, arrays.alpha[idx])
        slots = (arrays.sigma[idx] >> 1) - 1
        arrays.t_expected[idx] = arrays.t_last[idx] + rows[np.arange(n), slots]
        for rt, value in zip(runtimes, arrays.t_expected.tolist()):
            rt.t_expected = value
        procs.acquire_all(sigma0)

        if injector is not None:
            self._injector: FaultInjector | NullFaultInjector = injector
        elif self.inject_faults:
            self._injector = FaultInjector(
                p, self._distribution, derive_rng(self.seed, "faults")
            )
        else:
            self._injector = NullFaultInjector()

        arrays.finish[:] = projected_finishes(
            arrays.t_last, arrays.alpha, arrays.t_ff, arrays.tau, arrays.cost
        )
        finish = CompletionQueue(arrays)
        # Completion bookkeeping is accumulated event by event instead of
        # being re-derived from the runtimes after the loop.
        self._runtimes = runtimes
        self._arrays = arrays
        self._scratch = np.empty(n, dtype=bool)
        self._procs = procs
        self._sigma0 = sigma0
        self._finish = finish
        self._counters = {"effective": 0, "idle": 0, "masked": 0, "events": 0}
        self._completion_times = np.full(n, math.nan)
        self._makespan = 0.0
        self._remaining = n
        self._t_now = t0

    def _initial_sigma(self) -> Dict[int, int]:
        """Algorithm 1 over the whole pack (the default ``sigma0``)."""
        return optimal_schedule(self.model, self.cluster.processors)

    def _require_started(self) -> None:
        if self._runtimes is None:
            raise SimulationError("start() must be called before stepping")

    @property
    def runtimes(self) -> List[TaskRuntime]:
        """The live per-task states (valid after :meth:`start`)."""
        self._require_started()
        return self._runtimes

    @property
    def arrays(self) -> TaskArrays:
        """The run's per-task vector store (valid after :meth:`start`)."""
        self._require_started()
        return self._arrays

    @property
    def now(self) -> float:
        """Time of the last processed event (``t0`` before any event)."""
        self._require_started()
        return self._t_now

    @property
    def tasks_remaining(self) -> int:
        """Uncompleted tasks left in the pack."""
        self._require_started()
        return self._remaining

    def next_event_time(self) -> float:
        """Time of the next pending event (``inf`` when none remain)."""
        self._require_started()
        if self._remaining <= 0:
            return math.inf
        t_comp, _ = self._finish.peek()
        t_fail, _ = self._injector.peek()
        return t_comp if t_comp <= t_fail else t_fail

    def next_decision(self) -> Optional[str]:
        """The heuristic kind the next event may invoke.

        ``"completion"`` or ``"failure"`` when the next event reaches
        that heuristic slot of the policy; ``None`` when it cannot call
        any heuristic under any policy — an early-released task's
        completion, a failure of an idle processor or one masked by a
        blackout window (the handlers' own early returns) — or when no
        event is left.  Two simulators in the same state and with
        policies that agree on the returned slot process the next event
        identically.
        """
        self._require_started()
        if self._remaining <= 0:
            return None
        t_comp, i_comp = self._finish.peek()
        t_fail, proc = self._injector.peek()
        if t_comp <= t_fail:
            if t_comp == math.inf or self._arrays.released[i_comp]:
                return None
            return "completion"
        owner = self._procs.owner_of(proc)
        if owner is None:
            return None
        rt = self._runtimes[owner]
        if rt.completed or rt.busy_at(t_fail) or self._arrays.released[owner]:
            return None
        return "failure"

    def step(self) -> Optional[Tuple[float, str, int]]:
        """Process the single next event.

        Returns ``(t, "completion", task)`` or ``(t, "failure", proc)``,
        or ``None`` once the pack is complete.  It runs the loop of
        :meth:`advance` for one event, so a stepped execution is
        bit-identical to an advanced one.
        """
        self._require_started()
        if self._remaining <= 0:
            return None
        self._loop(math.inf, 1)
        return self._last_event

    def advance(self, until: float = math.inf) -> int:
        """Process events up to and including time ``until``.

        Returns the number of events processed.  ``advance()`` with the
        default horizon drains the pack to completion — together with
        :meth:`start` and :meth:`result` it *is* ``run()``.
        """
        self._require_started()
        return self._loop(until, 0)

    def _loop(self, until: float, limit: int) -> int:
        """The event loop: stop past ``until`` or after ``limit`` events
        (``0`` = no limit); the last event is kept for :meth:`step`."""
        runtimes = self._runtimes
        procs = self._procs
        finish = self._finish
        injector = self._injector
        counters = self._counters
        completion_times = self._completion_times
        strict = self._strict
        processed = 0
        while self._remaining > 0:
            t_comp, i_comp = finish.peek()
            t_fail, _ = injector.peek()
            if t_comp == math.inf and t_fail == math.inf:
                raise SimulationError("no events left but tasks remain")
            completion = t_comp <= t_fail
            if (t_comp if completion else t_fail) > until:
                break
            counters["events"] += 1

            if completion:
                self._handle_completion(t_comp, i_comp, runtimes, procs, finish)
                completion_times[i_comp] = t_comp
                if t_comp > self._makespan:
                    self._makespan = t_comp
                self._remaining -= 1
                self._t_now = t_comp
                who = i_comp
            else:
                t_fail, who = injector.pop()
                self._handle_failure(
                    t_fail, who, runtimes, procs, finish, counters
                )
                self._t_now = t_fail
            if strict:
                procs.validate()
                self._arrays.check(runtimes)
            processed += 1
            if processed == limit:
                break
        if processed:
            self._last_event = (
                self._t_now, "completion" if completion else "failure", who
            )
        return processed

    def result(self) -> SimulationResult:
        """Snapshot the accumulated result (complete after a full drain)."""
        self._require_started()
        redistributions = sum(rt.redistributions for rt in self._runtimes)
        return SimulationResult(
            policy=self.policy.name,
            makespan=self._makespan,
            completion_times=self._completion_times,
            initial_sigma=self._sigma0,
            failures_effective=self._counters["effective"],
            failures_idle=self._counters["idle"],
            failures_masked=self._counters["masked"],
            redistributions=redistributions,
            events=self._counters["events"],
            seed=self.seed,
            trace=self._recorder.trace if self._recorder.enabled else None,
        )

    def run(self) -> SimulationResult:
        """Execute the pack to completion and return the result.

        A simulator that was never started starts first (the default
        :meth:`start`); a started one — a :meth:`fork` in particular —
        continues from its current event, so a fork's ``run()`` returns
        the whole run's result, prefix included.
        """
        if self._runtimes is None:
            self.start()
        self.advance()
        return self.result()

    def fork(
        self, policy: Policy | str, *, inject_faults: bool = True
    ) -> "Simulator":
        """An independent copy of this started simulator under ``policy``.

        The copy shares the immutable pack, cluster and model (whose
        envelope store is history-independent) and copies every piece
        of mutable state: the runtimes and the array store, the
        processor map, the fault injector's heap and RNG, the counters
        and any recorded trace; its completion queue is built over the
        copied store.  It starts without a decision cache and builds a
        fresh one at its first decision.
        Stepping either simulator never moves the other, and the fork
        processes exactly the events an uninterrupted run of ``policy``
        would, provided every event so far invoked the same heuristics
        under both policies (see :meth:`next_decision`).

        ``inject_faults=False`` swaps in a null injector: the fault-free
        series of a replicate forks right after :meth:`start`, which it
        shares with the fault series.
        """
        self._require_started()
        child = copy.copy(self)
        child.policy = get_policy(policy) if isinstance(policy, str) else policy
        if not inject_faults:
            if self._counters["events"] and self.inject_faults:
                raise SimulationError(
                    "a fault-free fork must be taken before the first event"
                )
            child.inject_faults = False
            child._injector = NullFaultInjector()
        else:
            child._injector = self._injector.fork()
        child._runtimes = [rt.copy() for rt in self._runtimes]
        child._arrays = self._arrays.copy()
        child._scratch = np.empty_like(self._scratch)
        child._procs = self._procs.copy()
        child._finish = CompletionQueue(child._arrays)
        child._counters = dict(self._counters)
        child._completion_times = self._completion_times.copy()
        child._sigma0 = dict(self._sigma0)
        child._cache = None
        if self._rec_enabled:
            child._recorder = copy.deepcopy(self._recorder)
        return child

    # ------------------------------------------------------------------
    def _projected(self, rt: TaskRuntime) -> float:
        """Deterministic fault-free completion of ``rt``'s remaining work.

        Reads the store's grid values at the current allocation — the
        same floats the grid holds, so the result is bit-identical to
        resolving the grid per call.
        """
        i = rt.index
        arrays = self._arrays
        return projected_finish(
            rt.t_last,
            rt.alpha,
            float(arrays.t_ff[i]),
            float(arrays.tau[i]),
            float(arrays.cost[i]),
        )

    def _active_for_redistribution(
        self,
        t: float,
        runtimes: List[TaskRuntime],
        include: Optional[int] = None,
    ) -> List[TaskRuntime]:
        """Alg. 2 line 15: active tasks not busy at ``t`` (plus ``include``).

        One vectorised compare over the store's live/t_last: for a live
        task ``busy_at(t)`` is exactly ``t <= t_last``, so the selection
        is ``live & (t_last < t)`` with ``include`` forced in (ascending
        task index = the pack order of a scan over the runtimes).
        """
        live = self._arrays.live
        buf = self._scratch
        np.less(self._arrays.t_last, t, out=buf)
        buf &= live
        if include is not None:
            buf[include] = live[include]
        return [runtimes[i] for i in np.nonzero(buf)[0]]

    def _sync_and_reproject(
        self,
        t: float,
        changed: List[int],
        runtimes: List[TaskRuntime],
        procs: ProcessorMap,
        finish: CompletionQueue,
    ) -> None:
        """Apply heuristic decisions to the processor map and projections."""
        if not changed:
            return
        procs.apply_counts({i: runtimes[i].sigma for i in changed})
        arrays = self._arrays
        cache = self._cache
        for i in changed:
            rt = runtimes[i]
            # Post-heuristic commit (sigma_init changed, checkpoint
            # taken): write the store before the reprojection, which
            # reads its grid values, and drop the task's cached rows.
            arrays.write(self.model, rt)
            finish[i] = self._projected(rt)
            if cache is not None:
                cache.invalidate(i)
            if self._rec_enabled:
                self._recorder.event(
                    t, EventKind.REDISTRIBUTION, i, f"sigma={rt.sigma}"
                )

    def _handle_completion(
        self,
        t: float,
        e: int,
        runtimes: List[TaskRuntime],
        procs: ProcessorMap,
        finish: CompletionQueue,
    ) -> None:
        rt_e = runtimes[e]
        arrays = self._arrays
        was_released = bool(arrays.released[e])
        rt_e.mark_completed(t)
        arrays.done[e] = True
        arrays.live[e] = False
        if not was_released:
            procs.release(e)
        else:
            arrays.released[e] = False
        if self._rec_enabled:
            self._recorder.event(t, EventKind.COMPLETION, e)
        # Early-released tasks were already removed from consideration when
        # the failure that released them was handled (Alg. 2 line 28);
        # their physical completion triggers no further redistribution.
        if was_released or self.policy.completion is None:
            return
        tasks = self._active_for_redistribution(t, runtimes)
        if not tasks:
            return
        changed = self.policy.completion.apply(
            self.model, t, tasks, procs.free_count,
            cache=self._decision_cache(),
        )
        self._sync_and_reproject(t, changed, runtimes, procs, finish)

    def _handle_failure(
        self,
        t: float,
        proc: int,
        runtimes: List[TaskRuntime],
        procs: ProcessorMap,
        finish: CompletionQueue,
        counters: Dict[str, int],
    ) -> None:
        owner = procs.owner_of(proc)
        if owner is None or runtimes[owner].completed:
            counters["idle"] += 1
            if self._rec_enabled:
                self._recorder.event(
                    t, EventKind.FAILURE_IDLE, detail=f"proc={proc}"
                )
            return
        arrays = self._arrays
        rt_f = runtimes[owner]
        if rt_f.busy_at(t) or arrays.released[owner]:
            # Section 6.1: no failures during downtime/recovery/redistribution.
            counters["masked"] += 1
            if self._rec_enabled:
                self._recorder.event(
                    t, EventKind.FAILURE_MASKED, owner, f"proc={proc}"
                )
            return

        counters["effective"] += 1
        f = owner
        # Alg. 2 lines 23-26: roll back to the last checkpoint, pay D + R.
        self._roll_back(rt_f, t)
        rt_f.failures += 1
        # Remaining work re-measured + stall applied: write the store
        # and drop the task's cached rows.
        arrays.write(self.model, rt_f)
        finish[f] = self._projected(rt_f)
        if self._cache is not None:
            self._cache.invalidate(f)
        if self._rec_enabled:
            self._recorder.event(t, EventKind.FAILURE, f, f"proc={proc}")

        # Alg. 2 line 28: tasks projected to end before the struck task
        # resumes release their processors for the rebalancing below.
        for i in self._early_releases(f, rt_f.t_last, runtimes):
            arrays.released[i] = True
            arrays.live[i] = False
            procs.release(i)
            if self._rec_enabled:
                self._recorder.event(t, EventKind.EARLY_RELEASE, i)

        # Alg. 2 line 30: rebalance only if the struck task is the longest.
        if self.policy.failure is not None and self._is_longest(rt_f, runtimes):
            tasks = self._active_for_redistribution(t, runtimes, include=f)
            if len(tasks) > 1 or (tasks and procs.free_count >= 2):
                changed = self.policy.failure.apply(
                    self.model, t, tasks, procs.free_count, f,
                    cache=self._decision_cache(),
                )
                self._sync_and_reproject(t, changed, runtimes, procs, finish)

        if self._rec_enabled:
            self._failure_snapshot(t, runtimes)

    def _roll_back(self, rt: TaskRuntime, t: float) -> None:
        """Roll ``rt``, struck at ``t``, back to its last checkpoint.

        The grid values at sigma come from the store — the same floats
        the model accessors would gather (``restart_overhead`` is
        ``D + C`` and ``expected_time`` indexes the envelope at slot
        ``(j >> 1) - 1``).
        """
        f = rt.index
        arrays = self._arrays
        cost = float(arrays.cost[f])
        rt.alpha = remaining_after_failure_from_values(
            rt.alpha, t, rt.t_last, float(arrays.t_ff[f]),
            float(arrays.tau[f]), cost,
        )
        rt.t_last = t + (self.model.downtime + cost)
        rt.t_expected = rt.t_last + float(
            self.model.profile(f, rt.alpha)[(rt.sigma >> 1) - 1]
        )

    def _early_releases(
        self,
        f: int,
        t_resume: float,
        runtimes: List[TaskRuntime],
    ) -> List[int]:
        """Live tasks other than ``f`` projected to end before
        ``t_resume``, ascending: one compare over the store's finish."""
        buf = self._scratch
        np.less(self._arrays.finish, t_resume, out=buf)
        buf &= self._arrays.live
        buf[f] = False
        return np.nonzero(buf)[0].tolist()

    def _is_longest(
        self, rt_f: TaskRuntime, runtimes: List[TaskRuntime]
    ) -> bool:
        """Alg. 2 line 30 test, vectorised over the store's t_expected."""
        buf = self._scratch
        np.greater(self._arrays.t_expected, rt_f.t_expected, out=buf)
        buf &= self._arrays.live
        return not bool(buf.any())

    def _failure_snapshot(
        self, t: float, runtimes: List[TaskRuntime]
    ) -> None:
        """Record the Fig. 9 series after a handled failure.

        Both series come straight from the store: a completed task's
        ``finish`` still holds its completion event time (projections
        are only rewritten for live tasks), so the projected-makespan
        series is the max of ``finish``; and ``sigma`` holds the int64
        allocations, whose std matches the seed's int-list std bit for
        bit.
        """
        arrays = self._arrays
        makespan = float(arrays.finish.max())
        active = ~arrays.done
        if bool(active.any()):
            sigma_std = float(np.std(arrays.sigma[active]))
        else:
            sigma_std = 0.0
        self._recorder.failure_snapshot(t, makespan, sigma_std)


def simulate(
    pack: Pack,
    cluster: Cluster,
    policy: Policy | str,
    *,
    seed: int = 0,
    inject_faults: bool = True,
    **kwargs,
) -> SimulationResult:
    """Convenience wrapper: build a :class:`Simulator` and run it."""
    simulator = Simulator(
        pack,
        cluster,
        policy,
        seed=seed,
        inject_faults=inject_faults,
        **kwargs,
    )
    return simulator.run()
