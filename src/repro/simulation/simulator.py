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
from ..core.state import TaskRuntime
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

    The Algorithm 3-5 decisions read one persistent
    :class:`~repro.core.kernels.DecisionCache` that delta-patches only
    the candidate-matrix rows invalidated since the previous decision.
    The per-failure path of Algorithm 2 — the rollback, the
    early-release scan of line 28, the is-longest test of line 30 and
    the Fig. 9 snapshot — runs on flat ndarray mirrors of ``finish`` /
    ``t_expected`` / ``sigma`` / ``completed`` maintained alongside the
    ``TaskRuntime`` bookkeeping.  :class:`repro.oracle.
    ReferenceSimulator` overrides those steps with the seed-literal
    scans this path is pinned against.  The mirror invariants:
    ``finish`` is mirrored at its single write channel (:class:`~repro.simulation.events.
    CompletionQueue.__setitem__`); ``t_expected``/``sigma`` and the
    grid values at the current allocation are mirrored exactly where
    the decision cache's dirty bits are raised (the failure rollback
    and the post-heuristic commit — the only writers, by the
    ``DecisionCache`` invariant 1); ``live = ~completed & ~released``
    flips false at completion and early release, and never flips back.

    :meth:`fork` copies a started simulator's mutable state — runtimes,
    mirrors, processor map, completion heap, fault injector and counters
    — under another policy.  Paired series that invoke the same
    heuristics up to some event share that prefix: the experiments
    layer steps one simulator through it and forks where the series
    diverge (:func:`repro.experiments.runner._run_replicate`).
    """

    #: The ndarray mirrors a fork copies (its scratch buffer is fresh).
    _MIRRORS = (
        "_m_finish", "_m_texp", "_m_tlast", "_m_sigma", "_m_tff", "_m_tau",
        "_m_cost", "_m_done", "_m_released", "_m_live",
    )

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
        return DecisionCache(self.model)

    def _decision_cache(self) -> Optional[DecisionCache]:
        """The run's decision cache, built at its first decision.

        A fresh cache is all-dirty, so building it late (or afresh in a
        fork) serves the same matrices as one that saw every event
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

        # Flat ndarray mirrors of the per-task bookkeeping the
        # per-failure path scans (class docstring: mirror invariants).
        self._m_finish = np.full(n, math.inf)
        self._m_texp = np.empty(n)
        self._m_tlast = np.zeros(n)
        self._m_sigma = np.zeros(n)
        self._m_tff = np.empty(n)    # grid t_ff at the current sigma
        self._m_tau = np.empty(n)    # grid tau at the current sigma
        self._m_cost = np.empty(n)   # grid C at the current sigma
        self._m_done = np.zeros(n, dtype=bool)
        self._m_released = np.zeros(n, dtype=bool)
        self._m_live = np.ones(n, dtype=bool)   # ~done & ~released
        self._m_scratch = np.empty(n, dtype=bool)

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
        idx = np.array(order)
        slots = (np.array(counts) >> 1) - 1
        t_last0 = np.array([runtimes[i].t_last for i in order])
        # Every initial envelope in one batched evaluation; row ``pos``
        # is bit-identical to ``profile(order[pos], alpha)``.
        rows = model.profile_matrix(
            order, np.array([runtimes[i].alpha for i in order])
        )
        t_exp = t_last0 + rows[np.arange(n), slots]
        for i, value in zip(order, t_exp.tolist()):
            runtimes[i].t_expected = value
        procs.acquire_all(sigma0)
        self._m_texp[idx] = t_exp
        self._m_tlast[idx] = t_last0
        self._m_sigma[idx] = counts
        t_ff, cost, tau = model._stacked_array()[:3]  # GRID_ROWS order
        self._m_tff[idx] = t_ff[idx, slots]
        self._m_tau[idx] = tau[idx, slots]
        self._m_cost[idx] = cost[idx, slots]

        if injector is not None:
            self._injector: FaultInjector | NullFaultInjector = injector
        elif self.inject_faults:
            self._injector = FaultInjector(
                p, self._distribution, derive_rng(self.seed, "faults")
            )
        else:
            self._injector = NullFaultInjector()

        finish = CompletionQueue(runtimes, mirror=self._m_finish)
        alpha = np.array([rt.alpha for rt in runtimes])
        finish.assign_all(
            projected_finishes(
                self._m_tlast, alpha, self._m_tff, self._m_tau, self._m_cost
            )
        )
        # Completion bookkeeping is accumulated event by event instead of
        # being re-derived from the runtimes after the loop.
        self._runtimes = runtimes
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
            if t_comp == math.inf or self._m_released[i_comp]:
                return None
            return "completion"
        owner = self._procs.owner_of(proc)
        if owner is None:
            return None
        rt = self._runtimes[owner]
        if rt.completed or rt.busy_at(t_fail) or self._m_released[owner]:
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
        of mutable state: the runtimes and their ndarray mirrors, the
        processor map, the completion heap, the fault injector's heap
        and RNG, the counters and any recorded trace.  It starts without
        a decision cache and builds a fresh one at its first decision.
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
        runtimes = [rt.copy() for rt in self._runtimes]
        child._runtimes = runtimes
        for name in self._MIRRORS:
            setattr(child, name, getattr(self, name).copy())
        child._m_scratch = np.empty_like(self._m_scratch)
        child._procs = self._procs.copy()
        child._finish = self._finish.fork(runtimes, mirror=child._m_finish)
        child._counters = dict(self._counters)
        child._completion_times = self._completion_times.copy()
        child._sigma0 = dict(self._sigma0)
        child._cache = None
        if self._rec_enabled:
            child._recorder = copy.deepcopy(self._recorder)
        return child

    # ------------------------------------------------------------------
    def _sync_task_mirrors(self, i: int, sigma: int) -> None:
        """Refresh task ``i``'s sigma + grid-value mirrors (sigma moved)."""
        grid = self.model.grid(i)
        slot = grid.slot(sigma)
        self._m_tff[i] = grid.t_ff[slot]
        self._m_tau[i] = grid.tau[slot]
        self._m_cost[i] = grid.cost[slot]
        self._m_sigma[i] = sigma

    def _projected(self, rt: TaskRuntime) -> float:
        """Deterministic fault-free completion of ``rt``'s remaining work.

        Reads the mirrored grid values at the current allocation — the
        same floats :meth:`_sync_task_mirrors` gathered from the grid,
        so the result is bit-identical to resolving the grid per call.
        """
        i = rt.index
        return projected_finish(
            rt.t_last,
            rt.alpha,
            float(self._m_tff[i]),
            float(self._m_tau[i]),
            float(self._m_cost[i]),
        )

    def _active_for_redistribution(
        self,
        t: float,
        runtimes: List[TaskRuntime],
        include: Optional[int] = None,
    ) -> List[TaskRuntime]:
        """Alg. 2 line 15: active tasks not busy at ``t`` (plus ``include``).

        One vectorised compare over the live/t_last mirrors: for a live
        task ``busy_at(t)`` is exactly ``t <= t_last``, so the selection
        is ``live & (t_last < t)`` with ``include`` forced in (ascending
        task index = the pack order of a scan over the runtimes).
        """
        buf = self._m_scratch
        np.less(self._m_tlast, t, out=buf)
        buf &= self._m_live
        if include is not None:
            buf[include] = self._m_live[include]
        return [runtimes[i] for i in np.nonzero(buf)[0]]

    def _sync_and_reproject(
        self,
        t: float,
        changed: List[int],
        runtimes: List[TaskRuntime],
        procs: ProcessorMap,
        finish: Dict[int, float],
    ) -> None:
        """Apply heuristic decisions to the processor map and projections."""
        if not changed:
            return
        procs.apply_counts({i: runtimes[i].sigma for i in changed})
        cache = self._cache
        for i in changed:
            rt = runtimes[i]
            # Post-heuristic commit: the same channel as the decision
            # cache's dirty bit — resync the ndarray mirrors here, and
            # before the reprojection (which reads the grid mirrors).
            if rt.sigma != self._m_sigma[i]:
                self._sync_task_mirrors(i, rt.sigma)
            self._m_texp[i] = rt.t_expected
            self._m_tlast[i] = rt.t_last
            finish[i] = self._projected(rt)
            if cache is not None:
                # sigma_init changed + checkpoint taken: dirty bit.
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
        finish: Dict[int, float],
    ) -> None:
        rt_e = runtimes[e]
        was_released = bool(self._m_released[e])
        rt_e.mark_completed(t)
        self._m_done[e] = True
        self._m_live[e] = False
        if not was_released:
            procs.release(e)
        else:
            self._m_released[e] = False
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
        cache = self._decision_cache()
        if cache is not None:
            cache.note_budget(procs.free_count)
        changed = self.policy.completion.apply(
            self.model, t, tasks, procs.free_count, cache=cache
        )
        self._sync_and_reproject(t, changed, runtimes, procs, finish)

    def _handle_failure(
        self,
        t: float,
        proc: int,
        runtimes: List[TaskRuntime],
        procs: ProcessorMap,
        finish: Dict[int, float],
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
        rt_f = runtimes[owner]
        if rt_f.busy_at(t) or self._m_released[owner]:
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
        lost_before = rt_f.alpha
        self._roll_back(rt_f, t)
        rt_f.rework += rt_f.alpha - lost_before  # <= 0 contribution
        rt_f.failures += 1
        self._m_texp[f] = rt_f.t_expected
        self._m_tlast[f] = rt_f.t_last
        finish[f] = self._projected(rt_f)
        if self._cache is not None:
            # Remaining work re-measured + stall applied: dirty bit.
            self._cache.invalidate(f)
        if self._rec_enabled:
            self._recorder.event(t, EventKind.FAILURE, f, f"proc={proc}")

        # Alg. 2 line 28: tasks projected to end before the struck task
        # resumes release their processors for the rebalancing below.
        for i in self._early_releases(f, rt_f.t_last, runtimes, finish):
            self._m_released[i] = True
            self._m_live[i] = False
            procs.release(i)
            if self._rec_enabled:
                self._recorder.event(t, EventKind.EARLY_RELEASE, i)

        # Alg. 2 line 30: rebalance only if the struck task is the longest.
        if self.policy.failure is not None and self._is_longest(rt_f, runtimes):
            tasks = self._active_for_redistribution(t, runtimes, include=f)
            if len(tasks) > 1 or (tasks and procs.free_count >= 2):
                cache = self._decision_cache()
                if cache is not None:
                    cache.note_budget(procs.free_count)
                changed = self.policy.failure.apply(
                    self.model, t, tasks, procs.free_count, f, cache=cache
                )
                self._sync_and_reproject(t, changed, runtimes, procs, finish)

        if self._rec_enabled:
            self._failure_snapshot(t, runtimes, finish)

    def _roll_back(self, rt: TaskRuntime, t: float) -> None:
        """Roll ``rt``, struck at ``t``, back to its last checkpoint.

        The grid values at sigma come from the mirrors — the same floats
        the model accessors would gather (``restart_overhead`` is
        ``D + C`` and ``expected_time`` indexes the envelope at slot
        ``(j >> 1) - 1``).
        """
        f = rt.index
        cost = float(self._m_cost[f])
        rt.alpha = remaining_after_failure_from_values(
            rt.alpha, t, rt.t_last, float(self._m_tff[f]),
            float(self._m_tau[f]), cost,
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
        finish: Dict[int, float],
    ) -> List[int]:
        """Live tasks other than ``f`` projected to end before
        ``t_resume``, ascending: one compare over the finish mirror."""
        buf = self._m_scratch
        np.less(self._m_finish, t_resume, out=buf)
        buf &= self._m_live
        buf[f] = False
        return np.nonzero(buf)[0].tolist()

    def _is_longest(
        self, rt_f: TaskRuntime, runtimes: List[TaskRuntime]
    ) -> bool:
        """Alg. 2 line 30 test, vectorised over the t_expected mirror."""
        buf = self._m_scratch
        np.greater(self._m_texp, rt_f.t_expected, out=buf)
        buf &= self._m_live
        return not bool(buf.any())

    def _failure_snapshot(
        self,
        t: float,
        runtimes: List[TaskRuntime],
        finish: Dict[int, float],
    ) -> None:
        """Record the Fig. 9 series after a handled failure.

        Both series come straight from the mirrors: a completed task's
        queue entry still holds its completion event time (projections
        are only rewritten for live tasks), so the projected-makespan
        series is the max of the finish mirror; and the sigma mirror
        holds exact small integers, so its float64 std matches the
        seed's int-list std bit for bit.
        """
        makespan = float(self._m_finish.max())
        active = ~self._m_done
        if bool(active.any()):
            sigma_std = float(np.std(self._m_sigma[active]))
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
