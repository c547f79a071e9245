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

import math
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..cluster import Cluster, ProcessorMap
from ..core.kernels import DECISION_STATES, KERNELS, DecisionCache
from ..core.optimal import optimal_schedule
from ..core.policy import Policy, get_policy
from ..core.progress import (
    projected_finish,
    remaining_after_failure,
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
    event_queue:
        ``"heap"`` (default) selects the next completion from a
        lazy-deletion heap in O(log n); ``"scan"`` keeps the seed's O(n)
        linear rescan.  Both produce bit-identical executions — the scan
        path exists for the equivalence tests and as a debugging aid.
    decision_kernel:
        ``"array"`` (default) routes every scheduling decision —
        Algorithm 1 at pack start and the Algorithm 3-5 loops at every
        event — through the batched decision kernels
        (:mod:`repro.core.kernels`); ``"scalar"`` keeps the per-probe
        model calls.  Both produce bit-identical executions, mirroring
        ``event_queue``.
    decision_state:
        ``"incremental"`` (default) keeps one persistent
        :class:`~repro.core.kernels.DecisionCache` alive across the
        run's events: each decision point delta-patches only the
        candidate-matrix rows invalidated since the previous decision
        (dirty tasks, stall changes, time advance) instead of re-running
        the full batched build, and the Algorithm-5 grant loop runs on
        the incremental heap.  ``"rebuild"`` keeps the PR-3 fresh build
        per decision point as the reference.  Both produce bit-identical
        executions, mirroring ``decision_kernel``/``event_queue``; the
        scalar kernel has no matrix to cache, so it always rebuilds.
    profile_backend:
        How the model evaluates Eq. (4) on profile-cache misses —
        ``"fused"`` / ``"numba"`` / ``"reference"`` (see
        :mod:`repro.resilience.profile_backends`).  ``None`` (default)
        leaves the model's backend untouched; a name is applied to the
        model via :meth:`~repro.resilience.expected_time.
        ExpectedTimeModel.set_profile_backend` — value-safe even on a
        shared pre-warmed model, since every backend is bit-identical
        and the profile ring is history-independent.  When the
        *resolved* backend is ``"reference"`` the simulator's
        per-failure path also drops to the seed's per-``TaskRuntime``
        Python scans (early release, is-longest test, Fig. 9 snapshot,
        rollback through the model accessors) — the honest reference
        leg of the hot-core benchmark and the bit-identity anchor for
        the ndarray fast path.  A ``"numba"`` request that degraded to
        ``"fused"`` still runs the vectorised path.

    The per-failure path of Algorithm 2 — the early-release scan of
    line 28, the is-longest test of line 30 and the Fig. 9 snapshot —
    runs on flat ndarray mirrors of ``finish`` / ``t_expected`` /
    ``sigma`` / ``completed`` maintained alongside the ``TaskRuntime``
    bookkeeping.  The mirrors are *written* in every mode (they are the
    release/completion bookkeeping of record) but only *read* by the
    vectorised path.  The mirror invariants: ``finish`` is mirrored at its
    single write channel (:class:`~repro.simulation.events.
    CompletionQueue.__setitem__`); ``t_expected``/``sigma`` and the
    grid values at the current allocation are mirrored exactly where
    the decision cache's dirty bits are raised (the failure rollback
    and the post-heuristic commit — the only writers, by the
    ``DecisionCache`` invariant 1); ``live = ~completed & ~released``
    flips false at completion and early release, and never flips back.
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
        event_queue: str = "heap",
        decision_kernel: str = "array",
        decision_state: str = "incremental",
        profile_backend: Optional[str] = None,
    ):
        self.pack = pack
        self.cluster = cluster
        self.policy = get_policy(policy) if isinstance(policy, str) else policy
        self.seed = int(seed)
        self.inject_faults = bool(inject_faults)
        if model is not None:
            self.model = model
            if profile_backend is not None:
                model.set_profile_backend(profile_backend)
        else:
            self.model = ExpectedTimeModel(
                pack, cluster, resilience=resilience,
                profile_backend=(
                    "fused" if profile_backend is None else profile_backend
                ),
            )
        # Resolved, not requested: a "numba" request that degraded to
        # "fused" still takes the vectorised failure path.
        self._ref_failure_path = self.model.profile_backend == "reference"
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
        if event_queue not in ("heap", "scan"):
            raise SimulationError(
                f"event_queue must be 'heap' or 'scan', got {event_queue!r}"
            )
        self._use_heap = event_queue == "heap"
        if decision_kernel not in KERNELS:
            raise SimulationError(
                f"decision_kernel must be one of {KERNELS}, "
                f"got {decision_kernel!r}"
            )
        self._decision_kernel = decision_kernel
        if decision_state not in DECISION_STATES:
            raise SimulationError(
                f"decision_state must be one of {DECISION_STATES}, "
                f"got {decision_state!r}"
            )
        self._decision_state = decision_state
        self._cache: Optional[DecisionCache] = None
        self._runtimes: Optional[List[TaskRuntime]] = None

    # ------------------------------------------------------------------
    def _make_decision_cache(self) -> DecisionCache:
        """The run's persistent decision state (overridable for tests)."""
        return DecisionCache(self.model)

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

        # One decision cache per run: every event's decision point
        # delta-patches it instead of rebuilding the candidate matrix.
        # The scalar kernel has no matrix, so it never caches.
        self._cache = (
            self._make_decision_cache()
            if self._decision_kernel == "array"
            and self._decision_state == "incremental"
            else None
        )

        runtimes = [TaskRuntime(spec) for spec in pack]
        if sigma0 is None:
            sigma0 = optimal_schedule(model, p, kernel=self._decision_kernel)
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
        slots = []
        for i in order:
            count = sigma0[i]
            rt = runtimes[i]
            rt.assign(count)
            slots.append(model.grid(i).slot(count))
            if alphas is not None:
                rt.alpha = float(alphas[i])
            if t_last is not None:
                rt.t_last = float(t_last[i])
            elif t0 != 0.0:
                rt.t_last = t0
        # Every initial envelope in one batched evaluation; row ``pos``
        # is bit-identical to ``profile(order[pos], alpha)``.
        rows = model.profile_matrix(
            order, np.array([runtimes[i].alpha for i in order])
        )
        for pos, i in enumerate(order):
            count = sigma0[i]
            rt = runtimes[i]
            rt.t_expected = rt.t_last + float(rows[pos, slots[pos]])
            procs.acquire(i, count)
            self._m_texp[i] = rt.t_expected
            self._m_tlast[i] = rt.t_last
            self._sync_task_mirrors(i, count)

        if injector is not None:
            self._injector: FaultInjector | NullFaultInjector = injector
        elif self.inject_faults:
            self._injector = FaultInjector(
                p, self._distribution, derive_rng(self.seed, "faults")
            )
        else:
            self._injector = NullFaultInjector()

        finish = CompletionQueue(runtimes, mirror=self._m_finish)
        for i in range(n):
            finish[i] = self._projected(runtimes[i])
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
        if self._use_heap:
            t_comp, _ = self._finish.peek()
        else:
            t_comp, _ = self._finish.scan()
        t_fail, _ = self._injector.peek()
        return t_comp if t_comp <= t_fail else t_fail

    def step(self) -> Optional[Tuple[float, str, int]]:
        """Process the single next event.

        Returns ``(t, "completion", task)`` or ``(t, "failure", proc)``,
        or ``None`` once the pack is complete.  The event selection and
        bookkeeping are the exact loop body of :meth:`advance` so a
        stepped execution is bit-identical to an advanced one.
        """
        self._require_started()
        if self._remaining <= 0:
            return None
        finish, injector = self._finish, self._injector
        if self._use_heap:
            t_comp, i_comp = finish.peek()
        else:
            t_comp, i_comp = finish.scan()
        t_fail, _ = injector.peek()
        if t_comp == math.inf and t_fail == math.inf:
            raise SimulationError("no events left but tasks remain")
        self._counters["events"] += 1
        if t_comp <= t_fail:
            self._handle_completion(
                t_comp, i_comp, self._runtimes, self._procs, finish
            )
            self._completion_times[i_comp] = t_comp
            if t_comp > self._makespan:
                self._makespan = t_comp
            self._remaining -= 1
            self._t_now = t_comp
            event = (t_comp, "completion", i_comp)
        else:
            t_fail, proc = injector.pop()
            self._handle_failure(
                t_fail, proc, self._runtimes, self._procs,
                finish, self._counters,
            )
            self._t_now = t_fail
            event = (t_fail, "failure", proc)
        if self._strict:
            self._procs.validate()
        return event

    def advance(self, until: float = math.inf) -> int:
        """Process events up to and including time ``until``.

        Returns the number of events processed.  ``advance()`` with the
        default horizon drains the pack to completion — together with
        :meth:`start` and :meth:`result` it *is* ``run()``.
        """
        self._require_started()
        runtimes = self._runtimes
        procs = self._procs
        finish = self._finish
        injector = self._injector
        counters = self._counters
        completion_times = self._completion_times
        use_heap = self._use_heap
        strict = self._strict
        processed = 0
        while self._remaining > 0:
            if use_heap:
                t_comp, i_comp = finish.peek()
            else:
                t_comp, i_comp = finish.scan()
            t_fail, _ = injector.peek()
            if t_comp == math.inf and t_fail == math.inf:
                raise SimulationError("no events left but tasks remain")
            if (t_comp if t_comp <= t_fail else t_fail) > until:
                break
            counters["events"] += 1

            if t_comp <= t_fail:
                self._handle_completion(t_comp, i_comp, runtimes, procs, finish)
                completion_times[i_comp] = t_comp
                if t_comp > self._makespan:
                    self._makespan = t_comp
                self._remaining -= 1
                self._t_now = t_comp
            else:
                t_fail, proc = injector.pop()
                self._handle_failure(
                    t_fail, proc, runtimes, procs, finish, counters
                )
                self._t_now = t_fail
            if strict:
                procs.validate()
            processed += 1
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
        """Execute the pack to completion and return the result."""
        self.start()
        self.advance()
        return self.result()

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
        so the result is bit-identical to resolving the grid per call
        (which is exactly what the reference mode does).
        """
        i = rt.index
        if self._ref_failure_path:
            grid = self.model.grid(i)
            slot = grid.slot(rt.sigma)
            return projected_finish(
                rt.t_last,
                rt.alpha,
                float(grid.t_ff[slot]),
                float(grid.tau[slot]),
                float(grid.cost[slot]),
            )
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
        task index = the reference scan's pack order).
        """
        if self._ref_failure_path:
            selected = []
            for rt in runtimes:
                if rt.completed or self._m_released[rt.index]:
                    continue
                if rt.index == include or not rt.busy_at(t):
                    selected.append(rt)
            return selected
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
        if self._cache is not None:
            self._cache.note_budget(procs.free_count)
        changed = self.policy.completion.apply(
            self.model, t, tasks, procs.free_count,
            kernel=self._decision_kernel, cache=self._cache,
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
        j = rt_f.sigma
        # Alg. 2 lines 23-26: roll back to the last checkpoint, pay D + R.
        # The grid values at sigma come from the mirrors — the same floats
        # the model accessors would gather (restart_overhead is D + C and
        # expected_time indexes the envelope at slot (j >> 1) - 1), so the
        # rollback is bit-identical to the accessor-resolving form the
        # reference mode keeps.
        lost_before = rt_f.alpha
        if self._ref_failure_path:
            rt_f.alpha = remaining_after_failure(
                self.model, f, j, rt_f.alpha, t, rt_f.t_last
            )
            rt_f.rework += rt_f.alpha - lost_before  # <= 0 contribution
            rt_f.failures += 1
            rt_f.t_last = t + self.model.restart_overhead(f, j)
            rt_f.t_expected = rt_f.t_last + self.model.expected_time(
                f, j, rt_f.alpha
            )
        else:
            tff = float(self._m_tff[f])
            tau = float(self._m_tau[f])
            cost = float(self._m_cost[f])
            rt_f.alpha = remaining_after_failure_from_values(
                rt_f.alpha, t, rt_f.t_last, tff, tau, cost
            )
            rt_f.rework += rt_f.alpha - lost_before  # <= 0 contribution
            rt_f.failures += 1
            rt_f.t_last = t + (self.model.downtime + cost)
            rt_f.t_expected = rt_f.t_last + float(
                self.model.profile(f, rt_f.alpha)[(j >> 1) - 1]
            )
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
        # One vectorised compare over the finish mirror instead of a
        # Python scan of every runtime per failure.
        t_resume = rt_f.t_last
        if self._ref_failure_path:
            for i, rt in enumerate(runtimes):
                if (
                    not rt.completed
                    and i != f
                    and not self._m_released[i]
                    and finish[i] < t_resume
                ):
                    self._m_released[i] = True
                    self._m_live[i] = False
                    procs.release(i)
                    if self._rec_enabled:
                        self._recorder.event(t, EventKind.EARLY_RELEASE, i)
        else:
            buf = self._m_scratch
            np.less(self._m_finish, t_resume, out=buf)
            buf &= self._m_live
            buf[f] = False
            for i in np.nonzero(buf)[0]:
                i = int(i)
                self._m_released[i] = True
                self._m_live[i] = False
                procs.release(i)
                if self._rec_enabled:
                    self._recorder.event(t, EventKind.EARLY_RELEASE, i)

        # Alg. 2 line 30: rebalance only if the struck task is the longest.
        if self.policy.failure is not None and self._is_longest(rt_f, runtimes):
            tasks = self._active_for_redistribution(t, runtimes, include=f)
            if len(tasks) > 1 or (tasks and procs.free_count >= 2):
                if self._cache is not None:
                    self._cache.note_budget(procs.free_count)
                changed = self.policy.failure.apply(
                    self.model, t, tasks, procs.free_count, f,
                    kernel=self._decision_kernel, cache=self._cache,
                )
                self._sync_and_reproject(t, changed, runtimes, procs, finish)

        if self._rec_enabled:
            self._failure_snapshot(t, runtimes, finish)

    def _is_longest(
        self, rt_f: TaskRuntime, runtimes: List[TaskRuntime]
    ) -> bool:
        """Alg. 2 line 30 test, vectorised over the t_expected mirror."""
        if self._ref_failure_path:
            threshold = rt_f.t_expected
            for i, rt in enumerate(runtimes):
                if rt.completed or self._m_released[i]:
                    continue
                if rt.t_expected > threshold:
                    return False
            return True
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
        if self._ref_failure_path:
            projected = [
                rt.completion_time if rt.completed else finish[rt.index]
                for rt in runtimes
            ]
            sigmas = [rt.sigma for rt in runtimes if not rt.completed]
            sigma_std = float(np.std(sigmas)) if sigmas else 0.0
            self._recorder.failure_snapshot(t, float(max(projected)), sigma_std)
            return
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
