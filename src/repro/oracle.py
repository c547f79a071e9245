"""The seed-literal oracle the fast simulator stack is pinned against.

Each fast path of :mod:`repro.core`, :mod:`repro.simulation` and
:mod:`repro.resilience` has its reference here, once, as the seed wrote
it: :class:`ReferenceModel` (Eq. 4 misses stacked per call by
:func:`stacked_raw_profiles`, the seed's own expression), the scalar
decision helpers, Algorithm 1 with a model call per probe, the scalar
bodies of Algorithms 3-5 (the ``Reference*`` heuristics keep their fast
parents' names) and :class:`ReferenceSimulator`.  Both sides produce
bit-identical executions; tests and benchmarks check that, and no
production module imports this one.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Sequence

import numpy as np

from .core import heuristics
from .core.heuristics.base import apply_move
from .core.kernels import faulty_stall
from .core.optimal import envelope_block
from .core.policy import Policy
from .core.progress import (
    projected_finish, remaining_after_elapsed, remaining_after_failure,
)
from .core.redistribution import (
    redistribution_cost, redistribution_cost_vector,
)
from .core.state import TaskRuntime
from .exceptions import CapacityError, SimulationError
from .resilience.expected_time import (
    _ALPHA_SCALE, ExpectedTimeModel, TaskGrid, ensure_alpha_vector,
)
from .simulation.simulator import Simulator

__all__ = [
    "stacked_raw_profiles", "ReferenceModel", "ReferenceSimulator",
    "ReferenceEndLocal", "ReferenceShortestTasksFirst", "ReferenceIteratedGreedy",
    "ReferenceEndGreedy", "remaining_at", "candidate_finish_times",
    "candidate_finish_time", "optimal_schedule", "greedy_rebuild",
]


def stacked_raw_profiles(
    grids: Sequence[TaskGrid], alphas: np.ndarray
) -> np.ndarray:
    """Eq. (4) over several stacked task grids, one row per (grid, alpha).

    The seed's expression, kept apart from the model's own kernel so the
    two are checked against each other: one ``floor``/``expm1`` pass
    over the 2-D block of grids stacked per call (one grid is evaluated
    on its own arrays).  ``alphas`` holds one quantised remaining-work
    fraction per row.  Rows with ``alpha <= 0`` are exactly zero.
    """
    alphas = ensure_alpha_vector(alphas, len(grids), "stacked_raw_profiles")
    if len(grids) == 1:
        # A scalar alpha broadcast over the 1-D grid performs the exact
        # same elementwise operations as a one-row stacked block.
        g = grids[0]
        alpha = float(alphas[0])
        if alpha <= 0.0:
            return np.zeros((1, g.t_ff.size))
        work = alpha * g.t_ff
        n_ff = np.floor(work / g.work_per_period)
        tau_last = work - n_ff * g.work_per_period
        with np.errstate(over="ignore"):
            row = g.prefactor * (
                n_ff * g.exp_period + np.expm1(g.lam * tau_last)
            )
        return row[None, :]
    t_ff = np.stack([g.t_ff for g in grids])
    if bool(np.all(alphas <= 0.0)):
        return np.zeros_like(t_ff)
    wpp = np.stack([g.work_per_period for g in grids])
    work = alphas[:, None] * t_ff
    n_ff = np.floor(work / wpp)
    tau_last = work - n_ff * wpp
    lam = np.stack([g.lam for g in grids])
    with np.errstate(over="ignore"):
        block = np.stack([g.prefactor for g in grids]) * (
            n_ff * np.stack([g.exp_period for g in grids])
            + np.expm1(lam * tau_last)
        )
    zero = alphas <= 0.0
    if bool(np.any(zero)):
        # An overflowed prefactor (inf) times the zero block would give
        # nan; finished tasks cost exactly nothing.
        block[zero] = 0.0
    return block


class ReferenceModel(ExpectedTimeModel):
    """:class:`ExpectedTimeModel` whose Eq. (4) rows, scalar and
    batched, come from :func:`stacked_raw_profiles`."""

    @classmethod
    def sharing(cls, model: ExpectedTimeModel) -> "ReferenceModel":
        """A reference model on ``model``'s pack, platform and grids
        (whose envelope stores it shares); ``model`` keeps its type and
        settings."""
        return cls(
            model.pack, model.cluster, resilience=model.resilience,
            rc_factor=model.rc_factor,
            grids=[model.grid(i) for i in range(len(model.pack))],
        )

    def _raw_rows(self, indices, keys: np.ndarray) -> np.ndarray:
        return stacked_raw_profiles(
            [self.grid(i) for i in indices], keys / _ALPHA_SCALE
        )

    def raw_profile(self, i: int, alpha: float) -> np.ndarray:
        alpha_q = self.alpha_key(alpha) / _ALPHA_SCALE
        return stacked_raw_profiles([self.grid(i)], np.array([alpha_q]))[0]


# -- scalar decision helpers --------------------------------------------------
def remaining_at(model: ExpectedTimeModel, rt: TaskRuntime, t: float) -> float:
    """``alpha^t_i``: remaining work of ``rt`` at decision time ``t``.

    Algorithm 3 line 8 / Algorithm 4-5 line 4: subtract the useful work
    performed since ``tlastR_i`` (elapsed time minus checkpoints).
    """
    return remaining_after_elapsed(
        model, rt.index, rt.sigma, rt.alpha, t, rt.t_last
    )


def candidate_finish_times(
    model: ExpectedTimeModel, i: int, j_init: int, alpha_t: float, t: float,
    stall: float, targets: np.ndarray,
) -> np.ndarray:
    """``t_E(k)`` for every even candidate count in ``targets``.

    One profile lookup scores the whole candidate set (``targets`` are
    even counts >= 2 by construction, so only the grid bound is checked).
    """
    if targets.size == 0:
        return np.empty(0)
    grid = model.grid(i)
    slots = (targets >> 1) - 1
    if int(slots.max()) >= grid.j.size:
        raise SimulationError(
            f"candidate count {int(targets.max())} exceeds the platform grid"
        )
    rc = model.rc_factor * redistribution_cost_vector(
        model.pack[i].size, j_init, targets
    )
    profile = model.profile(i, alpha_t)
    return t + stall + rc + (grid.cost[slots] + profile[slots])


def candidate_finish_time(
    model: ExpectedTimeModel, i: int, j_init: int, alpha_t: float, t: float,
    stall: float, k: int,
) -> float:
    """Scalar ``t_E(k)``, operation for operation as
    :func:`candidate_finish_times` (out-of-grid ``k`` included)."""
    grid = model.grid(i)
    try:
        slot = grid.slot(k)
    except CapacityError:
        raise SimulationError(
            f"candidate count {int(k)} exceeds the platform grid"
        ) from None
    rc = model.rc_factor * redistribution_cost(model.pack[i].size, j_init, k)
    profile = model.profile(i, alpha_t)
    finish = float(grid.cost[slot] + profile[slot])
    return t + stall + rc + finish


# -- Algorithm 1 --------------------------------------------------------------
def optimal_schedule(
    model: ExpectedTimeModel, p: int, indices: Optional[Sequence[int]] = None,
    alpha: float = 1.0, alphas: Optional[Sequence[float]] = None,
) -> Dict[int, int]:
    """Algorithm 1 with a model call per probe (arguments as
    :func:`repro.core.optimal.optimal_schedule`)."""
    # The j=2 scores come from one batched evaluation; the loop then
    # re-reads the (now warm) store through the scalar accessors.
    indices, block = envelope_block(model, p, indices, alpha, alphas)
    sigma: Dict[int, int] = {i: 2 for i in indices}
    available = p - 2 * len(indices)
    alpha_of = {
        i: alpha if alphas is None else float(alphas[pos])
        for pos, i in enumerate(indices)
    }
    heap = [(-float(block[pos, 0]), i) for pos, i in enumerate(indices)]
    heapq.heapify(heap)
    while available >= 2 and heap:
        neg_current, i = heapq.heappop(heap)
        p_max = sigma[i] + available
        # Line 9: can the longest task still be improved at all?
        if -neg_current > model.expected_time(i, p_max, alpha_of[i]):
            sigma[i] += 2
            available -= 2
            heapq.heappush(
                heap, (-model.expected_time(i, sigma[i], alpha_of[i]), i)
            )
        else:
            # No task can improve the makespan further: keep the rest free.
            available = 0
    return sigma


# -- Algorithms 3-5 -----------------------------------------------------------
def greedy_rebuild(
    model: ExpectedTimeModel, t: float, tasks: Sequence[TaskRuntime],
    capacity: int, faulty: Optional[int] = None,
) -> List[int]:
    """Algorithm 5's rebuild with a model call per probe (arguments as
    :func:`repro.core.heuristics.greedy_rebuild`)."""
    if not tasks:
        return []
    if capacity < 2 * len(tasks):
        raise CapacityError(
            "greedy rebuild needs capacity >= 2n: "
            f"capacity={capacity}, n={len(tasks)}"
        )
    by_index: Dict[int, TaskRuntime] = {rt.index: rt for rt in tasks}
    sigma_init: Dict[int, int] = {rt.index: rt.sigma for rt in tasks}
    stall: Dict[int, float] = {}
    alpha_t: Dict[int, float] = {}
    for rt in tasks:
        i = rt.index
        if i == faulty:
            # Already rolled back to the last checkpoint by the skeleton.
            alpha_t[i] = rt.alpha
            stall[i] = faulty_stall(rt, t)
        else:
            alpha_t[i] = remaining_at(model, rt, t)
            stall[i] = 0.0

    def finish(i: int, k: int) -> float:
        """Expected finish if task ``i`` ends the rebuild on ``k`` procs."""
        rt = by_index[i]
        if k == sigma_init[i]:
            # Line 16/23: unchanged allocation, the task just keeps going.
            return rt.t_last + model.expected_time(i, k, rt.alpha)
        return candidate_finish_time(
            model, i, sigma_init[i], alpha_t[i], t, stall[i], k
        )

    sigma: Dict[int, int] = {rt.index: 2 for rt in tasks}
    expected: Dict[int, float] = {i: finish(i, 2) for i in sigma}
    heap = [(-expected[i], i) for i in sigma]
    heapq.heapify(heap)
    available = capacity - 2 * len(tasks)

    while available >= 2 and heap:
        _, i = heapq.heappop(heap)
        p_max = sigma[i] + available
        targets = np.arange(sigma[i] + 2, p_max + 1, 2, dtype=int)
        finishes = candidate_finish_times(
            model, i, sigma_init[i], alpha_t[i], t, stall[i], targets
        )
        if targets.size:
            # Patch the no-redistribution candidate if it is in range.
            where_init = np.nonzero(targets == sigma_init[i])[0]
            if where_init.size:
                finishes[where_init[0]] = finish(i, sigma_init[i])
        if finishes.size and bool(np.any(finishes < expected[i])):
            sigma[i] += 2
            expected[i] = finish(i, sigma[i])
            heapq.heappush(heap, (-expected[i], i))
            available -= 2
        else:
            # Algorithm 5 line 30: the longest task cannot improve — stop.
            available = 0

    changed: List[int] = []
    for i, rt in by_index.items():
        if sigma[i] != sigma_init[i]:
            apply_move(
                model, rt, t, stall[i], sigma_init[i], sigma[i], alpha_t[i]
            )
            changed.append(i)
        else:
            # Untouched: restore the expected finish from live bookkeeping.
            rt.t_expected = rt.t_last + model.expected_time(
                i, rt.sigma, rt.alpha
            )
    return changed


class ReferenceIteratedGreedy(heuristics.IteratedGreedy):
    """Algorithm 5 on the scalar :func:`greedy_rebuild`."""

    def apply(self, model, t, tasks, free, faulty, cache=None) -> List[int]:
        capacity = free + sum(rt.sigma for rt in tasks)
        return greedy_rebuild(model, t, tasks, capacity, faulty=faulty)


class ReferenceEndGreedy(heuristics.EndGreedy):
    """EndGreedy on the scalar :func:`greedy_rebuild`."""

    def apply(self, model, t, tasks, free, cache=None) -> List[int]:
        capacity = free + sum(rt.sigma for rt in tasks)
        return greedy_rebuild(model, t, tasks, capacity)


class ReferenceEndLocal(heuristics.EndLocal):
    """Algorithm 3 with model calls per pop."""

    def apply(self, model, t, tasks, free, cache=None) -> List[int]:
        if free < 2 or not tasks:
            return []
        by_index: Dict[int, TaskRuntime] = {rt.index: rt for rt in tasks}
        sigma_init: Dict[int, int] = {rt.index: rt.sigma for rt in tasks}
        alpha_t: Dict[int, float] = {}

        # Max-heap on tU (Algorithm 3 keeps L sorted non-increasingly).
        heap = [(-rt.t_expected, rt.index) for rt in tasks]
        heapq.heapify(heap)

        k = free
        while k >= 2 and heap:
            _, i = heapq.heappop(heap)
            rt = by_index[i]
            j_init = sigma_init[i]
            if i not in alpha_t:
                # Line 8: work done since tlastR, measured at sigma_init.
                alpha_t[i] = remaining_at(model, rt, t)
            a_t = alpha_t[i]
            targets = np.arange(rt.sigma + 2, rt.sigma + k + 1, 2, dtype=int)
            finishes = candidate_finish_times(
                model, i, j_init, a_t, t, 0.0, targets
            )
            if finishes.size and bool(np.any(finishes < rt.t_expected)):
                # Improvable: grant exactly one pair (line 17) and re-rank.
                rt.sigma += 2
                rt.t_expected = candidate_finish_time(
                    model, i, j_init, a_t, t, 0.0, rt.sigma
                )
                heapq.heappush(heap, (-rt.t_expected, i))
                k -= 2
            # Non-improvable tasks stay popped (dropped from L).

        changed: List[int] = []
        for i, rt in by_index.items():
            if rt.sigma != sigma_init[i]:
                new_sigma = rt.sigma
                rt.sigma = sigma_init[i]  # apply_move re-assigns from scratch
                apply_move(
                    model, rt, t, 0.0, sigma_init[i], new_sigma, alpha_t[i]
                )
                changed.append(i)
        return changed


class ReferenceShortestTasksFirst(heuristics.ShortestTasksFirst):
    """Algorithm 4 with model calls per scan."""

    def apply(self, model, t, tasks, free, faulty, cache=None) -> List[int]:
        by_index: Dict[int, TaskRuntime] = {rt.index: rt for rt in tasks}
        rt_f = by_index[faulty]
        sigma_init: Dict[int, int] = {rt.index: rt.sigma for rt in tasks}
        stall_f = faulty_stall(rt_f, t)
        alpha_t: Dict[int, float] = {}
        for rt in tasks:
            if rt.index == faulty:
                alpha_t[rt.index] = rt.alpha  # already rolled back
            else:
                alpha_t[rt.index] = remaining_at(model, rt, t)

        j_max = int(model.j_grid[-1])
        # The faulty task's candidates: (..., targets) or (..., k).
        f_args = (
            model, faulty, sigma_init[faulty], alpha_t[faulty], t, stall_f
        )

        # ---- Phase 1: absorb free processors (Alg. 4 lines 12-25) --------
        k = free
        while k >= 2:
            top = min(rt_f.sigma + k, j_max)
            targets = np.arange(rt_f.sigma + 2, top + 1, 2, dtype=int)
            if targets.size == 0:
                break
            finishes = candidate_finish_times(*f_args, targets)
            mask = finishes < rt_f.t_expected
            if not bool(np.any(mask)):
                break  # not improvable: stop consuming (DESIGN interp. 5)
            first = int(np.argmax(mask))
            q_max = int(targets[first]) - rt_f.sigma
            rt_f.sigma += q_max
            rt_f.t_expected = float(finishes[first])
            k -= q_max

        # ---- Phase 2: steal from the shortest tasks (lines 27-41) --------
        improvable = True
        while improvable:
            donors = [
                rt for rt in tasks if rt.index != faulty and rt.sigma >= 4
            ]
            if not donors or rt_f.sigma + 2 > j_max:
                break
            rt_s = min(donors, key=lambda rt: (rt.t_expected, rt.index))
            s = rt_s.index
            improvable = False
            q_values = np.arange(2, rt_s.sigma - 1, 2, dtype=int)
            if q_values.size == 0:
                break
            faulty_targets = rt_f.sigma + q_values
            in_range = faulty_targets <= j_max
            q_values = q_values[in_range]
            faulty_targets = faulty_targets[in_range]
            if q_values.size == 0:
                break
            f_finishes = candidate_finish_times(*f_args, faulty_targets)
            donor_targets = rt_s.sigma - q_values
            s_finishes = candidate_finish_times(
                model, s, sigma_init[s], alpha_t[s], t, 0.0, donor_targets
            )
            mask = (f_finishes < rt_f.t_expected) & (
                s_finishes < rt_f.t_expected
            )
            if bool(np.any(mask)):
                improvable = True
                # Move a single pair regardless of the probe (line 36).
                rt_f.sigma += 2
                rt_s.sigma -= 2
                rt_f.t_expected = candidate_finish_time(*f_args, rt_f.sigma)
                rt_s.t_expected = candidate_finish_time(
                    model, s, sigma_init[s], alpha_t[s], t, 0.0, rt_s.sigma
                )
                if rt_s.t_expected > rt_f.t_expected:
                    improvable = False  # the donor became the bottleneck

        # ---- Commit (lines 43-48) -----------------------------------------
        changed: List[int] = []
        for i, rt in by_index.items():
            if rt.sigma != sigma_init[i]:
                new_sigma = rt.sigma
                stall = stall_f if i == faulty else 0.0
                apply_move(
                    model, rt, t, stall, sigma_init[i], new_sigma, alpha_t[i]
                )
                changed.append(i)
        return changed


#: Each fast heuristic class -> its scalar body.
_SCALAR = {cls.__bases__[0]: cls for cls in (
    ReferenceEndLocal, ReferenceShortestTasksFirst, ReferenceIteratedGreedy,
    ReferenceEndGreedy,
)}


def _scalar(heuristic):
    scalar = _SCALAR.get(type(heuristic))
    return heuristic if scalar is None else scalar()


# -- Algorithm 2 --------------------------------------------------------------
class ReferenceSimulator(Simulator):
    """:class:`~repro.simulation.Simulator` on the seed-literal paths.

    The heuristics run their scalar bodies without a decision cache,
    and the failure path scans the runtimes (rollback through the model
    accessors, early release, is-longest test, Fig. 9 snapshot) instead
    of the array store, whose early-release flags and projected finish
    times it still reads.
    A handed fast model keeps its type and settings: it is read through
    :meth:`ReferenceModel.sharing`.
    """

    def __init__(self, pack, cluster, policy="no-redistribution", *,
                 model=None, resilience=None, **kwargs):
        if model is None:
            model = ReferenceModel(pack, cluster, resilience=resilience)
        elif not isinstance(model, ReferenceModel):
            model = ReferenceModel.sharing(model)
        super().__init__(pack, cluster, policy, model=model, **kwargs)

    @property
    def policy(self) -> Policy:
        return self._policy

    @policy.setter
    def policy(self, policy: Policy) -> None:
        self._policy = Policy(
            policy.name, _scalar(policy.completion), _scalar(policy.failure)
        )

    def _decision_cache(self) -> None:
        return None

    def _initial_sigma(self) -> Dict[int, int]:
        return optimal_schedule(self.model, self.cluster.processors)

    def _projected(self, rt: TaskRuntime) -> float:
        grid = self.model.grid(rt.index)
        slot = grid.slot(rt.sigma)
        return projected_finish(
            rt.t_last, rt.alpha, float(grid.t_ff[slot]),
            float(grid.tau[slot]), float(grid.cost[slot]),
        )

    def _active_for_redistribution(self, t, runtimes, include=None):
        return [
            rt for rt in runtimes
            if not (rt.completed or self._arrays.released[rt.index])
            and (rt.index == include or not rt.busy_at(t))
        ]

    def _roll_back(self, rt: TaskRuntime, t: float) -> None:
        f, j = rt.index, rt.sigma
        rt.alpha = remaining_after_failure(
            self.model, f, j, rt.alpha, t, rt.t_last
        )
        rt.t_last = t + self.model.restart_overhead(f, j)
        rt.t_expected = rt.t_last + self.model.expected_time(f, j, rt.alpha)

    def _early_releases(self, f, t_resume, runtimes) -> List[int]:
        arrays = self._arrays
        return [
            i for i, rt in enumerate(runtimes)
            if not rt.completed and i != f and not arrays.released[i]
            and arrays.finish[i] < t_resume
        ]

    def _is_longest(self, rt_f, runtimes) -> bool:
        return not any(
            rt.t_expected > rt_f.t_expected for i, rt in enumerate(runtimes)
            if not (rt.completed or self._arrays.released[i])
        )

    def _failure_snapshot(self, t, runtimes) -> None:
        projected = [
            rt.completion_time if rt.completed else self._arrays.finish[i]
            for i, rt in enumerate(runtimes)
        ]
        sigmas = [rt.sigma for rt in runtimes if not rt.completed]
        sigma_std = float(np.std(sigmas)) if sigmas else 0.0
        self._recorder.failure_snapshot(t, float(max(projected)), sigma_std)
