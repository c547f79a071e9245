"""Array-based decision kernels: the per-event scheduling hot path.

Every simulated failure or completion re-runs one of the paper's
scheduling algorithms (Algorithm 1 at pack start, Algorithms 3-5 at
redistribution points).  Their growth/scan loops score *candidate*
allocations with the Section 3.3 finish-time formula

.. math::

    t_E(k) = t + \\text{stall}_i + RC_i^{\\sigma_{init}(i) \\to k}
             + C_{i,k} + t^R_{i,k}(\\alpha^t_i),

and the seed evaluated that formula through scalar model calls inside
the loops.  This module keeps the candidate finish matrix ``t_E[i, k]``
of a decision point in one persistent :class:`DecisionCache`, so the
loops become pure index arithmetic with **zero model calls**.

The alpha-fixed-per-decision invariant
--------------------------------------
Within one decision point (a rebuild at time ``t``) every quantity the
algorithms score candidates with is *fixed per task*:

* ``alpha^t_i`` — the remaining work, measured exactly once at ``t``
  (Alg. 3 line 8 / Alg. 4-5 line 4); later iterations of the same
  decision reuse that measurement, they never re-measure;
* ``stall_i`` — ``D + R`` for the task struck by the failure, 0 for
  everyone else; constant for the whole decision;
* ``sigma_init(i)`` — the allocation the redistribution cost is charged
  *from*; Algorithms 3-5 always charge from the allocation held when
  the event fired, even after several buddy pairs moved.

Only the candidate target ``k`` varies.  The matrix ``t_E[i, k]`` is
therefore a pure function of the decision point, and every entry is
bit-identical to the scalar helpers (:func:`~repro.core.heuristics.
base.candidate_finish_time` / ``candidate_finish_times``), operation for
operation, so a default run matches ``Simulator(reference=True)`` — the
scalar heuristics — byte for byte (pinned by
``tests/test_decision_kernels.py``).

Delta-patching across events
----------------------------
A single simulated event changes at most one task's remaining work
(the struck task's rollback) and a handful of allocations (the moves
the heuristic grants).  :class:`DecisionCache` lives for the whole
``Simulator.run`` and keeps, per task,

* the checkpoint-cost row ``C_{i,k}`` (constant for the run),
* the redistribution-cost row ``RC^{sigma(i) -> k}`` (valid until
  ``sigma(i)`` changes),
* the Algorithm-5 keep-running finish (valid until ``alpha``/
  ``tlastR``/``sigma`` change),
* and the mirrors of ``alpha``/``tlastR``/``sigma`` plus the grid
  values at the current allocation that the remaining-work pass needs,

and delta-patches only the stale rows of the persistent candidate
finish matrix at each decision point.  The invariants this rests on
(recorded here because every patch rule derives from them):

1. **Dirty bits are the only mutation channel.**  The simulator marks a
   task dirty exactly when its ``alpha``/``t_last``/``sigma`` change —
   the failure rollback (remaining work re-measured, stall applied) and
   the post-heuristic commit (``sigma_init`` changed, checkpoint
   taken).  A clean task's mirrors therefore equal its live runtime
   fields, so rows rebuilt from mirrors are bit-identical to rows
   rebuilt from the runtimes.
2. **Row value = pure function of (task state, t, stall).**  A finish
   row is stale iff its task is dirty, the decision time moved, or its
   stall changed; otherwise the row from the previous decision is
   reused verbatim — this is what lets the consecutive sub-decisions
   of one event (the early-release pass followed by the failure
   rebuild at the same ``t``) share one patched matrix.
3. **Patches are operation-identical to the scalar helpers.**  Stale
   rows are recombined with exactly their operation order
   (``((t + stall) + RC) + (C + profile)``), the profile rows come
   from the model's own fused Eq. (4) kernel (:func:`~repro.resilience.
   profile_backends.fused_raw_rows`), so they are bit-identical to
   :meth:`~repro.resilience.expected_time.ExpectedTimeModel.
   profile_matrix`, and the remaining-work pass is
   :func:`~repro.core.progress.remaining_from_arrays` over mirror
   subsets (bit-identical to ``remaining_at``).

All scratch blocks (finish matrix, combine buffers, rebuild blocks)
are preallocated once per cache and reused for every decision;
:func:`process_decision_snapshot` exposes the patched/reused row and
scratch-allocation counts that :class:`repro.engine.EngineStats`
aggregates across worker processes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..exceptions import SimulationError
from ..resilience.expected_time import _ALPHA_SCALE, ExpectedTimeModel
from ..resilience.profile_backends import fused_raw_rows
from .progress import remaining_from_arrays
from .redistribution import (
    redistribution_cost_matrix,
    redistribution_cost_vector,
)
from .state import TaskRuntime

__all__ = [
    "faulty_stall",
    "DecisionMatrix",
    "DecisionCache",
    "process_decision_snapshot",
]

_EMPTY = np.empty(0)

#: Process-wide decision-state counters ``[rows_patched, rows_reused,
#: scratch_allocations, profile_env_reused]``,
#: summed over every cache this process ever built (same list-cell
#: pattern as the profile counters — monotone, so the engine can delta
#: them around a work chunk).
_PROCESS_DECISION_COUNTERS = [0, 0, 0, 0]


def process_decision_snapshot() -> tuple[int, int, int, int]:
    """Process-wide ``(rows_patched, rows_reused, scratch_allocations,
    profile_env_reused)``.

    ``rows_patched`` counts candidate-matrix rows recomputed by the
    incremental engine; ``rows_reused`` component rows served from the
    previous decisions without recomputation — finish rows at an
    unchanged ``t``, redistribution-cost rows with an unchanged
    ``sigma``, keep-running entries for untouched tasks;
    ``scratch_allocations`` ndarray blocks preallocated by caches;
    ``profile_env_reused`` profile rows copied from a cache's per-task
    envelope state (quantised alpha unchanged since the last
    evaluation).  Aggregated across worker processes into
    :class:`repro.engine.EngineStats`.
    """
    return tuple(_PROCESS_DECISION_COUNTERS)


def faulty_stall(rt: TaskRuntime, t: float) -> float:
    """``D + R`` already charged to the struck task by the skeleton.

    The skeleton sets ``t_last = t + D + R`` before calling the failure
    heuristic, so the stall is recovered as ``t_last - t`` (robust to any
    configured downtime/recovery values).
    """
    stall = rt.t_last - t
    if stall < 0:
        raise SimulationError(
            f"faulty task {rt.index} has t_last in the past; "
            "skeleton did not roll it back"
        )
    return stall


@dataclass
class DecisionMatrix:
    """Candidate finishes ``t_E[i, slot]`` of one decision point.

    Served by :meth:`DecisionCache.matrix`: rows are full-pack indexed
    (``row == task index``) views into the cache's persistent arrays,
    valid until the cache serves its next matrix.  Column ``slot``
    corresponds to the even count ``k = 2 (slot + 1)`` (the model's
    processor grid).  ``finishes[i, slot]`` holds the Section 3.3 value
    ``(t + stall) + rc_factor * RC^{j_init -> k} + (C_{i,k} +
    t^R_{i,k}(alpha_t))`` with exactly the scalar helpers' operation
    order, so reads off this matrix are bit-identical to
    ``candidate_finish_time(s)``.

    Rows are either all patched up front (right for Algorithm 5, which
    scores every task) or on first touch (``pending`` — right for
    Algorithms 3-4, which only ever consult a sparse task subset); the
    on-demand patch goes through the cache, so it is recorded and
    reused by later decisions at the same ``t``.
    """

    cache: "DecisionCache"
    t: float
    indices: List[int]
    j_init: np.ndarray      #: source allocation per task row
    alpha_t: np.ndarray     #: remaining work at the decision time
    stall: np.ndarray       #: D + R for the struck task, else 0
    finishes: np.ndarray    #: candidate finish matrix
    #: unchanged-allocation finishes (Alg. 5 lines 16/23), when built
    keep: Optional[np.ndarray] = None
    #: per-row "patch on first touch" flags; ``None`` when eagerly built
    pending: Optional[np.ndarray] = None
    _row_of: Dict[int, int] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        # Map only the decision's active tasks so an out-of-set lookup
        # raises KeyError (never a silently stale row).
        self._row_of = {i: i for i in self.indices}

    def _row(self, i: int) -> int:
        """Row of task ``i``, patched on first touch when pending."""
        row = self._row_of[i]
        if self.pending is not None and self.pending[row]:
            self.cache._patch_row(row, self.t)
            self.pending[row] = False
        return row

    # -- per-task decision inputs -----------------------------------------
    def init_of(self, i: int) -> int:
        """``sigma_init(i)`` — the allocation the RC is charged from."""
        return int(self.j_init[self._row_of[i]])

    def alpha_of(self, i: int) -> float:
        """``alpha^t_i`` measured at the decision time."""
        return float(self.alpha_t[self._row_of[i]])

    def stall_of(self, i: int) -> float:
        """``D + R`` for the struck task, 0 otherwise."""
        return float(self.stall[self._row_of[i]])

    # -- candidate reads ---------------------------------------------------
    def finish(self, i: int, k: int) -> float:
        """``t_E(k)`` — the ``candidate_finish_time`` value, by index."""
        slot = (k >> 1) - 1
        if k < 2 or (k & 1) or slot >= self.finishes.shape[1]:
            raise SimulationError(
                f"candidate count {int(k)} exceeds the platform grid"
            )
        return float(self.finishes[self._row(i), slot])

    def finish_range(self, i: int, lo: int, hi: int) -> np.ndarray:
        """``t_E`` over the even candidates ``lo, lo+2, ..., <= hi``.

        The ``candidate_finish_times`` vector for
        ``targets = arange(lo, hi + 1, 2)`` (``lo`` even, >= 2), as a
        view into the matrix — callers must not write through it; empty
        when ``lo > hi``.
        """
        if hi < lo:
            return _EMPTY
        if lo < 2 or (lo & 1):
            raise SimulationError(
                f"candidate range must start at an even count >= 2, "
                f"got {int(lo)}"
            )
        lo_slot = (lo >> 1) - 1
        hi_slot = (hi >> 1) - 1  # slot of the largest even count <= hi
        if hi_slot >= self.finishes.shape[1]:
            raise SimulationError(
                f"candidate count {int(hi_slot + 1) << 1} exceeds the "
                "platform grid"
            )
        return self.finishes[self._row(i), lo_slot:hi_slot + 1]


class DecisionCache:
    """Persistent decision state, delta-patched across a run's events.

    One cache serves every decision point of one ``Simulator.run``:
    :meth:`matrix` returns the candidate finish matrix — bit-identical
    to the scalar helpers by the invariants in the module docstring —
    recomputing only the rows invalidated since the previous decision.
    A caller with a single decision to make (the public
    :func:`~repro.core.heuristics.greedy_rebuild`, a heuristic called
    without a cache) builds a one-shot cache: every task starts dirty,
    so its first matrix is a full build.  The simulator owns the dirty bits: it calls
    :meth:`invalidate` whenever a task's ``alpha``/``t_last``/``sigma``
    change (failure rollback, redistribution commit) and
    :meth:`note_budget` with the live free-processor count before each
    decision.  Stale rows' Eq. (4) profiles come from the model's one
    fused kernel, evaluated straight into the cache's workspace (see
    :meth:`_profile_rows`).  All scratch is preallocated here and
    reused per decision; `cache_info()` reports the
    patch/reuse/allocation counters (also aggregated process-wide for
    :class:`repro.engine.EngineStats`).
    """

    def __init__(self, model: ExpectedTimeModel):
        self.model = model
        n = len(model.pack)
        width = model.j_grid.size
        self._n = n
        self._width = width
        # -- per-task persistent rows -----------------------------------
        self._fin = np.empty((n, width))        #: candidate finish matrix
        self._rc = np.empty((n, width))         #: rc_factor * RC rows
        #: checkpoint-cost rows (the model's stacked block, read-only here;
        #: GRID_ROWS[1] is "cost")
        self._cost_rows = model._stacked_array()[1]
        self._keep = np.empty(n)                #: Alg. 5 keep-running finishes
        # -- per-task mirrors and validity ------------------------------
        self._sigma = np.full(n, -1, dtype=np.int64)
        self._rc_sigma = np.full(n, -2, dtype=np.int64)
        self._alpha = np.empty(n)
        self._t_last = np.empty(n)
        self._t_expected = np.empty(n)
        self._tff_s = np.empty(n)   #: grid t_ff at the current sigma
        self._tau_s = np.empty(n)   #: grid tau at the current sigma
        self._cost_s = np.empty(n)  #: grid C at the current sigma
        self._alpha_t = np.empty(n)
        self._stall = np.zeros(n)
        self._row_t = np.full(n, np.nan)    #: t each finish row was patched at
        self._row_stall = np.zeros(n)       #: stall each row was patched with
        self._dirty = np.ones(n, dtype=bool)
        self._keep_valid = np.zeros(n, dtype=bool)
        self._pending = np.zeros(n, dtype=bool)
        # -- which _prof row holds each task's envelope (see _profile_rows)
        self._env_key = np.full(n, -1, dtype=np.int64)  #: alpha key of row
        self._prof_pos = np.full(n, -1, dtype=np.int64)  #: row pos in _prof
        # -- per-decision scratch (reused, never reallocated) -----------
        self._prof = np.empty((n, width))
        self._left = np.empty((n, width))
        self._right = np.empty((n, width))
        self._vals = np.empty((n, width))
        self._sufrev = np.empty((n, width))
        self._sizes = np.fromiter(
            (model.pack[i].size for i in range(n)), dtype=float, count=n
        )
        self.budget: Optional[int] = None  #: last free-processor count seen
        self.rows_patched = 0
        self.rows_reused = 0
        self.profile_env_reused = 0
        self.matrices_served = 0
        #: Preallocated ndarray blocks per cache (counted off the live
        #: attributes for the EngineStats allocation report, so adding
        #: or dropping a scratch field cannot desync the diagnostic).
        self.scratch_allocations = sum(
            1 for value in vars(self).values() if isinstance(value, np.ndarray)
        )
        _PROCESS_DECISION_COUNTERS[2] += self.scratch_allocations

    # -- simulator hooks ---------------------------------------------------
    def invalidate(self, i: int) -> None:
        """Mark task ``i`` dirty: its ``alpha``/``t_last``/``sigma`` changed."""
        self._dirty[i] = True

    def note_budget(self, free: int) -> None:
        """Record the live free-processor count ahead of a decision."""
        self.budget = int(free)

    def reset(self) -> None:
        """Return the cache to its just-constructed validity state.

        The rolling-horizon service (:mod:`repro.service`) keeps one
        cache per model and re-injects it into every segment whose pack
        shares that model.  Between segments all runtimes are rebuilt,
        so every mirror is stale — but the persistent rows and scratch
        blocks are gated behind the validity bits, so clearing the bits
        (and the mirrors they guard) restores the exact
        post-construction state with zero reallocation.  The cumulative
        patch/reuse counters survive: they feed the service telemetry.
        """
        self._sigma.fill(-1)
        self._rc_sigma.fill(-2)
        self._stall.fill(0.0)
        self._row_t.fill(np.nan)
        self._row_stall.fill(0.0)
        self._dirty.fill(True)
        self._keep_valid.fill(False)
        self._pending.fill(False)
        self._env_key.fill(-1)
        self._prof_pos.fill(-1)
        self.budget = None

    # -- internal patching -------------------------------------------------
    def _refresh(self, rt: TaskRuntime) -> None:
        """Resync one dirty task's mirrors from its live runtime."""
        i = rt.index
        sigma = rt.sigma
        if sigma != self._sigma[i]:
            grid = self.model.grid(i)
            slot = grid.slot(sigma)
            self._tff_s[i] = grid.t_ff[slot]
            self._tau_s[i] = grid.tau[slot]
            self._cost_s[i] = grid.cost[slot]
            self._sigma[i] = sigma
            # the rc row is now for the wrong source: _rc_sigma mismatch
        self._alpha[i] = rt.alpha
        self._t_last[i] = rt.t_last
        self._t_expected[i] = rt.t_expected
        self._keep_valid[i] = False
        self._row_t[i] = np.nan
        self._dirty[i] = False

    def _rc_row(self, i: int) -> np.ndarray:
        """The cached ``rc_factor * RC^{sigma(i) -> k}`` row, repatched
        only when ``sigma(i)`` moved since it was last computed."""
        if self._rc_sigma[i] != self._sigma[i]:
            self._rc[i] = self.model.rc_factor * redistribution_cost_vector(
                float(self._sizes[i]), int(self._sigma[i]), self.model.j_grid
            )
            self._rc_sigma[i] = self._sigma[i]
        else:
            self.rows_reused += 1
            _PROCESS_DECISION_COUNTERS[1] += 1
        return self._rc[i]

    def _patch_row(self, i: int, t: float) -> None:
        """Patch one pending row on first touch (operation-identical to
        :meth:`_patch_rows` for a single row, reusing the cached rc row)."""
        model = self.model
        grid = model.grid(i)
        alpha = float(self._alpha_t[i])
        profile = model.profile(i, alpha)
        rc = self._rc_row(i)
        self._fin[i] = (
            (t + float(self._stall[i])) + rc + (grid.cost + profile)
        )
        self._row_t[i] = t
        self._row_stall[i] = self._stall[i]
        self.rows_patched += 1
        _PROCESS_DECISION_COUNTERS[0] += 1

    def envelope_value(self, i: int, alpha: float, k: int) -> float:
        """``model.profile(i, alpha)[slot(k)]`` off the envelope state.

        Serves the commit-time scalar read — ``apply_move``'s
        expected-finish refresh at the decision's ``alpha^t`` — from the
        envelope row the decision just evaluated in the ``_prof``
        workspace, skipping the model's envelope store entirely.
        Bit-identical by construction: the row is addressed through
        ``_prof_pos`` (valid only for rows written by the *latest*
        ``_profile_rows`` pass) and its alpha key, and the envelope is a
        pure function of ``(task, quantised alpha)`` — a stale-but-matching
        row holds the same bits a fresh evaluation would.  A cold, repurposed or
        key-mismatched row falls back to the model (a store hit whenever
        the row was lazily materialised this decision).  ``k`` must be
        an on-grid even count, which every heuristic's granted
        allocation is.
        """
        pos = self._prof_pos[i]
        if pos >= 0 and self._env_key[i] == int(round(alpha * _ALPHA_SCALE)):
            self.profile_env_reused += 1
            _PROCESS_DECISION_COUNTERS[3] += 1
            return float(self._prof[pos, (k >> 1) - 1])
        return float(self.model.profile(i, alpha)[(k >> 1) - 1])

    # -- the decision-point entry point ------------------------------------
    def matrix(
        self,
        t: float,
        tasks: Sequence[TaskRuntime],
        faulty: Optional[int] = None,
        *,
        with_keep: bool = False,
        lazy: bool = False,
    ) -> DecisionMatrix:
        """The delta-patched candidate matrix of this decision point.

        ``tasks`` must be non-empty; ``faulty`` marks the struck task
        (its ``alpha`` was already rolled back by the simulator skeleton
        and its stall is recovered from ``t_last``).  ``with_keep`` also
        serves the unchanged-allocation finishes Algorithm 5 patches in.
        Bit-identical to a fresh evaluation over the same ``tasks`` —
        only rows whose task is dirty, whose stall changed, or whose
        last patch was at a different ``t`` are recomputed (``lazy``
        defers those recomputations to first touch).  The returned matrix
        aliases the cache's persistent arrays and is valid until the
        next :meth:`matrix` call.
        """
        n_act = len(tasks)
        rows = np.fromiter(
            (rt.index for rt in tasks), dtype=np.int64, count=n_act
        )
        indices = rows.tolist()
        dirty_pos = np.nonzero(self._dirty[rows])[0]
        for pos in dirty_pos:
            self._refresh(tasks[pos])
        stall = np.zeros(n_act)
        if faulty is not None:
            pos_f = indices.index(faulty)
            stall[pos_f] = faulty_stall(tasks[pos_f], t)
        # alpha^t over every active row from the mirrors: bit-identical
        # to remaining_at (elementwise over the same values).
        alpha_t = remaining_from_arrays(
            self._alpha[rows], self._t_last[rows], self._tff_s[rows],
            self._tau_s[rows], self._cost_s[rows], t,
        )
        if faulty is not None:
            alpha_t[pos_f] = tasks[pos_f].alpha  # already rolled back
        self._alpha_t[rows] = alpha_t
        self._stall[rows] = stall
        stale = (self._row_t[rows] != t) | (self._row_stall[rows] != stall)
        sub = rows[stale]
        self.rows_reused += n_act - sub.size
        _PROCESS_DECISION_COUNTERS[1] += n_act - sub.size
        pending: Optional[np.ndarray] = None
        if lazy:
            self._pending[:] = False
            self._pending[sub] = True
            pending = self._pending
        elif sub.size:
            self._patch_rows(sub, t)
        if with_keep:
            self._patch_keep(rows)
        self.matrices_served += 1
        return DecisionMatrix(
            cache=self,
            t=t,
            indices=indices,
            j_init=self._sigma,
            alpha_t=self._alpha_t,
            stall=self._stall,
            finishes=self._fin,
            keep=self._keep if with_keep else None,
            pending=pending,
        )

    def _profile_rows(self, sub: np.ndarray, k: int) -> np.ndarray:
        """Envelope rows of the stale tasks, evaluated into ``_prof``.

        One :func:`~repro.resilience.profile_backends.fused_raw_rows`
        pass over the model's stacked grid block at the quantised
        alphas, then the Eq. (6) running minimum in place — the same
        kernel and operation order as :meth:`~repro.resilience.
        expected_time.ExpectedTimeModel.profile_matrix`, so every row is
        bit-identical to it.  The model's envelope store is bypassed (no
        per-row dict probes or insertions on the per-decision hot path);
        that is value-safe because an envelope is a pure function of
        ``(task, quantised alpha)``.  ``_prof_pos``/``_env_key`` record
        which task owns each workspace row and at which alpha key, so
        :meth:`envelope_value` can serve the commit-time scalar reads of
        the same decision.
        """
        # np.rint rounds half to even, matching the scalar
        # ``int(round(alpha * SCALE))`` key bit for bit.
        keys = np.rint(self._alpha_t[sub] * _ALPHA_SCALE).astype(np.int64)
        raw = fused_raw_rows(
            self.model._stacked_array()[:, sub], keys / _ALPHA_SCALE
        )
        out = np.minimum.accumulate(raw, axis=1, out=self._prof[:k])
        # Rows written here supersede any earlier workspace layout.
        self._prof_pos[:] = -1
        self._env_key[sub] = keys
        self._prof_pos[sub] = np.arange(k)
        return out

    def _patch_rows(self, sub: np.ndarray, t: float) -> None:
        """Recombine the stale rows in one fused pass over the scratch.

        Operation order is exactly the scalar helpers'
        ``((t + stall) + rc) + (cost + profile)``, row-broadcast.
        """
        need = sub[self._rc_sigma[sub] != self._sigma[sub]]
        if need.size:
            self._rc[need] = self.model.rc_factor * redistribution_cost_matrix(
                self._sizes[need], self._sigma[need], self.model.j_grid
            )
            self._rc_sigma[need] = self._sigma[need]
        k = sub.size
        self.rows_reused += k - need.size  # RC rows with an unchanged sigma
        _PROCESS_DECISION_COUNTERS[1] += k - need.size
        prof = self._profile_rows(sub, k)
        left = self._left[:k]
        np.take(self._rc, sub, axis=0, out=left)
        ts = t + self._stall[sub]
        np.add(ts[:, None], left, out=left)
        right = self._right[:k]
        np.take(self._cost_rows, sub, axis=0, out=right)
        np.add(right, prof, out=right)
        np.add(left, right, out=left)
        self._fin[sub] = left
        self._row_t[sub] = t
        self._row_stall[sub] = self._stall[sub]
        self.rows_patched += k
        _PROCESS_DECISION_COUNTERS[0] += k

    def _patch_keep(self, rows: np.ndarray) -> None:
        """Refresh the keep-running finishes of the rows touched since
        they were last computed (the column does not depend on ``t``).

        The keep-running finish ``tlastR_i + t^R_{i,sigma(i)}(alpha_i)``
        is exactly the expected finish ``tU_i`` that every writer of the
        live bookkeeping maintains — the pack-start assignment, the
        failure rollback, ``apply_move`` and the rebuild's own
        keep-restore all write that very expression — so the mirror of
        ``t_expected`` (taken while the task was clean) *is* the keep
        value, bit for bit, with no profile evaluation at all.  The
        checking cache in ``tests/test_decision_kernels.py`` pins this
        against ``t_last + expected_time(i, sigma, alpha)`` on
        randomised runs.
        """
        need = rows[~self._keep_valid[rows]]
        self.rows_reused += rows.size - need.size  # keep rows still valid
        _PROCESS_DECISION_COUNTERS[1] += rows.size - need.size
        if not need.size:
            return
        self._keep[need] = self._t_expected[need]
        self._keep_valid[need] = True

    # -- the incremental-heap rebuild block ---------------------------------
    def rebuild_block(
        self, dm: DecisionMatrix
    ) -> tuple[np.ndarray, np.ndarray, int]:
        """Scratch blocks for the Algorithm-5 incremental-heap loop.

        Returns ``(vals, sufrev, width)``: ``vals[pos]`` is task
        ``dm.indices[pos]``'s finish row with the keep-running candidate
        patched in at the task's current slot, ``sufrev`` its
        reversed running minimum, so ``sufrev[pos, width - 1 - s]`` is
        ``min(vals[pos, s:])`` — the O(1) "can this task still improve"
        probe of the grant loop.  Both are cache-owned scratch, valid
        until the next :meth:`matrix` call.
        """
        idx = np.fromiter(dm.indices, dtype=np.int64, count=len(dm.indices))
        k = idx.size
        vals = self._vals[:k]
        np.take(self._fin, idx, axis=0, out=vals)
        slots = (self._sigma[idx] >> 1) - 1
        vals[np.arange(k), slots] = self._keep[idx]
        sufrev = self._sufrev[:k]
        sufrev[:] = vals[:, ::-1]
        np.minimum.accumulate(sufrev, axis=1, out=sufrev)
        return vals, sufrev, self._width

    def cache_info(self) -> Dict[str, int | float]:
        """Patch/reuse counters of this cache (diagnostics)."""
        rows = self.rows_patched + self.rows_reused
        return {
            "matrices_served": self.matrices_served,
            "rows_patched": self.rows_patched,
            "rows_reused": self.rows_reused,
            "reuse_rate": self.rows_reused / rows if rows else 0.0,
            "profile_env_reused": self.profile_env_reused,
            "scratch_allocations": self.scratch_allocations,
            "budget": self.budget if self.budget is not None else -1,
        }
