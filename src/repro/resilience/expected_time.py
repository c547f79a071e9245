"""Expected completion times under failures (Section 3.2).

For a task ``T_i`` executing a remaining work fraction ``alpha`` on ``j``
processors with periodic checkpointing, the paper derives (Eqs. 2-4):

.. math::

    N^{ff}_{i,j}(\\alpha) =
        \\Big\\lfloor \\frac{\\alpha t_{i,j}}{\\tau_{i,j} - C_{i,j}}
        \\Big\\rfloor,
    \\qquad
    \\tau_{last} = \\alpha t_{i,j} - N^{ff}_{i,j}(\\alpha)
                   (\\tau_{i,j} - C_{i,j}),

.. math::

    t^R_{i,j}(\\alpha) = e^{\\lambda j R_{i,j}}
        \\Big(\\frac{1}{\\lambda j} + D\\Big)
        \\Big( N^{ff}_{i,j}(\\alpha)\\,(e^{\\lambda j \\tau_{i,j}} - 1)
             + (e^{\\lambda j \\tau_{last}} - 1) \\Big).

Adding processors raises the failure rate, so ``t^R`` is not monotone in
``j``; Eq. (6) replaces it by its running minimum over even ``j`` (the
"threshold" envelope), restoring assumption (5).

The whole grid over even ``j`` is evaluated at once with NumPy (the
envelope needs the prefix minimum anyway).  Envelope rows are stored on
the task's :class:`TaskGrid`, keyed by quantised alpha: rollback alphas
are continuous floats, so the alpha is quantised to the 1e-12 grid —
and the profile is *evaluated at the quantised alpha* — to keep the hit
rate high under faults while staying deterministic: the returned
envelope is a pure function of ``(TaskGrid, quantised alpha)``, never of
what the store happened to contain (the perturbation is below 1e-12
relative, far under the model's fidelity).  Rows live and die with
their grid: figure runs build grids per model, while the online service
hands each running job's grid to every model it builds, so the job's
rows carry from epoch to epoch.  Each model bounds the rows it inserts
by :data:`CACHE_SIZE`, FIFO over its own insertions.

This is the hot path of the library; the batch accessors
(:meth:`ExpectedTimeModel.expected_times`,
:meth:`ExpectedTimeModel.profile_batch`) let the scheduling heuristics
evaluate all candidate ``j`` — or all tasks at one ``alpha`` — in a
single vectorised call instead of per-slot scalar lookups.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, Optional, Sequence

import numpy as np

from ..cluster import Cluster
from ..counters import COUNTERS
from ..exceptions import CapacityError, ConfigurationError
from ..tasks import Pack, TaskSpec
from .checkpoint import ResilienceModel
from .profile_backends import fused_raw_rows

__all__ = [
    "ExpectedTimeModel",
    "TaskGrid",
    "checkpoint_count",
    "even_grid",
    "last_period",
    "stacked_raw_profiles",
    "ensure_alpha_vector",
]

#: Quantisation step of the profile-cache alpha key (~1e-12).
_ALPHA_QUANTUM = 1e-12
_ALPHA_SCALE = 1.0 / _ALPHA_QUANTUM

#: Envelope rows one model keeps inserted in its grids' stores (FIFO
#: over its own insertions; an evicted row is dropped from whichever
#: grid holds it and stays valid for any holder).  Rows other models
#: inserted into shared grids are read, never counted or evicted.
CACHE_SIZE = 4096


def ensure_alpha_vector(
    alphas, n: int, caller: str = "profile evaluation"
) -> np.ndarray:
    """Validated ``(n,)`` float64 C-contiguous alpha vector.

    The cache-boundary contract: every public batched accessor runs its
    ``alphas`` through this exactly once, so the kernels underneath
    (:func:`stacked_raw_profiles`, the fused pass) can assume a
    conforming array and never silently copy on the hot path.  A
    conforming input passes through untouched; a non-float64 or
    non-contiguous one is converted *here*, visibly, instead of inside
    every per-call ``np.asarray``.
    """
    arr = (
        alphas
        if isinstance(alphas, np.ndarray)
        else np.asarray(alphas, dtype=np.float64)
    )
    if arr.dtype != np.float64 or not arr.flags.c_contiguous:
        arr = np.ascontiguousarray(arr, dtype=np.float64)
    if arr.shape != (n,):
        raise ConfigurationError(
            f"{caller} needs one alpha per row: "
            f"{n} rows, alphas shape {arr.shape}"
        )
    return arr


def even_grid(max_procs: int) -> np.ndarray:
    """The even processor counts ``2, 4, ..., max_procs`` (odd rounds down)."""
    return np.arange(2, int(max_procs) + 1, 2, dtype=float)


def checkpoint_count(alpha: float, t_ff: float, tau: float, cost: float) -> int:
    """``N^ff_{i,j}(alpha)`` — Eq. (2), scalar form."""
    if alpha <= 0.0:
        return 0
    work = tau - cost
    if work <= 0:
        raise ConfigurationError("checkpoint period must exceed checkpoint cost")
    return int(math.floor(alpha * t_ff / work))


def last_period(alpha: float, t_ff: float, tau: float, cost: float) -> float:
    """``tau_last`` — Eq. (3), scalar form."""
    n_ff = checkpoint_count(alpha, t_ff, tau, cost)
    return alpha * t_ff - n_ff * (tau - cost)


#: The value rows of :attr:`TaskGrid.block`, in order.
GRID_ROWS = (
    "t_ff", "cost", "tau", "lam", "prefactor", "exp_period", "work_per_period"
)


@dataclass(frozen=True, eq=False)
class TaskGrid:
    """Precomputed per-task arrays over the even-``j`` grid.

    ``index k`` corresponds to ``j = 2 (k + 1)``.  The seven value rows
    live in one ``(7, width)`` :attr:`block`; the named fields are views
    of its rows (:data:`GRID_ROWS` order), so a model stacks its grids
    with one ``np.concatenate``.  ``envelopes`` maps a quantised alpha
    key to the read-only Eq. (6) envelope row at that alpha (module
    docstring); it is not a field, and grids hash by identity
    (``eq=False``).
    """

    j: np.ndarray  #: even processor counts 2, 4, ..., j_max
    block: np.ndarray  #: (7, width) value rows, GRID_ROWS order
    t_ff: np.ndarray = field(init=False)  #: fault-free times t_{i,j}
    cost: np.ndarray = field(init=False)  #: checkpoint costs C_{i,j}
    tau: np.ndarray = field(init=False)  #: checkpoint periods tau_{i,j}
    lam: np.ndarray = field(init=False)  #: task failure rates lambda * j
    #: e^{lambda j R} (1/(lambda j) + D)
    prefactor: np.ndarray = field(init=False)
    exp_period: np.ndarray = field(init=False)  #: e^{lambda j tau} - 1
    work_per_period: np.ndarray = field(init=False)  #: tau - C

    @classmethod
    def build(
        cls,
        task: TaskSpec,
        j: np.ndarray,
        resilience: ResilienceModel,
        downtime: float,
    ) -> "TaskGrid":
        """The grid of ``task`` over the even counts ``j``.

        A pure function of the task, the grid, the resilience model and
        the downtime — never of the pack the task sits in — so one grid
        can serve every model that shares those (the online service keeps
        one per running job across its re-packs).
        """
        block = np.empty((len(GRID_ROWS), len(j)))
        t_ff, cost, tau, lam, prefactor, exp_period, work_per_period = block
        with np.errstate(over="ignore", invalid="ignore"):
            # exp overflow -> inf: the expected time legitimately diverges
            # on hopeless (MTBF << period) configurations.  A task too
            # large for float64 overflows t_ff or tau instead: refused.
            t_ff[:] = task.fault_free_time(j)
            cost[:] = resilience.cost(task, j)
            tau[:] = resilience.period(task, j)
            lam[:] = resilience.task_lambda(j)
            recovery = cost  # buddy protocol: R = C
            prefactor[:] = np.exp(lam * recovery) * (1.0 / lam + downtime)
            np.expm1(lam * tau, out=exp_period)
            np.subtract(tau, cost, out=work_per_period)
        finite = np.isfinite(t_ff).all() and np.isfinite(work_per_period).all()
        if not finite:
            raise ConfigurationError(
                f"task {task.name}: fault-free time or checkpoint period "
                "is not finite"
            )
        if np.any(work_per_period <= 0):
            raise ConfigurationError(
                f"task {task.name}: checkpoint period does not exceed its "
                "cost; the checkpoint strategy is inconsistent"
            )
        return cls(j=j, block=block)

    def __post_init__(self) -> None:
        # The dataclass is frozen, hence the object.__setattr__.
        for name, row in zip(GRID_ROWS, self.block):
            object.__setattr__(self, name, row)
        object.__setattr__(self, "envelopes", {})
        # slot() sits on every scalar accessor; memoise its arithmetic.
        object.__setattr__(self, "_slot_memo", {})
        object.__setattr__(self, "_size", len(self.j))

    def slot(self, j: int) -> int:
        """Grid index of an even processor count ``j`` (memoised)."""
        slot = self._slot_memo.get(j)
        if slot is not None:
            return slot
        if j < 2 or j % 2 != 0:
            raise CapacityError(f"j must be an even count >= 2, got {j}")
        slot = j // 2 - 1
        if slot >= self._size:
            raise CapacityError(
                f"j={j} exceeds the grid maximum {int(self.j[-1])}"
            )
        self._slot_memo[j] = slot
        return slot

    def slots(self, j_array: np.ndarray) -> np.ndarray:
        """Grid indices of an array of even processor counts."""
        j_arr = np.asarray(j_array, dtype=np.int64)
        if j_arr.size == 0:
            return np.empty(0, dtype=np.int64)
        if int(j_arr.min()) < 2 or bool(np.any(j_arr & 1)):
            raise CapacityError(
                "every j must be an even count >= 2, got "
                f"{j_arr.tolist()}"
            )
        slots = (j_arr >> 1) - 1
        if int(slots.max()) >= self._size:
            raise CapacityError(
                f"j={int(j_arr.max())} exceeds the grid maximum "
                f"{int(self.j[-1])}"
            )
        return slots


def stacked_raw_profiles(
    grids: Sequence[TaskGrid], alphas: np.ndarray
) -> np.ndarray:
    """Eq. (4) over several stacked task grids, one row per (grid, alpha).

    The fused kernel behind every batched profile evaluation: one
    ``floor``/``expm1`` pass over the 2-D block of stacked grids instead
    of one call per task.  ``alphas`` supplies one remaining-work
    fraction *per row* (callers quantise it first — see
    :meth:`ExpectedTimeModel.profile`), so a single pass can serve both
    the same-alpha case (:meth:`ExpectedTimeModel.profile_batch`) and
    the per-task-alpha case of the decision kernels
    (:meth:`ExpectedTimeModel.profile_matrix`,
    :mod:`repro.core.kernels`).  Rows with ``alpha <= 0`` are exactly
    zero; every other row is bit-identical to the scalar
    :meth:`ExpectedTimeModel.raw_profile` at the same alpha.
    """
    alphas = ensure_alpha_vector(alphas, len(grids), "stacked_raw_profiles")
    if len(grids) == 1:
        # Single-grid fast path: skip the stacking entirely (this is the
        # cache-miss path of every scalar profile evaluation).  A scalar
        # alpha broadcast over the 1-D grid performs the exact same
        # elementwise operations as a one-row stacked block.
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
        # nan; finished tasks cost exactly nothing, like raw_profile.
        block[zero] = 0.0
    return block


class ExpectedTimeModel:
    """Vectorised evaluator of ``t^R_{i,j}(alpha)`` with the Eq. (6) envelope.

    Parameters
    ----------
    pack:
        The co-scheduled tasks.
    cluster:
        Platform (supplies ``mu`` and ``D``).
    resilience:
        Optional pre-built :class:`ResilienceModel` (defaults to Young).
    rc_factor:
        Multiplier on every redistribution cost ``RC_i^{j->k}`` seen by
        the heuristics (ablation knob: 0 makes redistribution free, large
        values discourage it).  The paper's model is ``rc_factor = 1``.
    grids:
        Optional prebuilt :class:`TaskGrid` per task, in pack order, for
        callers that keep grids across models (the online service).  Each
        must be :meth:`TaskGrid.build` of that task over this model's
        ``j_grid`` with the same resilience model and downtime; by
        default grids are built lazily by :meth:`grid`.  Handed grids
        bring their stored envelope rows with them.
    """

    @staticmethod
    def process_cache_snapshot() -> tuple[int, int]:
        """Process-wide profile ``(hits, misses)``, read off the
        :mod:`repro.counters` registry."""
        return COUNTERS["profile_hits"], COUNTERS["profile_misses"]

    def __init__(
        self,
        pack: Pack,
        cluster: Cluster,
        resilience: Optional[ResilienceModel] = None,
        rc_factor: float = 1.0,
        grids: Optional[Sequence[TaskGrid]] = None,
    ):
        if rc_factor < 0:
            raise ConfigurationError("rc_factor must be non-negative")
        self.pack = pack
        self.cluster = cluster
        self.rc_factor = float(rc_factor)
        self.resilience = (
            resilience if resilience is not None else ResilienceModel(cluster)
        )
        self._j_grid = even_grid(cluster.processors)
        self._grid_len = len(self._j_grid)
        self._grids: dict[int, TaskGrid] = {}
        if grids is not None:
            if len(grids) != len(pack) or any(
                g.j.size != self._grid_len for g in grids
            ):
                raise ConfigurationError(
                    f"grids must hold one {self._grid_len}-slot grid per "
                    f"task of the {len(pack)}-task pack"
                )
            self._grids = dict(enumerate(grids))
        #: (grid store, alpha key) of every row this model inserted,
        #: oldest first: the FIFO that CACHE_SIZE bounds.
        self._inserted: Deque[tuple[dict, int]] = deque()
        self.cache_hits = 0
        self.cache_misses = 0
        # Every TaskGrid row stacked, built once per model so batched
        # evaluations are pure fancy indexing with no per-call np.stack.
        self._stacked: Optional[np.ndarray] = None

    # -- grids ----------------------------------------------------------------
    @property
    def j_grid(self) -> np.ndarray:
        """The even processor-count grid (shared by all tasks)."""
        return self._j_grid

    def grid(self, i: int) -> TaskGrid:
        """Per-task constant arrays, built lazily and kept for the run."""
        cached = self._grids.get(i)
        if cached is not None:
            return cached
        grid = TaskGrid.build(
            self.pack[i], self._j_grid, self.resilience, self.cluster.downtime
        )
        self._grids[i] = grid
        return grid

    # -- profiles --------------------------------------------------------------
    @staticmethod
    def _alpha_key(alpha: float) -> int:
        """Quantised store key: alphas within ~1e-12 share a profile.

        Profiles are evaluated at ``key / 1e12`` (see the module
        docstring), so a hit and a fresh computation agree bit for bit.
        """
        return int(round(alpha * _ALPHA_SCALE))

    def _insert(self, stores: list, keys: list, rows: list) -> None:
        """Store read-only envelope rows, ``rows[r]`` under ``keys[r]`` in
        the grid store ``stores[r]``; FIFO-bounded by :data:`CACHE_SIZE`
        over this model's insertions."""
        for envelopes, key, row in zip(stores, keys, rows):
            envelopes[key] = row
        inserted = self._inserted
        inserted.extend(zip(stores, keys))
        while len(inserted) > CACHE_SIZE:
            envelopes, key = inserted.popleft()
            envelopes.pop(key, None)

    def profile(self, i: int, alpha: float = 1.0) -> np.ndarray:
        """Envelope ``t^R_{i,j}(alpha)`` for every even ``j`` in the grid.

        Returns the Eq. (6) running minimum, so the result is non-increasing
        in ``j`` (assumption (5) holds by construction).  The envelope is
        evaluated at the 1e-12-quantised ``alpha`` (module docstring), so
        the result never depends on store history.
        """
        if not 0.0 <= alpha <= 1.0 + 1e-12:
            raise ConfigurationError(f"alpha must be in [0, 1], got {alpha}")
        key = self._alpha_key(alpha)
        envelopes = self.grid(i).envelopes
        cached = envelopes.get(key)
        if cached is not None:
            self.cache_hits += 1
            COUNTERS["profile_hits"] += 1
            return cached
        self.cache_misses += 1
        COUNTERS["profile_misses"] += 1
        # One row needs no stacking: it evaluates the grid's own arrays
        # (the single-grid branch of stacked_raw_profiles).
        envelope = np.minimum.accumulate(
            self.raw_profile(i, key / _ALPHA_SCALE)
        )
        envelope.setflags(write=False)
        self._insert([envelopes], [key], [envelope])
        return envelope

    def _rows_into(
        self,
        indices: Sequence[int],
        alphas: np.ndarray,
        out: np.ndarray,
        store: bool = True,
    ) -> np.ndarray:
        """Envelope row of each ``(indices[r], alphas[r])`` into ``out[r]``.

        The one lookup behind the batched accessors.  Keys are quantised
        in one ``np.rint`` pass (bit-equal to the scalar
        ``int(round(...))`` key: both round half to even); the misses —
        each distinct ``(task, key)`` once — run in one raw-row pass and
        are stored unless ``store`` is false; then every row lands in
        ``out`` in one slice assignment.
        """
        for alpha in alphas.tolist():
            if not 0.0 <= alpha <= 1.0 + 1e-12:  # NaN fails too
                raise ConfigurationError(
                    f"alpha must be in [0, 1], got {alpha}"
                )
        keys = np.rint(alphas * _ALPHA_SCALE).astype(np.int64).tolist()
        stores = [self.grid(i).envelopes for i in indices]
        found = [store.get(key) for store, key in zip(stores, keys)]
        missing: Dict[tuple[int, int], list[int]] = {}
        for pos, row in enumerate(found):
            if row is None:
                missing.setdefault((indices[pos], keys[pos]), []).append(pos)
        misses = sum(map(len, missing.values()))
        hits = len(found) - misses
        self.cache_hits += hits
        self.cache_misses += misses
        COUNTERS["profile_hits"] += hits
        COUNTERS["profile_misses"] += misses
        if missing:
            sel = [i for i, _ in missing]
            miss_keys = [key for _, key in missing]
            alpha_q = np.array(miss_keys) / _ALPHA_SCALE
            raw = self._raw_rows(sel, alpha_q)
            block = np.minimum.accumulate(raw, axis=1)  # a fresh array
            block.setflags(write=False)
            rows = list(block)
            for row, positions in zip(rows, missing.values()):
                for pos in positions:
                    found[pos] = row
            if store:
                self._insert(
                    [stores[ps[0]] for ps in missing.values()], miss_keys, rows
                )
        if found:
            out[: len(found)] = found
        return out

    def _raw_rows(self, indices: list, alphas: np.ndarray) -> np.ndarray:
        """Eq. (4) rows of ``(indices[r], alphas[r])``: the fused pass
        over the stacked grid block (bit-identical to
        :func:`stacked_raw_profiles`, which :mod:`repro.oracle` runs)."""
        return fused_raw_rows(self._stacked_array()[:, indices], alphas)

    def profile_batch(
        self, indices: Sequence[int], alpha: float = 1.0
    ) -> np.ndarray:
        """Envelopes of several tasks at one ``alpha``, stacked row-wise.

        Stored rows are gathered; the missing ones are evaluated in a
        single vectorised pass over their stacked grids (one ``expm1``
        over a 2-D block instead of one call per task) and stored.
        Returns an array of shape ``(len(indices), grid)``.
        """
        indices = list(indices)
        out = np.empty((len(indices), self._grid_len))
        alphas = np.full(len(indices), float(alpha))
        return self._rows_into(indices, alphas, out)

    def profile_matrix(
        self, indices: Sequence[int], alphas: Sequence[float]
    ) -> np.ndarray:
        """Envelopes of several tasks, each at its *own* ``alpha``.

        The per-decision generalisation of :meth:`profile_batch`: at a
        scheduling decision point every task carries a distinct
        remaining-work fraction, so the decision kernels
        (:mod:`repro.core.kernels`) need one envelope row per ``(task,
        alpha)`` pair.  Row ``r`` is bit-identical to
        ``profile(indices[r], alphas[r])``.  Returns an array of shape
        ``(len(indices), grid)``.
        """
        indices = list(indices)
        alphas_arr = ensure_alpha_vector(alphas, len(indices), "profile_matrix")
        out = np.empty((len(indices), self._grid_len))
        return self._rows_into(indices, alphas_arr, out)

    def _stacked_array(self) -> np.ndarray:
        """Every grid's value block, stacked: ``(7, n_tasks, grid)``.

        Built once per model (forcing every task grid) with one
        ``np.concatenate``; ``[k, i]`` is a copy of task ``i``'s
        :data:`GRID_ROWS` ``[k]`` array, so fancy-indexed evaluations
        are bit-identical to :func:`stacked_raw_profiles` over freshly
        stacked grids.
        """
        if self._stacked is None:
            n = len(self.pack)
            self._stacked = np.concatenate(
                [self.grid(i).block for i in range(n)], axis=1
            ).reshape(len(GRID_ROWS), n, self._grid_len)
        return self._stacked

    def profile_rows_into(
        self,
        indices: Sequence[int],
        alphas: np.ndarray,
        out: np.ndarray,
        *,
        store: bool = True,
    ) -> np.ndarray:
        """:meth:`profile_matrix` into caller-preallocated scratch.

        Writes the envelope row of each ``(indices[r], alphas[r])`` pair
        into ``out[r]`` (shape at least ``(len(indices), grid)``) and
        returns ``out``.  Row ``r`` is bit-identical to
        ``profile(indices[r], alphas[r])``.

        ``store=False`` skips storing freshly evaluated rows (stored
        rows are still read).  Right for per-event alphas that never
        recur — storing them would be pure eviction churn — and
        value-safe either way, since profiles are pure functions of
        ``(grid, quantised alpha)``, never of store history.
        """
        indices = list(indices)
        alphas_arr = ensure_alpha_vector(
            alphas, len(indices), "profile_rows_into"
        )
        if out.shape[0] < len(indices) or out.shape[1] != self._grid_len:
            raise ConfigurationError(
                f"profile_rows_into scratch too small: out shape "
                f"{out.shape}, need ({len(indices)}, {self._grid_len})"
            )
        return self._rows_into(indices, alphas_arr, out, store)

    def raw_profile(
        self, i: int, alpha: float, grid: Optional[TaskGrid] = None
    ) -> np.ndarray:
        """Eq. (4) without the envelope (exposed for tests/diagnostics).

        ``alpha`` is snapped to the model's 1e-12 alpha grid, like every
        profile evaluation, so ``profile(i, a)`` always equals the prefix
        minimum of ``raw_profile(i, a)`` at the same argument.
        """
        if grid is None:
            grid = self.grid(i)
        alpha = self._alpha_key(alpha) / _ALPHA_SCALE
        return stacked_raw_profiles([grid], np.array([alpha]))[0]

    # -- scalar accessors --------------------------------------------------------
    def expected_time(self, i: int, j: int, alpha: float = 1.0) -> float:
        """``t^R_{i,j}(alpha)`` with the envelope applied (Eq. 6)."""
        grid = self.grid(i)
        return float(self.profile(i, alpha)[grid.slot(j)])

    def expected_times(
        self, i: int, j_array: np.ndarray, alpha: float = 1.0
    ) -> np.ndarray:
        """``t^R_{i,j}(alpha)`` for every even count in ``j_array`` at once.

        One profile lookup plus one fancy index instead of a scalar
        accessor per candidate, with full input validation — the public
        batch accessor.  The oracle's candidate scans
        (:func:`repro.oracle.candidate_finish_times`) use the same
        single-lookup pattern with the slot arithmetic inlined, since
        their targets are even by construction.
        """
        return self.profile(i, alpha)[self.grid(i).slots(j_array)]

    def fault_free_time(self, i: int, j: int) -> float:
        """``t_{i,j}`` — fault-free time from the precomputed grid."""
        grid = self.grid(i)
        return float(grid.t_ff[grid.slot(j)])

    def checkpoint_cost(self, i: int, j: int) -> float:
        """``C_{i,j}``."""
        grid = self.grid(i)
        return float(grid.cost[grid.slot(j)])

    def period(self, i: int, j: int) -> float:
        """``tau_{i,j}``."""
        grid = self.grid(i)
        return float(grid.tau[grid.slot(j)])

    def recovery(self, i: int, j: int) -> float:
        """``R_{i,j} = C_{i,j}``."""
        return self.checkpoint_cost(i, j)

    @property
    def downtime(self) -> float:
        """Platform downtime ``D``."""
        return self.cluster.downtime

    def restart_overhead(self, i: int, j: int) -> float:
        """``D + R_{i,j}`` — stall paid by the struck task."""
        return self.downtime + self.recovery(i, j)

    def threshold(self, i: int, alpha: float = 1.0) -> int:
        """Smallest ``j`` achieving the minimum of the envelope.

        Beyond this count, extra processors no longer reduce the expected
        time (Section 3.2's "threshold").
        """
        envelope = self.profile(i, alpha)
        best = int(np.argmin(envelope))
        # argmin returns the first occurrence = smallest such j
        return int(self._j_grid[best])

    def cache_info(self) -> dict[str, int | float]:
        """Cache statistics (diagnostics), including the hit rate."""
        lookups = self.cache_hits + self.cache_misses
        return {
            "hits": self.cache_hits,
            "misses": self.cache_misses,
            "entries": len(self._inserted),
            "capacity": CACHE_SIZE,
            "hit_rate": self.cache_hits / lookups if lookups else 0.0,
        }
