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
envelope needs the prefix minimum anyway), by the one Eq. (4)
expression of the library, :func:`_eq4_rows`: a broadcast over one
grid's ``(7, w)`` value block at a float alpha, or over the model's
stacked ``(7, k, w)`` block at ``(k, 1)`` alphas.  Scalar misses
(:meth:`ExpectedTimeModel.profile`, :meth:`ExpectedTimeModel.raw_profile`),
the batch accessors and the decision cache's stale rows
(:class:`repro.core.kernels.DecisionCache`, through
:meth:`ExpectedTimeModel._raw_rows`) all run it; the test oracle
(:class:`repro.oracle.ReferenceModel`) keeps its own seed-literal copy.

Envelope rows are stored on the task's :class:`TaskGrid`, keyed by
quantised alpha: rollback alphas are continuous floats, so the alpha is
quantised to the 1e-12 grid — and the profile is *evaluated at the
quantised alpha* — to keep the hit rate high under faults while staying
deterministic: the returned envelope is a pure function of
``(TaskGrid, quantised alpha)``, never of what the store happened to
contain (the perturbation is below 1e-12 relative, far under the
model's fidelity).  :meth:`ExpectedTimeModel.alpha_key` and
:meth:`ExpectedTimeModel.alpha_keys` are the one place an alpha is
range-checked (``[0, 1]``, NaN refused) and quantised.  Rows live and
die with their grid: figure runs build grids per model, while the
online service hands each running job's grid to every model it builds,
so the job's rows carry from epoch to epoch.  Each model bounds the
rows it inserts by :data:`CACHE_SIZE`, FIFO over its own insertions;
hits and misses are counted in the :mod:`repro.counters` registry
(``profile_hits``, ``profile_misses``).

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

__all__ = [
    "ExpectedTimeModel",
    "TaskGrid",
    "checkpoint_count",
    "even_grid",
    "last_period",
    "ensure_alpha_vector",
]

#: Quantisation step of the profile-cache alpha key (~1e-12).
_ALPHA_QUANTUM = 1e-12
_ALPHA_SCALE = 1.0 / _ALPHA_QUANTUM
#: Largest alpha accepted: 1 plus one quantum of float noise.
_ALPHA_MAX = 1.0 + _ALPHA_QUANTUM

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
    ``alphas`` through this exactly once, so the key helper and the
    Eq. (4) pass underneath can assume a conforming array and never
    silently copy on the hot path.  A conforming input passes through
    untouched; a non-float64 or non-contiguous one is converted *here*,
    visibly, instead of inside every per-call ``np.asarray``.
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


def _eq4_rows(block: np.ndarray, alpha) -> np.ndarray:
    """Raw Eq. (4) over a :attr:`TaskGrid.block`-shaped value block.

    ``block`` is one grid's ``(7, w)`` block with a float ``alpha``, or
    a ``(7, k, w)`` gather of the model's stacked block with ``(k, 1)``
    alphas (already quantised).  The expression is elementwise, so a
    row is bit-identical whichever form evaluated it.  An ``alpha`` of
    0 is the caller's to zero: an overflowed (``inf``) prefactor times
    the zero bracket would give ``nan`` here.
    """
    t_ff, _, _, lam, prefactor, exp_period, wpp = block
    work = alpha * t_ff
    n_ff = np.floor(work / wpp)
    tau_last = work - n_ff * wpp
    with np.errstate(over="ignore"):
        # exp overflow -> inf is legitimate (hopeless MTBF configs).
        return prefactor * (n_ff * exp_period + np.expm1(lam * tau_last))


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
    def alpha_key(alpha: float) -> int:
        """Quantised store key: alphas within ~1e-12 share a profile.

        Refuses an alpha outside ``[0, 1]`` (NaN included) with a
        :class:`ConfigurationError`.  Profiles are evaluated at
        ``key / 1e12`` (see the module docstring), so a hit and a fresh
        computation agree bit for bit.
        """
        if not 0.0 <= alpha <= _ALPHA_MAX:  # NaN fails too
            raise ConfigurationError(f"alpha must be in [0, 1], got {alpha}")
        return int(round(alpha * _ALPHA_SCALE))

    @staticmethod
    def alpha_keys(alphas: np.ndarray) -> np.ndarray:
        """:meth:`alpha_key` of each entry of a float64 vector, as int64.

        Bit-equal to the scalar key: ``np.rint`` and ``round`` both
        round half to even.  The range check walks a Python list, which
        is cheaper than two array reductions at decision sizes.
        """
        for alpha in alphas.tolist():
            if not 0.0 <= alpha <= _ALPHA_MAX:  # NaN fails too
                raise ConfigurationError(
                    f"alpha must be in [0, 1], got {alpha}"
                )
        return np.rint(alphas * _ALPHA_SCALE).astype(np.int64)

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
        key = self.alpha_key(alpha)
        envelopes = self.grid(i).envelopes
        cached = envelopes.get(key)
        if cached is not None:
            COUNTERS["profile_hits"] += 1
            return cached
        COUNTERS["profile_misses"] += 1
        # One row needs no stacking: Eq. (4) over the grid's own block.
        envelope = np.minimum.accumulate(
            self.raw_profile(i, key / _ALPHA_SCALE)
        )
        envelope.setflags(write=False)
        self._insert([envelopes], [key], [envelope])
        return envelope

    def _rows_into(
        self, indices: Sequence[int], alphas: np.ndarray, out: np.ndarray
    ) -> np.ndarray:
        """Envelope row of each ``(indices[r], alphas[r])`` into ``out[r]``.

        The one lookup behind the batched accessors.  Keys come from
        :meth:`alpha_keys`; the misses — each distinct ``(task, key)``
        once — run in one raw-row pass and are stored; then every row
        lands in ``out`` in one slice assignment.
        """
        keys = self.alpha_keys(alphas).tolist()
        stores = [self.grid(i).envelopes for i in indices]
        found = [store.get(key) for store, key in zip(stores, keys)]
        missing: Dict[tuple[int, int], list[int]] = {}
        for pos, row in enumerate(found):
            if row is None:
                missing.setdefault((indices[pos], keys[pos]), []).append(pos)
        misses = sum(map(len, missing.values()))
        COUNTERS["profile_hits"] += len(found) - misses
        COUNTERS["profile_misses"] += misses
        if missing:
            sel = [i for i, _ in missing]
            miss_keys = [key for _, key in missing]
            raw = self._raw_rows(sel, np.array(miss_keys))
            block = np.minimum.accumulate(raw, axis=1)  # a fresh array
            block.setflags(write=False)
            rows = list(block)
            for row, positions in zip(rows, missing.values()):
                for pos in positions:
                    found[pos] = row
            self._insert(
                [stores[ps[0]] for ps in missing.values()], miss_keys, rows
            )
        if found:
            out[: len(found)] = found
        return out

    def _raw_rows(self, indices, keys: np.ndarray) -> np.ndarray:
        """Eq. (4) rows of ``(indices[r], keys[r] / 1e12)``, one fresh
        ``(len(keys), grid)`` array: one pass over a gather of the
        stacked grid block; a zero key gives a zero row."""
        raw = _eq4_rows(
            self._stacked_array()[:, indices], (keys / _ALPHA_SCALE)[:, None]
        )
        zero = keys <= 0
        if zero.any():
            raw[zero] = 0.0
        return raw

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
        :data:`GRID_ROWS` ``[k]`` array, so a fancy-indexed evaluation
        is bit-identical to one over the grid's own block.
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
    ) -> np.ndarray:
        """:meth:`profile_matrix` into caller-preallocated scratch.

        Writes the envelope row of each ``(indices[r], alphas[r])`` pair
        into ``out[r]`` (shape at least ``(len(indices), grid)``) and
        returns ``out``.  Row ``r`` is bit-identical to
        ``profile(indices[r], alphas[r])``.
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
        return self._rows_into(indices, alphas_arr, out)

    def raw_profile(self, i: int, alpha: float) -> np.ndarray:
        """Eq. (4) without the envelope (exposed for tests/diagnostics).

        ``alpha`` is checked and snapped to the model's 1e-12 alpha grid
        (:meth:`alpha_key`), like every profile evaluation, so
        ``profile(i, a)`` always equals the prefix minimum of
        ``raw_profile(i, a)`` at the same argument.
        """
        key = self.alpha_key(alpha)
        if key == 0:
            return np.zeros(self._grid_len)
        return _eq4_rows(self.grid(i).block, key / _ALPHA_SCALE)

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
