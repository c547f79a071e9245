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
envelope needs the prefix minimum anyway).  Envelope profiles are cached
in flat preallocated ndarray rows keyed by ``(task, quantised alpha)``:
rollback alphas are continuous floats, so the alpha is quantised to the
1e-12 grid — and the profile is *evaluated at the quantised alpha* — to
keep the hit rate high under faults while staying deterministic: the
returned envelope is a pure function of ``(task, quantised alpha)``,
never of what the cache happened to contain (the perturbation is below
1e-12 relative, far under the model's fidelity).  Eviction is FIFO over
the row ring.
This is the hot path of the library; the batch accessors
(:meth:`ExpectedTimeModel.expected_times`,
:meth:`ExpectedTimeModel.profile_batch`) let the scheduling heuristics
evaluate all candidate ``j`` — or all tasks at one ``alpha`` — in a
single vectorised call instead of per-slot scalar lookups.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Dict, Optional, Sequence

import numpy as np

from ..cluster import Cluster
from ..exceptions import CapacityError, ConfigurationError
from ..tasks import Pack, TaskSpec
from .checkpoint import ResilienceModel
from .profile_backends import (
    NUMBA_AVAILABLE,
    PROFILE_BACKENDS,
    ensure_profile_backend,
    make_profile_backend,
    resolve_profile_backend,
)

__all__ = [
    "ExpectedTimeModel",
    "TaskGrid",
    "checkpoint_count",
    "even_grid",
    "last_period",
    "stacked_raw_profiles",
    "ensure_alpha_vector",
    "PROFILE_BACKENDS",
    "NUMBA_AVAILABLE",
]

#: Quantisation step of the profile-cache alpha key (~1e-12).
_ALPHA_QUANTUM = 1e-12
_ALPHA_SCALE = 1.0 / _ALPHA_QUANTUM

#: Process-wide profile-cache [hits, misses], summed over every model
#: this process ever built.  A module-level cell rather than class
#: attributes: mutating a type attribute costs ~150ns per write in
#: CPython (type-cache invalidation), a list slot ~15ns — and this sits
#: on the cache-hit fast path.  Monotone, so the engine can delta it
#: around a work chunk regardless of workload-cache eviction.
_PROCESS_PROFILE_COUNTERS = [0, 0]


def ensure_alpha_vector(
    alphas, n: int, caller: str = "profile evaluation"
) -> np.ndarray:
    """Validated ``(n,)`` float64 C-contiguous alpha vector.

    The cache-boundary contract: every public batched accessor runs its
    ``alphas`` through this exactly once, so the kernels underneath
    (:func:`stacked_raw_profiles`, the profile backends) can assume a
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


@dataclass(frozen=True)
class TaskGrid:
    """Precomputed per-task arrays over the even-``j`` grid.

    ``index k`` corresponds to ``j = 2 (k + 1)``.
    """

    j: np.ndarray          #: even processor counts 2, 4, ..., j_max
    t_ff: np.ndarray       #: fault-free times t_{i,j}
    cost: np.ndarray       #: checkpoint costs C_{i,j}
    tau: np.ndarray        #: checkpoint periods tau_{i,j}
    lam: np.ndarray        #: task failure rates lambda * j
    prefactor: np.ndarray  #: e^{lambda j R} (1/(lambda j) + D)
    exp_period: np.ndarray  #: e^{lambda j tau} - 1
    work_per_period: np.ndarray  #: tau - C

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
        t_ff = np.asarray(task.fault_free_time(j), dtype=float)
        cost = np.asarray(resilience.cost(task, j), dtype=float)
        tau = np.asarray(resilience.period(task, j), dtype=float)
        lam = np.asarray(resilience.task_lambda(j), dtype=float)
        recovery = cost  # buddy protocol: R = C
        with np.errstate(over="ignore"):
            # exp overflow -> inf: the expected time legitimately diverges
            # on hopeless (MTBF << period) configurations
            prefactor = np.exp(lam * recovery) * (1.0 / lam + downtime)
            exp_period = np.expm1(lam * tau)
        work_per_period = tau - cost
        if np.any(work_per_period <= 0):
            raise ConfigurationError(
                f"task {task.index}: checkpoint period does not exceed its "
                "cost; the checkpoint strategy is inconsistent"
            )
        return cls(
            j=j,
            t_ff=t_ff,
            cost=cost,
            tau=tau,
            lam=lam,
            prefactor=prefactor,
            exp_period=exp_period,
            work_per_period=work_per_period,
        )

    def __post_init__(self) -> None:
        # slot() sits on every scalar accessor; memoise its arithmetic
        # (the dataclass is frozen, hence the object.__setattr__).
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
    max_procs:
        Largest ``j`` in the grid (defaults to ``cluster.processors``).
    cache_size:
        Number of ``(task, alpha)`` profiles kept alive (FIFO eviction
        over a preallocated row ring).
    rc_factor:
        Multiplier on every redistribution cost ``RC_i^{j->k}`` seen by
        the heuristics (ablation knob: 0 makes redistribution free, large
        values discourage it).  The paper's model is ``rc_factor = 1``.
    profile_backend:
        How the Eq. (4) elementwise pass executes on cache misses —
        ``"fused"`` (default, persistent stacked blocks + in-place
        workspaces), ``"numba"`` (optional compiled gate, silently
        falling back to fused when numba is absent) or ``"reference"``
        (the original per-call ``np.stack`` paths, kept verbatim).  All
        backends are bit-identical (:mod:`~repro.resilience.
        profile_backends`); the knob mirrors ``decision_kernel`` /
        ``decision_state`` / ``event_queue``.
    grids:
        Optional prebuilt :class:`TaskGrid` per task, in pack order, for
        callers that keep grids across models (the online service).  Each
        must be :meth:`TaskGrid.build` of that task over this model's
        ``j_grid`` with the same resilience model and downtime; by
        default grids are built lazily by :meth:`grid`.
    """

    @staticmethod
    def process_cache_snapshot() -> tuple[int, int]:
        """Process-wide profile ``(hits, misses)`` totals.

        Summed over every model this process ever built.  Monotone —
        unlike the per-instance counters these survive workload-cache
        eviction, so the engine can report a profile hit rate across
        whole campaigns.
        """
        return tuple(_PROCESS_PROFILE_COUNTERS)

    def __init__(
        self,
        pack: Pack,
        cluster: Cluster,
        resilience: Optional[ResilienceModel] = None,
        max_procs: Optional[int] = None,
        cache_size: int = 4096,
        rc_factor: float = 1.0,
        profile_backend: str = "fused",
        grids: Optional[Sequence[TaskGrid]] = None,
    ):
        if rc_factor < 0:
            raise ConfigurationError("rc_factor must be non-negative")
        if cache_size < 1:
            raise ConfigurationError("cache_size must be >= 1")
        self.pack = pack
        self.cluster = cluster
        self.rc_factor = float(rc_factor)
        self.resilience = (
            resilience if resilience is not None else ResilienceModel(cluster)
        )
        j_max = cluster.processors if max_procs is None else int(max_procs)
        if j_max < 2:
            raise ConfigurationError("max_procs must be >= 2")
        self._j_grid = even_grid(j_max)
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
        # Flat profile store: one preallocated row array per live envelope,
        # grown on demand up to cache_size and then recycled FIFO.
        # _profile_views maps (task, quantised-alpha) -> read-only row and
        # _row_keys tracks each row's occupant for the eviction.  A row is
        # only reused in place when no caller still references it (checked
        # via the refcount); otherwise a fresh array takes its slot and the
        # holder keeps the old, still-valid envelope — the semantics the
        # seed's OrderedDict cache gave for free.
        self._cache_size = int(cache_size)
        self._rows: list[np.ndarray] = []
        self._profile_views: Dict[tuple[int, int], np.ndarray] = {}
        self._row_keys: list[Optional[tuple[int, int]]] = []
        self._clock = 0
        self.cache_hits = 0
        self.cache_misses = 0
        # Stacked per-task grid block behind profile_rows_into: one
        # (n_tasks, grid) copy of each TaskGrid field, built once per
        # model so row-level re-evaluations are pure fancy indexing with
        # no per-call np.stack of grids.
        self._stacked_block: Optional[Dict[str, np.ndarray]] = None
        # Profile backend: requested name, resolved name (numba degrades
        # to fused when absent) and the lazily built backend object —
        # None while unbuilt AND for the reference mode, so the miss
        # paths test `_backend_obj` alone only after _get_backend().
        self.requested_backend = ensure_profile_backend(profile_backend)
        self._backend_name = resolve_profile_backend(profile_backend)
        self._backend_obj = None

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

    # -- profile backend -------------------------------------------------------
    @property
    def profile_backend(self) -> str:
        """The *resolved* backend name (``"numba"`` requests may read
        ``"fused"`` here — the soft-dependency fallback)."""
        return self._backend_name

    def set_profile_backend(self, profile_backend: str) -> str:
        """Switch the Eq. (4) backend; returns the resolved name.

        Cheap and value-safe at any time: backends are bit-identical and
        the profile ring is keyed only by ``(task, quantised alpha)``,
        so warm entries stay valid.  This is how a :class:`Simulator`
        applies its ``profile_backend`` knob to a shared, possibly
        pre-warmed model without rebuilding it.
        """
        self.requested_backend = ensure_profile_backend(profile_backend)
        resolved = resolve_profile_backend(profile_backend)
        if resolved != self._backend_name:
            self._backend_name = resolved
            self._backend_obj = None
        return self._backend_name

    def _get_backend(self):
        """The live backend object (``None`` means reference mode)."""
        backend = self._backend_obj
        if backend is None and self._backend_name != "reference":
            backend = make_profile_backend(
                self._backend_name, self._stacked_grids()
            )
            self._backend_obj = backend
        return backend

    # -- profiles --------------------------------------------------------------
    @staticmethod
    def _alpha_key(alpha: float) -> int:
        """Quantised cache key: alphas within ~1e-12 share a profile.

        Profiles are evaluated at ``key / 1e12`` (see the module
        docstring), so a hit and a fresh computation agree bit for bit.
        """
        return int(round(alpha * _ALPHA_SCALE))

    def _store_profile(self, key: tuple[int, int], values: np.ndarray) -> np.ndarray:
        """Insert an envelope into the flat row ring (FIFO eviction)."""
        if len(self._rows) < self._cache_size:
            arr = np.empty(self._grid_len, dtype=float)
            self._rows.append(arr)
            self._row_keys.append(key)
        else:
            slot = self._clock % self._cache_size
            evicted = self._row_keys[slot]
            if evicted is not None:
                del self._profile_views[evicted]
            arr = self._rows[slot]
            # Reuse the row in place only when provably unreferenced.
            # CPython refs here: self._rows + local arr + getrefcount
            # argument = 3; more means a caller still holds the evicted
            # envelope (or a view of it).  Extra transient references can
            # only over-count, i.e. force a harmless fresh allocation;
            # interpreters without refcounts always take the safe branch.
            getrefcount = getattr(sys, "getrefcount", None)
            if getrefcount is None or getrefcount(arr) > 3:
                arr = np.empty(self._grid_len, dtype=float)
                self._rows[slot] = arr
            else:
                arr.setflags(write=True)
            self._row_keys[slot] = key
        self._clock += 1
        arr[:] = values
        arr.setflags(write=False)
        self._profile_views[key] = arr
        return arr

    def profile(self, i: int, alpha: float = 1.0) -> np.ndarray:
        """Envelope ``t^R_{i,j}(alpha)`` for every even ``j`` in the grid.

        Returns the Eq. (6) running minimum, so the result is non-increasing
        in ``j`` (assumption (5) holds by construction).  The envelope is
        evaluated at the 1e-12-quantised ``alpha`` (module docstring), so
        the result never depends on cache history.
        """
        if alpha < 0.0 or alpha > 1.0 + 1e-12:
            raise ConfigurationError(f"alpha must be in [0, 1], got {alpha}")
        a_key = self._alpha_key(alpha)
        key = (i, a_key)
        cached = self._profile_views.get(key)
        if cached is not None:
            self.cache_hits += 1
            _PROCESS_PROFILE_COUNTERS[0] += 1
            return cached
        self.cache_misses += 1
        _PROCESS_PROFILE_COUNTERS[1] += 1
        backend = self._get_backend()
        if backend is None:
            grid = self.grid(i)
            raw = self.raw_profile(i, a_key / _ALPHA_SCALE, grid)
        else:
            raw = backend.raw_row(i, a_key / _ALPHA_SCALE)
        envelope = np.minimum.accumulate(raw)
        return self._store_profile(key, envelope)

    def profile_batch(
        self, indices: Sequence[int], alpha: float = 1.0
    ) -> np.ndarray:
        """Envelopes of several tasks at one ``alpha``, stacked row-wise.

        Cached profiles are gathered; the missing ones are evaluated in a
        single vectorised pass over their stacked grids (one ``expm1``
        over a 2-D block instead of one call per task) and inserted into
        the cache.  Returns an array of shape ``(len(indices), grid)``.
        """
        if alpha < 0.0 or alpha > 1.0 + 1e-12:
            raise ConfigurationError(f"alpha must be in [0, 1], got {alpha}")
        indices = list(indices)
        out = np.empty((len(indices), self._grid_len), dtype=float)
        a_key = self._alpha_key(alpha)
        # Duplicate task indices must evaluate (and store) only once.
        missing: list[int] = []
        positions_of: Dict[int, list[int]] = {}
        for pos, i in enumerate(indices):
            cached = self._profile_views.get((i, a_key))
            if cached is not None:
                self.cache_hits += 1
                _PROCESS_PROFILE_COUNTERS[0] += 1
                out[pos] = cached
            else:
                self.cache_misses += 1
                _PROCESS_PROFILE_COUNTERS[1] += 1
                if i not in positions_of:
                    positions_of[i] = []
                    missing.append(pos)
                positions_of[i].append(pos)
        if not missing:
            return out
        alpha_q = a_key / _ALPHA_SCALE  # evaluate at the quantised alpha
        backend = self._get_backend()
        if backend is None:
            grids = [self.grid(indices[pos]) for pos in missing]
            block = stacked_raw_profiles(
                grids, np.full(len(grids), alpha_q, dtype=float)
            )
        else:
            sel = np.fromiter(
                (indices[pos] for pos in missing), dtype=np.int64,
                count=len(missing),
            )
            block = backend.raw_rows(
                sel, np.full(len(missing), alpha_q, dtype=float)
            )
        np.minimum.accumulate(block, axis=1, out=block)
        for k, pos in enumerate(missing):
            i = indices[pos]
            self._store_profile((i, a_key), block[k])
            for dup_pos in positions_of[i]:
                out[dup_pos] = block[k]
        return out

    def profile_matrix(
        self, indices: Sequence[int], alphas: Sequence[float]
    ) -> np.ndarray:
        """Envelopes of several tasks, each at its *own* ``alpha``.

        The per-decision generalisation of :meth:`profile_batch`: at a
        scheduling decision point every task carries a distinct
        remaining-work fraction, so the decision kernels
        (:mod:`repro.core.kernels`) need one envelope row per ``(task,
        alpha)`` pair.  Cached rows are gathered; the missing ones are
        evaluated in a single :func:`stacked_raw_profiles` pass and
        inserted.  Row ``r`` is bit-identical to
        ``profile(indices[r], alphas[r])``.  Returns an array of shape
        ``(len(indices), grid)``.
        """
        indices = list(indices)
        alphas_arr = ensure_alpha_vector(alphas, len(indices), "profile_matrix")
        if alphas_arr.size and (
            float(alphas_arr.min()) < 0.0
            or float(alphas_arr.max()) > 1.0 + 1e-12
        ):
            raise ConfigurationError(
                f"every alpha must be in [0, 1], got {alphas_arr.tolist()}"
            )
        out = np.empty((len(indices), self._grid_len), dtype=float)
        keys: list[tuple[int, int]] = []
        missing: list[int] = []
        positions_of: Dict[tuple[int, int], list[int]] = {}
        for pos, i in enumerate(indices):
            key = (i, self._alpha_key(float(alphas_arr[pos])))
            keys.append(key)
            cached = self._profile_views.get(key)
            if cached is not None:
                self.cache_hits += 1
                _PROCESS_PROFILE_COUNTERS[0] += 1
                out[pos] = cached
            else:
                self.cache_misses += 1
                _PROCESS_PROFILE_COUNTERS[1] += 1
                if key not in positions_of:
                    positions_of[key] = []
                    missing.append(pos)
                positions_of[key].append(pos)
        if not missing:
            return out
        alpha_q = np.array(
            [keys[pos][1] / _ALPHA_SCALE for pos in missing], dtype=float
        )
        backend = self._get_backend()
        if backend is None:
            grids = [self.grid(indices[pos]) for pos in missing]
            block = stacked_raw_profiles(grids, alpha_q)
        else:
            sel = np.fromiter(
                (indices[pos] for pos in missing), dtype=np.int64,
                count=len(missing),
            )
            block = backend.raw_rows(sel, alpha_q)
        np.minimum.accumulate(block, axis=1, out=block)
        for row, pos in enumerate(missing):
            self._store_profile(keys[pos], block[row])
            for dup_pos in positions_of[keys[pos]]:
                out[dup_pos] = block[row]
        return out

    def _stacked_grids(self) -> Dict[str, np.ndarray]:
        """The per-task grid fields stacked into (n_tasks, grid) blocks.

        Built once per model (forcing every task grid) and reused by
        every :meth:`profile_rows_into` call — the per-simulation scratch
        the decision-state engine rides on.  Row ``i`` of each block is a
        copy of the corresponding :class:`TaskGrid` array of task ``i``,
        so fancy-indexed evaluations are bit-identical to
        :func:`stacked_raw_profiles` over freshly stacked grids.
        """
        block = self._stacked_block
        if block is None:
            grids = [self.grid(i) for i in range(len(self.pack))]
            block = {
                "t_ff": np.stack([g.t_ff for g in grids]),
                "wpp": np.stack([g.work_per_period for g in grids]),
                "lam": np.stack([g.lam for g in grids]),
                "prefactor": np.stack([g.prefactor for g in grids]),
                "exp_period": np.stack([g.exp_period for g in grids]),
            }
            self._stacked_block = block
        return block

    def profile_rows_into(
        self,
        indices: Sequence[int],
        alphas: np.ndarray,
        out: np.ndarray,
        *,
        store: bool = True,
    ) -> np.ndarray:
        """Row-level profile re-evaluation: :meth:`profile_matrix` into scratch.

        Writes the envelope row of each ``(indices[r], alphas[r])`` pair
        into ``out[r]`` (caller-preallocated, shape ``(len(indices),
        grid)``) and returns ``out``.  Cached rows are gathered from the
        profile ring; missing rows are evaluated in one fused pass over
        the persistent stacked grid block (:meth:`_stacked_grids`) —
        no per-call ``np.stack`` — and inserted into the ring so later
        scalar reads (e.g. the heuristics' ``apply_move`` bookkeeping)
        still hit.  Row ``r`` is bit-identical to
        ``profile(indices[r], alphas[r])``; the decision-state engine
        (:class:`repro.core.kernels.DecisionCache`) relies on that.

        ``store=False`` skips the ring insertion of freshly evaluated
        rows (they are still read from the ring when present).  Right
        for per-event alphas that never recur — storing them would be
        pure eviction churn — and value-safe either way, since profiles
        are pure functions of ``(task, quantised alpha)``, never of
        cache history.
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
        if alphas_arr.size and (
            float(alphas_arr.min()) < 0.0
            or float(alphas_arr.max()) > 1.0 + 1e-12
        ):
            raise ConfigurationError(
                f"every alpha must be in [0, 1], got {alphas_arr.tolist()}"
            )
        keys: list[tuple[int, int]] = []
        missing: list[int] = []
        positions_of: Dict[tuple[int, int], list[int]] = {}
        for pos, i in enumerate(indices):
            key = (i, self._alpha_key(float(alphas_arr[pos])))
            keys.append(key)
            cached = self._profile_views.get(key)
            if cached is not None:
                self.cache_hits += 1
                _PROCESS_PROFILE_COUNTERS[0] += 1
                out[pos] = cached
            else:
                self.cache_misses += 1
                _PROCESS_PROFILE_COUNTERS[1] += 1
                if key not in positions_of:
                    positions_of[key] = []
                    missing.append(pos)
                positions_of[key].append(pos)
        if not missing:
            return out
        sel = np.fromiter(
            (indices[pos] for pos in missing), dtype=np.int64,
            count=len(missing),
        )
        alpha_q = np.array(
            [keys[pos][1] / _ALPHA_SCALE for pos in missing], dtype=float
        )
        backend = self._get_backend()
        if backend is None:
            # Reference mode: the multi-grid branch of
            # stacked_raw_profiles, operation for operation, over
            # fancy-indexed rows of the persistent block.
            stacked = self._stacked_grids()
            t_ff = stacked["t_ff"][sel]
            wpp = stacked["wpp"][sel]
            work = alpha_q[:, None] * t_ff
            n_ff = np.floor(work / wpp)
            tau_last = work - n_ff * wpp
            lam = stacked["lam"][sel]
            with np.errstate(over="ignore"):
                block = stacked["prefactor"][sel] * (
                    n_ff * stacked["exp_period"][sel]
                    + np.expm1(lam * tau_last)
                )
            zero = alpha_q <= 0.0
            if bool(np.any(zero)):
                block[zero] = 0.0
        else:
            block = backend.raw_rows(sel, alpha_q)
        np.minimum.accumulate(block, axis=1, out=block)
        for row, pos in enumerate(missing):
            if store:
                self._store_profile(keys[pos], block[row])
            for dup_pos in positions_of[keys[pos]]:
                out[dup_pos] = block[row]
        return out

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
        batch accessor.  The heuristics' candidate scans
        (:func:`~repro.core.heuristics.base.candidate_finish_times`) use
        the same single-lookup pattern with the slot arithmetic inlined,
        since their targets are even by construction.
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
            "entries": len(self._profile_views),
            "capacity": self._cache_size,
            "hit_rate": self.cache_hits / lookups if lookups else 0.0,
        }
