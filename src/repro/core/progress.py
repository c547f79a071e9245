"""Deterministic progress accounting between events (Section 3.3.2).

Between two scheduler events, a task on ``j`` processors alternates
``tau - C`` of useful work with a checkpoint of length ``C``.  The paper
measures elapsed progress in two ways:

* **elapsed** (task still running at ``t``): the work fraction is
  ``(t - tlastR - N C) / t_ff`` with ``N = floor((t - tlastR)/tau)``
  completed checkpoints — clock time minus checkpoint overhead;
* **checkpointed** (a failure at ``t`` rolls back to the last
  checkpoint): only the ``N`` full periods survive, giving
  ``N (tau - C) / t_ff``.

The third quantity is the *projected finish*: the deterministic
fault-free completion ``tlastR + alpha t_ff + N^ff(alpha) C`` used by the
simulator as the completion event time.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, NamedTuple, Sequence

import numpy as np

from ..resilience.expected_time import ExpectedTimeModel, checkpoint_count

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from .state import TaskRuntime

__all__ = [
    "Residual",
    "elapsed_work_fraction",
    "checkpointed_work_fraction",
    "projected_finish",
    "projected_finishes",
    "remaining_after_elapsed",
    "remaining_after_failure",
    "remaining_after_failure_from_values",
    "remaining_from_arrays",
    "residual_workload",
]


def elapsed_work_fraction(
    t: float, t_last: float, t_ff: float, tau: float, cost: float
) -> float:
    """Work fraction accomplished between ``t_last`` and ``t`` (no failure).

    Clamped below at 0 (``t`` may precede ``t_last`` while a task is busy
    recovering or redistributing).
    """
    elapsed = t - t_last
    if elapsed <= 0.0:
        return 0.0
    n_ckpt = math.floor(elapsed / tau)
    useful = elapsed - n_ckpt * cost
    return max(0.0, useful / t_ff)


def checkpointed_work_fraction(
    t: float, t_last: float, t_ff: float, tau: float, cost: float
) -> float:
    """Work fraction surviving a failure at ``t`` (last checkpoint wins)."""
    elapsed = t - t_last
    if elapsed <= 0.0:
        return 0.0
    n_ckpt = math.floor(elapsed / tau)
    return max(0.0, n_ckpt * (tau - cost) / t_ff)


def projected_finish(
    t_last: float, alpha: float, t_ff: float, tau: float, cost: float
) -> float:
    """Deterministic fault-free completion time of the remaining work.

    ``t_last + alpha t_ff + N^ff(alpha) C`` — the remaining work plus the
    checkpoints interleaved with it (Eq. 2).  When the remaining work is an
    exact multiple of the period the trailing checkpoint is not needed and
    is elided.
    """
    if alpha <= 0.0:
        return t_last
    work = alpha * t_ff
    n_ff = checkpoint_count(alpha, t_ff, tau, cost)
    # Exact multiple: the final checkpoint after the last period is useless.
    if n_ff > 0 and math.isclose(work, n_ff * (tau - cost), rel_tol=0.0, abs_tol=1e-9):
        n_ff -= 1
    return t_last + work + n_ff * cost


def projected_finishes(
    t_last: np.ndarray,
    alpha: np.ndarray,
    t_ff: np.ndarray,
    tau: np.ndarray,
    cost: np.ndarray,
) -> np.ndarray:
    """:func:`projected_finish` of several tasks at once.

    Elementwise over the same floats, so entry ``r`` equals the scalar
    form of the same task bit for bit (the simulator's run prologue).
    """
    work = alpha * t_ff
    wpp = tau - cost
    n_ff = np.floor(work / wpp)
    # An exact multiple elides the useless final checkpoint.
    n_ff -= (n_ff > 0) & (np.abs(work - n_ff * wpp) <= 1e-9)
    return np.where(alpha <= 0.0, t_last, t_last + work + n_ff * cost)


def remaining_after_elapsed(
    model: ExpectedTimeModel, i: int, j: int, alpha: float, t: float, t_last: float
) -> float:
    """New remaining fraction of task ``i`` after running until ``t``.

    Uses the per-(task, j) grid of ``model`` for ``t_ff``/``tau``/``C``;
    the result is clamped to ``[0, alpha]``.
    """
    grid = model.grid(i)
    slot = grid.slot(j)
    done = elapsed_work_fraction(
        t, t_last, float(grid.t_ff[slot]), float(grid.tau[slot]), float(grid.cost[slot])
    )
    # The paper's fraction formula treats an in-progress checkpoint as work
    # (it only subtracts *completed* checkpoints), so near the task's end
    # `done` may overshoot `alpha` by up to C/t_ff.  Clamp, as the paper
    # implicitly does.
    return min(alpha, max(0.0, alpha - done))


def remaining_from_arrays(
    alpha: np.ndarray,
    t_last: np.ndarray,
    t_ff: np.ndarray,
    tau: np.ndarray,
    cost: np.ndarray,
    t: float,
) -> np.ndarray:
    """``alpha^t_i`` of several tasks at once (vectorised Alg. 3 line 8).

    For callers that already hold the per-task ``t_ff``/``tau``/``C``
    values at the current allocation (the decision cache mirrors them
    across events and fancy-indexes the active subset).  Every
    operation is elementwise, and entry ``r`` equals
    ``remaining_after_elapsed`` of the same task bit for bit, so a call
    over any row subset matches the scalar path.
    """
    elapsed = t - t_last
    n_ckpt = np.floor(elapsed / tau)
    useful = elapsed - n_ckpt * cost
    done = np.maximum(0.0, useful / t_ff)
    done[elapsed <= 0.0] = 0.0
    return np.minimum(alpha, np.maximum(0.0, alpha - done))


class Residual(NamedTuple):
    """Frozen snapshot of one live task at a re-pack probe time.

    ``alpha`` is the remaining work fraction at the probe; ``stall`` the
    blackout time still to serve (a busy task — recovering,
    redistributing or checkpointing — cannot restart its pattern before
    ``t + stall``); ``sigma`` the current allocation (the ``j_init`` of
    any Eq. 4 redistribution the re-pack decides); ``t_last`` the
    absolute pattern-restart time the task carries, so an allocation
    left unchanged resumes bit-identically.
    """

    alpha: float
    stall: float
    sigma: int
    t_last: float


def residual_workload(
    runtimes: Sequence["TaskRuntime"],
    t: float,
    t_ff: np.ndarray,
    tau: np.ndarray,
    cost: np.ndarray,
) -> "dict[int, Residual]":
    """Residual workload of every uncompleted runtime at time ``t``.

    The rolling-horizon extraction: at an epoch boundary the online
    service reads the remaining fraction of each live task off the
    simulator state and re-co-schedules the residuals as a fresh pack.
    ``t_ff``/``tau``/``cost`` hold each task's grid values at its
    current allocation, indexed by task (the simulator's mirrors).  A
    task still inside a blackout window (``t < t_last``) has already
    banked its post-rollback ``alpha`` — it carries that fraction plus
    the unserved stall; a running task subtracts the useful work done
    since its pattern restart, in one :func:`remaining_from_arrays`
    pass (bit-identical to :func:`remaining_after_elapsed`, the same
    arithmetic as the in-run heuristics' ``alpha^t_i``).
    """
    live = [rt for rt in runtimes if not rt.completed]
    idx = np.array([rt.index for rt in live], dtype=np.int64)
    alpha_t = remaining_from_arrays(
        np.array([rt.alpha for rt in live]),
        np.array([rt.t_last for rt in live]),
        t_ff[idx],
        tau[idx],
        cost[idx],
        t,
    )
    return {
        rt.index: (
            Residual(rt.alpha, rt.t_last - t, rt.sigma, rt.t_last)
            if t < rt.t_last
            else Residual(alpha, 0.0, rt.sigma, rt.t_last)
        )
        for rt, alpha in zip(live, alpha_t.tolist())
    }


def remaining_after_failure(
    model: ExpectedTimeModel, i: int, j: int, alpha: float, t: float, t_last: float
) -> float:
    """New remaining fraction of task ``i`` after a failure at ``t``.

    Only work up to the last completed checkpoint survives (Alg. 2 line 24).
    """
    grid = model.grid(i)
    slot = grid.slot(j)
    return remaining_after_failure_from_values(
        alpha, t, t_last,
        float(grid.t_ff[slot]), float(grid.tau[slot]), float(grid.cost[slot]),
    )


def remaining_after_failure_from_values(
    alpha: float, t: float, t_last: float,
    t_ff: float, tau: float, cost: float,
) -> float:
    """:func:`remaining_after_failure` with the grid values pre-gathered.

    Scalar entry point for callers that mirror ``t_ff``/``tau``/``C`` at
    the current allocation across events (the simulator's per-failure
    rollback) — bit-identical to the model-resolving form over the same
    values, since both run the exact same operations.
    """
    done = checkpointed_work_fraction(t, t_last, t_ff, tau, cost)
    return min(alpha, max(0.0, alpha - done))
