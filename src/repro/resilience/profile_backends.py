"""The fused Eq. (4) profile pass over a gathered stacked-grid block.

Every batched profile evaluation in the library bottoms out in the same
elementwise pass over ``(row, grid-slot)`` blocks::

    work     = alpha * t_ff
    n_ff     = floor(work / (tau - C))
    tau_last = work - n_ff * (tau - C)
    t^R      = prefactor * (n_ff * exp_period + expm1(lam * tau_last))

:func:`fused_raw_rows` runs it over one gather of the model's stacked
``(7, n_tasks, grid)`` block (every
:class:`~repro.resilience.expected_time.TaskGrid` row, in
:data:`~repro.resilience.expected_time.GRID_ROWS` order): one fancy
index instead of a gather or an ``np.stack`` per field.  The oracle's
:class:`repro.oracle.ReferenceModel` skips it and keeps the original
per-call ``np.stack`` code of :func:`~repro.resilience.expected_time.
stacked_raw_profiles` instead.  Because float64
elementwise operations are bitwise deterministic regardless of how
their operands were laid out in memory, the fused rows are
bit-identical to the reference rows by construction (pinned by
``tests/test_properties_profile_backends.py``).

The pass only computes *raw* Eq. (4) rows; the Eq. (6) running-minimum
envelope, alpha quantisation and the envelope store stay in the model,
so both paths share the exact same caching semantics.
"""

from __future__ import annotations

import numpy as np

__all__ = ["fused_raw_rows"]


def fused_raw_rows(block: np.ndarray, alphas: np.ndarray) -> np.ndarray:
    """Raw Eq. (4) rows of a gathered grid block, one per ``alphas`` entry.

    ``block`` is ``stacked[:, sel]``: the ``(7, k, grid)`` rows of the
    ``k`` selected tasks, gathered in one fancy index; ``alphas`` holds
    their ``k`` quantised alphas.  Runs the expression of the reference
    multi-grid branch of :func:`~repro.resilience.expected_time.
    stacked_raw_profiles` into fresh arrays (a ufunc writing into a view
    of its own inputs' base pays a memory-overlap check per call), so
    every row is bit-identical to the reference; rows with
    ``alpha <= 0`` are exactly zero, like the reference.
    """
    t_ff, _, _, lam, prefactor, exp_period, wpp = block
    work = alphas[:, None] * t_ff
    n_ff = np.floor(work / wpp)
    tau_last = work - n_ff * wpp
    with np.errstate(over="ignore"):
        # exp overflow -> inf is legitimate (hopeless MTBF configs),
        # exactly like the reference kernel.
        raw = prefactor * (n_ff * exp_period + np.expm1(lam * tau_last))
    zero = alphas <= 0.0
    if zero.any():
        # inf prefactor times the zero row would give nan; finished
        # tasks cost exactly nothing, like the reference.
        raw[zero] = 0.0
    return raw
