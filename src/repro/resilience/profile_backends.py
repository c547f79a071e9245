"""The fused Eq. (4) profile pass over persistent stacked grid blocks.

Every batched profile evaluation in the library bottoms out in the same
elementwise pass over ``(row, grid-slot)`` blocks::

    work     = alpha * t_ff
    n_ff     = floor(work / (tau - C))
    tau_last = work - n_ff * (tau - C)
    t^R      = prefactor * (n_ff * exp_period + expm1(lam * tau_last))

:class:`FusedProfileBackend` runs it over the model's persistent
stacked grid blocks with in-place ``np.take`` gathers and reused
``floor``/``expm1`` workspaces — no per-call ``np.stack``, no
temporaries.  An :class:`~repro.resilience.expected_time.
ExpectedTimeModel` built with ``reference=True`` skips it and keeps the
original per-call ``np.stack`` code of :func:`~repro.resilience.
expected_time.stacked_raw_profiles` instead.  Because float64
elementwise operations are bitwise deterministic regardless of how
their operands were laid out in memory, the fused rows are
bit-identical to the reference rows by construction (pinned by
``tests/test_properties_profile_backends.py``).

The backend only computes *raw* Eq. (4) rows; the Eq. (6)
running-minimum envelope, alpha quantisation and ring insertion stay in
the model, so both paths share the exact same caching semantics.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

__all__ = ["FusedProfileBackend"]


class FusedProfileBackend:
    """Raw Eq. (4) rows off persistent stacked blocks, allocation-free.

    ``blocks`` is the model's ``(n_tasks, grid)`` stacked-grid dict
    (:meth:`~repro.resilience.expected_time.ExpectedTimeModel.
    _stacked_grids`).  :meth:`raw_rows` gathers the selected task rows
    with ``np.take(..., out=...)`` into four reused workspaces and runs
    the Eq. (4) recurrence in place — the exact operation sequence of
    the reference multi-grid branch (multiply, divide, floor, multiply,
    subtract, multiply, expm1, multiply, add, multiply), so every row
    is bit-identical to :func:`~repro.resilience.expected_time.
    stacked_raw_profiles` over freshly stacked grids.
    """

    def __init__(self, blocks: Dict[str, np.ndarray]):
        self._t_ff = blocks["t_ff"]
        self._wpp = blocks["wpp"]
        self._lam = blocks["lam"]
        self._prefactor = blocks["prefactor"]
        self._exp_period = blocks["exp_period"]
        self._width = int(self._t_ff.shape[1])
        self._capacity = 0
        self._wa = self._wb = self._wc = self._wd = np.empty((0, 0))

    def _ensure_capacity(self, k: int) -> None:
        """Grow the four workspaces to at least ``k`` rows (amortised:
        normally one allocation sized to the pack, but duplicate-alpha
        batches may exceed the task count)."""
        if k <= self._capacity:
            return
        capacity = max(k, int(self._t_ff.shape[0]), 2 * self._capacity)
        shape = (capacity, self._width)
        self._wa = np.empty(shape)
        self._wb = np.empty(shape)
        self._wc = np.empty(shape)
        self._wd = np.empty(shape)
        self._capacity = capacity

    def raw_rows(self, sel: np.ndarray, alpha_q: np.ndarray) -> np.ndarray:
        """Raw Eq. (4) rows for ``(sel[r], alpha_q[r])`` pairs.

        ``alpha_q`` must already be quantised (float64, one per row);
        rows with ``alpha_q <= 0`` are exactly zero, like the reference.
        Returns a ``(len(sel), grid)`` view into backend-owned scratch —
        valid only until the next call; callers copy what they keep.
        """
        k = int(sel.size)
        self._ensure_capacity(k)
        a = self._wa[:k]
        b = self._wb[:k]
        c = self._wc[:k]
        d = self._wd[:k]
        np.take(self._t_ff, sel, axis=0, out=a)
        np.multiply(alpha_q[:, None], a, out=c)     # c = work
        np.take(self._wpp, sel, axis=0, out=b)
        np.divide(c, b, out=a)
        np.floor(a, out=a)                          # a = n_ff
        np.multiply(a, b, out=d)
        np.subtract(c, d, out=c)                    # c = tau_last
        np.take(self._lam, sel, axis=0, out=b)
        with np.errstate(over="ignore"):
            # exp overflow -> inf is legitimate (hopeless MTBF configs),
            # exactly like the reference kernel.
            np.multiply(b, c, out=c)
            np.expm1(c, out=c)                      # c = expm1(lam tau_last)
            np.take(self._exp_period, sel, axis=0, out=b)
            np.multiply(a, b, out=a)                # a = n_ff * exp_period
            np.add(a, c, out=a)
            np.take(self._prefactor, sel, axis=0, out=b)
            np.multiply(b, a, out=a)
        zero = alpha_q <= 0.0
        if bool(np.any(zero)):
            # inf prefactor times the zero row would give nan; finished
            # tasks cost exactly nothing, like the reference.
            a[zero] = 0.0
        return a

    def raw_row(self, i: int, alpha_q: float) -> np.ndarray:
        """One raw Eq. (4) row — the single-miss ``profile()`` fast path.

        The batched gather/broadcast machinery of :meth:`raw_rows` is
        pure overhead at ``k = 1``; this runs the same operation
        sequence directly on the 1-D stacked-block row views (so the
        result stays bit-identical).  Returns backend-owned scratch —
        valid only until the next call.
        """
        self._ensure_capacity(1)
        a = self._wa[0]
        if alpha_q <= 0.0:
            a[:] = 0.0
            return a
        c = self._wc[0]
        d = self._wd[0]
        wpp = self._wpp[i]
        np.multiply(alpha_q, self._t_ff[i], out=c)  # c = work
        np.divide(c, wpp, out=a)
        np.floor(a, out=a)                          # a = n_ff
        np.multiply(a, wpp, out=d)
        np.subtract(c, d, out=c)                    # c = tau_last
        with np.errstate(over="ignore"):
            np.multiply(self._lam[i], c, out=c)
            np.expm1(c, out=c)                      # c = expm1(lam tau_last)
            np.multiply(a, self._exp_period[i], out=a)
            np.add(a, c, out=a)                     # a = n_ff exp_period + .
            np.multiply(self._prefactor[i], a, out=a)
        return a
