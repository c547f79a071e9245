"""Monte-Carlo validation of Eq. (4).

The expected time to execute one checkpointing period is derived in the
paper (following [16]) for this exact renewal process:

* an attempt of length ``T`` starts right after a checkpoint (no recovery
  on the first attempt);
* an exponential failure (rate ``lambda j``) during the attempt costs the
  elapsed time plus a failure-immune downtime ``D``; every retry is
  prefixed by a recovery ``R`` during which failures *can* strike;
* success means surviving a full attempt.

Its closed form is ``e^{lambda j R}(1/(lambda j) + D)(e^{lambda j T}-1)``
— the exact factor of Eq. (4).  :func:`sample_period_time` simulates one
period of that process, :func:`sample_completion_time` chains the
``N^ff`` full periods plus the ``tau_last`` partial period of Eqs. (2)-(3),
and their vectorised twins :func:`sample_period_times` and
:func:`sample_completion_times` draw the same laws in batches.
:func:`validate_expected_time` dispatches vectorised batches through the
engine and compares their empirical mean against the model prediction
with a z-test.  The scalar samplers are the law's reference: the tests
check the batches against them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

import numpy as np

from ..exceptions import ConfigurationError
from ..resilience.expected_time import (
    ExpectedTimeModel,
    checkpoint_count,
    last_period,
)
from ..rng import derive_rng, derive_seed

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from ..engine import Executor

__all__ = [
    "ValidationReport",
    "sample_period_time",
    "sample_period_times",
    "sample_completion_time",
    "sample_completion_times",
    "validate_expected_time",
]

#: Samples per engine dispatch unit.  Fixed — *never* derived from the
#: worker count — so the drawn values depend only on ``(seed, i, j,
#: alpha, samples)`` and serial/pool/persistent execution return
#: byte-identical z-tests.
DEFAULT_CHUNK_SAMPLES = 128


def sample_period_time(
    rng: np.random.Generator,
    lam: float,
    attempt: float,
    downtime: float,
    recovery: float,
) -> float:
    """One sample of the time to complete an ``attempt``-long period.

    Matches the renewal process behind Eq. (4) exactly (see module
    docstring); in particular the first attempt pays no recovery and
    failures strike during retries' recovery segments.
    """
    if attempt <= 0:
        raise ConfigurationError("attempt length must be positive")
    if lam <= 0:
        return attempt
    elapsed = 0.0
    length = attempt  # first attempt: no recovery prefix
    while True:
        arrival = rng.exponential(1.0 / lam)
        if arrival >= length:
            return elapsed + length
        elapsed += arrival + downtime
        length = recovery + attempt


def _truncated_exponential(
    rng: np.random.Generator, lam: float, bound: float, count: int
) -> np.ndarray:
    """``count`` draws of ``Exp(lam)`` conditioned on being ``< bound``."""
    # F(x)/F(bound) = u  =>  x = -log(1 - u F(bound)) / lam
    return -np.log1p(rng.random(count) * np.expm1(-lam * bound)) / lam


def sample_period_times(
    rng: np.random.Generator,
    lam: float,
    attempt: float,
    downtime: float,
    recovery: float,
    count: int,
) -> np.ndarray:
    """``count`` vectorised draws of :func:`sample_period_time`'s law.

    Same renewal process, sampled by structure instead of by event: a
    period is the final (successful) try plus one ``arrival + downtime``
    term per failed try, where the failure count of the retries is
    geometric and each failure instant is a truncated exponential.  The
    distribution is exactly :func:`sample_period_time`'s; only the
    draw *order* differs, so a vectorised batch is not stream-compatible
    with a scalar loop — use one or the other for a given seed.
    """
    if attempt <= 0:
        raise ConfigurationError("attempt length must be positive")
    if count < 0:
        raise ConfigurationError(f"count must be >= 0, got {count}")
    if lam <= 0:
        return np.full(count, float(attempt))
    retry = recovery + attempt
    times = np.full(count, float(attempt))
    # First attempt fails when the arrival lands inside [0, attempt).
    failed = np.flatnonzero(rng.random(count) < -np.expm1(-lam * attempt))
    if failed.size:
        first = _truncated_exponential(rng, lam, attempt, failed.size)
        # Additional failures: retries until success, success prob e^{-lam*retry}.
        extra = rng.geometric(math.exp(-lam * retry), failed.size) - 1
        retry_sum = np.zeros(failed.size)
        total_extra = int(extra.sum())
        if total_extra:
            draws = _truncated_exponential(rng, lam, retry, total_extra)
            segments = np.repeat(np.arange(failed.size), extra)
            np.add.at(retry_sum, segments, draws)
        # Failed periods end with a full retry (recovery + attempt), and
        # every failure — first or retry — costs its arrival + downtime.
        times[failed] = (
            first + retry_sum + downtime * (1.0 + extra) + retry
        )
    return times


def sample_completion_time(
    model: ExpectedTimeModel,
    i: int,
    j: int,
    alpha: float = 1.0,
    rng: Optional[np.random.Generator] = None,
) -> float:
    """One sample of ``t^R_{i,j}(alpha)``'s underlying random variable.

    Chains ``N^ff`` full periods of length ``tau`` and the final partial
    period ``tau_last`` (Eqs. 2-3), each sampled independently — the
    failure process is memoryless, so periods are independent renewals.
    """
    if rng is None:
        rng = np.random.default_rng()
    if alpha < 0.0 or alpha > 1.0 + 1e-12:
        raise ConfigurationError(f"alpha must be in [0, 1], got {alpha}")
    if alpha == 0.0:
        return 0.0
    grid = model.grid(i)
    slot = grid.slot(j)
    t_ff = float(grid.t_ff[slot])
    tau = float(grid.tau[slot])
    cost = float(grid.cost[slot])
    lam = float(grid.lam[slot])
    # Eqs. (2)-(3) via the shared period-split helpers of the model.
    n_full = checkpoint_count(alpha, t_ff, tau, cost)
    tau_last = last_period(alpha, t_ff, tau, cost)
    total = 0.0
    for _ in range(n_full):
        total += sample_period_time(rng, lam, tau, model.downtime, cost)
    if tau_last > 0:
        total += sample_period_time(rng, lam, tau_last, model.downtime, cost)
    return total


def sample_completion_times(
    model: ExpectedTimeModel,
    i: int,
    j: int,
    alpha: float = 1.0,
    rng: Optional[np.random.Generator] = None,
    count: int = 1,
) -> np.ndarray:
    """``count`` vectorised draws of :func:`sample_completion_time`'s law.

    All ``count x N^ff`` full periods are drawn in one
    :func:`sample_period_times` batch (periods are independent renewals,
    so the grouping is immaterial), plus one batch for the partial
    ``tau_last`` periods.  :func:`validate_expected_time` samples with
    it.
    """
    if rng is None:
        rng = np.random.default_rng()
    if count < 0:
        raise ConfigurationError(f"count must be >= 0, got {count}")
    if alpha < 0.0 or alpha > 1.0 + 1e-12:
        raise ConfigurationError(f"alpha must be in [0, 1], got {alpha}")
    if alpha == 0.0:
        return np.zeros(count)
    grid = model.grid(i)
    slot = grid.slot(j)
    t_ff = float(grid.t_ff[slot])
    tau = float(grid.tau[slot])
    cost = float(grid.cost[slot])
    lam = float(grid.lam[slot])
    # Eqs. (2)-(3) via the shared period-split helpers of the model.
    n_full = checkpoint_count(alpha, t_ff, tau, cost)
    tau_last = last_period(alpha, t_ff, tau, cost)
    totals = np.zeros(count)
    if n_full:
        periods = sample_period_times(
            rng, lam, tau, model.downtime, cost, count * n_full
        )
        totals += periods.reshape(count, n_full).sum(axis=1)
    if tau_last > 0:
        totals += sample_period_times(
            rng, lam, tau_last, model.downtime, cost, count
        )
    return totals


#: The z-test's pass band: decisive yet essentially free of false alarms
#: at a few hundred samples.
SIGMA_TOLERANCE = 5.0

#: Relative error that passes regardless of the z-score (see
#: :attr:`ValidationReport.passed`).
RELATIVE_FLOOR = 1e-2


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of one Monte-Carlo validation run."""

    predicted: float
    empirical_mean: float
    empirical_std: float
    samples: int
    z_score: float
    relative_error: float

    @property
    def passed(self) -> bool:
        """True when the empirical mean is within the tolerance band.

        Either criterion suffices: a z-score within
        :data:`SIGMA_TOLERANCE`, or a relative error below
        :data:`RELATIVE_FLOOR`.  The floor covers near-deterministic
        regimes (reliable platforms draw no failures at modest sample
        counts, collapsing the variance and blowing up the z-score on a
        physically negligible gap — the closed form's expected failure
        cost that the sample never realised).
        """
        return (
            abs(self.z_score) <= SIGMA_TOLERANCE
            or self.relative_error <= RELATIVE_FLOOR
        )

    def describe(self) -> str:
        """One-line digest."""
        status = "OK" if self.passed else "MISMATCH"
        return (
            f"{status}: predicted={self.predicted:.6g}s "
            f"empirical={self.empirical_mean:.6g}s "
            f"(z={self.z_score:+.2f}, rel.err={self.relative_error:.2%}, "
            f"{self.samples} samples)"
        )


def _chunk_seed(base_seed: int, i: int, j: int, chunk: int) -> int:
    """Stable derived seed for one sampling chunk."""
    return derive_seed(base_seed, "validation", i, j, "chunk", chunk)


def _sample_validation_chunk(
    model: ExpectedTimeModel,
    i: int,
    j: int,
    alpha: float,
    count: int,
    *,
    seed: int,
) -> np.ndarray:
    """Engine runner: one vectorised chunk of completion-time samples."""
    rng = derive_rng(seed, "mc-samples")
    return sample_completion_times(model, i, j, alpha, rng, count)


def validate_expected_time(
    model: ExpectedTimeModel,
    i: int,
    j: int,
    *,
    alpha: float = 1.0,
    samples: int = 400,
    seed: int = 0,
    workers: Optional[int] = None,
    engine: Optional[str] = None,
    executor: Optional["Executor"] = None,
) -> ValidationReport:
    """Compare Eq. (4) against the empirical mean of the sampled process.

    Note the comparison uses the **raw** Eq. (4) value, not the Eq. (6)
    envelope: the envelope deliberately replaces ``t^R_{i,j}`` by a
    better ``j' < j`` when over-parallelised, which the physical process
    at exactly ``j`` processors does not do.

    Sampling goes through the unified execution engine (serial unless
    ``workers``, ``engine`` or ``executor`` says otherwise): the sample
    budget splits into vectorised chunks of
    :data:`DEFAULT_CHUNK_SAMPLES`, each an independent
    :class:`~repro.engine.RunRequest` seeded by ``(seed, i, j, chunk)``.
    The chunk layout depends only on the arguments — never on the
    executor or worker count — so every execution returns a
    byte-identical report.
    """
    from ..engine import RunRequest, ensure_executor

    if samples < 2:
        raise ConfigurationError("at least 2 samples are required")
    grid = model.grid(i)
    predicted = float(model.raw_profile(i, alpha)[grid.slot(j)])
    requests = [
        RunRequest(
            fn=_sample_validation_chunk,
            payload=(
                model, i, j, alpha,
                min(DEFAULT_CHUNK_SAMPLES, samples - start),
            ),
            seed=_chunk_seed(seed, i, j, chunk),
            tag=chunk,
        )
        for chunk, start in enumerate(range(0, samples, DEFAULT_CHUNK_SAMPLES))
    ]
    with ensure_executor(executor, engine=engine, workers=workers) as active:
        draws = np.concatenate(active.map(requests))
    mean = float(draws.mean())
    std = float(draws.std(ddof=1))
    stderr = std / math.sqrt(samples)
    z_score = (mean - predicted) / stderr if stderr > 0 else 0.0
    relative = abs(mean - predicted) / predicted if predicted > 0 else 0.0
    return ValidationReport(
        predicted=predicted,
        empirical_mean=mean,
        empirical_std=std,
        samples=samples,
        z_score=z_score,
        relative_error=relative,
    )
