"""Deterministic progress accounting (Section 3.3.2)."""

import math

import numpy as np
import pytest

from repro.core import (
    checkpointed_work_fraction,
    elapsed_work_fraction,
    projected_finish,
    remaining_after_elapsed,
    remaining_after_failure,
)
from repro.core.progress import projected_finishes


# Hand-picked pattern: t_ff=100, tau=25, cost=5 (so 20 work per period).
T_FF, TAU, COST = 100.0, 25.0, 5.0


class TestElapsedFraction:
    def test_no_elapsed_time(self):
        assert elapsed_work_fraction(10.0, 10.0, T_FF, TAU, COST) == 0.0

    def test_busy_task_negative_elapsed(self):
        assert elapsed_work_fraction(5.0, 10.0, T_FF, TAU, COST) == 0.0

    def test_mid_first_period(self):
        # 10 time units, no checkpoint yet: 10 work of 100.
        assert elapsed_work_fraction(10.0, 0.0, T_FF, TAU, COST) == pytest.approx(0.1)

    def test_after_one_period(self):
        # 30 time units = 1 full period (20 work + 5 ckpt) + 5 more work.
        assert elapsed_work_fraction(30.0, 0.0, T_FF, TAU, COST) == pytest.approx(
            (30.0 - 5.0) / 100.0
        )

    def test_after_three_periods(self):
        assert elapsed_work_fraction(75.0, 0.0, T_FF, TAU, COST) == pytest.approx(
            (75.0 - 15.0) / 100.0
        )

    def test_offset_start(self):
        a = elapsed_work_fraction(130.0, 100.0, T_FF, TAU, COST)
        b = elapsed_work_fraction(30.0, 0.0, T_FF, TAU, COST)
        assert a == pytest.approx(b)


class TestCheckpointedFraction:
    def test_before_first_checkpoint_loses_everything(self):
        assert checkpointed_work_fraction(24.0, 0.0, T_FF, TAU, COST) == 0.0

    def test_after_first_checkpoint(self):
        # One full period survived: 20 work.
        assert checkpointed_work_fraction(26.0, 0.0, T_FF, TAU, COST) == pytest.approx(0.2)

    def test_exactly_at_checkpoint_boundary(self):
        assert checkpointed_work_fraction(25.0, 0.0, T_FF, TAU, COST) == pytest.approx(0.2)

    def test_less_than_elapsed(self):
        # The rollback can never beat continuous progress.
        for t in (10.0, 26.0, 60.0, 99.0):
            ckpt = checkpointed_work_fraction(t, 0.0, T_FF, TAU, COST)
            cont = elapsed_work_fraction(t, 0.0, T_FF, TAU, COST)
            assert ckpt <= cont + 1e-12

    def test_negative_elapsed(self):
        assert checkpointed_work_fraction(5.0, 10.0, T_FF, TAU, COST) == 0.0


class TestProjectedFinish:
    def test_full_task(self):
        # alpha=1: 100 work -> N^ff = floor(100/20) = 5, but the work is an
        # exact multiple so the trailing checkpoint is elided -> 4 ckpts.
        finish = projected_finish(0.0, 1.0, T_FF, TAU, COST)
        assert finish == pytest.approx(100.0 + 4 * COST)

    def test_partial_task(self):
        # alpha=0.5: 50 work -> 2 full periods + 10 left -> 2 checkpoints.
        finish = projected_finish(0.0, 0.5, T_FF, TAU, COST)
        assert finish == pytest.approx(50.0 + 2 * COST)

    def test_zero_alpha(self):
        assert projected_finish(42.0, 0.0, T_FF, TAU, COST) == 42.0

    def test_offset(self):
        assert projected_finish(100.0, 0.5, T_FF, TAU, COST) == pytest.approx(
            100.0 + 50.0 + 10.0
        )

    def test_roundtrip_with_elapsed_fraction(self):
        # Running until the projected finish completes exactly alpha.
        alpha = 0.73
        finish = projected_finish(0.0, alpha, T_FF, TAU, COST)
        done = elapsed_work_fraction(finish, 0.0, T_FF, TAU, COST)
        assert done == pytest.approx(alpha, abs=1e-9)


class TestProjectedFinishes:
    def test_matches_the_scalar_form_bit_for_bit(self):
        rng = np.random.default_rng(3)
        t_ff = rng.uniform(50.0, 500.0, 64)
        tau = rng.uniform(10.0, 40.0, 64)
        cost = tau * rng.uniform(0.05, 0.5, 64)
        alpha = rng.uniform(0.0, 1.0, 64)
        # exact multiples of the period (final checkpoint elided), and
        # finished tasks
        alpha[:8] = np.arange(1, 9) * (tau[:8] - cost[:8]) / t_ff[:8]
        alpha[8:12] = 0.0
        t_last = rng.uniform(0.0, 1e4, 64)
        got = projected_finishes(t_last, alpha, t_ff, tau, cost)
        for r in range(64):
            expected = projected_finish(
                t_last[r], alpha[r], t_ff[r], tau[r], cost[r]
            )
            assert got[r] == expected, r


class TestModelWrappers:
    def test_remaining_after_elapsed_clamps(self, model):
        # Run "too long": remaining clamps at zero, never negative.
        remaining = remaining_after_elapsed(model, 0, 2, 0.01, 1e12, 0.0)
        assert remaining == 0.0

    def test_remaining_after_elapsed_progresses(self, model):
        grid = model.grid(0)
        slot = grid.slot(4)
        t = float(grid.tau[slot]) * 1.5
        remaining = remaining_after_elapsed(model, 0, 4, 1.0, t, 0.0)
        assert 0.0 < remaining < 1.0

    def test_remaining_after_failure_rolls_back(self, model):
        grid = model.grid(0)
        slot = grid.slot(4)
        tau = float(grid.tau[slot])
        # Fail mid second period: only the first checkpoint survives.
        remaining = remaining_after_failure(model, 0, 4, 1.0, tau * 1.5, 0.0)
        expected = 1.0 - (tau - float(grid.cost[slot])) / float(grid.t_ff[slot])
        assert remaining == pytest.approx(expected)

    def test_failure_before_first_checkpoint_loses_all(self, model):
        grid = model.grid(0)
        slot = grid.slot(4)
        t = float(grid.tau[slot]) * 0.5
        assert remaining_after_failure(model, 0, 4, 1.0, t, 0.0) == 1.0

    def test_busy_task_no_progress(self, model):
        assert remaining_after_elapsed(model, 0, 4, 0.8, 10.0, 50.0) == 0.8
