"""Expected completion times (Eqs. 2-4 and the Eq. 6 envelope)."""

import math

import numpy as np
import pytest

from repro.cluster import Cluster
from repro.exceptions import CapacityError, ConfigurationError
from repro.resilience import (
    ExpectedTimeModel,
    ResilienceModel,
    TaskGrid,
    checkpoint_count,
    last_period,
)
from repro.resilience.expected_time import even_grid
from repro.tasks import Pack, TaskSpec, homogeneous_pack


def reference_expected_time(model, i, j, alpha):
    """Straight transcription of Eq. (4), scalar and slow (for testing)."""
    task = model.pack[i]
    cluster = model.cluster
    lam = j / cluster.mtbf
    cost = task.checkpoint_cost / j
    mtbf_task = cluster.mtbf / j
    tau = math.sqrt(2 * mtbf_task * cost) + cost
    t_ff = task.fault_free_time(j)
    n_ff = math.floor(alpha * t_ff / (tau - cost))
    tau_last = alpha * t_ff - n_ff * (tau - cost)
    recovery = cost
    return (
        math.exp(lam * recovery)
        * (1.0 / lam + cluster.downtime)
        * (n_ff * (math.exp(lam * tau) - 1) + (math.exp(lam * tau_last) - 1))
    )


class TestScalarHelpers:
    def test_checkpoint_count_basic(self):
        # alpha*t_ff = 100, work per period = 30 -> 3 checkpoints
        assert checkpoint_count(1.0, 100.0, 40.0, 10.0) == 3

    def test_checkpoint_count_zero_alpha(self):
        assert checkpoint_count(0.0, 100.0, 40.0, 10.0) == 0

    def test_checkpoint_count_invalid_period(self):
        with pytest.raises(ConfigurationError):
            checkpoint_count(1.0, 100.0, 10.0, 10.0)

    def test_last_period(self):
        # 100 work, 30 per period -> 3 periods + 10 left
        assert last_period(1.0, 100.0, 40.0, 10.0) == pytest.approx(10.0)

    def test_last_period_partial_alpha(self):
        assert last_period(0.25, 100.0, 40.0, 10.0) == pytest.approx(25.0)


class TestRawProfile:
    def test_matches_reference_formula(self, model):
        for i in (0, 3, 7):
            for j in (2, 6, 12):
                for alpha in (1.0, 0.5, 0.07):
                    raw = model.raw_profile(i, alpha)[j // 2 - 1]
                    ref = reference_expected_time(model, i, j, alpha)
                    assert raw == pytest.approx(ref, rel=1e-12)

    def test_zero_alpha_gives_zero(self, model):
        assert np.all(model.raw_profile(0, 0.0) == 0.0)

    def test_scales_with_alpha(self, model):
        # More remaining work can never take less expected time.
        lo = model.raw_profile(2, 0.3)
        hi = model.raw_profile(2, 0.9)
        assert np.all(hi >= lo)


class TestEnvelope:
    def test_non_increasing(self, model):
        for alpha in (1.0, 0.4):
            profile = model.profile(0, alpha)
            assert np.all(np.diff(profile) <= 1e-12)

    def test_envelope_below_raw(self, model):
        raw = model.raw_profile(1, 1.0)
        envelope = model.profile(1, 1.0)
        assert np.all(envelope <= raw + 1e-12)

    def test_envelope_equals_prefix_min(self, model):
        raw = model.raw_profile(4, 0.8)
        envelope = model.profile(4, 0.8)
        assert np.allclose(envelope, np.minimum.accumulate(raw))

    def test_expected_time_reads_envelope(self, model):
        envelope = model.profile(3, 1.0)
        assert model.expected_time(3, 10, 1.0) == envelope[4]

    def test_profile_readonly(self, model):
        profile = model.profile(0, 1.0)
        with pytest.raises(ValueError):
            profile[0] = 0.0


class TestExpectedTimeProperties:
    def test_dominates_fault_free_work(self, model):
        # t^R >= alpha * t_ff: failures and checkpoints only add time.
        for j in (2, 8, 20):
            t_ff = model.fault_free_time(0, j)
            assert model.expected_time(0, j, 1.0) >= t_ff

    def test_reliable_platform_approaches_fault_free(self, reliable_model):
        # With MTBF -> inf the expected time tends to work + checkpoints.
        j = 4
        t_r = reliable_model.expected_time(0, j, 1.0)
        grid = reliable_model.grid(0)
        slot = grid.slot(j)
        fault_free_with_ckpt = grid.t_ff[slot] + math.floor(
            grid.t_ff[slot] / grid.work_per_period[slot]
        ) * grid.cost[slot]
        assert t_r == pytest.approx(fault_free_with_ckpt, rel=0.01)

    def test_threshold_is_even(self, model):
        threshold = model.threshold(0)
        assert threshold % 2 == 0
        assert threshold >= 2


class TestAccessors:
    def test_fault_free_time_matches_task(self, model, small_pack):
        assert model.fault_free_time(2, 6) == pytest.approx(
            small_pack[2].fault_free_time(6)
        )

    def test_checkpoint_cost(self, model, small_pack):
        assert model.checkpoint_cost(1, 4) == pytest.approx(
            small_pack[1].checkpoint_cost / 4
        )

    def test_period_positive(self, model):
        assert model.period(0, 2) > model.checkpoint_cost(0, 2)

    def test_recovery_equals_cost(self, model):
        assert model.recovery(0, 6) == model.checkpoint_cost(0, 6)

    def test_restart_overhead(self, model):
        assert model.restart_overhead(0, 4) == pytest.approx(
            model.downtime + model.recovery(0, 4)
        )

    def test_odd_j_rejected(self, model):
        with pytest.raises(CapacityError):
            model.expected_time(0, 3, 1.0)

    def test_j_beyond_grid_rejected(self, model):
        with pytest.raises(CapacityError):
            model.expected_time(0, 1000, 1.0)

    def test_alpha_out_of_range_rejected(self, model):
        with pytest.raises(ConfigurationError):
            model.profile(0, 1.5)
        with pytest.raises(ConfigurationError):
            model.profile(0, -0.1)


class TestCache:
    def test_cache_hit_on_repeat(self, model):
        model.profile(0, 0.77)
        misses = model.cache_misses
        model.profile(0, 0.77)
        assert model.cache_misses == misses
        assert model.cache_hits >= 1

    def test_cache_distinguishes_alpha(self, model):
        model.profile(0, 0.5)
        misses = model.cache_misses
        model.profile(0, 0.51)
        assert model.cache_misses == misses + 1

    def test_cache_eviction_bounded(self, small_pack, small_cluster):
        model = ExpectedTimeModel(small_pack, small_cluster, cache_size=4)
        for k in range(20):
            model.profile(0, k / 20.0)
        assert model.cache_info()["entries"] <= 4

    def test_grid_reused(self, model):
        assert model.grid(0) is model.grid(0)

    def test_rows_live_on_handed_grids(self, small_pack, small_cluster):
        # A second model handed the first one's grids reads its rows.
        first = ExpectedTimeModel(small_pack, small_cluster)
        row = first.profile(0, 0.3)
        grids = [first.grid(i) for i in range(len(small_pack))]
        second = ExpectedTimeModel(small_pack, small_cluster, grids=grids)
        assert second.profile_matrix([0], [0.3])[0].tobytes() == row.tobytes()
        assert (second.cache_hits, second.cache_misses) == (1, 0)
        assert second.cache_info()["entries"] == 0  # not its insertion

    def test_eviction_drops_the_row_from_its_grid(
        self, small_pack, small_cluster
    ):
        model = ExpectedTimeModel(small_pack, small_cluster, cache_size=2)
        for alpha in (0.1, 0.2, 0.3):
            model.profile(0, alpha)
        assert sorted(model.grid(0).envelopes) == [
            model._alpha_key(0.2), model._alpha_key(0.3)
        ]


class TestNaNAlpha:
    """A NaN alpha passes every ``<``/``>`` range check; it must still be
    refused, by name, before it reaches the alpha key."""

    @pytest.mark.parametrize(
        "call",
        [
            lambda m: m.profile(0, math.nan),
            lambda m: m.profile_batch([0, 1], math.nan),
            lambda m: m.profile_matrix([0, 1], [0.5, math.nan]),
            lambda m: m.profile_rows_into(
                [0, 1], np.array([math.nan, 0.5]), np.empty((2, 8))
            ),
        ],
        ids=[
            "profile", "profile_batch", "profile_matrix", "profile_rows_into"
        ],
    )
    def test_raises_configuration_error(self, small_pack, small_cluster, call):
        model = ExpectedTimeModel(small_pack, small_cluster, max_procs=16)
        with pytest.raises(ConfigurationError, match="got nan"):
            call(model)
        assert model.cache_info()["entries"] == 0


class TestGridValidation:
    """``TaskGrid.build`` refuses a grid Eq. 4 cannot be evaluated on,
    by name, before any model holds it."""

    @pytest.mark.parametrize(
        "size, match",
        [(1e200, "does not exceed its cost"), (1e308, "not finite")],
        ids=["inconsistent-checkpoint", "non-finite"],
    )
    def test_refused(self, small_cluster, size, match):
        task = TaskSpec(index=0, size=size, checkpoint_cost=size)
        with pytest.raises(ConfigurationError, match=match):
            TaskGrid.build(
                task, even_grid(small_cluster.processors),
                ResilienceModel(small_cluster), small_cluster.downtime,
            )
        model = ExpectedTimeModel(Pack([task]), small_cluster)
        with pytest.raises(ConfigurationError, match=match):
            model.profile(0, 1.0)


class TestMaxProcs:
    def test_grid_truncated(self, small_pack, small_cluster):
        model = ExpectedTimeModel(small_pack, small_cluster, max_procs=10)
        assert model.j_grid[-1] == 10.0

    def test_odd_max_procs_rounded_down(self, small_pack, small_cluster):
        model = ExpectedTimeModel(small_pack, small_cluster, max_procs=11)
        assert model.j_grid[-1] == 10.0

    def test_invalid_max_procs(self, small_pack, small_cluster):
        with pytest.raises(ConfigurationError):
            ExpectedTimeModel(small_pack, small_cluster, max_procs=1)


class TestHomogeneousPack:
    def test_identical_tasks_identical_profiles(self, small_cluster):
        pack = homogeneous_pack(3, 8000.0)
        model = ExpectedTimeModel(pack, small_cluster)
        a = model.profile(0, 1.0)
        b = model.profile(1, 1.0)
        assert np.allclose(a, b)
