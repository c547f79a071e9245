"""Tests for repro.validation (Monte-Carlo + consistency checks)."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro import Cluster, uniform_pack
from repro.exceptions import ConfigurationError
from repro.resilience.expected_time import ExpectedTimeModel
from repro.validation import (
    check_envelope_assumptions,
    check_fault_free_projection,
    sample_completion_time,
    sample_completion_times,
    sample_period_time,
    sample_period_times,
    validate_expected_time,
)


@pytest.fixture()
def model() -> ExpectedTimeModel:
    pack = uniform_pack(2, m_inf=20_000, m_sup=40_000, seed=23)
    cluster = Cluster.with_mtbf_years(8, mtbf_years=0.05)
    return ExpectedTimeModel(pack, cluster)


class TestSamplePeriodTime:
    def test_no_failures_returns_attempt(self):
        rng = np.random.default_rng(0)
        assert sample_period_time(rng, 0.0, 100.0, 60.0, 5.0) == 100.0

    def test_at_least_attempt_length(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            assert sample_period_time(rng, 1e-3, 50.0, 10.0, 5.0) >= 50.0

    def test_rejects_non_positive_attempt(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ConfigurationError):
            sample_period_time(rng, 1.0, 0.0, 1.0, 1.0)

    def test_mean_matches_closed_form(self):
        """The sampler is exactly the process behind Eq. (4)'s factor."""
        rng = np.random.default_rng(7)
        lam, attempt, downtime, recovery = 1 / 200.0, 150.0, 12.0, 8.0
        draws = np.array(
            [
                sample_period_time(rng, lam, attempt, downtime, recovery)
                for _ in range(6_000)
            ]
        )
        predicted = (
            math.exp(lam * recovery)
            * (1.0 / lam + downtime)
            * math.expm1(lam * attempt)
        )
        stderr = draws.std(ddof=1) / math.sqrt(draws.size)
        assert abs(draws.mean() - predicted) < 5 * stderr


class TestVectorisedSamplers:
    def test_no_failures_returns_attempt(self):
        rng = np.random.default_rng(0)
        times = sample_period_times(rng, 0.0, 100.0, 60.0, 5.0, 7)
        assert np.array_equal(times, np.full(7, 100.0))

    def test_at_least_attempt_length(self):
        rng = np.random.default_rng(1)
        times = sample_period_times(rng, 1e-3, 50.0, 10.0, 5.0, 200)
        assert np.all(times >= 50.0)

    def test_rejects_bad_arguments(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ConfigurationError):
            sample_period_times(rng, 1.0, 0.0, 1.0, 1.0, 4)
        with pytest.raises(ConfigurationError):
            sample_period_times(rng, 1.0, 5.0, 1.0, 1.0, -1)

    def test_mean_matches_closed_form(self):
        """The vectorised sampler draws the exact Eq. (4)-factor law."""
        import math

        rng = np.random.default_rng(7)
        lam, attempt, downtime, recovery = 1 / 200.0, 150.0, 12.0, 8.0
        draws = sample_period_times(rng, lam, attempt, downtime, recovery, 6_000)
        predicted = (
            math.exp(lam * recovery)
            * (1.0 / lam + downtime)
            * math.expm1(lam * attempt)
        )
        stderr = draws.std(ddof=1) / math.sqrt(draws.size)
        assert abs(draws.mean() - predicted) < 5 * stderr

    def test_completion_batch_zero_alpha(self, model):
        rng = np.random.default_rng(0)
        assert np.array_equal(
            sample_completion_times(model, 0, 4, 0.0, rng, 5), np.zeros(5)
        )

    def test_completion_batch_at_least_fault_free_work(self, model):
        rng = np.random.default_rng(3)
        t_ff = model.fault_free_time(0, 4)
        draws = sample_completion_times(model, 0, 4, 1.0, rng, 20)
        assert np.all(draws >= t_ff)

    def test_completion_batch_matches_scalar_distribution(self, model):
        """Vectorised and scalar samplers agree on the mean (same law)."""
        import math

        rng_v = np.random.default_rng(11)
        batch = sample_completion_times(model, 0, 4, 1.0, rng_v, 800)
        rng_s = np.random.default_rng(12)
        scalar = np.array(
            [sample_completion_time(model, 0, 4, 1.0, rng_s) for _ in range(800)]
        )
        pooled = math.sqrt(
            batch.var(ddof=1) / batch.size + scalar.var(ddof=1) / scalar.size
        )
        assert abs(batch.mean() - scalar.mean()) < 5 * pooled


class TestValidateParallel:
    """Engine-driven sampling (one PR-2 satellite): serial == pooled."""

    def test_z_test_identical_serial_vs_pool(self, model):
        serial = validate_expected_time(
            model, 0, 4, samples=300, seed=1, engine="serial"
        )
        pooled = validate_expected_time(
            model, 0, 4, samples=300, seed=1, workers=2
        )
        persistent = validate_expected_time(
            model, 0, 4, samples=300, seed=1, engine="persistent", workers=2
        )
        assert serial.empirical_mean == pooled.empirical_mean
        assert serial.empirical_std == pooled.empirical_std
        assert serial.z_score == pooled.z_score
        assert serial.relative_error == pooled.relative_error
        assert serial.z_score == persistent.z_score
        assert serial.empirical_mean == persistent.empirical_mean

    def test_chunk_layout_independent_of_workers(self, model):
        two = validate_expected_time(
            model, 0, 4, samples=200, seed=3, engine="persistent", workers=2
        )
        four = validate_expected_time(
            model, 0, 4, samples=200, seed=3, engine="persistent", workers=4
        )
        assert two.empirical_mean == four.empirical_mean
        assert two.z_score == four.z_score

    def test_engine_path_statistically_sound(self, model):
        report = validate_expected_time(
            model, 0, 4, samples=400, seed=5, engine="serial"
        )
        assert report.passed, report.describe()

    def test_default_call_matches_workers_2(self, model):
        # No engine argument samples serially through the engine, so
        # it draws exactly what a two-worker pool draws.
        default = validate_expected_time(model, 0, 4, samples=200, seed=3)
        assert default.passed, default.describe()
        pooled = validate_expected_time(
            model, 0, 4, samples=200, seed=3, workers=2
        )
        assert default == pooled


class TestSampleCompletionTime:
    def test_zero_alpha(self, model):
        rng = np.random.default_rng(0)
        assert sample_completion_time(model, 0, 4, 0.0, rng) == 0.0

    def test_rejects_bad_alpha(self, model):
        rng = np.random.default_rng(0)
        with pytest.raises(ConfigurationError):
            sample_completion_time(model, 0, 4, 1.5, rng)

    def test_at_least_fault_free_work(self, model):
        rng = np.random.default_rng(3)
        t_ff = model.fault_free_time(0, 4)
        for _ in range(20):
            assert sample_completion_time(model, 0, 4, 1.0, rng) >= t_ff


class TestValidateExpectedTime:
    def test_agreement_on_hostile_platform(self, model):
        report = validate_expected_time(model, 0, 4, samples=300, seed=1)
        assert report.passed, report.describe()
        assert report.relative_error < 0.25

    def test_agreement_on_quiet_platform(self):
        pack = uniform_pack(1, m_inf=20_000, m_sup=20_000, seed=2)
        cluster = Cluster.with_mtbf_years(4, mtbf_years=100.0)
        model = ExpectedTimeModel(pack, cluster)
        report = validate_expected_time(model, 0, 4, samples=100, seed=2)
        assert report.passed, report.describe()
        # essentially deterministic: tiny relative error
        assert report.relative_error < 0.01

    def test_partial_alpha(self, model):
        report = validate_expected_time(
            model, 0, 4, alpha=0.3, samples=300, seed=3
        )
        assert report.passed, report.describe()

    def test_describe_format(self, model):
        report = validate_expected_time(model, 0, 2, samples=50, seed=4)
        text = report.describe()
        assert "predicted=" in text and "z=" in text

    def test_deterministic_under_seed(self, model):
        a = validate_expected_time(model, 0, 4, samples=50, seed=5)
        b = validate_expected_time(model, 0, 4, samples=50, seed=5)
        assert a.empirical_mean == b.empirical_mean

    def test_rejects_tiny_sample(self, model):
        with pytest.raises(ConfigurationError):
            validate_expected_time(model, 0, 4, samples=1)


class TestFaultFreeProjection:
    def test_passes_on_standard_scenario(self):
        pack = uniform_pack(5, m_inf=2_000, m_sup=8_000, seed=6)
        cluster = Cluster.with_mtbf_years(16, mtbf_years=50.0)
        report = check_fault_free_projection(pack, cluster)
        assert report.passed, report.describe()
        assert report.checks == 5

    def test_passes_on_heterogeneous_pack(self):
        pack = uniform_pack(4, m_inf=100, m_sup=50_000, seed=7)
        cluster = Cluster.with_mtbf_years(12, mtbf_years=20.0)
        report = check_fault_free_projection(pack, cluster)
        assert report.passed, report.describe()


class TestEnvelopeAssumptions:
    def test_passes_on_standard_scenario(self):
        pack = uniform_pack(3, m_inf=5_000, m_sup=20_000, seed=8)
        cluster = Cluster.with_mtbf_years(16, mtbf_years=5.0)
        report = check_envelope_assumptions(pack, cluster)
        assert report.passed, report.describe()
        assert report.checks == 9  # 3 tasks x 3 alphas

    def test_custom_alphas(self):
        pack = uniform_pack(2, m_inf=5_000, m_sup=20_000, seed=9)
        cluster = Cluster.with_mtbf_years(8, mtbf_years=5.0)
        report = check_envelope_assumptions(pack, cluster, alphas=[1.0])
        assert report.checks == 2

    def test_rejects_empty_alphas(self):
        pack = uniform_pack(2, m_inf=5_000, m_sup=20_000, seed=9)
        cluster = Cluster.with_mtbf_years(8, mtbf_years=5.0)
        with pytest.raises(ConfigurationError):
            check_envelope_assumptions(pack, cluster, alphas=[])

    def test_report_describe(self):
        pack = uniform_pack(2, m_inf=5_000, m_sup=20_000, seed=10)
        cluster = Cluster.with_mtbf_years(8, mtbf_years=5.0)
        report = check_envelope_assumptions(pack, cluster)
        assert "OK" in report.describe()
