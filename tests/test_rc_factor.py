"""Tests for the rc_factor ablation knob (DESIGN.md S22)."""

from __future__ import annotations

import pytest

from repro import Cluster, Simulator, uniform_pack
from repro.exceptions import ConfigurationError
from repro.resilience import ExpectedTimeModel


@pytest.fixture()
def setting():
    pack = uniform_pack(6, m_inf=4_000, m_sup=12_000, seed=51)
    cluster = Cluster.with_mtbf_years(16, mtbf_years=0.05)
    return pack, cluster


class TestConstruction:
    def test_default_is_paper_model(self, setting):
        pack, cluster = setting
        assert ExpectedTimeModel(pack, cluster).rc_factor == 1.0

    def test_rejects_negative(self, setting):
        pack, cluster = setting
        with pytest.raises(ConfigurationError):
            ExpectedTimeModel(pack, cluster, rc_factor=-0.5)

    def test_zero_allowed(self, setting):
        pack, cluster = setting
        assert ExpectedTimeModel(pack, cluster, rc_factor=0.0).rc_factor == 0.0


class TestBehaviour:
    def _run(self, pack, cluster, factor, seed=3):
        model = ExpectedTimeModel(pack, cluster, rc_factor=factor)
        return Simulator(
            pack, cluster, "ig-el", seed=seed, model=model
        ).run()

    def test_move_counts_fall_with_price(self, setting):
        pack, cluster = setting
        free = self._run(pack, cluster, 0.0)
        paper = self._run(pack, cluster, 1.0)
        blocked = self._run(pack, cluster, 1e6)
        assert free.redistributions >= paper.redistributions
        assert paper.redistributions >= blocked.redistributions
        assert blocked.redistributions == 0

    def test_huge_factor_matches_no_redistribution(self, setting):
        pack, cluster = setting
        blocked = self._run(pack, cluster, 1e6)
        baseline = Simulator(
            pack, cluster, "no-redistribution", seed=3
        ).run()
        assert blocked.makespan == pytest.approx(baseline.makespan)

    def test_candidate_pricing_scales(self, setting):
        import numpy as np

        from repro.oracle import candidate_finish_times

        pack, cluster = setting
        targets = np.array([4, 6, 8])
        cheap = ExpectedTimeModel(pack, cluster, rc_factor=0.0)
        costly = ExpectedTimeModel(pack, cluster, rc_factor=10.0)
        t_cheap = candidate_finish_times(cheap, 0, 2, 1.0, 0.0, 0.0, targets)
        t_costly = candidate_finish_times(costly, 0, 2, 1.0, 0.0, 0.0, targets)
        # moving away from j=2 must be strictly costlier under the
        # higher factor; the RC-free component is identical
        assert (t_costly > t_cheap).all()
