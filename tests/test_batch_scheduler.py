"""Tests for repro.batch.scheduler."""

from __future__ import annotations

import pytest

from repro import Cluster
from repro.batch import OnlineBatchScheduler, poisson_stream, stream_from_sizes
from repro.exceptions import CapacityError, ConfigurationError
from repro.tasks import TaskSpec
from repro.batch.jobs import Job


@pytest.fixture()
def cluster() -> Cluster:
    return Cluster.with_mtbf_years(8, mtbf_years=100.0)  # 4 buddy pairs


def _campaign(n=6, gap=0.0, seed=1, m_inf=2_000, m_sup=8_000):
    return poisson_stream(n, gap, m_inf=m_inf, m_sup=m_sup, seed=seed)


class TestValidation:
    def test_rejects_empty_campaign(self, cluster):
        with pytest.raises(ConfigurationError):
            OnlineBatchScheduler([], cluster)

    def test_rejects_duplicate_ids(self, cluster):
        task = TaskSpec(index=0, size=100.0, checkpoint_cost=10.0)
        jobs = [Job(0, task, 0.0), Job(0, task, 1.0)]
        with pytest.raises(ConfigurationError, match="duplicate"):
            OnlineBatchScheduler(jobs, cluster)

    def test_rejects_unknown_batch_policy(self, cluster):
        with pytest.raises(ConfigurationError, match="batch policy"):
            OnlineBatchScheduler(
                _campaign(), cluster, batch_policy="mystery"
            )

    def test_fixed_policy_needs_size(self, cluster):
        with pytest.raises(ConfigurationError, match="batch_size"):
            OnlineBatchScheduler(_campaign(), cluster, batch_policy="fixed")


class TestAllAtOnce:
    def test_single_batch_when_everything_fits(self):
        cluster = Cluster.with_mtbf_years(16, mtbf_years=100.0)  # 8 pairs
        jobs = _campaign(n=5, gap=0.0)
        outcome = OnlineBatchScheduler(jobs, cluster, "ig-el", seed=1).run()
        assert outcome.batch_count == 1
        assert len(outcome.batches[0].job_ids) == 5

    def test_capacity_splits_batches(self, cluster):
        jobs = _campaign(n=6, gap=0.0)  # capacity 4 => 2 batches
        outcome = OnlineBatchScheduler(jobs, cluster, "ig-el", seed=1).run()
        assert outcome.batch_count == 2
        assert [len(b.job_ids) for b in outcome.batches] == [4, 2]

    def test_batches_are_contiguous(self, cluster):
        jobs = _campaign(n=6, gap=0.0)
        outcome = OnlineBatchScheduler(jobs, cluster, "ig-el", seed=2).run()
        assert outcome.batches[0].start == 0.0
        for a, b in zip(outcome.batches, outcome.batches[1:]):
            assert b.start == pytest.approx(a.end)

    def test_every_job_measured(self, cluster):
        jobs = _campaign(n=6, gap=0.0)
        outcome = OnlineBatchScheduler(jobs, cluster, "stf-el", seed=3).run()
        assert outcome.metrics is not None
        assert sorted(m.job_id for m in outcome.metrics.jobs) == list(range(6))
        assert outcome.metrics.makespan == pytest.approx(outcome.makespan)


class TestReleases:
    def test_late_jobs_wait_for_release(self, cluster):
        # second wave released far after the first batch would finish
        jobs = stream_from_sizes(
            [4_000.0, 3_000.0, 5_000.0],
            [0.0, 0.0, 1e9],
        )
        outcome = OnlineBatchScheduler(jobs, cluster, "ig-el", seed=1).run()
        assert outcome.batch_count == 2
        late = outcome.batches[1]
        assert late.start == pytest.approx(1e9)  # idled until the release

    def test_jobs_released_during_batch_queue_up(self, cluster):
        # job 2 arrives while batch 0 runs; it must start at batch 0's end
        jobs = stream_from_sizes(
            [8_000.0, 7_000.0, 4_000.0],
            [0.0, 0.0, 1.0],
        )
        outcome = OnlineBatchScheduler(jobs, cluster, "ig-el", seed=4).run()
        assert outcome.batch_count == 2
        assert outcome.batches[1].start == pytest.approx(
            outcome.batches[0].end
        )
        metrics = {m.job_id: m for m in outcome.metrics.jobs}
        assert metrics[2].waiting > 0

    def test_waiting_zero_when_released_at_start(self, cluster):
        jobs = _campaign(n=3, gap=0.0)
        outcome = OnlineBatchScheduler(jobs, cluster, "ig-el", seed=5).run()
        assert outcome.metrics.max_waiting == 0.0


class TestFixedBatchPolicy:
    def test_respects_batch_size(self, cluster):
        jobs = _campaign(n=6, gap=0.0)
        outcome = OnlineBatchScheduler(
            jobs, cluster, "ig-el", batch_policy="fixed", batch_size=2, seed=1
        ).run()
        assert outcome.batch_count == 3
        assert all(len(b.job_ids) == 2 for b in outcome.batches)

    def test_smaller_batches_start_sooner_but_finish_later(self, cluster):
        jobs = _campaign(n=6, gap=0.0)
        all_at_once = OnlineBatchScheduler(
            jobs, cluster, "ig-el", seed=1
        ).run()
        tiny_batches = OnlineBatchScheduler(
            jobs, cluster, "ig-el", batch_policy="fixed", batch_size=1, seed=1
        ).run()
        # serialising everything wastes the co-scheduling benefit
        assert tiny_batches.makespan >= all_at_once.makespan * 0.99


class TestDegenerateEquivalence:
    def test_one_batch_equals_direct_simulation(self):
        """All-at-zero releases + enough capacity == the paper's one pack."""
        import numpy as np

        from repro import Simulator
        from repro.rng import derive_seed_sequence
        from repro.tasks import Pack
        from dataclasses import replace as dc_replace

        cluster = Cluster.with_mtbf_years(16, mtbf_years=0.1)
        jobs = _campaign(n=5, gap=0.0, seed=9)
        outcome = OnlineBatchScheduler(jobs, cluster, "ig-el", seed=7).run()
        assert outcome.batch_count == 1

        # rebuild the exact pack the scheduler formed (largest first)
        ordered = sorted(jobs, key=lambda j: (-j.task.size, j.job_id))
        members = [
            dc_replace(job.task, index=i, name=f"J{job.job_id}")
            for i, job in enumerate(ordered)
        ]
        batch_seed = int(
            derive_seed_sequence(7, "batch", 0).generate_state(1, np.uint32)[0]
        )
        direct = Simulator(
            Pack(members), cluster, "ig-el", seed=batch_seed
        ).run()
        assert outcome.makespan == pytest.approx(direct.makespan)

    def test_fault_free_mode(self, cluster):
        jobs = _campaign(n=4, gap=0.0)
        outcome = OnlineBatchScheduler(
            jobs, cluster, "ig-el", seed=1, inject_faults=False
        ).run()
        assert all(
            b.result.failures_effective == 0 for b in outcome.batches
        )

    def test_summary(self, cluster):
        jobs = _campaign(n=4, gap=0.0)
        outcome = OnlineBatchScheduler(jobs, cluster, "ig-el", seed=1).run()
        text = outcome.summary()
        assert "batch[all]/ig-el" in text and "jobs" in text


def _hostile_cluster() -> Cluster:
    """Failure-rich platform so replicate fault draws actually differ."""
    return Cluster.with_mtbf_years(8, mtbf_years=0.001)


class TestReplicatedCampaigns:
    """Engine-driven replicated campaign runs (one PR-2 satellite)."""

    def test_replicates_fan_out_identically(self):
        from repro.batch import run_replicated_campaigns

        jobs = _campaign(n=6, gap=0.0, seed=3)
        cluster = _hostile_cluster()
        serial = run_replicated_campaigns(
            jobs, cluster, "ig-el", replicates=4, seed=9
        )
        pooled = run_replicated_campaigns(
            jobs, cluster, "ig-el", replicates=4, seed=9, workers=2,
        )
        persistent = run_replicated_campaigns(
            jobs, cluster, "ig-el", replicates=4, seed=9,
            workers=2, engine="persistent",
        )
        assert len(serial) == 4
        for a, b, c in zip(serial, pooled, persistent):
            assert a.makespan == b.makespan == c.makespan
            assert a.metrics.mean_response == b.metrics.mean_response
            assert a.metrics.mean_response == c.metrics.mean_response

    def test_replicates_see_independent_faults(self):
        from repro.batch import run_replicated_campaigns

        jobs = _campaign(n=6, gap=0.0, seed=3)
        outcomes = run_replicated_campaigns(
            jobs, _hostile_cluster(), "ig-el", replicates=4, seed=9
        )
        makespans = {outcome.makespan for outcome in outcomes}
        assert len(makespans) > 1  # fault draws actually differ

    def test_paired_seeds_across_batch_policies(self):
        """Paired campaigns: 'all' vs 'fixed' see the same jobs and the
        same per-replicate fault seeds, and metrics are deterministic."""
        from repro.batch import campaign_replicate_seed, run_replicated_campaigns

        jobs = _campaign(n=6, gap=0.0, seed=3)
        cluster = _hostile_cluster()
        take_all = run_replicated_campaigns(
            jobs, cluster, "ig-el", batch_policy="all", replicates=3, seed=4
        )
        fixed = run_replicated_campaigns(
            jobs, cluster, "ig-el", batch_policy="fixed", batch_size=2,
            replicates=3, seed=4,
        )
        for a, f in zip(take_all, fixed):
            # byte-identical job sets, whatever the batch formation
            a_ids = sorted(i for b in a.batches for i in b.job_ids)
            f_ids = sorted(i for b in f.batches for i in b.job_ids)
            assert a_ids == f_ids == [j.job_id for j in jobs]
            assert a.batch_policy == "all" and f.batch_policy == "fixed"
        # deterministic CampaignMetrics: a rerun reproduces everything
        rerun = run_replicated_campaigns(
            jobs, cluster, "ig-el", batch_policy="fixed", batch_size=2,
            replicates=3, seed=4, workers=2, engine="persistent",
        )
        for f, r in zip(fixed, rerun):
            assert f.makespan == r.makespan
            assert [m.completion for m in f.metrics.jobs] == [
                m.completion for m in r.metrics.jobs
            ]
            assert f.metrics.mean_waiting == r.metrics.mean_waiting
        # the pairing really is (seed, "campaign", replicate)
        assert campaign_replicate_seed(4, 0) != campaign_replicate_seed(4, 1)

    def test_single_replicate_matches_direct_run(self):
        from repro.batch import campaign_replicate_seed, run_replicated_campaigns

        jobs = _campaign(n=5, gap=0.0, seed=2)
        cluster = _hostile_cluster()
        [outcome] = run_replicated_campaigns(
            jobs, cluster, "ig-el", replicates=1, seed=6
        )
        direct = OnlineBatchScheduler(
            jobs, cluster, "ig-el", seed=campaign_replicate_seed(6, 0)
        ).run()
        assert outcome.makespan == direct.makespan

    def test_validates_before_dispatch(self):
        from repro.batch import run_replicated_campaigns

        jobs = _campaign(n=4, gap=0.0)
        with pytest.raises(ConfigurationError, match="batch_size"):
            run_replicated_campaigns(
                jobs, _hostile_cluster(), "ig-el",
                batch_policy="fixed", replicates=2,
            )
        with pytest.raises(ConfigurationError, match="replicates"):
            run_replicated_campaigns(
                jobs, _hostile_cluster(), "ig-el", replicates=0
            )
