"""The Algorithm 2 discrete-event simulator."""

import math

import numpy as np
import pytest

from repro.cluster import Cluster
from repro.core import optimal_schedule, projected_finish
from repro.exceptions import CapacityError
from repro.resilience import ExpectedTimeModel
from repro.simulation import EventKind, Simulator, simulate
from repro.tasks import uniform_pack


class TestFaultFreeRuns:
    def test_no_failures_recorded(self, small_pack, small_cluster):
        result = simulate(
            small_pack, small_cluster, "no-redistribution",
            seed=1, inject_faults=False,
        )
        assert result.failures_total == 0
        assert result.redistributions == 0

    def test_matches_analytic_projection(self, small_pack, small_cluster):
        """Without failures or redistribution the makespan is exactly the
        worst projected finish of the initial optimal allocation."""
        model = ExpectedTimeModel(small_pack, small_cluster)
        sigma = optimal_schedule(model, small_cluster.processors)
        expected = 0.0
        for i, j in sigma.items():
            grid = model.grid(i)
            slot = grid.slot(j)
            finish = projected_finish(
                0.0, 1.0,
                float(grid.t_ff[slot]),
                float(grid.tau[slot]),
                float(grid.cost[slot]),
            )
            expected = max(expected, finish)
        result = simulate(
            small_pack, small_cluster, "no-redistribution",
            seed=1, inject_faults=False,
        )
        assert result.makespan == pytest.approx(expected, rel=1e-12)

    def test_all_tasks_complete(self, small_pack, small_cluster):
        result = simulate(
            small_pack, small_cluster, "end-local",
            seed=1, inject_faults=False,
        )
        assert np.all(np.isfinite(result.completion_times))
        assert result.n == len(small_pack)

    def test_redistribution_never_hurts_fault_free(
        self, small_pack, small_cluster
    ):
        base = simulate(
            small_pack, small_cluster, "no-redistribution",
            seed=1, inject_faults=False,
        )
        local = simulate(
            small_pack, small_cluster, "end-local",
            seed=1, inject_faults=False,
        )
        greedy = simulate(
            small_pack, small_cluster, "end-greedy",
            seed=1, inject_faults=False,
        )
        # The heuristics only accept moves that reduce the expected finish.
        assert local.makespan <= base.makespan * 1.001
        assert greedy.makespan <= base.makespan * 1.001


class TestDeterminism:
    @pytest.mark.parametrize("policy", ["no-redistribution", "ig-el", "stf-eg"])
    def test_same_seed_same_outcome(self, small_pack, small_cluster, policy):
        a = simulate(small_pack, small_cluster, policy, seed=9)
        b = simulate(small_pack, small_cluster, policy, seed=9)
        assert a.makespan == b.makespan
        assert np.array_equal(a.completion_times, b.completion_times)
        assert a.failures_total == b.failures_total

    def test_different_seed_different_failures(self, small_pack, small_cluster):
        a = simulate(small_pack, small_cluster, "no-redistribution", seed=1)
        b = simulate(small_pack, small_cluster, "no-redistribution", seed=2)
        assert a.makespan != b.makespan

    def test_common_random_numbers_across_policies(
        self, small_pack, small_cluster
    ):
        """Fault arrival streams depend only on the seed, not the policy."""
        a = simulate(small_pack, small_cluster, "no-redistribution", seed=5)
        b = simulate(small_pack, small_cluster, "ig-eg", seed=5)
        # Arrival processes are identical; what differs is which tasks are
        # hit (ownership) — the total injected count up to each policy's
        # own makespan is policy-dependent, but both saw > 0 events drawn
        # from the same stream.  Compare the first arrival via traces.
        ra = Simulator(
            small_pack, small_cluster, "no-redistribution",
            seed=5, record_trace=True,
        ).run()
        rb = Simulator(
            small_pack, small_cluster, "ig-eg", seed=5, record_trace=True
        ).run()
        fa = [e.time for e in ra.trace.events if "failure" in e.kind.value]
        fb = [e.time for e in rb.trace.events if "failure" in e.kind.value]
        shared = min(len(fa), len(fb))
        assert fa[:shared] == fb[:shared]


class TestFaultContext:
    def test_failures_slow_execution(self, small_pack, small_cluster):
        fault_free = simulate(
            small_pack, small_cluster, "no-redistribution",
            seed=3, inject_faults=False,
        )
        faulty = simulate(
            small_pack, small_cluster, "no-redistribution", seed=3
        )
        if faulty.failures_effective > 0:
            assert faulty.makespan > fault_free.makespan

    def test_failure_counters_consistent(self, small_pack, small_cluster):
        result = Simulator(
            small_pack, small_cluster, "no-redistribution",
            seed=3, record_trace=True,
        ).run()
        events = result.trace.events
        effective = sum(1 for e in events if e.kind is EventKind.FAILURE)
        idle = sum(1 for e in events if e.kind is EventKind.FAILURE_IDLE)
        masked = sum(1 for e in events if e.kind is EventKind.FAILURE_MASKED)
        assert effective == result.failures_effective
        assert idle == result.failures_idle
        assert masked == result.failures_masked

    def test_no_redistribution_policy_never_redistributes(
        self, small_pack, small_cluster
    ):
        result = simulate(
            small_pack, small_cluster, "no-redistribution", seed=3
        )
        assert result.redistributions == 0

    def test_heuristics_redistribute_under_failures(
        self, small_pack, small_cluster
    ):
        result = simulate(small_pack, small_cluster, "ig-eg", seed=3)
        assert result.redistributions > 0

    def test_completion_times_positive_increasing_makespan(
        self, small_pack, small_cluster
    ):
        result = simulate(small_pack, small_cluster, "stf-el", seed=3)
        assert np.all(result.completion_times > 0)
        assert result.makespan == result.completion_times.max()


class TestTrace:
    def test_trace_disabled_by_default(self, small_pack, small_cluster):
        assert simulate(small_pack, small_cluster, "ig-el", seed=3).trace is None

    def test_trace_records_completions(self, small_pack, small_cluster):
        result = Simulator(
            small_pack, small_cluster, "ig-el", seed=3, record_trace=True
        ).run()
        completions = [
            e for e in result.trace.events if e.kind is EventKind.COMPLETION
        ]
        assert len(completions) == len(small_pack)

    def test_failure_snapshots_lengths_match(self, small_pack, small_cluster):
        result = Simulator(
            small_pack, small_cluster, "ig-el", seed=3, record_trace=True
        ).run()
        trace = result.trace
        assert (
            len(trace.failure_times)
            == len(trace.makespan_after_failure)
            == len(trace.sigma_std_after_failure)
            == result.failures_effective
        )

    def test_makespan_snapshots_bounded_by_final(self, small_pack, small_cluster):
        result = Simulator(
            small_pack, small_cluster, "no-redistribution",
            seed=3, record_trace=True,
        ).run()
        # Without redistribution the projected makespan only grows with
        # failures, and the last snapshot equals the final makespan when the
        # last failure hits the critical task.
        for snapshot in result.trace.makespan_after_failure:
            assert snapshot <= result.makespan + 1e-6

    def test_as_arrays(self, small_pack, small_cluster):
        result = Simulator(
            small_pack, small_cluster, "ig-el", seed=3, record_trace=True
        ).run()
        arrays = result.trace.as_arrays()
        assert set(arrays) == {"failure_times", "makespan", "sigma_std"}


class TestStrictMode:
    @pytest.mark.parametrize("policy", ["ig-eg", "ig-el", "stf-eg", "stf-el"])
    def test_processor_map_invariants_hold(
        self, small_pack, small_cluster, policy
    ):
        """strict=True validates the processor partition after every event."""
        Simulator(
            small_pack, small_cluster, policy, seed=3, strict=True
        ).run()


class TestResultSummary:
    def test_summary_contains_policy_and_counts(self, small_pack, small_cluster):
        result = simulate(small_pack, small_cluster, "ig-el", seed=3)
        text = result.summary()
        assert "ig-el" in text
        assert "makespan" in text


class TestStartPrologue:
    """``start()`` scores every task's initial expected time in one
    batched ``profile_matrix`` call; it must reproduce the scalar
    per-task prologue (``expected_time`` per task) bit for bit."""

    T0 = 5_000.0

    @staticmethod
    def scalar_prologue(pack, cluster, sigma0, alphas, t_last):
        """Per-task ``t_expected`` and the sorted completion queue."""
        fresh = ExpectedTimeModel(pack, cluster)
        t_expected, finish = {}, []
        for i, count in sigma0.items():
            grid = fresh.grid(i)
            slot = grid.slot(count)
            t_expected[i] = t_last[i] + fresh.expected_time(
                i, count, alphas[i]
            )
            finish.append((
                projected_finish(
                    t_last[i],
                    alphas[i],
                    float(grid.t_ff[slot]),
                    float(grid.tau[slot]),
                    float(grid.cost[slot]),
                ),
                i,
            ))
        return t_expected, sorted(finish)

    @staticmethod
    def completions(sim):
        """Every completion of a fault-free, never-redistributing run:
        the prologue's completion queue, drained in (time, task) order."""
        events = []
        while sim.tasks_remaining:
            t, kind, i = sim.step()
            if kind == "completion":
                events.append((t, i))
        return events

    def check(self, pack, cluster, sigma0, alphas, t_last, *, residual):
        sim = Simulator(pack, cluster, inject_faults=False)
        if residual:
            sim.start(t0=self.T0, sigma0=sigma0, alphas=alphas, t_last=t_last)
        else:
            sim.start(sigma0=sigma0)
        t_expected, finish = self.scalar_prologue(
            pack, cluster, sigma0, alphas, t_last
        )
        for i, rt in enumerate(sim.runtimes):
            assert rt.t_expected == t_expected[i]
            assert rt.t_last == t_last[i] and rt.alpha == alphas[i]
        assert sim.next_event_time() == finish[0][0]
        assert self.completions(sim) == finish

    def test_full_work_matches_scalar_prologue(self, small_pack, small_cluster):
        n, p = len(small_pack), small_cluster.processors
        sigma0 = optimal_schedule(ExpectedTimeModel(small_pack, small_cluster), p)
        self.check(
            small_pack, small_cluster, sigma0, [1.0] * n, [0.0] * n,
            residual=False,
        )

    def test_residual_work_matches_scalar_prologue(
        self, small_pack, small_cluster
    ):
        n, p = len(small_pack), small_cluster.processors
        alphas = [float(a) for a in np.linspace(0.15, 0.95, n)]
        t_last = [self.T0 + 37.5 * i for i in range(n)]
        model = ExpectedTimeModel(small_pack, small_cluster)
        sigma0 = optimal_schedule(model, p, alphas=alphas)
        self.check(
            small_pack, small_cluster, sigma0, alphas, t_last, residual=True
        )

    @pytest.mark.parametrize("bad", [3, 0, 42])
    def test_odd_or_out_of_grid_count_raises(
        self, small_pack, small_cluster, bad
    ):
        # small_cluster has 40 processors: 42 is past the grid's end.
        sigma0 = {i: 2 for i in range(len(small_pack))}
        sigma0[3] = bad
        sim = Simulator(small_pack, small_cluster, inject_faults=False)
        with pytest.raises(CapacityError):
            sim.start(sigma0=sigma0)
