"""EndLocal (Algorithm 3)."""

import math

import pytest

from repro.core import EndLocal, TaskRuntime, optimal_schedule
from repro.oracle import remaining_at


def make_runtimes(model, p):
    """Runtimes in their initial optimal allocation."""
    sigma = optimal_schedule(model, p)
    runtimes = []
    for i, spec in enumerate(model.pack):
        rt = TaskRuntime(spec)
        rt.assign(sigma[i])
        rt.t_expected = model.expected_time(i, sigma[i], 1.0)
        runtimes.append(rt)
    return runtimes


@pytest.fixture
def heuristic():
    return EndLocal()


class TestNoOp:
    def test_no_free_processors(self, model, heuristic):
        runtimes = make_runtimes(model, 40)
        assert heuristic.apply(model, 100.0, runtimes, 0) == []

    def test_single_pair_free_empty_list(self, model, heuristic):
        assert heuristic.apply(model, 100.0, [], 4) == []


class TestRedistribution:
    def test_grants_released_processors(self, model, heuristic):
        runtimes = make_runtimes(model, 40)
        # Pretend task 0 ended: its processors are free.
        ended = runtimes[0]
        survivors = runtimes[1:]
        free = ended.sigma
        t = min(rt.t_expected for rt in runtimes) * 0.5
        changed = heuristic.apply(model, t, survivors, free)
        granted = sum(rt.sigma for rt in survivors)
        initial = sum(rt.sigma for rt in make_runtimes(model, 40)[1:])
        assert granted >= initial
        assert granted - initial <= free
        for i in changed:
            rt = next(r for r in survivors if r.index == i)
            assert rt.redistributions == 1

    def test_changed_tasks_restart_pattern_after_t(self, model, heuristic):
        runtimes = make_runtimes(model, 40)
        survivors = runtimes[1:]
        t = min(rt.t_expected for rt in runtimes) * 0.5
        changed = heuristic.apply(model, t, survivors, runtimes[0].sigma)
        for i in changed:
            rt = next(r for r in survivors if r.index == i)
            # tlastR = t + RC + C > t (Section 3.3.2)
            assert rt.t_last > t

    def test_unchanged_tasks_keep_bookkeeping(self, model, heuristic):
        runtimes = make_runtimes(model, 40)
        survivors = runtimes[1:]
        before = {rt.index: (rt.alpha, rt.t_last) for rt in survivors}
        t = min(rt.t_expected for rt in runtimes) * 0.5
        changed = set(heuristic.apply(model, t, survivors, runtimes[0].sigma))
        for rt in survivors:
            if rt.index not in changed:
                assert (rt.alpha, rt.t_last) == before[rt.index]

    def test_improves_expected_makespan(self, model, heuristic):
        runtimes = make_runtimes(model, 40)
        survivors = runtimes[1:]
        worst_before = max(rt.t_expected for rt in survivors)
        t = min(rt.t_expected for rt in runtimes) * 0.5
        changed = heuristic.apply(model, t, survivors, runtimes[0].sigma)
        if changed:  # when a redistribution happened it must have paid off
            worst_after = max(rt.t_expected for rt in survivors)
            assert worst_after <= worst_before + 1e-9

    def test_allocations_stay_even(self, model, heuristic):
        runtimes = make_runtimes(model, 40)
        survivors = runtimes[1:]
        t = min(rt.t_expected for rt in runtimes) * 0.5
        heuristic.apply(model, t, survivors, runtimes[0].sigma)
        assert all(rt.sigma % 2 == 0 and rt.sigma >= 2 for rt in survivors)

    def test_consumption_bounded_by_free(self, model, heuristic):
        runtimes = make_runtimes(model, 40)
        survivors = runtimes[1:]
        before = sum(rt.sigma for rt in survivors)
        t = min(rt.t_expected for rt in runtimes) * 0.5
        heuristic.apply(model, t, survivors, 2)
        assert sum(rt.sigma for rt in survivors) - before <= 2


class TestCostAwareness:
    def test_skips_when_redistribution_too_expensive(
        self, small_pack, small_cluster
    ):
        """Near the pack's end the remaining work cannot amortise RC + C.

        The decision point sits just before the *latest* task's expected
        finish, so every task has (essentially) no work left.  (Just
        before the *earliest* finish would not do: the laggards still
        hold enough remaining work to pay for a redistribution.)
        """
        from repro.resilience import ExpectedTimeModel

        model = ExpectedTimeModel(small_pack, small_cluster)
        runtimes = make_runtimes(model, 40)
        survivors = runtimes[1:]
        t = max(rt.t_expected for rt in survivors) * 0.9999
        changed = EndLocal().apply(model, t, survivors, runtimes[0].sigma)
        assert changed == []
