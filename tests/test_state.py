"""TaskRuntime bookkeeping."""

import math

import numpy as np
import pytest

from repro.cluster import Cluster
from repro.core import TaskRuntime
from repro.core.state import TaskArrays
from repro.exceptions import CapacityError, SimulationError
from repro.resilience import ExpectedTimeModel
from repro.tasks import TaskSpec, uniform_pack


@pytest.fixture
def runtime():
    spec = TaskSpec(index=3, size=1000.0, checkpoint_cost=100.0)
    return TaskRuntime(spec)


class TestDefaults:
    def test_initial_state(self, runtime):
        assert runtime.alpha == 1.0
        assert runtime.t_last == 0.0
        assert not runtime.completed
        assert math.isinf(runtime.t_expected)

    def test_index_from_spec(self, runtime):
        assert runtime.index == 3


class TestAssign:
    def test_even_allocation(self, runtime):
        runtime.assign(6)
        assert runtime.sigma == 6

    def test_zero_allowed(self, runtime):
        runtime.assign(0)
        assert runtime.sigma == 0

    def test_odd_rejected(self, runtime):
        with pytest.raises(CapacityError):
            runtime.assign(3)

    def test_below_pair_rejected(self, runtime):
        with pytest.raises(CapacityError):
            runtime.assign(1)

    def test_negative_rejected(self, runtime):
        with pytest.raises(CapacityError):
            runtime.assign(-2)


class TestCompletion:
    def test_mark_completed(self, runtime):
        runtime.assign(4)
        runtime.mark_completed(123.0)
        assert runtime.completed
        assert runtime.completion_time == 123.0
        assert runtime.alpha == 0.0
        assert runtime.sigma == 0

    def test_double_completion_rejected(self, runtime):
        runtime.mark_completed(1.0)
        with pytest.raises(SimulationError):
            runtime.mark_completed(2.0)


class TestBusy:
    def test_busy_before_t_last(self, runtime):
        runtime.t_last = 100.0
        assert runtime.busy_at(50.0)
        assert runtime.busy_at(100.0)  # boundary excluded per Alg. 2 line 15

    def test_free_after_t_last(self, runtime):
        runtime.t_last = 100.0
        assert not runtime.busy_at(100.0001)

    def test_completed_never_busy(self, runtime):
        runtime.t_last = 100.0
        runtime.mark_completed(10.0)
        assert not runtime.busy_at(50.0)


class TestTaskArrays:
    """The per-task vector store and its check against the runtimes."""

    @pytest.fixture
    def started(self):
        pack = uniform_pack(3, m_inf=150.0, m_sup=260.0, seed=0)
        model = ExpectedTimeModel(pack, Cluster.with_mtbf_years(12, 0.01))
        runtimes = [TaskRuntime(spec) for spec in pack]
        for rt, sigma in zip(runtimes, (2, 4, 6)):
            rt.assign(sigma)
            rt.alpha = 0.5 + 0.1 * rt.index
            rt.t_expected = model.expected_time(rt.index, sigma, rt.alpha)
        return model, runtimes, TaskArrays.gather(model, runtimes)

    def test_gather_copies_fields_and_grid_values(self, started):
        model, runtimes, arrays = started
        for rt in runtimes:
            i, grid = rt.index, model.grid(rt.index)
            slot = grid.slot(rt.sigma)
            assert arrays.sigma[i] == rt.sigma
            assert arrays.alpha[i] == rt.alpha
            assert arrays.t_expected[i] == rt.t_expected
            assert arrays.t_ff[i] == grid.t_ff[slot]
            assert arrays.tau[i] == grid.tau[slot]
            assert arrays.cost[i] == grid.cost[slot]
        assert arrays.sigma.dtype == np.int64
        assert arrays.live.all() and not arrays.done.any()
        arrays.check(runtimes)

    def test_write_follows_a_move(self, started):
        model, runtimes, arrays = started
        rt = runtimes[0]
        rt.assign(8)
        rt.t_last = 5.0
        arrays.write(model, rt)
        grid = model.grid(0)
        assert arrays.sigma[0] == 8
        assert arrays.t_last[0] == 5.0
        assert arrays.cost[0] == grid.cost[grid.slot(8)]
        arrays.check(runtimes)

    def test_copy_is_independent(self, started):
        _, runtimes, arrays = started
        twin = arrays.copy()
        twin.alpha[0] = 0.0
        twin.done[1] = True
        arrays.check(runtimes)
        with pytest.raises(SimulationError):
            twin.check(runtimes)

    @pytest.mark.parametrize(
        "field", ["sigma", "alpha", "t_last", "t_expected", "done", "live"]
    )
    def test_check_rejects_a_desync(self, started, field):
        _, runtimes, arrays = started
        values = getattr(arrays, field)
        values[1] = not values[1] if values.dtype == bool else values[1] + 2
        with pytest.raises(SimulationError, match=field):
            arrays.check(runtimes)

    def test_check_skips_released_and_completed_tasks(self, started):
        _, runtimes, arrays = started
        arrays.released[0] = True
        arrays.live[0] = False
        arrays.alpha[0] = 0.0  # a released task's row is not compared
        arrays.check(runtimes)
        runtimes[2].mark_completed(9.0)
        arrays.done[2] = True
        arrays.live[2] = False
        arrays.check(runtimes)
