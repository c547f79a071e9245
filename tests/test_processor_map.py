"""Processor identity bookkeeping."""

import pytest

from repro.cluster import ProcessorMap
from repro.exceptions import CapacityError, SimulationError


@pytest.fixture
def pmap() -> ProcessorMap:
    return ProcessorMap(12)


class TestConstruction:
    def test_all_free_initially(self, pmap):
        assert pmap.free_count == 12
        assert pmap.counts() == {}

    def test_odd_size_rejected(self):
        with pytest.raises(CapacityError):
            ProcessorMap(7)

    def test_too_small_rejected(self):
        with pytest.raises(CapacityError):
            ProcessorMap(0)


class TestAcquireRelease:
    def test_acquire_assigns_owner(self, pmap):
        granted = pmap.acquire(3, 4)
        assert len(granted) == 4
        assert pmap.count(3) == 4
        for proc in granted:
            assert pmap.owner_of(proc) == 3

    def test_acquire_depletes_pool(self, pmap):
        pmap.acquire(0, 8)
        assert pmap.free_count == 4

    def test_acquire_more_than_free_rejected(self, pmap):
        with pytest.raises(CapacityError):
            pmap.acquire(0, 14)

    def test_odd_acquire_rejected(self, pmap):
        with pytest.raises(CapacityError):
            pmap.acquire(0, 3)

    def test_release_all(self, pmap):
        pmap.acquire(1, 6)
        released = pmap.release(1)
        assert len(released) == 6
        assert pmap.count(1) == 0
        assert pmap.free_count == 12

    def test_release_partial(self, pmap):
        pmap.acquire(1, 6)
        pmap.release(1, 2)
        assert pmap.count(1) == 4
        assert pmap.free_count == 8

    def test_release_too_many_rejected(self, pmap):
        pmap.acquire(1, 2)
        with pytest.raises(CapacityError):
            pmap.release(1, 4)

    def test_release_nothing_held(self, pmap):
        assert pmap.release(9, 0) == []
        with pytest.raises(SimulationError):
            pmap.release(9, 2)

    def test_released_procs_are_reusable(self, pmap):
        pmap.acquire(0, 12)
        pmap.release(0, 6)
        pmap.acquire(1, 6)
        assert pmap.count(0) == 6
        assert pmap.count(1) == 6


class TestAcquireAll:
    @pytest.mark.parametrize(
        "counts", [{0: 2, 1: 4}, {3: 2, 0: 6, 2: 2}, {5: 10}, {1: 4, 0: 2}]
    )
    def test_grants_the_ids_successive_acquires_would(self, counts):
        one_by_one, at_once = ProcessorMap(10), ProcessorMap(10)
        one_by_one.acquire(9, 0)
        at_once.acquire(9, 0)
        for task, count in counts.items():
            one_by_one.acquire(task, count)
        at_once.acquire_all(counts)
        for proc in range(10):
            assert at_once.owner_of(proc) == one_by_one.owner_of(proc)
        assert at_once.counts() == one_by_one.counts()
        assert at_once.free_count == one_by_one.free_count
        at_once.validate()

    def test_rejects_odd_counts_and_overcommit(self, pmap):
        with pytest.raises(CapacityError):
            pmap.acquire_all({0: 2, 1: 3})
        with pytest.raises(CapacityError):
            pmap.acquire_all({0: 2, 1: pmap.p})
        assert pmap.free_count == pmap.p


class TestTransferResize:
    def test_transfer_moves_ownership(self, pmap):
        pmap.acquire(0, 8)
        moved = pmap.transfer(0, 1, 4)
        assert len(moved) == 4
        assert pmap.count(0) == 4
        assert pmap.count(1) == 4
        for proc in moved:
            assert pmap.owner_of(proc) == 1

    def test_resize_grow(self, pmap):
        pmap.acquire(0, 2)
        pmap.resize(0, 6)
        assert pmap.count(0) == 6

    def test_resize_shrink(self, pmap):
        pmap.acquire(0, 8)
        pmap.resize(0, 2)
        assert pmap.count(0) == 2
        assert pmap.free_count == 10

    def test_resize_noop(self, pmap):
        pmap.acquire(0, 4)
        pmap.resize(0, 4)
        assert pmap.count(0) == 4

    def test_apply_counts_shrink_before_grow(self, pmap):
        # 0 holds 8, 1 holds 4; swap their sizes: the grow of task 1 only
        # fits because the shrink of task 0 happens first.
        pmap.acquire(0, 8)
        pmap.acquire(1, 4)
        pmap.apply_counts({0: 4, 1: 8})
        assert pmap.count(0) == 4
        assert pmap.count(1) == 8

    def test_apply_counts_validates_capacity(self, pmap):
        pmap.acquire(0, 8)
        with pytest.raises(CapacityError):
            pmap.apply_counts({0: 20})


class TestInvariants:
    def test_validate_ok(self, pmap):
        pmap.acquire(0, 4)
        pmap.acquire(1, 2)
        pmap.validate()

    def test_owner_out_of_range(self, pmap):
        with pytest.raises(CapacityError):
            pmap.owner_of(99)

    def test_counts_snapshot(self, pmap):
        pmap.acquire(0, 4)
        pmap.acquire(5, 2)
        assert pmap.counts() == {0: 4, 5: 2}
