"""Simulator forks and the per-replicate series tree.

``Simulator.fork`` copies a started simulator's mutable state, and
``experiments.runner._series_tree`` steps one simulator through the
prefix the series of a replicate share, forking where their heuristics
diverge.  Both must be invisible in the results: every series of the
tree equals an independent ``Simulator(...).run()`` bit for bit, and a
fork never shares state with its parent.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Cluster, Simulator, uniform_pack
from repro.core.policy import POLICIES
from repro.exceptions import SimulationError
from repro.experiments.runner import (
    FAULT_FREE_SERIES,
    FAULT_SERIES,
    _series_tree,
)
from repro.resilience.expected_time import ExpectedTimeModel


def assert_same_run(got, want):
    """Every observable of two results, bit for bit."""
    assert got.policy == want.policy
    assert got.makespan == want.makespan
    assert got.completion_times.tobytes() == want.completion_times.tobytes()
    assert got.events == want.events
    assert got.failures_effective == want.failures_effective
    assert got.failures_idle == want.failures_idle
    assert got.failures_masked == want.failures_masked
    assert got.redistributions == want.redistributions
    assert got.initial_sigma == want.initial_sigma


def scenario(n, extra_pairs, mtbf_years, seed):
    pack = uniform_pack(n, m_inf=2_000, m_sup=9_000, seed=seed)
    cluster = Cluster.with_mtbf_years(2 * (n + extra_pairs), mtbf_years)
    return pack, cluster


@given(
    n=st.integers(2, 7),
    extra_pairs=st.integers(0, 8),
    mtbf_years=st.sampled_from([0.002, 0.01, 0.1]),
    seed=st.integers(0, 50_000),
    series=st.sampled_from([FAULT_SERIES, FAULT_FREE_SERIES]),
)
@settings(max_examples=40, deadline=None)
def test_tree_equals_independent_runs(n, extra_pairs, mtbf_years, seed, series):
    pack, cluster = scenario(n, extra_pairs, mtbf_years, seed)
    tree = _series_tree(pack, ExpectedTimeModel(pack, cluster), series, seed)
    assert list(tree) == [spec.key for spec in series]
    for spec in series:
        alone = Simulator(
            pack,
            cluster,
            spec.policy,
            seed=seed,
            inject_faults=spec.faults,
            model=ExpectedTimeModel(pack, cluster),
        ).run()
        assert_same_run(tree[spec.key], alone)


def snapshot(sim):
    """The fork-visible state: allocations, the next events, RNG state."""
    procs = sim._procs
    injector = sim._injector
    return (
        {task: sorted(procs.held_by(task)) for task in procs.counts()},
        sorted(sim._finish._heap),
        sorted(getattr(injector, "_heap", [])),
        (
            injector._rng.bit_generator.state["state"]
            if hasattr(injector, "_rng")
            else None
        ),
        sim.tasks_remaining,
    )


@given(
    n=st.integers(2, 7),
    extra_pairs=st.integers(0, 8),
    mtbf_years=st.sampled_from([0.002, 0.01, 0.1]),
    seed=st.integers(0, 50_000),
    policy=st.sampled_from(sorted(POLICIES)),
    cut=st.integers(0, 60),
)
@settings(max_examples=40, deadline=None)
def test_mid_run_fork_is_independent(
    n, extra_pairs, mtbf_years, seed, policy, cut
):
    pack, cluster = scenario(n, extra_pairs, mtbf_years, seed)
    model = ExpectedTimeModel(pack, cluster)
    whole = Simulator(pack, cluster, policy, seed=seed, model=model).run()

    parent = Simulator(pack, cluster, policy, seed=seed, model=model)
    parent.start()
    for _ in range(cut):
        if parent.step() is None:
            break
    child = parent.fork(policy)
    at_fork = snapshot(child)

    # Draining the parent moves none of the child's state ...  (Steps
    # are bounded by the run's event count: a fork that lost its
    # completion entries would otherwise step through failures forever.)
    for _ in range(whole.events):
        parent.step()
    assert snapshot(child) == at_fork
    # ... and stepping the two side by side gives the uninterrupted run.
    parent = child.fork(policy)
    for _ in range(whole.events):
        child.step()
        parent.step()
    assert child.tasks_remaining == parent.tasks_remaining == 0
    assert_same_run(child.result(), whole)
    assert_same_run(parent.result(), whole)


def test_stepping_a_fork_leaves_the_parent_store_unchanged():
    pack, cluster = scenario(5, 3, 0.002, 7)
    parent = Simulator(pack, cluster, "ig-el", seed=7)
    parent.start()
    for _ in range(5):
        parent.step()
    before = {
        name: getattr(parent.arrays, name).copy()
        for name in type(parent.arrays).__slots__
    }
    child = parent.fork("ig-el")
    child.advance()
    assert child.tasks_remaining == 0
    for name, values in before.items():
        assert getattr(parent.arrays, name).tobytes() == values.tobytes(), name
        assert not np.shares_memory(
            getattr(parent.arrays, name), getattr(child.arrays, name)
        )


def test_fork_requires_a_started_simulator():
    pack, cluster = scenario(3, 1, 0.01, 0)
    with pytest.raises(SimulationError):
        Simulator(pack, cluster, "ig-el").fork("ig-eg")


def test_fault_free_fork_only_before_the_first_event():
    pack, cluster = scenario(3, 1, 0.002, 1)
    sim = Simulator(pack, cluster, "ig-el", seed=1)
    sim.start()
    fault_free = sim.fork("end-local", inject_faults=False)
    want = Simulator(
        pack, cluster, "end-local", seed=1, inject_faults=False
    ).run()
    assert_same_run(fault_free.run(), want)
    sim.step()
    with pytest.raises(SimulationError):
        sim.fork("end-local", inject_faults=False)


def test_fork_carries_the_recorded_trace():
    pack, cluster = scenario(4, 2, 0.002, 3)
    sim = Simulator(pack, cluster, "stf-el", seed=3, record_trace=True)
    sim.start()
    for _ in range(10):
        sim.step()
    child = sim.fork("stf-el")
    want = Simulator(
        pack, cluster, "stf-el", seed=3, record_trace=True
    ).run()
    sim.advance()
    got = child.run()
    assert got.trace.events == want.trace.events
    np.testing.assert_array_equal(
        got.trace.as_arrays()["makespan"], want.trace.as_arrays()["makespan"]
    )
