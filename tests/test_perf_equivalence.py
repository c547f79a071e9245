"""Equivalence guarantees of the performance overhaul.

The fast simulator path, the batched profile accessors and the unified
execution engine are pure optimisations: every observable output must be
byte-identical to the seed-literal reference (:class:`repro.oracle.
ReferenceSimulator`) and to the serial engine under common random
numbers.  These tests pin that contract — including the engine guarantee that all three executors (serial, persistent and
queue) produce byte-identical figure series.
"""

import os

import numpy as np
import pytest

from repro import counters
from repro.cluster import Cluster
from repro.core.state import TaskArrays, TaskRuntime
from repro.engine import (
    ENGINES,
    PersistentPoolExecutor,
    QueueExecutor,
    SerialExecutor,
    create_executor,
    default_chunk_size,
)
from repro.experiments import (
    FAULT_SERIES,
    ScenarioConfig,
    run_figure,
    run_scenario,
)
from repro.oracle import ReferenceSimulator
from repro.resilience import ExpectedTimeModel, expected_time
from repro.simulation import Simulator
from repro.tasks import uniform_pack
from test_figure_digests import SMALL_DIGESTS, TINY_DIGESTS, figure_digest

#: Small but failure-rich scenario: every policy sees real faults.
CONFIG = ScenarioConfig(
    n=4, p=12, m_inf=120.0, m_sup=200.0, mtbf_years=0.002, replicates=5
)


def _workload(seed: int):
    pack = uniform_pack(5, m_inf=150.0, m_sup=260.0, seed=seed)
    cluster = Cluster.with_mtbf_years(16, 0.002)
    return pack, cluster


def _run(pack, cluster, series, seed, reference):
    model = ExpectedTimeModel(pack, cluster)
    simulator = ReferenceSimulator if reference else Simulator
    return simulator(
        pack,
        cluster,
        series.policy,
        seed=seed,
        inject_faults=series.faults,
        model=model,
        record_trace=True,
    ).run()


class TestHeapMatchesScan:
    """The fast path (heap event queue, decision cache, fused Eq. 4,
    ndarray failure path) against ``ReferenceSimulator`` on whole runs.

    The reference keeps the seed's per-failure Python scans; the class
    name is kept so the test IDs stay stable.
    """

    @pytest.mark.parametrize("series", FAULT_SERIES, ids=lambda s: s.key)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_byte_identical_run(self, series, seed):
        pack, cluster = _workload(seed)
        fast = _run(pack, cluster, series, seed, False)
        ref = _run(pack, cluster, series, seed, True)
        assert fast.makespan == ref.makespan
        assert np.array_equal(fast.completion_times, ref.completion_times)
        assert fast.initial_sigma == ref.initial_sigma
        assert fast.events == ref.events
        assert fast.failures_effective == ref.failures_effective
        assert fast.failures_idle == ref.failures_idle
        assert fast.failures_masked == ref.failures_masked
        assert fast.redistributions == ref.redistributions

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_traces_identical(self, seed):
        pack, cluster = _workload(seed)
        series = FAULT_SERIES[2]  # ig-el: completions + failure rebuilds
        fast = _run(pack, cluster, series, seed, False).trace
        ref = _run(pack, cluster, series, seed, True).trace
        assert fast.events == ref.events
        assert fast.failure_times == ref.failure_times
        assert fast.makespan_after_failure == ref.makespan_after_failure
        assert fast.sigma_std_after_failure == ref.sigma_std_after_failure

    def test_exercises_failures(self):
        # Guard: the scenario above must actually inject failures,
        # otherwise the equivalence tests prove nothing about rollbacks.
        pack, cluster = _workload(0)
        result = _run(pack, cluster, FAULT_SERIES[0], 0, False)
        assert result.failures_effective > 0

    def test_unknown_event_queue_rejected(self):
        # The scan queue is gone: the knob itself no longer exists.
        pack, cluster = _workload(0)
        with pytest.raises(TypeError):
            Simulator(pack, cluster, event_queue="scan")

    def test_completion_queue_blocks_unsynced_mutators(self):
        from repro.simulation import CompletionQueue

        pack, _ = _workload(0)
        arrays = TaskArrays(len(pack))
        queue = CompletionQueue(arrays)
        queue[0] = 1.5
        assert queue.peek() == (1.5, 0)
        assert arrays.finish[0] == 1.5
        # Item assignment is the only write: no mapping mutator exists
        # that could bypass the heap.
        assert not isinstance(queue, dict)
        for name in ("update", "setdefault", "pop", "popitem", "clear",
                     "__delitem__"):
            assert not hasattr(queue, name)
        assert queue.peek() == (1.5, 0)


class TestParallelMatchesSerial:
    def test_makespans_byte_identical(self):
        serial = run_scenario(CONFIG, FAULT_SERIES, seed=11)
        fanned = run_scenario(CONFIG, FAULT_SERIES, seed=11, workers=2)
        assert set(serial.makespans) == set(fanned.makespans)
        for key in serial.makespans:
            assert np.array_equal(serial.makespans[key], fanned.makespans[key])
        assert serial.normalized_row() == fanned.normalized_row()

    def test_chunk_size_does_not_matter(self):
        serial = run_scenario(CONFIG, FAULT_SERIES, seed=5)
        for chunk_size in (1, 2, CONFIG.replicates):
            with create_executor(
                "persistent", workers=2, chunk_size=chunk_size
            ) as executor:
                fanned = run_scenario(
                    CONFIG, FAULT_SERIES, seed=5, executor=executor
                )
            for key in serial.makespans:
                assert np.array_equal(
                    serial.makespans[key], fanned.makespans[key]
                )

    def test_keep_results_roundtrip(self):
        outcome = run_scenario(
            CONFIG, FAULT_SERIES, seed=3, workers=2, keep_results=True
        )
        for key, results in outcome.results.items():
            assert len(results) == CONFIG.replicates
            for rep, result in enumerate(results):
                assert result.makespan == outcome.makespans[key][rep]

    def test_default_chunk_size(self):
        assert default_chunk_size(50, 4) == 4  # ~4 chunks per worker
        assert default_chunk_size(1, 8) == 1
        assert default_chunk_size(0, 2) == 1

    def test_workers_one_equals_serial(self):
        serial = run_scenario(CONFIG, FAULT_SERIES, seed=2)
        same = run_scenario(
            CONFIG, FAULT_SERIES, seed=2, workers=1, engine="persistent"
        )
        for key in serial.makespans:
            assert np.array_equal(serial.makespans[key], same.makespans[key])


class TestEngineEquivalence:
    """The PR-2 acceptance gate: all three executors are byte-identical."""

    @pytest.mark.parametrize("engine", ENGINES)
    def test_scenario_executors_byte_identical(self, engine):
        serial = run_scenario(CONFIG, FAULT_SERIES, seed=11)
        with create_executor(engine, workers=2) as executor:
            fanned = run_scenario(
                CONFIG, FAULT_SERIES, seed=11, executor=executor
            )
        for key in serial.makespans:
            assert np.array_equal(serial.makespans[key], fanned.makespans[key])

    @pytest.mark.parametrize("figure", ["fig7", "fig10"])
    def test_figure_series_byte_identical_tiny(self, figure):
        """The three-executor identity pin (serial is the reference).

        Covers the full executor matrix: the persistent process pool
        and the broker-backed queue executor must both reproduce the
        serial figure series byte-for-byte.
        """
        reference = run_figure(figure, scale="tiny", seed=1, engine="serial")
        for executor in (
            PersistentPoolExecutor(workers=2),
            QueueExecutor(workers=2),
        ):
            with executor:
                result = run_figure(
                    figure, scale="tiny", seed=1, executor=executor
                )
            assert result.x_values == reference.x_values
            assert result.normalized == reference.normalized
            assert result.means == reference.means

    @pytest.mark.skipif(
        not os.environ.get("REPRO_SLOW_TESTS"),
        reason="small-scale sweeps take minutes; set REPRO_SLOW_TESTS=1",
    )
    @pytest.mark.parametrize("figure", ["fig7", "fig10"])
    def test_figure_series_byte_identical_small(self, figure):
        reference = run_figure(figure, scale="small", seed=1, engine="serial")
        for engine in ("persistent", "queue"):
            result = run_figure(
                figure, scale="small", seed=1, engine=engine, workers=2
            )
            assert result.x_values == reference.x_values
            assert result.normalized == reference.normalized
            assert result.means == reference.means

    def test_persistent_pool_amortised_across_sweep(self):
        with PersistentPoolExecutor(workers=2) as executor:
            run_figure("fig10", scale="tiny", seed=1, executor=executor)
            stats = executor.stats()
        assert stats.dispatches >= 3  # one per sweep point
        assert stats.pool_launches == 1
        assert stats.pool_reuses == stats.dispatches - 1

    def test_workload_cache_reused_on_identical_figures(self):
        # fig10 and fig13a are the same scenario sweep (p=1000, c=1):
        # a shared executor must reuse every workload on the second pass.
        with SerialExecutor() as executor:
            from repro.engine.cache import shared_cache

            shared_cache.clear()
            a = run_figure("fig10", scale="tiny", seed=1, executor=executor)
            built_after_first = executor.stats().workloads_built
            b = run_figure("fig13a", scale="tiny", seed=1, executor=executor)
            stats = executor.stats()
        assert a.normalized == b.normalized
        assert stats.workloads_built == built_after_first
        assert stats.workloads_reused >= built_after_first


class TestDecisionKernelFigures:
    """The reference leg on full figure series.

    ``FAULT_SERIES`` covers every redistribution policy, so one figure
    run pins all of them at once.  ``tests/test_figure_digests.py``
    anchors the default path of every figure; this class checks that
    the seed-literal reference still reproduces it.
    """

    @pytest.mark.parametrize("figure", ["fig7", "fig10"])
    def test_figure_series_bit_identical_tiny(self, figure):
        reference = run_figure(
            figure, scale="tiny", seed=1, simulator=ReferenceSimulator
        )
        assert figure_digest(reference) == TINY_DIGESTS[figure]

    @pytest.mark.skipif(
        not os.environ.get("REPRO_SLOW_TESTS"),
        reason="small-scale sweeps take minutes; set REPRO_SLOW_TESTS=1",
    )
    @pytest.mark.parametrize("figure", ["fig7", "fig10"])
    def test_figure_series_bit_identical_small(self, figure):
        reference = run_figure(
            figure, scale="small", seed=1, simulator=ReferenceSimulator
        )
        assert figure_digest(reference) == SMALL_DIGESTS[figure]

    def test_simulator_class_flows_through_engines(self):
        # The class rides inside the RunRequest payload, so pooled
        # workers honour it too.
        default = run_scenario(CONFIG, FAULT_SERIES, seed=11)
        with create_executor("persistent", workers=2) as executor:
            reference = run_scenario(
                CONFIG,
                FAULT_SERIES,
                seed=11,
                executor=executor,
                simulator=ReferenceSimulator,
            )
        for key in default.makespans:
            assert np.array_equal(
                default.makespans[key], reference.makespans[key]
            )


class TestStreamingEquivalence:
    """map_stream is map with progress: same pairs, any arrival order."""

    @pytest.mark.parametrize("engine", ENGINES)
    def test_streamed_scenario_byte_identical(self, engine):
        reference = run_scenario(CONFIG, FAULT_SERIES, seed=7)
        calls = []
        with create_executor(engine, workers=2) as executor:
            streamed = run_scenario(
                CONFIG,
                FAULT_SERIES,
                seed=7,
                executor=executor,
                progress=lambda done, total: calls.append((done, total)),
            )
        for key in reference.makespans:
            assert np.array_equal(
                reference.makespans[key], streamed.makespans[key]
            )
        assert calls[-1] == (CONFIG.replicates, CONFIG.replicates)
        assert [done for done, _ in calls] == sorted(
            done for done, _ in calls
        )

    def test_map_stream_chunks_cover_all_requests(self):
        from repro.experiments.runner import scenario_requests

        requests = scenario_requests(CONFIG, FAULT_SERIES, seed=3)
        with PersistentPoolExecutor(workers=2, chunk_size=2) as executor:
            seen = {}
            for start, results in executor.map_stream(requests):
                for offset, result in enumerate(results):
                    assert start + offset not in seen
                    seen[start + offset] = result
        assert sorted(seen) == list(range(len(requests)))

    def test_map_stream_empty_dispatch(self):
        with SerialExecutor() as executor:
            assert list(executor.map_stream([])) == []
        assert executor.stats().dispatches == 1

    def test_profile_counters_reported(self):
        with SerialExecutor() as executor:
            run_scenario(CONFIG, FAULT_SERIES, seed=5, executor=executor)
            stats = executor.stats()
        assert stats.profile_hits + stats.profile_misses > 0
        assert 0.0 <= stats.profile_hit_rate() <= 1.0
        info = stats.cache_info()
        assert info["profile_hits"] == stats.profile_hits
        assert "hit rate" in stats.describe_profiles()


class TestBatchedAccessors:
    def test_expected_times_matches_scalar(self):
        pack, cluster = _workload(0)
        model = ExpectedTimeModel(pack, cluster)
        targets = np.arange(2, 17, 2)
        batch = model.expected_times(1, targets, 0.7)
        scalar = [model.expected_time(1, int(j), 0.7) for j in targets]
        assert batch.tolist() == scalar

    def test_profile_batch_matches_profile(self):
        pack, cluster = _workload(1)
        model = ExpectedTimeModel(pack, cluster)
        indices = list(range(len(pack)))
        block = model.profile_batch(indices, 0.6)
        for pos, i in enumerate(indices):
            assert np.array_equal(block[pos], model.profile(i, 0.6))

    def test_profile_batch_uses_cache(self):
        pack, cluster = _workload(1)
        model = ExpectedTimeModel(pack, cluster)
        model.profile_batch([0, 1, 2], 0.9)
        before = counters.snapshot()
        model.profile_batch([0, 1, 2], 0.9)
        assert counters.since(before)["profile_misses"] == 0

    def test_quantised_key_absorbs_float_noise(self):
        pack, cluster = _workload(2)
        model = ExpectedTimeModel(pack, cluster)
        first = model.profile(0, 0.5)
        before = counters.snapshot()
        second = model.profile(0, 0.5 + 4e-13)  # within the 1e-12 quantum
        assert second is first
        assert counters.since(before)["profile_hits"] == 1

    def test_registry_counts_hits_and_misses(self):
        # The model keeps no counts of its own: its hits and misses land
        # in the process registry, which process_cache_snapshot reads.
        pack, cluster = _workload(2)
        model = ExpectedTimeModel(pack, cluster)
        before = counters.snapshot()
        model.profile(0, 1.0)
        model.profile(0, 1.0)
        model.profile_batch([0, 1], 1.0)
        counts = counters.since(before)
        assert (counts["profile_hits"], counts["profile_misses"]) == (2, 2)
        assert ExpectedTimeModel.process_cache_snapshot() == (
            before["profile_hits"] + 2, before["profile_misses"] + 2
        )
        assert not hasattr(model, "cache_info")

    def test_profile_batch_duplicate_indices(self, monkeypatch):
        monkeypatch.setattr(expected_time, "CACHE_SIZE", 2)
        pack, cluster = _workload(0)
        model = ExpectedTimeModel(pack, cluster)
        block = model.profile_batch([0, 0, 1, 0], 0.5)
        assert np.array_equal(block[0], block[1])
        assert np.array_equal(block[0], block[3])
        assert np.array_equal(block[0], model.profile(0, 0.5))
        assert np.array_equal(block[2], model.profile(1, 0.5))
        # Churn the tiny ring: duplicate stores must not corrupt eviction.
        for alpha in (0.1, 0.2, 0.3, 0.4):
            model.profile_batch([2, 2], alpha)
        assert len(model._inserted) <= 2

    def test_evicted_profile_stays_valid_for_holders(self, monkeypatch):
        monkeypatch.setattr(expected_time, "CACHE_SIZE", 2)
        pack, cluster = _workload(0)
        model = ExpectedTimeModel(pack, cluster)
        held = model.profile(0, 0.8)
        snapshot = held.copy()
        # Recycle the ring several times over while `held` is referenced.
        for k in range(10):
            model.profile(1, 0.05 + k * 0.05)
        assert np.array_equal(held, snapshot)
        # Fresh lookups after the churn are also still correct.
        assert np.array_equal(model.profile(0, 0.8), snapshot)

    def test_flat_cache_eviction_keeps_values_correct(self, monkeypatch):
        monkeypatch.setattr(expected_time, "CACHE_SIZE", 3)
        pack, cluster = _workload(0)
        model = ExpectedTimeModel(pack, cluster)
        expected = {a: model.profile(0, a).copy() for a in (0.2, 0.4, 0.6)}
        model.profile(0, 0.8)  # evicts alpha=0.2's row (FIFO)
        assert len(model.grid(0).envelopes) == 3
        for a, values in expected.items():
            assert np.array_equal(model.profile(0, a), values)


class TestRuntimeSlots:
    def test_task_runtime_has_no_dict(self):
        pack, _ = _workload(0)
        rt = TaskRuntime(pack[0])
        assert not hasattr(rt, "__dict__")
        with pytest.raises(AttributeError):
            rt.arbitrary_attribute = 1
