"""Unit tests of the unified execution engine (repro.engine)."""

from __future__ import annotations

import pytest

from repro.engine import (
    ENGINES,
    EngineStats,
    PersistentPoolExecutor,
    RunRequest,
    SerialExecutor,
    WorkloadCache,
    create_executor,
    default_chunk_size,
    execute_request,
)
from repro.exceptions import ConfigurationError


def _square(base, *, seed):
    """Module-level runner: deterministic in (payload, seed)."""
    return base + seed * seed


def _cached_build(key, *, seed):
    from repro.engine.cache import shared_cache

    return shared_cache.get_or_build(("test-engine", key), lambda: key * 10)


def _requests(count, base=100):
    return [
        RunRequest(fn=_square, payload=(base,), seed=s, tag=s)
        for s in range(count)
    ]


class TestRunRequest:
    def test_execute_request(self):
        request = RunRequest(fn=_square, payload=(5,), seed=3)
        assert execute_request(request) == 14

    def test_rejects_non_callable(self):
        with pytest.raises(ConfigurationError):
            RunRequest(fn="nope", payload=())

    def test_rejects_lambda(self):
        with pytest.raises(ConfigurationError, match="module-level"):
            RunRequest(fn=lambda *, seed: seed)

    def test_rejects_non_tuple_payload(self):
        with pytest.raises(ConfigurationError, match="tuple"):
            RunRequest(fn=_square, payload=[1])


class TestWorkloadCache:
    def test_hit_and_miss_counters(self):
        cache = WorkloadCache(capacity=4)
        assert cache.get_or_build("a", lambda: 1) == 1
        assert cache.get_or_build("a", lambda: 2) == 1  # cached value wins
        info = cache.cache_info()
        assert info["hits"] == 1 and info["misses"] == 1
        assert info["hit_rate"] == 0.5

    def test_lru_eviction(self):
        cache = WorkloadCache(capacity=2)
        for key in ("a", "b", "c"):
            cache.get_or_build(key, lambda k=key: k)
        assert cache.cache_info()["entries"] == 2
        # "a" was evicted: rebuilding it is a miss
        misses = cache.misses
        cache.get_or_build("a", lambda: "a2")
        assert cache.misses == misses + 1

    def test_lru_refreshes_on_hit(self):
        cache = WorkloadCache(capacity=2)
        cache.get_or_build("a", lambda: 1)
        cache.get_or_build("b", lambda: 2)
        cache.get_or_build("a", lambda: 0)  # refresh "a" -> "b" is now LRU
        cache.get_or_build("c", lambda: 3)  # evicts "b", not "a"
        hits = cache.hits
        cache.get_or_build("a", lambda: 0)
        assert cache.hits == hits + 1
        misses = cache.misses
        cache.get_or_build("b", lambda: 2)
        assert cache.misses == misses + 1

    def test_rejects_bad_capacity(self):
        with pytest.raises(ConfigurationError):
            WorkloadCache(capacity=0)

    def test_clear_resets(self):
        cache = WorkloadCache()
        cache.get_or_build("a", lambda: 1)
        cache.clear()
        assert cache.cache_info() == {
            "hits": 0, "misses": 0, "entries": 0,
            "capacity": cache.capacity, "hit_rate": 0.0,
        }


class TestExecutors:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_results_in_request_order(self, engine):
        expected = [execute_request(r) for r in _requests(9)]
        with create_executor(engine, workers=2) as executor:
            assert executor.map(_requests(9)) == expected

    @pytest.mark.parametrize("engine", ENGINES)
    def test_empty_map(self, engine):
        with create_executor(engine, workers=2) as executor:
            assert executor.map([]) == []
            assert executor.stats().dispatches == 1

    def test_chunk_size_does_not_change_results(self):
        expected = [execute_request(r) for r in _requests(7)]
        for chunk_size in (1, 2, 7):
            with PersistentPoolExecutor(
                workers=2, chunk_size=chunk_size
            ) as executor:
                assert executor.map(_requests(7)) == expected

    def test_persistent_pool_reused_across_dispatches(self):
        with PersistentPoolExecutor(workers=2) as executor:
            for _ in range(3):
                executor.map(_requests(4))
            stats = executor.stats()
        assert stats.pool_launches == 1
        assert stats.pool_reuses == 2
        assert stats.tasks_submitted == 12
        assert stats.dispatches == 3

    def test_single_chunk_skips_the_pool(self):
        with PersistentPoolExecutor(workers=2, chunk_size=16) as executor:
            executor.map(_requests(4))
            assert executor.stats().pool_launches == 0

    def test_workers_one_runs_inline(self):
        with PersistentPoolExecutor(workers=1) as executor:
            assert executor.map(_requests(3)) == [
                execute_request(r) for r in _requests(3)
            ]
            assert executor.stats().pool_launches == 0

    def test_serial_counts_workload_reuse(self):
        requests = [
            RunRequest(fn=_cached_build, payload=(37,), seed=s, tag=s)
            for s in range(4)
        ]
        with SerialExecutor() as executor:
            assert executor.map(requests) == [370] * 4
            stats = executor.stats()
        assert stats.workloads_built >= 1
        assert stats.workloads_built + stats.workloads_reused == 4

    def test_rejects_bad_workers(self):
        with pytest.raises(ConfigurationError):
            PersistentPoolExecutor(workers=0)

    def test_rejects_non_request(self):
        with SerialExecutor() as executor:
            with pytest.raises(ConfigurationError):
                executor.map(["not a request"])

    def test_stats_describe_mentions_counters(self):
        text = EngineStats(tasks_submitted=3).describe()
        assert "tasks submitted: 3" in text
        assert "reused workloads" in text
        assert "pool reuse count" in text


class TestFactory:
    def test_create_executor_engine_defaults(self):
        assert create_executor().name == "serial"
        assert create_executor(None, workers=1).name == "serial"
        with create_executor(None, workers=4) as pooled:
            assert pooled.name == "persistent"
        with create_executor("persistent", workers=1) as explicit:
            assert explicit.name == "persistent"

    def test_ensure_executor_owns_and_closes(self):
        from repro.engine import ensure_executor

        with ensure_executor(engine="persistent", workers=2) as executor:
            assert executor.name == "persistent"
            executor.map(_requests(4))
            pool = executor._pool
            assert pool is not None
        assert executor._pool is None  # closed on exit

    def test_ensure_executor_leaves_callers_open(self):
        from repro.engine import ensure_executor

        own = PersistentPoolExecutor(workers=2)
        with ensure_executor(own, engine="serial") as executor:
            assert executor is own
            executor.map(_requests(2))
        assert own._pool is not None  # NOT closed: the caller owns it
        own.close()

    def test_create_executor_names(self):
        for engine in ENGINES:
            executor = create_executor(engine, workers=2)
            assert executor.name == engine
            executor.close()

    def test_unknown_engine_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown engine"):
            create_executor("warp-drive")

    def test_default_chunk_size(self):
        assert default_chunk_size(50, 4) == 4  # ~4 chunks per worker
        assert default_chunk_size(1, 8) == 1
        assert default_chunk_size(0, 2) == 1
