"""Property-based equivalence of the decision kernels and decision state.

The delta-patched :class:`~repro.core.kernels.DecisionCache` is a pure
optimisation: every observable output — simulations, heuristic
mutations, the kernel primitives themselves — must be bit-identical to
the scalar reference (:mod:`repro.oracle`) on any workload, platform and
fault draw — including, via a checking cache, that the patched matrix
equals the scalar helpers *at every decision point* of randomised event
sequences.  These tests pin that contract with randomised inputs.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import Cluster
from repro import counters, oracle
from repro.core import POLICIES, optimal_schedule
from repro.core.heuristics import EndLocal, ShortestTasksFirst, greedy_rebuild
from repro.core.kernels import DecisionCache
from repro.core.progress import remaining_from_arrays
from repro.core.redistribution import (
    redistribution_cost_matrix,
    redistribution_cost_vector,
)
from repro.core.state import TaskArrays, TaskRuntime
from repro.exceptions import ConfigurationError
from repro.oracle import (
    ReferenceSimulator,
    candidate_finish_time,
    candidate_finish_times,
    remaining_at,
)
from repro.resilience import ExpectedTimeModel
from repro.simulation import Simulator
from repro.tasks import uniform_pack


def build(seed, n, p, mtbf_years=0.002):
    pack = uniform_pack(n, m_inf=150.0, m_sup=260.0, seed=seed)
    cluster = Cluster.with_mtbf_years(p, mtbf_years)
    return pack, cluster, ExpectedTimeModel(pack, cluster)


def make_runtimes(model, p, t_offset=0.0):
    """Runtimes mid-execution: the Algorithm-1 start state, aged a bit."""
    sigma = optimal_schedule(model, p)
    runtimes = []
    for i, spec in enumerate(model.pack):
        rt = TaskRuntime(spec)
        rt.assign(sigma[i])
        rt.t_last = t_offset
        rt.t_expected = t_offset + model.expected_time(i, sigma[i], 1.0)
        runtimes.append(rt)
    return runtimes


def one_shot(model, runtimes):
    """A decision cache over a store gathered from ``runtimes``."""
    return DecisionCache(model, TaskArrays.gather(model, runtimes))


def snapshot(runtimes):
    return [
        (rt.sigma, rt.alpha, rt.t_last, rt.t_expected, rt.redistributions)
        for rt in runtimes
    ]


class TestSimulationsBitIdentical:
    """Full simulations agree on every policy, seed and fault draw."""

    @pytest.mark.parametrize("policy", sorted(POLICIES))
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        n=st.integers(min_value=2, max_value=6),
        extra_pairs=st.integers(min_value=0, max_value=6),
        mtbf_scale=st.sampled_from([0.0005, 0.002, 0.01]),
    )
    @settings(max_examples=8, deadline=None)
    def test_run_bit_identical(self, policy, seed, n, extra_pairs, mtbf_scale):
        p = 2 * n + 2 * extra_pairs
        pack, cluster, _ = build(seed, n, p, mtbf_scale)
        results = {}
        for reference in (False, True):
            model = ExpectedTimeModel(pack, cluster)
            simulator = ReferenceSimulator if reference else Simulator
            results[reference] = simulator(
                pack,
                cluster,
                policy,
                seed=seed,
                model=model,
            ).run()
        fast, ref = results[False], results[True]
        assert fast.makespan == ref.makespan
        assert np.array_equal(
            fast.completion_times, ref.completion_times, equal_nan=True
        )
        assert fast.initial_sigma == ref.initial_sigma
        assert fast.events == ref.events
        assert fast.redistributions == ref.redistributions
        assert fast.failures_effective == ref.failures_effective
        assert fast.failures_masked == ref.failures_masked

    def test_exercises_failures_and_redistributions(self):
        # Guard: the scenarios above must exercise real rebuilds,
        # otherwise the equivalence proves nothing about the kernels.
        pack, cluster, model = build(0, 5, 20, 0.0005)
        result = Simulator(
            pack, cluster, "ig-el", seed=0, model=model
        ).run()
        assert result.failures_effective > 0
        assert result.redistributions > 0

    def test_unknown_kernel_rejected(self):
        # The oracle module replaced the kernel-name knobs.
        pack, cluster, _ = build(0, 3, 8)
        with pytest.raises(TypeError):
            Simulator(pack, cluster, decision_kernel="scalar")
        with pytest.raises(TypeError):
            optimal_schedule(
                ExpectedTimeModel(pack, cluster), 8, kernel="scalar"
            )


class TestAlgorithmKernels:
    """The scheduling algorithms mutate identical state on both kernels."""

    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        n=st.integers(min_value=1, max_value=6),
        extra_pairs=st.integers(min_value=0, max_value=8),
    )
    @settings(max_examples=25, deadline=None)
    def test_optimal_schedule(self, seed, n, extra_pairs):
        p = 2 * n + 2 * extra_pairs
        _, _, model = build(seed, n, p)
        assert optimal_schedule(model, p) == oracle.optimal_schedule(
            model, p
        )

    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        n=st.integers(min_value=2, max_value=6),
        extra_pairs=st.integers(min_value=1, max_value=6),
        age=st.floats(min_value=0.05, max_value=0.9),
    )
    @settings(max_examples=20, deadline=None)
    def test_greedy_rebuild(self, seed, n, extra_pairs, age):
        p = 2 * n + 2 * extra_pairs
        states = {}
        for reference in (False, True):
            _, _, model = build(seed, n, p)
            runtimes = make_runtimes(model, p)
            t = age * min(rt.t_expected for rt in runtimes)
            rebuild = oracle.greedy_rebuild if reference else greedy_rebuild
            changed = rebuild(model, t, runtimes, p)
            states[reference] = (sorted(changed), snapshot(runtimes))
        assert states[False] == states[True]

    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        n=st.integers(min_value=2, max_value=6),
        extra_pairs=st.integers(min_value=1, max_value=6),
        free_pairs=st.integers(min_value=1, max_value=4),
        age=st.floats(min_value=0.05, max_value=0.9),
    )
    @settings(max_examples=20, deadline=None)
    def test_end_local(self, seed, n, extra_pairs, free_pairs, age):
        p = 2 * n + 2 * extra_pairs
        states = {}
        for reference in (False, True):
            heuristic = oracle.ReferenceEndLocal() if reference else EndLocal()
            _, _, model = build(seed, n, p)
            runtimes = make_runtimes(model, p)
            # The simulator invariant: the free pool is what the pack
            # does not hold — a larger count would probe past the grid.
            free = min(
                2 * free_pairs, p - sum(rt.sigma for rt in runtimes)
            )
            t = age * min(rt.t_expected for rt in runtimes)
            changed = heuristic.apply(model, t, runtimes, free)
            states[reference] = (sorted(changed), snapshot(runtimes))
        assert states[False] == states[True]

    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        n=st.integers(min_value=2, max_value=6),
        extra_pairs=st.integers(min_value=1, max_value=6),
        free_pairs=st.integers(min_value=0, max_value=4),
        age=st.floats(min_value=0.05, max_value=0.9),
        faulty_pos=st.integers(min_value=0, max_value=5),
    )
    @settings(max_examples=20, deadline=None)
    def test_shortest_tasks_first(
        self, seed, n, extra_pairs, free_pairs, age, faulty_pos
    ):
        p = 2 * n + 2 * extra_pairs
        faulty = faulty_pos % n
        states = {}
        for reference in (False, True):
            heuristic = (
                oracle.ReferenceShortestTasksFirst() if reference
                else ShortestTasksFirst()
            )
            _, _, model = build(seed, n, p)
            runtimes = make_runtimes(model, p)
            t = age * min(rt.t_expected for rt in runtimes)
            rt_f = runtimes[faulty]
            # Mimic the skeleton's rollback (Alg. 2 lines 23-26).
            rt_f.t_last = t + model.restart_overhead(faulty, rt_f.sigma)
            rt_f.t_expected = rt_f.t_last + model.expected_time(
                faulty, rt_f.sigma, rt_f.alpha
            )
            changed = heuristic.apply(
                model, t, runtimes, 2 * free_pairs, faulty
            )
            states[reference] = (sorted(changed), snapshot(runtimes))
        assert states[False] == states[True]


class _CheckingCache(DecisionCache):
    """A cache that proves every served matrix against the scalar helpers.

    At each decision point every row of the delta-patched matrix (lazy
    rows forced through their on-demand patch path) must be
    bit-identical to :func:`candidate_finish_times` at the scalar
    decision inputs, and every keep-running finish to
    ``t_last + expected_time(i, sigma, alpha)``.
    """

    def __init__(self, model, arrays):
        super().__init__(model, arrays)
        self.checked = 0

    def matrix(self, t, tasks, faulty=None, *, with_keep=False, lazy=False):
        dm = super().matrix(
            t, tasks, faulty, with_keep=with_keep, lazy=lazy
        )
        model = self.model
        j_max = int(model.j_grid[-1])
        targets = np.arange(2, j_max + 1, 2, dtype=int)
        for rt in tasks:
            i = rt.index
            if i == faulty:
                alpha_t, stall = rt.alpha, rt.t_last - t
            else:
                alpha_t, stall = remaining_at(model, rt, t), 0.0
            assert dm.alpha_of(i) == alpha_t
            assert dm.stall_of(i) == stall
            assert dm.init_of(i) == rt.sigma
            # finish_range patches lazy rows through the cache's
            # on-demand path, so both patch paths are exercised.
            assert np.array_equal(
                dm.finish_range(i, 2, j_max),
                candidate_finish_times(
                    model, i, rt.sigma, alpha_t, t, stall, targets
                ),
            )
            if with_keep:
                assert dm.keep[i] == rt.t_last + model.expected_time(
                    i, rt.sigma, rt.alpha
                )
        self.checked += 1
        return dm


class _CheckingSimulator(Simulator):
    """Simulator whose decision cache self-verifies at every event."""

    def _make_decision_cache(self):
        self.checking_cache = _CheckingCache(self.model, self.arrays)
        return self.checking_cache


class TestDecisionStateBitIdentical:
    """The delta-patched decision state equals the scalar reference."""

    @pytest.mark.parametrize("policy", sorted(POLICIES))
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        n=st.integers(min_value=2, max_value=6),
        extra_pairs=st.integers(min_value=0, max_value=6),
        mtbf_scale=st.sampled_from([0.0005, 0.002]),
    )
    @settings(max_examples=8, deadline=None)
    def test_patched_matrix_equals_fresh_build_every_event(
        self, policy, seed, n, extra_pairs, mtbf_scale
    ):
        """Randomised event sequences, checked at every decision point."""
        p = 2 * n + 2 * extra_pairs
        pack, cluster, _ = build(seed, n, p, mtbf_scale)
        inc = _CheckingSimulator(
            pack, cluster, policy, seed=seed,
            model=ExpectedTimeModel(pack, cluster),
        ).run()
        ref = ReferenceSimulator(
            pack, cluster, policy, seed=seed,
            model=ExpectedTimeModel(pack, cluster),
        ).run()
        assert inc.makespan == ref.makespan
        assert np.array_equal(
            inc.completion_times, ref.completion_times, equal_nan=True
        )
        assert inc.initial_sigma == ref.initial_sigma
        assert inc.events == ref.events
        assert inc.redistributions == ref.redistributions
        assert inc.failures_effective == ref.failures_effective

    def test_checking_cache_exercises_decisions(self):
        # Guard: the scenarios above must serve (and verify) real
        # delta-patched matrices, otherwise the property proves nothing.
        pack, cluster, _ = build(0, 5, 20, 0.0005)
        sim = _CheckingSimulator(
            pack, cluster, "ig-el", seed=0,
            model=ExpectedTimeModel(pack, cluster),
        )
        before = counters.snapshot()
        result = sim.run()
        assert result.failures_effective > 0
        assert sim.checking_cache.checked > 0
        assert counters.since(before)["decision_rows_reused"] > 0

    def test_unknown_decision_state_rejected(self):
        # The fresh-build middle mode is gone: the knob no longer exists.
        pack, cluster, _ = build(0, 3, 8)
        with pytest.raises(TypeError):
            Simulator(pack, cluster, decision_state="rebuild")
        import repro.core.kernels as kernels

        assert not hasattr(kernels, "decision_matrix")
        assert not hasattr(kernels, "DECISION_STATES")

    def test_scalar_kernel_never_caches(self):
        pack, cluster, _ = build(0, 3, 10)
        sim = ReferenceSimulator(
            pack, cluster, "ig-el", seed=0,
            model=ExpectedTimeModel(pack, cluster),
        )
        sim.run()
        assert sim._cache is None

    def test_registry_counts(self):
        pack, cluster, _ = build(0, 5, 20, 0.0005)
        sim = _CheckingSimulator(
            pack, cluster, "ig-el", seed=0,
            model=ExpectedTimeModel(pack, cluster),
        )
        before = counters.snapshot()
        sim.run()
        counts = counters.since(before)
        patched = counts["decision_rows_patched"]
        reused = counts["decision_rows_reused"]
        assert patched > 0
        assert reused > 0
        assert counts["decision_scratch_allocs"] > 0
        # Only decision work moved: no workload cache, no retries.
        assert counts["workloads_built"] == counts["retries"] == 0

    def test_cache_reads_the_simulator_store_in_place(self):
        """The run's cache keeps no copy of the per-task bookkeeping."""
        pack, cluster, _ = build(0, 5, 20, 0.0005)
        sim = _CheckingSimulator(
            pack, cluster, "ig-el", seed=0,
            model=ExpectedTimeModel(pack, cluster),
        )
        sim.start()
        while sim.step() is not None and not hasattr(sim, "checking_cache"):
            pass
        cache = sim.checking_cache
        arrays = sim.arrays
        assert cache.arrays is arrays
        runtimes = [rt for rt in sim.runtimes if not rt.completed]
        dm = cache.matrix(sim.now, runtimes)
        assert dm.j_init is arrays.sigma
        store = [getattr(arrays, name) for name in TaskArrays.__slots__]
        own = [v for v in vars(cache).values() if isinstance(v, np.ndarray)]
        # No array of the cache aliases the store or is a second copy of
        # one of its fields.
        for value in own:
            assert not any(np.shares_memory(value, field) for field in store)
        for name in ("_sigma", "_alpha", "_t_last", "_t_expected",
                     "_tff_s", "_tau_s", "_cost_s", "_dirty", "budget"):
            assert not hasattr(cache, name)

    def test_direct_cache_reuse_across_same_t_decisions(self):
        """Consecutive decisions at one t reuse clean rows verbatim."""
        _, _, model = build(3, 4, 16)
        runtimes = make_runtimes(model, 16)
        t = 0.3 * min(rt.t_expected for rt in runtimes)
        cache = one_shot(model, runtimes)
        before = counters.snapshot()
        first = cache.matrix(t, runtimes)
        baseline = first.finishes[[rt.index for rt in runtimes]].copy()
        patched_once = counters.since(before)["decision_rows_patched"]
        assert patched_once == len(runtimes)  # a fresh cache: all rows
        again = cache.matrix(t, runtimes)
        # nothing re-patched
        assert counters.since(before)["decision_rows_patched"] == patched_once
        assert np.array_equal(
            again.finishes[[rt.index for rt in runtimes]], baseline
        )
        # Touching one task re-patches exactly that row.
        rt0 = runtimes[0]
        rt0.alpha *= 0.5
        cache.arrays.write(model, rt0)
        cache.invalidate(rt0.index)
        third = cache.matrix(t, runtimes)
        patched = counters.since(before)["decision_rows_patched"]
        assert patched == patched_once + 1
        fresh = one_shot(model, runtimes).matrix(t, runtimes)
        for rt in runtimes:
            assert np.array_equal(
                third.finishes[rt.index], fresh.finishes[rt.index]
            )


class TestProfileRowsInto:
    """The row-level profile re-evaluation API behind the cache."""

    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        n=st.integers(min_value=1, max_value=6),
    )
    @settings(max_examples=20, deadline=None)
    def test_matches_profile(self, seed, n):
        _, _, model = build(seed, n, 4 * n)
        rng = np.random.default_rng(seed)
        indices = list(range(n))
        alphas = rng.uniform(0.0, 1.0, size=n)
        out = np.empty((n, model.j_grid.size))
        model.profile_rows_into(indices, alphas, out)
        for row, i in enumerate(indices):
            assert np.array_equal(out[row], model.profile(i, alphas[row]))

    def test_duplicates_zero_alpha_and_validation(self):
        _, _, model = build(2, 3, 12)
        out = np.empty((3, model.j_grid.size))
        model.profile_rows_into([0, 0, 1], [0.5, 0.5, 0.0], out)
        assert np.array_equal(out[0], out[1])
        assert np.array_equal(out[2], np.zeros(model.j_grid.size))
        with pytest.raises(ConfigurationError):
            model.profile_rows_into([0, 1], [0.5], out)
        with pytest.raises(ConfigurationError):
            model.profile_rows_into([0], [1.5], out)
        with pytest.raises(ConfigurationError):
            model.profile_rows_into(
                [0], [0.5], np.empty((0, model.j_grid.size))
            )


class TestKernelPrimitives:
    """The batched building blocks match their scalar counterparts."""

    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        age=st.floats(min_value=0.0, max_value=1.5),
    )
    @settings(max_examples=20, deadline=None)
    def test_remaining_at_batch(self, seed, age):
        _, _, model = build(seed, 5, 20)
        runtimes = make_runtimes(model, 20)
        t = age * min(rt.t_expected for rt in runtimes)
        grids = [model.grid(rt.index) for rt in runtimes]
        slots = [g.slot(rt.sigma) for g, rt in zip(grids, runtimes)]
        batch = remaining_from_arrays(
            np.array([rt.alpha for rt in runtimes]),
            np.array([rt.t_last for rt in runtimes]),
            np.array([g.t_ff[s] for g, s in zip(grids, slots)]),
            np.array([g.tau[s] for g, s in zip(grids, slots)]),
            np.array([g.cost[s] for g, s in zip(grids, slots)]),
            t,
        )
        for row, rt in enumerate(runtimes):
            assert batch[row] == remaining_at(model, rt, t)

    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        n=st.integers(min_value=1, max_value=6),
    )
    @settings(max_examples=20, deadline=None)
    def test_profile_matrix_matches_profile(self, seed, n):
        _, _, model = build(seed, n, 4 * n)
        rng = np.random.default_rng(seed)
        indices = list(range(n))
        alphas = rng.uniform(0.0, 1.0, size=n)
        block = model.profile_matrix(indices, alphas)
        for row, i in enumerate(indices):
            assert np.array_equal(block[row], model.profile(i, alphas[row]))

    def test_profile_matrix_duplicates_and_validation(self):
        _, _, model = build(1, 3, 12)
        block = model.profile_matrix([0, 0, 1], [0.5, 0.5, 0.25])
        assert np.array_equal(block[0], block[1])
        with pytest.raises(ConfigurationError):
            model.profile_matrix([0, 1], [0.5])
        with pytest.raises(ConfigurationError):
            model.profile_matrix([0], [1.5])

    @given(
        m=st.floats(min_value=1.0, max_value=1e6),
        j=st.integers(min_value=1, max_value=64).map(lambda v: 2 * v),
        width=st.integers(min_value=1, max_value=64),
    )
    @settings(max_examples=30, deadline=None)
    def test_redistribution_cost_matrix(self, m, j, width):
        k = np.arange(2, 2 * width + 1, 2)
        matrix = redistribution_cost_matrix(
            np.array([m, 2 * m]), np.array([j, j]), k
        )
        vector = redistribution_cost_vector(m, j, k)
        assert np.array_equal(matrix[0], vector)
        assert np.array_equal(
            matrix[1], redistribution_cost_vector(2 * m, j, k)
        )

    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        age=st.floats(min_value=0.05, max_value=0.9),
        lazy=st.booleans(),
    )
    @settings(max_examples=20, deadline=None)
    def test_decision_matrix_matches_scalar_helpers(self, seed, age, lazy):
        n, p = 5, 24
        _, _, model = build(seed, n, p)
        runtimes = make_runtimes(model, p)
        t = age * min(rt.t_expected for rt in runtimes)
        dm = one_shot(model, runtimes).matrix(t, runtimes, lazy=lazy)
        j_max = int(model.j_grid[-1])
        for rt in runtimes:
            i = rt.index
            alpha_t = remaining_at(model, rt, t)
            assert dm.alpha_of(i) == alpha_t
            targets = np.arange(2, j_max + 1, 2, dtype=int)
            expected = candidate_finish_times(
                model, i, rt.sigma, alpha_t, t, 0.0, targets
            )
            assert np.array_equal(dm.finish_range(i, 2, j_max), expected)
            k = int(targets[len(targets) // 2])
            assert dm.finish(i, k) == candidate_finish_time(
                model, i, rt.sigma, alpha_t, t, 0.0, k
            )

    def test_decision_matrix_keep_column(self):
        n, p = 4, 16
        _, _, model = build(3, n, p)
        runtimes = make_runtimes(model, p)
        t = 0.25 * min(rt.t_expected for rt in runtimes)
        cache = one_shot(model, runtimes)
        dm = cache.matrix(t, runtimes, with_keep=True)
        vals, sufrev, width = cache.rebuild_block(dm)
        for pos, rt in enumerate(runtimes):
            i = rt.index
            keep = rt.t_last + model.expected_time(i, rt.sigma, rt.alpha)
            assert dm.keep[i] == keep
            # The Algorithm-5 block patches the keep-running candidate
            # in at the current slot and leaves every other slot alone.
            slot = rt.sigma // 2 - 1
            assert vals[pos, slot] == keep
            others = np.arange(width) != slot
            assert np.array_equal(
                vals[pos, others], dm.finishes[i, others]
            )
            assert sufrev[pos, 0] == vals[pos, -1]
            assert sufrev[pos, -1] == vals[pos].min()

    def test_out_of_grid_candidates_rejected(self):
        from repro.exceptions import SimulationError

        _, _, model = build(0, 3, 12)
        runtimes = make_runtimes(model, 12)
        dm = one_shot(model, runtimes).matrix(1.0, runtimes)
        j_max = int(model.j_grid[-1])
        with pytest.raises(SimulationError):
            dm.finish(runtimes[0].index, j_max + 2)
        with pytest.raises(SimulationError):
            dm.finish_range(runtimes[0].index, 2, j_max + 2)
        assert dm.finish_range(runtimes[0].index, 6, 4).size == 0

    def test_expected_makespan_batched(self):
        from repro.core import expected_makespan

        _, _, model = build(2, 4, 16)
        sigma = optimal_schedule(model, 16)
        scalar = max(
            model.expected_time(i, j, 1.0) for i, j in sigma.items()
        )
        assert expected_makespan(model, sigma) == scalar
        assert math.isfinite(scalar)
