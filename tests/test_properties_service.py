"""Property-based tests of the rolling-horizon service.

Five properties over random arrival scenarios:

* the re-pack never allocates more than ``p`` processors, and every
  allocation is an even count >= 2 (the paper's buddy-pair platform);
* a single arrival at ``t = 0`` collapses the online engine to the
  batch :class:`~repro.simulation.Simulator` — completion time,
  redistribution count and failure count all agree exactly (the online
  layer adds *nothing* when there is nothing online about the run);
* replaying the same trace twice is bit-identical (the engine holds no
  hidden wall-clock or global state);
* the engine's columnar epoch log reads back, by every read form,
  records of the canonical keys and types that survive the JSON framing;
* every envelope row an epoch's model serves — carried across epochs
  on the running jobs' grids or freshly evaluated — equals the row a
  cold :class:`repro.oracle.ReferenceModel` computes for the same pack.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Cluster, Simulator
from repro.oracle import ReferenceModel
from repro.resilience.expected_time import ExpectedTimeModel
from repro.service import (
    ReplayConfig,
    canonical_bytes,
    generate_trace,
    replay_reference,
)
from repro.service import horizon
from repro.service.replay import replay_engine
from repro.tasks import Pack, TaskSpec

from test_epoch_log import assert_log_reads_agree


@given(
    trace_seed=st.integers(0, 50_000),
    engine_seed=st.integers(0, 50_000),
    n_jobs=st.integers(1, 8),
    pairs=st.integers(2, 10),
    mean_gap=st.sampled_from([1_000.0, 5_000.0, 40_000.0]),
    mtbf_years=st.sampled_from([0.02, 0.1, 10.0]),
    cancel_every=st.sampled_from([0, 3]),
)
@settings(max_examples=40, deadline=None)
def test_repack_never_exceeds_platform_capacity(
    trace_seed, engine_seed, n_jobs, pairs, mean_gap, mtbf_years, cancel_every
):
    p = 2 * pairs
    config = ReplayConfig(
        processors=p, mtbf_years=mtbf_years, seed=engine_seed
    )
    trace = generate_trace(
        trace_seed,
        n_jobs=n_jobs,
        mean_gap=mean_gap,
        m_inf=2_000.0,
        m_sup=9_000.0,
        cancel_every=cancel_every,
    )
    result = replay_reference(trace, config)
    for epoch in result.epochs:
        sigma = epoch["sigma"]
        assert sum(sigma.values()) <= p
        for count in sigma.values():
            assert count >= 2 and count % 2 == 0
    # job conservation: everything submitted terminates
    statuses = [job["status"] for job in result.jobs.values()]
    assert len(statuses) == n_jobs
    assert all(s in ("completed", "cancelled") for s in statuses)


@given(
    trace_seed=st.integers(0, 50_000),
    engine_seed=st.integers(0, 50_000),
    n_jobs=st.integers(1, 8),
    pairs=st.integers(2, 10),
    mean_gap=st.sampled_from([1_000.0, 5_000.0, 40_000.0]),
    mtbf_years=st.sampled_from([0.02, 0.1, 10.0]),
    cancel_every=st.sampled_from([0, 3]),
)
@settings(max_examples=40, deadline=None)
def test_epoch_log_reads_agree_and_keep_the_record_types(
    trace_seed, engine_seed, n_jobs, pairs, mean_gap, mtbf_years, cancel_every
):
    config = ReplayConfig(
        processors=2 * pairs, mtbf_years=mtbf_years, seed=engine_seed
    )
    trace = generate_trace(
        trace_seed,
        n_jobs=n_jobs,
        mean_gap=mean_gap,
        m_inf=2_000.0,
        m_sup=9_000.0,
        cancel_every=cancel_every,
    )
    engine = replay_engine(trace, config)
    records = assert_log_reads_agree(engine)
    assert len(records) == engine.counters.epochs >= 1


@given(
    seed=st.integers(0, 50_000),
    size=st.floats(2_000.0, 20_000.0),
    pairs=st.integers(1, 8),
    mtbf_years=st.sampled_from([0.02, 0.5, 100.0]),
)
@settings(max_examples=40, deadline=None)
def test_single_arrival_at_zero_equals_batch_run(
    seed, size, pairs, mtbf_years
):
    p = 2 * pairs
    config = ReplayConfig(processors=p, mtbf_years=mtbf_years, seed=seed)
    trace = generate_trace(seed, n_jobs=1, m_inf=size, m_sup=size)
    online = replay_reference(trace, config)
    (job,) = online.jobs.values()

    pack = Pack([
        TaskSpec(
            index=0,
            size=job["size"],
            checkpoint_cost=job["checkpoint_cost"],
        )
    ])
    cluster = Cluster.with_mtbf_years(p, mtbf_years)
    batch = Simulator(pack, cluster, config.policy, seed=seed).run()

    assert job["status"] == "completed"
    assert job["completion_time"] == batch.makespan
    assert online.makespan == batch.makespan
    assert job["redistributions"] == batch.redistributions
    assert online.counters["failures_effective"] == batch.failures_effective


@given(
    trace_seed=st.integers(0, 50_000),
    engine_seed=st.integers(0, 50_000),
    n_jobs=st.integers(1, 6),
    mtbf_years=st.sampled_from([0.05, 1.0]),
)
@settings(max_examples=25, deadline=None)
def test_replaying_a_trace_twice_is_bit_identical(
    trace_seed, engine_seed, n_jobs, mtbf_years
):
    config = ReplayConfig(
        processors=12, mtbf_years=mtbf_years, seed=engine_seed
    )
    trace = generate_trace(
        trace_seed, n_jobs=n_jobs, mean_gap=4_000.0, cancel_every=2
    )
    first = canonical_bytes(replay_reference(trace, config))
    second = canonical_bytes(replay_reference(trace, config))
    assert first == second


class _Served(ExpectedTimeModel):
    """Records every envelope row the engine's models serve."""

    served: list = []

    def profile(self, i, alpha=1.0):
        row = super().profile(i, alpha)
        self.served.append((self, i, float(alpha), row.tobytes()))
        return row

    def profile_matrix(self, indices, alphas):
        block = super().profile_matrix(indices, alphas)
        for r, (i, alpha) in enumerate(zip(indices, alphas)):
            self.served.append((self, i, float(alpha), block[r].tobytes()))
        return block


@given(
    trace_seed=st.integers(0, 50_000),
    engine_seed=st.integers(0, 50_000),
    n_jobs=st.integers(2, 10),
    pairs=st.integers(2, 8),
    mean_gap=st.sampled_from([1_000.0, 5_000.0]),
    mtbf_years=st.sampled_from([0.02, 0.5]),
)
@settings(max_examples=25, deadline=None)
def test_served_envelope_rows_equal_a_cold_reference_model(
    trace_seed, engine_seed, n_jobs, pairs, mean_gap, mtbf_years
):
    config = ReplayConfig(
        processors=2 * pairs, mtbf_years=mtbf_years, seed=engine_seed
    )
    trace = generate_trace(
        trace_seed, n_jobs=n_jobs, mean_gap=mean_gap, cancel_every=3
    )
    _Served.served = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(horizon, "ExpectedTimeModel", _Served)
        replay_reference(trace, config)
    assert _Served.served
    cold = {}
    for model, i, alpha, row in _Served.served:
        if model not in cold:
            cold[model] = ReferenceModel(model.pack, model.cluster)
        assert cold[model].profile(i, alpha).tobytes() == row
    # Rows left in the stores (what later epochs would be served) too.
    for model, reference in cold.items():
        for i in range(len(model.pack)):
            for key, row in model.grid(i).envelopes.items():
                expected = reference.profile(i, key / 1e12)
                assert expected.tobytes() == row.tobytes()
