"""The arrival-replay pin: service stack vs offline re-simulation.

The service acceptance gate from the roadmap: a seeded arrival trace
driven through the live stack (virtual clock, session, in-process
transport seam with full JSON round-trips) must produce epoch-by-epoch
decisions *byte-identical* to feeding the same trace straight into a
fresh :class:`~repro.service.OnlineEngine`.  On top of the identity,
structural invariants of the rolling horizon (allocation capacity,
trigger accounting, job conservation) and the online theory hook
(:func:`repro.theory.online.replay_competitive_ratio`).
"""

from __future__ import annotations

import hashlib

import pytest

from repro.exceptions import ConfigurationError
from repro.service import (
    ReplayConfig,
    TraceEvent,
    canonical_bytes,
    generate_trace,
    replay_reference,
    replay_service,
)
from repro.theory.online import replay_competitive_ratio

#: The pinned scenario: overlapping arrivals (gap << job length), short
#: MTBF so failure epochs land mid-trace, cancels of running jobs.
PINNED_CONFIG = ReplayConfig(processors=16, mtbf_years=0.05, seed=11)
PINNED_TRACE = dict(n_jobs=10, mean_gap=3_000.0, cancel_every=4)


def pinned_trace():
    return generate_trace(5, **PINNED_TRACE)


class TestArrivalReplayPin:
    def test_service_stack_is_byte_identical_to_reference(self):
        trace = pinned_trace()
        reference = replay_reference(trace, PINNED_CONFIG)
        served, responses = replay_service(trace, PINNED_CONFIG)
        assert canonical_bytes(reference) == canonical_bytes(served)
        # one wire response per trace event plus the closing drain
        assert len(responses) == len(trace) + 1
        assert responses[-1]["lost"] == []

    def test_replaying_twice_is_bit_identical(self):
        trace = pinned_trace()
        first = canonical_bytes(replay_reference(trace, PINNED_CONFIG))
        second = canonical_bytes(replay_reference(trace, PINNED_CONFIG))
        assert first == second

    def test_epochs_respect_platform_capacity(self):
        result = replay_reference(pinned_trace(), PINNED_CONFIG)
        assert len(result.epochs) >= PINNED_TRACE["n_jobs"]
        for epoch in result.epochs:
            sigma = epoch["sigma"]
            assert sum(sigma.values()) <= PINNED_CONFIG.processors
            for count in sigma.values():
                assert count >= 2 and count % 2 == 0

    def test_every_job_is_accounted_exactly_once(self):
        trace = pinned_trace()
        result = replay_reference(trace, PINNED_CONFIG)
        submitted = [e.job_id for e in trace if e.kind == "submit"]
        assert sorted(result.jobs) == sorted(submitted)
        statuses = [job["status"] for job in result.jobs.values()]
        assert statuses.count("completed") + statuses.count("cancelled") == (
            len(submitted)
        )
        completions = [
            job["completion_time"]
            for job in result.jobs.values()
            if job["status"] == "completed"
        ]
        assert result.makespan == max(completions)

    def test_cancels_actually_fire(self):
        result = replay_reference(pinned_trace(), PINNED_CONFIG)
        assert result.counters["cancellations"] >= 1
        assert any(
            job["status"] == "cancelled" for job in result.jobs.values()
        )

    def test_failure_epochs_land_inside_the_trace(self):
        # MTBF 0.05y on 16 processors over ~150k simulated seconds:
        # the shared fault injector must have fired.
        result = replay_reference(pinned_trace(), PINNED_CONFIG)
        assert result.counters["failures_effective"] >= 1

    def test_competitive_ratio_hook(self):
        trace = pinned_trace()
        result = replay_reference(trace, PINNED_CONFIG)
        report = replay_competitive_ratio(trace, result, PINNED_CONFIG)
        assert report["ratio"] >= 1.0
        assert report["lower_bound"] == pytest.approx(
            max(report["area_bound"], report["critical_path_bound"])
        )
        # only completed jobs enter the bound (two of ten are cancelled)
        assert report["jobs"] == 8.0

    def test_fault_free_replay_also_pins(self):
        config = ReplayConfig(
            processors=16, mtbf_years=10.0, seed=3, inject_faults=False
        )
        trace = generate_trace(9, n_jobs=6, mean_gap=5_000.0)
        reference = replay_reference(trace, config)
        served, _ = replay_service(trace, config)
        assert canonical_bytes(reference) == canonical_bytes(served)
        assert reference.counters["failures_effective"] == 0


#: A mid-size replay in the benchmark's high-throughput regime: 40
#: processors, MTBF 0.5 y, every 5th job cancelled 5000 s after arrival.
MIDSIZE_CONFIG = ReplayConfig(processors=40, mtbf_years=0.5, seed=3)
MIDSIZE_TRACE = dict(
    n_jobs=200, mean_gap=8_000.0, m_inf=6_000.0, m_sup=10_000.0,
    cancel_every=5,
)
MIDSIZE_SHA256 = (
    "5d0fd0cd128b934345e4216ef2ab4ddba61c5112b9c7a03906b316a5afa37c93"
)


class TestMidSizeDigestPin:
    """Both replay paths drive the same ``OnlineEngine``, so their
    byte-identity cannot catch a change inside the engine; this absolute
    digest does."""

    def test_canonical_bytes_digest(self):
        result = replay_reference(
            generate_trace(3, **MIDSIZE_TRACE), MIDSIZE_CONFIG
        )
        # the trace exercises every epoch kind the digest should cover
        assert result.counters["failures_effective"] >= 1
        assert result.counters["cancellations"] >= 1
        assert result.counters["repack_moves"] >= 1
        digest = hashlib.sha256(canonical_bytes(result)).hexdigest()
        assert digest == MIDSIZE_SHA256


class TestTraceGeneration:
    def test_trace_is_seed_deterministic(self):
        assert generate_trace(5, **PINNED_TRACE) == pinned_trace()
        assert generate_trace(6, **PINNED_TRACE) != pinned_trace()

    def test_events_are_time_ordered(self):
        trace = pinned_trace()
        times = [event.time for event in trace]
        assert times == sorted(times)

    def test_event_validation(self):
        with pytest.raises(ConfigurationError):
            TraceEvent(time=-1.0, kind="submit", job_id="x", size=1.0)
        with pytest.raises(ConfigurationError):
            TraceEvent(time=0.0, kind="teleport", job_id="x")
        with pytest.raises(ConfigurationError):
            generate_trace(0, n_jobs=0)
