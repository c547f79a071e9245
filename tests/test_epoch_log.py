"""The online engine's epoch log: columnar storage, dict records on read.

:class:`~repro.service.horizon.EpochLog` keeps one epoch per row of a
few typed arrays and job-id tuples, and rebuilds the canonical record
dict on every read.  These tests pin that every read form (index,
negative index, slice, iteration, ``len``/``bool``) rebuilds the same
records with the same Python types, that the records survive the JSON
framing, that ``/schedule``'s ``last_epoch`` is the log's last record,
and that the log stays small per epoch.  The replay digests
(``tests/test_service_replay.py``) pin the record values.
"""

from __future__ import annotations

import json

import pytest

from repro.service import ReplayConfig, generate_trace
from repro.service.horizon import EpochLog, JobState
from repro.service.replay import epoch_log_bytes, replay_engine

from test_service_replay import PINNED_CONFIG, pinned_trace

#: The record's keys, in the order the engine has always written them.
RECORD_KEYS = [
    "t", "trigger", "order", "admitted", "sigma", "alphas", "t_last",
    "rc_paid", "moves", "queued",
]

#: A platform with room for two jobs: arrivals queue, queued jobs are
#: cancelled, so epochs without a re-pack occur.
CROWDED_CONFIG = ReplayConfig(processors=4, mtbf_years=0.05, seed=3)


def crowded_trace():
    return generate_trace(7, n_jobs=6, mean_gap=1_000.0, cancel_every=3)


def _ids(values) -> bool:
    return type(values) is list and all(type(v) is str for v in values)


def assert_record_types(record) -> None:
    """One record has today's keys, key order and value types."""
    assert list(record) == RECORD_KEYS
    assert type(record["t"]) is float
    assert record["trigger"] in ("arrival", "cancel", "completion")
    assert type(record["rc_paid"]) is float
    assert type(record["moves"]) is int
    assert _ids(record["admitted"]) and _ids(record["queued"])
    sigma = record["sigma"]
    assert type(sigma) is dict
    assert all(type(j) is str and type(c) is int for j, c in sigma.items())
    order = record["order"]
    if order is None:  # no re-pack at this epoch
        assert record["alphas"] is None and record["t_last"] is None
        assert record["moves"] == 0 and record["rc_paid"] == 0.0
        return
    assert _ids(order) and list(sigma) == order
    for key in ("alphas", "t_last"):
        values = record[key]
        assert type(values) is dict and list(values) == order
        assert all(type(v) is float for v in values.values())


def assert_log_reads_agree(engine) -> list:
    """Every read form of ``engine.epochs`` rebuilds ``list()``'s records."""
    log = engine.epochs
    records = list(log)
    n = len(records)
    assert len(log) == n and bool(log) == bool(records)
    for record in records:
        assert_record_types(record)
    assert [record for record in log] == records
    for i in range(-n, n):
        assert log[i] == records[i]
    for bad in (n, -n - 1):
        with pytest.raises(IndexError):
            log[bad]
    for s in (
        slice(None), slice(1, None), slice(None, -1), slice(2, 5),
        slice(-3, None), slice(None, None, 2), slice(None, None, -1),
        slice(5, 1, -2), slice(n + 3, None), slice(3, 1),
    ):
        assert log[s] == records[s]
    if records:
        assert log[-1] == engine.schedule_view()["last_epoch"]
    else:
        assert engine.schedule_view()["last_epoch"] is None
    assert json.loads(json.dumps(records)) == records
    return records


class TestEngineLog:
    def test_pinned_trace_reads_agree(self):
        engine = replay_engine(pinned_trace(), PINNED_CONFIG)
        records = assert_log_reads_agree(engine)
        assert len(records) == engine.counters.epochs >= 10

    def test_epochs_without_a_repack_carry_none(self):
        engine = replay_engine(crowded_trace(), CROWDED_CONFIG)
        records = assert_log_reads_agree(engine)
        idle = [r for r in records if r["order"] is None]
        assert idle and any(r["queued"] for r in idle)
        assert any(r["trigger"] == "cancel" for r in idle)

    def test_a_fresh_engine_has_an_empty_log(self):
        assert assert_log_reads_agree(CROWDED_CONFIG.engine()) == []

    def test_a_read_record_is_a_copy(self):
        engine = replay_engine(pinned_trace(), PINNED_CONFIG)
        first = engine.epochs[0]
        kept = json.dumps(first)
        first["sigma"].clear()
        first["order"].append("ghost")
        assert json.dumps(engine.epochs[0]) == kept

    def test_log_holds_under_640_bytes_per_epoch(self):
        # A list of per-epoch dicts held ~1,350 bytes per epoch here.
        trace = pinned_trace()
        epochs = len(replay_engine(trace, PINNED_CONFIG).epochs)
        nbytes = epoch_log_bytes(trace, PINNED_CONFIG)
        assert 0 < nbytes < 640 * epochs, f"{nbytes / epochs:.0f} B/epoch"

    def test_epoch_log_bytes_do_not_depend_on_earlier_work(self):
        trace = pinned_trace()
        first = epoch_log_bytes(trace, PINNED_CONFIG)
        replay_engine(crowded_trace(), CROWDED_CONFIG)
        assert epoch_log_bytes(trace, PINNED_CONFIG) == first


class TestEpochLog:
    def _log(self) -> EpochLog:
        log = EpochLog()
        log.append(
            0.0, "arrival", ["a"], [], 0.0, 0, ["a"], [4],
            ["a"], [1.0], [0.0],
        )
        log.append(5.0, "arrival", [], ["b"], 0.0, 0, ["a"], [4])
        log.append(
            9.5, "completion", ["b"], [], 12.25, 1, ["a", "b"], [2, 2],
            ["a", "b"], [0.5, 1.0], [20.0, 9.5],
        )
        return log

    def test_records_rebuild_what_was_appended(self):
        assert list(self._log()) == [
            {
                "t": 0.0, "trigger": "arrival", "order": ["a"],
                "admitted": ["a"], "sigma": {"a": 4}, "alphas": {"a": 1.0},
                "t_last": {"a": 0.0}, "rc_paid": 0.0, "moves": 0,
                "queued": [],
            },
            {
                "t": 5.0, "trigger": "arrival", "order": None,
                "admitted": [], "sigma": {"a": 4}, "alphas": None,
                "t_last": None, "rc_paid": 0.0, "moves": 0, "queued": ["b"],
            },
            {
                "t": 9.5, "trigger": "completion", "order": ["a", "b"],
                "admitted": ["b"], "sigma": {"a": 2, "b": 2},
                "alphas": {"a": 0.5, "b": 1.0},
                "t_last": {"a": 20.0, "b": 9.5}, "rc_paid": 12.25,
                "moves": 1, "queued": [],
            },
        ]

    def test_reads_agree_on_a_hand_built_log(self):
        log = self._log()
        records = list(log)
        assert [log[i] for i in (-3, -2, -1)] == records
        assert log[::-1] == records[::-1] and log[1:] == records[1:]
        assert len(log) == 3 and log and not EpochLog()

    def test_equal_job_ids_are_stored_once(self):
        log = self._log()
        log.append(11.0, "arrival", [], ["c"], 0.0, 0, ["a", "b"], [2, 2])
        # the second epoch's counts are the first's jobs; the fourth's
        # are the third's, whose order is its own sigma keys
        assert log._keys[1] is log._keys[0] is log._order[0]
        assert log._keys[3] is log._keys[2] is log._order[2]

    def test_the_log_is_read_only(self):
        log = self._log()
        with pytest.raises(TypeError):
            log[0] = {}
        with pytest.raises(AttributeError):
            log.extra = 1


class TestJobState:
    def test_describe_keeps_the_field_order_and_values(self):
        job = JobState(job_id="a", size=10.0, checkpoint_cost=1.0, arrival=2.0)
        job.redistributions = 3
        assert job.describe() == {
            "job_id": "a", "size": 10.0, "checkpoint_cost": 1.0,
            "arrival": 2.0, "status": "queued", "admitted_at": None,
            "completion_time": None, "alpha_remaining": 1.0,
            "redistributions": 3, "failures": 0, "segments": 0,
        }
        assert list(job.describe()) == list(JobState.__slots__)

    def test_a_job_has_no_instance_dict(self):
        job = JobState(job_id="a", size=10.0, checkpoint_cost=1.0, arrival=2.0)
        assert not hasattr(job, "__dict__")
        with pytest.raises(AttributeError):
            job.undeclared = 1
