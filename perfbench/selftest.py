"""Self-test of the benchmark (reduced sizes, under a minute)::

    python3 -m pytest -q perfbench/selftest.py

Runs every workload once untraced and once traced at the reduced size,
checks that every named metric is present with its unit, that outputs
are checked against the committed digests, and that the traced pass
writes spans whose self times add up to no more than the root span.
"""

from __future__ import annotations

import io
import json
import shutil
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import run  # noqa: E402

SPEC = layers.load_spec()
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_reports_every_end_to_end_metric(workload):
    proc = bench("--workload", workload, "--seed", "0", "--seconds", "0",
                 "--trace", "0", "--size", "reduced")
    result = result_of(proc)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]
    }
    assert all(m["value"] > 0 for m in result["metrics"].values())
    # seed 0 is pinned at the reduced size too
    assert "outputs checked by: golden" in proc.stdout


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_layers_and_consistent_spans(workload):
    proc = bench("--workload", workload, "--seed", "5", "--seconds", "0",
                 "--trace", "1", "--size", "reduced")
    result = result_of(proc)
    assert result["correct"], proc.stdout
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["per_layer"]
    }
    assert "count_mismatches: []" in proc.stdout
    for name in layers.applicable(workload, result["metrics"]):
        assert f"  {name}: n/a" not in proc.stdout
    spans_file = next(
        line.split(": ", 1)[1] for line in proc.stdout.splitlines()
        if line.strip().startswith("spans_file:")
    )
    spans = json.loads((ROOT / spans_file).read_text())
    start, end, parent = spans["start"], spans["end"], spans["parent"]
    duration = [e - s for s, e in zip(start, end)]
    covered = [0.0] * len(start)
    for i, p in enumerate(parent):
        if p >= 0:
            covered[p] += duration[i]
            assert start[p] <= start[i] and end[i] <= end[p]
    roots = [i for i, p in enumerate(parent) if p < 0]
    assert [spans["names"][spans["name"][i]] for i in roots] == ["bench.run"]
    self_sum = sum(d - c for d, c in zip(duration, covered))
    assert self_sum <= duration[roots[0]] * (1 + 1e-9)


def test_a_wrong_digest_fails_the_run(monkeypatch, tmp_path):
    import workload

    golden = tmp_path / "golden.json"
    golden.write_text(json.dumps(
        {"digests": {"reduced": {"service": {"0": "0" * 64}}}}
    ))
    monkeypatch.setattr(workload, "GOLDEN", golden)
    out = io.StringIO()
    with redirect_stdout(out):
        workload.main(["--workload", "service", "--seed", "0",
                       "--size", "reduced"])
    report = json.loads(out.getvalue().strip().splitlines()[-1])
    assert report["check"] == "golden"
    assert not report["correct"] and report["failed"] == 1


def test_count_mismatch_is_reported():
    a = {"layer": {"simulation.events": 10, "engine.chunks": 3}}
    b = {"layer": {"simulation.events": 11, "engine.chunks": 3}}
    assert run.compare_counts(a, b) == ["simulation.events"]
    assert run.compare_counts(a, a) == []


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "service", "--seed", "0", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
