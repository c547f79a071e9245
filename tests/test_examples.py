"""Smoke tests: every example script runs to completion.

The examples are part of the public deliverable; each must execute
without error against the installed package.  Output content is spot
checked for the headline artefact of each script.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).parent.parent / "examples"

#: script -> fragment its stdout must contain
EXPECTED_OUTPUT = {
    "quickstart.py": "redistribution gain",
    "heuristic_tournament.py": "competitive ratios",
    "capacity_planning.py": "recommendation",
    "checkpoint_tuning.py": "checkpoint unit cost",
    "multi_pack_scheduling.py": "best partition by simulation",
    "trace_forensics.py": "event log",
    "np_hardness_demo.py": "Theorem 2: always",
    "batch_campaign.py": "reading:",
    "phase_diagram.py": "per-cell paired comparisons",
    "remote_campaign.py": "byte-identical to the serial run",
    "online_service.py": "certified online lower bound",
}


def test_every_example_is_listed():
    scripts = {path.name for path in EXAMPLES_DIR.glob("*.py")}
    assert scripts == set(EXPECTED_OUTPUT), (
        "examples/ and the smoke-test registry went out of sync"
    )


@pytest.mark.parametrize("script", sorted(EXPECTED_OUTPUT))
def test_example_runs(script):
    completed = subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / script)],
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert completed.returncode == 0, (
        f"{script} failed:\n{completed.stderr[-2000:]}"
    )
    assert EXPECTED_OUTPUT[script] in completed.stdout
