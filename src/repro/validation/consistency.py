"""Deterministic consistency checks between model and simulator.

Two invariants must hold by construction and are cheap to verify on any
scenario, so they double as a user-facing diagnostic (the CLI exposes
them through ``repro-cosched validate``):

* **fault-free projection** — with fault injection disabled and no
  redistribution, every task must complete exactly at its analytic
  projection ``alpha t_{i,j} + N^ff C_{i,j}`` from the initial schedule;
* **envelope assumptions** — the Eq. (6) envelope must be non-increasing
  in ``j`` (assumption (5)) and the associated work ``j t^R_{i,j}``
  non-decreasing *below the task's threshold* (Section 3.2 restricts the
  work assumption to the useful range; past the threshold the envelope
  is flat so work grows trivially).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from ..cluster import Cluster
from ..core.progress import projected_finish
from ..exceptions import ConfigurationError
from ..resilience.expected_time import ExpectedTimeModel
from ..simulation import Simulator
from ..tasks import Pack

__all__ = [
    "ConsistencyReport",
    "check_fault_free_projection",
    "check_envelope_assumptions",
]


@dataclass
class ConsistencyReport:
    """Outcome of one consistency check."""

    name: str
    passed: bool
    checks: int
    failures: List[str] = field(default_factory=list)

    def describe(self) -> str:
        """One-line digest plus the first few failures if any."""
        status = "OK" if self.passed else "FAILED"
        text = f"{self.name}: {status} ({self.checks} checks)"
        for failure in self.failures[:5]:
            text += f"\n  - {failure}"
        if len(self.failures) > 5:
            text += f"\n  ... {len(self.failures) - 5} more"
        return text


def check_fault_free_projection(
    pack: Pack,
    cluster: Cluster,
    *,
    seed: int = 0,
    rel_tol: float = 1e-9,
) -> ConsistencyReport:
    """Fault-free, no-redistribution runs land on the analytic projection.

    Runs the simulator with ``inject_faults=False`` under the
    ``no-redistribution`` policy and compares every task's completion
    time against ``projected_finish`` evaluated on the initial schedule.
    """
    model = ExpectedTimeModel(pack, cluster)
    simulator = Simulator(
        pack,
        cluster,
        "no-redistribution",
        seed=seed,
        inject_faults=False,
        model=model,
    )
    result = simulator.run()
    failures: List[str] = []
    for i, sigma in result.initial_sigma.items():
        grid = model.grid(i)
        slot = grid.slot(sigma)
        expected = projected_finish(
            0.0,
            1.0,
            float(grid.t_ff[slot]),
            float(grid.tau[slot]),
            float(grid.cost[slot]),
        )
        actual = float(result.completion_times[i])
        if not np.isclose(actual, expected, rtol=rel_tol, atol=1e-6):
            failures.append(
                f"task {i}: completed at {actual:.9g}s, "
                f"projection says {expected:.9g}s"
            )
    return ConsistencyReport(
        name="fault-free projection",
        passed=not failures,
        checks=len(result.initial_sigma),
        failures=failures,
    )


def check_envelope_assumptions(
    pack: Pack,
    cluster: Cluster,
    *,
    alphas: Optional[List[float]] = None,
) -> ConsistencyReport:
    """Envelope monotonicity (Eq. 6) and pre-threshold work monotonicity.

    Checks every task at each requested ``alpha`` (default
    ``[0.25, 0.5, 1.0]``).
    """
    alphas = alphas if alphas is not None else [0.25, 0.5, 1.0]
    if not alphas:
        raise ConfigurationError("at least one alpha is required")
    model = ExpectedTimeModel(pack, cluster)
    failures: List[str] = []
    checks = 0
    j_grid = model.j_grid
    for i in range(len(pack)):
        for alpha in alphas:
            checks += 1
            envelope = model.profile(i, alpha)
            diffs = np.diff(envelope)
            if np.any(diffs > 1e-9 * np.abs(envelope[:-1])):
                failures.append(
                    f"task {i} alpha={alpha}: envelope increases in j"
                )
            threshold = model.threshold(i, alpha)
            below = j_grid <= threshold
            work = j_grid[below] * envelope[below]
            work_diffs = np.diff(work)
            if np.any(work_diffs < -1e-9 * np.abs(work[:-1])):
                failures.append(
                    f"task {i} alpha={alpha}: work decreases below the "
                    f"threshold j={threshold}"
                )
    return ConsistencyReport(
        name="envelope assumptions",
        passed=not failures,
        checks=checks,
        failures=failures,
    )
