#!/usr/bin/env python3
"""Checkpoint tuning: period strategies and checkpoint costs.

Two studies on one task set:

1. **Strategy choice** — Young's first-order period (the paper's choice,
   Eq. 1) against Daly's higher-order refinement and naive fixed periods:
   how much does the period formula matter for the expected makespan?
2. **Checkpoint cost** — sweep the unit cost ``c`` (Figs. 12-13): cheap
   checkpoints close the gap to fault-free execution.

Run:  python examples/checkpoint_tuning.py
"""

from __future__ import annotations

import numpy as np

from repro import Cluster, ExpectedTimeModel, simulate, uniform_pack
from repro.experiments import render_table
from repro.resilience import (
    DalyStrategy,
    FixedPeriodStrategy,
    ResilienceModel,
    YoungStrategy,
)

cluster = Cluster.with_mtbf_years(32, mtbf_years=0.1)
pack = uniform_pack(6, m_inf=20_000, m_sup=60_000, seed=9)

# -- 1. period strategies -------------------------------------------------
print("== 1. checkpoint period strategies ==\n")
strategies = {
    "young (paper)": YoungStrategy(),
    "daly": DalyStrategy(),
    "fixed 1h": FixedPeriodStrategy(3600.0),
    "fixed 10h": FixedPeriodStrategy(36_000.0),
}
rows = []
for name, strategy in strategies.items():
    resilience = ResilienceModel(cluster, strategy)
    makespans = [
        simulate(
            pack, cluster, "ig-el", seed=s, resilience=resilience
        ).makespan
        for s in range(5)
    ]
    model = ExpectedTimeModel(pack, cluster, resilience=resilience)
    rows.append(
        [
            name,
            f"{model.period(0, 8):.4g}s",
            f"{np.mean(makespans):.5g}s",
        ]
    )
print(render_table(["strategy", "period(T1, j=8)", "mean makespan"], rows))
print(
    "\nYoung and Daly nearly coincide (C << mu); a badly fixed period"
    "\neither checkpoints too often or loses too much work per failure.\n"
)

# -- 2. checkpoint unit cost ----------------------------------------------
print("== 2. checkpoint unit cost (Figs. 12-13 in miniature) ==\n")
rows = []
for unit_cost in (0.01, 0.1, 1.0):
    pack_c = uniform_pack(
        6, m_inf=20_000, m_sup=60_000, checkpoint_unit_cost=unit_cost, seed=9
    )
    faulty = np.mean(
        [simulate(pack_c, cluster, "ig-el", seed=s).makespan for s in range(5)]
    )
    fault_free = np.mean(
        [
            simulate(
                pack_c, cluster, "ig-el", seed=s, inject_faults=False
            ).makespan
            for s in range(5)
        ]
    )
    rows.append(
        [
            f"{unit_cost:g}",
            f"{fault_free:.5g}s",
            f"{faulty:.5g}s",
            f"{faulty / fault_free - 1:.1%}",
        ]
    )
print(
    render_table(
        ["unit cost c", "fault-free", "with failures", "failure overhead"],
        rows,
    )
)
print("\ncheaper checkpoints -> cheaper failures -> the two contexts meet.")
