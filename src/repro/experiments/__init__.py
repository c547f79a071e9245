"""Experiment harness: scenarios, figure registry, runner, tables."""

from .comparison import PolicyComparison, compare_policies
from .config import SCALES, Scale, ScenarioConfig, get_scale
from .figures import (
    FIGURES,
    FigureResult,
    FigureSpec,
    TraceFigureResult,
    list_figures,
    run_figure,
)
from .runner import (
    FAULT_FREE_SERIES,
    FAULT_SERIES,
    ScenarioResult,
    Series,
    run_scenario,
    scenario_requests,
)
from .tables import render_figure, render_table, render_trace_figure

__all__ = [
    "SCALES",
    "Scale",
    "ScenarioConfig",
    "get_scale",
    "FIGURES",
    "FigureResult",
    "FigureSpec",
    "TraceFigureResult",
    "list_figures",
    "run_figure",
    "FAULT_FREE_SERIES",
    "FAULT_SERIES",
    "ScenarioResult",
    "Series",
    "run_scenario",
    "scenario_requests",
    "render_figure",
    "render_table",
    "render_trace_figure",
    "PolicyComparison",
    "compare_policies",
]
