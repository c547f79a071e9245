"""Experiment harness: scenarios, figure registry, runner, tables.

The sweep path (``config``, ``figures``, ``runner``) loads with the
package; the paired-comparison pipeline (``comparison``, which pulls in
:mod:`repro.analysis`) and the table renderers (``tables``) load on
first access.
"""

from .._lazy import lazy_exports
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

__getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "render_figure": "tables",
        "render_table": "tables",
        "render_trace_figure": "tables",
        "PolicyComparison": "comparison",
        "compare_policies": "comparison",
    },
)
