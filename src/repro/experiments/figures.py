"""Registry of the paper's evaluation figures (Section 6.2).

Every figure of the evaluation maps to a :class:`FigureSpec` that knows
its parameter sweep, its curves, and its normalisation baseline.
``run_figure("fig7", scale="small")`` reproduces the figure's data at any
scaling preset and returns a :class:`FigureResult` whose rows can be
rendered with :mod:`repro.experiments.tables`.

Figure 9 is special (a single traced run rather than an averaged sweep)
and returns a :class:`TraceFigureResult`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from ..engine import Executor

from ..exceptions import ConfigurationError
from ..resilience.expected_time import ExpectedTimeModel
from ..simulation import Simulator
from ..tasks import PAPER_M_INF_HETEROGENEOUS
from .config import ScenarioConfig, Scale, get_scale
from .runner import (
    FAULT_FREE_SERIES,
    FAULT_SERIES,
    ScenarioResult,
    Series,
    run_scenario,
    _replicate_seed,
)

__all__ = [
    "FigureSpec",
    "FigureResult",
    "TraceFigureResult",
    "FIGURES",
    "run_figure",
    "list_figures",
]

MTBF_SWEEP_YEARS: tuple[float, ...] = (5, 15, 25, 35, 45, 55, 65, 75, 85, 95, 105, 115, 125)


@dataclass
class FigureResult:
    """Data behind one sweep figure."""

    figure: str
    title: str
    x_name: str
    x_values: List[float]
    labels: Dict[str, str]
    normalized: Dict[str, List[float]]
    means: Dict[str, List[float]]
    descriptions: List[str] = field(default_factory=list)

    def series_keys(self) -> List[str]:
        return list(self.normalized)

    def row(self, index: int) -> Dict[str, float]:
        """Normalised values of every series at one sweep point."""
        return {key: self.normalized[key][index] for key in self.normalized}


@dataclass
class TraceFigureResult:
    """Data behind Fig. 9: per-policy single-run failure snapshots."""

    figure: str
    title: str
    labels: Dict[str, str]
    #: per series: arrays "failure_times", "makespan", "sigma_std"
    series: Dict[str, Dict[str, np.ndarray]]
    final_makespans: Dict[str, float]
    descriptions: List[str] = field(default_factory=list)


@dataclass(frozen=True)
class FigureSpec:
    """Declarative description of one paper figure."""

    name: str
    title: str
    x_name: str
    base: ScenarioConfig
    sweep: Tuple[float, ...]
    #: applies one sweep value to the base config
    vary: Callable[[ScenarioConfig, float], ScenarioConfig]
    series: Tuple[Series, ...] = FAULT_SERIES
    #: reads the displayed x back from the *scaled* config; None keeps the
    #: nominal sweep value (used for MTBF / cost / fraction sweeps)
    x_from_config: Optional[Callable[[ScenarioConfig], float]] = None
    kind: str = "sweep"  #: "sweep" or "trace"

    def points(self, scale: Scale) -> List[Tuple[float, ScenarioConfig]]:
        """(x, scaled config) pairs for this figure at ``scale``."""
        values = scale.subsample(list(self.sweep))
        points = []
        for value in values:
            config = scale.apply(self.vary(self.base, value))
            x = value if self.x_from_config is None else self.x_from_config(config)
            points.append((float(x), config))
        return points


# ---------------------------------------------------------------------------
# sweep helpers

def _vary_p(config: ScenarioConfig, p: float) -> ScenarioConfig:
    return replace(config, p=int(p))


def _vary_n(config: ScenarioConfig, n: float) -> ScenarioConfig:
    return replace(config, n=int(n))


def _vary_mtbf(config: ScenarioConfig, years: float) -> ScenarioConfig:
    return replace(config, mtbf_years=float(years))


def _vary_cost(config: ScenarioConfig, c: float) -> ScenarioConfig:
    return replace(config, checkpoint_unit_cost=float(c))


def _vary_seq_fraction(config: ScenarioConfig, f: float) -> ScenarioConfig:
    return replace(config, seq_fraction=float(f))


def _mtbf_figure(name: str, title: str, p: int, cost: float = 1.0) -> FigureSpec:
    return FigureSpec(
        name=name,
        title=title,
        x_name="MTBF (years)",
        base=ScenarioConfig(n=100, p=p, checkpoint_unit_cost=cost),
        sweep=MTBF_SWEEP_YEARS,
        vary=_vary_mtbf,
    )


def _build_registry() -> Dict[str, FigureSpec]:
    homogeneous = ScenarioConfig(n=100, p=1000)
    heterogeneous = replace(homogeneous, m_inf=PAPER_M_INF_HETEROGENEOUS)
    figures = [
        FigureSpec(
            name="fig5a",
            title="Fault-free redistribution, n=100, homogeneous sizes",
            x_name="#procs",
            base=homogeneous,
            sweep=tuple(range(200, 2001, 200)),
            vary=_vary_p,
            series=FAULT_FREE_SERIES,
            x_from_config=lambda cfg: cfg.p,
        ),
        FigureSpec(
            name="fig5b",
            title="Fault-free redistribution, n=100, heterogeneous sizes",
            x_name="#procs",
            base=heterogeneous,
            sweep=tuple(range(200, 2001, 200)),
            vary=_vary_p,
            series=FAULT_FREE_SERIES,
            x_from_config=lambda cfg: cfg.p,
        ),
        FigureSpec(
            name="fig6a",
            title="Fault-free redistribution, n=1000, homogeneous sizes",
            x_name="#procs",
            base=replace(homogeneous, n=1000, p=2000),
            sweep=tuple(range(2000, 5001, 500)),
            vary=_vary_p,
            series=FAULT_FREE_SERIES,
            x_from_config=lambda cfg: cfg.p,
        ),
        FigureSpec(
            name="fig6b",
            title="Fault-free redistribution, n=1000, heterogeneous sizes",
            x_name="#procs",
            base=replace(heterogeneous, n=1000, p=2000),
            sweep=tuple(range(2000, 5001, 500)),
            vary=_vary_p,
            series=FAULT_FREE_SERIES,
            x_from_config=lambda cfg: cfg.p,
        ),
        FigureSpec(
            name="fig7",
            title="Impact of the number of tasks n (p=5000)",
            x_name="#tasks",
            base=replace(homogeneous, p=5000),
            sweep=tuple(range(100, 1001, 100)),
            vary=_vary_n,
            x_from_config=lambda cfg: cfg.n,
        ),
        FigureSpec(
            name="fig8",
            title="Impact of the number of processors p (n=100)",
            x_name="#procs",
            base=homogeneous,
            sweep=(200,) + tuple(range(500, 5001, 500)),
            vary=_vary_p,
            x_from_config=lambda cfg: cfg.p,
        ),
        FigureSpec(
            name="fig9",
            title="Single-run heuristic behaviour (n=100, p=1000, MTBF 50y)",
            x_name="failure date (s)",
            base=replace(homogeneous, mtbf_years=50.0, replicates=1),
            sweep=(),
            vary=lambda cfg, _: cfg,
            kind="trace",
        ),
        _mtbf_figure("fig10", "Impact of MTBF (n=100, p=1000)", p=1000),
        _mtbf_figure("fig11", "Impact of MTBF (n=100, p=5000)", p=5000),
        FigureSpec(
            name="fig12",
            title="Impact of the checkpointing cost (n=100, p=1000)",
            x_name="checkpoint unit cost c",
            base=homogeneous,
            sweep=(0.01, 0.03, 0.1, 0.3, 1.0),
            vary=_vary_cost,
        ),
        _mtbf_figure(
            "fig13a", "MTBF sweep at checkpoint cost c=1", p=1000, cost=1.0
        ),
        _mtbf_figure(
            "fig13b", "MTBF sweep at checkpoint cost c=0.1", p=1000, cost=0.1
        ),
        _mtbf_figure(
            "fig13c", "MTBF sweep at checkpoint cost c=0.01", p=1000, cost=0.01
        ),
        FigureSpec(
            name="fig14",
            title="Impact of the sequential fraction f (n=100, p=1000)",
            x_name="sequential fraction f",
            base=homogeneous,
            sweep=(0.0, 0.1, 0.2, 0.3, 0.4, 0.5),
            vary=_vary_seq_fraction,
        ),
    ]
    return {spec.name: spec for spec in figures}


#: All reproducible figures, keyed by name ("fig5a" ... "fig14").
FIGURES: Dict[str, FigureSpec] = _build_registry()


def list_figures() -> List[str]:
    """Names of every registered figure."""
    return sorted(FIGURES)


def run_figure(
    name: str,
    scale: str | Scale = "small",
    *,
    seed: int = 0,
    workers: Optional[int] = None,
    engine: Optional[str] = None,
    executor: Optional["Executor"] = None,
    simulator_options: Optional[Dict[str, Any]] = None,
    progress: Optional[Callable[[str, float, int, int], None]] = None,
) -> FigureResult | TraceFigureResult:
    """Reproduce one figure's data at the requested scale.

    Sweep points submit through one executor for the whole figure
    (:mod:`repro.engine`): ``executor`` uses a caller-owned one (left
    open, so a campaign can run many figures on the same warm pool);
    otherwise ``engine`` picks one, defaulting to ``"persistent"`` when
    ``workers`` > 1 so pool start-up is paid once per figure, not once
    per sweep point.  Every engine produces byte-identical series to a
    serial run.  ``simulator_options`` forwards extra :class:`Simulator` keywords
    (``{"reference": True}`` runs the seed-literal reference) to every
    simulation.
    ``progress`` streams the sweep: it is called as ``progress(figure,
    x, done, total)`` while a point's replicates complete (the CLI
    wires it under ``--verbose``).  Trace figures (Fig. 9) are a single
    replicate and ignore the engine and progress knobs.
    """
    try:
        spec = FIGURES[name]
    except KeyError:
        known = ", ".join(list_figures())
        raise ConfigurationError(
            f"unknown figure {name!r}; known figures: {known}"
        ) from None
    scale_obj = get_scale(scale) if isinstance(scale, str) else scale
    if spec.kind == "trace":
        return _run_trace_figure(spec, scale_obj, seed, simulator_options)
    return _run_sweep_figure(
        spec, scale_obj, seed, workers, engine, executor,
        simulator_options, progress,
    )


def _run_sweep_figure(
    spec: FigureSpec,
    scale: Scale,
    seed: int,
    workers: Optional[int] = None,
    engine: Optional[str] = None,
    executor: Optional["Executor"] = None,
    simulator_options: Optional[Dict[str, Any]] = None,
    progress: Optional[Callable[[str, float, int, int], None]] = None,
) -> FigureResult:
    from ..engine import ensure_executor

    labels = {s.key: s.label for s in spec.series}
    x_values: List[float] = []
    normalized: Dict[str, List[float]] = {s.key: [] for s in spec.series}
    means: Dict[str, List[float]] = {s.key: [] for s in spec.series}
    descriptions: List[str] = []
    with ensure_executor(executor, engine=engine, workers=workers) as active:
        for x, config in spec.points(scale):
            point_progress = None
            if progress is not None:
                def point_progress(
                    done: int, total: int, _x: float = x
                ) -> None:
                    progress(spec.name, _x, done, total)

            outcome = run_scenario(
                config,
                spec.series,
                seed=seed,
                executor=active,
                simulator_options=simulator_options,
                progress=point_progress,
            )
            x_values.append(x)
            descriptions.append(config.describe())
            for key in normalized:
                normalized[key].append(outcome.normalized(key))
                means[key].append(outcome.mean(key))
    return FigureResult(
        figure=spec.name,
        title=spec.title,
        x_name=spec.x_name,
        x_values=x_values,
        labels=labels,
        normalized=normalized,
        means=means,
        descriptions=descriptions,
    )


#: The three single-run curves of Fig. 9 (paper uses the EndLocal variants).
TRACE_SERIES: tuple[Series, ...] = (
    Series("no-rc", "No redistribution", "no-redistribution", True),
    Series("ig", "Iterated greedy", "ig-el", True),
    Series("stf", "Shortest tasks first", "stf-el", True),
)


def _run_trace_figure(
    spec: FigureSpec,
    scale: Scale,
    seed: int,
    simulator_options: Optional[Dict[str, Any]] = None,
) -> TraceFigureResult:
    config = scale.apply(spec.base)
    cluster = config.build_cluster()
    rep_seed = _replicate_seed(seed, 0)
    pack = config.build_pack(rep_seed)
    model = ExpectedTimeModel(pack, cluster)
    series_data: Dict[str, Dict[str, np.ndarray]] = {}
    finals: Dict[str, float] = {}
    for s in TRACE_SERIES:
        simulator = Simulator(
            pack,
            cluster,
            s.policy,
            seed=rep_seed,
            inject_faults=True,
            model=model,
            record_trace=True,
            **(simulator_options or {}),
        )
        result = simulator.run()
        assert result.trace is not None
        series_data[s.key] = result.trace.as_arrays()
        finals[s.key] = result.makespan
    return TraceFigureResult(
        figure=spec.name,
        title=spec.title,
        labels={s.key: s.label for s in TRACE_SERIES},
        series=series_data,
        final_makespans=finals,
        descriptions=[config.describe()],
    )
