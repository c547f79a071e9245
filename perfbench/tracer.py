"""In-memory span recorder and the layer patches of the traced run.

The benchmark never edits the program: a traced run replaces public
callables of each layer with thin wrappers that open a span on entry and
close it on exit.  Each span records its name, start, end and parent;
self time (duration minus the time covered by child spans) is derived
once the run ends, from flat arrays, so recording costs four appends.

Every name is patched where its caller looks it up: ``optimal_schedule``
is imported by value into the simulator and the service engine, so it
is replaced in those two module namespaces; methods are replaced on
their classes.
"""

from __future__ import annotations

import importlib
import json
import math
from array import array
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, Iterable, List, Optional, Tuple

import numpy as np

#: (layer, span name, module, attribute path) of every wrapped callable.
PATCHES: Tuple[Tuple[str, str, str, str], ...] = (
    ("experiments", "experiments.run_figure",
     "repro.experiments.figures", "run_figure"),
    ("experiments", "experiments.run_scenario",
     "repro.experiments.figures", "run_scenario"),
    ("engine", "engine.map", "repro.engine.executors", "Executor.map"),
    ("engine", "engine.map_stream",
     "repro.engine.executors", "Executor.map_stream"),
    ("simulation", "simulation.run",
     "repro.simulation.simulator", "Simulator.run"),
    ("simulation", "simulation.start",
     "repro.simulation.simulator", "Simulator.start"),
    ("core", "core.apply.end_local",
     "repro.core.heuristics.end_local", "EndLocal.apply"),
    ("core", "core.apply.end_greedy",
     "repro.core.heuristics.iterated_greedy", "EndGreedy.apply"),
    ("core", "core.apply.iterated_greedy",
     "repro.core.heuristics.iterated_greedy", "IteratedGreedy.apply"),
    ("core", "core.apply.stf",
     "repro.core.heuristics.stf", "ShortestTasksFirst.apply"),
    ("core", "core.optimal_schedule",
     "repro.simulation.simulator", "optimal_schedule"),
    ("core", "core.optimal_schedule",
     "repro.service.horizon", "optimal_schedule"),
    ("core", "core.matrix", "repro.core.kernels", "DecisionCache.matrix"),
    ("resilience", "resilience.model_init",
     "repro.resilience.expected_time", "ExpectedTimeModel.__init__"),
    ("resilience", "resilience.profile",
     "repro.resilience.expected_time", "ExpectedTimeModel.profile"),
    ("resilience", "resilience.profile_batch",
     "repro.resilience.expected_time", "ExpectedTimeModel.profile_batch"),
    ("resilience", "resilience.profile_matrix",
     "repro.resilience.expected_time", "ExpectedTimeModel.profile_matrix"),
    ("resilience", "resilience.profile_rows_into",
     "repro.resilience.expected_time", "ExpectedTimeModel.profile_rows_into"),
    ("resilience", "resilience.raw_profile",
     "repro.resilience.expected_time", "ExpectedTimeModel.raw_profile"),
    ("service", "service.handle", "repro.service.server", "ServiceAPI.handle"),
    ("service", "service.submit", "repro.service.horizon", "OnlineEngine.submit"),
    ("service", "service.cancel", "repro.service.horizon", "OnlineEngine.cancel"),
    ("service", "service.advance_to",
     "repro.service.horizon", "OnlineEngine.advance_to"),
    ("service", "service.drain", "repro.service.horizon", "OnlineEngine.drain"),
    ("service", "service.job_view",
     "repro.service.horizon", "OnlineEngine.job_view"),
    ("service", "service.metrics",
     "repro.service.horizon", "OnlineEngine.metrics"),
)

#: Every traced layer, in the order above.
LAYERS: Tuple[str, ...] = tuple(dict.fromkeys(layer for layer, *_ in PATCHES))

#: Span names whose spans count as profile evaluations.
PROFILE_SPANS = frozenset(
    name for layer, name, _, _ in PATCHES
    if layer == "resilience" and name != "resilience.model_init"
)


class Tracer:
    """Spans kept in flat arrays; parents follow the open-span stack."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: List[int] = []
        #: time spent blocked on a pooled executor's result stream
        self.engine_wait_s = 0.0
        #: chunk results a pooled executor's result stream yielded
        self.engine_chunks = 0

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid: int) -> int:
        idx = len(self.start)
        stack = self._stack
        self.name_of.append(nid)
        self.parent.append(stack[-1] if stack else -1)
        self.end.append(0.0)
        stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    # -- analysis -----------------------------------------------------------
    def arrays(self) -> Dict[str, np.ndarray]:
        """Spans as columns, with ``self`` = duration minus child cover."""
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        name = np.frombuffer(self.name_of, dtype=np.int32)
        duration = end - start
        nested = parent >= 0
        covered = np.bincount(
            parent[nested], weights=duration[nested], minlength=len(start)
        )
        return {
            "name": name,
            "parent": parent,
            "start": start,
            "end": end,
            "duration": duration,
            "self": duration - covered,
        }

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per span name: count, total (inclusive) and self seconds."""
        cols = self.arrays()
        size = len(self.names)
        count = np.bincount(cols["name"], minlength=size)
        total = np.bincount(cols["name"], weights=cols["duration"], minlength=size)
        own = np.bincount(cols["name"], weights=cols["self"], minlength=size)
        return {
            name: {
                "count": int(count[i]),
                "total_s": float(total[i]),
                "self_s": float(own[i]),
            }
            for i, name in enumerate(self.names)
        }

    def durations(self, name: str) -> np.ndarray:
        """Inclusive durations of every span called ``name``."""
        nid = self._ids.get(name)
        cols = self.arrays()
        if nid is None:
            return np.empty(0)
        return cols["duration"][cols["name"] == nid]

    def write(self, path: Path) -> None:
        """Write every span as JSON columns (names resolved)."""
        cols = self.arrays()
        doc = {
            "names": self.names,
            "name": cols["name"].tolist(),
            "parent": cols["parent"].tolist(),
            "start": cols["start"].tolist(),
            "end": cols["end"].tolist(),
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc, separators=(",", ":")))


def _resolve(module: str, attr: str) -> Tuple[object, str]:
    owner: object = importlib.import_module(module)
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, leaf


def _span_wrapper(tracer: Tracer, name: str, fn: Callable) -> Callable:
    nid = tracer.name_id(name)
    open_, close = tracer.open, tracer.close

    def traced(*args, **kwargs):
        idx = open_(nid)
        try:
            return fn(*args, **kwargs)
        finally:
            close(idx)

    traced.__wrapped__ = fn
    return traced


def _handle_wrapper(tracer: Tracer, fn: Callable) -> Callable:
    """``ServiceAPI.handle``: one span name per operation."""
    open_, close, name_id = tracer.open, tracer.close, tracer.name_id

    def traced(self, op, data):
        idx = open_(name_id(f"service.handle.{op}"))
        try:
            return fn(self, op, data)
        finally:
            close(idx)

    traced.__wrapped__ = fn
    return traced


def _stream_wrapper(tracer: Tracer, fn: Callable) -> Callable:
    """``Executor.map_stream``: the span lasts until the stream is spent.

    Time blocked in ``next()`` on a pooled executor is the submitting
    process waiting for workers (``engine.wait_s``); every item is one
    chunk result.
    """
    nid = tracer.name_id("engine.map_stream")

    def traced(self, requests):
        idx = tracer.open(nid)
        pooled = getattr(self, "workers", 1) > 1
        try:
            stream = fn(self, requests)
            while True:
                began = perf_counter()
                try:
                    item = next(stream)
                except StopIteration:
                    return
                finally:
                    if pooled:
                        tracer.engine_wait_s += perf_counter() - began
                tracer.engine_chunks += 1
                yield item
        finally:
            tracer.close(idx)

    traced.__wrapped__ = fn
    return traced


def install(tracer: Tracer, layers: Iterable[str]) -> Callable[[], None]:
    """Wrap every patch of ``layers``; returns a function that undoes it."""
    wanted = set(layers)
    installed: List[Tuple[object, str, Callable]] = []
    for layer, name, module, attr in PATCHES:
        if layer not in wanted:
            continue
        owner, leaf = _resolve(module, attr)
        original = getattr(owner, leaf)
        if name == "service.handle":
            wrapped = _handle_wrapper(tracer, original)
        elif name == "engine.map_stream":
            wrapped = _stream_wrapper(tracer, original)
        else:
            wrapped = _span_wrapper(tracer, name, original)
        setattr(owner, leaf, wrapped)
        installed.append((owner, leaf, original))

    def uninstall() -> None:
        for owner, leaf, original in reversed(installed):
            setattr(owner, leaf, original)

    return uninstall


def self_time_by_layer(summary: Dict[str, Dict[str, float]]) -> Dict[str, float]:
    """Self seconds summed per layer (the span name's first component)."""
    out: Dict[str, float] = {}
    for name, row in summary.items():
        layer = name.split(".", 1)[0]
        out[layer] = out.get(layer, 0.0) + row["self_s"]
    return out


def total_of(summary: Dict[str, Dict[str, float]], names: Iterable[str],
             key: str = "total_s") -> float:
    return float(sum(summary[n][key] for n in names if n in summary))


def count_of(summary: Dict[str, Dict[str, float]], names: Iterable[str]) -> int:
    return int(sum(summary[n]["count"] for n in names if n in summary))


def prefixed(summary: Dict[str, Dict[str, float]], prefix: str) -> List[str]:
    return [name for name in summary if name.startswith(prefix)]


def percentile_ms(seconds: Iterable[float], q: float) -> Optional[float]:
    """Nearest-rank percentile of durations, in milliseconds."""
    ordered = sorted(seconds)
    if not ordered:
        return None
    rank = max(1, math.ceil(len(ordered) * q / 100))
    return float(ordered[rank - 1]) * 1e3
