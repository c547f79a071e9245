"""Each entry point imports only the layers it runs.

The package ``__init__`` modules of ``repro``, ``repro.engine``,
``repro.experiments`` and ``repro.service`` import their run path
eagerly and resolve every other public name on first access (PEP 562).
Import sets are checked in fresh interpreters: this process has long
since imported everything.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.core.policy import POLICIES
from repro.engine import ENGINES
from repro.experiments.figures import FIGURES

SRC = str(Path(repro.__file__).resolve().parent.parent)

#: What the figure and service run paths import.
RUN_PATH = "import repro.engine, repro.experiments.figures, repro.service"

#: Layers neither run path executes: the queue/HTTP fabric, the HTTP
#: server, the comparison pipeline and the offline analysis layers.
NOT_ON_RUN_PATH = (
    "http.server",
    "http.client",
    "ssl",
    "repro._jsonhttp",
    "repro.engine.http_broker",
    "repro.engine.broker",
    "repro.engine.broker_server",
    "repro.engine.queue_exec",
    "repro.engine.worker",
    "repro.experiments.comparison",
    "repro.experiments.tables",
    "repro.theory",
    "repro.batch",
    "repro.packing",
    "repro.validation",
    "repro.analysis",
    "repro.viz",
    "repro.io",
    "repro.oracle",
)

#: The HTTP client stack ``urllib.request`` pulls in.
HTTP_CLIENT = ("urllib.request", "urllib.error", "http.client", "email", "ssl")

#: The public names of each package, unchanged by lazy resolution.
PUBLIC = {
    "repro": [
        "__version__", "Cluster", "ProcessorMap", "POLICIES", "EndGreedy",
        "EndLocal", "IteratedGreedy", "Policy", "ShortestTasksFirst",
        "TaskRuntime", "get_policy", "optimal_schedule",
        "redistribution_cost", "redistribution_rounds", "CapacityError",
        "ConfigurationError", "ReproError", "SimulationError", "FIGURES",
        "ScenarioConfig", "list_figures", "run_figure", "run_scenario",
        "RunRequest", "SerialExecutor", "PersistentPoolExecutor",
        "create_executor", "run_replicated_campaigns", "ExpectedTimeModel",
        "ExponentialFaults", "FaultInjector", "MultiPackScheduler",
        "OnlineBatchScheduler", "PackCostOracle", "Partition",
        "poisson_stream", "ResilienceModel", "YoungStrategy",
        "competitive_report", "fault_free_lower_bound",
        "validate_expected_time", "SimulationResult", "Simulator",
        "simulate", "Pack", "PaperSyntheticProfile", "SpeedupProfile",
        "TaskSpec", "WorkloadGenerator", "homogeneous_pack", "uniform_pack",
    ],
    "repro.engine": [
        "ENGINES", "DEFAULT_RETRY_POLICY", "Broker", "ChaosBroker",
        "ChaosCrash", "ChaosHTTPTransport", "EngineStats", "Executor",
        "FaultPlan", "FileBroker", "HTTPBroker", "PersistentPoolExecutor",
        "QueueExecutor", "ResultJournal", "RetryPolicy", "RunRequest",
        "SerialExecutor", "WorkloadCache", "connect_broker",
        "create_executor", "default_chunk_size", "ensure_executor",
        "ensure_journal", "execute_request", "shared_cache",
        "worker_identity",
    ],
    "repro.experiments": [
        "SCALES", "Scale", "ScenarioConfig", "get_scale", "FIGURES",
        "FigureResult", "FigureSpec", "TraceFigureResult", "list_figures",
        "run_figure", "FAULT_FREE_SERIES", "FAULT_SERIES", "ScenarioResult",
        "Series", "run_scenario", "scenario_requests", "render_figure",
        "render_table", "render_trace_figure", "PolicyComparison",
        "compare_policies",
    ],
    "repro.service": [
        "VirtualClock", "WallClock", "OnlineEngine", "JobState",
        "ServiceSession", "ServiceAPI", "ServiceServer", "SCHEMA_VERSION",
        "TraceEvent", "ReplayConfig", "ReplayResult", "generate_trace",
        "replay_reference", "replay_service", "canonical_bytes",
        "HostSampler", "latency_percentiles", "service_engine_stats",
    ],
}


def fresh(script: str):
    """Run ``script`` in a new interpreter; return its last stdout line as JSON."""
    path = os.pathsep.join([SRC] + [p for p in sys.path if p])
    completed = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout.strip().splitlines()[-1])


class TestImportSet:
    def test_run_path_loads_no_fabric_http_or_offline_layer(self):
        loaded = fresh(
            f"import json, sys\n{RUN_PATH}\n"
            f"print(json.dumps([m for m in {NOT_ON_RUN_PATH!r} if m in sys.modules]))"
        )
        assert loaded == []

    def test_queue_worker_loads_no_http_client(self):
        # A fleet worker on a file spool never speaks HTTP: the client
        # stack loads only when an HTTPTransport sends.
        loaded = fresh(
            "import json, sys\nimport repro.engine.worker\n"
            f"print(json.dumps([m for m in {HTTP_CLIENT!r} if m in sys.modules]))"
        )
        assert loaded == []

    def test_bare_import_loads_no_numpy(self):
        loaded = fresh(
            "import json, sys\nimport repro\n"
            "print(json.dumps(sorted(m for m in sys.modules"
            " if m == 'numpy' or m.startswith('repro.'))))"
        )
        assert loaded == ["repro._lazy", "repro.exceptions"]

    def test_registries_complete_through_the_lazy_path(self):
        registries = fresh(
            "import json\nimport repro, repro.engine\n"
            "print(json.dumps([sorted(repro.POLICIES), sorted(repro.FIGURES),"
            " list(repro.engine.ENGINES)]))"
        )
        assert registries == [sorted(POLICIES), sorted(FIGURES), list(ENGINES)]


class TestPublicNames:
    @pytest.mark.parametrize("package", sorted(PUBLIC))
    def test_all_is_unchanged(self, package):
        module = __import__(package, fromlist=["__all__"])
        assert module.__all__ == PUBLIC[package]
        assert dir(module) == sorted(PUBLIC[package])

    @pytest.mark.parametrize("first", ["getattr", "from-import"])
    @pytest.mark.parametrize("package", sorted(PUBLIC))
    def test_every_name_resolves(self, package, first):
        """Each name resolves on first access either way, to one object."""
        steps = {
            "getattr": "a = getattr(pkg, name); exec(stmt, ns); b = ns['value']",
            "from-import": "exec(stmt, ns); b = ns['value']; a = getattr(pkg, name)",
        }
        mismatched = fresh(
            "import importlib, json\n"
            f"pkg = importlib.import_module({package!r})\n"
            "bad = []\n"
            f"for name in {PUBLIC[package]!r}:\n"
            f"    ns, stmt = {{}}, f'from {package} import {{name}} as value'\n"
            f"    {steps[first]}\n"
            "    if a is not b or a is None:\n"
            "        bad.append(name)\n"
            "print(json.dumps(bad))"
        )
        assert mismatched == []

    @pytest.mark.parametrize("package", sorted(PUBLIC))
    def test_unknown_name_raises_attribute_error(self, package):
        module = __import__(package, fromlist=["__all__"])
        with pytest.raises(AttributeError, match="no_such_name"):
            getattr(module, "no_such_name")
        with pytest.raises(ImportError):
            exec(f"from {package} import no_such_name")

    def test_server_reexports_the_transport_free_api(self):
        from repro.service import ServiceAPI, api, server

        assert server.ServiceAPI is api.ServiceAPI is ServiceAPI
        assert server.SCHEMA_VERSION == api.SCHEMA_VERSION
