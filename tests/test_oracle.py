"""The seed-literal oracle lives in one module, outside the hot code.

:mod:`repro.oracle` holds the reference every fast path is pinned
against.  These tests keep it there: no module of ``repro.core``,
``repro.simulation`` or ``repro.resilience`` takes a ``reference``
argument or carries a ``reference`` attribute, no production module
imports the oracle, and running the oracle on a model that the fast
simulator also uses leaves that model as it was.
"""

import ast
import importlib
from pathlib import Path

import numpy as np
import pytest

from repro.cluster import Cluster
from repro.core import EndLocal, TaskRuntime, greedy_rebuild, optimal_schedule
from repro.oracle import (
    ReferenceEndGreedy,
    ReferenceEndLocal,
    ReferenceIteratedGreedy,
    ReferenceShortestTasksFirst,
    ReferenceSimulator,
)
from repro.resilience import ExpectedTimeModel
from repro.simulation import Simulator
from repro.tasks import uniform_pack

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

#: The packages whose hot functions must not branch on a reference mode.
HOT_PACKAGES = ("core", "simulation", "resilience")

BANNED_NAMES = {"reference", "_reference"}

#: Names of an Eq. 4 kernel, the alpha quantum and the reference
#: expression, past and present: only ``repro.resilience.expected_time``
#: (the model) and ``repro.oracle`` (the reference) may hold them.
EQ4_NAMES = {
    "stacked_raw_profiles", "fused_raw_rows", "_eq4_rows",
    "_ALPHA_SCALE", "_ALPHA_QUANTUM",
}


def _module_name(path: Path) -> str:
    parts = path.relative_to(SRC.parent).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _imported_modules(tree: ast.Module, module: str, is_package: bool):
    """Absolute names of every module an ``import`` statement names."""
    package = module if is_package else module.rpartition(".")[0]
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                anchor = package.split(".")
                anchor = anchor[: len(anchor) - node.level + 1]
                base = ".".join(anchor + ([base] if base else []))
            yield base
            for alias in node.names:
                yield f"{base}.{alias.name}"


def _reference_sites(tree: ast.Module):
    """``(line, what)`` of every reference argument, keyword or attribute."""
    for node in ast.walk(tree):
        if isinstance(node, ast.arguments):
            for arg in node.posonlyargs + node.args + node.kwonlyargs:
                if arg.arg in BANNED_NAMES:
                    yield arg.lineno, f"parameter {arg.arg!r}"
        elif isinstance(node, ast.keyword) and node.arg in BANNED_NAMES:
            yield node.value.lineno, f"keyword {node.arg}="
        elif isinstance(node, ast.Attribute) and node.attr in BANNED_NAMES:
            yield node.lineno, f"attribute .{node.attr}"


def _names(tree: ast.Module):
    """``(line, name)`` of every defined, imported or referenced name."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.lineno, node.name
        elif isinstance(node, ast.Name):
            yield node.lineno, node.id
        elif isinstance(node, ast.Attribute):
            yield node.lineno, node.attr
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield node.lineno, alias.name.rpartition(".")[2]


def _modules(*packages):
    for package in packages:
        yield from sorted((SRC / package).rglob("*.py"))


class TestOracleIsolation:
    @pytest.mark.parametrize(
        "path",
        list(_modules(*HOT_PACKAGES)),
        ids=lambda p: _module_name(p).partition(".")[2],
    )
    def test_no_reference_sites(self, path):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        sites = [
            f"{path.name}:{line}: {what}"
            for line, what in _reference_sites(tree)
        ]
        assert not sites, sites

    def test_no_production_module_imports_the_oracle(self):
        offenders = []
        for path in sorted(SRC.rglob("*.py")):
            if path.name == "oracle.py" and path.parent == SRC:
                continue
            module = _module_name(path)
            tree = ast.parse(path.read_text(encoding="utf-8"))
            names = _imported_modules(
                tree, module, path.name == "__init__.py"
            )
            if any(
                name == "repro.oracle" or name.startswith("repro.oracle.")
                for name in names
            ):
                offenders.append(module)
        assert not offenders, offenders

    def test_one_eq4_kernel_and_one_alpha_key(self):
        # The model holds the one production Eq. 4 expression and the
        # alpha quantum; the reference expression lives in the oracle.
        owners = {"repro.resilience.expected_time", "repro.oracle"}
        offenders = []
        for path in sorted(SRC.rglob("*.py")):
            module = _module_name(path)
            if module in owners:
                continue
            tree = ast.parse(path.read_text(encoding="utf-8"))
            offenders += [
                f"{module}:{line}: {name}"
                for line, name in _names(tree) if name in EQ4_NAMES
            ]
        assert not offenders, offenders
        tree = ast.parse((SRC / "oracle.py").read_text(encoding="utf-8"))
        defined = {
            node.name for node in tree.body if isinstance(node, ast.FunctionDef)
        }
        assert "stacked_raw_profiles" in defined

    def test_profile_backends_module_is_gone(self):
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.resilience.profile_backends")

    def test_guard_sees_the_sites_it_bans(self):
        # The AST walk itself: each banned form is reported once.
        tree = ast.parse(
            "def f(x, reference=False):\n"
            "    self._reference = reference\n"
            "    g(reference=True)\n"
            "from .. import oracle\n"
        )
        kinds = sorted(what for _, what in _reference_sites(tree))
        assert kinds == [
            "attribute ._reference", "keyword reference=",
            "parameter 'reference'",
        ]
        names = set(_imported_modules(tree, "repro.core.optimal", False))
        assert "repro.oracle" in names
        eq4 = ast.parse(
            "from ..resilience.expected_time import _ALPHA_SCALE\n"
            "def fused_raw_rows(): pass\n"
            "raw = model._eq4_rows(x)\n"
            "rows = stacked_raw_profiles(grids, a)\n"
        )
        found = sorted(name for _, name in _names(eq4) if name in EQ4_NAMES)
        assert found == [
            "_ALPHA_SCALE", "_eq4_rows", "fused_raw_rows",
            "stacked_raw_profiles",
        ]

    def test_reference_keywords_are_gone(self):
        pack, cluster, model = _workload(0)
        runtimes = _runtimes(model, 16)
        calls = (
            lambda: Simulator(pack, cluster, reference=True),
            lambda: ExpectedTimeModel(pack, cluster, reference=True),
            lambda: optimal_schedule(model, 16, reference=True),
            lambda: greedy_rebuild(model, 1.0, runtimes, 16, reference=True),
            lambda: EndLocal().apply(model, 1.0, runtimes, 2, reference=True),
        )
        for call in calls:
            with pytest.raises(TypeError):
                call()


def _workload(seed):
    pack = uniform_pack(5, m_inf=150.0, m_sup=260.0, seed=seed)
    cluster = Cluster.with_mtbf_years(16, 0.002)
    return pack, cluster, ExpectedTimeModel(pack, cluster)


def _runtimes(model, p):
    sigma = optimal_schedule(model, p)
    runtimes = []
    for i, spec in enumerate(model.pack):
        rt = TaskRuntime(spec)
        rt.assign(sigma[i])
        rt.t_expected = model.expected_time(i, sigma[i], 1.0)
        runtimes.append(rt)
    return runtimes


class TestReferenceSimulator:
    @pytest.mark.parametrize("policy", ["ig-el", "stf-eg"])
    def test_leaves_a_shared_model_as_it_is(self, policy):
        pack, cluster, model = _workload(0)
        fast = Simulator(pack, cluster, policy, seed=0, model=model).run()
        before = dict(vars(model))
        inserted = list(model._inserted)
        ref = ReferenceSimulator(
            pack, cluster, policy, seed=0, model=model
        ).run()
        assert ref.failures_effective > 0
        assert type(model) is ExpectedTimeModel
        assert vars(model).keys() == before.keys()
        for name, value in before.items():
            assert vars(model)[name] is value, name
        assert list(model._inserted) == inserted
        # The default path on the same model still runs the same events.
        again = Simulator(pack, cluster, policy, seed=0, model=model).run()
        assert again.makespan == fast.makespan == ref.makespan
        assert np.array_equal(again.completion_times, ref.completion_times)

    def test_policy_maps_onto_the_scalar_bodies(self):
        pack, cluster, _ = _workload(0)
        sim = ReferenceSimulator(pack, cluster, "stf-eg", seed=0)
        assert sim.policy.name == "stf-eg"
        assert type(sim.policy.completion) is ReferenceEndGreedy
        assert type(sim.policy.failure) is ReferenceShortestTasksFirst
        assert sim.policy.failure.name == "shortest-tasks-first"
        sim.start()
        child = sim.fork("ig-el")
        assert type(child.policy.completion) is ReferenceEndLocal
        assert type(child.policy.failure) is ReferenceIteratedGreedy
        assert child.policy.completion.name == "end-local"
        assert type(sim.policy.completion) is ReferenceEndGreedy
