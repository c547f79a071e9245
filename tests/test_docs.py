"""Documentation smoke tests: engine doc coverage + markdown links.

Two cheap gates for the documentation suite:

* ``pydoc repro.engine`` must read as a coherent contract — every
  public name of the engine surface (and the methods of the executor,
  statistics and broker classes) carries a docstring;
* the markdown documentation (``README.md``, ``docs/*.md``) must not
  contain dangling relative links or reference non-existent repo
  files.

CI's docs job runs this file alongside executing the README quickstart
and the three-executor figure pin.
"""

from __future__ import annotations

import inspect
import re
from pathlib import Path

import pytest

import repro.engine as engine

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Markdown files whose links (and existence) are checked.
DOC_FILES = ("README.md", "docs/ARCHITECTURE.md", "docs/BENCHMARKS.md")

#: Public classes whose methods must each carry a docstring.
DOCUMENTED_CLASSES = (
    engine.Executor,
    engine.EngineStats,
    engine.SerialExecutor,
    engine.PersistentPoolExecutor,
    engine.QueueExecutor,
    engine.Broker,
    engine.FileBroker,
    engine.HTTPBroker,
    engine.RunRequest,
    engine.WorkloadCache,
)


class TestEngineDocCoverage:
    """The public engine surface reads as a contract under pydoc."""

    def test_engine_module_docstrings(self):
        import repro.engine.broker
        import repro.engine.broker_server
        import repro.engine.cache
        import repro.engine.executors
        import repro.engine.http_broker
        import repro.engine.queue_exec
        import repro.engine.request
        import repro.engine.worker

        for module in (
            engine,
            repro.engine.broker,
            repro.engine.broker_server,
            repro.engine.cache,
            repro.engine.executors,
            repro.engine.http_broker,
            repro.engine.queue_exec,
            repro.engine.request,
            repro.engine.worker,
        ):
            assert module.__doc__ and module.__doc__.strip(), module.__name__

    def test_every_public_name_has_a_docstring(self):
        for name in engine.__all__:
            obj = getattr(engine, name)
            if not callable(obj):
                continue  # data members (ENGINES, shared_cache)
            assert obj.__doc__ and obj.__doc__.strip(), (
                f"repro.engine.{name} has no docstring"
            )

    @pytest.mark.parametrize(
        "cls", DOCUMENTED_CLASSES, ids=lambda c: c.__name__
    )
    def test_public_methods_have_docstrings(self, cls):
        for name, member in inspect.getmembers(cls):
            if name.startswith("_"):
                continue
            if not (inspect.isfunction(member) or inspect.ismethod(member)):
                continue
            if member.__qualname__.split(".")[0] != cls.__name__:
                continue  # inherited: documented on the defining class
            assert member.__doc__ and member.__doc__.strip(), (
                f"{cls.__name__}.{name} has no docstring"
            )

    def test_map_stream_and_stats_specifically(self):
        # The names the documentation suite leans on hardest.
        assert "start_index" in engine.Executor.map_stream.__doc__
        assert "cache_info" in engine.EngineStats.__doc__
        assert "seed" in engine.RunRequest.__doc__


class TestMarkdownDocs:
    """README and docs/ exist and their relative links resolve."""

    @pytest.mark.parametrize("doc", DOC_FILES)
    def test_doc_exists_and_is_nonempty(self, doc):
        path = REPO_ROOT / doc
        assert path.is_file() and path.stat().st_size > 500, doc

    @pytest.mark.parametrize("doc", DOC_FILES)
    def test_relative_links_resolve(self, doc):
        path = REPO_ROOT / doc
        text = path.read_text(encoding="utf-8")
        dangling = []
        for match in re.finditer(r"\[[^\]]+\]\(([^)\s]+)\)", text):
            target = match.group(1)
            if target.startswith(("http://", "https://", "mailto:", "#")):
                continue
            resolved = (path.parent / target.split("#", 1)[0]).resolve()
            if not resolved.exists():
                dangling.append(target)
        assert not dangling, f"{doc}: dangling links {dangling}"

    def test_readme_names_every_engine(self):
        text = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
        for name in engine.ENGINES:
            assert name in text, f"README.md does not mention engine {name!r}"

    def test_architecture_covers_the_reference_modes(self):
        text = (REPO_ROOT / "docs" / "ARCHITECTURE.md").read_text(
            encoding="utf-8"
        )
        for mode in ("Simulator(reference=True)", "serial", "VirtualClock"):
            assert mode in text, f"ARCHITECTURE.md misses {mode}"

    def test_benchmarks_doc_covers_every_bench_module(self):
        text = (REPO_ROOT / "docs" / "BENCHMARKS.md").read_text(
            encoding="utf-8"
        )
        for bench in sorted(REPO_ROOT.glob("benchmarks/bench_*.py")):
            stem = bench.stem
            if stem.startswith("bench_fig"):
                continue  # covered collectively as bench_fig05..14
            assert stem in text, f"BENCHMARKS.md misses {stem}"
        for baseline in sorted(REPO_ROOT.glob("BENCH_*.json")):
            assert baseline.name in text, (
                f"BENCHMARKS.md misses {baseline.name}"
            )
