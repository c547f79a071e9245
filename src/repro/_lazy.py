"""Re-exports a package resolves on first access (PEP 562).

A package ``__init__`` imports eagerly only the modules its run path
executes and lists every other public name in a ``{name: submodule}``
table::

    __getattr__, __dir__ = lazy_exports(globals(), {"ServiceServer": "server"})

``pkg.ServiceServer`` and ``from pkg import ServiceServer`` then import
``pkg.server`` on first use and cache the name in the package, so later
lookups never reach ``__getattr__`` again.  ``dir(pkg)`` is ``__all__``.
"""

from __future__ import annotations

from importlib import import_module
from typing import Callable, Dict, List, Tuple


def lazy_exports(
    namespace: Dict[str, object], table: Dict[str, str]
) -> Tuple[Callable[[str], object], Callable[[], List[str]]]:
    """The ``__getattr__`` and ``__dir__`` of the package owning ``namespace``."""
    package = namespace["__name__"]

    def __getattr__(name: str) -> object:
        submodule = table.get(name)
        if submodule is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(import_module(f"{package}.{submodule}"), name)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return list(namespace["__all__"])

    return __getattr__, __dir__
