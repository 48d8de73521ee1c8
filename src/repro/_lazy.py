"""Package namespaces that import a public name's module on first access.

A hub ``__init__`` that imports every submodule makes each process pay
for the whole package whichever part it runs: ``import
repro.nws.series`` used to start the simulation kernel because
``repro/nws/__init__.py`` also re-exports the sensor.  A package that
declares its re-exports through :func:`lazy_exports` keeps every public
name importable from the same place (``from repro.core import
evaluate``) but loads the defining module only when the name is first
read (PEP 562), then caches it in the package namespace so the second
read is an ordinary attribute lookup.
"""

from __future__ import annotations

from importlib import import_module
from typing import Any, Callable, Dict, List, Mapping, Sequence, Tuple

__all__ = ["lazy_exports"]


def lazy_exports(
    namespace: Dict[str, Any], modules: Mapping[str, Sequence[str]]
) -> Tuple[List[str], Callable[[str], Any], Callable[[], List[str]]]:
    """``(__all__, __getattr__, __dir__)`` for a package's ``globals()``.

    ``modules`` maps each defining module to the names the package
    re-exports from it, in ``__all__`` order.
    """
    package = namespace["__name__"]
    origin = {name: module for module, names in modules.items() for name in names}

    def __getattr__(name: str) -> Any:
        try:
            module = origin[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        value = namespace[name] = getattr(import_module(module), name)
        return value

    def __dir__() -> List[str]:
        return sorted(namespace.keys() | origin.keys())

    return list(origin), __getattr__, __dir__
