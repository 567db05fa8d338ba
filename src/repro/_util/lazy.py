"""Lazy package exports (PEP 562).

A package ``__init__`` that re-exported every public name eagerly would
import every submodule, and with them scipy and networkx, on ``import
repro``.  :func:`lazy_exports` instead builds the module-level
``__getattr__`` / ``__dir__`` pair that imports a name's defining module on
first access and caches the value in the package namespace, so later
lookups are plain attribute reads::

    __getattr__, __dir__ = lazy_exports(__name__, {
        ".pooling": ("PooledDistribution", "pool_differential_cumulative"),
    }, submodules=("pooling",))
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, Iterable, Mapping

__all__ = ["lazy_exports"]


def lazy_exports(
    package: str,
    exports: Mapping[str, Iterable[str]],
    *,
    submodules: Iterable[str] = (),
) -> tuple[Callable[[str], object], Callable[[], list[str]]]:
    """The ``(__getattr__, __dir__)`` pair serving *package*'s lazy exports.

    *exports* maps a module path relative to *package* (``".pooling"``) to
    the names it defines; each name in *submodules* resolves to the
    subpackage or submodule ``package.name`` itself.
    """
    where: dict[str, str | None] = {name: module for module, names in exports.items() for name in names}
    for name in submodules:
        where[name] = None
    namespace = vars(sys.modules[package])

    def __getattr__(name: str) -> object:
        if name not in where:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        module = where[name]
        if module is None:
            value: object = importlib.import_module(f".{name}", package)
        else:
            value = getattr(importlib.import_module(module, package), name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted(set(namespace) | set(where))

    return __getattr__, __dir__
