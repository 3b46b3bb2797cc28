"""Lazy export tables for the package facades (PEP 562).

A facade declares ``{".submodule": (names, ...)}`` — the key is what would
follow ``from`` in an import statement, ``"."`` for names that are
submodules themselves — and serves it through :func:`lazy_exports`, so
importing one submodule of a package does not load its siblings.
"""

from __future__ import annotations

import sys
from collections.abc import Callable, Mapping, Sequence
from importlib import import_module
from types import ModuleType
from typing import Any


def lazy_exports(
    package: str, table: Mapping[str, Sequence[str]]
) -> tuple[Callable[[str], Any], Callable[[], list[str]], list[str]]:
    """``__getattr__, __dir__, __all__`` serving ``table`` for ``package``."""
    origin = {name: sub for sub, names in table.items() for name in names}
    namespace = vars(sys.modules[package])

    def __getattr__(name: str) -> Any:
        sub = origin.get(name)
        if sub is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        if sub == ".":
            value: Any = import_module(f".{name}", package)
        else:
            value = getattr(import_module(sub, package), name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted(namespace.keys() | origin.keys())

    # The import system binds a loaded submodule on its package, which
    # would hide an export of the same name: the package drops that one
    # binding, and the export still resolves here on first use.
    shadowed = {name for name, sub in origin.items() if sub == f".{name}"}
    if shadowed:
        class Facade(ModuleType):
            def __setattr__(self, name: str, value: Any) -> None:
                if name not in shadowed or not isinstance(value, ModuleType):
                    super().__setattr__(name, value)

        sys.modules[package].__class__ = Facade
    return __getattr__, __dir__, list(origin)
