"""Lazy package re-exports (PEP 562).

A package ``__init__`` lists its public names in ``__all__`` and maps
each defining submodule to the names it re-exports::

    __getattr__, __dir__ = lazy_exports(__name__, {"cube": ("Cube",)})

The submodule is imported on the first access of one of its names, so
importing one module of a package no longer compiles every sibling.
No export may share its name with a submodule: importing that submodule
rebinds the package attribute to the module, after which ``__getattr__``
is never consulted again.
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, Dict, Iterable, List, Tuple


def lazy_exports(
    package: str, exports: Dict[str, Iterable[str]]
) -> Tuple[Callable[[str], object], Callable[[], List[str]]]:
    """The ``__getattr__`` and ``__dir__`` of ``package``.

    ``exports`` maps a submodule name relative to ``package`` to the
    names it defines.  A resolved name is cached in the package
    namespace, so each costs one ``__getattr__`` call.
    """
    origin = {name: module for module, names in exports.items() for name in names}

    def __getattr__(name: str) -> object:
        module = origin.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(f"{package}.{module}"), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> List[str]:
        return sorted(set(vars(sys.modules[package])) | set(origin))

    return __getattr__, __dir__
