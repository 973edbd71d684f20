"""Statuses (sums of distances) in finite and transfinite graphs.

The rank-0 layer covers ordinary finite graphs: BFS distances, the status
of a node, and the sharp bounds p - 1 <= s(x) <= (p - 1)(p + 2)/2 - q on
connected graphs.  The transfinite layer models rank-mu graphs built from
sections and mu-nodes, replaces them by a finite 0-graph, and computes
statuses as ordinals of the form w^mu * n with the scaled bounds
w^mu * (p - 1) <= s(x) <= w^mu * ((p - 1)(p + 2)/2 - q).

Importing the package loads the rank-0 layer only.  A transfinite module
loads on first use of its name or of a name in its ``__all__``, and its
exports are then bound here as a star import would bind them.
"""

import sys
from importlib import import_module
from types import ModuleType

from . import finite_graph
from .finite_graph import *

__version__ = "0.1.0"

# The transfinite modules, in the order of their names in __all__.
_LAZY = ("model", "ordinal", "replacement", "status")


class _Package(ModuleType):
    def __setattr__(self, name: str, value: object) -> None:
        # The import system sets each loaded submodule here, whichever
        # route loaded it, so a transfinite module's exports are bound
        # before anyone can patch them, as a star import would bind them.
        super().__setattr__(name, value)
        if name in _LAZY:
            vars(self).update((export, getattr(value, export)) for export in value.__all__)


sys.modules[__name__].__class__ = _Package


def _exports() -> list[str]:
    """Every module's ``__all__`` in module order, then ``__version__``."""
    exports = [*finite_graph.__all__]
    for module_name in _LAZY:
        exports += import_module(f"{__name__}.{module_name}").__all__
    return [*exports, "__version__"]


def __getattr__(name: str):
    if name in _LAZY:
        return import_module(f"{__name__}.{name}")
    if name == "__all__":
        globals()["__all__"] = exports = _exports()
        return exports
    if not name.startswith("__"):
        for module_name in _LAZY:
            module = import_module(f"{__name__}.{module_name}")
            if name in module.__all__:
                return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_exports()})
