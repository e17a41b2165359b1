"""Phase synchronisation analysis for frustrated Kuramoto dynamics on graphs.

The package exports the public names of its four modules: `errors`,
`graph_core` (graphs, partitions, equitable refinement), `dynamics`
(integration and sync detection) and `bipartition_analysis` (the exact
two-block classifier and its search).  Each module is imported the first
time it, or one of its names, is looked up on the package (PEP 562), so
`import kurapart` loads no module: `import kurapart.cli` loads
`graph_core` and `errors`, and each subcommand imports the rest it uses.
`__all__` is the union of the modules' own `__all__` lists, built on first
access, so `from kurapart import *` imports all four.
"""

import importlib
from typing import TYPE_CHECKING

__version__ = "0.1.0"

# the modules whose names the package exports, in import-cost order: a name
# is looked for in each in turn, so a graph_core name loads neither the
# integrator nor the bipartition layer (a bipartition_analysis name loads both)
_MODULES = ("errors", "graph_core", "dynamics", "bipartition_analysis")

if TYPE_CHECKING:
    from .bipartition_analysis import *  # noqa: F401,F403
    from .dynamics import *  # noqa: F401,F403
    from .errors import *  # noqa: F401,F403
    from .graph_core import *  # noqa: F401,F403


def __getattr__(name: str):
    # `from kurapart import cli` asks for cli here before importing it, and
    # the search below would load every layer before failing
    if name in (*_MODULES, "cli"):
        return importlib.import_module(f"{__name__}.{name}")
    if name == "__all__":
        value = [n for m in _MODULES for n in __getattr__(m).__all__]
    else:
        for module in map(__getattr__, _MODULES):
            if name in module.__all__:
                value = getattr(module, name)
                break
        else:
            raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__getattr__("__all__")})
