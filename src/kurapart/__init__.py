"""Phase synchronisation analysis for frustrated Kuramoto dynamics on graphs."""

from . import bipartition_analysis, dynamics, errors, graph_core
from .bipartition_analysis import *  # noqa: F401,F403
from .dynamics import *  # noqa: F401,F403
from .errors import *  # noqa: F401,F403
from .graph_core import *  # noqa: F401,F403

__version__ = "0.1.0"

# each module's own export list is the one copy of its public names
__all__ = [*errors.__all__, *graph_core.__all__, *dynamics.__all__, *bipartition_analysis.__all__]
