"""Phase synchronisation analysis for frustrated Kuramoto dynamics on graphs.

The package exports the public names of its four modules: `errors`,
`graph_core` (graphs, partitions, equitable refinement), `dynamics`
(integration and sync detection) and `bipartition_analysis` (the exact
two-block classifier and its search).  Each module is imported the first
time it, or one of its names, is looked up on the package (PEP 562), so
`import kurapart` loads no module: `import kurapart.cli` loads
`graph_core` and `errors`, and each subcommand imports the rest it uses.
A name is found in one table, `_EXPORTS`, so looking it up imports only the
module that defines it (and what that module imports), and a name not in
the table imports nothing.  Each module's `__all__` is its row of the table,
and the package's `__all__` is all of them, so `from kurapart import *`
imports all four.
"""

from typing import TYPE_CHECKING

__version__ = "0.1.0"

# every exported name, once, under the module that defines it
_EXPORTS = {
    "errors": (
        "KurapartError",
        "EmptyGraphError",
        "SelfLoopError",
        "VertexOutOfRangeError",
        "DisconnectedError",
        "PartitionMismatchError",
        "NotBipartitionError",
        "TooLargeError",
        "BadParameterError",
        "DimensionMismatchError",
        "StepUnderflowError",
        "NonFiniteStateError",
        "EmptyTrajectoryError",
        "TooShortError",
        "InfeasibleMuError",
        "NoCertificateError",
        "FormatError",
    ),
    "graph_core": (
        "Graph",
        "VertexPartition",
        "DegreeProfile",
        "QuotientMatrix",
        "from_edge_list",
        "degree_profile",
        "is_equitable",
        "coarsest_equitable_refinement",
        "linear_family_graph",
        "latoro_profile_graph",
        "right_angle_profile_graph",
        "star_graph",
        "cycle_graph",
        "complete_graph",
        "path_graph",
        "petersen_graph",
        "read_edge_list",
        "partition_from_json",
    ),
    "dynamics": (
        "ModelParams",
        "IntegratorConfig",
        "RunStats",
        "Trajectory",
        "LinearTrajectory",
        "SyncReport",
        "kuramoto_rhs",
        "quotient_rhs",
        "integrate",
        "integrate_quotient",
        "lift_quotient_trajectory",
        "asymptotic_sync_clusters",
        "analytic_regular_solution",
        "residual_max",
        "trajectory_to_csv",
    ),
    "bipartition_analysis": (
        "Classification",
        "SolutionSet",
        "AlphaResult",
        "Condition2Certificate",
        "FamilySegment",
        "BipartitionClassification",
        "SearchReport",
        "alpha_from_mu",
        "beta_from_mu",
        "classify_bipartition",
        "certificate_to_solution",
        "verify_certificate",
        "search_all_bipartitions",
        "bipartition_from_mask",
        "classification_report",
        "format_search_report",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

if TYPE_CHECKING:
    from .bipartition_analysis import *  # noqa: F401,F403
    from .dynamics import *  # noqa: F401,F403
    from .errors import *  # noqa: F401,F403
    from .graph_core import *  # noqa: F401,F403


def __getattr__(name: str):
    # `from kurapart import cli` asks for cli here before importing it
    if name in (*_EXPORTS, "cli"):
        # __import__, not importlib.import_module, so -X importtime reports it
        __import__(f"{__name__}.{name}")
        return globals()[name]
    if name == "__all__":
        value = list(_MODULE_OF)
    elif name in _MODULE_OF:
        value = getattr(__getattr__(_MODULE_OF[name]), name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_MODULE_OF})
