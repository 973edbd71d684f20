"""Statuses (sums of distances) in finite and transfinite graphs.

The rank-0 layer covers ordinary finite graphs: BFS distances, the status
of a node, and the sharp bounds p - 1 <= s(x) <= (p - 1)(p + 2)/2 - q on
connected graphs.  The transfinite layer models rank-mu graphs built from
sections and mu-nodes, replaces them by a finite 0-graph, and computes
statuses as ordinals of the form w^mu * n with the scaled bounds
w^mu * (p - 1) <= s(x) <= w^mu * ((p - 1)(p + 2)/2 - q).
"""

from .finite_graph import (
    BoundsResult,
    FiniteGraph,
    GraphError,
    MAX_ENUMERATION_NODES,
    Witness,
    count_bound_violations,
    enumerate_connected_graphs,
    extremal_search,
    status_bounds_values,
)
from .model import (
    DocumentError,
    InternalNode,
    MuNode,
    Section,
    Tip,
    TransfiniteGraph,
    ValidationFailed,
    ValidationReport,
    Violation,
    load_document,
    parse_document,
    parse_finite_document,
    rank0_document,
    validate,
)
from .ordinal import (
    Ordinal,
    OrdinalParseError,
    ZERO,
    format_ordinal,
    omega_term,
    parse_ordinal,
)
from .replacement import (
    AbstractPath,
    PathError,
    ReplacementResult,
    build_replacement,
    iter_simple_paths,
    path_mu_length,
    translate_path,
)
from .status import (
    KIND_MU_NODE,
    KIND_SECTION_REPRESENTATIVE,
    MuBounds,
    StatusEntry,
    StatusError,
    StatusReport,
    geodesic,
    mu_distance,
    mu_status,
    mu_status_bounds,
    status_report,
)

__version__ = "0.1.0"

__all__ = [
    "AbstractPath",
    "BoundsResult",
    "DocumentError",
    "FiniteGraph",
    "GraphError",
    "InternalNode",
    "KIND_MU_NODE",
    "KIND_SECTION_REPRESENTATIVE",
    "MAX_ENUMERATION_NODES",
    "MuBounds",
    "MuNode",
    "Ordinal",
    "OrdinalParseError",
    "PathError",
    "ReplacementResult",
    "Section",
    "StatusEntry",
    "StatusError",
    "StatusReport",
    "Tip",
    "TransfiniteGraph",
    "ValidationFailed",
    "ValidationReport",
    "Violation",
    "Witness",
    "ZERO",
    "build_replacement",
    "count_bound_violations",
    "enumerate_connected_graphs",
    "extremal_search",
    "format_ordinal",
    "geodesic",
    "iter_simple_paths",
    "load_document",
    "mu_distance",
    "mu_status",
    "mu_status_bounds",
    "omega_term",
    "parse_document",
    "parse_finite_document",
    "parse_ordinal",
    "path_mu_length",
    "rank0_document",
    "status_bounds_values",
    "status_report",
    "translate_path",
    "validate",
    "__version__",
]
