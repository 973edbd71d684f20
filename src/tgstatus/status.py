"""Transfinite distances, geodesics, statuses and their bounds.

All quantities are computed through the replacement 0-graph: the
distance between two nodes is w^mu times the hop distance between their
0-nodes, any internal node of a section stands at its representative's
0-node, and the status of a node is the ordinal sum of its distances to
every nonsingleton mu-node and every section representative (plus any
included singletons).  With p 0-nodes and q branches every status lies
in [w^mu*(p-1), w^mu*((p-1)(p+2)/2 - q)].  A rank-0 graph is its own
0-graph: its status report holds the integer statuses of its nodes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from .finite_graph import BoundsResult, FiniteGraph, status_bounds_values
from .model import TransfiniteGraph, ValidationFailed, validate
from .ordinal import Ordinal, omega_term
from .replacement import AbstractPath, ReplacementResult, build_replacement

__all__ = [
    "KIND_MU_NODE",
    "KIND_NODE",
    "KIND_SECTION_REPRESENTATIVE",
    "StatusEntry",
    "StatusError",
    "StatusReport",
    "geodesic",
    "mu_distance",
    "mu_status",
    "mu_status_bounds",
    "status_report",
]

KIND_MU_NODE = "mu-node"
KIND_NODE = "node"
KIND_SECTION_REPRESENTATIVE = "section-representative"


class StatusError(ValueError):
    """A distance or status query that cannot be answered."""


@dataclass(frozen=True)
class StatusEntry:
    id: str
    kind: str
    status: int | Ordinal


@dataclass(frozen=True)
class StatusReport:
    """Statuses of every node of a graph, together with the bounds they are
    guaranteed to satisfy.

    At rank 0 the entries are the nodes of a finite graph (kind "node")
    and every value is an int.  At rank mu >= 1 they are the nonsingleton
    mu-nodes and section representatives, and every value is an Ordinal.
    """

    rank: int
    p: int
    q: int
    lower: int | Ordinal
    upper: int | Ordinal
    entries: tuple[StatusEntry, ...]
    achieved_lower: tuple[str, ...]
    achieved_upper: tuple[str, ...]
    included_singletons: tuple[str, ...] = ()

    def to_json_obj(self) -> dict[str, Any]:
        """The report as JSON: ordinals as text, rank-0 integers as numbers."""
        value = str if self.rank else int
        obj: dict[str, Any] = {
            "rank": self.rank,
            "p": self.p,
            "q": self.q,
            "lower": value(self.lower),
            "upper": value(self.upper),
            "nodes": [
                {"id": entry.id, "kind": entry.kind, "status": value(entry.status)}
                for entry in self.entries
            ],
            "achieved_lower": list(self.achieved_lower),
            "achieved_upper": list(self.achieved_upper),
        }
        if self.included_singletons:
            obj["included_singletons"] = list(self.included_singletons)
        return obj


def _check_source(graph: TransfiniteGraph, result: ReplacementResult) -> None:
    """A query reads the result of its own graph: result.source is graph."""
    if result.source is not graph:
        raise StatusError("the replacement result was built from another graph; pass result.source")


def _zero_node(graph: TransfiniteGraph, result: ReplacementResult, node_id: str) -> str:
    """0-node at which a mu-node or internal node stands; an internal node
    stands at its section's 0-node."""
    home = graph.section_of_internal(node_id)
    if home is not None:
        return home.representative
    if not graph.has_mu_node(node_id):
        raise StatusError(f"unknown node id {node_id!r}")
    if node_id not in result.graph._index:
        raise StatusError(
            f"no path-based distance exists for singleton mu-node {node_id!r}; "
            "it is not included in the replacement"
        )
    return node_id


def mu_distance(
    graph: TransfiniteGraph, result: ReplacementResult, a: str, b: str
) -> Ordinal:
    """The transfinite distance between two nodes.

    0 for nodes of one section (or a = b); otherwise w^mu times the hop
    distance between the corresponding 0-nodes.
    """
    _check_source(graph, result)
    node_a = _zero_node(graph, result, a)
    node_b = _zero_node(graph, result, b)
    return omega_term(graph.rank, result.graph.hop_distance(node_a, node_b))


def geodesic(
    graph: TransfiniteGraph, result: ReplacementResult, a: str, b: str
) -> AbstractPath:
    """A path realizing the distance between a and b.

    Ties among shortest paths break toward the lexicographically
    smallest 0-node sequence.  Undefined for endpoints at distance 0.
    """
    _check_source(graph, result)
    node_a = _zero_node(graph, result, a)
    node_b = _zero_node(graph, result, b)
    if node_a == node_b:
        raise StatusError(
            f"{a!r} and {b!r} are at distance 0 (same node or same section); "
            "no geodesic between distinct 0-nodes exists"
        )
    return AbstractPath(graph._elements(result.graph.shortest_path(node_a, node_b)))


def mu_status(graph: TransfiniteGraph, result: ReplacementResult, x: str) -> Ordinal:
    """The status of x: the ordinal sum of its distances to every
    nonsingleton mu-node, every section representative, and every
    included singleton (the self term contributes 0).

    The hop counts are the 0-graph's BFS row from x's 0-node, read by
    node index.  Each distinct distance w^mu*h is built once, for h up
    to the BFS depth of x: omega_term checks the rank once, building
    the h = 0 term, and the terms for h >= 1 are built unchecked.  The
    sum still takes one ordinal addition per 0-node.  Every distance is
    0 or one term at exponent mu, so once the sum is non-zero, adding a
    non-zero distance adds two one-term ordinals at one exponent, which
    Ordinal.__add__ does in one step."""
    _check_source(graph, result)
    if graph.has_mu_node(x) and not graph.mu_node(x).is_nonsingleton:
        raise StatusError(
            f"status is defined only for nonsingleton nodes; {x!r} is a singleton mu-node"
        )
    zero_graph = result.graph
    row = zero_graph._distances(zero_graph._node_index(_zero_node(graph, result, x)))
    mu = graph.rank
    steps = [omega_term(mu, 0)]
    steps += [Ordinal._of(((mu, hops),)) for hops in range(1, max(row) + 1)]
    total = Ordinal()
    for hops in row:
        total = total + steps[hops]
    return total


def mu_status_bounds(graph: TransfiniteGraph, result: ReplacementResult) -> BoundsResult:
    """Status bounds scaled by w^mu, from the replacement graph's p and q."""
    _check_source(graph, result)
    p, q = result.graph.p, result.graph.q
    lower, upper = status_bounds_values(p, q)
    return BoundsResult(
        p=p, q=q, lower=omega_term(graph.rank, lower), upper=omega_term(graph.rank, upper)
    )


def status_report(
    graph: TransfiniteGraph | FiniteGraph, walk_based: bool = False
) -> StatusReport:
    """Report every status of a graph and the bounds they satisfy.

    A finite (rank-0) graph reports every node in node order; it must be
    connected and have a node, else GraphError is raised.  A transfinite
    graph is validated, its replacement is built, and entries follow the
    replacement's 0-node order without the included singletons: the
    nonsingleton mu-nodes in declaration order, then the section
    representatives in section order.  Raises ValidationFailed when
    validation does not pass.  walk_based applies to transfinite graphs.
    """
    if isinstance(graph, FiniteGraph):
        rank, singletons = 0, ()
        bounds = graph.status_bounds()
        entries = [StatusEntry(node, KIND_NODE, graph.status(node)) for node in graph.nodes]
    else:
        report = validate(graph, walk_based)
        if not report.passed:
            raise ValidationFailed(report)
        rank, singletons = graph.rank, graph.include_singletons
        result = build_replacement(graph, walk_based=walk_based)
        bounds = mu_status_bounds(graph, result)
        kinds = {"mu-node": KIND_MU_NODE, "section": KIND_SECTION_REPRESENTATIVE}
        entries = [
            StatusEntry(node, kinds[kind], mu_status(graph, result, node))
            for node in result.graph.nodes
            if (kind := result.origin(node)[0]) != "singleton"
        ]
    return StatusReport(
        rank=rank,
        p=bounds.p,
        q=bounds.q,
        lower=bounds.lower,
        upper=bounds.upper,
        entries=tuple(entries),
        achieved_lower=tuple(e.id for e in entries if e.status == bounds.lower),
        achieved_upper=tuple(e.id for e in entries if e.status == bounds.upper),
        included_singletons=singletons,
    )
