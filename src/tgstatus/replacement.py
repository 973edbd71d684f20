"""Replacement of a transfinite graph by a finite 0-graph.

Each nonsingleton mu-node becomes a 0-node, each section is collapsed to
a 0-node standing for its representative, and one branch joins them per
incidence, so every section turns into a star centered at its
representative.  An optionally included singleton mu-node becomes a leaf
attached to the center of its home section.  Hop distances in the result,
scaled by w^mu, reproduce the transfinite distances of the source graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .finite_graph import FiniteGraph, GraphError
from .model import TransfiniteGraph, ValidationFailed, validate
from .ordinal import Ordinal, omega_term

__all__ = [
    "AbstractPath",
    "PathError",
    "ReplacementResult",
    "build_replacement",
    "iter_simple_paths",
    "path_mu_length",
    "translate_path",
]


class PathError(ValueError):
    """A path is inconsistent with the graph it is evaluated against."""


@dataclass(frozen=True)
class AbstractPath:
    """A path at section / mu-node granularity.

    Elements alternate between section ids and mu-node ids, consecutive
    elements are incident, and no element repeats.  Travel inside a
    section is free, so this granularity captures everything that
    contributes to a transfinite length.
    """

    elements: tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "elements", tuple(self.elements))


@dataclass(frozen=True)
class ReplacementResult:
    """A finite 0-graph plus its source graph, which the result keeps
    alive to answer ``zero_node`` and ``origin``.  The graph must be
    connected, else GraphError is raised, so every distance and status
    read from a result is defined.
    """

    graph: FiniteGraph
    source: TransfiniteGraph

    def __post_init__(self) -> None:
        if not self.graph.is_connected():
            raise GraphError("the replacement graph is not connected")

    def zero_node(self, element: str) -> str | None:
        """The 0-node of a section (its representative) or of a mu-node
        or included singleton in the graph (itself), else None."""
        if element in self.graph._index and self.source.has_mu_node(element):
            return element
        section = self.source._section_index.get(element)
        return section.representative if section else None

    def origin(self, node: str) -> tuple[str, str]:
        """``(kind, element)`` of a 0-node, kind ``"mu-node"``,
        ``"section"`` or ``"singleton"``; GraphError for a node off the graph."""
        self.graph._node_index(node)
        section = self.source.section_of_internal(node)
        if section is not None:
            return "section", section.id
        return ("mu-node" if self.source.mu_node(node).is_nonsingleton else "singleton"), node


def build_replacement(
    graph: TransfiniteGraph, *, walk_based: bool = False
) -> ReplacementResult:
    """The replacement 0-graph of a validated transfinite graph.

    0-nodes reuse source identifiers: a nonsingleton mu-node keeps its
    id, a section is represented by its representative's id, an included
    singleton keeps its id.  Nodes are ordered mu-nodes first, then
    sections, then singletons, each in declaration order.  Raises
    ValidationFailed when validation (in the given mode) does not pass.
    The result shares the graph's cached 0-graph, which is read-only.
    """
    report = validate(graph, walk_based)
    if not report.passed:
        raise ValidationFailed(report)
    return ReplacementResult(graph._zero_graph, graph)


def _resolve_elements(
    graph: TransfiniteGraph, path: AbstractPath
) -> list[tuple[str, str]]:
    """Classify path elements as ('section' | 'mu', id) and check validity."""
    if not path.elements:
        raise PathError("a path needs at least one element")
    resolved: list[tuple[str, str]] = []
    seen: set[str] = set()
    for element in path.elements:
        if element in seen:
            raise PathError(f"element {element!r} repeats; paths are simple")
        seen.add(element)
        if graph.has_section(element):
            resolved.append(("section", element))
        elif graph.has_mu_node(element):
            resolved.append(("mu", element))
        else:
            raise PathError(f"element {element!r} is neither a section nor a mu-node")
    for (kind_a, id_a), (kind_b, id_b) in zip(resolved, resolved[1:]):
        if kind_a == kind_b:
            raise PathError(
                f"consecutive elements {id_a!r} and {id_b!r} do not alternate "
                "between sections and mu-nodes"
            )
        mu_id, section_id = (id_a, id_b) if kind_a == "mu" else (id_b, id_a)
        if section_id not in graph.mu_node(mu_id).incident_sections:
            raise PathError(f"mu-node {mu_id!r} is not incident to section {section_id!r}")
    return resolved


def path_mu_length(graph: TransfiniteGraph, path: AbstractPath) -> Ordinal:
    """The transfinite length w^mu * n of a path.

    n counts incidences with mu-nodes.  Sections and mu-nodes alternate,
    so each consecutive pair is one incidence and n = len(elements) - 1.
    """
    return omega_term(graph.rank, len(_resolve_elements(graph, path)) - 1)


def translate_path(result: ReplacementResult, path: AbstractPath) -> list[str]:
    """The corresponding 0-node sequence in the replacement graph.

    Its branch count equals the incidence count of the source path.
    Fails on elements without a 0-node counterpart, in particular on
    singleton mu-nodes that were not included in the replacement.
    """
    if not path.elements:
        raise PathError("a path needs at least one element")
    sequence = [result.zero_node(element) for element in path.elements]
    if None in sequence:
        raise PathError(
            f"element {path.elements[sequence.index(None)]!r} has no replacement 0-node "
            "(unknown id or a singleton mu-node that is not included)"
        )
    if len(set(sequence)) != len(sequence):
        raise PathError("path visits a 0-node twice")
    for u, v in zip(sequence, sequence[1:]):
        if not result.graph.has_edge(u, v):
            raise PathError(f"0-nodes {u!r} and {v!r} are not adjacent")
    return sequence


def iter_simple_paths(
    graph: TransfiniteGraph, *, include_trivial: bool = False
) -> Iterator[AbstractPath]:
    """Enumerate every simple path over sections, nonsingleton mu-nodes
    and included singletons, in deterministic order.

    Both orientations of each path are produced.  Intended for
    desk-scale instances; the count grows quickly with density.  Simple
    paths ignore nondisconnectable tips, so the graph is validated in
    walk mode; one that fails, a disconnected one included, raises
    ValidationFailed.
    """
    result = build_replacement(graph, walk_based=True)
    neighbors, elements = result.graph.neighbors, graph._elements
    # A depth-first walk in pre-order, kept iterative so that a long path
    # does not nest one frame per element: branches[i] holds the
    # neighbours of trail[i] still to try.
    for start in result.graph.nodes:
        if include_trivial:
            yield AbstractPath(elements([start]))
        trail = [start]
        branches = [iter(neighbors(start))]
        while branches:
            for neighbor in branches[-1]:
                if neighbor not in trail:
                    trail.append(neighbor)
                    yield AbstractPath(elements(trail))
                    branches.append(iter(neighbors(neighbor)))
                    break
            else:
                branches.pop()
                trail.pop()
