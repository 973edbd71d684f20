"""Data model and validator for transfinite graphs of positive natural rank.

A rank-mu graph is recorded at section / mu-node granularity: sections
stand for the maximal lower-rank subgraphs (each with one designated
nonsingleton representative node), mu-nodes carry symbolic tips whose
home section encodes incidence, and nondisconnectability of tips is a
declared input relation.  Section interiors are not modeled beyond named
internal nodes because distances within a section are 0 by convention.

The JSON document format handled here is shared with the finite-graph
substrate: a ``rank: 0`` document carries plain ``nodes``/``edges``
arrays instead of sections and mu-nodes.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Any, Iterable

from .finite_graph import FiniteGraph, GraphError, _collector_paused

__all__ = [
    "DocumentError",
    "InternalNode",
    "MuNode",
    "Section",
    "Tip",
    "TransfiniteGraph",
    "ValidationFailed",
    "ValidationReport",
    "Violation",
    "load_document",
    "parse_document",
    "parse_finite_document",
    "rank0_document",
    "validate",
]

INTRA_SECTION_NOTE = (
    "distances within a section are 0 by convention; "
    "section interiors do not affect computed quantities"
)
WALK_MODE_NOTE = "walk mode: the nondisconnectable-tips check is not applied"


class DocumentError(ValueError):
    """Malformed or inconsistent graph document."""


@dataclass(frozen=True, slots=True)
class Tip:
    """A graphical extremity of a mu-node, identified by its home section."""

    id: str
    section: str


@dataclass(frozen=True, slots=True)
class MuNode:
    """A node of highest rank, holding one or more tips and nothing else."""

    id: str
    tips: tuple[Tip, ...]

    @property
    def is_nonsingleton(self) -> bool:
        return len(self.tips) >= 2

    @property
    def incident_sections(self) -> tuple[str, ...]:
        """Distinct home sections of the tips, in tip declaration order.

        Several tips into one section collapse to a single incidence, so
        the replacement graph stays simple.
        """
        homes: dict[str, None] = {}  # a repeated key keeps its first place
        for tip in self.tips:
            homes[tip.section] = None
        return tuple(homes)


@dataclass(frozen=True, slots=True)
class InternalNode:
    """A named lower-rank node inside a section."""

    id: str
    rank: int
    nonsingleton: bool


@dataclass(frozen=True, slots=True)
class Section:
    """A maximal lower-rank subgraph with a designated representative."""

    id: str
    internal_nodes: tuple[InternalNode, ...]
    representative: str


@dataclass(frozen=True)
class TransfiniteGraph:
    rank: int
    sections: tuple[Section, ...]
    mu_nodes: tuple[MuNode, ...]
    nondisconnectable_pairs: tuple[tuple[str, str], ...] = ()
    include_singletons: tuple[str, ...] = ()

    @cached_property
    def _section_index(self) -> dict[str, Section]:
        return {section.id: section for section in self.sections}

    @cached_property
    def _mu_index(self) -> dict[str, MuNode]:
        return {mu_node.id: mu_node for mu_node in self.mu_nodes}

    @cached_property
    def _tip_owner(self) -> dict[str, MuNode]:
        return {tip.id: mu_node for mu_node in self.mu_nodes for tip in mu_node.tips}

    @cached_property
    def _internal_home(self) -> dict[str, Section]:
        return {
            internal.id: section
            for section in self.sections
            for internal in section.internal_nodes
        }

    @cached_property
    def nonsingleton_mu_nodes(self) -> tuple[MuNode, ...]:
        return tuple(m for m in self.mu_nodes if m.is_nonsingleton)

    @cached_property
    @_collector_paused()
    def _zero_graph(self) -> FiniteGraph:
        """The replacement 0-graph.

        Nodes are the nonsingleton mu-nodes, then the section
        representatives, then the included singletons that name
        singleton mu-nodes, each group in declaration order.  Branches
        join each section, in section order, to its nonsingleton
        mu-nodes in declaration order, then each included singleton to
        its home section.  Each branch keeps its ids in string order.
        Needs ids that pass validation's ``identifiers`` check: then no
        branch repeats and none is a self-loop, so the branches go to
        ``FiniteGraph._of`` unchecked, as edge groups on node indices:
        each section's list of mu-node indices, then one group per
        included singleton.  Built with the cyclic collector paused, as
        a document is read: every object the build makes is kept or
        freed by reference count.
        """
        mu_nodes = self.nonsingleton_mu_nodes
        singletons = [
            m for m in map(self._mu_index.get, self.include_singletons) if m and not m.is_nonsingleton
        ]
        representatives = (s.representative for s in self.sections)
        nodes = tuple(chain((m.id for m in mu_nodes), representatives, (m.id for m in singletons)))
        first = len(mu_nodes)  # the node index of the first section
        home = {section.id: k for k, section in enumerate(self.sections)}
        joined: list[list[int]] = [[] for _ in self.sections]
        for i, mu_node in enumerate(mu_nodes):
            for tip in mu_node.tips:
                group = joined[home[tip.section]]
                # Mu-nodes join in turn, so a home that repeats has this one last.
                if not group or group[-1] != i:
                    group.append(i)
        groups = chain(
            enumerate(joined, first),
            (
                (i, [first + home[tip.section] for tip in m.tips])  # at most one tip
                for i, m in enumerate(singletons, first + len(joined))
            ),
        )
        return FiniteGraph._of(nodes, groups)

    def has_section(self, section_id: str) -> bool:
        return section_id in self._section_index

    def has_mu_node(self, mu_id: str) -> bool:
        return mu_id in self._mu_index

    def mu_node(self, mu_id: str) -> MuNode:
        try:
            return self._mu_index[mu_id]
        except KeyError:
            raise KeyError(f"unknown mu-node {mu_id!r}") from None

    def section_of_internal(self, internal_id: str) -> Section | None:
        return self._internal_home.get(internal_id)

    def _elements(self, nodes: Iterable[str]) -> tuple[str, ...]:
        """The element each 0-node of a sequence stands for: a section's
        representative its section, any other 0-node itself.  One call per
        sequence, as a call per node costs several times this on long paths."""
        home = self._internal_home
        return tuple(home[n].id if n in home else n for n in nodes)


@dataclass(frozen=True)
class Violation:
    condition: str
    message: str
    ids: tuple[str, ...]


@dataclass(frozen=True)
class ValidationReport:
    passed: bool
    violations: tuple[Violation, ...]
    notes: tuple[str, ...] = ()


class ValidationFailed(ValueError):
    """An operation required a graph that passed validation."""

    def __init__(self, report: ValidationReport):
        summary = "; ".join(f"[{v.condition}] {v.message}" for v in report.violations)
        super().__init__(f"validation failed: {summary}")
        self.report = report


# --- document parsing -------------------------------------------------

_TOP_KEYS = {"rank", "sections", "mu_nodes", "nondisconnectable_pairs", "include_singletons"}
_SECTION_KEYS = {"id", "internal_nodes", "representative"}
_INTERNAL_KEYS = {"id", "rank", "nonsingleton"}
_MU_NODE_KEYS = {"id", "tips"}
_TIP_KEYS = {"id", "section"}
_FINITE_KEYS = {"rank", "nodes", "edges"}


def _json_object(text: str) -> dict[str, Any]:
    try:
        obj = json.loads(text)
    except RecursionError:
        raise DocumentError("invalid JSON: nested too deeply") from None
    except ValueError as exc:  # a JSONDecodeError, or an integer too long to convert
        raise DocumentError(f"invalid JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise DocumentError("document must be a JSON object")
    return obj


def _check_keys(obj: dict[str, Any], allowed: set[str], context: str) -> None:
    if not obj.keys() <= allowed:
        raise DocumentError(f"{context}: unknown key {min(obj.keys() - allowed)!r}")


def _get_list(obj: dict[str, Any], key: str, context: str) -> list[Any]:
    value = obj.get(key)
    if not isinstance(value, list):
        raise DocumentError(f"{context}: {key!r} must be an array")
    return value


def _get_optional_list(obj: dict[str, Any], key: str, context: str) -> list[Any]:
    return _get_list(obj, key, context) if key in obj else []


def _is_id_pair(value: Any) -> bool:
    return isinstance(value, list) and len(value) == 2 and all(isinstance(v, str) for v in value)


# Text output separates fields with spaces and records with newlines, so
# an id may hold neither.  str.isprintable rejects every whitespace
# character but the ASCII space, and every control character.
_ID_RULE = "must not hold whitespace or non-printable characters"


def _breaks_id_rule(identifier: str) -> bool:
    return " " in identifier or not identifier.isprintable()


def _claim(
    raw: Any, keys: set[str], ids: set[str], names: tuple[str, str, str], owner: str = ""
) -> str:
    """The id of a record, now claimed in ``ids``.  Each record rule is
    tested once, in order, and raises where it fails: the record is an
    object, it has no key outside ``keys``, its id is a non-empty string,
    printable with no space, and the id is new.  ``names`` is (the array,
    what its entries are, the record): errors about the array name the
    first, errors about the record the last, with "{}" standing for
    ``owner``, the id of the record that holds this one."""
    if not isinstance(raw, dict):
        array, entries, _ = names
        raise DocumentError(f"{array.format(owner)}: {entries} must be objects")
    if not raw.keys() <= keys:
        raise DocumentError(f"{names[2].format(owner)}: unknown key {min(raw.keys() - keys)!r}")
    identifier = raw.get("id")
    if not isinstance(identifier, str) or not identifier:
        raise DocumentError(f"{names[2].format(owner)}: 'id' must be a non-empty string")
    if _breaks_id_rule(identifier):
        raise DocumentError(f"{names[2].format(owner)}: id {identifier!r} {_ID_RULE}")
    if identifier in ids:
        raise DocumentError(f"{names[0].format(owner)}: duplicate identifier {identifier!r}")
    ids.add(identifier)
    return identifier


def _document_rank(obj: dict[str, Any]) -> int:
    if "rank" not in obj:
        raise DocumentError("document: missing 'rank'")
    rank = obj["rank"]
    if type(rank) is not int:
        raise DocumentError("document: 'rank' must be an integer")
    if rank < 0:
        raise DocumentError(f"document: rank must be >= 0, got {rank}")
    return rank


@_collector_paused()
def parse_document(text: str) -> TransfiniteGraph:
    """Parse a rank >= 1 document into a fully resolved model.

    Identifiers of sections, internal nodes, mu-nodes and tips share one
    namespace and must be globally unique; every reference (tip home
    section, representative, nondisconnectable pair member, singleton
    inclusion) must resolve.
    """
    obj = _json_object(text)
    rank = _document_rank(obj)
    if rank == 0:
        raise DocumentError(
            "rank-0 documents carry plain nodes/edges and describe finite graphs"
        )
    return _transfinite_from_obj(obj, rank)


@_collector_paused()
def parse_finite_document(text: str) -> FiniteGraph:
    """Parse a rank-0 document (nodes/edges arrays) into a finite graph."""
    obj = _json_object(text)
    if _document_rank(obj) != 0:
        raise DocumentError("expected a rank-0 document")
    return _finite_from_obj(obj)


@_collector_paused()
def load_document(text: str) -> TransfiniteGraph | FiniteGraph:
    """Dispatch on rank: 0 loads a finite graph, >= 1 a transfinite one."""
    obj = _json_object(text)
    rank = _document_rank(obj)
    if rank == 0:
        return _finite_from_obj(obj)
    return _transfinite_from_obj(obj, rank)


def rank0_document(graph: FiniteGraph) -> dict[str, Any]:
    """The rank-0 document object for a finite graph."""
    return {
        "rank": 0,
        "nodes": list(graph.nodes),
        "edges": [list(pair) for pair in graph.edges],
    }


def _finite_from_obj(obj: dict[str, Any]) -> FiniteGraph:
    _check_keys(obj, _FINITE_KEYS, "document")
    nodes = _get_list(obj, "nodes", "document")
    for node in nodes:
        if not isinstance(node, str) or not node:
            raise DocumentError(f"document: node id {node!r} must be a non-empty string")
        if _breaks_id_rule(node):
            raise DocumentError(f"document: node id {node!r} {_ID_RULE}")
    edges = []
    for entry in _get_list(obj, "edges", "document"):
        if not _is_id_pair(entry):
            raise DocumentError(f"document: edge {entry!r} must be a pair of node ids")
        edges.append((entry[0], entry[1]))
    try:
        return FiniteGraph(nodes, edges)
    except GraphError as exc:
        raise DocumentError(str(exc)) from None


def _transfinite_from_obj(obj: dict[str, Any], rank: int) -> TransfiniteGraph:
    """Read every record once.  Each rule is tested once, in order of
    precedence, and raises where it fails, so the first rule a record
    breaks is named; a context such as ``section S1`` is built only then."""
    _check_keys(obj, _TOP_KEYS, "document")
    ids: set[str] = set()

    raw_sections = _get_list(obj, "sections", "document")
    if not raw_sections:
        raise DocumentError("document: at least one section is required")
    sections: list[Section] = []
    for raw in raw_sections:
        section_id = _claim(raw, _SECTION_KEYS, ids, ("sections", "entries", "section"))
        raw_internals = raw.get("internal_nodes")
        if not isinstance(raw_internals, list):
            raise DocumentError(f"section {section_id}: 'internal_nodes' must be an array")
        if not raw_internals:
            raise DocumentError(f"section {section_id}: needs at least one internal node")
        representative = raw.get("representative")
        named = False
        internals: list[InternalNode] = []
        for raw_internal in raw_internals:
            internal_id = _claim(
                raw_internal, _INTERNAL_KEYS, ids, ("section {}", "internal nodes", "section {}"),
                section_id,
            )
            internal_rank = raw_internal.get("rank")
            if type(internal_rank) is not int:
                raise DocumentError(f"internal node {internal_id}: 'rank' must be an integer")
            if not 0 <= internal_rank < rank:
                raise DocumentError(
                    f"internal node {internal_id}: rank {internal_rank} must satisfy "
                    f"0 <= rank < {rank}"
                )
            nonsingleton = raw_internal.get("nonsingleton")
            if not isinstance(nonsingleton, bool):
                raise DocumentError(
                    f"internal node {internal_id}: 'nonsingleton' must be a boolean"
                )
            named = named or internal_id == representative
            internals.append(InternalNode(internal_id, internal_rank, nonsingleton))
        if not named:
            if not isinstance(representative, str) or not representative:
                raise DocumentError(
                    f"section {section_id}: 'representative' must be a non-empty string"
                )
            raise DocumentError(
                f"section {section_id}: representative {representative!r} "
                "does not name one of its internal nodes"
            )
        sections.append(Section(section_id, tuple(internals), representative))
    section_ids = {section.id for section in sections}

    mu_nodes: list[MuNode] = []
    for raw in _get_list(obj, "mu_nodes", "document"):
        mu_id = _claim(raw, _MU_NODE_KEYS, ids, ("mu_nodes", "entries", "mu-node"))
        raw_tips = raw.get("tips")
        if not isinstance(raw_tips, list):
            raise DocumentError(f"mu-node {mu_id}: 'tips' must be an array")
        if not raw_tips:
            raise DocumentError(f"mu-node {mu_id}: needs at least one tip")
        tips: list[Tip] = []
        for raw_tip in raw_tips:
            tip_id = _claim(raw_tip, _TIP_KEYS, ids, ("mu-node {}", "tips", "mu-node {}"), mu_id)
            home = raw_tip.get("section")
            if not isinstance(home, str) or not home:
                raise DocumentError(f"tip {tip_id}: 'section' must be a non-empty string")
            if home not in section_ids:
                raise DocumentError(f"tip {tip_id}: unknown section {home!r}")
            tips.append(Tip(tip_id, home))
        mu_nodes.append(MuNode(mu_id, tuple(tips)))

    tip_ids = {tip.id for mu_node in mu_nodes for tip in mu_node.tips}
    mu_ids = {mu_node.id for mu_node in mu_nodes}

    pairs: list[tuple[str, str]] = []
    seen_pairs: set[tuple[str, str]] = set()
    for raw in _get_optional_list(obj, "nondisconnectable_pairs", "document"):
        if not _is_id_pair(raw):
            raise DocumentError(
                f"nondisconnectable_pairs: entry {raw!r} must be a pair of tip ids"
            )
        first, second = raw
        if first == second:
            raise DocumentError(f"nondisconnectable_pairs: {first!r} paired with itself")
        for member in (first, second):
            if member not in tip_ids:
                raise DocumentError(f"nondisconnectable_pairs: unknown tip {member!r}")
        pair = (first, second) if first <= second else (second, first)
        if pair in seen_pairs:
            raise DocumentError(f"nondisconnectable_pairs: duplicate pair {pair!r}")
        seen_pairs.add(pair)
        pairs.append(pair)

    include: dict[str, None] = {}  # ordered, and a set for the duplicate check
    for raw in _get_optional_list(obj, "include_singletons", "document"):
        if not isinstance(raw, str):
            raise DocumentError(f"include_singletons: entry {raw!r} must be a mu-node id")
        if raw not in mu_ids:
            raise DocumentError(f"include_singletons: unknown mu-node {raw!r}")
        if raw in include:
            raise DocumentError(f"include_singletons: duplicate entry {raw!r}")
        include[raw] = None

    return TransfiniteGraph(
        rank=rank,
        sections=tuple(sections),
        mu_nodes=tuple(mu_nodes),
        nondisconnectable_pairs=tuple(pairs),
        include_singletons=tuple(include),
    )


# --- validation -------------------------------------------------------

def validate(graph: TransfiniteGraph, walk_based: bool = False) -> ValidationReport:
    """Check the admissibility conditions; findings become report entries.

    Checked conditions and their tags:

    * ``rank``: the rank is a positive natural number.
    * ``sections``: there is at least one section, as the parser
      requires; without one the 0-graph has no nodes.
    * ``identifiers``: every id is used once, every representative is
      an internal node of its section and every tip's section exists;
      without this no 0-graph exists and ``connectivity`` is skipped.
    * ``representative``: every section designates a nonsingleton
      internal node of rank below the graph rank.
    * ``include-singletons``: every inclusion names a singleton mu-node.
    * ``nondisconnectable-tips``: declared nondisconnectable tips share
      a mu-node or one of them is the sole tip of its mu-node (this
      guarantees path-based distances exist; skipped in walk mode,
      where walk-based distances exist regardless).
    * ``connectivity``: the replacement 0-graph is connected, the
      checkable surrogate for branchwise connectedness of the source
      graph.

    Pristineness and finiteness hold structurally in this model and
    produce no entries; the zero-distance convention inside sections is
    recorded as a note, not a check.
    """
    violations: list[Violation] = []

    if not isinstance(graph.rank, int) or isinstance(graph.rank, bool) or graph.rank < 1:
        violations.append(
            Violation(
                "rank",
                f"rank must be a positive natural number, got {graph.rank!r}",
                (),
            )
        )

    sections, mu_nodes = graph.sections, graph.mu_nodes
    if not sections:
        violations.append(Violation("sections", "at least one section is required", ()))
    declared = [section.id for section in sections] + [m.id for m in mu_nodes]
    declared += [n.id for section in sections for n in section.internal_nodes]
    declared += [tip.id for m in mu_nodes for tip in m.tips]
    include = graph.include_singletons
    twice: list[str] = []
    if len(set(declared)) < len(declared) or len(set(include)) < len(include):
        counts = [Counter(declared), Counter(include)]
        twice = [key for counter in counts for key, count in counter.items() if count > 1]

    # A representative stands for the first internal node of its section
    # with its id; "outside" lists those that name none.
    outside: list[str] = []
    invalid: list[Section] = []
    rank_is_int = isinstance(graph.rank, int)
    for section in sections:
        representative = section.representative
        for internal in section.internal_nodes:
            if internal.id == representative:
                if not (internal.nonsingleton and rank_is_int and 0 <= internal.rank < graph.rank):
                    invalid.append(section)
                break
        else:
            outside.append(representative)
            invalid.append(section)

    section_index = graph._section_index
    problems = {
        "used twice": twice,
        "representatives outside their section": outside,
        "tips in undeclared sections": [
            tip.id for m in mu_nodes for tip in m.tips if tip.section not in section_index
        ],
    }
    unresolved = tuple(key for ids in problems.values() for key in ids)
    if unresolved:
        text = "; ".join(f"{label}: {', '.join(ids)}" for label, ids in problems.items() if ids)
        violations.append(Violation("identifiers", text, unresolved))

    for section in invalid:
        violations.append(
            Violation(
                "representative",
                f"section {section.id} has no valid nonsingleton representative "
                f"({section.representative!r})",
                (section.id, section.representative),
            )
        )

    for mu_id in graph.include_singletons:
        mu_node = graph._mu_index.get(mu_id)
        if mu_node is None or mu_node.is_nonsingleton:
            violations.append(
                Violation(
                    "include-singletons",
                    f"include_singletons entry {mu_id!r} does not name a singleton mu-node",
                    (mu_id,),
                )
            )

    if not walk_based:
        for first, second in graph.nondisconnectable_pairs:
            owner_a = graph._tip_owner.get(first)
            owner_b = graph._tip_owner.get(second)
            if owner_a is None or owner_b is None:
                missing = first if owner_a is None else second
                violations.append(
                    Violation(
                        "nondisconnectable-tips",
                        f"pair references unknown tip {missing!r}",
                        (first, second),
                    )
                )
                continue
            if owner_a.id == owner_b.id:
                continue
            if not owner_a.is_nonsingleton or not owner_b.is_nonsingleton:
                continue
            violations.append(
                Violation(
                    "nondisconnectable-tips",
                    f"tips {first} and {second} are nondisconnectable but lie in "
                    f"distinct nonsingleton mu-nodes {owner_a.id} and {owner_b.id}",
                    (first, second, owner_a.id, owner_b.id),
                )
            )

    if not unresolved:
        zero_graph = graph._zero_graph
        if not zero_graph.is_connected():
            # A second BFS, from the first section (a representative), names what it misses.
            order = sorted(zero_graph.nodes, key=lambda node: node not in graph._internal_home)
            dist = zero_graph.bfs_distances(order[0])
            unreached = graph._elements(n for n in order if dist[n] is None)
            violations.append(
                Violation(
                    "connectivity",
                    "the replacement 0-graph is not connected; unreached: "
                    + ", ".join(unreached),
                    unreached,
                )
            )

    notes = [INTRA_SECTION_NOTE]
    if walk_based:
        notes.append(WALK_MODE_NOTE)
    return ValidationReport(
        passed=not violations, violations=tuple(violations), notes=tuple(notes)
    )
