"""Finite simple graphs: BFS distances, statuses and their sharp bounds.

The status of a node is the sum of its hop distances to all other nodes.
In a connected graph with p nodes and q edges every status s satisfies

    p - 1  <=  s  <=  (p - 1)(p + 2)/2 - q

and both ends are achievable for every feasible q.  This module provides
the graph substrate, the bounds check, exhaustive enumeration of small
labeled connected graphs, an exhaustive check of the bounds over small
connected graphs up to isomorphism, and the first witnesses of both
bounds, built in closed form.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, islice
from math import factorial, lcm
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

if TYPE_CHECKING:
    from .ordinal import Ordinal

__all__ = [
    "BoundsResult",
    "FiniteGraph",
    "GraphError",
    "MAX_ENUMERATION_NODES",
    "MAX_EXTREMAL_NODES",
    "MAX_VERIFY_NODES",
    "Witness",
    "bound_violation_counts",
    "enumerate_connected_graphs",
    "extremal_search",
    "status_bounds_values",
]

MAX_ENUMERATION_NODES = 7
MAX_VERIFY_NODES = 9
# extremal_search builds its witnesses in closed form, so its cap only
# bounds the output: the complete graph on 100 nodes has 4,950 edges.
MAX_EXTREMAL_NODES = 100


class GraphError(ValueError):
    """Invalid construction or an operation on an unsuitable graph."""


class FiniteGraph:
    """Simple undirected graph with ordered nodes and canonical edge pairs.

    Nodes keep declaration order; edges are stored once, as sorted id
    pairs in insertion order.  Self-loops, duplicate edges and undeclared
    endpoints are rejected at construction.  Searches run on node
    indices: node i is ``nodes[i]``, and its neighbours are kept as a
    list of indices in edge insertion order, which ``has_edge`` scans.
    The graph is immutable, so ``is_connected`` keeps its first answer.
    """

    __slots__ = ("_nodes", "_index", "_edges", "_nbrs", "_connected")

    def __init__(self, nodes: Iterable[str], edges: Iterable[tuple[str, str]] = ()):
        node_list = list(nodes)
        index = {node: i for i, node in enumerate(node_list)}
        if len(index) < len(node_list):
            seen: set[str] = set()
            for node in node_list:
                if node in seen:
                    raise GraphError(f"duplicate node id {node!r}")
                seen.add(node)
        nbrs: list[list[int]] = [[] for _ in node_list]
        edge_list: list[tuple[str, str]] = []
        edge_set: set[tuple[str, str]] = set()
        for u, v in edges:
            try:
                i, j = index[u], index[v]
            except KeyError:
                missing = u if u not in index else v
                raise GraphError(
                    f"edge ({u!r}, {v!r}) references undeclared node {missing!r}"
                ) from None
            if i == j:
                raise GraphError(f"self-loop at {u!r}")
            pair = (u, v) if u <= v else (v, u)
            if pair in edge_set:
                raise GraphError(f"duplicate edge {pair!r}")
            edge_set.add(pair)
            edge_list.append(pair)
            nbrs[i].append(j)
            nbrs[j].append(i)
        self._nodes = tuple(node_list)
        self._index = index
        self._edges = tuple(edge_list)
        self._nbrs = nbrs
        self._connected: bool | None = None

    @property
    def nodes(self) -> tuple[str, ...]:
        return self._nodes

    @property
    def edges(self) -> tuple[tuple[str, str], ...]:
        return self._edges

    @property
    def p(self) -> int:
        return len(self._nodes)

    @property
    def q(self) -> int:
        return len(self._edges)

    def _node_index(self, node: str) -> int:
        i = self._index.get(node)
        if i is None:
            raise GraphError(f"unknown node {node!r}")
        return i

    def has_edge(self, u: str, v: str) -> bool:
        i, j = self._index.get(u), self._index.get(v)
        return i is not None and j is not None and j in self._nbrs[i]

    def neighbors(self, node: str) -> tuple[str, ...]:
        nodes = self._nodes
        return tuple([nodes[j] for j in self._nbrs[self._node_index(node)]])

    def degree(self, node: str) -> int:
        return len(self._nbrs[self._node_index(node)])

    def is_connected(self) -> bool:
        """True when every node is reachable from every other.

        Empty and single-node graphs count as connected.
        """
        if self._connected is None:
            self._connected = len(self._nodes) <= 1 or None not in self._distances(0)
        return self._connected

    def _distances(self, start: int, stop: int = -1) -> list[int | None]:
        """Hop distances from node index start, by node index; None for a
        node not reached.  With stop >= 0 the search ends after the level
        that reaches index stop, and every farther node stays None."""
        nbrs = self._nbrs
        dist: list[int | None] = [None] * len(nbrs)
        dist[start] = 0
        frontier = [start]
        level = 0
        while frontier and (stop < 0 or dist[stop] is None):
            level += 1
            reached = []
            for u in frontier:
                for v in nbrs[u]:
                    if dist[v] is None:
                        dist[v] = level
                        reached.append(v)
            frontier = reached
        return dist

    def bfs_distances(self, source: str) -> dict[str, int | None]:
        """Hop distances from source; unreachable nodes map to None."""
        return dict(zip(self._nodes, self._distances(self._node_index(source))))

    def shortest_path(self, a: str, b: str) -> tuple[str, ...] | None:
        """The node ids of a shortest path from a to b; None when they are
        not connected.  A BFS from b stops at the level that reaches a, and
        the walk back from a steps to the least-id neighbour one hop nearer
        to b, so the path has the least id sequence of all shortest ones."""
        start = self._node_index(a)
        dist = self._distances(self._node_index(b), start)
        if dist[start] is None:
            return None
        nodes, nbrs = self._nodes, self._nbrs
        path = [start]
        for remaining in range(dist[start] - 1, -1, -1):
            path.append(
                min((v for v in nbrs[path[-1]] if dist[v] == remaining), key=nodes.__getitem__)
            )
        return tuple([nodes[i] for i in path])

    def hop_distance(self, a: str, b: str) -> int | None:
        """Hop distance between a and b; None when they are not connected.

        A level-synchronous BFS grows from both ends, each step expanding
        the smaller frontier by one whole level.  Before a step the two
        balls are disjoint and their radii sum to hops, so d(a, b) > hops;
        a node the step reaches in the other ball closes a path of at
        most hops + 1, which is therefore the distance.
        """
        i = self._node_index(a)
        j = self._node_index(b)
        if i == j:
            return 0
        nbrs = self._nbrs
        # side[v] is 0 for a node neither ball holds, else the mark of its ball.
        side = bytearray(len(nbrs))
        side[i], side[j] = 1, 2
        frontier, other_frontier = [i], [j]
        mark, other_mark = 1, 2
        hops = 0
        while frontier and other_frontier:
            if len(frontier) > len(other_frontier):
                frontier, other_frontier = other_frontier, frontier
                mark, other_mark = other_mark, mark
            reached = []
            for u in frontier:
                for v in nbrs[u]:
                    if side[v] != mark:
                        if side[v]:
                            return hops + 1
                        side[v] = mark
                        reached.append(v)
            frontier = reached
            hops += 1
        return None

    def status(self, node: str) -> int:
        """Sum of distances from node to all other nodes; needs connectivity."""
        distances = self._distances(self._node_index(node))
        if None in distances:
            raise GraphError("status is undefined on a disconnected graph")
        return sum(distances)

    def status_bounds(self) -> "BoundsResult":
        if self.p < 1:
            raise GraphError("bounds need at least one node")
        if not self.is_connected():
            raise GraphError("bounds are undefined on a disconnected graph")
        lower, upper = status_bounds_values(self.p, self.q)
        return BoundsResult(p=self.p, q=self.q, lower=lower, upper=upper)

    def to_dot(self) -> str:
        """DOT text: nodes in declaration order, edges as sorted pairs."""
        lines = ["graph {"]
        for node in self._nodes:
            lines.append(f'  "{_dot_escape(node)}";')
        for u, v in sorted(self._edges):
            lines.append(f'  "{_dot_escape(u)}" -- "{_dot_escape(v)}";')
        lines.append("}")
        return "\n".join(lines) + "\n"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FiniteGraph):
            return NotImplemented
        return self._nodes == other._nodes and set(self._edges) == set(other._edges)

    def __hash__(self) -> int:
        return hash((self._nodes, frozenset(self._edges)))

    def __repr__(self) -> str:
        return f"FiniteGraph(p={self.p}, q={self.q})"


def _dot_escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')


@dataclass(frozen=True)
class BoundsResult:
    """Status bounds of a connected graph with p nodes and q edges: ints
    for a finite graph, w^mu-scaled Ordinals for a rank-mu graph's
    replacement."""

    p: int
    q: int
    lower: int | Ordinal
    upper: int | Ordinal


@dataclass(frozen=True)
class Witness:
    """A node achieving an exact status value in a concrete graph."""

    graph: FiniteGraph
    node: str
    status: int


def status_bounds_values(p: int, q: int) -> tuple[int, int]:
    """Lower and upper status bound for p nodes and q edges."""
    return p - 1, (p - 1) * (p + 2) // 2 - q


def _node_names(p: int) -> tuple[str, ...]:
    return tuple(f"v{i}" for i in range(1, p + 1))


def _check_enumeration_size(p: object, what: str, cap: int = MAX_ENUMERATION_NODES) -> None:
    if isinstance(p, bool) or not isinstance(p, int) or not 1 <= p <= cap:
        raise GraphError(f"{what} supports 1 <= p <= {cap}, got {p!r}")


# Small graphs live in the bitmask domain.  Node i is bit i, a graph is a
# sequence of adjacency bitmasks, item i the neighbours of i, and
# _MEMBERS lists the nodes of every node bitmask.

_MEMBERS = [
    tuple(v for v in range(MAX_VERIFY_NODES) if mask >> v & 1)
    for mask in range(1 << MAX_VERIFY_NODES)
]


def _statuses(adj: Sequence[int]) -> list[int] | None:
    """The status of every node from adjacency bitmasks; None when the
    graph is disconnected.

    Each node runs a level-synchronous BFS on bitsets.  The first level
    is the node's adjacency; each later level is the set of unreached
    nodes adjacent to the previous one, found by scanning the unreached
    nodes (few, in dense graphs).  The status is the sum over k >= 0 of
    the number of nodes farther than k, so every level adds the count
    still unreached.  The first node's BFS doubles as the connectivity
    check.
    """
    p = len(adj)
    full = (1 << p) - 1
    statuses = [0] * p
    for source in range(p):
        frontier = adj[source]
        rest = full & ~frontier & ~(1 << source)
        status = p - 1
        while rest:
            status += rest.bit_count()
            reached = 0
            for v in _MEMBERS[rest]:
                if adj[v] & frontier:
                    reached |= 1 << v
            if not reached:
                return None
            rest ^= reached
            frontier = reached
        statuses[source] = status
    return statuses


def enumerate_connected_graphs(p: int) -> Iterator[FiniteGraph]:
    """Yield every labeled connected simple graph on p nodes exactly once.

    Graphs come by edge count, then in lexicographic order of their edge
    combinations; supported for 1 <= p <= 7.
    """
    _check_enumeration_size(p, "enumeration")
    names = _node_names(p)
    pairs = list(combinations(names, 2))
    # Fewer than p - 1 edges cannot connect p nodes.
    for q in range(p - 1, len(pairs) + 1):
        for edges in combinations(pairs, q):
            graph = FiniteGraph(names, edges)
            if graph.is_connected():
                yield graph


def _refine(adj: Sequence[int], cells: list[int], splitters: list[int]) -> list[int]:
    """Refine an ordered partition, whose cells are node bitmasks, with a
    queue of splitters; both lists are extended in place.

    Each splitter in turn splits every cell by the number of neighbours
    its nodes have in the splitter.  The parts replace the cell where it
    stood, in increasing order of that number, and join the end of the
    queue.  Refinement stops when the queue is empty or the partition is
    discrete.  Nothing depends on node labels, so relabeling the graph,
    the partition and the splitters relabels the result.  Given the
    whole node set (or, after one cell of an equitable partition gave up
    one node v, {v}), it returns the coarsest equitable refinement.
    """
    p = len(adj)
    for splitter in splitters:  # the loop also visits the parts appended below
        if len(cells) == p:
            break
        k = 0
        while k < len(cells):
            cell = cells[k]
            k += 1
            if not cell & (cell - 1):
                continue
            parts: dict[int, int] = {}
            for v in _MEMBERS[cell]:
                count = (adj[v] & splitter).bit_count()
                parts[count] = parts.get(count, 0) | 1 << v
            if len(parts) > 1:
                split = [parts[count] for count in sorted(parts)]
                cells[k - 1 : k] = split
                splitters += split
                k += len(split) - 1
    return cells


def _individualise(adj: Sequence[int], cells: list[int], k: int, node: int) -> list[int]:
    """A child in the search tree: the node bitmask becomes a singleton
    cell just before the rest of cell k, and the partition is refined
    with it."""
    return _refine(adj, cells[:k] + [node, cells[k] ^ node] + cells[k + 1 :], [node])


def _leaf_rows(adj: Sequence[int], cells: list[int]) -> tuple[int, ...]:
    """The adjacency bitmasks relabeled by a discrete partition, which
    gives node cells[i] the label i: item i is the row of label i."""
    bit = [0] * len(adj)
    for label, cell in enumerate(cells):
        bit[cell.bit_length() - 1] = 1 << label
    rows = []
    for cell in cells:
        row = 0
        for v in _MEMBERS[adj[cell.bit_length() - 1]]:
            row |= bit[v]
        rows.append(row)
    return tuple(rows)


def _canonical_form(
    adj: Sequence[int],
) -> tuple[tuple[int, ...], int, tuple[bytes, ...], list[int], list[int]]:
    """(canonical rows, automorphism count, generators of the automorphism
    group, orbit, label) of a graph given by its adjacency bitmasks:
    orbit[v] names the orbit of node v under the whole group (two nodes
    share an orbit exactly when their entries are equal), and label[v] is
    v's canonical label, the index of v's row in the canonical rows.

    A search tree of ordered partitions (McKay, "Practical graph
    isomorphism", 1981): the root refines the unit partition, a child
    individualises one node of the first non-singleton cell
    (_individualise), and a discrete partition is a leaf, whose rows are
    _leaf_rows.  The tree is built from the graph alone, so every
    labeling has the same leaf rows, and the least tuple of them
    encodes the graph: it is the canonical form.

    The one invariant: _refine splits cells in place and orders the
    parts by a count.  So a node individualised at some level keeps its
    position in every leaf below, and a leaf's partition fixes its path.
    If two leaves have equal rows, the automorphism g taking the one to
    the other therefore maps path onto path: g fixes the nodes of their
    shared prefix, maps the child below it on the one path to the child
    on the other, and maps the subtree of the first to that of the
    second, row for row.

    The search descends to a first leaf l1 by the least node of each
    target cell, then goes back up that path, deepest level first.  At
    each level it explores the other nodes of the target cell, skipping
    one that shares an orbit with an explored one: every automorphism
    found so far fixes the prefix, so the skipped subtree has the rows
    of an explored one.  It searches each explored subtree without
    pruning, up to its first leaf with the rows of l1; that leaf gives
    an automorphism (leaf order to l1 order), whose cycles join the
    orbits, and the rest of that subtree has the rows of the first-path
    one.  So the least rows over the visited leaves are the least of the
    whole tree.  A child whose subtree holds no leaf with l1's rows is
    not in the orbit of the first-path child; so each level ends with
    that child's whole orbit under the automorphisms that fix the
    prefix, and by orbit-stabiliser |Aut| is the product of these orbit
    sizes (only the identity fixes a leaf).

    The automorphisms found also generate the group: by induction up the
    path, those found from a level down fix its prefix, act on the
    first-path child's orbit transitively, and include the generators of
    its stabiliser, so they generate the whole stabiliser of the prefix.
    So the orbit list, which joins the cycles of every automorphism
    found, ends with the orbits of the whole group.  Each generator g
    comes as the bytes of g(i) over the labels i of the least leaf,
    which are the labels of the canonical rows (bytes are the smallest
    sequence of small ints to keep on the walk's stack).
    """
    p = len(adj)
    full = (1 << p) - 1
    cells = _refine(adj, [full], [full])
    path = []
    while len(cells) < p:
        k = next(k for k, cell in enumerate(cells) if cell & (cell - 1))
        path.append((cells, k))
        cells = _individualise(adj, cells, k, cells[k] & -cells[k])
    first = best_leaf = [cell.bit_length() - 1 for cell in cells]
    first_rows = best = _leaf_rows(adj, cells)
    orbit = list(range(p))  # orbit[v]: a representative of v's orbit
    automorphisms = 1
    found = []  # each automorphism g as the list of g(v) over the nodes v
    for cells, k in reversed(path):
        members = _MEMBERS[cells[k]]
        explored = [members[0]]
        for v in members[1:]:
            if orbit[v] in {orbit[u] for u in explored}:
                continue
            explored.append(v)
            stack = [(cells, k, 1 << v)]
            while stack:
                child = _individualise(adj, *stack.pop())
                if len(child) < p:
                    j = next(j for j, cell in enumerate(child) if cell & (cell - 1))
                    stack += [(child, j, 1 << u) for u in reversed(_MEMBERS[child[j]])]
                    continue
                rows = _leaf_rows(adj, child)
                if rows == first_rows:
                    image = [0] * p
                    for cell, target in zip(child, first):
                        image[cell.bit_length() - 1] = target
                    found.append(image)
                    for v, target in enumerate(image):
                        a, b = orbit[v], orbit[target]
                        if a != b:
                            orbit = [b if o == a else o for o in orbit]
                    break
                if rows < best:
                    best, best_leaf = rows, [cell.bit_length() - 1 for cell in child]
        automorphisms *= sum(orbit[u] == orbit[members[0]] for u in members)
    label = [0] * p
    for i, v in enumerate(best_leaf):
        label[v] = i
    generators = tuple(bytes(label[image[v]] for v in best_leaf) for image in found)
    return best, automorphisms, generators, orbit, label


def _spans(adj: Sequence[int], nodes: int) -> bool:
    """True when the nodes of a non-empty bitmask induce a connected
    subgraph."""
    reached = frontier = nodes & -nodes
    while frontier:
        grown = 0
        for v in _MEMBERS[frontier]:
            grown |= adj[v]
        frontier = grown & nodes & ~reached
        reached |= frontier
    return reached == nodes


def _least_invariant_last(adj: Sequence[int]) -> list[int]:
    """The non-cut nodes (those whose deletion leaves the graph connected)
    that share the last node's (degree, sorted neighbour degrees), the
    last one included, which the caller knows to be non-cut; empty when
    a non-cut node has a smaller one.  Neighbour degrees are compared
    only on a degree tie, and a tied node is tried for a cut only when
    no smaller non-cut node turns up."""
    last = len(adj) - 1
    nodes = (1 << len(adj)) - 1
    degrees = [row.bit_count() for row in adj]
    degree = degrees[last]
    profile = None
    ties = []
    for u in range(last):
        if degrees[u] > degree:
            continue
        if degrees[u] == degree:
            if profile is None:
                profile = sorted(degrees[v] for v in _MEMBERS[adj[last]])
            other = sorted(degrees[v] for v in _MEMBERS[adj[u]])
            if other == profile:
                ties.append(u)
                continue
            if other > profile:
                continue
        if _spans(adj, nodes ^ 1 << u):
            return []
    if ties:
        ties = [u for u in ties if _spans(adj, nodes ^ 1 << u)]
    ties.append(last)
    return ties


def _non_cut_below(adj: Sequence[int]) -> list[int]:
    """Item k, for k = 0, ..., n: the bitmask of the non-cut nodes of
    degree < k of a graph on n nodes."""
    n = len(adj)
    nodes = (1 << n) - 1
    below = [0] * (n + 1)
    for u, row in enumerate(adj):
        if _spans(adj, nodes ^ 1 << u):
            for k in range(row.bit_count() + 1, n + 1):
                below[k] |= 1 << u
    return below


def _orbit_representatives(generators: Sequence[Sequence[int]], n: int) -> dict[int, int]:
    """{least node bitmask: orbit size} of each orbit of the group that the
    permutations generate (each the sequence of g(v) over the nodes v) on
    the non-empty node sets of n nodes, in increasing order."""
    top = 1 << n
    if not generators:
        return dict.fromkeys(range(1, top), 1)
    images = []  # images[k][mask]: the image of mask under generator k
    for perm in generators:
        image = [0]
        for target in perm:  # the masks with bit v set follow those below it
            image += [mask | 1 << target for mask in image]
        images.append(image)
    seen = bytearray(top)
    representatives = {}
    for mask in range(1, top):
        if seen[mask]:
            continue
        seen[mask] = 1
        orbit = [mask]
        for member in orbit:  # the loop also visits the images appended below
            for image in images:
                if not seen[image[member]]:
                    seen[image[member]] = 1
                    orbit.append(image[member])
        representatives[mask] = len(orbit)
    return representatives


def _class_walk(max_p: int) -> Iterator[tuple[int, list[int], int, int]]:
    """(n, adjacency bitmasks, stabiliser order s, tie count c) of connected
    graphs on n = 1, ..., max_p nodes, depth first from the single node.
    For every connected graph G on n nodes, 1/(s*c) summed over the
    graphs on n nodes isomorphic to G is 1/|Aut G|.

    Every connected graph on n >= 2 nodes has a non-cut node (an end of a
    longest path).  Let C(G) be the non-cut nodes of G that share the
    least (degree, sorted neighbour degrees) among them.  The walk joins
    a new last node to non-empty node sets of each parent, a graph it
    extends on fewer than max_p nodes, and yields the extensions whose
    new node lies in C (_least_invariant_last).  Given one parent per
    class on one node fewer, two prunings cut the extensions, and each
    keeps every rooted class (G, m) with m in C(G):

    - The rule.  G - m is connected, so a parent P of its class exists,
      and joining the new node to the nodes that m's neighbours become
      there gives G again, with the new node in m's place.  The invariant does not
      depend on labels, so that extension passes _least_invariant_last.
    - Orbits.  Only the least node set of each orbit of the parent's
      automorphism group is joined (_orbit_representatives).  If g maps
      one set onto another, g extended by the new node is an isomorphism
      between the two extensions that fixes the new node, so they are
      one rooted class.  The generators come from the parent's
      _canonical_form, in the labels of its canonical rows, and wait
      with them on the stack until the parent is extended.

    A pre-test skips, before its rows are built, each joined set S that
    leaves out a non-cut node u of the parent of degree < |S|
    (_non_cut_below).  u stays non-cut: the parent minus u is connected,
    and the new node has a neighbour in S, which u is not in.  u keeps
    its degree, which is below the new node's |S|, so _least_invariant_last
    would reject the extension anyway.

    Conversely, an isomorphism between two extensions that maps the one
    new node onto the other maps the one parent onto the other.  The
    parents are one class, so they have the same rows, and it maps the
    one joined set onto the other by an automorphism of P: by the orbit
    pruning the two extensions are one.  So the walk reaches each rooted
    class exactly once, and every level is counted by its rooted
    extensions.  Taking the two extensions equal above, the
    automorphisms of G that fix the new node are the stabiliser of S in
    Aut(P), of order s = |Aut(P)| / |orbit of S|.  The rooted classes of
    G are the orbits of Aut(G) on C(G), and the orbit of m has |Aut G| / s
    nodes, so 1/s summed over the extensions isomorphic to G is
    |C(G)| / |Aut G|.  |C(G)| does not depend on the labels, so each
    extension reads it off itself: c is the number of nodes that
    _least_invariant_last returns.  No extension needs a canonical form
    to be counted.

    Canonical deletion only picks the parents, one per class: an
    extension on fewer than max_p nodes goes on the stack, as its
    canonical rows, when its new node lies in the Aut(G)-orbit of the
    node of C(G) with the least canonical label (_canonical_form).  The
    canonical labelings of G differ by automorphisms, so that orbit
    depends on G alone, and the rooted classes (G, m) with m in it are
    one rooted class, reached once.  So each class becomes a parent
    exactly once, with no set of forms seen before (McKay, "Isomorph-free
    exhaustive generation", J. Algorithms 26, 1998).
    """
    yield 1, [0], 1, 1  # the single node
    # (canonical rows, |Aut|, generators) of each parent not yet extended
    stack = [([0], 1, ())] if max_p > 1 else []
    while stack:
        rows, automorphisms, generators = stack.pop()
        n = len(rows)
        top = 1 << n
        below = _non_cut_below(rows)
        for joined, orbit_size in _orbit_representatives(generators, n).items():
            if below[joined.bit_count()] & ~joined:
                continue
            adj = rows + [joined]
            for v in _MEMBERS[joined]:
                adj[v] |= top
            ties = _least_invariant_last(adj)
            if not ties:
                continue
            yield n + 1, adj, automorphisms // orbit_size, len(ties)
            if n + 1 < max_p:
                canonical, child_automorphisms, found, orbit, label = _canonical_form(adj)
                if orbit[n] == orbit[min(ties, key=label.__getitem__)]:
                    stack.append((list(canonical), child_automorphisms, found))


def bound_violation_counts(max_p: int) -> list[tuple[int, int, int]]:
    """The rows (p, labeled connected graphs, labeled nodes outside the
    status bounds) for p = 1, ..., max_p <= MAX_VERIFY_NODES, returned
    once the walk (_class_walk) has ended.

    A status multiset does not depend on the labels, so each rooted
    extension that the walk yields, on every level, is checked with a
    BFS from every node and no pruning, and counts for p!/(s*c) labeled
    graphs: for each class G these sum to p!/|Aut G|, the labeled graphs
    isomorphic to G.  The sums stay exact integers: s is the order of a
    group of permutations of at most p nodes, so p!/s is an integer, and
    every tie count c <= max_p divides L = lcm(1, ..., max_p).  So each
    extension adds the integer weight p!/s * L/c to its p's sums of
    weights and of weights times the nodes outside the bounds, which are
    L times the labeled graphs and nodes, divided by L once at the end.
    """
    _check_enumeration_size(max_p, "verification", MAX_VERIFY_NODES)
    scale = lcm(*range(1, max_p + 1))
    graphs = [0] * (max_p + 1)
    violations = [0] * (max_p + 1)
    for p, adj, stabiliser, ties in _class_walk(max_p):
        weight = factorial(p) // stabiliser * (scale // ties)
        lower, upper = status_bounds_values(p, sum(row.bit_count() for row in adj) // 2)
        graphs[p] += weight
        violations[p] += weight * sum(not lower <= s <= upper for s in _statuses(adj))
    return [(p, graphs[p] // scale, violations[p] // scale) for p in range(1, max_p + 1)]


def _upper_witness(p: int, q: int) -> tuple[list[tuple[int, int]], int]:
    """(edges, node) of the upper witness of extremal_search on nodes
    0..p-1, edges as sorted pairs; for any p >= 1 and feasible q."""
    if q == p * (p - 1) // 2:
        return list(combinations(range(p), 2)), 0
    if q == p - 1:
        return [(0, 1)] + [(i, i + 2) for i in range(p - 2)], p - 2
    k = max(k for k in range(1, p) if q - (p - 1 - k) - k * (k - 1) // 2 >= 1)
    a = q - (p - 1 - k) - k * (k - 1) // 2
    end = k - 1 if a == k - 1 else k
    path = [end, *range(k + 1, p)]
    edges = [pair for pair in combinations(range(k + 1), 2) if end not in pair]
    edges += [(v, end) for v in range(a)] + list(zip(path, path[1:]))
    return sorted(edges), path[-1]


def extremal_search(p: int, q: int) -> tuple[Witness, Witness]:
    """Witness nodes of the lower and the upper status bound on
    p <= MAX_EXTREMAL_NODES nodes and q edges, for every q with
    p - 1 <= q <= p(p-1)/2.

    Each witness is the first node that attains its bound in the first
    connected labeled graph (edge combinations in lexicographic order)
    in which one does.  The lower witness is v1 of the first graph,
    whose first q >= p - 1 pairs hold all p - 1 pairs at v1.

    The upper witness is built (_upper_witness), and one BFS confirms
    its status.  A node x attains the upper bound exactly when the graph
    is a path x = u0 ... ut whose end ut is joined to a non-empty set A
    of a clique K on the other k = p - 1 - t nodes (Entringer, Jackson
    and Snyder, 1976), so q = t + |A| + k(k-1)/2.  Take k largest in
    1..p-1 with a = |A| >= 1; then a <= k.  With labels v1..vp:

    - a == k, only at q = p(p-1)/2: the complete graph, witness v1;
    - q == p - 1: the path with edges v1v2 and every v_i v_{i+2},
      witness v_{p-1};
    - a == k - 1: K on v1..v_{k-1}, v_{k+1}; ut = v_k joined to
      v1..v_{k-1}; the path v_k v_{k+2} ... vp; witness vp, or v_k when
      k = p - 1;
    - otherwise: K on v1..vk; ut = v_{k+1} joined to v1..va; the path
      v_{k+1} ... vp; witness vp.

    Why it is first: of two graphs with q edges, the first holds the
    first pair in which they differ, so the first graph of a family
    gives v1 the most and the earliest neighbours any member allows,
    then v2, and so on.  In a tree every degree is at most 2, and the
    path winds out from v1 both ways.  Otherwise k >= 2 and every degree
    is at most k, reached by the nodes of A and, when a == k - 1 and
    t >= 1, by ut: these take the first labels, each joined to the
    earliest ones, and the rest of K and the path follow in label order.
    At a == k - 1, ut at v_k has the later neighbour v_{k+2}, which a
    clique node there would lack (at t = 0, only the last pair is left
    out).  The far end of the path is the first node at the bound.
    Both witnesses share one graph when their edges agree.
    """
    _check_enumeration_size(p, "search", MAX_EXTREMAL_NODES)
    if isinstance(q, bool) or not isinstance(q, int) or not p - 1 <= q <= p * (p - 1) // 2:
        raise GraphError(
            f"q={q!r} outside the feasible range [{p - 1}, {p * (p - 1) // 2}] for p={p}"
        )
    names = _node_names(p)
    lower, upper = status_bounds_values(p, q)
    first = list(islice(combinations(range(p), 2), q))
    edges, node = _upper_witness(p, q)
    lower_graph = upper_graph = FiniteGraph(names, [(names[i], names[j]) for i, j in first])
    if edges != first:
        upper_graph = FiniteGraph(names, [(names[i], names[j]) for i, j in edges])
    if upper_graph.status(names[node]) != upper:
        raise GraphError(f"the constructed upper witness for p={p}, q={q} misses the bound")
    return Witness(lower_graph, names[0], lower), Witness(upper_graph, names[node], upper)
