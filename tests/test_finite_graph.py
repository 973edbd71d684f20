"""Tests for the finite graph substrate, enumeration and extremal search."""

import random
from collections import Counter, defaultdict
from fractions import Fraction
from itertools import combinations
from math import comb, factorial

import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings, strategies as st

from tgstatus import finite_graph
from tgstatus.cli import main
from tgstatus.finite_graph import (
    FiniteGraph,
    GraphError,
    MAX_ENUMERATION_NODES,
    MAX_EXTREMAL_NODES,
    MAX_VERIFY_NODES,
    _canonical_form,
    _class_walk,
    _least_invariant_last,
    _non_cut_below,
    _orbit_representatives,
    _statuses,
    _upper_witness,
    bound_violation_counts,
    enumerate_connected_graphs,
    extremal_search,
    status_bounds_values,
)

from helpers import (
    is_path_into_clique,
    oracle_automorphism_count,
    oracle_automorphisms,
    oracle_bfs,
    oracle_canonical_word,
    oracle_connected_count,
    oracle_connected_edge_count,
    oracle_generated_group,
    oracle_node_set_orbits,
    oracle_status,
)

# Labeled connected graphs on p = 1, 2, ... nodes (OEIS A001187) and
# their isomorphism classes (OEIS A001349).
LABELED_CONNECTED = [1, 1, 4, 38, 728, 26704, 1866256]
CONNECTED_CLASSES = [1, 1, 2, 6, 21, 112, 853]


def path_graph(n):
    names = [f"v{i}" for i in range(1, n + 1)]
    return FiniteGraph(names, list(zip(names, names[1:])))


def cycle_graph(n):
    names = [f"v{i}" for i in range(1, n + 1)]
    return FiniteGraph(names, list(zip(names, names[1:] + names[:1])))


def complete_bipartite_graph(m, n):
    left = [f"a{i}" for i in range(1, m + 1)]
    right = [f"b{i}" for i in range(1, n + 1)]
    return FiniteGraph(left + right, [(u, v) for u in left for v in right])


def grid_graph(rows, cols):
    names = {(r, c): f"r{r}c{c}" for r in range(rows) for c in range(cols)}
    edges = [(names[r, c], names[r, c + 1]) for r in range(rows) for c in range(cols - 1)]
    edges += [(names[r, c], names[r + 1, c]) for r in range(rows - 1) for c in range(cols)]
    return FiniteGraph(names.values(), edges)


def hypercube_graph(d):
    names = [format(k, f"0{d}b") for k in range(1 << d)]
    edges = [(names[k ^ 1 << bit], names[k]) for k in range(1 << d) for bit in range(d) if k >> bit & 1]
    return FiniteGraph(names, edges)


@st.composite
def connected_graphs(draw):
    p = draw(st.integers(min_value=1, max_value=8))
    names = [f"v{i}" for i in range(1, p + 1)]
    edges = []
    for i in range(1, p):
        j = draw(st.integers(min_value=0, max_value=i - 1))
        edges.append((names[j], names[i]))
    extra = [
        (names[i], names[j])
        for i in range(p)
        for j in range(i + 1, p)
        if (names[i], names[j]) not in edges and (names[j], names[i]) not in edges
    ]
    chosen = draw(st.lists(st.sampled_from(extra), unique=True, max_size=5)) if extra else []
    return FiniteGraph(names, edges + chosen)


@st.composite
def any_graphs(draw):
    """Graphs on up to 12 nodes with any edge set, so mostly disconnected."""
    p = draw(st.integers(min_value=1, max_value=12))
    names = [f"v{i}" for i in range(1, p + 1)]
    pairs = list(combinations(names, 2))
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=16)) if pairs else []
    return FiniteGraph(names, edges)


@st.composite
def drawn_graphs(draw, connected):
    """Graphs on up to 30 nodes declared in no particular name order, with
    edges in drawn order and orientation; connected by a spanning tree
    when asked, else any edge set."""
    p = draw(st.integers(min_value=1, max_value=30))
    nodes = draw(st.permutations([f"n{i}" for i in range(p)]))
    pairs = [(nodes[i], nodes[j]) for i in range(p) for j in range(i + 1, p)]
    if connected:
        tree = [(nodes[draw(st.integers(0, i - 1))], nodes[i]) for i in range(1, p)]
        rest = [pair for pair in pairs if pair not in tree and pair[::-1] not in tree]
        extra = draw(st.lists(st.sampled_from(rest), unique=True, max_size=p)) if rest else []
        edges = draw(st.permutations(tree + extra))
    else:
        edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=p)) if pairs else []
    flips = draw(st.lists(st.booleans(), min_size=len(edges), max_size=len(edges)))
    return FiniteGraph(nodes, [(v, u) if flip else (u, v) for (u, v), flip in zip(edges, flips)])


@st.composite
def edge_groups(draw):
    """(nodes, groups) of a simple graph for ``FiniteGraph._of``: ids
    v0, v1, ... in shuffled order, so string order and index order differ
    (v10 < v2), and groups (i, [j, ...]) on node indices, where a node's
    groups need not follow each other and a few drawn nodes get no edge."""
    p = draw(st.integers(min_value=1, max_value=14))
    nodes = tuple(draw(st.permutations([f"v{k}" for k in range(p)])))
    isolated = draw(st.sets(st.integers(0, p - 1), max_size=3))
    touchable = [k for k in range(p) if k not in isolated]
    free = {(i, j) for i in touchable for j in touchable if i < j}
    groups = []
    for i in draw(st.lists(st.sampled_from(touchable), max_size=2 * p)) if touchable else []:
        partners = [j for j in touchable if (min(i, j), max(i, j)) in free]
        group = draw(st.lists(st.sampled_from(partners), unique=True, max_size=4)) if partners else []
        free -= {(min(i, j), max(i, j)) for j in group}
        groups.append((i, group))
    return nodes, groups


class TestAgainstOracle:
    """FiniteGraph's searches against oracle_bfs, on connected and on
    disconnected graphs whose node order is not their name order;
    TestDistancesAndStatus runs its shortest_path and hop_distance checks
    on these graphs too."""

    @given(st.one_of(drawn_graphs(True), drawn_graphs(False)))
    def test_searches_match_the_oracle(self, g):
        nodes, edges = g.nodes, g.edges
        reach = {source: oracle_bfs(nodes, edges, source) for source in nodes}
        connected = len(reach[nodes[0]]) == len(nodes)
        assert g.is_connected() == connected
        for source in nodes:
            full = reach[source]
            assert g.bfs_distances(source) == {node: full.get(node) for node in nodes}
            if connected:
                assert g.status(source) == oracle_status(nodes, edges, source)
            else:
                with pytest.raises(GraphError) as excinfo:
                    g.status(source)
                assert str(excinfo.value) == "status is undefined on a disconnected graph"

    @given(st.one_of(drawn_graphs(True), drawn_graphs(False)))
    def test_neighbors_in_edge_order(self, g):
        nodes = g.nodes
        expected = {node: [] for node in nodes}
        for u, v in g.edges:
            expected[u].append(v)
            expected[v].append(u)
        for node in nodes:
            assert g.neighbors(node) == tuple(expected[node])
            assert g.degree(node) == len(expected[node])

    @given(drawn_graphs(False))
    @settings(max_examples=20)
    def test_unknown_node_error_text(self, g):
        known = g.nodes[0]
        calls = [
            lambda: g.bfs_distances("zz"),
            lambda: g.shortest_path("zz", known),
            lambda: g.shortest_path(known, "zz"),
            lambda: g.hop_distance("zz", known),
            lambda: g.hop_distance(known, "zz"),
            lambda: g.hop_distance("zz", "yy"),
            lambda: g.status("zz"),
            lambda: g.neighbors("zz"),
            lambda: g.degree("zz"),
        ]
        for call in calls:
            with pytest.raises(GraphError) as excinfo:
                call()
            assert str(excinfo.value) == "unknown node 'zz'"


class TestConstruction:
    def test_rejects_duplicate_node(self):
        with pytest.raises(GraphError):
            FiniteGraph(["a", "a"])

    def test_rejects_self_loop(self):
        with pytest.raises(GraphError):
            FiniteGraph(["a"], [("a", "a")])

    def test_rejects_duplicate_edge_either_orientation(self):
        with pytest.raises(GraphError):
            FiniteGraph(["a", "b"], [("a", "b"), ("b", "a")])

    def test_rejects_undeclared_endpoint(self):
        with pytest.raises(GraphError):
            FiniteGraph(["a"], [("a", "b")])

    def test_canonical_edges_and_order(self):
        g = FiniteGraph(["b", "a", "c"], [("c", "a"), ("b", "c")])
        assert g.nodes == ("b", "a", "c")
        assert g.edges == (("a", "c"), ("b", "c"))
        assert g.has_edge("c", "a") and g.has_edge("a", "c")
        assert not g.has_edge("a", "b")
        assert g.neighbors("c") == ("a", "b")
        assert g.degree("c") == 2
        assert repr(g) == "FiniteGraph(p=3, q=2)"

    def test_equality_ignores_edge_order(self):
        g1 = FiniteGraph(["a", "b", "c"], [("a", "b"), ("b", "c")])
        g2 = FiniteGraph(["a", "b", "c"], [("c", "b"), ("b", "a")])
        assert g1 == g2
        assert hash(g1) == hash(g2)
        assert (g1 == "x") is False

    @given(st.data())
    def test_equality_hash_and_has_edge_read_the_edge_set(self, data):
        ids = data.draw(st.lists(st.text(max_size=3), unique=True, min_size=1, max_size=8))
        pairs = list(combinations(ids, 2))
        edges = data.draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
        g = FiniteGraph(ids, edges)
        shuffled = data.draw(st.permutations(edges))
        swapped = FiniteGraph(ids, [(v, u) for u, v in shuffled])
        assert g == swapped and hash(g) == hash(swapped)
        assert hash(g) == hash((g.nodes, frozenset(g.edges)))
        if edges:
            dropped = data.draw(st.integers(0, len(edges) - 1))
            assert g != FiniteGraph(ids, edges[:dropped] + edges[dropped + 1 :])
        order = data.draw(st.permutations(ids))
        assert (g == FiniteGraph(order, edges)) == (order == ids)
        oracle = {frozenset(edge) for edge in edges}
        undeclared = "".join(ids) + "?"
        for u in ids:
            for v in ids:
                assert g.has_edge(u, v) == (frozenset((u, v)) in oracle)
            assert not g.has_edge(u, undeclared) and not g.has_edge(undeclared, u)

    @given(edge_groups())
    @example((("v2", "v10"), [(0, [1])]))
    @example((("v0", "v1", "v2"), [(0, [1]), (2, [0])]))
    def test_unchecked_constructor_matches_the_checked_one(self, drawn):
        nodes, groups = drawn
        checked = FiniteGraph(nodes, [(nodes[i], nodes[j]) for i, group in groups for j in group])
        graph = FiniteGraph._of(nodes, groups)
        assert graph.nodes == checked.nodes
        assert graph.edges == checked.edges
        assert graph._index == checked._index
        assert graph._nbrs == checked._nbrs
        assert graph == checked and hash(graph) == hash(checked)
        for _, group in groups:
            group.clear()
        assert graph._nbrs == checked._nbrs
        assert graph.edges == checked.edges
        assert graph == checked


class TestDistancesAndStatus:
    def test_single_node(self):
        g = FiniteGraph(["a"])
        assert g.is_connected()
        assert g.status("a") == 0
        assert g.status_bounds().lower == 0
        assert g.status_bounds().upper == 0

    def test_path4(self):
        g = path_graph(4)
        assert g.bfs_distances("v1") == {"v1": 0, "v2": 1, "v3": 2, "v4": 3}
        assert g.status("v1") == 6
        assert g.status("v2") == 4
        b = g.status_bounds()
        assert (b.p, b.q, b.lower, b.upper) == (4, 3, 3, 6)

    def test_disconnected(self):
        g = FiniteGraph(["a", "b", "c"], [("a", "b")])
        assert not g.is_connected()
        assert g.bfs_distances("a")["c"] is None
        with pytest.raises(GraphError):
            g.status("a")
        with pytest.raises(GraphError):
            g.status_bounds()

    def test_bounds_need_a_node(self):
        with pytest.raises(GraphError) as excinfo:
            FiniteGraph([]).status_bounds()
        assert str(excinfo.value) == "bounds need at least one node"

    def test_unknown_source(self):
        with pytest.raises(GraphError):
            path_graph(2).bfs_distances("nope")

    # Here and in the next test, graphs with many tied shortest paths,
    # whose two balls meet at a node (even hops) and across an edge (odd
    # hops), and whose frontiers often tie: K_{3,4}, the 4 x 4 grid, the
    # hypercube Q4, C8, C9 and the 12-node path.
    @example(complete_bipartite_graph(3, 4))
    @example(grid_graph(4, 4))
    @example(hypercube_graph(4))
    @example(cycle_graph(8))
    @example(cycle_graph(9))
    @example(path_graph(12))
    @given(st.one_of(connected_graphs(), any_graphs(), drawn_graphs(True), drawn_graphs(False)))
    def test_shortest_path_steps_to_the_least_nearer_neighbour(self, g):
        for b in g.nodes:
            dist = oracle_bfs(g.nodes, g.edges, b)
            for a in g.nodes:
                path = g.shortest_path(a, b)
                if a not in dist:
                    assert path is None
                    continue
                assert len(path) == dist[a] + 1
                assert path[0] == a and path[-1] == b
                for u, v in zip(path, path[1:]):
                    assert g.has_edge(u, v)
                    nearer = [w for w in g.neighbors(u) if dist.get(w) == dist[u] - 1]
                    assert v == min(nearer)

    @example(complete_bipartite_graph(3, 4))
    @example(grid_graph(4, 4))
    @example(hypercube_graph(4))
    @example(cycle_graph(8))
    @example(cycle_graph(9))
    @example(path_graph(12))
    @given(st.one_of(connected_graphs(), any_graphs(), drawn_graphs(True), drawn_graphs(False)))
    def test_hop_distance_matches_oracle_on_every_pair(self, g):
        for a in g.nodes:
            dist = oracle_bfs(g.nodes, g.edges, a)
            for b in g.nodes:
                assert g.hop_distance(a, b) == dist.get(b)

    def test_hop_distance_on_long_path_and_cycle(self):
        g = path_graph(9)
        assert g.hop_distance("v1", "v9") == 8
        assert g.hop_distance("v3", "v3") == 0
        cycle = FiniteGraph(g.nodes, g.edges + (("v1", "v9"),))
        assert cycle.hop_distance("v2", "v7") == 4

    def test_hop_distance_unknown_node(self):
        g = path_graph(2)
        for a, b in (("nope", "v1"), ("v1", "nope"), ("nope", "nope")):
            with pytest.raises(GraphError):
                g.hop_distance(a, b)

    @given(connected_graphs())
    def test_status_matches_oracle(self, g):
        for node in g.nodes:
            assert g.status(node) == oracle_status(g.nodes, g.edges, node)

    @given(connected_graphs())
    def test_bounds_hold(self, g):
        b = g.status_bounds()
        for node in g.nodes:
            assert b.lower <= g.status(node) <= b.upper

    @given(connected_graphs())
    def test_lower_bound_achieved_iff_adjacent_to_all(self, g):
        for node in g.nodes:
            achieves = g.status(node) == g.p - 1
            assert achieves == (g.degree(node) == g.p - 1)


class TestBoundsFormula:
    @pytest.mark.parametrize(
        "p, q, lower, upper",
        [(1, 0, 0, 0), (2, 1, 1, 1), (4, 3, 3, 6), (4, 4, 3, 5), (4, 6, 3, 3),
         (5, 4, 4, 10), (6, 5, 5, 15)],
    )
    def test_examples(self, p, q, lower, upper):
        assert status_bounds_values(p, q) == (lower, upper)

    @given(st.integers(min_value=1, max_value=100), st.integers(min_value=0, max_value=500))
    def test_integer_exact(self, p, q):
        lower, upper = status_bounds_values(p, q)
        assert lower == p - 1
        assert 2 * upper == (p - 1) * (p + 2) - 2 * q


class TestEnumeration:
    @pytest.mark.parametrize("p, count", [(1, 1), (2, 1), (3, 4), (4, 38)])
    def test_counts_small(self, p, count):
        assert sum(1 for _ in enumerate_connected_graphs(p)) == count

    @pytest.mark.parametrize("p", [1, 2, 3, 4, 5])
    def test_counts_match_union_find_oracle(self, p):
        assert sum(1 for _ in enumerate_connected_graphs(p)) == oracle_connected_count(p)

    def test_all_connected_and_distinct(self):
        seen = set()
        for g in enumerate_connected_graphs(4):
            assert g.is_connected()
            assert g.p == 4
            key = frozenset(g.edges)
            assert key not in seen
            seen.add(key)

    @pytest.mark.parametrize("p", [1, 2, 3, 4, 5])
    def test_order_by_edge_count_then_lexicographic(self, p):
        names = [f"v{i}" for i in range(1, p + 1)]
        expected = [
            list(edges)
            for q in range(p - 1, p * (p - 1) // 2 + 1)
            for edges in combinations(combinations(names, 2), q)
            if len(oracle_bfs(names, edges, names[0])) == p
        ]
        assert [list(g.edges) for g in enumerate_connected_graphs(p)] == expected

    def test_rejects_out_of_range(self):
        with pytest.raises(GraphError):
            list(enumerate_connected_graphs(0))
        with pytest.raises(GraphError):
            list(enumerate_connected_graphs(MAX_ENUMERATION_NODES + 1))
        for p in (True, False):
            with pytest.raises(GraphError):
                list(enumerate_connected_graphs(p))


def graph_of_mask(p, mask):
    """(nodes, edges, adjacency bitmasks) of an edge mask, built directly."""
    pairs = combinations(range(p), 2)
    return graph_of_edges(p, [pair for k, pair in enumerate(pairs) if mask >> k & 1])


def graph_of_edges(p, edges):
    """(nodes, edges, adjacency bitmasks) of an edge list on nodes 0..p-1."""
    nodes = list(range(p))
    adj = [0] * p
    for i, j in edges:
        adj[i] |= 1 << j
        adj[j] |= 1 << i
    return nodes, edges, adj


class TestBitmaskKernel:
    @pytest.mark.parametrize("p", [1, 2, 3, 4, 5])
    def test_statuses_match_oracle_on_every_edge_mask(self, p):
        for mask in range(1 << (p * (p - 1) // 2)):
            nodes, edges, adj = graph_of_mask(p, mask)
            expected = [oracle_status(nodes, edges, v) for v in nodes]
            if None in expected:
                assert all(s is None for s in expected)
                assert _statuses(adj) is None, (p, mask)
            else:
                assert _statuses(adj) == expected, (p, mask)

    @pytest.mark.parametrize("p, count", enumerate(LABELED_CONNECTED, 1))
    def test_bound_violation_counts_matches_a001187(self, p, count):
        rows = list(bound_violation_counts(p))
        assert rows == [(n, c, 0) for n, c in enumerate(LABELED_CONNECTED[:p], 1)]
        assert rows[-1] == (p, count, 0)

    @pytest.mark.parametrize("p", [0, MAX_VERIFY_NODES + 1, 3.0, "3", True, False])
    def test_bound_violation_counts_rejects_unsupported_p(self, p):
        with pytest.raises(GraphError):
            list(bound_violation_counts(p))


def all_labeled(p):
    """(q, adjacency, statuses) of every labeled connected graph on p nodes,
    one for each edge mask (graph_of_mask)."""
    for mask in range(1 << (p * (p - 1) // 2)):
        _, edges, adj = graph_of_mask(p, mask)
        statuses = _statuses(adj)
        if statuses is not None:
            yield len(edges), adj, statuses


def labeled_classes(p):
    """{canonical form: [sorted statuses of each labeled graph]} over every
    labeled connected graph on p nodes."""
    groups = defaultdict(list)
    for _, adj, statuses in all_labeled(p):
        groups[_canonical_form(adj)[:2]].append(sorted(statuses))
    return groups


def walk_classes(max_p):
    """{canonical rows: automorphism count} of the classes of the graphs
    that _class_walk(max_p) yields on n nodes, one dict for each
    n = 1, ..., max_p; each graph is named by its _canonical_form."""
    levels = [{} for _ in range(max_p)]
    for n, adj, _, _ in _class_walk(max_p):
        form, automorphisms = _canonical_form(adj)[:2]
        levels[n - 1][form] = automorphisms
    return levels


def brute_force_ties(adj):
    """The nodes of C, in increasing order, when the graph's last node is
    in C, else []: C is the set of non-cut nodes (by an oracle BFS on the
    graph without them) that share the least (degree, sorted neighbour
    degrees) among them."""
    p = len(adj)
    edges = [(i, j) for i in range(p) for j in range(i + 1, p) if adj[i] >> j & 1]

    def invariant(v):
        neighbours = [u for u in range(p) if adj[v] >> u & 1]
        return len(neighbours), sorted(bin(adj[u]).count("1") for u in neighbours)

    non_cut = []
    for v in range(p):
        rest = [u for u in range(p) if u != v]
        kept = [(a, b) for a, b in edges if v not in (a, b)]
        if len(oracle_bfs(rest, kept, rest[0])) == p - 1:
            non_cut.append(v)
    least = min(invariant(v) for v in non_cut)
    ties = [v for v in non_cut if invariant(v) == least]
    return ties if p - 1 in ties else []


class TestIsomorphismClasses:
    @pytest.mark.parametrize("p", [1, 2, 3, 4, 5, 6])
    def test_labeled_graphs_fall_into_the_generated_classes(self, p):
        groups = labeled_classes(p)
        assert len(groups) == CONNECTED_CLASSES[p - 1]
        for (form, automorphisms), multisets in groups.items():
            assert len(multisets) == factorial(p) // automorphisms, (p, form)
            representative = list(form)
            assert _canonical_form(representative)[:2] == (form, automorphisms)
            assert multisets == [sorted(_statuses(representative))] * len(multisets)
        level = walk_classes(p)[p - 1]
        generated = [(*_canonical_form(list(form))[:2], aut) for form, aut in level.items()]
        assert sorted(generated) == sorted((form, aut, aut) for form, aut in groups)

    @pytest.mark.parametrize("p", [1, 2, 3, 4, 5])
    def test_canonical_form_partitions_like_brute_force_oracle(self, p):
        by_form, by_oracle = defaultdict(set), defaultdict(set)
        for k, (_, adj, _) in enumerate(all_labeled(p)):
            edges = [(i, j) for i in range(p) for j in range(i + 1, p) if adj[i] >> j & 1]
            by_form[_canonical_form(adj)[:2]].add(k)
            by_oracle[oracle_canonical_word(p, edges)].add(k)
        assert sorted(map(sorted, by_form.values())) == sorted(map(sorted, by_oracle.values()))

    def test_least_invariant_last_ignores_cut_nodes(self):
        # Two K4s, {8, 1, 2, 3} and {4, 5, 6, 7}, joined through node 0:
        # node 0 has the least degree, 2, but it is a cut node, so the
        # last node (degree 3) has the least degree of the non-cut nodes.
        # Without the cut check the classes on up to 8 nodes come out the
        # same, and on 9 nodes this graph's class is lost.
        blocks = [(8, 1, 2, 3), (4, 5, 6, 7)]
        edges = [pair for block in blocks for pair in combinations(block, 2)] + [(0, 3), (0, 4)]
        _, _, adj = graph_of_edges(9, edges)
        assert _least_invariant_last(adj)
        # Node 0 is a leaf, and the last node has degree 2.
        _, _, adj = graph_of_edges(4, [(0, 1), (1, 2), (2, 3), (1, 3)])
        assert not _least_invariant_last(adj)

    def test_least_invariant_last_breaks_degree_ties_by_neighbour_degrees(self):
        # Leaves 0 and 4 tie on degree; 0 hangs from a node of degree 2,
        # the last node from one of degree 3.
        _, _, adj = graph_of_edges(5, [(0, 1), (1, 2), (2, 3), (2, 4)])
        assert not _least_invariant_last(adj)
        # The path: both ends have (1, [2]), an equal invariant.
        _, _, adj = graph_of_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        assert _least_invariant_last(adj) == [0, 4]
        # A triangle with a pendant last node: no other node has (1, [3]).
        _, _, adj = graph_of_edges(4, [(0, 1), (0, 2), (1, 2), (0, 3)])
        assert _least_invariant_last(adj) == [3]
        # Triangles 0, 1, 2 and 6, 7, 8 joined by the path 0 3 4 5 6: the
        # cut node 4 has (2, [2, 2]), less than the (2, [2, 3]) of the last
        # node and of every non-cut node, and it is ignored.
        triangles = [(0, 1), (0, 2), (1, 2), (6, 7), (6, 8), (7, 8)]
        _, _, adj = graph_of_edges(9, triangles + [(0, 3), (3, 4), (4, 5), (5, 6)])
        assert _least_invariant_last(adj)

    def test_p7_classes_sum_to_the_labeled_count(self):
        levels = walk_classes(7)
        assert [len(level) for level in levels] == CONNECTED_CLASSES
        for p, level in enumerate(levels, 1):
            assert sum(factorial(p) // aut for aut in level.values()) == LABELED_CONNECTED[p - 1]

    def test_classes_sum_to_the_labeled_count_of_every_edge_count(self):
        for p, level in enumerate(walk_classes(7), 1):
            labeled = Counter()
            for form, automorphisms in level.items():
                q = sum(row.bit_count() for row in form) // 2
                labeled[q] += factorial(p) // automorphisms
            expected = [oracle_connected_edge_count(p, q) for q in range(comb(p, 2) + 1)]
            assert sum(expected) == LABELED_CONNECTED[p - 1]
            assert [labeled[q] for q in range(comb(p, 2) + 1)] == expected, p

    def test_walk_generators_and_orbits_match_brute_force(self, monkeypatch):
        # Every generator set that a canonical form in the walk gives a
        # class (the walk keeps that of the extension it keeps), and that
        # of the class's canonical rows, generates its whole group.
        found = defaultdict(list)

        def recording(adj):
            result = _canonical_form(adj)
            found[len(adj), result[0]].append(result[2])
            return result

        monkeypatch.setattr(finite_graph, "_canonical_form", recording)
        for p, level in enumerate(walk_classes(6), 1):
            for form, automorphisms in level.items():
                adj = list(form)
                edges = {(i, j) for i in range(p) for j in range(i + 1, p) if adj[i] >> j & 1}
                count = oracle_automorphism_count(p, edges)
                orbits = oracle_node_set_orbits(p, oracle_automorphisms(p, edges))
                for generators in found[p, form] + [_canonical_form(adj)[2]]:
                    for g in generators:
                        assert {tuple(sorted((g[i], g[j]))) for i, j in edges} == edges, (p, form)
                    assert len(oracle_generated_group(p, generators)) == count == automorphisms
                    kept = _orbit_representatives(generators, p)
                    assert list(kept) == sorted(min(orbit) for orbit in orbits), (p, form)
                    assert kept == {min(orbit): len(orbit) for orbit in orbits}, (p, form)

    def test_walk_extends_one_graph_per_class(self, monkeypatch):
        # Canonical deletion picks one parent per class on n < max_p nodes,
        # as its canonical rows, with no set of forms seen before;
        # _non_cut_below runs once on each parent.
        parents = []

        def recording(rows):
            parents.append(rows)
            return _non_cut_below(rows)

        monkeypatch.setattr(finite_graph, "_non_cut_below", recording)
        for _ in _class_walk(7):
            pass
        forms = defaultdict(set)
        for rows in parents:
            form = _canonical_form(rows)[0]
            assert rows == list(form), rows
            assert form not in forms[len(rows)], rows
            forms[len(rows)].add(form)
        assert sorted(forms) == list(range(1, 7))
        assert [len(forms[n]) for n in range(1, 7)] == CONNECTED_CLASSES[:6]

    @pytest.mark.parametrize("max_p, calls", [(6, 30), (7, 143)])
    def test_verify_ejs_builds_each_level_once(self, max_p, calls, monkeypatch):
        # One walk builds each level 2..max_p once.  Each extension that
        # orbit pruning and _least_invariant_last keep gets one _statuses
        # call, as does the single node, and one canonical form when it
        # has fewer than max_p nodes.
        counted, kept, checked = [], [], []

        def counting(adj):
            counted.append(len(adj))
            return _canonical_form(adj)

        def recording(adj):
            ties = _least_invariant_last(adj)
            if ties:
                kept.append(len(adj))
            return ties

        def checking(adj):
            checked.append(len(adj))
            return _statuses(adj)

        monkeypatch.setattr(finite_graph, "_canonical_form", counting)
        monkeypatch.setattr(finite_graph, "_least_invariant_last", recording)
        monkeypatch.setattr(finite_graph, "_statuses", checking)
        result = CliRunner().invoke(main, ["verify-ejs", "--max-p", str(max_p)])
        assert result.exit_code == 0
        assert len(counted) == calls
        assert sorted(counted) == sorted(n for n in kept if n < max_p)
        assert sorted(checked) == sorted([1] + kept)
        assert len(checked) == {6: 144, 7: 1029}[max_p]
        if max_p == 6:
            # The single node needs no search, and the 30 classes on 2..5
            # nodes are each reached once.
            assert [counted.count(n) for n in range(2, 6)] == CONNECTED_CLASSES[1:5]

    @pytest.mark.parametrize("max_p, calls", [(6, 225), (8, 22735)])
    def test_verify_ejs_tests_few_extensions(self, max_p, calls, monkeypatch):
        # The pre-test (_non_cut_below) skips the joined sets that leave a
        # non-cut node of smaller degree, before _least_invariant_last
        # (388 and 71,300 calls without it).
        counted = []

        def counting(adj):
            counted.append(len(adj))
            return _least_invariant_last(adj)

        monkeypatch.setattr(finite_graph, "_least_invariant_last", counting)
        result = CliRunner().invoke(main, ["verify-ejs", "--max-p", str(max_p)])
        assert result.exit_code == 0
        assert len(counted) == calls

    def test_non_cut_below_matches_its_definition(self):
        for n in range(1, 7):
            for _, adj, _ in all_labeled(n):
                edges = [(i, j) for i in range(n) for j in range(i + 1, n) if adj[i] >> j & 1]
                non_cut = [
                    n == 1 or len(oracle_bfs(
                        [v for v in range(n) if v != u],
                        [e for e in edges if u not in e],
                        (u + 1) % n,
                    )) == n - 1
                    for u in range(n)
                ]
                expected = [
                    sum(1 << u for u in range(n) if non_cut[u] and adj[u].bit_count() < k)
                    for k in range(n + 1)
                ]
                assert _non_cut_below(adj) == expected, adj

    def test_pre_test_rejects_only_what_the_deletion_rule_rejects(self):
        rejected = 0
        for n, graph, _, _ in _class_walk(7):
            if n == 7:
                continue
            canonical, _, generators = _canonical_form(graph)[:3]
            rows = list(canonical)
            below = _non_cut_below(rows)
            for joined in _orbit_representatives(generators, n):
                if below[joined.bit_count()] & ~joined:
                    adj = rows + [joined]
                    for v in range(n):
                        adj[v] |= (joined >> v & 1) << n
                    assert _least_invariant_last(adj) == [], (rows, joined)
                    rejected += 1
        assert rejected

    @pytest.mark.parametrize("max_p", [1, 2, 3, 4, 5, 6, 7])
    def test_last_level_rows_match_the_full_walk(self, max_p):
        # Row max_p of bound_violation_counts(max_p) weighs the rooted
        # extensions of the last level; bound_violation_counts(7) weighs
        # the same extensions and also picks parents among them.
        assert list(bound_violation_counts(max_p)) == list(bound_violation_counts(7))[:max_p]

    def test_every_level_sums_to_the_labeled_count_of_every_edge_count(self):
        for p in range(1, 8):
            labeled = Counter()
            for n, adj, stabiliser, ties in _class_walk(p):
                q = sum(row.bit_count() for row in adj) // 2
                labeled[n, q] += Fraction(factorial(n), stabiliser * ties)
            for n in range(1, p + 1):
                expected = [oracle_connected_edge_count(n, q) for q in range(comb(n, 2) + 1)]
                assert [labeled[n, q] for q in range(comb(n, 2) + 1)] == expected, (p, n)

    @pytest.mark.parametrize("p", [2, 3, 4, 5, 6, 7])
    def test_unique_extensions_need_no_canonical_form(self, p):
        # For every class G on n <= p nodes, 1/(|Stab(S)| * |C|) summed
        # over the extensions in G's class is 1/|Aut G|.  An extension
        # with |C| = 1 is therefore its class's only one, with |Stab(S)| =
        # |Aut G|.
        weights, extensions, unique, edges_of = Counter(), Counter(), set(), {}
        for n, adj, stabiliser, ties in _class_walk(p):
            canonical = _canonical_form(adj)[0]
            weights[canonical] += Fraction(1, stabiliser * ties)
            extensions[canonical] += 1
            edges_of[canonical] = [
                (i, j) for i in range(n) for j in range(i + 1, n) if adj[i] >> j & 1
            ]
            if ties == 1:
                unique.add(canonical)
                assert stabiliser == oracle_automorphism_count(n, edges_of[canonical]), adj
        assert [sum(len(c) == n for c in weights) for n in range(1, p + 1)] == CONNECTED_CLASSES[:p]
        for canonical, weight in weights.items():
            automorphisms = oracle_automorphism_count(len(canonical), edges_of[canonical])
            assert weight == Fraction(1, automorphisms), (p, edges_of[canonical])
        assert all(extensions[canonical] == 1 for canonical in unique)

    @pytest.mark.parametrize("p", [2, 3, 4, 5, 6, 7])
    def test_tie_count_matches_brute_force(self, p):
        # Every node set joined to a new node of every class on p - 1
        # nodes; a node is non-cut when an oracle BFS on the rest reaches
        # every other node.
        for form in walk_classes(p - 1)[-1]:
            rows = list(form)
            for joined in range(1, 1 << (p - 1)):
                adj = [row | (joined >> v & 1) << (p - 1) for v, row in enumerate(rows)]
                adj.append(joined)
                assert _least_invariant_last(adj) == brute_force_ties(adj), (p, adj)

    def test_tie_count_skips_a_cut_node_that_ties(self):
        # Triangles 0 1 2 and 5 6 7 joined by the path 2 3 4 5.  The cut
        # nodes 3 and 4 share (2, [2, 3]) with the non-cut nodes 0, 1, 6
        # and 7, the least of those; |C| = 4, not 6.  No class on fewer
        # nodes has a cut node tied with the least non-cut invariant.
        edges = [(0, 1), (0, 2), (1, 2), (5, 6), (5, 7), (6, 7), (2, 3), (3, 4), (4, 5)]
        _, _, adj = graph_of_edges(8, edges)
        assert brute_force_ties(adj) == [0, 1, 6, 7]
        assert _least_invariant_last(adj) == [0, 1, 6, 7]

    @pytest.mark.parametrize("p", [2, 3, 4, 5, 6])
    def test_violations_count_labeled_nodes(self, p, monkeypatch):
        # Tighten the upper bound by one, so that every node at the bound
        # is a violation, and compare with the labeled scan.
        def tight(p, q):
            return p - 1, (p - 1) * (p + 2) // 2 - q - 1

        expected = sum(
            sum(s > tight(p, q)[1] for s in statuses) for q, _, statuses in all_labeled(p)
        )
        assert expected > 0
        monkeypatch.setattr(finite_graph, "status_bounds_values", tight)
        rows = list(bound_violation_counts(p))
        assert rows[-1] == (p, LABELED_CONNECTED[p - 1], expected)


def complete_multipartite(*sizes):
    """(p, edges) of the complete multipartite graph with these part sizes."""
    part = [k for k, size in enumerate(sizes) for _ in range(size)]
    p = len(part)
    return p, [(i, j) for i in range(p) for j in range(i + 1, p) if part[i] != part[j]]


def cycle(n):
    return n, [(i, (i + 1) % n) for i in range(n)]


def cube():
    return 8, [(i, j) for i in range(8) for j in range(i + 1, 8) if (i ^ j).bit_count() == 1]


def rook_3x3():
    """K3 box K3: nodes 3a + b, adjacent when they share exactly one of a, b."""
    return 9, [
        (i, j) for i in range(9) for j in range(i + 1, 9) if (i // 3 == j // 3) != (i % 3 == j % 3)
    ]


# (name, (p, edges), |Aut|): known group orders.
KNOWN_GROUPS = (
    [(f"K{n}", complete_multipartite(*[1] * n), factorial(n)) for n in range(1, 10)]
    + [(f"C{n}", cycle(n), 2 * n) for n in range(3, 10)]
    + [(f"K1,{n - 1}", complete_multipartite(1, n - 1), factorial(n - 1)) for n in range(3, 10)]
    + [
        ("K3,3", complete_multipartite(3, 3), 72),
        ("K4,4", complete_multipartite(4, 4), 1152),
        ("Q3", cube(), 48),
        ("K3xK3", rook_3x3(), 72),
        ("K3,3,3", complete_multipartite(3, 3, 3), 1296),
    ]
)


class TestCanonicalForm:
    @pytest.mark.parametrize(
        "graph, automorphisms",
        [case[1:] for case in KNOWN_GROUPS],
        ids=[case[0] for case in KNOWN_GROUPS],
    )
    def test_known_group_orders_under_relabeling(self, graph, automorphisms):
        p, edges = graph
        _, _, adj = graph_of_edges(p, edges)
        form, count, *_ = _canonical_form(adj)
        assert count == automorphisms
        rng = random.Random(p * 1000 + len(edges))
        for _ in range(20):
            perm = rng.sample(range(p), p)
            _, _, relabeled = graph_of_edges(p, [(perm[u], perm[v]) for u, v in edges])
            assert _canonical_form(relabeled)[:2] == (form, automorphisms)

    def test_orbits_and_labels_match_brute_force(self):
        # Every class on up to 6 nodes, relabeled at random: label takes
        # the graph onto its canonical rows, and two nodes share an orbit
        # entry exactly when an automorphism maps the one to the other.
        rng = random.Random(6)
        for p, level in enumerate(walk_classes(6), 1):
            for form in level:
                perm = rng.sample(range(p), p)
                rows = list(form)
                edges = [
                    (perm[i], perm[j]) for i in range(p) for j in range(i + 1, p) if rows[i] >> j & 1
                ]
                _, _, adj = graph_of_edges(p, edges)
                canonical, _, _, orbit, label = _canonical_form(adj)
                assert canonical == form
                relabeled = [0] * p
                for u, v in edges:
                    relabeled[label[u]] |= 1 << label[v]
                    relabeled[label[v]] |= 1 << label[u]
                assert sorted(label) == list(range(p)) and relabeled == rows, (p, edges)
                automorphisms = oracle_automorphisms(p, edges)
                for u in range(p):
                    images = {g[u] for g in automorphisms}
                    assert {v for v in range(p) if orbit[v] == orbit[u]} == images, (p, edges)

    def test_complete_graph_search_stays_small(self, monkeypatch):
        # Orbit pruning explores one sibling per level of K9's first path;
        # the unpruned tree has 9! leaves and about a million refinements.
        calls = []
        refine = finite_graph._refine

        def counting(adj, cells, splitters):
            calls.append(len(cells))
            return refine(adj, cells, splitters)

        monkeypatch.setattr(finite_graph, "_refine", counting)
        _, _, adj = graph_of_edges(*complete_multipartite(*[1] * 9))
        assert _canonical_form(adj)[1] == factorial(9)
        assert len(calls) <= 500

    def test_automorphism_counts_match_brute_force(self):
        levels = walk_classes(7)
        classes = [(p, form) for p, level in enumerate(levels[:6], 1) for form in level]
        assert len(classes) == sum(CONNECTED_CLASSES[:6]) == 143
        classes += [(7, form) for form in random.Random(7).sample(sorted(levels[6]), 60)]
        for p, form in classes:
            adj = list(form)
            edges = [(i, j) for i in range(p) for j in range(i + 1, p) if adj[i] >> j & 1]
            assert _canonical_form(adj)[1] == oracle_automorphism_count(p, edges), (p, form)


def reference_extremal_search(p, q):
    """[(edges, node, status)] of the first witness of the lower and of the
    upper status bound: every node of every connected graph with q edges,
    in lexicographic order of the edge combinations, by the oracle."""
    names = [f"v{i}" for i in range(1, p + 1)]
    bounds = [p - 1, (p - 1) * (p + 2) // 2 - q]
    witnesses = [None, None]
    for edges in combinations(combinations(names, 2), q):
        statuses = [oracle_status(names, edges, v) for v in names]
        if None in statuses:
            continue
        for k, bound in enumerate(bounds):
            if witnesses[k] is None and bound in statuses:
                witnesses[k] = (set(edges), names[statuses.index(bound)], bound)
        if None not in witnesses:
            return witnesses
    raise AssertionError(f"no witness for p={p}, q={q}")


class TestExtremalSearch:
    def test_star_and_path_for_tree_q(self):
        lower, upper = extremal_search(4, 3)
        assert lower.status == 3
        assert lower.node == "v1"
        assert set(lower.graph.edges) == {("v1", "v2"), ("v1", "v3"), ("v1", "v4")}
        assert upper.status == 6

    def test_triangle_with_pendant(self):
        lower, upper = extremal_search(4, 4)
        assert (lower.status, upper.status) == (3, 5)
        assert lower.graph is upper.graph
        assert set(lower.graph.edges) == {
            ("v1", "v2"), ("v1", "v3"), ("v1", "v4"), ("v2", "v3")
        }
        assert (lower.node, upper.node) == ("v1", "v4")

    def test_complete_graph_bounds_coincide(self):
        lower, upper = extremal_search(3, 3)
        assert lower.status == upper.status == 2

    def test_witness_statuses_verified_by_oracle(self):
        for q in range(4, 11):
            lower, upper = extremal_search(5, q)
            lo, up = status_bounds_values(5, q)
            assert oracle_status(lower.graph.nodes, lower.graph.edges, lower.node) == lo
            assert oracle_status(upper.graph.nodes, upper.graph.edges, upper.node) == up

    @pytest.mark.parametrize("p", [1, 2, 3, 4, 5, 6])
    def test_matches_unpruned_reference_search(self, p):
        for q in range(p - 1, p * (p - 1) // 2 + 1):
            lower, upper = extremal_search(p, q)
            found = [(set(w.graph.edges), w.node, w.status) for w in (lower, upper)]
            assert found == reference_extremal_search(p, q), (p, q)

    def test_upper_bound_attained_exactly_on_paths_into_cliques(self):
        # Both directions over every connected class with p <= 7.
        attained = set()
        for p, level in enumerate(walk_classes(7), 1):
            for form in level:
                adj = list(form)
                edges = [(i, j) for i in range(p) for j in range(i + 1, p) if adj[i] >> j & 1]
                upper = status_bounds_values(p, len(edges))[1]
                for x in range(p):
                    at_bound = oracle_status(range(p), edges, x) == upper
                    assert at_bound == is_path_into_clique(range(p), edges, x), (p, edges, x)
                    if at_bound:
                        attained.add((p, len(edges)))
        feasible = {(p, q) for p in range(1, 8) for q in range(p - 1, p * (p - 1) // 2 + 1)}
        assert attained == feasible

    def test_witness_off_the_bound_is_rejected(self, monkeypatch):
        # One edge more than q lowers the upper bound by one, so the
        # witness node's status falls below the bound for q edges.
        def one_edge_off(p, q):
            edges, node = _upper_witness(p, q)
            extra = next(pair for pair in combinations(range(p), 2) if pair not in edges)
            return sorted(edges + [extra]), node

        monkeypatch.setattr(finite_graph, "_upper_witness", one_edge_off)
        message = "the constructed upper witness for p=4, q=4 misses the bound"
        with pytest.raises(GraphError) as excinfo:
            extremal_search(4, 4)
        assert str(excinfo.value) == message
        result = CliRunner().invoke(main, ["extremal", "--p", "4", "--q", "4"])
        assert result.exit_code == 2
        assert (result.stdout, result.stderr) == ("", f"error: {message}\n")

    def test_construction_past_the_cap(self):
        # The construction for every feasible q on p <= 60 nodes: a
        # witness at the upper bound by the oracle.  For p <= 30 also q
        # distinct sorted edges, a path into a clique at the witness, and
        # for p <= 12 no lower-numbered node at the bound.
        for p in range(1, 61):
            for q in range(p - 1, p * (p - 1) // 2 + 1):
                edges, x = _upper_witness(p, q)
                upper = status_bounds_values(p, q)[1]
                assert oracle_status(range(p), edges, x) == upper, (p, q)
                if p > 30:
                    continue
                assert len(edges) == len(set(edges)) == q and edges == sorted(edges), (p, q)
                assert all(0 <= u < v < p for u, v in edges), (p, q)
                assert is_path_into_clique(range(p), edges, x), (p, q)
                if p <= 12:
                    assert all(oracle_status(range(p), edges, v) != upper for v in range(x)), (p, q)

    def test_search_past_the_enumeration_cap(self):
        # Both witnesses by the oracle, for every feasible q on 8..12
        # nodes and for a few q on MAX_EXTREMAL_NODES nodes.  They are
        # built unchecked, so each must also be what the checked
        # constructor builds from its edges.
        top = MAX_EXTREMAL_NODES
        cases = [(p, q) for p in range(8, 13) for q in range(p - 1, p * (p - 1) // 2 + 1)]
        cases += [(top, q) for q in (top - 1, top, 2 * top, comb(top, 2) - 1, comb(top, 2))]
        for p, q in cases:
            lower, upper = extremal_search(p, q)
            for witness, bound in zip((lower, upper), status_bounds_values(p, q)):
                g = witness.graph
                assert g.nodes == tuple(f"v{i}" for i in range(1, p + 1)) and g.q == q, (p, q)
                assert oracle_status(g.nodes, g.edges, witness.node) == witness.status == bound
                checked = FiniteGraph(g.nodes, g.edges)
                assert (g._index, g._nbrs) == (checked._index, checked._nbrs), (p, q)

    def test_deterministic(self):
        first = extremal_search(4, 4)
        second = extremal_search(4, 4)
        assert first[0].graph == second[0].graph
        assert (first[0].node, first[1].node) == (second[0].node, second[1].node)

    def test_rejects_infeasible(self):
        with pytest.raises(GraphError):
            extremal_search(4, 2)
        with pytest.raises(GraphError):
            extremal_search(4, 7)
        with pytest.raises(GraphError):
            extremal_search(MAX_EXTREMAL_NODES + 1, MAX_EXTREMAL_NODES)
        for p, q in [(True, 0), (False, 0), (1, False), (2, True), (3, 2.5), (3, "2")]:
            with pytest.raises(GraphError):
                extremal_search(p, q)


class TestDot:
    def test_layout(self):
        g = FiniteGraph(["b", "a"], [("b", "a")])
        assert g.to_dot() == 'graph {\n  "b";\n  "a";\n  "a" -- "b";\n}\n'

    def test_escaping(self):
        g = FiniteGraph(['he said "hi"'])
        assert '\\"hi\\"' in g.to_dot()

    @given(connected_graphs())
    @settings(max_examples=25)
    def test_deterministic(self, g):
        clone = FiniteGraph(g.nodes, g.edges)
        assert g.to_dot() == clone.to_dot()
