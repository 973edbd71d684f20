"""Tests for the replacement 0-graph and transfinite path lengths."""

import itertools
import json
import random
from pathlib import Path

import pytest

from tgstatus.finite_graph import GraphError
from tgstatus.model import ValidationFailed, parse_document
from tgstatus.ordinal import ZERO, omega_term, parse_ordinal
from tgstatus.replacement import (
    AbstractPath,
    PathError,
    build_replacement,
    iter_simple_paths,
    path_mu_length,
    translate_path,
)

from helpers import (
    chain_document,
    document_text,
    oracle_replacement,
    oracle_simple_paths,
    random_document,
)

SAMPLES = Path(__file__).resolve().parent.parent / "sample_graphs"


def load(name):
    return parse_document((SAMPLES / f"{name}.json").read_text())


def recursive_simple_paths(graph, include_trivial):
    """The element tuples of a recursive pre-order walk over the
    replacement's nodes, each trail extended by its last node's
    neighbours in order."""
    result = build_replacement(graph, walk_based=True)
    paths = []

    def extend(trail):
        if len(trail) >= 2 or include_trivial:
            paths.append(tuple(result.origin(node)[1] for node in trail))
        for neighbor in result.graph.neighbors(trail[-1]):
            if neighbor not in trail:
                extend(trail + [neighbor])

    for start in result.graph.nodes:
        extend([start])
    return paths


def length_relation_holds(graph, result, path):
    """Whether the path length equals w^mu times its 0-image's length."""
    branches = len(translate_path(result, path)) - 1
    return path_mu_length(graph, path) == omega_term(graph.rank, branches)


class TestBuildReplacement:
    def test_g1_four_cycle(self):
        result = build_replacement(load("g1"))
        g = result.graph
        assert g.nodes == ("X1", "X2", "y1", "y2")
        assert set(g.edges) == {("X1", "y1"), ("X2", "y1"), ("X1", "y2"), ("X2", "y2")}
        assert (g.p, g.q) == (4, 4)

    def test_g2_single_edge(self):
        g = build_replacement(load("g2")).graph
        assert g.nodes == ("X1", "y1")
        assert g.edges == (("X1", "y1"),)
        assert (g.p, g.q) == (2, 1)

    def test_g3_path(self):
        g = build_replacement(load("g3")).graph
        assert g.nodes == ("X1", "X2", "y1", "y2", "y3")
        assert set(g.edges) == {("X1", "y1"), ("X1", "y2"), ("X2", "y2"), ("X2", "y3")}
        assert (g.p, g.q) == (5, 4)

    def test_included_singleton_leaf(self):
        result = build_replacement(load("g1_with_singletons"))
        g = result.graph
        assert g.nodes == ("X1", "X2", "y1", "y2", "W1")
        assert g.has_edge("W1", "y1")
        assert g.degree("W1") == 1
        assert (g.p, g.q) == (5, 5)

    def test_validation_failure_raises(self):
        with pytest.raises(ValidationFailed) as excinfo:
            build_replacement(load("g3_nondisconnectable_violation"))
        assert "nondisconnectable" in str(excinfo.value)
        assert not excinfo.value.report.passed

    def test_walk_mode_permits_it(self):
        g = build_replacement(load("g3_nondisconnectable_violation"), walk_based=True).graph
        assert (g.p, g.q) == (5, 4)

    def test_counting_identities_on_random_documents(self):
        rng = random.Random(20260823)
        for _ in range(60):
            doc = random_document(rng)
            graph = parse_document(document_text(doc))
            g = build_replacement(graph).graph
            k = len(graph.nonsingleton_mu_nodes)
            m = len(graph.sections)
            s = len(graph.include_singletons)
            assert g.p == k + m + s
            degree_sum = sum(
                1
                for section in graph.sections
                for mu_node in graph.nonsingleton_mu_nodes
                if section.id in mu_node.incident_sections
            )
            assert g.q == degree_sum + s

    def test_bipartite_around_section_centers(self):
        rng = random.Random(919)
        for _ in range(40):
            doc = random_document(rng)
            graph = parse_document(document_text(doc))
            result = build_replacement(graph)
            centers = {result.zero_node(section.id) for section in graph.sections}
            for u, v in result.graph.edges:
                assert (u in centers) != (v in centers)

    def test_matches_oracle_construction(self):
        rng = random.Random(5)
        for _ in range(60):
            doc = random_document(rng)
            graph = parse_document(document_text(doc))
            g = build_replacement(graph).graph
            nodes, edges = oracle_replacement(doc)
            assert sorted(g.nodes) == sorted(nodes)
            assert sorted(g.edges) == edges

    @staticmethod
    def lookup_oracle(doc):
        """From the raw document: the (0-node, kind) of each section,
        nonsingleton mu-node and included singleton, and every declared id."""
        sections, mu_nodes = doc["sections"], doc["mu_nodes"]
        expected = {m["id"]: (m["id"], "mu-node") for m in mu_nodes if len(m["tips"]) >= 2}
        expected.update((s["id"], (s["representative"], "section")) for s in sections)
        singletons = {m["id"] for m in mu_nodes if len(m["tips"]) == 1}
        expected.update((w, (w, "singleton")) for w in doc["include_singletons"] if w in singletons)
        declared = [s["id"] for s in sections] + [m["id"] for m in mu_nodes]
        declared += [n["id"] for s in sections for n in s["internal_nodes"]]
        declared += [t["id"] for m in mu_nodes for t in m["tips"]]
        return expected, declared

    def test_lookups_match_the_document(self):
        docs = [
            json.loads((SAMPLES / f"{name}.json").read_text())
            for name in ("g1", "g2", "g3", "g1_with_singletons", "g3_nondisconnectable_violation")
        ]
        rng = random.Random(4141)
        docs += [random_document(rng) for _ in range(60)]
        for doc in docs:
            result = build_replacement(parse_document(document_text(doc)), walk_based=True)
            expected, declared = self.lookup_oracle(doc)
            assert sorted(node for node, _ in expected.values()) == sorted(result.graph.nodes)
            for element, (node, kind) in expected.items():
                assert result.zero_node(element) == node
                assert result.origin(node) == (kind, element)
            element_of = {node: element for element, (node, _) in expected.items()}
            nodes = result.graph.nodes
            assert list(result.source._elements(nodes)) == [element_of[n] for n in nodes] == [
                result.origin(n)[1] for n in nodes
            ]
            # Internal nodes (representatives too), tips, excluded
            # singletons and unknown ids have no 0-node.
            for other in [key for key in declared if key not in expected] + ["unknown"]:
                assert result.zero_node(other) is None
            for off in [key for key in declared if key not in result.graph.nodes] + ["unknown"]:
                with pytest.raises(GraphError, match="^unknown node "):
                    result.origin(off)

    def test_deterministic_dot(self):
        first = build_replacement(load("g1")).graph.to_dot()
        second = build_replacement(load("g1")).graph.to_dot()
        assert first == second


class TestPathLength:
    def test_interior_mu_node_counts_twice(self):
        g = load("g1")
        assert path_mu_length(g, AbstractPath(("S1", "X1", "S2"))) == omega_term(2, 2)

    def test_terminal_mu_node_counts_once(self):
        g = load("g1")
        assert path_mu_length(g, AbstractPath(("X1", "S1"))) == omega_term(2, 1)
        assert path_mu_length(g, AbstractPath(("S1", "X1"))) == omega_term(2, 1)

    def test_single_element_is_zero(self):
        g = load("g1")
        assert path_mu_length(g, AbstractPath(("S1",))) is ZERO
        assert path_mu_length(g, AbstractPath(("X1",))) is ZERO

    def test_g3_longest(self):
        g = load("g3")
        assert path_mu_length(
            g, AbstractPath(("S1", "X1", "S2", "X2", "S3"))
        ) == parse_ordinal("w*4")

    def test_rejects_empty(self):
        with pytest.raises(PathError):
            path_mu_length(load("g1"), AbstractPath(()))

    def test_rejects_repeat(self):
        with pytest.raises(PathError, match="simple"):
            path_mu_length(load("g1"), AbstractPath(("S1", "X1", "S1")))

    def test_rejects_unknown_element(self):
        with pytest.raises(PathError, match="neither"):
            path_mu_length(load("g1"), AbstractPath(("S1", "t1")))

    def test_rejects_nonalternating(self):
        with pytest.raises(PathError, match="alternate"):
            path_mu_length(load("g1"), AbstractPath(("X1", "X2")))
        with pytest.raises(PathError, match="alternate"):
            path_mu_length(load("g3"), AbstractPath(("S1", "S2")))

    def test_rejects_nonincident_step(self):
        with pytest.raises(PathError, match="not incident"):
            path_mu_length(load("g3"), AbstractPath(("S1", "X2")))


class TestTranslate:
    def test_g1(self):
        g = load("g1")
        result = build_replacement(g)
        assert translate_path(result, AbstractPath(("S1", "X1", "S2"))) == ["y1", "X1", "y2"]

    def test_rejects_non_included_singleton(self):
        doc = json.loads((SAMPLES / "g1_with_singletons.json").read_text())
        doc["include_singletons"] = []
        g = parse_document(json.dumps(doc))
        result = build_replacement(g)
        with pytest.raises(PathError, match="not included"):
            translate_path(result, AbstractPath(("W1", "S1")))

    def test_included_singleton_translates(self):
        g = load("g1_with_singletons")
        result = build_replacement(g)
        assert translate_path(result, AbstractPath(("W1", "S1", "X1"))) == ["W1", "y1", "X1"]

    @pytest.mark.parametrize(
        "elements, message",
        [
            ((), "a path needs at least one element"),
            (("S1", "X1", "S1"), "path visits a 0-node twice"),
        ],
    )
    def test_rejects_empty_or_repeating_path(self, elements, message):
        result = build_replacement(load("g1"))
        with pytest.raises(PathError) as excinfo:
            translate_path(result, AbstractPath(elements))
        assert str(excinfo.value) == message

    def test_rejects_nonadjacent(self):
        g = load("g3")
        result = build_replacement(g)
        with pytest.raises(PathError, match="not adjacent"):
            translate_path(result, AbstractPath(("S1", "X2")))


def simple_path_documents():
    """The sample documents and 120 small random ones."""
    docs = [
        json.loads((SAMPLES / f"{name}.json").read_text())
        for name in ("g1", "g2", "g3", "g1_with_singletons", "g3_nondisconnectable_violation")
    ]
    return docs + [random_document(random.Random(seed), max_k=5, max_m=5) for seed in range(120)]


class TestLengthRelation:
    @pytest.mark.parametrize("name", ["g1", "g2", "g3", "g1_with_singletons"])
    def test_holds_for_all_simple_paths_of_samples(self, name):
        g = load(name)
        result = build_replacement(g)
        count = 0
        for path in iter_simple_paths(g):
            assert length_relation_holds(g, result, path)
            count += 1
        assert count > 0

    def test_specific_instances(self):
        g = load("g1")
        result = build_replacement(g)
        assert length_relation_holds(g, result, AbstractPath(("S1", "X1", "S2")))
        g2 = load("g2")
        result2 = build_replacement(g2)
        assert length_relation_holds(g2, result2, AbstractPath(("S1", "X1")))

    def test_simple_paths_match_oracle(self):
        for doc in simple_path_documents():
            g = parse_document(document_text(doc))
            paths = [path.elements for path in iter_simple_paths(g, include_trivial=True)]
            assert len(paths) == len(set(paths))
            assert set(paths) == oracle_simple_paths(doc)

    @pytest.mark.parametrize("include_trivial", [False, True])
    def test_simple_paths_in_recursive_pre_order(self, include_trivial):
        for doc in simple_path_documents():
            g = parse_document(document_text(doc))
            paths = iter_simple_paths(g, include_trivial=include_trivial)
            assert [path.elements for path in paths] == recursive_simple_paths(g, include_trivial)

    def test_simple_paths_longer_than_the_recursion_limit(self):
        # 700 sections and 699 mu-nodes: the path from S1 has 1,399 elements.
        g = parse_document(document_text(chain_document(700)))
        first = list(itertools.islice(iter_simple_paths(g), 1500))
        assert max(len(path.elements) for path in first) > 1000

    def test_trivial_paths_when_requested(self):
        g = load("g2")
        paths = list(iter_simple_paths(g, include_trivial=True))
        assert AbstractPath(("S1",)) in paths
        assert AbstractPath(("X1",)) in paths
        nontrivial = list(iter_simple_paths(g))
        assert AbstractPath(("S1",)) not in nontrivial
        assert set(nontrivial) == {AbstractPath(("S1", "X1")), AbstractPath(("X1", "S1"))}
