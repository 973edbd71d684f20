"""Tests for transfinite distances, geodesics, statuses and reports."""

import dataclasses
import json
import random
from pathlib import Path

import pytest

from tgstatus.finite_graph import FiniteGraph, GraphError
from tgstatus.model import ValidationFailed, parse_document, validate
from tgstatus import status as status_module
from tgstatus.ordinal import ZERO, Ordinal, omega_term, parse_ordinal
from tgstatus.replacement import AbstractPath, ReplacementResult, build_replacement
from tgstatus.status import (
    KIND_MU_NODE,
    KIND_NODE,
    KIND_SECTION_REPRESENTATIVE,
    StatusError,
    geodesic,
    mu_distance,
    mu_status,
    mu_status_bounds,
    status_report,
)

from helpers import (
    document_text,
    large_documents,
    oracle_bfs,
    oracle_geodesic,
    oracle_ordinal_text,
    oracle_replacement,
    oracle_status,
    oracle_statuses,
    random_document,
    wide_document,
)

SAMPLES = Path(__file__).resolve().parent.parent / "sample_graphs"


def load(name):
    return parse_document((SAMPLES / f"{name}.json").read_text())


def loaded(name):
    g = load(name)
    return g, build_replacement(g)


class OracleSession:
    """Replacement-graph distances and geodesics from the raw document.

    Every id maps to the 0-node it stands at (None for a singleton that
    is not included); a section's 0-node is its representative.
    """

    def __init__(self, doc):
        self.nodes, self.edges = oracle_replacement(doc)
        self.element = {node: node for node in self.nodes}
        self.node_of = {}
        for section in doc["sections"]:
            self.element[section["representative"]] = section["id"]
            for internal in section["internal_nodes"]:
                self.node_of[internal["id"]] = section["representative"]
        for mu_node in doc["mu_nodes"]:
            self.node_of[mu_node["id"]] = (
                mu_node["id"] if mu_node["id"] in self.element else None
            )
        self._dist = {}

    def dist(self, source):
        if source not in self._dist:
            self._dist[source] = oracle_bfs(self.nodes, self.edges, source)
        return self._dist[source]

    def geodesic(self, a, b):
        """The oracle_geodesic from a's 0-node to b's, as elements."""
        sequence = oracle_geodesic(self.nodes, self.edges, self.node_of[a], self.node_of[b])
        return AbstractPath(tuple(self.element[n] for n in sequence))


# One p >= 500 document for the status-sum tests.
LARGE_DOCUMENT = large_documents(seed=6, count=1)[0]


class TestDistance:
    def test_same_section_is_zero(self):
        g, r = loaded("g1")
        assert mu_distance(g, r, "y1", "z1") is ZERO
        assert mu_distance(g, r, "y1", "y1") is ZERO

    def test_scaled_hops(self):
        g, r = loaded("g1")
        assert mu_distance(g, r, "X1", "y1") == omega_term(2, 1)
        assert mu_distance(g, r, "X1", "X2") == omega_term(2, 2)
        assert mu_distance(g, r, "z1", "y2") == omega_term(2, 2)

    def test_symmetric(self):
        g, r = loaded("g3")
        for a in ("X1", "X2", "y1", "y2", "y3"):
            for b in ("X1", "X2", "y1", "y2", "y3"):
                assert mu_distance(g, r, a, b) == mu_distance(g, r, b, a)

    def test_included_singleton_endpoint(self):
        g, r = loaded("g1_with_singletons")
        assert mu_distance(g, r, "X1", "W1") == omega_term(2, 2)
        assert mu_distance(g, r, "W1", "y1") == omega_term(2, 1)

    def test_non_included_singleton_rejected(self):
        doc = json.loads((SAMPLES / "g1_with_singletons.json").read_text())
        doc["include_singletons"] = []
        g = parse_document(json.dumps(doc))
        r = build_replacement(g)
        with pytest.raises(StatusError, match="no path-based distance"):
            mu_distance(g, r, "X1", "W1")

    def test_unknown_id_rejected(self):
        g, r = loaded("g1")
        with pytest.raises(StatusError, match="unknown"):
            mu_distance(g, r, "X1", "nope")


    def test_matches_oracle_on_large_documents(self):
        pairs = 0
        for doc in large_documents(seed=4, count=4):
            g = parse_document(document_text(doc))
            r = build_replacement(g)
            oracle = OracleSession(doc)
            rng = random.Random(len(oracle.nodes))
            ids = sorted(i for i, node in oracle.node_of.items() if node is not None)
            for a in rng.sample(ids, 25):
                dist = oracle.dist(oracle.node_of[a])
                for b in rng.sample(ids, 20):
                    expected = oracle_ordinal_text(doc["rank"], dist[oracle.node_of[b]])
                    assert str(mu_distance(g, r, a, b)) == expected
                    pairs += 1
        assert pairs == 2000


class TestGeodesic:
    def test_lexicographic_tie_break(self):
        g, r = loaded("g1")
        assert geodesic(g, r, "X1", "X2") == AbstractPath(("X1", "S1", "X2"))
        assert geodesic(g, r, "X2", "X1") == AbstractPath(("X2", "S1", "X1"))

    def test_tie_break_by_id_not_by_edge_order(self):
        # X9 is declared, and so joined to S1, before X1: a walk back to
        # the first nearer neighbour in edge order would step to X9.
        doc = {
            "rank": 2,
            "sections": [
                {
                    "id": section,
                    "internal_nodes": [{"id": rep, "rank": 1, "nonsingleton": True}],
                    "representative": rep,
                }
                for section, rep in (("S1", "y1"), ("S2", "y2"))
            ],
            "mu_nodes": [
                {
                    "id": mu,
                    "tips": [
                        {"id": f"{mu}a", "section": "S1"},
                        {"id": f"{mu}b", "section": "S2"},
                    ],
                }
                for mu in ("X9", "X1")
            ],
            "nondisconnectable_pairs": [],
            "include_singletons": [],
        }
        g = parse_document(document_text(doc))
        assert geodesic(g, build_replacement(g), "y1", "y2") == AbstractPath(("S1", "X1", "S2"))
        self.check_against_oracle(doc)

    def test_length_matches_distance(self):
        from tgstatus.replacement import path_mu_length

        g, r = loaded("g3")
        for a in ("X1", "X2", "y1", "y2", "y3"):
            for b in ("X1", "X2", "y1", "y2", "y3"):
                if mu_distance(g, r, a, b) is ZERO:
                    continue
                path = geodesic(g, r, a, b)
                assert path_mu_length(g, path) == mu_distance(g, r, a, b)

    def test_internal_node_endpoint_maps_to_section(self):
        g, r = loaded("g1")
        assert geodesic(g, r, "z1", "y2").elements[0] == "S1"

    def test_zero_distance_rejected(self):
        g, r = loaded("g1")
        with pytest.raises(StatusError, match="distance 0"):
            geodesic(g, r, "y1", "z1")

    @pytest.mark.parametrize("query", [geodesic, mu_distance], ids=["geodesic", "mu_distance"])
    @pytest.mark.parametrize("name", ["g1_with_singletons", "g3"])
    def test_searches_from_both_ends_without_a_full_bfs(self, name, query, bfs_sources):
        # The search meets in the middle, so no geodesic or distance runs
        # the row BFS that statuses use.
        g, r = loaded(name)
        bfs_sources.clear()
        for a in r.graph.nodes:
            for b in r.graph.nodes:
                if a != b:
                    query(g, r, a, b)
        assert bfs_sources == []

    def check_against_oracle(self, doc):
        g = parse_document(document_text(doc))
        r = build_replacement(g)
        oracle = OracleSession(doc)
        for a, node_a in oracle.node_of.items():
            for b, node_b in oracle.node_of.items():
                if node_a is None or node_b is None:
                    with pytest.raises(StatusError, match="no path-based distance"):
                        geodesic(g, r, a, b)
                elif node_a == node_b:
                    with pytest.raises(StatusError, match="distance 0"):
                        geodesic(g, r, a, b)
                else:
                    assert geodesic(g, r, a, b) == oracle.geodesic(a, b)

    @pytest.mark.parametrize("name", ["g1", "g1_with_singletons", "g2", "g3"])
    def test_matches_oracle_on_all_pairs_of_samples(self, name):
        self.check_against_oracle(json.loads((SAMPLES / f"{name}.json").read_text()))

    def test_matches_oracle_on_all_pairs_of_random_documents(self):
        rng = random.Random(91)
        for _ in range(30):
            self.check_against_oracle(random_document(rng))


class TestStatus:
    def test_g1_all_four(self):
        g, r = loaded("g1")
        for node in ("X1", "X2", "y1", "y2"):
            assert mu_status(g, r, node) == parse_ordinal("w^2*4")

    def test_internal_node_stands_at_representative(self):
        g, r = loaded("g1")
        assert mu_status(g, r, "z1") == mu_status(g, r, "y1")

    def test_g3_values(self):
        g, r = loaded("g3")
        expected = {"X1": "w*7", "X2": "w*7", "y1": "w*10", "y2": "w*6", "y3": "w*10"}
        for node, text in expected.items():
            assert mu_status(g, r, node) == parse_ordinal(text)

    @pytest.mark.parametrize("rank", [-1, "2", True])
    def test_rank_that_is_not_a_natural_number_rejected(self, rank):
        g, r = loaded("g3")
        # A query reads its own graph's result, so the result is rebuilt on the copy.
        g = dataclasses.replace(g, rank=rank)
        with pytest.raises(ValueError, match="exponent must be a natural number"):
            mu_status(g, ReplacementResult(r.graph, g), "y1")

    def test_singleton_source_rejected(self):
        g, r = loaded("g1_with_singletons")
        with pytest.raises(StatusError, match="nonsingleton"):
            mu_status(g, r, "W1")

    def test_bounds(self):
        g, r = loaded("g3")
        bounds = mu_status_bounds(g, r)
        assert (bounds.p, bounds.q) == (5, 4)
        assert bounds.lower == parse_ordinal("w*4")
        assert bounds.upper == parse_ordinal("w*10")


@pytest.fixture
def ordinal_calls(monkeypatch):
    """For each mu_status source, in call order: how many distance terms
    its status built (omega_term calls, and Ordinal._of calls made
    outside omega_term and Ordinal.__add__) and how many Ordinal.__add__
    calls it made."""
    counts = {"built": 0, "add": 0}
    nested = [0]
    per_source = {}
    omega, add, status = status_module.omega_term, Ordinal.__add__, status_module.mu_status
    of = Ordinal._of.__func__

    def counted_of(cls, terms):
        if not nested[0]:
            counts["built"] += 1
        return of(cls, terms)

    def counting(key, func):
        def counted(*args):
            counts[key] += 1
            nested[0] += 1
            try:
                return func(*args)
            finally:
                nested[0] -= 1

        return counted

    def counted_status(graph, result, x):
        before = dict(counts)
        value = status(graph, result, x)
        per_source[x] = (counts["built"] - before["built"], counts["add"] - before["add"])
        return value

    monkeypatch.setattr(status_module, "omega_term", counting("built", omega))
    monkeypatch.setattr(Ordinal, "_of", classmethod(counted_of))
    monkeypatch.setattr(Ordinal, "__add__", counting("add", add))
    monkeypatch.setattr(status_module, "mu_status", counted_status)
    return per_source


class TestStatusSums:
    """Each distance w^mu*h is built once per source, for h up to its BFS
    depth, and the status still takes one ordinal addition per 0-node."""

    @pytest.mark.parametrize(
        "doc",
        [json.loads((SAMPLES / "g3.json").read_text()), LARGE_DOCUMENT],
        ids=["g3", "large"],
    )
    def test_one_term_per_depth_and_one_addition_per_node(self, doc, ordinal_calls):
        report = status_report(parse_document(document_text(doc)))
        oracle = OracleSession(doc)
        assert list(ordinal_calls) == [entry.id for entry in report.entries]
        for source, calls in ordinal_calls.items():
            depth = max(oracle.dist(oracle.node_of[source]).values())
            assert calls == (depth + 1, report.p), source
        # Not one term per 0-node: some source sees two 0-nodes at one depth.
        assert any(built < report.p for built, _ in ordinal_calls.values())


@pytest.fixture
def bfs_sources(monkeypatch):
    """The source id of every BFS over FiniteGraph's index lists
    (FiniteGraph._distances), in call order."""
    sources = []
    bfs = FiniteGraph._distances

    def counted(self, start):
        sources.append(self.nodes[start])
        return bfs(self, start)

    monkeypatch.setattr(FiniteGraph, "_distances", counted)
    return sources


class TestConnectedReplacement:
    def test_report_decides_connectivity_with_one_bfs(self, bfs_sources):
        # validate runs twice and ReplacementResult checks once more; the
        # 0-graph answers all three from one BFS, then one per source.
        report = status_report(load("g1"))
        assert report.p == 4
        assert len(bfs_sources) == report.p + 1

    def test_disconnected_document_names_the_unreached(self, bfs_sources):
        obj = json.loads((SAMPLES / "g1.json").read_text())
        for k in (3, 4):
            obj["sections"].append(
                {
                    "id": f"S{k}",
                    "internal_nodes": [{"id": f"y{k}", "rank": 1, "nonsingleton": True}],
                    "representative": f"y{k}",
                }
            )
        obj["mu_nodes"] += [
            {"id": "X3", "tips": [{"id": "t5", "section": "S3"}, {"id": "t6", "section": "S4"}]},
            {"id": "W3", "tips": [{"id": "t7", "section": "S4"}]},
        ]
        obj["include_singletons"] = ["W3"]
        report = validate(parse_document(json.dumps(obj)))
        assert [(v.condition, v.message, v.ids) for v in report.violations] == [
            (
                "connectivity",
                "the replacement 0-graph is not connected; unreached: S3, S4, X3, W3",
                ("S3", "S4", "X3", "W3"),
            )
        ]
        # One BFS decides, a second one from the first section names.
        assert bfs_sources == ["X1", "y1"]

    def test_hand_built_result_must_be_connected(self, bfs_sources):
        g, r = loaded("g1_with_singletons")
        bfs_sources.clear()
        # The same source over the 0-graph without the branch to W1.
        torn = FiniteGraph(r.graph.nodes, [e for e in r.graph.edges if "W1" not in e])
        for _ in range(2):
            with pytest.raises(GraphError, match="^the replacement graph is not connected$"):
                ReplacementResult(torn, g)
        # The graph keeps its answer: the second check runs no BFS.
        assert len(bfs_sources) == 1

    def test_rebuilt_result_answers_as_built(self):
        g, r = loaded("g1_with_singletons")
        rebuilt = ReplacementResult(r.graph, g)
        nodes = ["X1", "X2", "W1", "y1", "z1", "y2"]
        for a in nodes:
            for b in nodes:
                distance = mu_distance(g, rebuilt, a, b)
                assert distance == mu_distance(g, r, a, b)
                if distance != ZERO:
                    assert geodesic(g, rebuilt, a, b) == geodesic(g, r, a, b)
            if a != "W1":
                assert mu_status(g, rebuilt, a) == mu_status(g, r, a)
        assert mu_status_bounds(g, rebuilt) == mu_status_bounds(g, r)

    @pytest.mark.parametrize(
        "query",
        [
            lambda g, r: mu_distance(g, r, "y1", "X2"),
            lambda g, r: geodesic(g, r, "y1", "X2"),
            lambda g, r: mu_status(g, r, "y1"),
            mu_status_bounds,
        ],
        ids=["mu_distance", "geodesic", "mu_status", "mu_status_bounds"],
    )
    def test_result_of_another_graph_is_refused(self, query):
        # Every id is g3's and g1's, so g1's result would answer in g1's terms.
        with pytest.raises(StatusError, match="^the replacement result was built from another graph"):
            query(load("g3"), build_replacement(load("g1")))


def test_ten_thousand_node_document_against_the_oracles():
    """A document with p >= 10^4: its 0-graph is the oracle's, 30 sampled
    statuses are w^mu times the oracle's finite statuses, and 20 sampled
    geodesics between distinct 0-nodes are the oracle's."""
    doc = wide_document(5000, seed=13)
    graph = parse_document(document_text(doc))
    result = build_replacement(graph)
    nodes, edges = oracle_replacement(doc)
    assert len(nodes) >= 10_000
    assert result.graph.nodes == tuple(nodes)
    assert sorted(result.graph.edges) == edges
    zero_node = {m["id"]: m["id"] for m in doc["mu_nodes"] if len(m["tips"]) >= 2}
    for section in doc["sections"]:
        for internal in section["internal_nodes"]:
            zero_node[internal["id"]] = section["representative"]
    sources = random.Random(13).sample(sorted(zero_node), 30)
    finite = oracle_statuses(nodes, edges, [zero_node[source] for source in sources])
    for source, status in zip(sources, finite):
        expected = oracle_ordinal_text(doc["rank"], status)
        assert str(mu_status(graph, result, source)) == expected, source
    oracle = OracleSession(doc)
    rng = random.Random(17)
    ids = sorted(zero_node)
    pairs = 0
    while pairs < 20:
        a, b = rng.sample(ids, 2)
        if zero_node[a] != zero_node[b]:
            assert geodesic(graph, result, a, b) == oracle.geodesic(a, b), (a, b)
            pairs += 1


@pytest.mark.parametrize("rank", [1, 3])
def test_two_tip_ring_document_against_the_oracle(rank):
    """Every status of a document whose sections lie on a shuffled chain
    closed onto a random section, with p >= 1,000 and a BFS depth above
    200 from its first mu-node, is w^rank times the oracle's, and 20
    geodesics are the oracle's.  They include the one from the first
    mu-node to the 0-node farthest from it, whose two-sided search grows
    the first mu-node's ball deepest, so that the labels extend from the
    other ball into it over the most levels."""
    doc = wide_document(500, seed=29, rank=rank, max_tips=2)
    nodes, edges = oracle_replacement(doc)
    assert len(nodes) >= 1000
    graph = parse_document(document_text(doc))
    report = status_report(graph)
    ids = [entry.id for entry in report.entries]
    assert report.p == len(nodes)
    depth = oracle_bfs(nodes, edges, ids[0])
    assert max(depth.values()) > 200
    expected = [oracle_ordinal_text(rank, s) for s in oracle_statuses(nodes, edges, ids)]
    assert [str(entry.status) for entry in report.entries] == expected
    result = build_replacement(graph)
    oracle = OracleSession(doc)
    pairs = [(ids[0], max(depth, key=depth.get))]
    rng = random.Random(29)
    while len(pairs) < 20:
        a, b = rng.sample(ids, 2)
        if oracle.node_of[a] != oracle.node_of[b]:
            pairs.append((a, b))
    for a, b in pairs:
        assert geodesic(graph, result, a, b) == oracle.geodesic(a, b), (a, b)


class TestReport:
    def test_g3_report(self):
        report = status_report(load("g3"))
        assert (report.rank, report.p, report.q) == (1, 5, 4)
        assert [e.id for e in report.entries] == ["X1", "X2", "y1", "y2", "y3"]
        assert [e.kind for e in report.entries] == [
            KIND_MU_NODE,
            KIND_MU_NODE,
            KIND_SECTION_REPRESENTATIVE,
            KIND_SECTION_REPRESENTATIVE,
            KIND_SECTION_REPRESENTATIVE,
        ]
        assert report.achieved_lower == ()
        assert report.achieved_upper == ("y1", "y3")
        assert report.included_singletons == ()

    def test_g2_coinciding_bounds(self):
        report = status_report(load("g2"))
        assert report.lower == report.upper == parse_ordinal("w")
        assert report.achieved_lower == ("X1", "y1")
        assert report.achieved_upper == ("X1", "y1")

    def test_json_schema(self):
        obj = status_report(load("g3")).to_json_obj()
        assert list(obj) == [
            "rank", "p", "q", "lower", "upper", "nodes",
            "achieved_lower", "achieved_upper",
        ]
        assert obj["nodes"][2] == {
            "id": "y1", "kind": "section-representative", "status": "w*10"
        }
        assert json.loads(json.dumps(obj)) == obj

    def test_json_includes_singletons_only_when_present(self):
        obj = status_report(load("g1_with_singletons")).to_json_obj()
        assert obj["included_singletons"] == ["W1"]
        assert "included_singletons" not in status_report(load("g1")).to_json_obj()

    def test_included_singletons_augment_counts_and_sums(self):
        report = status_report(load("g1_with_singletons"))
        assert (report.p, report.q) == (5, 5)
        got = {e.id: str(e.status) for e in report.entries}
        assert got == {"X1": "w^2*6", "X2": "w^2*6", "y1": "w^2*5", "y2": "w^2*7"}
        assert [e.id for e in report.entries] == ["X1", "X2", "y1", "y2"]

    def test_validation_failure_raises(self):
        with pytest.raises(ValidationFailed):
            status_report(load("g3_nondisconnectable_violation"))

    def test_walk_mode_equals_clean_path_mode(self):
        bad = load("g3_nondisconnectable_violation")
        clean = load("g3")
        walked = status_report(bad, walk_based=True)
        pathed = status_report(clean)
        assert walked.entries == pathed.entries
        assert (walked.lower, walked.upper) == (pathed.lower, pathed.upper)
        assert walked.achieved_upper == pathed.achieved_upper

    def test_rank0_matches_oracle(self):
        rng = random.Random(2005)
        for p in [1] * 3 + [rng.randint(1, 9) for _ in range(60)]:
            nodes = [f"n{i}" for i in range(p)]
            rng.shuffle(nodes)
            edges = [(nodes[i], nodes[rng.randrange(i)]) for i in range(1, p)]
            extra = [(u, v) for i, u in enumerate(nodes) for v in nodes[i + 1:]]
            edges += [pair for pair in extra if pair[::-1] not in edges and rng.random() < 0.3]
            report = status_report(FiniteGraph(nodes, edges))
            expected = {node: oracle_status(nodes, edges, node) for node in nodes}
            lower, upper = p - 1, (p - 1) * (p + 2) // 2 - len(edges)
            assert (report.rank, report.p, report.q) == (0, p, len(edges))
            assert (report.lower, report.upper) == (lower, upper)
            assert [e.id for e in report.entries] == nodes
            assert {e.kind for e in report.entries} == {KIND_NODE}
            assert all(type(e.status) is int for e in report.entries)
            assert {e.id: e.status for e in report.entries} == expected
            assert report.achieved_lower == tuple(n for n in nodes if expected[n] == lower)
            assert report.achieved_upper == tuple(n for n in nodes if expected[n] == upper)
            obj = report.to_json_obj()
            assert json.loads(json.dumps(obj)) == obj
            assert (obj["lower"], obj["upper"]) == (lower, upper)
            assert [n["status"] for n in obj["nodes"]] == [expected[n] for n in nodes]
        with pytest.raises(GraphError, match="at least one node"):
            status_report(FiniteGraph([]))
        with pytest.raises(GraphError, match="disconnected"):
            status_report(FiniteGraph(["a", "b", "c"], [("a", "b")]))

    def test_statuses_are_single_scaled_terms(self):
        rng = random.Random(77)
        for _ in range(40):
            graph = parse_document(document_text(random_document(rng)))
            report = status_report(graph)
            for entry in report.entries:
                terms = entry.status.terms
                assert terms == () or (
                    len(terms) == 1 and terms[0][0] == graph.rank
                )
