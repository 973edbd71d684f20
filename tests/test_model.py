"""Tests for document parsing and validation of transfinite graphs."""

import json
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from tgstatus.finite_graph import FiniteGraph
from tgstatus.model import (
    DocumentError,
    TransfiniteGraph,
    ValidationFailed,
    load_document,
    parse_document,
    parse_finite_document,
    rank0_document,
    validate,
)
from tgstatus.replacement import build_replacement, iter_simple_paths

from helpers import document_text, random_document

SAMPLES = Path(__file__).resolve().parent.parent / "sample_graphs"


def sample(name):
    return (SAMPLES / f"{name}.json").read_text()


def minimal(**overrides):
    doc = {
        "rank": 1,
        "sections": [
            {
                "id": "S1",
                "internal_nodes": [{"id": "y1", "rank": 0, "nonsingleton": True}],
                "representative": "y1",
            }
        ],
        "mu_nodes": [
            {"id": "X1", "tips": [{"id": "t1", "section": "S1"},
                                  {"id": "t2", "section": "S1"}]}
        ],
        "nondisconnectable_pairs": [],
        "include_singletons": [],
    }
    doc.update(overrides)
    return json.dumps(doc)


RANK0 = '{"rank": 0, "nodes": ["a", "b"], "edges": [["a", "b"]]}'


class TestParsing:
    def test_g1_shape(self):
        g = parse_document(sample("g1"))
        assert g.rank == 2
        assert [s.id for s in g.sections] == ["S1", "S2"]
        assert [m.id for m in g.mu_nodes] == ["X1", "X2"]
        assert g.sections[0].representative == "y1"
        assert [n.id for n in g.sections[0].internal_nodes] == ["y1", "z1"]
        assert g.mu_node("X1").incident_sections == ("S1", "S2")
        assert g.section_of_internal("z1").id == "S1"
        assert g.section_of_internal("nope") is None

    def test_unknown_mu_node(self):
        with pytest.raises(KeyError) as excinfo:
            parse_document(sample("g1")).mu_node("nope")
        assert excinfo.value.args == ("unknown mu-node 'nope'",)

    def test_tip_collapse(self):
        g = parse_document(sample("g2"))
        assert g.mu_node("X1").incident_sections == ("S1",)
        assert g.mu_node("X1").is_nonsingleton

    def test_optional_keys_default(self):
        text = minimal()
        obj = json.loads(text)
        del obj["nondisconnectable_pairs"]
        del obj["include_singletons"]
        g = parse_document(json.dumps(obj))
        assert g.nondisconnectable_pairs == ()
        assert g.include_singletons == ()

    def test_rejects_rank0(self):
        with pytest.raises(DocumentError):
            parse_document(sample("path4"))

    def test_rejects_invalid_json(self):
        with pytest.raises(DocumentError):
            parse_document("not json")
        with pytest.raises(DocumentError):
            parse_document("[1, 2]")

    def test_rejects_unknown_key(self):
        obj = json.loads(minimal())
        obj["extra"] = 1
        with pytest.raises(DocumentError, match="unknown key"):
            parse_document(json.dumps(obj))

    def test_rejects_missing_rank(self):
        with pytest.raises(DocumentError, match="rank"):
            parse_document('{"sections": [], "mu_nodes": []}')

    def test_rejects_unknown_tip_section(self):
        obj = json.loads(minimal())
        obj["mu_nodes"][0]["tips"][0]["section"] = "S9"
        with pytest.raises(DocumentError, match="unknown section"):
            parse_document(json.dumps(obj))

    def test_rejects_duplicate_identifier_across_kinds(self):
        obj = json.loads(minimal())
        obj["mu_nodes"][0]["id"] = "y1"
        with pytest.raises(DocumentError, match="duplicate identifier"):
            parse_document(json.dumps(obj))

    def test_rejects_duplicate_tip_id(self):
        obj = json.loads(minimal())
        obj["mu_nodes"][0]["tips"][1]["id"] = "t1"
        with pytest.raises(DocumentError, match="duplicate identifier"):
            parse_document(json.dumps(obj))

    def test_rejects_representative_not_internal(self):
        obj = json.loads(minimal())
        obj["sections"][0]["representative"] = "t1"
        with pytest.raises(DocumentError, match="representative"):
            parse_document(json.dumps(obj))

    def test_rejects_internal_rank_at_or_above_graph_rank(self):
        obj = json.loads(minimal())
        obj["sections"][0]["internal_nodes"][0]["rank"] = 1
        with pytest.raises(DocumentError, match="rank"):
            parse_document(json.dumps(obj))

    def test_rejects_bad_pairs(self):
        for pairs in ([["t1"]], [["t1", "t1"]], [["t1", "t9"]],
                      [["t1", "t2"], ["t2", "t1"]]):
            obj = json.loads(minimal())
            obj["nondisconnectable_pairs"] = pairs
            with pytest.raises(DocumentError):
                parse_document(json.dumps(obj))

    def test_rejects_unknown_or_duplicate_inclusion(self):
        for include in (["X9"], ["X1", "X1"]):
            obj = json.loads(minimal())
            obj["include_singletons"] = include
            with pytest.raises(DocumentError):
                parse_document(json.dumps(obj))

    @pytest.mark.parametrize("key", ["nondisconnectable_pairs", "include_singletons"])
    @pytest.mark.parametrize("value", [5, "X1", None, {"X1": 1}])
    def test_rejects_optional_entry_that_is_not_an_array(self, key, value):
        obj = json.loads(minimal())
        obj[key] = value
        with pytest.raises(DocumentError, match=f"{key}' must be an array"):
            parse_document(json.dumps(obj))

    @pytest.mark.parametrize("parse", [parse_document, parse_finite_document, load_document])
    def test_integer_too_long_to_convert(self, parse):
        text = '{"rank": ' + "1" * 4301 + ', "nodes": [], "edges": []}'
        with pytest.raises(DocumentError, match=r"^invalid JSON: Exceeds the limit \(4300"):
            parse(text)

    def test_pair_normalization(self):
        obj = json.loads(minimal())
        obj["nondisconnectable_pairs"] = [["t2", "t1"]]
        g = parse_document(json.dumps(obj))
        assert g.nondisconnectable_pairs == (("t1", "t2"),)

    # One field of minimal() (or of RANK0) set to a new value, and the
    # exact message it must raise.
    @pytest.mark.parametrize(
        "path, value, message",
        [
            (("sections", 0, "id"), "", "section: 'id' must be a non-empty string"),
            (("sections", 0, "internal_nodes", 0, "rank"), "0",
             "internal node y1: 'rank' must be an integer"),
            (("rank",), -1, "document: rank must be >= 0, got -1"),
            (("sections",), [], "document: at least one section is required"),
            (("sections", 0), 5, "sections: entries must be objects"),
            (("sections", 0, "internal_nodes"), [],
             "section S1: needs at least one internal node"),
            (("sections", 0, "internal_nodes", 0), 5,
             "section S1: internal nodes must be objects"),
            (("sections", 0, "internal_nodes", 0, "nonsingleton"), 1,
             "internal node y1: 'nonsingleton' must be a boolean"),
            (("mu_nodes", 0), 5, "mu_nodes: entries must be objects"),
            (("mu_nodes", 0, "tips"), [], "mu-node X1: needs at least one tip"),
            (("mu_nodes", 0, "tips", 0), 5, "mu-node X1: tips must be objects"),
            (("include_singletons",), [5], "include_singletons: entry 5 must be a mu-node id"),
            (("rank0", "nodes", 0), 5, "document: node id 5 must be a non-empty string"),
        ],
    )
    def test_exact_messages(self, path, value, message):
        if path[0] == "rank0":
            obj, path = json.loads(RANK0), path[1:]
        else:
            obj = json.loads(minimal())
        container = obj
        for key in path[:-1]:
            container = container[key]
        container[path[-1]] = value
        with pytest.raises(DocumentError) as exc:
            load_document(json.dumps(obj))
        assert str(exc.value) == message


class TestFiniteDocuments:
    def test_round_trip(self):
        g = parse_finite_document(sample("path4"))
        assert isinstance(g, FiniteGraph)
        assert g.nodes == ("v1", "v2", "v3", "v4")
        assert rank0_document(g) == json.loads(sample("path4"))

    def test_load_document_dispatch(self):
        assert isinstance(load_document(sample("path4")), FiniteGraph)
        assert isinstance(load_document(sample("g1")), TransfiniteGraph)

    def test_rejects_transfinite(self):
        with pytest.raises(DocumentError):
            parse_finite_document(sample("g1"))

    def test_rejects_bad_edges(self):
        with pytest.raises(DocumentError):
            parse_finite_document('{"rank": 0, "nodes": ["a"], "edges": [["a", "a"]]}')
        with pytest.raises(DocumentError):
            parse_finite_document('{"rank": 0, "nodes": ["a"], "edges": [["a"]]}')


class TestValidation:
    def test_samples_pass(self):
        for name in ("g1", "g2", "g3", "g1_with_singletons"):
            report = validate(parse_document(sample(name)))
            assert report.passed, (name, report.violations)
            assert report.violations == ()
            assert any("distances within a section" in note for note in report.notes)

    def test_nondisconnectable_pair_across_nonsingletons_fails(self):
        report = validate(parse_document(sample("g3_nondisconnectable_violation")))
        assert not report.passed
        assert [v.condition for v in report.violations] == ["nondisconnectable-tips"]
        assert set(report.violations[0].ids) == {"t2", "t3", "X1", "X2"}

    def test_walk_mode_skips_tip_check_only(self):
        g = parse_document(sample("g3_nondisconnectable_violation"))
        report = validate(g, walk_based=True)
        assert report.passed
        assert any("walk mode" in note for note in report.notes)

    def test_same_node_pair_is_benign(self):
        obj = json.loads(minimal())
        obj["nondisconnectable_pairs"] = [["t1", "t2"]]
        assert validate(parse_document(json.dumps(obj))).passed

    def test_pair_with_singleton_member_is_benign(self):
        obj = json.loads(sample("g1_with_singletons"))
        obj["nondisconnectable_pairs"] = [["t1", "t5"]]
        assert validate(parse_document(json.dumps(obj))).passed

    @pytest.mark.parametrize(
        "pair, violations",
        [
            (("t1", "t9"), [("nondisconnectable-tips", "pair references unknown tip 't9'")]),
            (("t1", "t2"), []),
        ],
        ids=["unknown-tip", "tips-of-one-mu-node"],
    )
    def test_nondisconnectable_pairs_of_graphs_built_in_code(self, pair, violations):
        from tgstatus.model import InternalNode, MuNode, Section, Tip

        graph = TransfiniteGraph(
            rank=1,
            sections=tuple(
                Section(sid, (InternalNode(y, 0, True),), y)
                for sid, y in (("S1", "y1"), ("S2", "y2"))
            ),
            mu_nodes=(MuNode("X", (Tip("t1", "S1"), Tip("t2", "S2"))),),
            nondisconnectable_pairs=(pair,),
        )
        assert [(v.condition, v.message) for v in validate(graph).violations] == violations

    def test_disconnected_replacement_fails(self):
        obj = json.loads(minimal())
        obj["sections"].append(
            {
                "id": "S2",
                "internal_nodes": [{"id": "y2", "rank": 0, "nonsingleton": True}],
                "representative": "y2",
            }
        )
        report = validate(parse_document(json.dumps(obj)))
        assert [v.condition for v in report.violations] == ["connectivity"]
        assert "S2" in report.violations[0].ids
        with pytest.raises(ValidationFailed):
            list(iter_simple_paths(parse_document(json.dumps(obj))))

    def test_singleton_representative_fails(self):
        from tgstatus.model import InternalNode, Section

        base = parse_document(minimal())
        bad_section = Section(
            id="S1",
            internal_nodes=(InternalNode("y1", 0, False),),
            representative="y1",
        )
        bad = TransfiniteGraph(rank=1, sections=(bad_section,), mu_nodes=base.mu_nodes)
        report = validate(bad)
        assert "representative" in [v.condition for v in report.violations]

    def test_nonpositive_rank_fails(self):
        base = parse_document(minimal())
        bad = TransfiniteGraph(rank=0, sections=base.sections, mu_nodes=base.mu_nodes)
        report = validate(bad)
        assert "rank" in [v.condition for v in report.violations]

    def test_inclusion_of_nonsingleton_fails(self):
        base = parse_document(minimal())
        bad = TransfiniteGraph(
            rank=1,
            sections=base.sections,
            mu_nodes=base.mu_nodes,
            include_singletons=("X1",),
        )
        report = validate(bad)
        assert "include-singletons" in [v.condition for v in report.violations]

    @pytest.mark.parametrize(
        "sections, tips, include, message",
        [
            ([("S1", "y", "y"), ("S2", "y", "y")], [("t1", "S1"), ("t2", "S2")], (),
             "used twice: y"),
            ([("S1", "X", "X")], [("t1", "S1"), ("t2", "S1")], (), "used twice: X"),
            ([("S1", "y1", "y1"), ("S2", "y2", "y2")], [("t1", "S1"), ("t2", "S2"), ("t9", "S9")],
             (), "tips in undeclared sections: t9"),
            ([("S1", "y1", "y2"), ("S2", "y2", "y2")], [("t1", "S1"), ("t2", "S2")], (),
             "representatives outside their section: y2"),
            ([("S1", "y1", "y1"), ("S2", "y2", "y2")], [("t1", "S1"), ("t2", "S2")],
             ("W", "W"), "used twice: W"),
        ],
        ids=[
            "shared-representative",
            "representative-named-like-mu-node",
            "tip-in-undeclared-section",
            "representative-outside-its-section",
            "singleton-included-twice",
        ],
    )
    def test_identifiers_graphs_built_in_code_fail(self, sections, tips, include, message):
        """Graphs built in code skip the parser's id checks; validation
        must catch them before the 0-graph is built."""
        from tgstatus.model import InternalNode, MuNode, Section, Tip

        graph = TransfiniteGraph(
            rank=1,
            sections=tuple(
                Section(sid, (InternalNode(internal, 0, True),), representative)
                for sid, internal, representative in sections
            ),
            mu_nodes=(
                MuNode("X", tuple(Tip(tid, home) for tid, home in tips)),
                MuNode("W", (Tip("t3", "S1"),)),
            ),
            include_singletons=include,
        )
        report = validate(graph)
        identifiers = [v for v in report.violations if v.condition == "identifiers"]
        assert [v.message for v in identifiers] == [message]
        assert "connectivity" not in [v.condition for v in report.violations]
        with pytest.raises(ValidationFailed):
            build_replacement(graph)
        with pytest.raises(ValidationFailed):
            list(iter_simple_paths(graph))

    @given(st.integers(min_value=0, max_value=10 ** 6))
    @settings(max_examples=60)
    def test_generated_documents_validate(self, seed):
        import random

        doc = random_document(random.Random(seed))
        report = validate(parse_document(document_text(doc)))
        assert report.passed, report.violations


class TestIncidence:
    """Each 0-node of the replacement graph: its origin and its neighbours."""

    @staticmethod
    def zero_nodes(g):
        result = build_replacement(g)
        return [(n, result.origin[n], result.graph.neighbors(n)) for n in result.graph.nodes]

    def test_g1_with_singletons(self):
        g = parse_document(sample("g1_with_singletons"))
        assert self.zero_nodes(g) == [
            ("X1", ("mu-node", "X1"), ("y1", "y2")),
            ("X2", ("mu-node", "X2"), ("y1", "y2")),
            ("y1", ("section", "S1"), ("X1", "X2", "W1")),
            ("y2", ("section", "S2"), ("X1", "X2")),
            ("W1", ("singleton", "W1"), ("y1",)),
        ]

    def test_collapsed_tips_and_excluded_singletons(self):
        doc = json.loads(sample("g1_with_singletons"))
        doc["include_singletons"] = []
        doc["mu_nodes"][1]["tips"].append({"id": "t6", "section": "S1"})
        g = parse_document(json.dumps(doc))
        assert self.zero_nodes(g) == [
            ("X1", ("mu-node", "X1"), ("y1", "y2")),
            ("X2", ("mu-node", "X2"), ("y1", "y2")),
            ("y1", ("section", "S1"), ("X1", "X2")),
            ("y2", ("section", "S2"), ("X1", "X2")),
        ]
