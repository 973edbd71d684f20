"""Tests for document parsing and validation of transfinite graphs."""

import json
import time
from collections import Counter
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

from helpers import document_text, mutated_documents, random_document

SAMPLES = Path(__file__).resolve().parent.parent / "sample_graphs"
DOCUMENT_ERRORS = Path(__file__).resolve().parent / "golden" / "document_errors.txt"


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

    def test_incident_sections_keep_first_appearance(self):
        obj = json.loads(minimal())
        obj["sections"] += [
            {"id": sid, "internal_nodes": [{"id": y, "rank": 0, "nonsingleton": True}],
             "representative": y}
            for sid, y in (("S2", "y2"), ("S3", "y3"))
        ]
        homes = ["S3", "S1", "S3", "S2", "S1", "S1", "S2"]
        obj["mu_nodes"][0]["tips"] = [
            {"id": f"t{i}", "section": home} for i, home in enumerate(homes)
        ]
        g = parse_document(json.dumps(obj))
        assert g.mu_node("X1").incident_sections == ("S3", "S1", "S2")

    def test_incident_sections_of_a_wide_hub_are_linear(self):
        """A mu-node with 8,000 tips: the repeats are dropped by a dict
        lookup, not a scan of the homes so far (a scan took 0.5-0.7 s)."""
        count = 8000
        obj = json.loads(minimal())
        obj["sections"] += [
            {"id": f"H{i}", "internal_nodes": [{"id": f"h{i}", "rank": 0, "nonsingleton": True}],
             "representative": f"h{i}"}
            for i in range(count)
        ]
        obj["mu_nodes"].append(
            {"id": "HUB", "tips": [{"id": f"u{i}", "section": f"H{i % count}"}
                                   for i in range(count + 10)]}
        )
        g = parse_document(json.dumps(obj))
        start = time.perf_counter()
        homes = g.mu_node("HUB").incident_sections
        assert time.perf_counter() - start < 0.2
        assert homes == tuple(f"H{i}" for i in range(count))

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


def two_sections():
    """A valid rank-1 document: sections S1 (y1, z1) and S2 (y2), mu-node X1
    with tips t1 in S1 and t2 in S2, and a singleton mu-node W1 (tip t3)."""
    return {
        "rank": 1,
        "sections": [
            {
                "id": "S1",
                "internal_nodes": [{"id": "y1", "rank": 0, "nonsingleton": True},
                                   {"id": "z1", "rank": 0, "nonsingleton": False}],
                "representative": "y1",
            },
            {
                "id": "S2",
                "internal_nodes": [{"id": "y2", "rank": 0, "nonsingleton": True}],
                "representative": "y2",
            },
        ],
        "mu_nodes": [
            {"id": "X1", "tips": [{"id": "t1", "section": "S1"},
                                  {"id": "t2", "section": "S2"}]},
            {"id": "W1", "tips": [{"id": "t3", "section": "S1"}]},
        ],
        "nondisconnectable_pairs": [],
        "include_singletons": ["W1"],
    }


def _section(doc):
    return doc["sections"][0]


def _internal(doc):
    return doc["sections"][0]["internal_nodes"][0]


def _mu(doc):
    return doc["mu_nodes"][0]


def _tip(doc):
    return doc["mu_nodes"][0]["tips"][0]


_ID_RULE = "must not hold whitespace or non-printable characters"

# (test id, change to two_sections(), the exact DocumentError text).  A
# record that breaks two rules raises the first in this order: it is an
# object, it has no unknown key, its id is a non-empty string of
# printable characters without spaces, its id is new, then its fields
# in the order the reader reads them.
ERROR_PRECEDENCE = [
    # non-object records
    ("section-not-object", lambda d: d["sections"].__setitem__(0, 5),
     "sections: entries must be objects"),
    ("section-is-array", lambda d: d["sections"].__setitem__(1, ["S2"]),
     "sections: entries must be objects"),
    ("internal-not-object", lambda d: _section(d)["internal_nodes"].__setitem__(1, "z1"),
     "section S1: internal nodes must be objects"),
    ("mu-node-not-object", lambda d: d["mu_nodes"].__setitem__(1, None),
     "mu_nodes: entries must be objects"),
    ("tip-not-object", lambda d: _mu(d)["tips"].__setitem__(1, 5),
     "mu-node X1: tips must be objects"),
    # an unknown key outranks a bad id on one record; the least key is named
    ("section-unknown-key-and-bad-id", lambda d: _section(d).update(id="", zz=1, extra=2),
     "section: unknown key 'extra'"),
    ("internal-unknown-key-and-bad-id", lambda d: _internal(d).update(id=5, extra=1),
     "section S1: unknown key 'extra'"),
    ("mu-node-unknown-key-and-bad-id", lambda d: _mu(d).update(id="X 1", extra=1),
     "mu-node: unknown key 'extra'"),
    ("tip-unknown-key-and-duplicate-id", lambda d: _tip(d).update(id="S1", extra=1),
     "mu-node X1: unknown key 'extra'"),
    ("document-unknown-key", lambda d: d.update(zeta=1, alpha=2, sections=5),
     "document: unknown key 'alpha'"),
    # ids: empty, missing, non-string, with a space, non-printable
    ("section-id-empty", lambda d: _section(d).update(id=""),
     "section: 'id' must be a non-empty string"),
    ("section-id-missing", lambda d: _section(d).pop("id"),
     "section: 'id' must be a non-empty string"),
    ("section-id-space", lambda d: _section(d).update(id="S 1"),
     f"section: id 'S 1' {_ID_RULE}"),
    ("internal-id-not-string", lambda d: _internal(d).update(id=["y1"]),
     "section S1: 'id' must be a non-empty string"),
    ("internal-id-newline", lambda d: _internal(d).update(id="y1\nupper"),
     f"section S1: id 'y1\\nupper' {_ID_RULE}"),
    ("internal-id-empty", lambda d: _internal(d).update(id=""),
     "section S1: 'id' must be a non-empty string"),
    ("internal-id-tab", lambda d: _internal(d).update(id="y\t1"),
     f"section S1: id 'y\\t1' {_ID_RULE}"),
    ("mu-node-id-number", lambda d: _mu(d).update(id=7),
     "mu-node: 'id' must be a non-empty string"),
    ("mu-node-id-tab", lambda d: _mu(d).update(id="X\t1"),
     f"mu-node: id 'X\\t1' {_ID_RULE}"),
    ("mu-node-id-empty", lambda d: _mu(d).update(id=""),
     "mu-node: 'id' must be a non-empty string"),
    ("tip-id-empty", lambda d: _tip(d).update(id=""),
     "mu-node X1: 'id' must be a non-empty string"),
    ("tip-id-nul", lambda d: _tip(d).update(id="t\x001"),
     f"mu-node X1: id 't\\x001' {_ID_RULE}"),
    ("tip-id-tab", lambda d: _tip(d).update(id="t\t1"),
     f"mu-node X1: id 't\\t1' {_ID_RULE}"),
    ("tip-id-no-break-space", lambda d: _tip(d).update(id="t 1"),
     f"mu-node X1: id 't\\xa01' {_ID_RULE}"),
    # duplicates, within and across kinds
    ("section-duplicate", lambda d: d["sections"][1].update(id="S1"),
     "sections: duplicate identifier 'S1'"),
    ("internal-duplicates-section", lambda d: d["sections"][1]["internal_nodes"][0].update(id="S1"),
     "section S2: duplicate identifier 'S1'"),
    ("internal-names-later-section", lambda d: _section(d)["internal_nodes"][1].update(id="S2"),
     "sections: duplicate identifier 'S2'"),
    ("internal-duplicates-internal", lambda d: _section(d)["internal_nodes"][1].update(id="y1"),
     "section S1: duplicate identifier 'y1'"),
    ("mu-node-duplicates-internal", lambda d: _mu(d).update(id="z1"),
     "mu_nodes: duplicate identifier 'z1'"),
    ("tip-duplicates-mu-node", lambda d: _tip(d).update(id="X1"),
     "mu-node X1: duplicate identifier 'X1'"),
    ("tip-duplicates-earlier-tip", lambda d: d["mu_nodes"][1]["tips"][0].update(id="t2"),
     "mu-node W1: duplicate identifier 't2'"),
    ("section-id-bad-and-duplicate", lambda d: d["sections"][1].update(id="S1 "),
     f"section: id 'S1 ' {_ID_RULE}"),
    # internal-node fields: rank before nonsingleton
    ("rank-bool", lambda d: _internal(d).update(rank=True),
     "internal node y1: 'rank' must be an integer"),
    ("rank-float", lambda d: _internal(d).update(rank=0.0),
     "internal node y1: 'rank' must be an integer"),
    ("rank-missing", lambda d: _internal(d).pop("rank"),
     "internal node y1: 'rank' must be an integer"),
    ("rank-null", lambda d: _internal(d).update(rank=None),
     "internal node y1: 'rank' must be an integer"),
    ("rank-string", lambda d: _internal(d).update(rank="0"),
     "internal node y1: 'rank' must be an integer"),
    ("rank-at-graph-rank", lambda d: _internal(d).update(rank=1),
     "internal node y1: rank 1 must satisfy 0 <= rank < 1"),
    ("rank-negative-and-bad-nonsingleton", lambda d: _internal(d).update(rank=-1, nonsingleton=0),
     "internal node y1: rank -1 must satisfy 0 <= rank < 1"),
    ("nonsingleton-number", lambda d: _internal(d).update(nonsingleton=1),
     "internal node y1: 'nonsingleton' must be a boolean"),
    ("nonsingleton-string", lambda d: _internal(d).update(nonsingleton="true"),
     "internal node y1: 'nonsingleton' must be a boolean"),
    ("nonsingleton-missing", lambda d: _section(d)["internal_nodes"][1].pop("nonsingleton"),
     "internal node z1: 'nonsingleton' must be a boolean"),
    # representatives, read after the internal nodes
    ("representative-missing", lambda d: _section(d).pop("representative"),
     "section S1: 'representative' must be a non-empty string"),
    ("representative-not-string", lambda d: _section(d).update(representative=1),
     "section S1: 'representative' must be a non-empty string"),
    ("representative-empty", lambda d: _section(d).update(representative=""),
     "section S1: 'representative' must be a non-empty string"),
    ("representative-unknown", lambda d: _section(d).update(representative="y9"),
     "section S1: representative 'y9' does not name one of its internal nodes"),
    ("representative-in-other-section", lambda d: d["sections"][1].update(representative="y1"),
     "section S2: representative 'y1' does not name one of its internal nodes"),
    ("representative-names-section", lambda d: _section(d).update(representative="S1"),
     "section S1: representative 'S1' does not name one of its internal nodes"),
    ("internal-error-before-representative",
     lambda d: _section(d).update(representative="y9", internal_nodes=[{"id": "y1", "rank": "0"}]),
     "internal node y1: 'rank' must be an integer"),
    # internal_nodes and tips arrays
    ("internal-nodes-empty", lambda d: _section(d).update(internal_nodes=[]),
     "section S1: needs at least one internal node"),
    ("internal-nodes-object", lambda d: _section(d).update(internal_nodes={}),
     "section S1: 'internal_nodes' must be an array"),
    ("internal-nodes-null", lambda d: _section(d).update(internal_nodes=None),
     "section S1: 'internal_nodes' must be an array"),
    ("internal-nodes-missing-and-bad-representative",
     lambda d: (_section(d).pop("internal_nodes"), _section(d).update(representative=5)),
     "section S1: 'internal_nodes' must be an array"),
    ("tips-empty", lambda d: _mu(d).update(tips=[]),
     "mu-node X1: needs at least one tip"),
    ("tips-string", lambda d: _mu(d).update(tips="t1"),
     "mu-node X1: 'tips' must be an array"),
    ("tips-missing", lambda d: _mu(d).pop("tips"),
     "mu-node X1: 'tips' must be an array"),
    ("tips-null", lambda d: _mu(d).update(tips=None),
     "mu-node X1: 'tips' must be an array"),
    # tip sections
    ("tip-section-unknown", lambda d: _tip(d).update(section="S9"),
     "tip t1: unknown section 'S9'"),
    ("tip-section-names-internal", lambda d: _tip(d).update(section="y1"),
     "tip t1: unknown section 'y1'"),
    ("tip-section-not-string", lambda d: _tip(d).update(section=["S1"]),
     "tip t1: 'section' must be a non-empty string"),
    ("tip-section-missing", lambda d: _tip(d).pop("section"),
     "tip t1: 'section' must be a non-empty string"),
    ("tip-section-empty", lambda d: _tip(d).update(section=""),
     "tip t1: 'section' must be a non-empty string"),
    # records are read in document order: sections first
    ("section-before-mu-node",
     lambda d: (_mu(d).update(id=""), d["sections"][1].update(representative="y9")),
     "section S2: representative 'y9' does not name one of its internal nodes"),
    # inclusions
    ("include-unknown", lambda d: d.update(include_singletons=["X9"]),
     "include_singletons: unknown mu-node 'X9'"),
    ("include-duplicate", lambda d: d.update(include_singletons=["W1", "X1", "W1"]),
     "include_singletons: duplicate entry 'W1'"),
    ("include-not-string-before-duplicate", lambda d: d.update(include_singletons=["W1", "W1", 5]),
     "include_singletons: duplicate entry 'W1'"),
]


@pytest.mark.parametrize(
    "change, message",
    [case[1:] for case in ERROR_PRECEDENCE],
    ids=[case[0] for case in ERROR_PRECEDENCE],
)
def test_document_error_text_and_precedence(change, message):
    doc = two_sections()
    assert validate(parse_document(json.dumps(doc))).passed
    change(doc)
    with pytest.raises(DocumentError) as excinfo:
        parse_document(json.dumps(doc))
    assert str(excinfo.value) == message


def document_outcomes(seed, count):
    """Lines "<count> <outcome>", by outcome, over count sample documents
    with random edits: the outcome of a document is "ok" when it loads
    and the DocumentError text when it does not."""
    texts = [path.read_text() for path in sorted(SAMPLES.glob("*.json"))]
    outcomes = Counter()
    for doc in mutated_documents(texts, seed, count):
        try:
            load_document(json.dumps(doc))
        except DocumentError as exc:
            outcomes[str(exc)] += 1
        else:
            outcomes["ok"] += 1
    return "".join(f"{outcomes[key]} {key}\n" for key in sorted(outcomes))


def test_document_error_texts_on_edited_samples():
    """5,000 edited sample documents give the golden count of each error
    text, so a reader change that rewords or reorders a rule shows here;
    any exception but DocumentError fails the test."""
    assert document_outcomes(seed=1, count=5000) == DOCUMENT_ERRORS.read_text()


def test_include_singletons_duplicate_check_is_linear():
    """20,000 included singletons parse in well under a second: the
    duplicate check is a set lookup, not a scan of the entries so far
    (a scan took 4-8 s)."""
    count = 20_000
    doc = two_sections()
    doc["mu_nodes"] += [
        {"id": f"W{i}", "tips": [{"id": f"u{i}", "section": "S1"}]} for i in range(2, count + 1)
    ]
    doc["include_singletons"] = [f"W{i}" for i in range(1, count + 1)]
    text = json.dumps(doc)
    start = time.perf_counter()
    graph = parse_document(text)
    assert time.perf_counter() - start < 1.5
    assert len(graph.include_singletons) == count
    doc["include_singletons"].append("W1")
    with pytest.raises(DocumentError) as excinfo:
        parse_document(json.dumps(doc))
    assert str(excinfo.value) == "include_singletons: duplicate entry 'W1'"


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

    def test_graph_without_sections_fails(self):
        """The parser's rule holds for graphs built in code: with no
        section every entry point raises ValidationFailed, not a bare
        ValueError from the bounds of an empty 0-graph."""
        from tgstatus.status import status_report

        graph = TransfiniteGraph(1, (), ())
        report = validate(graph)
        assert not report.passed
        assert [(v.condition, v.message) for v in report.violations] == [
            ("sections", "at least one section is required")
        ]
        for run in (
            build_replacement,
            status_report,
            lambda g: list(iter_simple_paths(g)),
            lambda g: status_report(g, walk_based=True),
        ):
            with pytest.raises(ValidationFailed) as failure:
                run(graph)
            assert failure.value.report.violations == report.violations

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
