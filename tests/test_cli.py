"""Tests for the command-line interface: outputs, exit codes, goldens."""

import gc
import json
import random
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

from tgstatus import finite_graph
from tgstatus.cli import main
from tgstatus.finite_graph import MAX_EXTREMAL_NODES, MAX_VERIFY_NODES

from helpers import document_text, random_document, run_fresh_cli

ROOT = Path(__file__).resolve().parent.parent
SAMPLES = ROOT / "sample_graphs"
GOLDEN = ROOT / "tests" / "golden"

# Labeled connected graphs on p = 1, 2, ... nodes (OEIS A001187).
LABELED_CONNECTED = [1, 1, 4, 38, 728, 26704, 1866256, 251548592, 66296291072]


def run(*args):
    return CliRunner().invoke(main, [str(a) for a in args])


def sample(name):
    return SAMPLES / f"{name}.json"


def golden(name):
    return (GOLDEN / name).read_text()


def tight_upper(p, q):
    """The EJS bounds with the upper one lowered by one, so that every node
    at the upper bound is reported as a violation."""
    return p - 1, (p - 1) * (p + 2) // 2 - q - 1


def assert_no_nodes_input_error(command, tmp_path):
    doc = tmp_path / "empty.json"
    doc.write_text('{"rank": 0, "nodes": [], "edges": []}')
    result = run(command, doc)
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr == f"error: {doc}: bounds need at least one node\n"


class TestValidate:
    def test_pass(self):
        result = run("validate", sample("g1"))
        assert result.exit_code == 0
        assert result.output.splitlines()[0] == "passed"

    def test_violation_exit_1(self):
        result = run("validate", sample("g3_nondisconnectable_violation"))
        assert result.exit_code == 1
        lines = result.output.splitlines()
        assert lines[0] == "failed: 1 violation"
        assert lines[1].startswith("nondisconnectable-tips:")

    def test_walk_based_passes(self):
        result = run("validate", "--walk-based", sample("g3_nondisconnectable_violation"))
        assert result.exit_code == 0
        assert "walk mode" in result.output

    def test_rank0_rejected(self):
        result = run("validate", sample("path4"))
        assert result.exit_code == 2

    def test_missing_file(self):
        result = run("validate", SAMPLES / "missing.json")
        assert result.exit_code == 2

    def test_malformed_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{")
        assert run("validate", bad).exit_code == 2

    def test_connectivity_lists_unreached_sections_first(self, tmp_path):
        # The first mu-node (X0) and an included singleton (W2) lie
        # outside the component of the first section.
        doc = json.loads(sample("g1_with_singletons").read_text())
        for n in (3, 4):
            doc["sections"].append(
                {
                    "id": f"S{n}",
                    "internal_nodes": [{"id": f"y{n}", "rank": 1, "nonsingleton": True}],
                    "representative": f"y{n}",
                }
            )
        doc["mu_nodes"].insert(
            0, {"id": "X0", "tips": [{"id": "t6", "section": "S3"},
                                    {"id": "t7", "section": "S4"}]}
        )
        doc["mu_nodes"].append({"id": "W2", "tips": [{"id": "t8", "section": "S4"}]})
        doc["include_singletons"].append("W2")
        path = tmp_path / "disconnected.json"
        path.write_text(json.dumps(doc))
        message = (
            "connectivity: the replacement 0-graph is not connected; "
            "unreached: S3, S4, X0, W2\n"
        )
        result = run("validate", path)
        assert result.exit_code == 1
        assert result.stdout == (
            "failed: 1 violation\n" + message + "note: distances within a section "
            "are 0 by convention; section interiors do not affect computed quantities\n"
        )
        for command in ("replace", "status"):
            result = run(command, path)
            assert result.exit_code == 1
            assert result.stderr == message + "error: validation failed\n"

    @pytest.mark.parametrize("key", ["nondisconnectable_pairs", "include_singletons"])
    def test_optional_entry_not_an_array_exit_2(self, tmp_path, key):
        doc = json.loads(sample("g3").read_text())
        doc[key] = 5
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        result = run("validate", bad)
        assert result.exit_code == 2
        assert "must be an array" in result.output


class TestReplace:
    def test_summary(self):
        result = run("replace", sample("g3"))
        assert result.exit_code == 0
        lines = result.output.splitlines()
        assert lines[:2] == ["p: 5", "q: 4"]
        assert "X1 mu-node X1" in lines
        assert "y2 section S2" in lines
        assert "X1 -- y2" in lines

    @pytest.mark.parametrize("name", ["g1_with_singletons", "g3"])
    def test_text_goldens(self, name):
        result = run("replace", sample(name))
        assert result.exit_code == 0
        assert result.output == golden(f"{name}_replace.txt")

    def test_json_golden(self):
        result = run("replace", "--json", sample("g1_with_singletons"))
        assert result.exit_code == 0
        assert result.output == golden("g1_with_singletons_replace.json")

    def test_dot_golden(self):
        result = run("replace", "--dot", sample("g1"))
        assert result.exit_code == 0
        assert result.output == golden("g1_replace.dot")

    def test_dot_golden_g3(self):
        result = run("replace", "--dot", sample("g3"))
        assert result.output == golden("g3_replace.dot")

    def test_json_round_trips(self):
        result = run("replace", "--json", sample("g1"))
        obj = json.loads(result.output)
        assert obj["rank"] == 0
        assert obj["nodes"] == ["X1", "X2", "y1", "y2"]
        assert len(obj["edges"]) == 4

    def test_singleton_leaf_lines(self):
        result = run("replace", sample("g1_with_singletons"))
        assert "W1 singleton W1" in result.output.splitlines()
        assert "W1 -- y1" in result.output.splitlines()

    def test_flags_mutually_exclusive(self):
        assert run("replace", "--dot", "--json", sample("g1")).exit_code == 2

    def test_validation_failure_exit_1(self):
        assert run("replace", sample("g3_nondisconnectable_violation")).exit_code == 1


class TestStatus:
    @pytest.mark.parametrize("name", ["g1", "g2", "g3", "g1_with_singletons"])
    def test_text_goldens(self, name):
        result = run("status", sample(name))
        assert result.exit_code == 0
        assert result.output == golden(f"{name}_status.txt")

    @pytest.mark.parametrize("name", ["g1", "g3"])
    def test_json_goldens(self, name):
        result = run("status", "--json", sample(name))
        assert result.exit_code == 0
        assert result.output == golden(f"{name}_status.json")
        json.loads(result.output)

    def test_single_node(self):
        result = run("status", "--node", "y1", sample("g3"))
        assert result.output == "w*10\n"
        result = run("status", "--node", "z1", sample("g1"))
        assert result.output == "w^2*4\n"

    def test_single_node_json(self):
        result = run("status", "--node", "y1", "--json", sample("g3"))
        assert json.loads(result.output) == {"id": "y1", "status": "w*10"}

    def test_single_node_matches_full_report(self, tmp_path):
        docs = [
            json.loads(sample(name).read_text())
            for name in ("g1", "g1_with_singletons", "g2", "g3")
        ]
        # One section and no mu-node: p = 1, and y1's status is 0.
        docs.append(
            {
                "rank": 1,
                "sections": [
                    {
                        "id": "S1",
                        "internal_nodes": [{"id": "y1", "rank": 0, "nonsingleton": True}],
                        "representative": "y1",
                    }
                ],
                "mu_nodes": [],
            }
        )
        rng = random.Random(31)
        docs += [random_document(rng) for _ in range(30)]
        for index, doc in enumerate(docs):
            path = tmp_path / f"doc{index}.json"
            path.write_text(document_text(doc))
            report = json.loads(run("status", "--json", path).output)
            expected = {entry["id"]: entry["status"] for entry in report["nodes"]}
            queries = {}
            for section in doc["sections"]:
                for internal in section["internal_nodes"]:
                    queries[internal["id"]] = expected[section["representative"]]
            for mu_node in doc["mu_nodes"]:
                queries[mu_node["id"]] = expected.get(mu_node["id"])
            for node, status in queries.items():
                result = run("status", "--node", node, "--json", path)
                if status is None:
                    assert result.exit_code == 2, node
                    assert result.stderr.startswith("error: status is defined only")
                else:
                    assert result.exit_code == 0, node
                    assert json.loads(result.output) == {"id": node, "status": status}
        one_section = run("status", "--node", "y1", "--json", tmp_path / "doc4.json")
        assert json.loads(one_section.output) == {"id": "y1", "status": "0"}

    def test_unknown_node(self):
        assert run("status", "--node", "nope", sample("g3")).exit_code == 2

    def test_singleton_node_rejected(self):
        result = run("status", "--node", "W1", sample("g1_with_singletons"))
        assert result.exit_code == 2

    def test_validation_failure_exit_1(self):
        assert run("status", sample("g3_nondisconnectable_violation")).exit_code == 1

    def test_walk_based_matches_clean(self):
        walked = run("status", "--walk-based", sample("g3_nondisconnectable_violation"))
        clean = run("status", sample("g3"))
        assert walked.exit_code == 0
        assert walked.output == clean.output

    def test_deterministic(self):
        assert run("status", sample("g1")).output == run("status", sample("g1")).output


class TestBounds:
    def test_transfinite(self):
        result = run("bounds", sample("g3"))
        assert result.exit_code == 0
        assert result.output.splitlines() == [
            "rank: 1", "p: 5", "q: 4", "lower: w*4", "upper: w*10",
            "achieved_lower: (none)", "achieved_upper: y1 y3",
        ]

    @pytest.mark.parametrize("name", ["g1_with_singletons", "g3"])
    def test_transfinite_goldens(self, name):
        result = run("bounds", sample(name))
        assert result.exit_code == 0
        assert result.output == golden(f"{name}_bounds.txt")

    @pytest.mark.parametrize("name", ["g1_with_singletons", "g3"])
    def test_transfinite_json_goldens(self, name):
        result = run("bounds", "--json", sample(name))
        assert result.exit_code == 0
        assert result.output == golden(f"{name}_bounds.json")

    def test_rank0_golden(self):
        result = run("bounds", sample("path4"))
        assert result.output == golden("path4_bounds.txt")

    def test_rank0_json_golden(self):
        result = run("bounds", "--json", sample("path4"))
        assert result.output == golden("path4_bounds.json")

    def test_rank0_json(self):
        obj = json.loads(run("bounds", "--json", sample("path4")).output)
        assert obj == {
            "rank": 0, "p": 4, "q": 3, "lower": 3, "upper": 6,
            "achieved_lower": [], "achieved_upper": ["v1", "v4"],
        }

    def test_transfinite_json_has_no_nodes_key(self):
        obj = json.loads(run("bounds", "--json", sample("g3")).output)
        assert "nodes" not in obj
        assert obj["lower"] == "w*4"

    def test_disconnected_rank0_exit_1(self, tmp_path):
        doc = tmp_path / "disc.json"
        doc.write_text('{"rank": 0, "nodes": ["a", "b"], "edges": []}')
        result = run("bounds", doc)
        assert result.exit_code == 1
        assert result.stdout == ""
        assert result.stderr == "error: bounds are undefined on a disconnected graph\n"

    def test_rank0_without_nodes_exit_2(self, tmp_path):
        assert_no_nodes_input_error("bounds", tmp_path)


class TestEjsCheck:
    def test_golden(self):
        result = run("ejs-check", sample("path4"))
        assert result.exit_code == 0
        assert result.output == golden("path4_ejs_check.txt")

    def test_ok(self):
        result = run("ejs-check", sample("path4"))
        assert result.exit_code == 0
        assert result.output.splitlines()[-1] == "checked 4 nodes, 0 violations"

    def test_violations_exit_1(self, monkeypatch):
        monkeypatch.setattr(finite_graph, "status_bounds_values", tight_upper)
        result = run("ejs-check", sample("path4"))
        assert result.exit_code == 1
        assert result.stdout == (
            "p: 4\nq: 3\nlower: 3\nupper: 5\n"
            "violation: node v1 status 6 outside [3, 5]\n"
            "violation: node v4 status 6 outside [3, 5]\n"
            "checked 4 nodes, 2 violations\n"
        )

    def test_disconnected_exit_1(self, tmp_path):
        doc = tmp_path / "disc.json"
        doc.write_text('{"rank": 0, "nodes": ["a", "b"], "edges": []}')
        result = run("ejs-check", doc)
        assert result.exit_code == 1
        assert result.stdout == "violation: graph is not connected\n"

    def test_transfinite_rejected(self):
        assert run("ejs-check", sample("g1")).exit_code == 2

    def test_rank0_without_nodes_exit_2(self, tmp_path):
        assert_no_nodes_input_error("ejs-check", tmp_path)


class TestVerifyEjs:
    def test_max5_golden(self):
        result = run("verify-ejs", "--max-p", 5)
        assert result.exit_code == 0
        assert result.output == golden("verify_ejs_max5.txt")
        assert result.output.splitlines()[-1] == "checked 772 graphs, 0 violations"

    def test_out_of_range(self):
        for max_p in (MAX_VERIFY_NODES + 1, 0):
            result = run("verify-ejs", "--max-p", max_p)
            assert result.exit_code == 2
            assert result.stdout == ""
            assert result.stderr == (
                f"error: --max-p must be between 1 and {MAX_VERIFY_NODES}, got {max_p}\n"
            )

    def test_violations_exit_1(self, monkeypatch):
        # Violations count labeled nodes at the upper bound: the node of
        # K1, both nodes of K2, the ends of the three labeled P3 and the
        # nodes of K3; 52 for p = 4, as a brute-force count over all
        # 64 labeled graphs gives.
        monkeypatch.setattr(finite_graph, "status_bounds_values", tight_upper)
        result = run("verify-ejs", "--max-p", 4)
        assert result.exit_code == 1
        assert result.stdout == (
            "p=1: 1 graph, 1 violation\n"
            "p=2: 1 graph, 2 violations\n"
            "p=3: 4 graphs, 9 violations\n"
            "p=4: 38 graphs, 52 violations\n"
            "checked 44 graphs, 64 violations\n"
        )

    def test_max8_golden_matches_a001187(self):
        # The golden is also diffed against the program, in process
        # (test_exhaustive_kernel_golden) and in CI.
        counts = LABELED_CONNECTED[:8]
        expected = [f"p={p}: {n} graph{'s' * (n != 1)}, 0 violations" for p, n in enumerate(counts, 1)]
        expected.append(f"checked {sum(counts)} graphs, 0 violations")
        assert golden("verify_ejs_max8.txt").splitlines() == expected
        assert golden("verify_ejs_max7.txt").splitlines()[:7] == expected[:7]

    def test_max9_golden_matches_a001187(self):
        # The p = 9 run takes about 20 s, so it runs in CI only.
        lines = golden("verify_ejs_max9.txt").splitlines()
        assert lines[:8] == golden("verify_ejs_max8.txt").splitlines()[:8]
        assert lines[8:] == [
            "p=9: 66296291072 graphs, 0 violations",
            f"checked {sum(LABELED_CONNECTED)} graphs, 0 violations",
        ]


class TestExtremal:
    def test_text(self):
        result = run("extremal", "--p", 4, "--q", 4)
        assert result.exit_code == 0
        assert result.output.splitlines() == [
            "p: 4",
            "q: 4",
            "lower: 3 at v1 in graph v1-v2 v1-v3 v1-v4 v2-v3",
            "upper: 5 at v4 in graph v1-v2 v1-v3 v1-v4 v2-v3",
        ]

    def test_json(self):
        obj = json.loads(run("extremal", "--p", 4, "--q", 3, "--json").output)
        assert obj["lower"]["status"] == 3
        assert obj["upper"]["status"] == 6
        assert obj["lower"]["node"] == "v1"
        assert sorted(map(tuple, obj["lower"]["edges"])) == [
            ("v1", "v2"), ("v1", "v3"), ("v1", "v4")
        ]

    def test_edgeless_witness(self):
        result = run("extremal", "--p", 1, "--q", 0)
        assert result.exit_code == 0
        assert result.output == (
            "p: 1\nq: 0\n"
            "lower: 0 at v1 in graph (none)\n"
            "upper: 0 at v1 in graph (none)\n"
        )

    def test_infeasible(self):
        assert run("extremal", "--p", 4, "--q", 2).exit_code == 2

    def test_node_cap(self):
        for p in (8, MAX_EXTREMAL_NODES):
            result = run("extremal", "--p", p, "--q", p, "--json")
            assert result.exit_code == 0, p
            obj = json.loads(result.output)
            bounds = (p - 1, (p - 1) * (p + 2) // 2 - p)
            assert (obj["lower"]["status"], obj["upper"]["status"]) == bounds
            assert len(obj["upper"]["nodes"]) == p and len(obj["upper"]["edges"]) == p
        p = MAX_EXTREMAL_NODES + 1
        result = run("extremal", "--p", p, "--q", p)
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr == f"error: search supports 1 <= p <= {MAX_EXTREMAL_NODES}, got {p}\n"

    def test_unknown_flag_and_command(self):
        assert run("extremal", "--p", 4).exit_code == 2
        assert run("bogus").exit_code == 2


class TestErrorMapping:
    """A command loads the transfinite layer itself, so the library's
    errors are mapped in a fresh interpreter as in a loaded one."""

    @pytest.mark.parametrize(
        "args, code",
        [
            (["extremal", "--p", "3", "--q", "9"], 2),
            (["status", "sample_graphs/g3_nondisconnectable_violation.json"], 1),
            (["status", "--node", "nope", "sample_graphs/g3.json"], 2),
        ],
        ids=["graph-error", "validation-failed", "status-error"],
    )
    def test_fresh_interpreter_maps_errors_as_a_loaded_one(self, args, code):
        codes, _, stderr = run_fresh_cli(args)
        result = run(*args)
        assert codes == [result.exit_code] == [code]
        assert stderr == result.stderr

    def test_infeasible_extremal_is_one_error_line(self):
        codes, loaded, stderr = run_fresh_cli(["extremal", "--p", "3", "--q", "9"])
        assert codes == [2]
        assert stderr.startswith("error: ") and stderr.count("\n") == 1
        assert loaded == ["tgstatus", "tgstatus.cli", "tgstatus.finite_graph"]

    def test_validation_failure_prints_violations_then_error(self):
        result = run("status", sample("g3_nondisconnectable_violation"))
        *violations, last = result.stderr.splitlines()
        assert result.exit_code == 1
        assert violations and all(v.startswith("nondisconnectable-tips: ") for v in violations)
        assert last == "error: validation failed"

    @pytest.mark.parametrize(
        "module, name, args",
        [
            ("tgstatus.cli", "extremal_search", ["extremal", "--p", "4", "--q", "4"]),
            ("tgstatus.status", "status_report", ["status", sample("g1")]),
        ],
        ids=["finite", "transfinite"],
    )
    def test_other_value_errors_escape(self, monkeypatch, module, name, args):
        error = ValueError("not a library error")

        def fail(*_args, **_kwargs):
            raise error

        monkeypatch.setattr(f"{module}.{name}", fail)
        result = run(*args)
        assert result.exception is error
        assert result.stderr == ""


class TestCollectorPause:
    """A command runs with the cyclic collector paused, and leaves it as
    the caller had it, however the command ends."""

    def test_validate_runs_with_the_collector_paused(self, monkeypatch):
        import tgstatus.model

        seen = []
        real = tgstatus.model.validate

        def recording(*args, **kwargs):
            seen.append(gc.isenabled())
            return real(*args, **kwargs)

        monkeypatch.setattr(tgstatus.model, "validate", recording)
        assert gc.isenabled()
        assert run("validate", sample("g1")).exit_code == 0
        assert seen == [False]
        assert gc.isenabled()

    @pytest.mark.parametrize(
        "args, code",
        [
            (["validate", sample("g1")], 0),
            (["validate", sample("missing")], 2),
            (["validate", sample("g3_nondisconnectable_violation")], 1),
            (["status", sample("g3_nondisconnectable_violation")], 1),
        ],
        ids=["passed", "input-error", "validation-failed", "status-validation-failed"],
    )
    @pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
    def test_collector_state_is_restored(self, args, code, enabled):
        if not enabled:
            gc.disable()
        try:
            assert run(*args).exit_code == code
            assert gc.isenabled() is enabled
        finally:
            gc.enable()

    def test_collector_is_restored_when_an_error_escapes(self, monkeypatch):
        error = ValueError("not a library error")

        def fail(*_args, **_kwargs):
            raise error

        monkeypatch.setattr("tgstatus.model.validate", fail)
        assert run("validate", sample("g1")).exception is error
        assert gc.isenabled()


# Where each kind of declared id sits in a sample, and the context its
# error names.
ID_FIELDS = {
    "node": ("path4", ("nodes", 0), "document: node id"),
    "section": ("g3", ("sections", 0, "id"), "section: id"),
    "internal node": ("g3", ("sections", 0, "internal_nodes", 0, "id"), "section S1: id"),
    "mu-node": ("g3", ("mu_nodes", 0, "id"), "mu-node: id"),
    "tip": ("g3", ("mu_nodes", 0, "tips", 0, "id"), "mu-node X1: id"),
}


@pytest.mark.parametrize("char", ["\n", "\t", " ", "\x00", "\u2028"])
@pytest.mark.parametrize("kind", list(ID_FIELDS))
def test_id_with_whitespace_or_nonprintable_exit_2(tmp_path, kind, char):
    # Text output separates fields with spaces and records with newlines,
    # so such an id could forge a line: "X1\nupper: w*999" made `status`
    # print "upper: w*999 mu-node w*7".  The id holds no other such
    # character, so each one is rejected on its own.
    name, path, context = ID_FIELDS[kind]
    doc = json.loads(sample(name).read_text())
    container = doc
    for key in path[:-1]:
        container = container[key]
    ident = container[path[-1]] = f"{container[path[-1]]}{char}upper:999"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    commands = ["bounds", "ejs-check"] if name == "path4" else [
        "validate", "replace", "status", "bounds"
    ]
    for command in commands:
        result = run(command, bad)
        assert result.exit_code == 2, command
        assert result.stdout == ""
        assert result.stderr == (
            f"error: {bad}: {context} {ident!r} must not hold whitespace "
            "or non-printable characters\n"
        )


@pytest.mark.parametrize("command", ["validate", "status", "bounds", "ejs-check", "replace"])
def test_deeply_nested_json_exit_2(tmp_path, command):
    doc = tmp_path / "deep.json"
    doc.write_text('{"rank": 1, "sections": ' + "[" * 100000)
    result = run(command, doc)
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr == f"error: {doc}: invalid JSON: nested too deeply\n"


@pytest.mark.parametrize("command", ["validate", "status", "bounds", "ejs-check", "replace"])
def test_undecodable_file_exit_2(tmp_path, command):
    doc = tmp_path / "utf16.json"
    doc.write_bytes(b"\xff\xfe{\x00}\x00")
    result = run(command, doc)
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr == (
        f"error: cannot read {doc}: 'utf-8' codec can't decode byte 0xff "
        "in position 0: invalid start byte\n"
    )


@pytest.mark.parametrize("command", ["validate", "status", "bounds", "ejs-check", "replace"])
def test_integer_too_long_exit_2(tmp_path, command):
    doc = tmp_path / "long.json"
    doc.write_text('{"rank": ' + "1" * 4301 + "}")
    result = run(command, doc)
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr.startswith(f"error: {doc}: invalid JSON: Exceeds the limit (4300")
    assert result.stderr.count("\n") == 1


@pytest.mark.parametrize(
    "args, message",
    [
        (("status", sample("g1"), "--bogus"), "No such option '--bogus'."),
        (("extremal", "--p", 4), "Missing option '--q'."),
        (("verify-ejs", "--max-p", "x"), "Invalid value for '--max-p': 'x' is not a valid integer."),
        (("bogus",), "No such command 'bogus'. Did you mean 'bounds'?"),
        (("--bogus",), "No such option '--bogus'."),
        (("--bogus", "status", sample("g1")), "No such option '--bogus'."),
    ],
)
def test_usage_error_one_line_exit_2(args, message):
    result = run(*args)
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr == f"error: {message}\n"


def test_bare_command_and_help_print_the_help():
    bare, help_ = run(), run("--help")
    assert bare.exit_code == 2
    assert bare.stderr.startswith("Usage: ") and "Commands:" in bare.stderr
    assert help_.exit_code == 0
    assert help_.stdout.startswith("Usage: ") and "Commands:" in help_.stdout


def assert_exits_cleanly(result, command):
    """Exit 0, 1 or 2 without an escaped exception; exit 2 prints exactly
    one `error: ` line."""
    assert result.exit_code in (0, 1, 2), command
    assert result.exception is None or isinstance(result.exception, SystemExit), command
    if result.exit_code == 2:
        assert result.stderr.startswith("error: "), command
        assert result.stderr.count("\n") == 1 and result.stderr.endswith("\n"), command


FUZZ_SAMPLES = ["g1", "g1_with_singletons", "g3", "g3_nondisconnectable_violation", "path4"]
FUZZ_COMMANDS = [
    ("validate",), ("validate", "--walk-based"),
    ("replace",), ("replace", "--json"), ("replace", "--dot"),
    ("status",), ("status", "--json"), ("status", "--walk-based"),
    ("bounds",), ("bounds", "--json"), ("ejs-check",),
]
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=6,
)


def json_items(value, path=()):
    """(path, value) for every value inside a JSON value, the root first."""
    yield path, value
    if isinstance(value, dict):
        children = value.items()
    elif isinstance(value, list):
        children = enumerate(value)
    else:
        return
    for key, child in children:
        yield from json_items(child, path + (key,))


def json_strings(value):
    return sorted({v for _, v in json_items(value) if isinstance(v, str)})


@st.composite
def mutated_documents(draw):
    """A sample document with one value replaced, deleted or duplicated at
    a random path, or now and then an arbitrary JSON value."""
    if draw(st.integers(0, 9)) == 9:
        return draw(json_values)
    doc = json.loads(sample(draw(st.sampled_from(FUZZ_SAMPLES))).read_text())
    *parents, key = draw(st.sampled_from([path for path, _ in json_items(doc)][1:]))
    container = doc
    for step in parents:
        container = container[step]
    operation = draw(st.sampled_from(["replace", "delete", "duplicate"]))
    if operation == "delete":
        del container[key]
    elif operation == "duplicate" and isinstance(container, list):
        container.insert(key, container[key])
    elif operation == "duplicate":
        container[draw(st.sampled_from(sorted(container)))] = container[key]
    else:
        container[key] = draw(json_values | st.sampled_from(json_strings(doc)))
    return doc


@settings(max_examples=50, derandomize=True, deadline=None)
@given(doc=mutated_documents(), data=st.data())
def test_fuzzed_documents_exit_cleanly(tmp_path_factory, doc, data):
    """Every command exits 0, 1 or 2 without an escaped exception, and
    exit 2 prints exactly one `error: ` line."""
    path = tmp_path_factory.getbasetemp() / "fuzzed.json"
    path.write_text(json.dumps(doc))
    node = data.draw(st.sampled_from(json_strings(doc) or ["X1"]))
    for command in [*FUZZ_COMMANDS, ("status", f"--node={node}")]:
        result = run(*command, path)
        assert_exits_cleanly(result, command)


def not_an_integer(text):
    try:
        int(text)
    except ValueError:
        return True
    return False


# Option values: absent, small, huge or negative, or not an integer.  Small
# values stop at 6, which keeps every run that does succeed cheap.
option_values = (
    st.none()
    | st.integers(-2, 6)
    | st.integers(min_value=10 ** 6)
    | st.integers(max_value=-(10 ** 6))
    | st.text(max_size=6).filter(not_an_integer)
)


def with_option(name, value):
    return () if value is None else (name, value)


@settings(max_examples=50, derandomize=True, deadline=None)
@given(max_p=option_values, p=option_values, q=option_values, as_json=st.booleans())
def test_fuzzed_kernel_options_exit_cleanly(max_p, p, q, as_json):
    """verify-ejs and extremal exit 0, 1 or 2 without an escaped exception
    on any option value, and exit 2 prints exactly one `error: ` line."""
    extremal = ("extremal", *with_option("--p", p), *with_option("--q", q))
    for command in [("verify-ejs", *with_option("--max-p", max_p)), extremal + ("--json",) * as_json]:
        result = run(*command)
        assert_exits_cleanly(result, command)


# Goldens of the exhaustive kernels; each is the concatenated output of
# its command lines.
KERNEL_GOLDENS = {
    "extremal_p1_6.txt": [
        ("extremal", "--p", p, "--q", q)
        for p in range(1, 7)
        for q in range(p - 1, p * (p - 1) // 2 + 1)
    ],
    "extremal_p7.txt": [("extremal", "--p", 7, "--q", q) for q in range(6, 22)],
    "extremal_p6_q9.json": [("extremal", "--p", 6, "--q", 9, "--json")],
    "verify_ejs_max6.txt": [("verify-ejs", "--max-p", 6)],
    "verify_ejs_max7.txt": [("verify-ejs", "--max-p", 7)],
    "verify_ejs_max8.txt": [("verify-ejs", "--max-p", 8)],
}


@pytest.mark.parametrize("name", sorted(KERNEL_GOLDENS))
def test_exhaustive_kernel_golden(name):
    outputs = []
    for args in KERNEL_GOLDENS[name]:
        result = run(*args)
        assert result.exit_code == 0, args
        outputs.append(result.output)
    assert "".join(outputs) == golden(name)
