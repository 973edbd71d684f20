"""Acceptance gate: the eight end-to-end criteria for this package.

Each test prints exactly one PASS/FAIL line (run with ``pytest -s`` to
see them on passing runs).  Numeric claims are checked exactly, and
computed values are confirmed against the test-local oracles in
helpers.py, which share no code with the package.
"""

import json
import random
from contextlib import contextmanager
from pathlib import Path

from click.testing import CliRunner

from tgstatus.cli import main as cli_main
from tgstatus.finite_graph import (
    enumerate_connected_graphs,
    extremal_search,
    status_bounds_values,
)
from tgstatus.model import parse_document, validate
from tgstatus.ordinal import ZERO, Ordinal, omega_term, parse_ordinal
from tgstatus.replacement import (
    build_replacement,
    iter_simple_paths,
    path_mu_length,
    translate_path,
)
from tgstatus.status import mu_status, status_report

from helpers import (
    chain_document,
    document_text,
    large_documents,
    oracle_connected_count,
    oracle_ordinal_text,
    oracle_replacement,
    oracle_status,
    random_document,
)

ROOT = Path(__file__).resolve().parent.parent
SAMPLES = ROOT / "sample_graphs"
GOLDEN = ROOT / "tests" / "golden"

CORPUS_SEED = 20260823


@contextmanager
def criterion(number, label):
    info = {"detail": ""}
    try:
        yield info
    except BaseException:
        print(f"ACCEPTANCE {number} ({label}): FAIL")
        raise
    detail = f" [{info['detail']}]" if info["detail"] else ""
    print(f"ACCEPTANCE {number} ({label}): PASS{detail}")


def corpus(count, **kwargs):
    rng = random.Random(CORPUS_SEED)
    return [random_document(rng, **kwargs) for _ in range(count)]


def test_acceptance_1_exhaustive_finite_bounds():
    """Every node of every labeled connected graph on p <= 6 nodes has
    status within [p - 1, (p - 1)(p + 2)/2 - q], exactly."""
    with criterion(1, "exhaustive finite status bounds, p <= 6") as info:
        expected_counts = {1: 1, 2: 1, 3: 4, 4: 38, 5: 728, 6: 26704}
        total = 0
        for p in range(1, 7):
            count = 0
            for graph in enumerate_connected_graphs(p):
                count += 1
                lower, upper = status_bounds_values(graph.p, graph.q)
                for node in graph.nodes:
                    s = graph.status(node)
                    assert lower <= s <= upper, (p, graph.edges, node, s)
            assert count == expected_counts[p], (p, count)
            assert count == oracle_connected_count(p), (p, count)
            total += count
        info["detail"] = f"checked {total} graphs, 0 violations"


def test_acceptance_2_achievability_of_both_bounds():
    """For every p in 2..7 and feasible q, witnesses with status exactly
    p - 1 and exactly (p - 1)(p + 2)/2 - q exist and are found."""
    with criterion(2, "achievability of both bounds") as info:
        combos = 0
        for p in range(2, 8):
            for q in range(p - 1, p * (p - 1) // 2 + 1):
                lower_w, upper_w = extremal_search(p, q)
                lower, upper = status_bounds_values(p, q)
                assert lower_w.status == lower and upper_w.status == upper, (p, q)
                for witness, target in ((lower_w, lower), (upper_w, upper)):
                    g = witness.graph
                    assert (g.p, g.q) == (p, q)
                    oracle = oracle_status(g.nodes, g.edges, witness.node)
                    assert oracle == target, (p, q, witness.node, oracle)
                combos += 1
        info["detail"] = f"{combos} (p, q) combinations, all witnesses oracle-confirmed"


def test_acceptance_3_transfinite_scaling_identity():
    """On 1000 random valid documents, a p >= 500 document and a
    250-section chain, each status equals w^mu times the finite status of
    the node's 0-node, per an independent BFS oracle."""
    with criterion(3, "transfinite scaling identity on random corpus") as info:
        checked = 0
        # The two large inputs run a status sum over hundreds of 0-nodes,
        # and the chain's over hundreds of distinct hop counts.
        large = large_documents(seed=6, count=1) + [chain_document(250, rank=2)]
        for doc in corpus(1000) + large:
            graph = parse_document(document_text(doc))
            result = build_replacement(graph)
            nodes, edges = oracle_replacement(doc)
            representative = {s["id"]: s["representative"] for s in doc["sections"]}
            sources = [
                m["id"] for m in doc["mu_nodes"] if len(m["tips"]) >= 2
            ]
            sources += [representative[s["id"]] for s in doc["sections"]]
            zero_node_of = {source: source for source in sources}
            for s in doc["sections"]:
                for internal in s["internal_nodes"]:
                    zero_node_of[internal["id"]] = representative[s["id"]]
                    if internal["id"] not in sources:
                        sources.append(internal["id"])
            for source in sources:
                finite = oracle_status(nodes, edges, zero_node_of[source])
                assert finite is not None, (doc, source)
                expected = oracle_ordinal_text(doc["rank"], finite)
                got = str(mu_status(graph, result, source))
                assert got == expected, (source, got, expected)
                checked += 1
        info["detail"] = f"1002 documents, {checked} node statuses, exact"


def test_acceptance_4_transfinite_bounds():
    """On the same corpus, every status lies within the scaled bounds
    under ordinal comparison, with p and q confirmed by the oracle."""
    with criterion(4, "transfinite status bounds on random corpus") as info:
        checked = 0
        for doc in corpus(1000):
            graph = parse_document(document_text(doc))
            report = status_report(graph)
            nodes, edges = oracle_replacement(doc)
            assert report.p == len(nodes) and report.q == len(edges)
            mu = doc["rank"]
            lower, upper = status_bounds_values(report.p, report.q)
            assert str(report.lower) == oracle_ordinal_text(mu, lower)
            assert str(report.upper) == oracle_ordinal_text(mu, upper)
            for entry in report.entries:
                assert report.lower <= entry.status <= report.upper, (doc, entry)
                checked += 1
        info["detail"] = f"1000 documents, {checked} statuses within bounds"


def test_acceptance_5_length_relation():
    """path_mu_length(P) equals w^mu scaled by the branch count of P's
    0-image, for every simple path of the samples and 100 random
    small instances."""
    with criterion(5, "path length relation") as info:
        paths_checked = 0

        def check(doc_dict, graph):
            nonlocal paths_checked
            result = build_replacement(graph)
            mu_ids = {m["id"] for m in doc_dict["mu_nodes"]}
            for path in iter_simple_paths(graph, include_trivial=True):
                image = translate_path(result, path)
                branches = len(image) - 1
                assert path_mu_length(graph, path) == omega_term(graph.rank, branches)
                last = len(path.elements) - 1
                incidences = 0
                if last > 0:
                    incidences = sum(
                        1 if position in (0, last) else 2
                        for position, element in enumerate(path.elements)
                        if element in mu_ids
                    )
                assert str(path_mu_length(graph, path)) == oracle_ordinal_text(
                    graph.rank, incidences
                )
                paths_checked += 1

        for name in ("g1", "g2", "g3"):
            text = (SAMPLES / f"{name}.json").read_text()
            check(json.loads(text), parse_document(text))
        for doc in corpus(100, small=True):
            check(doc, parse_document(document_text(doc)))
        info["detail"] = f"{paths_checked} simple paths, exact"


def test_acceptance_6_worked_example_goldens():
    """CLI outputs for G1, G2, G3 match the committed goldens byte for
    byte, and every golden value is re-confirmed by the BFS oracle."""
    with criterion(6, "worked-example goldens") as info:
        runner = CliRunner()
        for name, flags in (
            ("g1_status.txt", ["status"]),
            ("g2_status.txt", ["status"]),
            ("g3_status.txt", ["status"]),
            ("g1_status.json", ["status", "--json"]),
            ("g3_status.json", ["status", "--json"]),
            ("g1_replace.dot", ["replace", "--dot"]),
            ("g3_replace.dot", ["replace", "--dot"]),
        ):
            stem = name.split("_status")[0].split("_replace")[0]
            result = runner.invoke(cli_main, flags + [str(SAMPLES / f"{stem}.json")])
            assert result.exit_code == 0, name
            assert result.output == (GOLDEN / name).read_text(), name

        def oracle_report(stem):
            doc = json.loads((SAMPLES / f"{stem}.json").read_text())
            nodes, edges = oracle_replacement(doc)
            statuses = {n: oracle_status(nodes, edges, n) for n in nodes}
            return doc["rank"], len(nodes), len(edges), statuses

        mu, p, q, statuses = oracle_report("g1")
        assert all(s == 4 for s in statuses.values())
        assert status_bounds_values(p, q) == (3, 5)
        golden1 = json.loads((GOLDEN / "g1_status.json").read_text())
        assert [n["status"] for n in golden1["nodes"]] == [
            oracle_ordinal_text(mu, 4)
        ] * 4
        assert (golden1["lower"], golden1["upper"]) == ("w^2*3", "w^2*5")

        mu, p, q, statuses = oracle_report("g3")
        assert statuses == {"X1": 7, "X2": 7, "y1": 10, "y2": 6, "y3": 10}
        assert status_bounds_values(p, q) == (4, 10)
        golden3 = json.loads((GOLDEN / "g3_status.json").read_text())
        by_id = {n["id"]: n["status"] for n in golden3["nodes"]}
        assert by_id["y1"] == "w*10" == golden3["upper"]
        assert by_id["X1"] == "w*7"
        assert golden3["achieved_upper"] == ["y1", "y3"]

        mu, p, q, statuses = oracle_report("g2")
        assert statuses == {"X1": 1, "y1": 1}
        assert status_bounds_values(p, q) == (1, 1)
        g2_text = (GOLDEN / "g2_status.txt").read_text()
        assert "lower: w\nupper: w\n" in g2_text
        assert "X1 mu-node w\n" in g2_text and "y1 section-representative w\n" in g2_text
        info["detail"] = "7 goldens byte-exact, all values oracle-confirmed"


def test_acceptance_7_ordinal_kernel_properties():
    """Round-trip, associativity, left absorption and trichotomy over at
    least ten thousand randomized ordinal cases."""
    with criterion(7, "ordinal kernel properties") as info:
        rng = random.Random(CORPUS_SEED)

        def random_ordinal():
            width = rng.randint(0, 4)
            exponents = rng.sample(range(9), width)
            exponents.sort(reverse=True)
            return Ordinal([(e, rng.randint(1, 10 ** 6)) for e in exponents])

        cases = 0
        for _ in range(10_000):
            a, b, c = random_ordinal(), random_ordinal(), random_ordinal()
            assert parse_ordinal(str(a)) == a
            assert (a + b) + c == a + (b + c)
            if not b.is_zero and (a.is_zero or a.leading_exponent < b.leading_exponent):
                assert a + b == b
            assert (a < b) + (a == b) + (a > b) == 1
            assert a + ZERO == a and ZERO + a == a
            cases += 1
        assert cases >= 10_000
        info["detail"] = f"{cases} randomized cases, exact"


def test_acceptance_8_walk_mode_equivalence():
    """Documents with deliberate nondisconnectable-tip violations pass
    walk-based validation and report statuses identical to the cleaned
    documents under path mode."""
    with criterion(8, "walk mode equivalence") as info:
        rng = random.Random(CORPUS_SEED + 8)
        compared = 0
        while compared < 120:
            doc = random_document(rng)
            rich = [m for m in doc["mu_nodes"] if len(m["tips"]) >= 2]
            if len(rich) < 2:
                continue
            violating = sorted((rich[0]["tips"][0]["id"], rich[1]["tips"][0]["id"]))
            bad = json.loads(json.dumps(doc))
            bad["nondisconnectable_pairs"] = bad["nondisconnectable_pairs"] + [violating]
            clean = json.loads(json.dumps(doc))

            bad_graph = parse_document(document_text(bad))
            path_report = validate(bad_graph)
            assert not path_report.passed
            assert "nondisconnectable-tips" in [
                v.condition for v in path_report.violations
            ]
            assert validate(bad_graph, walk_based=True).passed

            walked = status_report(bad_graph, walk_based=True)
            pathed = status_report(parse_document(document_text(clean)))
            assert walked.entries == pathed.entries
            assert (walked.p, walked.q) == (pathed.p, pathed.q)
            assert (walked.lower, walked.upper) == (pathed.lower, pathed.upper)
            assert walked.achieved_lower == pathed.achieved_lower
            assert walked.achieved_upper == pathed.achieved_upper
            compared += 1
        info["detail"] = f"{compared} violating/clean document pairs identical"
