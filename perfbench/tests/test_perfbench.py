"""Tests of the benchmark's own parts: generator, oracle and tracer."""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import gen  # noqa: E402
import layers  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
from tracer import NO_PARENT, Spans, Tracer  # noqa: E402

import tgstatus  # noqa: E402
import tgstatus.cli  # noqa: E402

SAMPLES = sorted((ROOT / "sample_graphs").glob("*.json"))


def _cli(*args: str) -> str:
    from click.testing import CliRunner

    result = CliRunner().invoke(tgstatus.cli.main, list(args))
    assert result.exit_code == 0, result.output
    return result.output


def _valid_samples() -> list[Path]:
    valid = []
    for path in SAMPLES:
        doc = tgstatus.load_document(path.read_text())
        if isinstance(doc, tgstatus.TransfiniteGraph) and tgstatus.validate(doc).passed:
            valid.append(path)
    return valid


# --- generator -----------------------------------------------------------


@pytest.mark.parametrize("workload", ["report_large", "session_queries", "ejs_exhaustive"])
def test_same_seed_gives_identical_inputs(workload):
    first = gen.workload_inputs(workload, 11)
    assert first == gen.workload_inputs(workload, 11)
    assert json.dumps(first[0]) == json.dumps(gen.workload_inputs(workload, 11)[0])


def test_other_seed_gives_other_documents():
    assert gen.workload_inputs("report_large", 1)[1] != gen.workload_inputs("report_large", 2)[1]


def test_generated_documents_validate_and_have_requested_shape():
    for tips in (2, 4):
        doc = gen.document(random.Random(tips), 40, tips)
        graph = tgstatus.parse_document(gen.document_text(doc))
        assert tgstatus.validate(graph).passed
        assert len(graph.sections) == len(graph.nonsingleton_mu_nodes) == 40
        assert all(2 <= len(m.tips) <= tips for m in graph.nonsingleton_mu_nodes)


# --- oracle --------------------------------------------------------------


def test_samples_include_valid_documents():
    assert len(_valid_samples()) >= 3


@pytest.mark.parametrize("path", _valid_samples(), ids=lambda p: p.stem)
def test_oracle_report_matches_package_on_samples(path):
    expected = oracle.status_report(json.loads(path.read_text()))
    assert json.loads(_cli("status", str(path), "--json")) == expected


@pytest.mark.parametrize("path", _valid_samples(), ids=lambda p: p.stem)
def test_oracle_session_answers_match_package_on_samples(path):
    doc = json.loads(path.read_text())
    queries = gen.session_queries(random.Random(path.stem), doc)
    assert worker.Workload._session(path.read_text(), queries) == oracle.session_answers(doc, queries)


def test_oracle_report_matches_package_on_generated_document():
    doc = gen.document(random.Random(5), 30, 3)
    report = tgstatus.status_report(tgstatus.parse_document(gen.document_text(doc)))
    assert report.to_json_obj() == oracle.status_report(doc)


def test_oracle_detects_a_wrong_status():
    path = _valid_samples()[0]
    expected = oracle.status_report(json.loads(path.read_text()))
    wrong = json.loads(_cli("status", str(path), "--json"))
    wrong["nodes"][0]["status"] += " + 1"
    assert wrong != expected


def test_connected_counts_recomputed_by_brute_force():
    assert oracle.connected_counts(6) == list(oracle.CONNECTED_COUNTS)


def test_verify_ejs_text_matches_package():
    assert _cli("verify-ejs", "--max-p", "5") == oracle.verify_ejs_text(5)


def test_extremal_witnesses_accepted_and_corruption_rejected():
    for q in range(4, 11):
        text = _cli("extremal", "--p", "5", "--q", str(q))
        assert oracle.check_extremal_text(5, q, text) == []
    text = _cli("extremal", "--p", "5", "--q", "6")
    assert oracle.check_extremal_text(5, 7, text)
    dropped = text.replace(" v1-v2", "", 1)
    assert oracle.check_extremal_text(5, 6, dropped)


# --- tracer --------------------------------------------------------------


def test_self_time_on_hand_built_tree():
    spans = Spans()
    # root [0, 10] with children a [1, 4] and b [5, 9]; b has child c [6, 8].
    c = spans.add("c", 6.0, 8.0, NO_PARENT, 0)
    b = spans.add("b", 5.0, 9.0, NO_PARENT, 0)
    a = spans.add("a", 1.0, 4.0, NO_PARENT, 0)
    root = spans.add("root", 0.0, 10.0, NO_PARENT, 0)
    spans.parent[c] = b
    spans.parent[a] = spans.parent[b] = root
    inclusive, self_time, calls = spans.totals()
    assert inclusive == {"c": 2.0, "b": 4.0, "a": 3.0, "root": 10.0}
    assert self_time == {"c": 2.0, "b": 2.0, "a": 3.0, "root": 3.0}
    assert calls == {"c": 1, "b": 1, "a": 1, "root": 1}


def test_self_time_sums_repeated_names():
    spans = Spans()
    first = spans.add("leaf", 1.0, 2.0, NO_PARENT, 0)
    second = spans.add("leaf", 3.0, 3.5, NO_PARENT, 0)
    outer = spans.add("outer", 0.0, 4.0, NO_PARENT, 0)
    spans.parent[first] = spans.parent[second] = outer
    inclusive, self_time, calls = spans.totals()
    assert inclusive["leaf"] == self_time["leaf"] == 1.5
    assert self_time["outer"] == 2.5
    assert calls["leaf"] == 2


def test_tracer_records_nesting_and_op_ids():
    tracer = Tracer()
    tracer.op = 3
    tracer.begin("outer")
    tracer.begin("inner")
    tracer.end()
    tracer.end()
    spans = tracer.spans
    assert [spans.names[i] for i in spans.name] == ["inner", "outer"]
    assert list(spans.parent) == [1, NO_PARENT]
    assert list(spans.op) == [3, 3]
    assert spans.start[1] <= spans.start[0] <= spans.end[0] <= spans.end[1]


def test_instrument_counts_calls_across_layers_and_uninstalls():
    original = tgstatus.validate
    tracer = Tracer()
    layers.instrument(tracer)
    try:
        assert tgstatus.validate is not original
        graph = tgstatus.parse_document((ROOT / "sample_graphs" / "g1.json").read_text())
        tgstatus.status_report(graph)
    finally:
        tracer.uninstall()
    assert tgstatus.validate is original
    metrics = layers.layer_metrics(tracer, 1)
    # status_report validates, and build_replacement validates again.
    assert metrics["model.validate_calls"] == 2
    assert metrics["status.sources"] == metrics["replacement.p"] == 4
    assert metrics["ordinal.add_calls"] == 16
    assert {name for name, _ in layers.METRICS} >= set(metrics)


def test_benchmark_json_lists_the_reported_metrics():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == list(layers.METRICS)
    assert {m["name"] for m in bench["end_to_end"]} == {
        "setup_s", "op_p50_s", "op_tail_s", "work_per_s", "peak_rss_mb"
    }
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)


def test_run_without_sources_exits_nonzero_without_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "report_large", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
