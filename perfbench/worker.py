"""One workload process: set up, run ops in a closed loop, check outputs.

Usage (started by run.py; the inputs directory holds ``inputs.json``
and the generated documents):

    python3 perfbench/worker.py INPUT_DIR --seconds S --mode setup|run|trace

Every mode times the import of tgstatus and tgstatus.cli plus one
untimed warm-up op as ``setup_s``.  ``run`` then repeats the workload's
op cycle until ``--seconds`` have passed, finishing the cycle it is in,
and records the peak RSS.  ``trace`` spends half the time untraced and
half with the tracer installed.  Host probe times (probe.py) are taken
around set-up and between ops.  Outputs are checked against the oracle
after timing ends.  The last stdout line is one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

import layers  # noqa: E402  (benchmark modules, not tgstatus)
import oracle  # noqa: E402
from probe import HostProbe, scaled  # noqa: E402
from tracer import Tracer  # noqa: E402

SETUP_PROBES = 5  # host probe samples before set-up, and as many after it


class Workload:
    """The op cycle of one workload, built from the generated inputs."""

    def __init__(self, inputs_dir: Path):
        spec = json.loads((inputs_dir / "inputs.json").read_text())
        self.name = spec["workload"]
        self.cycle = spec["cycle"]
        self.warmup = spec["warmup"]
        self.dir = inputs_dir
        self.texts = {
            entry["doc"]: (inputs_dir / entry["doc"]).read_text()
            for entry in self.cycle
            if "doc" in entry
        }
        self.tracer: Tracer | None = None
        self.probe = HostProbe()

    def run_op(self, entry: dict):
        """Run one op and return its output."""
        if self.name == "session_queries":
            return self._session(self.texts[entry["doc"]], entry["queries"])
        args = entry["args"] if "args" in entry else ["status", str(self.dir / entry["doc"]), "--json"]
        return self._command(args)

    def _command(self, args: list[str]) -> str:
        import tgstatus.cli

        buffer = io.StringIO()
        if self.tracer is not None:
            self.tracer.begin(layers.CLI_SPAN)
        try:
            with contextlib.redirect_stdout(buffer):
                tgstatus.cli.main.main(args=args, standalone_mode=False)
        finally:
            if self.tracer is not None:
                self.tracer.end()
        return buffer.getvalue()

    @staticmethod
    def _session(text: str, queries: dict) -> list[str]:
        import tgstatus

        graph = tgstatus.parse_document(text)
        if not tgstatus.validate(graph).passed:
            raise RuntimeError("session document failed validation")
        result = tgstatus.build_replacement(graph)
        answers = [str(tgstatus.mu_distance(graph, result, a, b)) for a, b in queries["distance"]]
        answers += [
            " ".join(tgstatus.geodesic(graph, result, a, b).elements) for a, b in queries["geodesic"]
        ]
        answers += [str(tgstatus.mu_status(graph, result, x)) for x in queries["status"]]
        return answers

    def attempt(self, entry: dict):
        """Run one op; an op that raises is reported and gives None."""
        try:
            return self.run_op(entry)
        except (Exception, SystemExit) as exc:  # a failed op is counted, not fatal
            print(f"op {entry} failed: {exc!r}", file=sys.stderr)
            return None

    def loop(self, seconds: float) -> tuple[list[float], list[tuple[int, object]], list[float]]:
        """Whole cycles in a closed loop until ``seconds`` have passed.

        Returns op wall times, (cycle index, output) pairs and host probe
        times: one before the first op and one after each op.  An op
        that raises gets the output None.
        """
        times: list[float] = []
        outputs: list[tuple[int, object]] = []
        probes = [self.probe.sample()]
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline:
            for index, entry in enumerate(self.cycle):
                if self.tracer is not None:
                    self.tracer.op = len(times)
                start = time.perf_counter()
                output = self.attempt(entry)
                times.append(time.perf_counter() - start)
                outputs.append((index, output))
                probes.append(self.probe.sample())
        return times, outputs, probes

    def work_units(self, entry: dict) -> int:
        """Work one op completes: status entries, queries or graphs verified."""
        if self.name == "report_large":
            doc = json.loads(self.texts[entry["doc"]])
            return sum(len(m["tips"]) >= 2 for m in doc["mu_nodes"]) + len(doc["sections"])
        if self.name == "session_queries":
            return sum(len(v) for v in entry["queries"].values())
        return sum(oracle.CONNECTED_COUNTS[: int(entry["args"][2])]) if entry["args"][0] == "verify-ejs" else 0

    def failures(self, outputs: list[tuple[int, object]]) -> int:
        """Ops whose output is missing or differs from the oracle."""
        verdicts: dict[tuple[int, str], bool] = {}
        failed = 0
        for index, output in outputs:
            if output is None:
                failed += 1
                continue
            key = (index, json.dumps(output))
            if key not in verdicts:
                verdicts[key] = self._correct(self.cycle[index], output)
                if not verdicts[key]:
                    print(f"wrong output for {self.cycle[index]}", file=sys.stderr)
            failed += not verdicts[key]
        return failed

    def _correct(self, entry: dict, output) -> bool:
        if self.name == "report_large":
            return json.loads(output) == oracle.status_report(json.loads(self.texts[entry["doc"]]))
        if self.name == "session_queries":
            return output == oracle.session_answers(json.loads(self.texts[entry["doc"]]), entry["queries"])
        args = entry["args"]
        if args[0] == "verify-ejs":
            return output == oracle.verify_ejs_text(int(args[2]))
        problems = oracle.check_extremal_text(int(args[2]), int(args[4]), output)
        for problem in problems:
            print(problem, file=sys.stderr)
        return not problems


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("inputs", type=Path)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    args = parser.parse_args()

    workload = Workload(args.inputs)
    sys.path.insert(0, str(SRC))
    setup_probes = [workload.probe.sample() for _ in range(SETUP_PROBES)]
    start = time.perf_counter()
    import tgstatus
    import tgstatus.cli  # noqa: F401

    if Path(tgstatus.__file__).resolve().parent != SRC / "tgstatus":
        sys.exit(f"imported tgstatus from {tgstatus.__file__}, not from {SRC}")
    workload.attempt(workload.cycle[workload.warmup])
    result: dict = {"setup_s": time.perf_counter() - start}
    setup_probes += [workload.probe.sample() for _ in range(SETUP_PROBES)]
    result["setup_probes"] = setup_probes
    if args.mode == "setup":
        print(json.dumps(result))
        return

    seconds = args.seconds if args.mode == "run" else args.seconds / 2
    times, outputs, probes = workload.loop(seconds)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result["probes"] = probes
    if args.mode == "trace":
        tracer = Tracer()
        layers.instrument(tracer)
        workload.tracer = tracer
        traced_times, traced_outputs, traced_probes = workload.loop(seconds)
        tracer.uninstall()
        metrics = layers.layer_metrics(tracer, len(traced_times))
        metrics["trace.op_p50_s"] = statistics.median(scaled(traced_times, traced_probes))
        metrics["trace.overhead_ratio"] = metrics["trace.op_p50_s"] / statistics.median(scaled(times, probes))
        result["layers"] = metrics
        result["spans"] = len(tracer.spans)
        times += traced_times
        outputs += traced_outputs

    units = [workload.work_units(entry) for entry in workload.cycle]
    result["op_times"] = times
    result["work"] = sum(units[i] for i, _ in outputs)
    result["failed"] = workload.failures(outputs)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
