"""The tgstatus benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; tgstatus is imported from its
``src`` directory.  The seed makes the inputs (see gen.py).  Each
workload op runs in a fresh worker process (worker.py) in a closed loop;
``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer metrics of a traced run.  Human-readable lines come first;
the last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import gen
import layers
from probe import REFERENCE_S, scaled

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("report_large", "session_queries", "ejs_exhaustive")
# Fresh processes that time set-up; the measuring worker adds one more sample.
SETUP_ONLY_PROCESSES = 4
# The tail is reported at a percentile fixed per workload, the highest
# common one with at least TAIL_BEYOND ops beyond it in a 30 s run, so
# that runs of one workload always compare the same share of its op mix.
TAIL_PERCENTILE = {"report_large": 75, "session_queries": 75, "ejs_exhaustive": 90}
TAIL_BEYOND = 10
TIME_LIMIT_S = 170


def tail(times: list[float], percentile: int) -> float:
    """The nearest-rank percentile of the op times."""
    return sorted(times)[math.ceil(percentile * len(times) / 100) - 1]


def run_worker(inputs: Path, seconds: float, mode: str, deadline: float) -> dict:
    """Run worker.py to completion and return its JSON result."""
    command = [sys.executable, str(HERE / "worker.py"), str(inputs), "--seconds", str(seconds), "--mode", mode]
    done = subprocess.run(
        command, stdout=subprocess.PIPE, text=True, timeout=max(1.0, deadline - time.monotonic()), check=False
    )
    if done.returncode != 0:
        raise RuntimeError(f"worker ({mode}) exited with code {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def end_to_end(workload: str, setups: list[dict], result: dict) -> dict[str, tuple[float, str]]:
    """The end-to-end metrics, with times scaled to the reference host speed."""
    raw_times = result["op_times"]
    times = scaled(raw_times, result["probes"])
    percentile = TAIL_PERCENTILE[workload]
    beyond = len(times) - math.ceil(percentile * len(times) / 100)
    if beyond < TAIL_BEYOND:
        print(f"{workload}: warning: only {beyond} ops beyond p{percentile}; run longer", file=sys.stderr)
    metrics = {
        "setup_s": (
            statistics.median(s["setup_s"] * REFERENCE_S / statistics.median(s["setup_probes"]) for s in setups),
            "s",
        ),
        "op_p50_s": (statistics.median(times), "s"),
        "op_tail_s": (tail(times, percentile), "s"),
        "work_per_s": (result["work"] / sum(times), "1/s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
    }
    raw = {
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "op_p50_s": statistics.median(raw_times),
        "op_tail_s": tail(raw_times, percentile),
        "work_per_s": result["work"] / sum(raw_times),
    }
    work = {"report_large": "status entries", "session_queries": "queries", "ejs_exhaustive": "graphs verified"}
    print(f"{workload}: {len(times)} ops; op_tail_s is p{percentile} of {len(times)} ops "
          f"({beyond} beyond it); "
          f"setup_s is the median of {len(setups)} fresh processes; work is {work[workload]}")
    print(f"{workload}: host probe median {statistics.median(result['probes']):.6f} s "
          f"(reference {REFERENCE_S} s); unscaled: "
          + ", ".join(f"{name} = {value:.6g}" for name, value in raw.items()))
    print(f"{workload}: failed_ratio = {result['failed']}/{len(times)} = {result['failed'] / len(times)}")
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + TIME_LIMIT_S

    src = ROOT / "src"
    if not (src / "tgstatus" / "__init__.py").is_file():
        print(f"error: no tgstatus sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    inputs = Path(tempfile.mkdtemp(prefix=".perfbench-work-", dir=ROOT))
    try:
        spec, docs = gen.workload_inputs(args.workload, args.seed)
        for name, text in docs.items():
            (inputs / name).write_text(text)
        (inputs / "inputs.json").write_text(json.dumps(spec))
        if args.trace:
            result = run_worker(inputs, args.seconds, "trace", deadline)
        else:
            setups = [run_worker(inputs, 0, "setup", deadline) for _ in range(SETUP_ONLY_PROCESSES)]
            result = run_worker(inputs, args.seconds, "run", deadline)
            setups.append(result)
    finally:
        shutil.rmtree(inputs, ignore_errors=True)

    if args.trace:
        metrics = {name: (result["layers"][name], unit) for name, unit in layers.METRICS}
        print(f"{args.workload}: traced {result['spans']} spans; tracing overhead "
              f"(traced / untraced op_p50_s) = {result['layers']['trace.overhead_ratio']:.3f}")
    else:
        metrics = end_to_end(args.workload, setups, result)
    for name, (value, unit) in metrics.items():
        print(f"{args.workload}: {name} = {value:.6g} {unit}")
    attempted = len(result["op_times"])
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": attempted,
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
