#!/usr/bin/env python3
"""Build and run the repo benchmark (see benchmark/README.md).

  python3 benchmark/run.py [--workload NAME] [--seed N|default|holdout]
                           [--trace 0|1|DIR] [--quick]
                           [--repeat R] [--out FILE] [--build-dir DIR]

Run from the repository root. Builds benchmark/ as its own CMake project
(the library comes in through add_subdirectory) into build-bench/, then
runs each selected workload in its own process: correctness gates first,
then BENCHMARK.json's run_seconds of measurement (QUICK_SECONDS with
--quick). The run length is not an option: `--seconds S` is accepted only
so that a harness may pass it, and must equal run_seconds. Every number
is printed as `workload metric value unit`; the results of all runs go to
one JSON file; the last line of standard output is one JSON object:

  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

holding the BENCHMARK.json end_to_end metrics, or with --trace 1 (or a
trace directory) its per_layer metrics.

Exit status: 0 success, 1 a gate failed or a metric is missing, 2 usage
or build error.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ["serve_steady", "serve_churn_n64", "sim_fixed", "campaign_random"]
DEFAULT_SEED = 20120625  # the paper's publication date, as ScenarioConfig
HOLDOUT_SEED = 424242    # never used while the benchmark was tuned
QUICK_SECONDS = 5.0      # 2 s closed + 3 s open load phases; every gate still runs
RUN_LIMIT_S = 170.0      # one workload run, after the build


def fail(message: str, code: int) -> None:
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(code)


def load_spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except (OSError, ValueError) as exc:
        fail(f"cannot read {path}: {exc}", 2)


def parse_seed(text: str) -> int:
    if text == "default":
        return DEFAULT_SEED
    if text == "holdout":
        return HOLDOUT_SEED
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad seed {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError("seed must be >= 0")
    return value


def build(build_dir: Path) -> Path:
    """Configure (once) and build the benchmark binary; build output goes
    to stderr so standard output stays the benchmark's own."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"{ROOT} does not hold the repository sources (CMakeLists.txt, src/)", 2)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "--target", "fttt_benchmark",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd), 2)
    return build_dir / "fttt_benchmark"


def run_binary(binary: Path, workload: str, seed: int, seconds: float,
               trace_dir: Path | None, deadline: float) -> dict:
    """One workload process; a crash, a failed gate or a run past
    `deadline` (time.monotonic()) counts as an incorrect run."""
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds)]
    if trace_dir is not None:
        trace_dir.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-dir", str(trace_dir)]
    failed = {"workload": workload, "correct": False, "attempted": 1, "failed": 1,
              "metrics": {}, "layers": {}, "info": {}}
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        print(f"run.py: {workload}: killed at the time limit", file=sys.stderr)
        return failed
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return failed
    return json.loads(lines[-1])


def print_lines(workload: str, section: dict) -> None:
    for name, m in section.items():
        print(f"{workload} {name} {m['value']:.6g} {m['unit']}")


def main(argv: list[str]) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(prog="run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, action="append",
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=parse_seed, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="accepted for harnesses that pass the run length; "
                             "must equal BENCHMARK.json run_seconds")
    parser.add_argument("--trace", default="0",
                        help="0 untraced, 1 traced into BUILD_DIR/trace, or a trace directory")
    parser.add_argument("--quick", action="store_true",
                        help=f"{QUICK_SECONDS:g} s runs (smoke test)")
    parser.add_argument("--repeat", type=int, default=1, help="runs per workload")
    parser.add_argument("--out", type=Path, default=None,
                        help="results JSON (default: BUILD_DIR/results.json)")
    parser.add_argument("--build-dir", type=Path, default=ROOT / "build-bench")
    args = parser.parse_args(argv[1:])

    seconds = QUICK_SECONDS if args.quick else spec["run_seconds"]
    if args.seconds is not None and args.seconds != seconds:
        parser.error(f"--seconds must equal the run length, {seconds:g}")
    if args.repeat < 1:
        parser.error("--repeat must be positive")
    trace_dir = None
    if args.trace == "1":
        trace_dir = args.build_dir / "trace"
    elif args.trace != "0":
        trace_dir = Path(args.trace)
    workloads = args.workload or WORKLOADS

    binary = build(args.build_dir.resolve())
    results = {"seed": args.seed, "seconds": seconds, "traced": trace_dir is not None,
               "cpus": os.cpu_count(), "workloads": {}}
    correct = True
    attempted = failed = 0
    final: dict = {}
    section = "layers" if trace_dir is not None else "metrics"
    wanted = [m["name"] for m in spec["per_layer" if trace_dir else "end_to_end"]]
    for workload in workloads:
        runs = []
        for _ in range(args.repeat):
            run = run_binary(binary, workload, args.seed, seconds,
                             trace_dir / workload if trace_dir else None,
                             time.monotonic() + RUN_LIMIT_S)
            runs.append(run)
            correct &= run["correct"]
            attempted += run["attempted"]
            failed += run["failed"]
            print_lines(workload, run["metrics"])
            print_lines(workload, run["layers"])
            print_lines(workload, run["info"])
        results["workloads"][workload] = {"runs": runs}
        last = runs[-1][section]
        for name in wanted:
            if name not in last:
                print(f"run.py: {workload}: metric {name} missing", file=sys.stderr)
                correct = False
                continue
            key = name if len(workloads) == 1 else f"{workload}/{name}"
            final[key] = {"value": last[name]["value"], "unit": last[name]["unit"]}

    out = args.out or args.build_dir / "results.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w", encoding="utf-8") as f:
        json.dump(results, f, indent=1)
    print(f"run.py: results in {out}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1), "failed": failed,
                      "metrics": final if correct else {}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
