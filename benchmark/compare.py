#!/usr/bin/env python3
"""Compare two benchmark results files against the BENCHMARK.json bounds.

  python3 benchmark/compare.py A.json B.json [--spec BENCHMARK.json]
  python3 benchmark/compare.py --self-test

A is the base (the parent commit), B the candidate. Both are results
files written by run.py; each may hold several runs per workload
(run.py --repeat). For every workload of A, and every end-to-end metric
of BENCHMARK.json, the medians of A's and B's runs are compared:

  worse       B is worse than A by more than the metric's bound and by
              more than its spread
  unresolved  not worse, but the spread exceeds the bound: a change of
              the bound's size cannot be told from run-to-run noise
  ok          anything else

The spread is the larger of A's and B's run-to-run relative
interquartile ranges (0 with a single run a side). failed_share is
failed / attempted per workload; it "rose" when B's share exceeds A's by
more than FAILED_SHARE_SLACK.

Each workload is one row. Exit status: 0 no regression, 1 a metric is
worse, failed_share rose, or a metric or workload of A is missing from
B, 2 usage error or unreadable input.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FAILED_SHARE_SLACK = 0.001  # absolute: 0.1% of attempted operations


def load(path: Path) -> dict:
    with open(path, encoding="utf-8") as f:
        doc = json.load(f)
    if not isinstance(doc, dict) or not isinstance(doc.get("workloads"), dict):
        raise ValueError(f"{path}: not a run.py results file")
    return doc


def relative_iqr(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    med = statistics.median(values)
    if med == 0:
        return 0.0
    q = statistics.quantiles(values, n=4)
    return abs(q[2] - q[0]) / abs(med)


def values_of(runs: list[dict], name: str) -> list[float]:
    return [float(run["metrics"][name]["value"]) for run in runs
            if name in run.get("metrics", {})]


def failed_share(runs: list[dict]) -> float:
    attempted = sum(r.get("attempted", 0) for r in runs)
    return sum(r.get("failed", 0) for r in runs) / attempted if attempted else 0.0


def judge(a_vals: list[float], b_vals: list[float], better: str, bound: float):
    """Return (status, relative change of B vs A, signed so > 0 is worse)."""
    a_med, b_med = statistics.median(a_vals), statistics.median(b_vals)
    if a_med == 0:
        return "ok", 0.0
    change = (b_med - a_med) / abs(a_med)
    worse_by = change if better == "lower" else -change
    spread = max(relative_iqr(a_vals), relative_iqr(b_vals))
    if worse_by > max(bound, spread):
        return "worse", worse_by
    return ("unresolved" if spread > bound else "ok"), worse_by


def compare(a: dict, b: dict, spec: dict, out=sys.stdout) -> int:
    metrics = spec["end_to_end"]
    names = [m["name"] for m in metrics]
    header = ["workload", "verdict"] + names + ["failed_share"]
    rows = []
    status = 0
    for workload in sorted(set(a["workloads"]) | set(b["workloads"])):
        if workload not in b["workloads"]:
            rows.append([workload, "worse: missing from B"] + [""] * (len(names) + 1))
            status = 1
            continue
        if workload not in a["workloads"]:
            rows.append([workload, "new in B"] + [""] * (len(names) + 1))
            continue
        a_runs = a["workloads"][workload]["runs"]
        b_runs = b["workloads"][workload]["runs"]
        cells, verdict = [], "ok"
        for m in metrics:
            a_vals = values_of(a_runs, m["name"])
            b_vals = values_of(b_runs, m["name"])
            if not b_vals:
                cells.append("missing")
                verdict = "worse"
                continue
            if not a_vals:
                cells.append("new")
                continue
            state, worse_by = judge(a_vals, b_vals, m["better"], float(m["bound"]))
            mark = {"ok": "", "worse": "!", "unresolved": "?"}[state]
            cells.append(f"{100 * worse_by:+.1f}%{mark}")
            if state == "worse":
                verdict = "worse"
            elif state == "unresolved" and verdict == "ok":
                verdict = "unresolved"
        fa, fb = failed_share(a_runs), failed_share(b_runs)
        rose = fb - fa > FAILED_SHARE_SLACK
        cells.append(f"{fa:.4f}->{fb:.4f}" + ("!" if rose else ""))
        if rose:
            verdict = "worse"
        if verdict == "worse":
            status = 1
        rows.append([workload, verdict] + cells)

    widths = [max(len(str(r[i])) for r in rows + [header]) for i in range(len(header))]
    for r in [header] + rows:
        print("  ".join(str(c).ljust(w) for c, w in zip(r, widths)).rstrip(), file=out)
    print("cells: change of B vs A, > 0 is worse; ! worse than the bound and the spread, "
          "? spread wider than the bound (unresolved)", file=out)
    return status


def self_test() -> int:
    spec = {"end_to_end": [
        {"name": "throughput_per_s", "unit": "1/s", "better": "higher", "bound": 0.05},
        {"name": "latency_p50_ms", "unit": "ms", "better": "lower", "bound": 0.10},
    ]}

    def results(thr: list[float], lat: list[float], failed=0) -> dict:
        runs = [{"attempted": 1000, "failed": failed, "metrics": {
            "throughput_per_s": {"value": t, "unit": "1/s"},
            "latency_p50_ms": {"value": l, "unit": "ms"}}}
            for t, l in zip(thr, lat)]
        return {"workloads": {"w": {"runs": runs}}}

    base = results([100, 101, 99, 100], [1.0, 1.01, 0.99, 1.0])
    cases = [
        ("identical", base, 0),
        ("throughput 20% lower", results([80, 81, 79, 80], [1.0, 1.0, 1.0, 1.0]), 1),
        ("latency 30% higher", results([100, 100, 100, 100], [1.3, 1.3, 1.31, 1.29]), 1),
        ("both better", results([120, 121, 119, 120], [0.7, 0.7, 0.7, 0.7]), 0),
        ("within bound", results([97, 98, 97, 98], [1.05, 1.05, 1.06, 1.04]), 0),
        ("wide spread is unresolved, not worse",
         results([70, 130, 60, 140], [1.0, 1.0, 1.0, 1.0]), 0),
        ("large regression despite a wide spread",
         results([40, 50, 45, 55], [1.0, 1.0, 1.0, 1.0]), 1),
        ("one candidate run, 20% lower", results([80], [1.0]), 1),
        ("failed share rose", results([100, 100, 100, 100], [1.0] * 4, failed=5), 1),
        ("metric missing", {"workloads": {"w": {"runs": [
            {"attempted": 1, "failed": 0, "metrics": {
                "throughput_per_s": {"value": 100, "unit": "1/s"}}}]}}}, 1),
        ("workload missing", {"workloads": {"other": base["workloads"]["w"]}}, 1),
    ]
    failures = 0
    for label, cand, want in cases:
        with tempfile.TemporaryFile("w+") as sink:
            got = compare(base, cand, spec, out=sink)
            sink.seek(0)
            table = sink.read()
        ok = got == want
        failures += not ok
        print(f"self-test: {'ok' if ok else 'FAIL'}: {label} (exit {got}, want {want})")
        if label.startswith("wide") and "?" not in table:
            print("self-test: FAIL: wide spread not labelled unresolved")
            failures += 1
    if failures:
        print(f"self-test: {failures} failure(s)", file=sys.stderr)
        return 1
    print("self-test: all cases passed")
    return 0


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="compare.py", description=__doc__.split("\n")[0])
    parser.add_argument("base", nargs="?", type=Path)
    parser.add_argument("candidate", nargs="?", type=Path)
    parser.add_argument("--spec", type=Path, default=ROOT / "BENCHMARK.json")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv[1:])
    if args.self_test:
        return self_test()
    if args.base is None or args.candidate is None:
        parser.print_usage(sys.stderr)
        return 2
    try:
        a, b = load(args.base), load(args.candidate)
        with open(args.spec, encoding="utf-8") as f:
            spec = json.load(f)
    except (OSError, ValueError) as exc:
        print(f"compare.py: {exc}", file=sys.stderr)
        return 2
    return compare(a, b, spec)


if __name__ == "__main__":
    sys.exit(main(sys.argv))
