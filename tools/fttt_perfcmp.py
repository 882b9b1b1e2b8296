#!/usr/bin/env python3
"""Compare BENCH_*.json perf trajectories and fail on any regression.

usage: fttt_perfcmp.py BASELINE CURRENT [BASELINE CURRENT ...]
                       [--tolerance 25%] [--absolute]

Positional arguments form baseline/current pairs, so one invocation can
gate several bench families and thread counts at once (CI gates all of
its runs in one call); an odd file count is a usage error (exit 2).

Results are keyed by (name, batch, threads): every row must carry the
worker count of the pool it ran on (a row without one is a parse error,
exit 2), and a row is compared only against a baseline taken at the
same count. CI runs each bench at several counts and gates every run
against the same baseline file; a baseline row at another count shows
as [missing] and a current row at a count with no baseline as [new].

The default comparison uses the machine-portable ratio metrics
`speedup_vs_scalar` and `speedup_vs_batch` (higher is better), each
computed within one run: the gate fails when current < baseline *
(1 - tolerance). Rows without a speedup in the baseline (e.g. the
scalar reference itself) are skipped.

Memory budgets gate through `bytes_per_face` and `bytes_per_trial`
(lower is better; current must stay <= baseline * (1 + tolerance)).
Bytes per face/trial depend only on the scenario, never the machine, so
these gates are always on — they keep the hierarchical tier's footprint
(BENCH_largeN.json) and the campaign workers' steady-state allocations
(BENCH_campaign.json) from silently growing.

--absolute additionally compares `ns_per_localization` (lower is better;
current must stay <= baseline * (1 + tolerance)). Absolute nanoseconds
only mean something when baseline and current ran on comparable hardware,
so CI sticks to the ratio gate; use --absolute for local A/B runs.

Rows present in only one file are reported but never fatal: new bench
rows may land before the committed baseline is refreshed (the refresh
procedure is in docs/perf.md).

Exit status: 0 no regression, 1 regression, 2 usage/parse error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path


def parse_tolerance(text: str) -> float:
    """'25%' or '0.25' -> 0.25."""
    text = text.strip()
    try:
        value = float(text[:-1]) / 100.0 if text.endswith("%") else float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad tolerance: {text!r}")
    if not 0.0 <= value < 1.0:
        raise argparse.ArgumentTypeError(f"tolerance out of [0, 1): {text!r}")
    return value


Key = tuple[str, int, int]


def key_name(key: Key) -> str:
    return f"{key[0]} batch={key[1]} threads={key[2]}"


def load_results(path: Path) -> dict[Key, dict]:
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as err:
        print(f"fttt_perfcmp: cannot read {path}: {err}", file=sys.stderr)
        sys.exit(2)
    rows = doc.get("results") if isinstance(doc, dict) else None
    if not isinstance(rows, list):
        print(f"fttt_perfcmp: {path}: no 'results' array", file=sys.stderr)
        sys.exit(2)
    table: dict[Key, dict] = {}
    for i, row in enumerate(rows):
        try:
            table[(row["name"], int(row.get("batch", 1)), int(row["threads"]))] = row
        except (TypeError, KeyError, ValueError) as err:
            print(f"fttt_perfcmp: {path}: malformed results row {i}: {err!r}",
                  file=sys.stderr)
            sys.exit(2)
    return table


def compare_pair(baseline_path: Path, current_path: Path, tolerance: float,
                 absolute: bool) -> tuple[int, int]:
    """Gate one baseline/current pair; returns (compared, regressions)."""
    baseline = load_results(baseline_path)
    current = load_results(current_path)

    regressions = 0
    compared = 0
    for key, base in sorted(baseline.items()):
        name = key_name(key)
        cur = current.get(key)
        if cur is None:
            print(f"  [missing] {name}: in baseline only (not fatal)")
            continue

        for metric in ("speedup_vs_scalar", "speedup_vs_batch"):
            base_speedup = base.get(metric)
            if base_speedup is None:
                continue
            compared += 1
            cur_speedup = cur.get(metric)
            floor = base_speedup * (1.0 - tolerance)
            if cur_speedup is None or cur_speedup < floor:
                print(f"  [REGRESSION] {name}: {metric} {cur_speedup} "
                      f"< floor {floor:.3f} (baseline {base_speedup})")
                regressions += 1
            else:
                print(f"  [ok] {name}: {metric} {cur_speedup:.3f} "
                      f">= floor {floor:.3f}")

        for metric, unit in (("bytes_per_face", "bytes/face"),
                             ("bytes_per_trial", "bytes/trial")):
            base_bytes = base.get(metric)
            if base_bytes is None:
                continue
            compared += 1
            ceiling = base_bytes * (1.0 + tolerance)
            cur_bytes = cur.get(metric)
            if not isinstance(cur_bytes, (int, float)) or cur_bytes > ceiling:
                print(f"  [REGRESSION] {name}: {cur_bytes} {unit} "
                      f"> ceiling {ceiling:.2f} (baseline {base_bytes})")
                regressions += 1
            else:
                print(f"  [ok] {name}: {cur_bytes:.2f} {unit} "
                      f"<= ceiling {ceiling:.2f}")

        if absolute and "ns_per_localization" in base:
            compared += 1
            ceiling = base["ns_per_localization"] * (1.0 + tolerance)
            ns = cur.get("ns_per_localization")
            if ns is None or ns > ceiling:
                print(f"  [REGRESSION] {name}: {ns} ns/loc "
                      f"> ceiling {ceiling:.1f}")
                regressions += 1
            else:
                print(f"  [ok] {name}: {ns:.1f} ns/loc <= ceiling {ceiling:.1f}")

    for key in sorted(set(current) - set(baseline)):
        print(f"  [new] {key_name(key)}: no baseline yet (not fatal)")

    return compared, regressions


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="fttt_perfcmp.py",
        description="Fail when a BENCH_*.json regresses against its baseline.")
    parser.add_argument("files", type=Path, nargs="+",
                        metavar="BASELINE CURRENT",
                        help="one or more baseline/current file pairs")
    parser.add_argument("--tolerance", type=parse_tolerance, default=0.25,
                        help="allowed slack, e.g. 25%% or 0.25 (default 25%%)")
    parser.add_argument("--absolute", action="store_true",
                        help="also gate ns_per_localization (same-machine runs only)")
    args = parser.parse_args(argv[1:])

    if len(args.files) % 2 != 0:
        print("fttt_perfcmp: positional files must form BASELINE CURRENT "
              f"pairs, got {len(args.files)} file(s)", file=sys.stderr)
        return 2

    regressions = 0
    compared = 0
    for i in range(0, len(args.files), 2):
        baseline_path, current_path = args.files[i], args.files[i + 1]
        print(f"{baseline_path} vs {current_path}:")
        pair_compared, pair_regressions = compare_pair(
            baseline_path, current_path, args.tolerance, args.absolute)
        compared += pair_compared
        regressions += pair_regressions

    if compared == 0:
        print("fttt_perfcmp: nothing comparable between the two files",
              file=sys.stderr)
        return 2
    if regressions:
        print(f"fttt_perfcmp: {regressions} regression(s) beyond "
              f"{args.tolerance:.0%} tolerance", file=sys.stderr)
        return 1
    print(f"fttt_perfcmp: ok ({compared} metric(s) within "
          f"{args.tolerance:.0%} of baseline)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
