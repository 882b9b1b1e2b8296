#!/usr/bin/env python3
"""Self-test for fttt_perfcmp.py exit-status contract (run as a ctest).

Covers the documented statuses: 0 within tolerance, 1 regression, and 2
for unreadable files, missing 'results', and malformed result rows (a
row without `threads` included) — the last one is what CI scripts key
on, so a traceback escaping as status 1 would silently flip a parse
error into a "regression". Rows are keyed by (name, batch, threads), so
a row is only ever compared against a baseline at its own thread count.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from pathlib import Path

PERFCMP = Path(__file__).resolve().parent / "fttt_perfcmp.py"


def perfcmp(docs: list[object], *extra: str) -> subprocess.CompletedProcess:
    """Write each doc to its own file and pass them all positionally."""
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for i, doc_obj in enumerate(docs):
            path = Path(tmp) / f"f{i}.json"
            path.write_text(json.dumps(doc_obj), encoding="utf-8")
            paths.append(str(path))
        return subprocess.run(
            [sys.executable, str(PERFCMP), *paths, *extra],
            capture_output=True, text=True)


def run_files(docs: list[object], *extra: str) -> int:
    return perfcmp(docs, *extra).returncode


def run(baseline: object, current: object, *extra: str) -> int:
    return run_files([baseline, current], *extra)


def reported(baseline: object, current: object, line: str) -> int:
    """The exit status, or 3 when stdout lacks `line`."""
    proc = perfcmp([baseline, current])
    return proc.returncode if line in proc.stdout else 3


def doc(*rows: dict) -> dict:
    return {"results": list(rows)}


def main() -> int:
    ok_row = {"name": "soa", "batch": 256, "threads": 1, "speedup_vs_scalar": 5.0}
    slow_row = dict(ok_row, speedup_vs_scalar=1.0)
    # bytes_per_face memory gate (BENCH_largeN.json shape): lower is
    # better, always on (scenario-determined, machine-portable).
    lean_row = {"name": "hier", "batch": 64, "threads": 1, "bytes_per_face": 80.0}
    fat_row = dict(lean_row, bytes_per_face=200.0)
    lost_row = {"name": "hier", "batch": 64, "threads": 1}
    # bytes_per_trial gates like bytes_per_face (BENCH_campaign.json
    # shape: the pooled workers' steady-state allocations per trial).
    lean_trial = {"name": "campaign_1t", "batch": 1, "threads": 1,
                  "bytes_per_trial": 2.7e5}
    fat_trial = dict(lean_trial, bytes_per_trial=1.6e6)
    lost_trial = {"name": "campaign_1t", "batch": 1, "threads": 1}
    # speedup_vs_batch gates exactly like speedup_vs_scalar (the largeN
    # hier rows carry both ratios; the vs-batch one is the headline
    # sublinearity claim).
    vsb_row = {"name": "hier", "batch": 64, "threads": 1, "speedup_vs_batch": 10.0}
    vsb_slow = dict(vsb_row, speedup_vs_batch=2.0)
    # Threads keying: a row is compared only against the baseline taken
    # at its own worker count.
    mt_ok = dict(ok_row, threads=4, speedup_vs_scalar=2.0)
    mt_slow = dict(mt_ok, speedup_vs_scalar=0.5)
    no_threads = {"name": "soa", "batch": 256, "speedup_vs_scalar": 5.0}
    checks = [
        ("ok within tolerance", run(doc(ok_row), doc(ok_row)), 0),
        ("regression", run(doc(ok_row), doc(slow_row)), 1),
        ("not json", run("not-a-doc", doc(ok_row)), 2),
        ("no results array", run({"results": 7}, doc(ok_row)), 2),
        ("row missing name", run(doc({"batch": 1, "threads": 1}), doc(ok_row)), 2),
        ("row non-int batch", run(doc({"name": "x", "batch": "wat", "threads": 1}),
                                  doc(ok_row)), 2),
        ("row not a dict", run(doc(ok_row), {"results": [5]}), 2),
        ("nothing comparable", run(doc(), doc()), 2),
        # Multi-pair invocations (CI gates every bench in one call).
        ("two pairs ok",
         run_files([doc(ok_row), doc(ok_row), doc(ok_row), doc(ok_row)]), 0),
        ("regression in second pair",
         run_files([doc(ok_row), doc(ok_row), doc(ok_row), doc(slow_row)]), 1),
        ("odd file count", run_files([doc(ok_row), doc(ok_row), doc(ok_row)]), 2),
        # bytes_per_face memory gate.
        ("bytes within tolerance", run(doc(lean_row), doc(lean_row)), 0),
        ("bytes regression", run(doc(lean_row), doc(fat_row)), 1),
        ("bytes metric lost", run(doc(lean_row), doc(lost_row)), 1),
        ("bytes shrink passes", run(doc(fat_row), doc(lean_row)), 0),
        # bytes_per_trial allocation gate.
        ("trial bytes within tolerance", run(doc(lean_trial), doc(lean_trial)), 0),
        ("trial bytes regression", run(doc(lean_trial), doc(fat_trial)), 1),
        ("trial bytes metric lost", run(doc(lean_trial), doc(lost_trial)), 1),
        ("trial bytes shrink passes", run(doc(fat_trial), doc(lean_trial)), 0),
        # speedup_vs_batch ratio gate.
        ("vs-batch within tolerance", run(doc(vsb_row), doc(vsb_row)), 0),
        ("vs-batch regression", run(doc(vsb_row), doc(vsb_slow)), 1),
        ("vs-batch metric lost", run(doc(vsb_row), doc(lost_row)), 1),
        # threads keying.
        ("same-count regression fails",
         run(doc(ok_row, mt_ok), doc(ok_row, mt_slow)), 1),
        ("other-count row is new, not compared",
         reported(doc(ok_row), doc(ok_row, mt_slow),
                  "[new] soa batch=256 threads=4"), 0),
        ("other-count baseline never gates",
         run(doc(ok_row, mt_ok), doc(dict(ok_row, threads=2, speedup_vs_scalar=0.1),
                                     ok_row)), 0),
        ("baseline row without threads", run(doc(no_threads), doc(ok_row)), 2),
        ("current row without threads", run(doc(ok_row), doc(no_threads)), 2),
    ]
    failures = 0
    for label, got, want in checks:
        status = "ok" if got == want else "FAIL"
        if got != want:
            failures += 1
        print(f"  [{status}] {label}: exit {got} (want {want})")
    if failures:
        print(f"test_fttt_perfcmp: {failures} check(s) failed", file=sys.stderr)
        return 1
    print(f"test_fttt_perfcmp: all {len(checks)} checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
