#!/usr/bin/env python3
"""Self-tests for tools/fttt_analyze: every shipped check must (a) fire
with its exact diagnostic code on the violating fixture TU under
tests/analyze/tree, (b) stay quiet on the clean TU, and (c) honor
reasoned suppressions while flagging reason-less and stale ones.

Runs the analyzer as a subprocess (the supported entry point), asserts
on the machine-readable JSON report, and checks exit statuses. When the
libclang frontend is importable, every scenario is additionally rerun
with --frontend libclang and the finding sets are asserted identical to
the token frontend's — the two-frontends-one-model contract.

Exit status: 0 all scenarios pass, 1 otherwise.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent.parent
TREE = "tests/analyze/tree"
CONFIG = REPO / "tests/analyze/fixtures_config.toml"
LAYERING = REPO / "tests/analyze/fixtures_layering.toml"
STALE_KERNELS = REPO / "tests/analyze/fixtures_stale_kernels.toml"
OBS_INVENTORY = REPO / "tests/analyze/fixtures_obs_inventory.toml"

FAILURES: list[str] = []


def run_analyzer(paths: list[str], extra: list[str] = (),
                 frontend: str = "tokens",
                 config: Path = CONFIG) -> tuple[int, dict]:
    with tempfile.NamedTemporaryFile(suffix=".json", delete=False) as tmp:
        out = tmp.name
    cmd = [sys.executable, str(REPO / "tools" / "fttt_analyze"),
           *[str(REPO / p) for p in paths],
           "--config", str(config), "--layering", str(LAYERING),
           "--frontend", frontend, "--json", out, *extra]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=REPO)
    try:
        report = json.loads(Path(out).read_text())
    finally:
        Path(out).unlink(missing_ok=True)
    if proc.returncode not in (0, 1):
        FAILURES.append(f"analyzer crashed ({proc.returncode}) on {paths}: "
                        f"{proc.stderr.strip()}")
        return proc.returncode, {"findings": [], "suppressed": []}
    return proc.returncode, report


def codes(report: dict) -> list[tuple[str, int]]:
    return sorted((f["code"], f["line"]) for f in report["findings"])


def expect(label: str, got, want) -> None:
    if got != want:
        FAILURES.append(f"{label}: got {got!r}, want {want!r}")


def scenario_fixtures(frontend: str) -> None:
    tag = f"[{frontend}]"

    rc, rep = run_analyzer([f"{TREE}/core/bad_layering.cpp"], frontend=frontend)
    expect(f"{tag} bad_layering exit", rc, 1)
    expect(f"{tag} bad_layering codes", codes(rep), [("LAYER01", 5)])

    rc, rep = run_analyzer([f"{TREE}/core/bad_thread.cpp"], frontend=frontend)
    expect(f"{tag} bad_thread exit", rc, 1)
    expect(f"{tag} bad_thread codes", codes(rep),
           [("LAYER02", 4), ("LAYER02", 10)])

    rc, rep = run_analyzer([f"{TREE}/core/bad_random.cpp"], frontend=frontend)
    expect(f"{tag} bad_random exit", rc, 1)
    expect(f"{tag} bad_random codes", codes(rep),
           [("DET01", 12), ("DET01", 14), ("DET01", 15), ("DET01", 16)])

    rc, rep = run_analyzer([f"{TREE}/core/bad_unordered.cpp"],
                           frontend=frontend)
    expect(f"{tag} bad_unordered exit", rc, 1)
    expect(f"{tag} bad_unordered codes", codes(rep),
           [("DET02", 12), ("DET02", 21)])

    # DET03: generate a compile db on the fly — kernel_fp.cpp without the
    # contraction flag (must fire), kernel_fp_ok.cpp with it (must not).
    with tempfile.TemporaryDirectory() as tmpdir:
        db = Path(tmpdir) / "compile_commands.json"
        db.write_text(json.dumps([
            {"directory": str(REPO),
             "file": f"{TREE}/core/kernel_fp.cpp",
             "command": f"g++ -O2 -c {TREE}/core/kernel_fp.cpp"},
            {"directory": str(REPO),
             "file": f"{TREE}/core/kernel_fp_ok.cpp",
             "command": "g++ -O2 -ffp-contract=off -c "
                        f"{TREE}/core/kernel_fp_ok.cpp"},
        ]))
        rc, rep = run_analyzer(
            [f"{TREE}/core/kernel_fp.cpp", f"{TREE}/core/kernel_fp_ok.cpp"],
            extra=["--compile-commands", str(db)], frontend=frontend)
        expect(f"{tag} kernel_fp exit", rc, 1)
        expect(f"{tag} kernel_fp codes", codes(rep), [("DET03", 1)])
        files = [f["file"] for f in rep["findings"]]
        expect(f"{tag} kernel_fp file", files, [f"{TREE}/core/kernel_fp.cpp"])

    # DET04: kernel-list entries naming no file are reported at their
    # own config line, under either list, even though no visited TU is
    # on a list.
    rc, rep = run_analyzer([f"{TREE}/core/clean.cpp"], frontend=frontend,
                           config=STALE_KERNELS)
    expect(f"{tag} stale_kernels exit", rc, 1)
    expect(f"{tag} stale_kernels codes", codes(rep),
           [("DET04", 8), ("DET04", 12)])
    expect(f"{tag} stale_kernels file", sorted({f["file"] for f in rep["findings"]}),
           ["tests/analyze/fixtures_stale_kernels.toml"])

    # OBS02: an emitted name missing from the inventory is reported at
    # its emission, a table name nothing emits at its table row; the
    # repeated, allow-listed, non-literal and non-metric cases stay quiet.
    rc, rep = run_analyzer([f"{TREE}/core/clean.cpp"], frontend=frontend,
                           config=OBS_INVENTORY)
    expect(f"{tag} obs_inventory exit", rc, 1)
    expect(f"{tag} obs_inventory findings",
           sorted((f["file"], f["code"], f["line"]) for f in rep["findings"]),
           [(f"{TREE}/obs/inventory.cpp", "OBS02", 12),
            (f"{TREE}/obs/inventory.md", "OBS02", 6)])

    rc, rep = run_analyzer([f"{TREE}/core/bad_obs_arg.cpp"], frontend=frontend)
    expect(f"{tag} bad_obs_arg exit", rc, 1)
    expect(f"{tag} bad_obs_arg codes", codes(rep),
           [("OBS01", 16), ("OBS01", 17), ("OBS01", 19)])

    rc, rep = run_analyzer([f"{TREE}/core/bad_dcheck.cpp"], frontend=frontend)
    expect(f"{tag} bad_dcheck exit", rc, 1)
    expect(f"{tag} bad_dcheck codes", codes(rep),
           [("CON01", 14), ("CON01", 15)])

    rc, rep = run_analyzer([f"{TREE}/core/kernel_throw.cpp"],
                           frontend=frontend)
    expect(f"{tag} kernel_throw exit", rc, 1)
    expect(f"{tag} kernel_throw codes", codes(rep),
           [("CON02", 13), ("CON02", 18)])

    rc, rep = run_analyzer([f"{TREE}/core/suppressed.cpp"], frontend=frontend)
    expect(f"{tag} suppressed exit", rc, 0)
    expect(f"{tag} suppressed active", codes(rep), [])
    expect(f"{tag} suppressed count", len(rep["suppressed"]), 2)
    expect(f"{tag} suppressed reasons",
           all(f.get("reason") for f in rep["suppressed"]), True)

    rc, rep = run_analyzer([f"{TREE}/core/bad_suppression.cpp"],
                           frontend=frontend)
    expect(f"{tag} bad_suppression exit", rc, 1)
    expect(f"{tag} bad_suppression codes", codes(rep),
           [("DET02", 12), ("SUP00", 11), ("SUP01", 13)])

    rc, rep = run_analyzer([f"{TREE}/core/clean.cpp"], frontend=frontend)
    expect(f"{tag} clean exit", rc, 0)
    expect(f"{tag} clean findings", codes(rep), [])

    # Whole-tree run: --checks subsetting honors only the named check —
    # plus SUP00, which is hygiene and reported regardless of subset (a
    # reason-less allow() is broken whatever checks run).
    rc, rep = run_analyzer([TREE], extra=["--checks", "layering-dag"],
                           frontend=frontend)
    expect(f"{tag} subset exit", rc, 1)
    expect(f"{tag} subset codes", sorted({c for c, _ in codes(rep)}),
           ["LAYER01", "SUP00"])


def scenario_frontend_parity() -> None:
    """When libclang is importable, both frontends must agree on every
    fixture finding (code + line)."""
    sys.path.insert(0, str(REPO / "tools"))
    from fttt_analyze import frontend_clang
    if not frontend_clang.available():
        print("libclang unavailable: parity scenarios skipped "
              "(token frontend is authoritative here)")
        return
    scenario_fixtures("libclang")


def main() -> int:
    scenario_fixtures("tokens")
    scenario_frontend_parity()
    if FAILURES:
        for f in FAILURES:
            print(f"FAIL: {f}")
        print(f"run_fixture_tests: {len(FAILURES)} failure(s)")
        return 1
    print("run_fixture_tests: all fixture scenarios passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
