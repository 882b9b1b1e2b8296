"""Command-line interface.

    python3 -m fttt_analyze [paths...] \
        [--compile-commands build/compile_commands.json] \
        [--config tools/fttt_analyze/config.toml] \
        [--layering tools/layering.toml] \
        [--checks name,name] [--frontend auto|tokens|libclang] \
        [--json report.json] [--list-checks]

Exit status: 0 clean, 1 findings, 2 usage/config error — the same
contract as tools/fttt_lint.py and tools/fttt_perfcmp.py so CI steps
compose uniformly.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .engine import (Analyzer, discover, load_compile_db, load_toml,
                     print_human)
from .registry import all_checks


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fttt_analyze",
        description="AST-level semantic analyzer for the FTTT repo "
                    "invariants (layering, determinism, obs hygiene, "
                    "contract policy). See docs/static_analysis.md.")
    parser.add_argument("paths", nargs="*", default=[],
                        help="files or directories to analyze (default: src)")
    parser.add_argument("--compile-commands", metavar="JSON",
                        help="compile_commands.json for per-TU flags "
                             "(enables determinism-fp-contract)")
    parser.add_argument("--config", metavar="TOML",
                        help="check configuration (default: the package's "
                             "config.toml)")
    parser.add_argument("--layering", metavar="TOML",
                        help="layering DAG (default: tools/layering.toml)")
    parser.add_argument("--checks", metavar="NAMES",
                        help="comma-separated subset of check names to run")
    parser.add_argument("--frontend", choices=["auto", "tokens", "libclang"],
                        default="auto",
                        help="auto uses libclang when importable, else tokens")
    parser.add_argument("--json", metavar="OUT", dest="json_out",
                        help="write the machine-readable report here")
    parser.add_argument("--list-checks", action="store_true",
                        help="print the registered check set and exit")
    return parser


def main(argv: list[str]) -> int:
    parser = make_parser()
    args = parser.parse_args(argv[1:])

    if args.list_checks:
        for c in all_checks():
            print(f"{c.code:8} {c.name:28} {c.doc}")
        return 0

    tools_dir = Path(__file__).resolve().parent.parent
    repo_root = tools_dir.parent

    config_path = (Path(args.config) if args.config
                   else Path(__file__).resolve().parent / "config.toml")
    try:
        config = load_toml(config_path)
        layering = load_toml(Path(args.layering) if args.layering
                             else tools_dir / "layering.toml")
        compile_db = (load_compile_db(Path(args.compile_commands))
                      if args.compile_commands else {})
        paths = [Path(p) for p in args.paths] or [repo_root / "src"]
        files = discover(paths)
    except FileNotFoundError as e:
        print(f"fttt_analyze: no such path: {e}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as e:
        print(f"fttt_analyze: bad input: {e}", file=sys.stderr)
        return 2

    only = None
    if args.checks:
        only = {c.strip() for c in args.checks.split(",") if c.strip()}
        known = {c.name for c in all_checks()}
        unknown = only - known
        if unknown:
            print(f"fttt_analyze: unknown check(s): {', '.join(sorted(unknown))}",
                  file=sys.stderr)
            return 2

    try:
        analyzer = Analyzer(repo_root, config, layering, compile_db,
                            frontend=args.frontend, config_path=config_path)
    except RuntimeError as e:
        print(f"fttt_analyze: {e}", file=sys.stderr)
        return 2

    active, suppressed = analyzer.run(files, only)

    if args.json_out:
        report = analyzer.report_json(active, suppressed, files)
        Path(args.json_out).write_text(json.dumps(report, indent=2) + "\n",
                                       encoding="utf-8")
    print_human(active, suppressed, len(files), analyzer.frontend)
    return 1 if active else 0
