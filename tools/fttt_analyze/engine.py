"""Analysis driver: discover TUs, build models, run checks, apply
suppressions, emit human + JSON reports.

Suppression contract: `// fttt-analyze: allow(<check>): <reason>` on the
finding's line or the line directly above. The reason is mandatory — a
reason-less allow() is itself reported (SUP00), and an allow() that
matches no finding is reported as stale (SUP01) so suppressions cannot
outlive the code they excused.
"""

from __future__ import annotations

import json
import shlex
import sys
import tomllib
from pathlib import Path

from . import checks as _checks  # noqa: F401  (registers the check set)
from .model import Finding, SourceModel
from .registry import AnalysisContext, all_checks

SOURCE_SUFFIXES = {".cpp", ".cc", ".hpp", ".h"}


def load_toml(path: Path) -> dict:
    with open(path, "rb") as f:
        return tomllib.load(f)


def load_compile_db(path: Path) -> dict[str, list[str]]:
    """compile_commands.json -> {absolute file path: argv list}."""
    with open(path, "rb") as f:
        entries = json.load(f)
    db: dict[str, list[str]] = {}
    for e in entries:
        file = str(Path(e["directory"], e["file"]).resolve())
        if "arguments" in e:
            db[file] = list(e["arguments"])
        elif "command" in e:
            db[file] = shlex.split(e["command"])
    return db


def discover(paths: list[Path]) -> list[Path]:
    files: list[Path] = []
    for p in paths:
        if p.is_dir():
            files.extend(sorted(f for f in p.rglob("*")
                                if f.suffix in SOURCE_SUFFIXES))
        elif p.is_file():
            files.append(p)
        else:
            raise FileNotFoundError(p)
    return files


def layer_of(rel: str, layering: dict) -> str | None:
    root = layering.get("graph", {}).get("root", "src")
    parts = Path(rel).parts
    root_parts = Path(root).parts
    if parts[:len(root_parts)] == root_parts and len(parts) > len(root_parts) + 1:
        return parts[len(root_parts)]
    return None


class Analyzer:
    def __init__(self, repo_root: Path, config: dict, layering: dict,
                 compile_db: dict[str, list[str]], frontend: str = "auto",
                 config_path: Path | None = None):
        self.repo_root = repo_root
        self.ctx = AnalysisContext(
            config=config,
            config_rel=self._rel(config_path) if config_path else "<config>",
            layering=layering, repo_root=repo_root, compile_db=compile_db)
        self.frontend = self._resolve_frontend(frontend)
        self.models: list[SourceModel] = []

    @staticmethod
    def _resolve_frontend(requested: str) -> str:
        if requested == "tokens":
            return "tokens"
        from . import frontend_clang
        if frontend_clang.available():
            return "libclang"
        if requested == "libclang":
            raise RuntimeError(
                "frontend 'libclang' requested but clang.cindex / a "
                "loadable libclang library is unavailable; install "
                "python3-clang or use --frontend tokens")
        return "tokens"

    def _rel(self, path: Path) -> str:
        try:
            return path.resolve().relative_to(self.repo_root).as_posix()
        except ValueError:
            return path.as_posix()

    def build_model(self, path: Path) -> SourceModel:
        rel = self._rel(path)
        layer = layer_of(rel, self.ctx.layering)
        compile_args = self.ctx.compile_db.get(str(path.resolve()))
        include_base = self.repo_root / self.ctx.layering.get(
            "graph", {}).get("root", "src")
        if self.frontend == "libclang":
            from . import frontend_clang
            return frontend_clang.build_model(path, rel, layer, compile_args,
                                              include_base)
        from . import frontend_tokens
        return frontend_tokens.build_model(path, rel, layer, compile_args,
                                           include_base)

    def run(self, files: list[Path],
            only: set[str] | None = None) -> tuple[list[Finding], list[Finding]]:
        """Returns (active findings, suppressed findings)."""
        active: list[Finding] = []
        suppressed: list[Finding] = []
        selected = [c for c in all_checks() if only is None or c.name in only]
        for check in selected:
            if check.scope == "config":
                active.extend(check.run(self.ctx))
        selected = [c for c in selected if c.scope == "tu"]
        for path in files:
            model = self.build_model(path)
            self.models.append(model)
            for check in selected:
                for finding in check.run(model, self.ctx):
                    sup = model.suppressions_for(finding.line, finding.check)
                    if sup is not None and sup.reason:
                        sup.used = True
                        finding.suppressed = True
                        finding.reason = sup.reason
                        suppressed.append(finding)
                    else:
                        if sup is not None:  # reason-less: does not excuse
                            sup.used = True
                        active.append(finding)
            # Suppression hygiene, regardless of selected checks.
            for sup in model.suppressions:
                if not sup.reason:
                    active.append(Finding(
                        model.rel, sup.line, "SUP00", "suppression-reason",
                        f"allow({sup.check}) without a reason — write "
                        f"'fttt-analyze: allow({sup.check}): <why>'"))
                elif not sup.used and (only is None or sup.check in only):
                    active.append(Finding(
                        model.rel, sup.line, "SUP01", "suppression-stale",
                        f"allow({sup.check}) matches no finding on this or "
                        "the next line — remove the stale suppression"))
        return active, suppressed

    def report_json(self, active: list[Finding], suppressed: list[Finding],
                    files: list[Path]) -> dict:
        summary: dict[str, int] = {}
        for f in active:
            summary[f.code] = summary.get(f.code, 0) + 1
        return {
            "tool": "fttt_analyze",
            "version": 1,
            "frontend": self.frontend,
            "files_analyzed": len(files),
            "checks": [{"code": c.code, "name": c.name, "doc": c.doc}
                       for c in all_checks()],
            "findings": [f.as_json() for f in active],
            "suppressed": [f.as_json() for f in suppressed],
            "summary": summary,
        }


def print_human(active: list[Finding], suppressed: list[Finding],
                files_count: int, frontend: str, out=sys.stdout) -> None:
    for f in active:
        print(f.human(), file=out)
    if active:
        print(f"fttt_analyze: {len(active)} finding(s) in {files_count} "
              f"file(s) [{frontend} frontend; {len(suppressed)} suppressed]",
              file=out)
    else:
        print(f"fttt_analyze: clean ({files_count} files, {frontend} "
              f"frontend, {len(suppressed)} suppressed finding(s) "
              "carry reasons)", file=out)
