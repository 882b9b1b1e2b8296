"""Check registry: checks self-register at import, the engine iterates.

A check is a callable `run(model, ctx) -> Iterable[Finding]` plus stable
identity (code, name) and a one-line doc shown by --list-checks. A
check registered with scope="config" instead audits the configuration
itself: it runs once per analysis as `run(ctx)`, whatever TUs are
visited. Codes
are permanent (suppressions and CI logs reference them); names are the
suppression handle: `// fttt-analyze: allow(<name>): <reason>`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

from .model import Finding, SourceModel


@dataclass(frozen=True)
class CheckInfo:
    code: str
    name: str
    doc: str
    run: Callable[..., Iterable[Finding]]
    scope: str = "tu"  # "tu": once per source file; "config": once per run


@dataclass
class AnalysisContext:
    config: dict       # tools/fttt_analyze/config.toml (or --config)
    config_rel: str    # where `config` came from, for config-scope findings
    layering: dict     # tools/layering.toml (or --layering)
    repo_root: object  # pathlib.Path
    # rel path -> compile argv, from compile_commands.json when given
    compile_db: dict


_REGISTRY: dict[str, CheckInfo] = {}


def register(code: str, name: str, doc: str, scope: str = "tu"):
    def wrap(fn):
        if name in _REGISTRY:
            raise ValueError(f"duplicate check name: {name}")
        _REGISTRY[name] = CheckInfo(code=code, name=name, doc=doc, run=fn,
                                    scope=scope)
        return fn
    return wrap


def all_checks() -> list[CheckInfo]:
    return [_REGISTRY[k] for k in sorted(_REGISTRY)]


def get(name: str) -> CheckInfo | None:
    return _REGISTRY.get(name)
