"""Obs hygiene: probe arguments and the metric inventory.

OBS01 obs-arg-side-effect — under -DFTTT_OBS=OFF every FTTT_OBS_* macro
expands to a dead branch with its arguments unevaluated (obs/obs.hpp), so
an argument that mutates state makes ON and OFF builds behave
differently: the exact silent divergence the obs-off CI preset exists to
prevent, detected here at the probe site instead of in a failing soak.

OBS02 obs-inventory — every metric name a FTTT_OBS_* macro emits (its
string-literal first argument) under `[obs] inventory_paths` appears in
an inventory table of `inventory_doc`, and every table name is emitted.
Names emitted outside the macros go on `inventory_allow`. Without the
check the handbook drifts from the code in both directions: operators
meet undocumented names in a snapshot, or look for documented ones that
no longer exist.
"""

from __future__ import annotations

import re
from pathlib import Path

from ..lexer import lex
from ..model import Finding, SourceModel
from ..registry import AnalysisContext, register
from ..structure import find_side_effects, macro_calls, split_macro_args

SOURCE_SUFFIXES = {".cpp", ".cc", ".hpp", ".h"}
# An inventory row: a table line whose first cell is one backticked,
# dot-separated lowercase metric name.
INVENTORY_ROW = re.compile(r"^\|\s*`([a-z0-9_]+(?:\.[a-z0-9_]+)+)`\s*\|")


@register("OBS01", "obs-arg-side-effect",
          "FTTT_OBS_* macro arguments must be side-effect-free")
def obs_arg_side_effect(model: SourceModel, ctx: AnalysisContext):
    names = set(ctx.config.get("obs", {}).get("macros", []))
    mutators = set(ctx.config.get("side_effects", {}).get("mutating_members", []))
    for name, line, open_idx, close_idx in macro_calls(model.tokens, names):
        for arg in split_macro_args(model.tokens, open_idx, close_idx):
            for eff_line, desc in find_side_effects(arg, mutators):
                yield Finding(
                    model.rel, eff_line, "OBS01", "obs-arg-side-effect",
                    f"{name} argument has a side effect ({desc}): arguments "
                    "are unevaluated when FTTT_OBS=OFF, so ON and OFF builds "
                    "would diverge — hoist the effect out of the probe")


def _emitted_names(ctx: AnalysisContext, paths: list[str], macros: set[str]):
    """{name: (rel path, line)} of each literal name's first emission."""
    root = Path(ctx.repo_root)
    files: list[Path] = []
    for entry in paths:
        p = root / entry
        if p.is_dir():
            files.extend(sorted(f for f in p.rglob("*")
                                if f.suffix in SOURCE_SUFFIXES))
        elif p.is_file():
            files.append(p)
    names: dict[str, tuple[str, int]] = {}
    for f in files:
        tokens, _, _ = lex(f.read_text(encoding="utf-8", errors="replace"))
        rel = f.relative_to(root).as_posix()
        for _, line, open_idx, close_idx in macro_calls(tokens, macros):
            args = split_macro_args(tokens, open_idx, close_idx)
            if args and len(args[0]) == 1 and args[0][0].kind == "str":
                names.setdefault(args[0][0].value, (rel, line))
    return names


@register("OBS02", "obs-inventory",
          "every emitted FTTT_OBS_* name is in the metric inventory, and "
          "every inventory name is emitted",
          scope="config")
def obs_inventory(ctx: AnalysisContext):
    cfg = ctx.config.get("obs", {})
    doc_rel = cfg.get("inventory_doc")
    if not doc_rel:
        return
    emitted = _emitted_names(ctx, cfg.get("inventory_paths", []),
                             set(cfg.get("macros", [])))
    documented: dict[str, int] = {}
    doc = Path(ctx.repo_root) / doc_rel
    lines = doc.read_text(encoding="utf-8").splitlines() if doc.is_file() else []
    for number, text in enumerate(lines, start=1):
        m = INVENTORY_ROW.match(text.strip())
        if m:
            documented.setdefault(m.group(1), number)

    for name, (rel, line) in sorted(emitted.items()):
        if name not in documented:
            yield Finding(
                rel, line, "OBS02", "obs-inventory",
                f"metric '{name}' is emitted but missing from the inventory "
                f"tables of {doc_rel}: document it there")
    allowed = set(cfg.get("inventory_allow", []))
    for name, number in sorted(documented.items(), key=lambda kv: kv[1]):
        if name not in emitted and name not in allowed:
            yield Finding(
                doc_rel, number, "OBS02", "obs-inventory",
                f"inventory names '{name}' but no FTTT_OBS_* macro emits it: "
                "drop the row, or list a name emitted outside the macros "
                "under [obs] inventory_allow")
