"""Determinism checks: the RngStream substream discipline and the SoA/spec
bit-equivalence contract (docs/ARCHITECTURE.md, "Determinism contract").

DET01 determinism-source         nondeterministic sources (random_device,
                                 rand/srand, time(...) seeds, wall clocks)
                                 outside whitelisted TUs
DET02 determinism-unordered-iter iteration over an unordered container —
                                 hash-table order is address/seed-dependent
                                 and must never reach an accumulation or
                                 result path
DET03 determinism-fp-contract    bit-equivalence kernel TUs must compile
                                 with -ffp-contract=off (verified against
                                 compile_commands.json)
DET04 determinism-kernel-list    every [kernels] list entry names an
                                 existing file — DET03 and CON02 only see
                                 TUs they visit, so a stale entry (say,
                                 after a rename) silently drops a TU's
                                 check
"""

from __future__ import annotations

from pathlib import Path

from ..lexer import match_paren
from ..model import Finding, SourceModel
from ..registry import AnalysisContext, register


def _det(ctx: AnalysisContext) -> dict:
    return ctx.config.get("determinism", {})


@register("DET01", "determinism-source",
          "no nondeterministic sources outside the RNG layer")
def determinism_source(model: SourceModel, ctx: AnalysisContext):
    cfg = _det(ctx)
    if any(model.rel.startswith(p) for p in cfg.get("allow_paths", [])):
        return
    banned = set(cfg.get("banned_idents", []))
    banned_calls = set(cfg.get("banned_calls", []))
    timing = set(cfg.get("timing_idents", []))
    timing_ok = model.layer in set(cfg.get("timing_allow_layers", []))
    toks = model.tokens
    for i, t in enumerate(toks):
        if t.kind != "ident":
            continue
        nxt = toks[i + 1].text if i + 1 < len(toks) else ""
        prev = toks[i - 1].text if i else ""
        prev2 = toks[i - 2].text if i >= 2 else ""
        if t.text in banned:
            yield Finding(
                model.rel, t.line, "DET01", "determinism-source",
                f"'{t.text}' is nondeterministic; every random/clock value "
                "must derive from RngStream substreams (common/random.hpp) "
                "or obs timing")
        elif t.text in timing and not timing_ok:
            yield Finding(
                model.rel, t.line, "DET01", "determinism-source",
                f"'{t.text}' outside the obs layer: route timing through "
                "FTTT_OBS_* probes so instrumentation stays compile-out")
        elif t.text in banned_calls and nxt == "(":
            # Member access f.rand() or qualified foo::rand() (other than
            # std::) is someone else's API, not the libc call.
            if prev in (".", "->"):
                continue
            if prev == "::" and prev2 != "std":
                continue
            yield Finding(
                model.rel, t.line, "DET01", "determinism-source",
                f"'{t.text}()' breaks reproducibility; use fttt::RngStream")
        elif (cfg.get("ban_time_seed", True) and t.text == "time"
              and nxt == "(" and prev not in (".", "->")
              and (prev != "::" or prev2 == "std")):
            inner = toks[i + 2].text if i + 2 < len(toks) else ""
            closer = toks[i + 3].text if i + 3 < len(toks) else ""
            if inner in ("nullptr", "NULL", "0") and closer == ")":
                yield Finding(
                    model.rel, t.line, "DET01", "determinism-source",
                    "time(...) seeding breaks reproducibility; use "
                    "RngStream substreams keyed by stable indices")


@register("DET02", "determinism-unordered-iter",
          "no iteration over unordered containers (hash order leaks)")
def determinism_unordered_iter(model: SourceModel, ctx: AnalysisContext):
    toks = model.tokens
    unordered = model.unordered_vars
    n = len(toks)
    for i, t in enumerate(toks):
        if t.kind != "ident" or t.text not in ("for", "while"):
            continue
        if i + 1 >= n or toks[i + 1].text != "(":
            continue
        close = match_paren(toks, i + 1)
        header = toks[i + 2:close]
        # Range-for: a top-level ':' splits decl from range expression.
        depth = 0
        colon = -1
        for k, h in enumerate(header):
            if h.text in "([{":
                depth += 1
            elif h.text in ")]}":
                depth -= 1
            elif h.text == ":" and depth == 0:
                # skip `::` (lexer emits it as one token, so a bare ':'
                # at depth 0 is the range-for separator)
                colon = k
                break
        hazard: str | None = None
        hazard_line = t.line
        if colon >= 0:
            range_expr = header[colon + 1:]
            for h in range_expr:
                if h.kind == "ident" and h.text in unordered:
                    hazard = h.text
                    hazard_line = h.line
                    break
                if h.kind == "ident" and h.text.startswith("unordered_"):
                    hazard = h.text  # iterating a temporary
                    hazard_line = h.line
                    break
        else:
            # Iterator loop: look for `<var> . begin (` in the header.
            for k, h in enumerate(header):
                if (h.kind == "ident" and h.text in ("begin", "cbegin")
                        and k >= 2 and header[k - 1].text in (".", "->")
                        and header[k - 2].kind == "ident"
                        and header[k - 2].text in unordered):
                    hazard = header[k - 2].text
                    hazard_line = h.line
                    break
        if hazard:
            yield Finding(
                model.rel, hazard_line, "DET02", "determinism-unordered-iter",
                f"iteration over unordered container '{hazard}' (declared "
                f"line {unordered.get(hazard, '?')}): bucket order depends "
                "on addresses/seed and must not reach results — iterate a "
                "deterministic index (vector / sorted keys) instead")


@register("DET03", "determinism-fp-contract",
          "bit-equivalence kernel TUs compile with -ffp-contract=off")
def determinism_fp_contract(model: SourceModel, ctx: AnalysisContext):
    kernels = ctx.config.get("kernels", {})
    sensitive = kernels.get("fp_sensitive", [])
    if model.rel not in sensitive:
        return
    required = kernels.get("required_flags", ["-ffp-contract=off"])
    if model.compile_args is None:
        if ctx.compile_db:
            yield Finding(
                model.rel, 1, "DET03", "determinism-fp-contract",
                "kernel TU missing from compile_commands.json — cannot "
                "verify its floating-point contraction flags")
        return  # no compile db at all: check not runnable, stay silent
    missing = [f for f in required if f not in model.compile_args]
    if missing:
        yield Finding(
            model.rel, 1, "DET03", "determinism-fp-contract",
            f"kernel TU compiled without {' '.join(missing)}: FMA "
            "contraction may differ between engine and spec TUs and break "
            "bit-equivalence (set_source_files_properties in CMakeLists)")


@register("DET04", "determinism-kernel-list",
          "every [kernels] TU list entry names an existing file",
          scope="config")
def determinism_kernel_list(ctx: AnalysisContext):
    kernels = ctx.config.get("kernels", {})
    try:
        lines = (Path(ctx.repo_root) / ctx.config_rel).read_text(
            encoding="utf-8").splitlines()
    except OSError:
        lines = []
    for key in ("fp_sensitive", "no_throw_loops"):
        # Entries are located from the list's own `key =` line on, so one
        # path listed under both keys reports each occurrence.
        start = next((i for i, text in enumerate(lines)
                      if text.lstrip().startswith(key)), 0)
        for entry in kernels.get(key, []):
            if (Path(ctx.repo_root) / entry).is_file():
                continue
            quoted = f'"{entry}"'
            line = next((i + 1 for i in range(start, len(lines))
                         if quoted in lines[i]), 1)
            yield Finding(
                ctx.config_rel, line, "DET04", "determinism-kernel-list",
                f"[kernels] {key} entry '{entry}' names no file: the "
                "checks keyed on that list never run for it — fix the "
                "path or drop the entry")
