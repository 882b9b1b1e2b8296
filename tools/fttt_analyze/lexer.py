"""Minimal C++ lexer for the token frontend.

Produces a flat token stream with line numbers, with comments dropped
and each string literal collapsed to one `str` token (its body kept
aside in `value`) so checks never match inside text. Handles line/block
comments, char literals, raw strings (R"delim(...)delim"), preprocessor
lines (captured whole as `pp` tokens plus parsed `#include` targets), and
multi-char operators longest-first so `==` is never misread as two `=`.

This is not a full C++ grammar — it is exactly enough structure for the
include-graph, macro-argument, declaration and loop-extent analyses in
the checks, and it is deterministic and dependency-free so the analyzer
can run in containers without libclang.
"""

from __future__ import annotations

from dataclasses import dataclass

# Longest-first so maximal munch falls out of the match order.
OPERATORS = [
    "<<=", ">>=", "...", "->*", "<=>",
    "::", "->", "++", "--", "<<", ">>", "<=", ">=", "==", "!=", "&&", "||",
    "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=",
    "+", "-", "*", "/", "%", "=", "<", ">", "!", "&", "|", "^", "~",
    "(", ")", "{", "}", "[", "]", ";", ",", ".", "?", ":", "#",
]

IDENT_START = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")
IDENT_CONT = IDENT_START | set("0123456789")
DIGITS = set("0123456789")


@dataclass
class Token:
    kind: str  # "ident" | "num" | "str" | "char" | "op" | "pp"
    text: str
    line: int
    # Body of a plain "..." literal, escapes left as written (the inventory
    # check reads metric names from it); "" for every other token.
    value: str = ""

    def __repr__(self) -> str:  # compact for debugging fixture tests
        return f"{self.text!r}@{self.line}"


@dataclass
class Comment:
    text: str  # comment body without the // or /* */ markers
    line: int  # line the comment starts on


def lex(source: str) -> tuple[list[Token], list[Comment], list[tuple[int, str, str]]]:
    """Lex `source`; returns (tokens, comments, includes).

    includes is [(line, target, delim)] with delim '"' or '<'. Tokens on
    preprocessor lines other than #include are dropped (a single `pp`
    token carries the directive) so macro *definitions* never trip checks
    aimed at macro *uses*.
    """
    tokens: list[Token] = []
    comments: list[Comment] = []
    includes: list[tuple[int, str, str]] = []

    i = 0
    line = 1
    n = len(source)
    at_line_start = True  # only whitespace seen since the last newline

    while i < n:
        ch = source[i]

        if ch == "\n":
            line += 1
            i += 1
            at_line_start = True
            continue
        if ch in " \t\r\f\v":
            i += 1
            continue

        # Comments.
        if ch == "/" and i + 1 < n and source[i + 1] == "/":
            end = source.find("\n", i)
            if end == -1:
                end = n
            comments.append(Comment(source[i + 2:end].strip(), line))
            i = end
            continue
        if ch == "/" and i + 1 < n and source[i + 1] == "*":
            end = source.find("*/", i + 2)
            if end == -1:
                end = n
            body = source[i + 2:end]
            comments.append(Comment(body.strip(), line))
            line += body.count("\n")
            i = end + 2 if end < n else n
            continue

        # Preprocessor line: capture whole logical line (with \ splices).
        if ch == "#" and at_line_start:
            start = i
            start_line = line
            while i < n:
                end = source.find("\n", i)
                if end == -1:
                    end = n
                # backslash-continued?
                seg = source[i:end].rstrip()
                if seg.endswith("\\"):
                    line += 1
                    i = end + 1
                else:
                    i = end
                    break
            directive = source[start:i]
            stripped = directive.lstrip("# \t")
            if stripped.startswith("include"):
                rest = stripped[len("include"):].strip()
                if rest[:1] in ('"', "<"):
                    delim = rest[0]
                    close = '"' if delim == '"' else ">"
                    endq = rest.find(close, 1)
                    if endq > 0:
                        includes.append((start_line, rest[1:endq], delim))
            tokens.append(Token("pp", directive, start_line))
            at_line_start = True  # the newline is still pending
            continue

        at_line_start = False

        # Raw string literal.
        if ch == "R" and i + 1 < n and source[i + 1] == '"':
            close_paren = source.find("(", i + 2)
            if close_paren != -1:
                delim = source[i + 2:close_paren]
                terminator = ")" + delim + '"'
                end = source.find(terminator, close_paren + 1)
                if end == -1:
                    end = n
                body = source[i:end + len(terminator)]
                tokens.append(Token("str", '""', line))
                line += body.count("\n")
                i = end + len(terminator)
                continue

        # String / char literal (prefixes like u8"..." come through as an
        # ident token followed by the literal; fine for our checks).
        if ch in "\"'":
            quote = ch
            j = i + 1
            while j < n and source[j] != quote:
                if source[j] == "\\":
                    j += 1
                elif source[j] == "\n":
                    break  # unterminated; bail at line end
                j += 1
            tokens.append(Token("str" if quote == '"' else "char",
                                quote + quote, line,
                                source[i + 1:j] if quote == '"' else ""))
            i = j + 1 if j < n else n
            continue

        # Number (loose: enough to skip digit-separators, hex, suffixes).
        if ch in DIGITS or (ch == "." and i + 1 < n and source[i + 1] in DIGITS):
            j = i + 1
            while j < n and (source[j] in IDENT_CONT or source[j] in ".'+-"
                             and source[j - 1] in "eEpP"):
                if source[j] in "+-" and source[j - 1] not in "eEpP":
                    break
                j += 1
            tokens.append(Token("num", source[i:j], line))
            i = j
            continue

        # Identifier / keyword.
        if ch in IDENT_START:
            j = i + 1
            while j < n and source[j] in IDENT_CONT:
                j += 1
            tokens.append(Token("ident", source[i:j], line))
            i = j
            continue

        # Operator / punctuation.
        for op in OPERATORS:
            if source.startswith(op, i):
                tokens.append(Token("op", op, line))
                i += len(op)
                break
        else:
            i += 1  # unknown byte: skip

    return tokens, comments, includes


def match_paren(tokens: list[Token], open_idx: int) -> int:
    """Index of the token closing the paren/brace/bracket at open_idx
    (or len(tokens) if unbalanced)."""
    pairs = {"(": ")", "{": "}", "[": "]"}
    close = pairs[tokens[open_idx].text]
    open_ = tokens[open_idx].text
    depth = 0
    for k in range(open_idx, len(tokens)):
        t = tokens[k].text
        if t == open_:
            depth += 1
        elif t == close:
            depth -= 1
            if depth == 0:
                return k
    return len(tokens)


def split_args(tokens: list[Token], open_idx: int, close_idx: int) -> list[list[Token]]:
    """Split the tokens inside tokens[open_idx+1:close_idx] on top-level
    commas (commas nested in (), {}, [] or <>-free — angle brackets are
    not tracked, template commas split; harmless for side-effect scans)."""
    args: list[list[Token]] = []
    cur: list[Token] = []
    depth = 0
    for t in tokens[open_idx + 1:close_idx]:
        if t.text in "([{":
            depth += 1
        elif t.text in ")]}":
            depth -= 1
        if t.text == "," and depth == 0:
            args.append(cur)
            cur = []
        else:
            cur.append(t)
    if cur or args:
        args.append(cur)
    return args
