#!/usr/bin/env python3
"""manet-lint: determinism-contract static analysis for the MANET simulator.

The simulator's headline guarantees (golden-hash replay, byte-identical
output for any --jobs, zero steady-state allocations) rest on source-level
contracts that runtime tests can only probe, not prove:

  wall-clock      simulation code must never read the host clock; simulated
                  time comes from sim::Simulator. Wall-clock is allowed only
                  in the progress meter, the runner's run-timing, and in
                  bench/example/test drivers.
  global-rng      all randomness flows through util::Rng substreams; std::rand,
                  srand and std::random_device are banned outside util/rng.
  unordered-iter  iterating an unordered container feeds standard-library
                  hash order into elections / statistics; all iteration in
                  src/ must be over deterministically ordered containers.
  hot-path        files participating in the zero-allocation loop must not
                  introduce std::function (allocating, type-erasing; use
                  sim::InplaceEvent), naked `new`, or make_shared (refcount
                  block per call).
  io-discipline   direct stdout/stderr writes (std::cout/cerr, printf) are
                  banned outside util/ — simulation layers report through
                  util::Logger or streams passed in by the caller.

This is a tokenizer + per-rule engine, not a pile of regexes: comments,
string literals and preprocessor directives never produce findings, and the
unordered-iteration rule resolves container *declarations* (including
`using` aliases) across the whole scanned tree before judging loops.

Suppression syntax (same line or the line above the finding):

    // manet-lint: allow(<rule>): <non-empty justification>

A suppression without a justification is itself a finding. The total number
of suppressions under src/ is budgeted (see --count-suppressions /
--max-suppressions) and asserted by tests/lint so it can only shrink.

Usage:
    manet_lint.py [paths...]            # default: src/ under --root
    manet_lint.py --werror src          # exit 2 on any finding (CI gate)
    manet_lint.py --count-suppressions src
    manet_lint.py --max-suppressions 5 src
    manet_lint.py --list-rules

Self-contained: python3 stdlib only, no third-party imports.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass, field

# ---------------------------------------------------------------------------
# Tokenizer
# ---------------------------------------------------------------------------

# Token kinds
IDENT = "ident"
NUMBER = "number"
STRING = "string"
CHAR = "char"
PUNCT = "punct"
COMMENT = "comment"
PREPROC = "preproc"

_MULTI_PUNCT = (
    "<<=", ">>=", "...", "->*", "::", "->", "<<", ">>", "<=", ">=", "==",
    "!=", "&&", "||", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "++",
    "--",
)


@dataclass
class Token:
    kind: str
    text: str
    line: int


def tokenize(source: str) -> list[Token]:
    """Tokenizes C++ source. Comments and preprocessor directives are kept
    as single tokens (rules skip them; the suppression scanner reads them)."""
    tokens: list[Token] = []
    i = 0
    n = len(source)
    line = 1
    at_line_start = True  # only whitespace seen since the last newline

    def advance_lines(text: str) -> None:
        nonlocal line
        line += text.count("\n")

    while i < n:
        c = source[i]
        if c == "\n":
            line += 1
            i += 1
            at_line_start = True
            continue
        if c in " \t\r\f\v":
            i += 1
            continue
        start_line = line
        if c == "#" and at_line_start:
            # Preprocessor directive: runs to end of line, honoring \-splices.
            j = i
            while j < n:
                if source[j] == "\\" and j + 1 < n and source[j + 1] == "\n":
                    j += 2
                    continue
                if source[j] == "\n":
                    break
                j += 1
            text = source[i:j]
            tokens.append(Token(PREPROC, text, start_line))
            advance_lines(text)
            i = j
            continue
        at_line_start = False
        if c == "/" and i + 1 < n and source[i + 1] == "/":
            j = source.find("\n", i)
            j = n if j == -1 else j
            tokens.append(Token(COMMENT, source[i:j], start_line))
            i = j
            continue
        if c == "/" and i + 1 < n and source[i + 1] == "*":
            j = source.find("*/", i + 2)
            j = n if j == -1 else j + 2
            text = source[i:j]
            tokens.append(Token(COMMENT, text, start_line))
            advance_lines(text)
            i = j
            continue
        if c == "R" and source.startswith('R"', i):
            # Raw string literal: R"delim( ... )delim"
            k = source.find("(", i + 2)
            if k != -1:
                delim = source[i + 2:k]
                close = ")" + delim + '"'
                j = source.find(close, k + 1)
                j = n if j == -1 else j + len(close)
                text = source[i:j]
                tokens.append(Token(STRING, text, start_line))
                advance_lines(text)
                i = j
                continue
        if c == '"' or c == "'":
            quote = c
            j = i + 1
            while j < n and source[j] != quote:
                if source[j] == "\\":
                    j += 1
                j += 1
            j = min(j + 1, n)
            tokens.append(Token(STRING if quote == '"' else CHAR,
                                source[i:j], start_line))
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            tokens.append(Token(IDENT, source[i:j], start_line))
            i = j
            continue
        if c.isdigit() or (c == "." and i + 1 < n and source[i + 1].isdigit()):
            j = i
            while j < n and (source[j].isalnum() or source[j] in "._'"
                             or (source[j] in "+-"
                                 and source[j - 1] in "eEpP")):
                j += 1
            tokens.append(Token(NUMBER, source[i:j], start_line))
            i = j
            continue
        for p in _MULTI_PUNCT:
            if source.startswith(p, i):
                tokens.append(Token(PUNCT, p, start_line))
                i += len(p)
                break
        else:
            tokens.append(Token(PUNCT, c, start_line))
            i += 1
    return tokens


def code_tokens(tokens: list[Token]) -> list[Token]:
    """Tokens with comments / preprocessor directives stripped — what the
    rules actually inspect."""
    return [t for t in tokens if t.kind not in (COMMENT, PREPROC)]


# ---------------------------------------------------------------------------
# Findings and suppressions
# ---------------------------------------------------------------------------


@dataclass
class Finding:
    path: str       # repo-relative, forward slashes
    line: int
    rule: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


@dataclass
class Suppression:
    path: str
    line: int
    rule: str
    justification: str


_ALLOW_MARK = "manet-lint: allow("


def scan_suppressions(path: str, tokens: list[Token]) -> tuple[
        list[Suppression], list[Finding]]:
    """Parses `// manet-lint: allow(<rule>): <justification>` comments.
    Malformed suppressions (no closing paren, empty justification) are
    reported as findings of the pseudo-rule `suppression`."""
    sups: list[Suppression] = []
    bad: list[Finding] = []
    for t in tokens:
        if t.kind != COMMENT:
            continue
        pos = t.text.find(_ALLOW_MARK)
        if pos == -1:
            continue
        rest = t.text[pos + len(_ALLOW_MARK):]
        close = rest.find(")")
        if close == -1:
            bad.append(Finding(path, t.line, "suppression",
                               "malformed suppression: missing ')'"))
            continue
        rule = rest[:close].strip()
        tail = rest[close + 1:].lstrip()
        if not tail.startswith(":") or not tail[1:].strip():
            bad.append(Finding(
                path, t.line, "suppression",
                f"suppression for '{rule}' lacks a justification "
                "(syntax: // manet-lint: allow(rule): why)"))
            continue
        sups.append(Suppression(path, t.line, rule, tail[1:].strip()))
    return sups, bad


def apply_suppressions(findings: list[Finding],
                       sups: list[Suppression]) -> list[Finding]:
    """A suppression on line L silences matching findings on L and L+1
    (i.e. it may sit on the offending line or on its own line above)."""
    silenced = {(s.rule, s.line) for s in sups}
    out = []
    for f in findings:
        if (f.rule, f.line) in silenced or (f.rule, f.line - 1) in silenced:
            continue
        out.append(f)
    return out


# ---------------------------------------------------------------------------
# Rules
# ---------------------------------------------------------------------------


def _path_has_prefix(path: str, prefixes: tuple[str, ...]) -> bool:
    return any(path.startswith(p) for p in prefixes)


def _is_member_access(tokens: list[Token], i: int) -> bool:
    """True if tokens[i] is reached via `.` or `->` (a member, not a free
    function / global)."""
    return i > 0 and tokens[i - 1].text in (".", "->")


def _is_std_qualified(tokens: list[Token], i: int) -> bool:
    return (i >= 2 and tokens[i - 1].text == "::"
            and tokens[i - 2].text == "std")


# Keywords a call expression can directly follow; any other preceding
# identifier means tokens[i] is being *declared* (`double time() const`),
# not called.
_CALL_CONTEXT_KEYWORDS = ("return", "co_return", "co_yield", "throw",
                          "case", "else", "do")


def _is_call(tokens: list[Token], i: int) -> bool:
    if i + 1 >= len(tokens) or tokens[i + 1].text != "(":
        return False
    if i > 0 and tokens[i - 1].kind == IDENT \
            and tokens[i - 1].text not in _CALL_CONTEXT_KEYWORDS:
        return False  # `Type name(` — a declaration, not a call
    return True


@dataclass
class Rule:
    name: str
    description: str
    # Findings only in files matching one of these prefixes ('' = everywhere).
    only_under: tuple[str, ...] = ("",)
    # ...but never in files matching one of these.
    allow_under: tuple[str, ...] = ()

    def applies(self, path: str) -> bool:
        return (_path_has_prefix(path, self.only_under)
                and not _path_has_prefix(path, self.allow_under))

    def check(self, path: str, toks: list[Token],
              ctx: "TreeContext") -> list[Finding]:
        raise NotImplementedError


@dataclass
class TreeContext:
    """Cross-file facts gathered in a first pass over the whole scanned
    tree (declarations live in headers, loops in .cpp files)."""
    unordered_vars: set[str] = field(default_factory=set)
    unordered_aliases: set[str] = field(default_factory=set)


_UNORDERED_TYPES = ("unordered_map", "unordered_set", "unordered_multimap",
                    "unordered_multiset")


def _skip_template_args(toks: list[Token], i: int) -> int:
    """toks[i] == '<'; returns index one past the matching '>'."""
    depth = 0
    while i < len(toks):
        t = toks[i].text
        if t == "<":
            depth += 1
        elif t == ">":
            depth -= 1
            if depth == 0:
                return i + 1
        elif t == ">>":
            depth -= 2
            if depth <= 0:
                return i + 1
        elif t in (";", "{"):
            return i  # malformed / not actually template args
        i += 1
    return i


def collect_unordered_decls(toks: list[Token], ctx: TreeContext) -> None:
    """Records variable / member names declared with an unordered container
    type, and `using X = std::unordered_...` aliases."""
    i = 0
    n = len(toks)
    while i < n:
        t = toks[i]
        if t.kind == IDENT and t.text in _UNORDERED_TYPES:
            # `using Alias = std::unordered_map<...>;`
            j = i - 1
            while j >= 0 and toks[j].text in ("::", "std"):
                j -= 1
            if j >= 1 and toks[j].text == "=" and toks[j - 1].kind == IDENT \
                    and j >= 2 and toks[j - 2].text == "using":
                ctx.unordered_aliases.add(toks[j - 1].text)
            if i + 1 < n and toks[i + 1].text == "<":
                k = _skip_template_args(toks, i + 1)
                # Optional cv/ref/ptr decorations, then the declared name.
                while k < n and toks[k].text in ("&", "*", "const"):
                    k += 1
                if k < n and toks[k].kind == IDENT and k + 1 < n \
                        and toks[k + 1].text in (";", "=", "{", ",", ")"):
                    ctx.unordered_vars.add(toks[k].text)
                i = k
                continue
        i += 1


def collect_alias_decls(toks: list[Token], ctx: TreeContext) -> None:
    """Second collection pass: `Alias name;` declarations for aliases found
    in the first pass."""
    n = len(toks)
    for i, t in enumerate(toks):
        if t.kind == IDENT and t.text in ctx.unordered_aliases:
            if i + 1 < n and toks[i + 1].kind == IDENT and i + 2 < n \
                    and toks[i + 2].text in (";", "=", "{"):
                ctx.unordered_vars.add(toks[i + 1].text)


class WallClockRule(Rule):
    _BANNED_IDENTS = ("steady_clock", "system_clock", "high_resolution_clock")
    _BANNED_CALLS = ("time", "clock", "gettimeofday", "clock_gettime",
                     "localtime", "gmtime", "mktime")

    def check(self, path, toks, ctx):
        out = []
        for i, t in enumerate(toks):
            if t.kind != IDENT:
                continue
            if t.text in self._BANNED_IDENTS:
                out.append(Finding(
                    path, t.line, self.name,
                    f"'{t.text}' reads the host clock; simulation code must "
                    "use sim::Simulator time"))
            elif (t.text in self._BANNED_CALLS and _is_call(toks, i)
                  and not _is_member_access(toks, i)):
                # `std::time(...)` / `::time(...)` / `time(...)`; member
                # calls like `queue.next_time()` are fine.
                qualifier_ok = not (i >= 1 and toks[i - 1].text == "::") or \
                    (i >= 2 and toks[i - 2].text == "std") or \
                    (i >= 1 and toks[i - 1].text == "::"
                     and (i < 2 or toks[i - 2].kind != IDENT))
                if qualifier_ok:
                    out.append(Finding(
                        path, t.line, self.name,
                        f"'{t.text}()' reads the host clock; simulation code "
                        "must use sim::Simulator time"))
        return out


class GlobalRngRule(Rule):
    _BANNED = ("random_device",)
    _BANNED_CALLS = ("rand", "srand", "rand_r", "drand48", "srandom")

    def check(self, path, toks, ctx):
        out = []
        for i, t in enumerate(toks):
            if t.kind != IDENT:
                continue
            if t.text in self._BANNED:
                out.append(Finding(
                    path, t.line, self.name,
                    f"'{t.text}' is nondeterministic; derive a util::Rng "
                    "substream from the scenario seed instead"))
            elif (t.text in self._BANNED_CALLS and _is_call(toks, i)
                  and not _is_member_access(toks, i)):
                out.append(Finding(
                    path, t.line, self.name,
                    f"'{t.text}()' uses hidden global RNG state; use "
                    "util::Rng substreams"))
        return out


class UnorderedIterRule(Rule):
    def check(self, path, toks, ctx):
        out = []
        n = len(toks)
        for i, t in enumerate(toks):
            # Range-for over a known unordered variable:
            #   for ( <decl> : NAME )   /  for ( <decl> : this->NAME )
            if t.kind == IDENT and t.text == "for" and _is_call(toks, i):
                colon = self._range_for_colon(toks, i + 1)
                if colon is None:
                    continue
                name = self._range_expr_name(toks, colon)
                if name is not None and name in ctx.unordered_vars:
                    out.append(Finding(
                        path, toks[colon].line, self.name,
                        f"range-for over unordered container '{name}' "
                        "iterates in standard-library hash order; use a "
                        "sorted flat container or sort before iterating"))
            # Explicit iterator loop: NAME.begin() / NAME.cbegin()
            if (t.kind == IDENT and t.text in ("begin", "cbegin")
                    and _is_call(toks, i) and _is_member_access(toks, i)
                    and i >= 2 and toks[i - 2].kind == IDENT
                    and toks[i - 2].text in ctx.unordered_vars):
                out.append(Finding(
                    path, t.line, self.name,
                    f"iterator over unordered container '{toks[i - 2].text}' "
                    "walks standard-library hash order; use a sorted flat "
                    "container or collect-and-sort first"))
        return out

    @staticmethod
    def _range_for_colon(toks, open_paren):
        """Index of the ':' at depth 1 of a for-header, or None (classic
        three-clause for). `::` is a single token, so no confusion."""
        depth = 0
        i = open_paren
        while i < len(toks):
            t = toks[i].text
            if t == "(":
                depth += 1
            elif t == ")":
                depth -= 1
                if depth == 0:
                    return None
            elif t == ";" and depth == 1:
                return None
            elif t == ":" and depth == 1:
                return i
            i += 1
        return None

    @staticmethod
    def _range_expr_name(toks, colon):
        """The identifier being ranged over, for plain `NAME` or
        `this->NAME` / `obj.NAME` chains; None for call expressions (we
        cannot resolve return types)."""
        # Find matching ')' of the for-header.
        depth = 1
        i = colon + 1
        last_ident = None
        prev = None
        while i < len(toks):
            t = toks[i]
            if t.text == "(":
                depth += 1
            elif t.text == ")":
                depth -= 1
                if depth == 0:
                    break
            if depth >= 1:
                if t.kind == IDENT:
                    last_ident = t.text
                    prev = "ident"
                elif t.text in (".", "->"):
                    prev = "access"
                else:
                    prev = "other"
            i += 1
        # `m`, `this->m` end on an identifier; `f()` ends on ')'.
        return last_ident if prev == "ident" else None


class HotPathRule(Rule):
    def check(self, path, toks, ctx):
        out = []
        n = len(toks)
        for i, t in enumerate(toks):
            if t.kind != IDENT:
                continue
            if t.text == "function" and _is_std_qualified(toks, i):
                out.append(Finding(
                    path, t.line, self.name,
                    "std::function in a zero-alloc-loop file: it heap-"
                    "allocates large captures; use sim::InplaceEvent or a "
                    "template parameter"))
            elif t.text == "make_shared":
                out.append(Finding(
                    path, t.line, self.name,
                    "make_shared in a zero-alloc-loop file allocates a "
                    "control block per call; pool or pre-size instead"))
            elif (t.text == "new" and i + 1 < n and toks[i + 1].kind == IDENT
                  and (i == 0 or toks[i - 1].text != "::")):
                # `new T(...)` allocates; placement `::new (buf) T` and
                # `new (buf) T` (next token '(') do not.
                out.append(Finding(
                    path, t.line, self.name,
                    f"naked 'new {toks[i + 1].text}' in a zero-alloc-loop "
                    "file; pool or pre-size instead"))
        return out


class IoDisciplineRule(Rule):
    _BANNED_STREAMS = ("cout", "cerr", "clog")
    _BANNED_CALLS = ("printf", "fprintf", "puts", "fputs", "putchar")

    def check(self, path, toks, ctx):
        out = []
        for i, t in enumerate(toks):
            if t.kind != IDENT:
                continue
            if t.text in self._BANNED_STREAMS and _is_std_qualified(toks, i):
                out.append(Finding(
                    path, t.line, self.name,
                    f"std::{t.text} in simulation code; report through "
                    "util::Logger or a stream passed in by the caller"))
            elif (t.text in self._BANNED_CALLS and _is_call(toks, i)
                  and not _is_member_access(toks, i)):
                out.append(Finding(
                    path, t.line, self.name,
                    f"'{t.text}()' in simulation code; report through "
                    "util::Logger or a stream passed in by the caller"))
        return out


# Files participating in the zero-allocation steady-state loop (see
# tests/test_zero_alloc.cpp). Extend when a new subsystem joins the loop.
HOT_PATH_PREFIXES = (
    "src/sim/",
    "src/net/",
    "src/cluster/agent",
    "src/geom/grid_index",
)

RULES: list[Rule] = [
    WallClockRule(
        name="wall-clock",
        description="no host-clock reads in simulation code",
        only_under=("src/",),
        # Sweep plumbing measures host wall time by design: run timing
        # (runner) and progress reporting. Simulated time never flows there.
        allow_under=("src/util/progress", "src/scenario/runner"),
    ),
    GlobalRngRule(
        name="global-rng",
        description="all randomness via util::Rng substreams",
        only_under=("src/",),
        allow_under=("src/util/rng",),
    ),
    UnorderedIterRule(
        name="unordered-iter",
        description="no iteration over unordered containers",
        only_under=("src/",),
    ),
    HotPathRule(
        name="hot-path",
        description="no std::function / new / make_shared in zero-alloc files",
        only_under=HOT_PATH_PREFIXES,
    ),
    IoDisciplineRule(
        name="io-discipline",
        description="no direct stdout/stderr writes outside util/",
        only_under=("src/",),
        allow_under=("src/util/",),
    ),
]

RULE_NAMES = {r.name for r in RULES} | {"suppression"}


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------

_EXTS = (".h", ".hpp", ".hh", ".cpp", ".cc", ".cxx")


def gather_files(root: str, paths: list[str]) -> list[str]:
    """Expands CLI paths (relative to root) to a sorted list of
    repo-relative source files."""
    files: set[str] = set()
    for p in paths:
        full = p if os.path.isabs(p) else os.path.join(root, p)
        if os.path.isfile(full):
            files.add(os.path.relpath(full, root))
        elif os.path.isdir(full):
            for dirpath, dirnames, filenames in os.walk(full):
                dirnames[:] = sorted(d for d in dirnames
                                     if not d.startswith("."))
                for fn in filenames:
                    if fn.endswith(_EXTS):
                        files.add(os.path.relpath(
                            os.path.join(dirpath, fn), root))
        else:
            print(f"manet-lint: no such path: {p}", file=sys.stderr)
            sys.exit(2)
    return sorted(f.replace(os.sep, "/") for f in files)


def lint_tree(root: str, rel_files: list[str],
              rule_filter: set[str] | None = None) -> tuple[
        list[Finding], list[Suppression]]:
    """Runs all rules over the file set; returns surviving findings and the
    suppressions that were honored."""
    parsed: dict[str, list[Token]] = {}
    for rel in rel_files:
        with open(os.path.join(root, rel), "r", encoding="utf-8",
                  errors="replace") as fh:
            parsed[rel] = tokenize(fh.read())

    # Pass 1: cross-file declaration facts.
    ctx = TreeContext()
    for toks in parsed.values():
        collect_unordered_decls(code_tokens(toks), ctx)
    for toks in parsed.values():
        collect_alias_decls(code_tokens(toks), ctx)

    # Pass 2: rules + suppressions per file.
    findings: list[Finding] = []
    honored: list[Suppression] = []
    for rel, toks in parsed.items():
        sups, bad = scan_suppressions(rel, toks)
        for s in sups:
            if s.rule not in RULE_NAMES:
                bad.append(Finding(
                    s.path, s.line, "suppression",
                    f"suppression names unknown rule '{s.rule}'"))
        file_findings: list[Finding] = []
        code = code_tokens(toks)
        for rule in RULES:
            if rule_filter is not None and rule.name not in rule_filter:
                continue
            if rule.applies(rel):
                file_findings.extend(rule.check(rel, code, ctx))
        survivors = apply_suppressions(file_findings, sups)
        silenced_count = len(file_findings) - len(survivors)
        # Suppressions that silenced something are "honored"; unused ones
        # are fine (they may guard a line that is clean on this platform).
        if silenced_count > 0 or sups:
            honored.extend(sups)
        findings.extend(survivors)
        # Suppression-syntax findings respect --rule filtering too.
        if rule_filter is None or "suppression" in rule_filter:
            findings.extend(bad)
    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    return findings, honored


def count_suppressions(root: str, rel_files: list[str]) -> list[Suppression]:
    out: list[Suppression] = []
    for rel in rel_files:
        with open(os.path.join(root, rel), "r", encoding="utf-8",
                  errors="replace") as fh:
            toks = tokenize(fh.read())
        sups, _ = scan_suppressions(rel, toks)
        out.extend(sups)
    return out


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(
        prog="manet-lint",
        description="determinism-contract linter for the MANET simulator")
    ap.add_argument("paths", nargs="*", default=None,
                    help="files/dirs relative to --root (default: src)")
    ap.add_argument("--root", default=".",
                    help="repository root the rule path prefixes are "
                         "resolved against (default: cwd)")
    ap.add_argument("--werror", action="store_true",
                    help="exit 2 if any finding survives suppression")
    ap.add_argument("--rule", action="append", dest="rules", metavar="NAME",
                    help="run only this rule (repeatable)")
    ap.add_argument("--list-rules", action="store_true",
                    help="print the rule table and exit")
    ap.add_argument("--count-suppressions", action="store_true",
                    help="print every suppression and the total, then exit 0")
    ap.add_argument("--max-suppressions", type=int, default=None,
                    metavar="N",
                    help="fail (exit 2) if more than N suppressions exist "
                         "in the scanned files")
    args = ap.parse_args(argv)

    if args.list_rules:
        for r in RULES:
            scope = ", ".join(p or "<everywhere>" for p in r.only_under)
            print(f"{r.name:16s} {r.description}")
            print(f"{'':16s}   scope: {scope}")
            if r.allow_under:
                print(f"{'':16s}   allowed: {', '.join(r.allow_under)}")
        return 0

    if args.rules:
        unknown = set(args.rules) - RULE_NAMES
        if unknown:
            print(f"manet-lint: unknown rule(s): {', '.join(sorted(unknown))}",
                  file=sys.stderr)
            return 2

    root = os.path.abspath(args.root)
    paths = args.paths if args.paths else ["src"]
    rel_files = gather_files(root, paths)
    if not rel_files:
        print("manet-lint: no source files found", file=sys.stderr)
        return 2

    if args.count_suppressions:
        sups = count_suppressions(root, rel_files)
        for s in sups:
            print(f"{s.path}:{s.line}: allow({s.rule}): {s.justification}")
        print(f"total: {len(sups)}")
        if args.max_suppressions is not None \
                and len(sups) > args.max_suppressions:
            print(f"manet-lint: suppression budget exceeded: {len(sups)} > "
                  f"{args.max_suppressions}", file=sys.stderr)
            return 2
        return 0

    rule_filter = set(args.rules) if args.rules else None
    findings, _ = lint_tree(root, rel_files, rule_filter)
    for f in findings:
        print(f.render())

    if args.max_suppressions is not None:
        sups = count_suppressions(root, rel_files)
        if len(sups) > args.max_suppressions:
            print(f"manet-lint: suppression budget exceeded: {len(sups)} > "
                  f"{args.max_suppressions}", file=sys.stderr)
            return 2

    if findings:
        print(f"manet-lint: {len(findings)} finding(s) in "
              f"{len(rel_files)} file(s)", file=sys.stderr)
        return 2 if args.werror else 0
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
