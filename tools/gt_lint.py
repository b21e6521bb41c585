#!/usr/bin/env python3
"""gt_lint: repo-specific static analysis for the gametrace tree.

Encodes invariants that generic clang-tidy checks cannot express, so the
determinism and locking contracts stay compile-time artifacts:

  nondet-call       No nondeterminism sources (rand/time()/random_device/
                    wall clocks) inside report/merge/emit paths in
                    src/{core,stats,trace,obs}. Those paths feed the
                    bit-identical-across-workers outputs; one wall-clock
                    read there silently breaks the reproduction.
  nondet-iteration  No iteration over unordered containers (range-for or
                    begin()/end()) in the same report/merge/emit paths:
                    hash-order is seed- and libstdc++-version-dependent,
                    so it must never reach a fold or serialization order.
                    Order-independent folds (commutative integer sums)
                    carry a `gt-lint: allow(...)` justification comment.
  sink-tier         CaptureSink subclasses under src/ implement the one
                    delivery tier, OnColumns, and nothing else: OnPacket
                    and OnBatch are base-class adapters over it, so an
                    override would fork the stream a sink sees by entry
                    point. OnColumns must be spelled `override`/`final`
                    so hiding never masquerades as overriding.
  raw-contract      GT_CHECK/GT_DCHECK instead of raw assert(), and no
                    bare `throw` of foreign types in src/ - only the
                    environmental error types (net::PcapError,
                    trace::TraceError) and the contract machinery's own
                    ContractViolation may be thrown (DESIGN.md
                    "Correctness tooling").
  raw-mutex         Mutex members must be core::Mutex (and guards
                    core::MutexLock, condvars core::CondVar) from
                    src/core/thread_annotations.h, never the std types -
                    std primitives are invisible to Clang's Thread Safety
                    Analysis, so a raw std::mutex rots the annotation
                    layer.
  orphan-module     Every src/ header must be #included by production
                    code: another src/ file (not its own .cc), bench/,
                    examples/ or perfbench/. Files under a tests/
                    directory do not count, nor do the files of another
                    orphan module - a module that only tests reach is
                    dead code. The finding sits on the header's
                    `#pragma once` line.
  mirrored-count    No obs::Counter* / obs::Gauge* (or reference) data
                    member in src/ outside src/obs/. A component counts in
                    its own fields and a run harness publishes them into a
                    registry (DESIGN.md section 9, "Wiring"); a cached
                    instrument pointer is a second, mirrored copy of a
                    fact the component already holds.
  raw-binding       obs::ScopedObsBinding is named in src/ only under
                    src/obs/. A run beside other runs (a fleet shard, a
                    sweep point) binds an obs::ShardScope and folds it
                    with ShardScope::MergeInto; a hand-made binding is a
                    second copy of that job (DESIGN.md section 9,
                    "Wiring").
  run-harness       No call to RunUntil, AdvanceRingsTo or PublishCounts in
                    bench/ or examples/. Every simulated run goes through
                    the one run harness, core::RunHarnessed, which runs the
                    simulator, samples the flight grid and publishes the
                    counts; a hand-driven run is a second copy of that job
                    that samples nothing (DESIGN.md section 9, "Wiring").

The tree walk covers src/, bench/ and examples/; every rule but
run-harness looks at src/ only. The rules run on comment/string-stripped
source (a built-in lexer), so the tool needs nothing beyond Python and
runs everywhere.

Findings diff against a committed baseline (tools/gt_lint_baseline.txt):
new findings fail, and entries that no longer fire also fail until the
baseline is shrunk (`--update-baseline`), so enforcement only ratchets.

Suppressions: `// gt-lint: allow(<rule>) <why>` on the finding line or
the line above. The justification text is mandatory.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import re
import sys
from dataclasses import dataclass, field

# ---------------------------------------------------------------------------
# Shared rule tables
# ---------------------------------------------------------------------------

RULES = ("nondet-call", "nondet-iteration", "sink-tier", "raw-contract", "raw-mutex",
         "orphan-module", "mirrored-count", "raw-binding", "run-harness")

# Directories whose merge/emit paths must be deterministic.
DETERMINISM_DIRS = ("src/core", "src/stats", "src/trace", "src/obs")

# Function names that constitute report/merge/emit paths. The second
# alternation row covers the streaming-sketch subsystem (quantile sketch
# collapse, tiered-ring fold/advance, online-Hurst push): those paths feed
# merged snapshots directly, so hash-order or wall-clock reads there break
# worker-count invariance just as surely as in a Write/Merge.
EMIT_FUNC_RE = re.compile(
    r"^(Merge\w*|Finish\w*|Estimate\w*|Report\w*|Write\w*|Append\w*|To[A-Z]\w*|"
    r"Emit\w*|Dump\w*|Export\w*|Serialize\w*|Flush\w*|"
    r"Quantile\w*|Collapse\w*|Fold\w*|Advance\w*|Push\w*|Evict\w*)$"
)

# Calls that read nondeterministic state. Matched as call expressions
# (optionally std::/:: qualified, never member access).
NONDET_CALLS = {
    "rand", "srand", "rand_r", "drand48", "lrand48", "mrand48", "random",
    "time", "clock", "gettimeofday", "clock_gettime", "localtime", "gmtime",
}
# Type names that are nondeterminism sources wherever they appear in an
# emit path (construction or clock reads).
NONDET_TYPES = {"random_device", "system_clock", "high_resolution_clock"}

UNORDERED_RE = re.compile(r"std\s*::\s*unordered_(?:map|set|multimap|multiset)\b")

# Exception types src/ code may throw (environmental errors + the contract
# machinery itself). Compared against the last :: component.
THROW_ALLOWLIST = {"PcapError", "TraceError", "ContractViolation"}

RAW_SYNC_TYPES = (
    "std::mutex", "std::timed_mutex", "std::recursive_mutex",
    "std::recursive_timed_mutex", "std::shared_mutex", "std::shared_timed_mutex",
    "std::condition_variable", "std::condition_variable_any",
    "std::lock_guard", "std::unique_lock", "std::scoped_lock", "std::shared_lock",
)
# The annotated wrappers themselves are the one place std primitives live.
RAW_SYNC_EXEMPT_FILES = ("src/core/thread_annotations.h",)

# Trees whose #includes keep a src/ header alive (orphan-module). Files
# under a `tests` directory are skipped wherever they sit.
PRODUCTION_DIRS = ("src", "bench", "examples", "perfbench")
CXX_SUFFIXES = (".h", ".cc", ".cpp")
INCLUDE_RE = re.compile(r'^\s*#\s*include\s*"([^"]+)"')

# mirrored-count: an instrument pointer or reference declared as a data
# member (a declaration ending in `;`, optionally an array or with an
# initializer), outside function bodies. src/obs/ owns the instruments.
MIRRORED_MEMBER_RE = re.compile(
    r"(?<![\w:])(?:::\s*)?(?:gametrace\s*::\s*)?obs\s*::\s*(Counter|Gauge)\s*[*&]"
    r"\s*(?:const\s+)?[A-Za-z_]\w*\s*(?:\[[^\];]*\]\s*)?(?:=?\s*\{[^;}]*\}\s*|=[^;{]*)?;"
)
# src/obs/ owns the instruments and the binding guard: exempt from
# mirrored-count and raw-binding.
OBS_DIR = "src/obs/"

# raw-binding: the binding guard, named anywhere in src/ outside src/obs/.
RAW_BINDING_RE = re.compile(r"\bScopedObsBinding\b")

# run-harness: calls that drive or close a run by hand, in the trees whose
# runs go through core::RunHarnessed.
RUN_HARNESS_DIRS = ("bench/", "examples/")
RUN_HARNESS_RE = re.compile(r"\b(RunUntil|AdvanceRingsTo|PublishCounts)\s*\(")

SUPPRESS_RE = re.compile(r"gt-lint:\s*allow\(([\w,\- ]+)\)\s*(\S.*)?")


@dataclass(frozen=True)
class Finding:
    rule: str
    path: str  # repo-relative, forward slashes
    line: int  # 1-based
    message: str
    anchor: str  # normalized source line, for the baseline fingerprint

    def fingerprint(self) -> str:
        digest = hashlib.sha256(
            f"{self.rule}|{self.path}|{self.anchor}".encode()
        ).hexdigest()
        return digest[:12]

    def baseline_key(self) -> str:
        return f"{self.rule}|{self.path}|{self.fingerprint()}"

    def render(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


# ---------------------------------------------------------------------------
# Source preparation
# ---------------------------------------------------------------------------

def strip_comments_and_strings(text: str) -> str:
    """Blanks comments, string and char literals, preserving offsets/newlines."""
    out = list(text)
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            j = text.find("\n", i)
            j = n if j < 0 else j
            for k in range(i, j):
                out[k] = " "
            i = j
        elif c == "/" and nxt == "*":
            j = text.find("*/", i + 2)
            j = n - 2 if j < 0 else j
            for k in range(i, j + 2):
                if out[k] != "\n":
                    out[k] = " "
            i = j + 2
        elif c == '"':
            # Raw strings: R"delim( ... )delim"
            if i > 0 and text[i - 1] == "R" and (i < 2 or not text[i - 2].isalnum()):
                m = re.match(r'R"([^(\s\\]{0,16})\(', text[i - 1 : i + 20])
                if m:
                    delim = m.group(1)
                    close = f"){delim}\""
                    j = text.find(close, i + 1)
                    j = n - len(close) if j < 0 else j
                    end = j + len(close)
                    for k in range(i, end):
                        if out[k] != "\n":
                            out[k] = " "
                    i = end
                    continue
            j = i + 1
            while j < n and text[j] != '"':
                j += 2 if text[j] == "\\" else 1
            for k in range(i, min(j + 1, n)):
                out[k] = " "
            i = j + 1
        elif c == "'":
            j = i + 1
            while j < n and text[j] != "'":
                j += 2 if text[j] == "\\" else 1
            for k in range(i, min(j + 1, n)):
                out[k] = " "
            i = j + 1
        else:
            i += 1
    return "".join(out)


def collect_suppressions(text: str) -> dict[int, tuple[set[str], bool]]:
    """Maps 1-based line numbers to (rules allowed there, has-justification).

    A trailing directive covers its own line. A standalone comment line
    covers the following statement: every line up to and including the
    first one whose code ends in `;`, `{` or `}` (capped at 8 lines), so
    a wrapped call needs one directive, not one per continuation line.
    """
    allowed: dict[int, tuple[set[str], bool]] = {}
    lines = text.splitlines()

    def cover(target: int, rules: set[str], justified: bool) -> None:
        prev_rules, prev_just = allowed.get(target, (set(), True))
        allowed[target] = (prev_rules | rules, prev_just and justified)

    for lineno, line in enumerate(lines, start=1):
        comment = line.find("//")
        if comment < 0:
            continue
        m = SUPPRESS_RE.search(line[comment:])
        if not m:
            continue
        rules = {r.strip() for r in m.group(1).split(",") if r.strip()}
        justified = bool(m.group(2))
        code_before = line[:comment].strip()
        if code_before:
            cover(lineno, rules, justified)
            continue
        for target in range(lineno + 1, min(lineno + 9, len(lines) + 1)):
            cover(target, rules, justified)
            code = lines[target - 1]
            cut = code.find("//")
            code = (code if cut < 0 else code[:cut]).rstrip()
            if code.endswith((";", "{", "}")):
                break
    return allowed


def apply_suppressions(
    findings: list[Finding], per_file_allow: dict[str, dict[int, tuple[set[str], bool]]]
) -> tuple[list[Finding], list[Finding]]:
    kept: list[Finding] = []
    bad_suppressions: list[Finding] = []
    for f in findings:
        allow = per_file_allow.get(f.path, {}).get(f.line)
        if allow and (f.rule in allow[0] or "all" in allow[0]):
            if not allow[1]:
                bad_suppressions.append(
                    Finding(f.rule, f.path, f.line,
                            "suppression without justification text "
                            "(write `// gt-lint: allow(rule) <why>`)", f.anchor)
                )
            continue
        kept.append(f)
    return kept, bad_suppressions


# ---------------------------------------------------------------------------
# Function mapping + rule scans over stripped source
# ---------------------------------------------------------------------------

KEYWORDS_NOT_FUNCTIONS = {
    "if", "for", "while", "switch", "catch", "return", "sizeof", "alignof",
    "alignas", "decltype", "noexcept", "static_assert", "defined", "assert",
    "new", "delete", "throw", "case", "do", "else", "operator", "requires",
}

IDENT_CALL_RE = re.compile(r"([A-Za-z_]\w*)\s*\(")


@dataclass
class FunctionSpan:
    name: str
    body_start: int  # offset of '{'
    body_end: int  # offset past matching '}'


def _match_forward(text: str, start: int, open_ch: str, close_ch: str) -> int:
    """Offset past the bracket matching text[start] (which is open_ch)."""
    depth = 0
    for i in range(start, len(text)):
        if text[i] == open_ch:
            depth += 1
        elif text[i] == close_ch:
            depth -= 1
            if depth == 0:
                return i + 1
    return len(text)


def find_function_spans(clean: str) -> list[FunctionSpan]:
    """Finds function definitions: `name ( params ) [qualifiers] { body }`.

    Heuristic but resilient: candidate = identifier immediately before a
    '(' whose matching ')' is followed (after qualifiers / member-init
    lists / trailing return types) by '{'. Control-flow keywords and
    macro-style ALL_CAPS names are skipped.
    """
    spans: list[FunctionSpan] = []
    for m in IDENT_CALL_RE.finditer(clean):
        name = m.group(1)
        if name in KEYWORDS_NOT_FUNCTIONS:
            continue
        if name.isupper() and "_" in name:  # macro invocation (GT_CHECK, ...)
            continue
        open_paren = m.end() - 1
        after_params = _match_forward(clean, open_paren, "(", ")")
        i = after_params
        n = len(clean)
        body = -1
        while i < n:
            c = clean[i]
            if c.isspace():
                i += 1
            elif clean.startswith(("const", "noexcept", "override", "final", "mutable"), i) and \
                    not (i + 8 < n and clean[i:i + 9] == "constexpr"):
                i += len(next(k for k in ("noexcept", "override", "mutable", "final", "const")
                              if clean.startswith(k, i)))
                if i < n and clean[i] == "(":  # noexcept(...)
                    i = _match_forward(clean, i, "(", ")")
            elif c == "-" and clean.startswith("->", i):  # trailing return type
                i += 2
                while i < n and clean[i] not in "{;":
                    if clean[i] == "(":
                        i = _match_forward(clean, i, "(", ")")
                    elif clean[i] == "<":
                        i += 1  # angle matching is unreliable; scan on
                    else:
                        i += 1
            elif c == ":":  # constructor member-init list
                i += 1
                while i < n:
                    if clean[i] == "(":
                        i = _match_forward(clean, i, "(", ")")
                    elif clean[i] == "{":
                        prev = clean[:i].rstrip()
                        # `b_{y}` brace-init vs the body brace: init braces
                        # directly follow an identifier or '>' or ')'.
                        if prev and (prev[-1].isalnum() or prev[-1] in "_>)"):
                            i = _match_forward(clean, i, "{", "}")
                        else:
                            break
                    elif clean[i] == ";":
                        break
                    else:
                        i += 1
                if i < n and clean[i] == "{":
                    body = i
                break
            elif c == "{":
                body = i
                break
            else:
                break
        if body < 0:
            continue
        spans.append(FunctionSpan(name, body, _match_forward(clean, body, "{", "}")))
    return spans


def enclosing_function(spans: list[FunctionSpan], offset: int) -> FunctionSpan | None:
    best: FunctionSpan | None = None
    for s in spans:
        if s.body_start <= offset < s.body_end:
            if best is None or s.body_start > best.body_start:
                best = s  # innermost
    return best


def line_of(text: str, offset: int) -> int:
    return text.count("\n", 0, offset) + 1


def line_text(text: str, offset: int) -> str:
    start = text.rfind("\n", 0, offset) + 1
    end = text.find("\n", offset)
    end = len(text) if end < 0 else end
    return text[start:end]


def normalize_anchor(line: str) -> str:
    return re.sub(r"\s+", " ", line).strip()


class LexEngine:
    """Rule implementation over comment/string-stripped source text."""

    def __init__(self, root: str):
        self.root = root
        self._member_cache: dict[str, set[str]] = {}
        self._includers: dict[str, set[str]] | None = None
        self._orphans: set[str] | None = None

    # -- helpers ----------------------------------------------------------

    def _read_clean(self, relpath: str) -> tuple[str, str] | None:
        full = os.path.join(self.root, relpath)
        try:
            with open(full, encoding="utf-8", errors="replace") as fh:
                raw = fh.read()
        except OSError:
            return None
        return raw, strip_comments_and_strings(raw)

    def _unordered_members(self, relpath: str) -> set[str]:
        """Member/variable names with unordered container types, from this
        file plus its .h/.cc sibling (members live in headers, iteration in
        the .cc)."""
        stem, _ = os.path.splitext(relpath)
        names: set[str] = set()
        for candidate in (stem + ".h", stem + ".cc", relpath):
            if candidate in self._member_cache:
                names |= self._member_cache[candidate]
                continue
            got = self._read_clean(candidate)
            found: set[str] = set()
            if got is not None:
                _, clean = got
                for m in re.finditer(
                    r"std\s*::\s*unordered_(?:map|set|multimap|multiset)\s*<", clean
                ):
                    # Skip the template argument list, then take the
                    # declared name.
                    i = m.end() - 1
                    depth = 0
                    while i < len(clean):
                        if clean[i] == "<":
                            depth += 1
                        elif clean[i] == ">":
                            depth -= 1
                            if depth == 0:
                                break
                        i += 1
                    tail = clean[i + 1 : i + 160]
                    dm = re.match(r"\s*&?\s*([A-Za-z_]\w*)\s*(?:;|=|\{|,|\))", tail)
                    if dm:
                        found.add(dm.group(1))
            self._member_cache[candidate] = found
            names |= found
        return names

    def _production_includers(self) -> dict[str, set[str]]:
        """Maps each src/ header to the production files that #include it.

        A quoted include resolves against src/ (every target's include
        root) or the including file's own directory. Includes inside
        comments are ignored.
        """
        if self._includers is not None:
            return self._includers
        includers: dict[str, set[str]] = {}
        for top in PRODUCTION_DIRS:
            for dirpath, dirnames, filenames in os.walk(os.path.join(self.root, top)):
                dirnames[:] = sorted(d for d in dirnames if d != "tests")
                for name in sorted(filenames):
                    if not name.endswith(CXX_SUFFIXES):
                        continue
                    rel = os.path.relpath(os.path.join(dirpath, name), self.root)
                    rel = rel.replace(os.sep, "/")
                    got = self._read_clean(rel)
                    if got is None:
                        continue
                    raw, clean = got
                    for raw_line, clean_line in zip(raw.splitlines(), clean.splitlines()):
                        m = INCLUDE_RE.match(raw_line)
                        if not m or not clean_line.lstrip().startswith("#"):
                            continue
                        for target in ("src/" + m.group(1),
                                       os.path.dirname(rel) + "/" + m.group(1)):
                            target = os.path.normpath(target).replace(os.sep, "/")
                            includers.setdefault(target, set()).add(rel)
        self._includers = includers
        return includers

    # -- rules ------------------------------------------------------------

    def lint_file(self, relpath: str) -> list[Finding]:
        got = self._read_clean(relpath)
        if got is None:
            return []
        raw, clean = got
        if not relpath.startswith("src/"):
            return self._rule_run_harness(relpath, raw, clean)
        findings: list[Finding] = []
        in_det_dir = any(
            relpath.startswith(d + "/") or os.path.dirname(relpath) == d
            for d in DETERMINISM_DIRS
        )
        spans = find_function_spans(clean)

        if in_det_dir:
            findings += self._rule_nondet_call(relpath, raw, clean, spans)
            findings += self._rule_nondet_iteration(relpath, raw, clean, spans)
        findings += self._rule_sink_tier(relpath, raw, clean)
        findings += self._rule_raw_contract(relpath, raw, clean)
        findings += self._rule_raw_mutex(relpath, raw, clean)
        findings += self._rule_orphan_module(relpath, raw)
        findings += self._rule_mirrored_count(relpath, raw, clean, spans)
        findings += self._rule_raw_binding(relpath, raw, clean)
        return findings

    def _emit_spans(self, spans: list[FunctionSpan]) -> list[FunctionSpan]:
        return [s for s in spans if EMIT_FUNC_RE.match(s.name)]

    def _rule_nondet_call(self, relpath, raw, clean, spans) -> list[Finding]:
        findings = []
        for span in self._emit_spans(spans):
            body = clean[span.body_start : span.body_end]
            for m in IDENT_CALL_RE.finditer(body):
                callee = m.group(1)
                if callee not in NONDET_CALLS:
                    continue
                at = span.body_start + m.start()
                before = clean[:at].rstrip()
                # Member access (x.time(), p->clock()) is a different API;
                # qualification by std:: or :: stays banned.
                if before.endswith((".", "->")):
                    continue
                if before.endswith("::") and not (
                    before.endswith("std::") or re.search(r"(?<![\w:])::$", before)
                ):
                    continue
                findings.append(Finding(
                    "nondet-call", relpath, line_of(clean, at),
                    f"nondeterminism source `{callee}()` inside report/merge/emit "
                    f"path `{span.name}` - outputs must be a pure function of "
                    "(config, seed); use sim::Rng streams",
                    normalize_anchor(line_text(raw, at))))
            for t in NONDET_TYPES:
                for m in re.finditer(rf"\b{t}\b", body):
                    at = span.body_start + m.start()
                    findings.append(Finding(
                        "nondet-call", relpath, line_of(clean, at),
                        f"nondeterministic type/clock `{t}` inside report/merge/"
                        f"emit path `{span.name}`",
                        normalize_anchor(line_text(raw, at))))
        return findings

    def _rule_nondet_iteration(self, relpath, raw, clean, spans) -> list[Finding]:
        findings = []
        members = self._unordered_members(relpath)
        if not members:
            return findings
        member_re = re.compile(
            r"\b(" + "|".join(re.escape(m) for m in sorted(members)) + r")\b"
        )
        for span in self._emit_spans(spans):
            body = clean[span.body_start : span.body_end]
            for m in re.finditer(r"\bfor\s*\(", body):
                close = _match_forward(body, m.end() - 1, "(", ")")
                header = body[m.end() : close - 1]
                if ":" in header and member_re.search(header.split(":", 1)[1]):
                    at = span.body_start + m.start()
                    findings.append(Finding(
                        "nondet-iteration", relpath, line_of(clean, at),
                        f"range-for over unordered container in `{span.name}` - "
                        "hash order is not deterministic; iterate a sorted view "
                        "or justify order-independence with a gt-lint allow",
                        normalize_anchor(line_text(raw, at))))
            for m in re.finditer(
                r"\b([A-Za-z_]\w*)\s*\.\s*c?(?:begin|end)\s*\(", body
            ):
                if m.group(1) not in members:
                    continue
                at = span.body_start + m.start()
                findings.append(Finding(
                    "nondet-iteration", relpath, line_of(clean, at),
                    f"begin()/end() on unordered container `{m.group(1)}` in "
                    f"`{span.name}` - hash-order iteration in an emit/merge path",
                    normalize_anchor(line_text(raw, at))))
        return findings

    def _rule_sink_tier(self, relpath, raw, clean) -> list[Finding]:
        findings = []
        for m in re.finditer(
            r"\b(?:class|struct)\s+([A-Za-z_]\w*)"
            r"(?:\s+final)?\s*:\s*([^{;]*?CaptureSink[^{;]*)\{",
            clean,
        ):
            cls = m.group(1)
            body_start = m.end() - 1
            body_end = _match_forward(clean, body_start, "{", "}")
            body = clean[body_start:body_end]
            decls: dict[str, tuple[int, str]] = {}
            for dm in re.finditer(
                r"\bvoid\s+(OnPacket|OnBatch|OnColumns)\s*\(", body
            ):
                close = _match_forward(body, dm.end() - 1, "(", ")")
                rest = body[close : body.find("\n", close) if body.find("\n", close) > 0 else len(body)]
                # Qualifier run up to the body/semicolon.
                stop = len(body)
                for ch_i in range(close, len(body)):
                    if body[ch_i] in "{;":
                        stop = ch_i
                        break
                decls[dm.group(1)] = (body_start + dm.start(), body[close:stop])
            for name, (at, quals) in decls.items():
                if name != "OnColumns":
                    findings.append(Finding(
                        "sink-tier", relpath, line_of(clean, at),
                        f"{cls}::{name} overrides a record-at-a-time adapter - "
                        "sinks implement only OnColumns (iterate "
                        "PacketBatch::RecordAt for per-record logic)",
                        normalize_anchor(line_text(raw, at))))
                elif "override" not in quals and "final" not in quals:
                    findings.append(Finding(
                        "sink-tier", relpath, line_of(clean, at),
                        f"{cls}::OnColumns re-declares the CaptureSink delivery "
                        "tier without `override` - hiding would silently fork it",
                        normalize_anchor(line_text(raw, at))))
        return findings

    def _rule_raw_contract(self, relpath, raw, clean) -> list[Finding]:
        findings = []
        for m in re.finditer(r"(?<![\w.])assert\s*\(", clean):
            before = clean[:m.start()]
            if before.endswith(("static_", "_")):
                continue
            findings.append(Finding(
                "raw-contract", relpath, line_of(clean, m.start()),
                "raw assert() - use GT_CHECK (always-on contract) or GT_DCHECK "
                "(hot-path, sanitizer-enforced) from core/check.h",
                normalize_anchor(line_text(raw, m.start()))))
        for m in re.finditer(r"\bthrow\b", clean):
            tail = clean[m.end() : m.end() + 200].lstrip()
            if tail.startswith((";", ")")):  # rethrow / exception spec
                continue
            tm = re.match(r"([A-Za-z_][\w:]*)", tail)
            if not tm:
                continue
            thrown = tm.group(1).split("::")[-1]
            if thrown in THROW_ALLOWLIST:
                continue
            findings.append(Finding(
                "raw-contract", relpath, line_of(clean, m.start()),
                f"bare throw of `{tm.group(1)}` - invariant violations route "
                "through GT_CHECK, environmental errors through "
                "net::PcapError/trace::TraceError",
                normalize_anchor(line_text(raw, m.start()))))
        return findings

    def _rule_raw_mutex(self, relpath, raw, clean) -> list[Finding]:
        if relpath in RAW_SYNC_EXEMPT_FILES:
            return []
        findings = []
        for sync_type in RAW_SYNC_TYPES:
            pattern = re.escape(sync_type).replace("std\\:\\:", r"std\s*::\s*")
            for m in re.finditer(rf"\b{pattern}\b", clean):
                findings.append(Finding(
                    "raw-mutex", relpath, line_of(clean, m.start()),
                    f"`{sync_type}` is invisible to Thread Safety Analysis - "
                    "use core::Mutex / core::MutexLock / core::CondVar from "
                    "core/thread_annotations.h",
                    normalize_anchor(line_text(raw, m.start()))))
        return findings

    def _rule_mirrored_count(self, relpath, raw, clean, spans) -> list[Finding]:
        if not relpath.startswith("src/") or relpath.startswith(OBS_DIR):
            return []
        findings = []
        for m in MIRRORED_MEMBER_RE.finditer(clean):
            if enclosing_function(spans, m.start()) is not None:
                continue  # a local, not a member
            findings.append(Finding(
                "mirrored-count", relpath, line_of(clean, m.start()),
                f"cached obs::{m.group(1)} data member - count in a plain field "
                "and publish it into a registry from the run harness; a "
                "mirrored instrument counts the same fact twice",
                normalize_anchor(line_text(raw, m.start()))))
        return findings

    def _rule_raw_binding(self, relpath, raw, clean) -> list[Finding]:
        if not relpath.startswith("src/") or relpath.startswith(OBS_DIR):
            return []
        return [
            Finding(
                "raw-binding", relpath, line_of(clean, m.start()),
                "obs::ScopedObsBinding outside src/obs - bind an obs::ShardScope "
                "and fold it with ShardScope::MergeInto",
                normalize_anchor(line_text(raw, m.start())))
            for m in RAW_BINDING_RE.finditer(clean)
        ]

    def _rule_run_harness(self, relpath, raw, clean) -> list[Finding]:
        if not relpath.startswith(RUN_HARNESS_DIRS):
            return []
        return [
            Finding(
                "run-harness", relpath, line_of(clean, m.start()),
                f"{m.group(1)} drives a run by hand - go through "
                "core::RunHarnessed, which runs, samples and publishes every run",
                normalize_anchor(line_text(raw, m.start())))
            for m in RUN_HARNESS_RE.finditer(clean)
        ]

    def _orphan_headers(self) -> set[str]:
        """src/ headers no live production file includes. An include from an
        orphan module (its header or .cc) does not count either, so a chain
        of modules only tests reach is flagged whole."""
        if self._orphans is not None:
            return self._orphans
        includers = self._production_includers()
        headers = [f for f in discover_files(self.root) if f.endswith(".h")]
        orphans: set[str] = set()
        while True:
            dead = orphans | {h[:-2] + ".cc" for h in orphans}
            found = {h for h in headers
                     if not includers.get(h, set()) - dead - {h[:-2] + ".cc"}}
            if found == orphans:
                break
            orphans = found
        self._orphans = orphans
        return orphans

    def _rule_orphan_module(self, relpath, raw) -> list[Finding]:
        if relpath not in self._orphan_headers():
            return []
        m = re.search(r"^[ \t]*#[ \t]*pragma[ \t]+once\b.*$", raw, re.MULTILINE)
        at = m.start() if m else 0
        return [Finding(
            "orphan-module", relpath, line_of(raw, at),
            "no production file (src/ outside its own .cc and other orphan "
            "modules, bench/, examples/, perfbench/) includes this header - "
            "code only tests reach is dead; delete the module or give it a caller",
            normalize_anchor(line_text(raw, at)))]


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------

def discover_files(root: str) -> list[str]:
    files = []
    for top in ("src", "bench", "examples"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, top)):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith(CXX_SUFFIXES):
                    rel = os.path.relpath(os.path.join(dirpath, name), root)
                    files.append(rel.replace(os.sep, "/"))
    return files


def load_baseline(path: str) -> list[str]:
    if not os.path.exists(path):
        return []
    keys = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line and not line.startswith("#"):
                keys.append(line.split(" ", 1)[0])
    return keys


def write_baseline(path: str, findings: list[Finding]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(
            "# gt_lint baseline: grandfathered findings, one per line as\n"
            "#   <rule>|<path>|<fingerprint>  # <location hint>\n"
            "# This file may only SHRINK. Fix a finding, then run\n"
            "#   tools/gt_lint.py --update-baseline\n"
            "# Adding entries is not a supported workflow: new code must be\n"
            "# clean or carry a justified `// gt-lint: allow(rule) why`.\n")
        for f in sorted(findings, key=lambda f: (f.path, f.line, f.rule)):
            fh.write(f"{f.baseline_key()}  # {f.path}:{f.line}\n")


def run(root: str, baseline_path: str, paths: list[str],
        update_baseline: bool, report_path: str | None) -> int:
    engine = LexEngine(root)
    files = paths or discover_files(root)

    findings: list[Finding] = []
    per_file_allow: dict[str, dict[int, tuple[set[str], bool]]] = {}
    for rel in files:
        full = os.path.join(root, rel)
        if not os.path.exists(full):
            print(f"warning: {rel} does not exist, skipped", file=sys.stderr)
            continue
        try:
            with open(full, encoding="utf-8", errors="replace") as fh:
                per_file_allow[rel] = collect_suppressions(fh.read())
        except OSError:
            per_file_allow[rel] = {}
        findings.extend(engine.lint_file(rel))

    findings, bad_suppressions = apply_suppressions(findings, per_file_allow)
    findings.sort(key=lambda f: (f.path, f.line, f.rule))

    if update_baseline:
        write_baseline(baseline_path, findings)
        print(f"baseline updated: {len(findings)} grandfathered finding(s)")
        return 0

    baseline = load_baseline(baseline_path)
    baseline_left = list(baseline)
    new_findings: list[Finding] = []
    for f in findings:
        key = f.baseline_key()
        if key in baseline_left:
            baseline_left.remove(key)
        else:
            new_findings.append(f)

    lines: list[str] = []
    lines.append(f"gt_lint: {len(files)} file(s), "
                 f"{len(findings)} finding(s), "
                 f"{len(findings) - len(new_findings)} baselined, "
                 f"{len(new_findings)} new")
    for f in new_findings:
        lines.append(f.render())
    for f in bad_suppressions:
        lines.append(f.render())
    if baseline_left:
        lines.append(
            f"error: {len(baseline_left)} baseline entr(y/ies) no longer fire - "
            "the baseline may only shrink; run tools/gt_lint.py "
            "--update-baseline and commit:")
        for key in baseline_left:
            lines.append(f"  stale: {key}")

    out = "\n".join(lines)
    print(out)
    if report_path:
        os.makedirs(os.path.dirname(report_path) or ".", exist_ok=True)
        with open(report_path, "w", encoding="utf-8") as fh:
            fh.write(out + "\n")

    if new_findings or bad_suppressions or baseline_left:
        return 1
    print("gt_lint: OK")
    return 0


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=os.path.dirname(
        os.path.dirname(os.path.abspath(__file__))),
        help="repository root (default: parent of tools/)")
    parser.add_argument("--baseline", default=None,
                        help="baseline file (default: tools/gt_lint_baseline.txt)")
    parser.add_argument("--report", default=None,
                        help="also write the report to this file")
    parser.add_argument("--update-baseline", action="store_true",
                        help="rewrite the baseline with the current findings")
    parser.add_argument("paths", nargs="*",
                        help="repo-relative files to lint "
                             "(default: src/**, bench/**, examples/**)")
    args = parser.parse_args(argv)

    baseline = args.baseline or os.path.join(args.root, "tools", "gt_lint_baseline.txt")
    return run(args.root, baseline, [p.replace(os.sep, "/") for p in args.paths],
               args.update_baseline, args.report)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
