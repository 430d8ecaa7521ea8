#!/usr/bin/env python3
"""hartlint — HART-specific concurrency & persistence discipline checks.

Four source rules encode the invariants that Clang's thread safety
analysis cannot express (TSA reasons about mutexes; HART's correctness
also rests on epochs, seqlocks and explicit persistence):

  HL001 missed-flush            Every annotated PM store
                                (Arena::trace_store / pm_write) must be
                                post-dominated by a persist()/persist_off()
                                call before the function returns. A store
                                that never reaches a flush is volatile
                                under the crash model — recovery will read
                                stale bytes.

  HL002 guard-escape            A raw pointer obtained from an
                                EBR-protected read inside an ebr::Guard
                                scope must not escape that scope (returned
                                or assigned to an outer variable). The
                                guard's destructor unpins the epoch; after
                                that the pointee may be reclaimed at any
                                time. Copy the bytes out, not the pointer.

  HL003 unpinned-retire         Domain::retire() — and every function
                                marked REQUIRES_EBR_PIN — may only be
                                called while the thread holds a live
                                ebr::Guard (lexically in scope) or from
                                another REQUIRES_EBR_PIN function. An
                                unpinned retire can push into a limbo
                                bucket that an unpinned reader still
                                traverses.

  HL004 unvalidated-seqlock-read A reader that captures a seqlock version
                                word (e.g. partition mod_version)
                                must re-load and compare it after reading
                                the protected fields. Without the
                                re-validation the "snapshot" may be torn.
                                Writers (capture followed by .store of the
                                same word) are exempt.

With --with-pmlint the three pmlint persistence rules (PL001/PL002/PL003,
see tools/pmlint.py) run over the same file set and report through the
same channel, so one CI gate covers both rule families.

Findings are suppressed by an auditable annotation on the same or the
preceding line:

    HARTLINT_SUPPRESS("HL003: tree has no EBR domain (eager frees)");

The macro (src/common/annotations.h) expands to nothing; the string must
name the rule being suppressed (or "ALL").

Like pmlint, these are heuristics tuned for zero false positives on this
tree over completeness. Exit status is the number of findings (0 =
clean). --expect=RULE inverts the gate for the negative corpus: exit 0
iff at least one RULE finding and no findings of any other rule.

Usage:
  hartlint.py [--with-pmlint] [--compdb build/compile_commands.json]
              [--expect=HLxxx] [PATH ...]          (default paths: src/)
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

CPP_SUFFIXES = {".cc", ".cpp", ".cxx", ".h", ".hpp"}
IDENT = r"[A-Za-z_]\w*"

SUPPRESS_RE = re.compile(r'HARTLINT_SUPPRESS\s*\(\s*"([^"]*)"')

# ---------------------------------------------------------------------------
# Shared text machinery
# ---------------------------------------------------------------------------


def strip_comments_keep_lines(text: str) -> str:
    """Blank out comments but keep every newline, so offsets and line
    numbers computed on the result map 1:1 onto the original file."""

    def blank(m: re.Match) -> str:
        return re.sub(r"[^\n]", " ", m.group(0))

    text = re.sub(r"/\*.*?\*/", blank, text, flags=re.S)
    return re.sub(r"//[^\n]*", blank, text)


def line_of(text: str, pos: int) -> int:
    return text.count("\n", 0, pos) + 1


def function_bodies(text: str):
    """Yield (name, start_line, body_text) for every brace-delimited body
    following a ')'. `name` is the function's unqualified identifier ("" if
    it cannot be extracted). Descends into class/namespace braces; does not
    descend into the yielded bodies themselves."""
    i = 0
    n = len(text)
    while i < n:
        open_brace = text.find("{", i)
        if open_brace < 0:
            return
        before = text[:open_brace].rstrip()
        before_stripped = re.sub(
            r"\b(const|noexcept|override|final|->\s*[\w:<>&*\s]+)\s*$", "",
            before).rstrip()
        # Trailing TSA / hartlint annotation macros sit between ')' and '{'.
        before_stripped = re.sub(
            r"\b(?:REQUIRES|REQUIRES_SHARED|ACQUIRE|ACQUIRE_SHARED|RELEASE"
            r"|RELEASE_SHARED|RELEASE_GENERIC|TRY_ACQUIRE|TRY_ACQUIRE_SHARED"
            r"|EXCLUDES|NO_THREAD_SAFETY_ANALYSIS|REQUIRES_EBR_PIN)"
            r"\s*(?:\([^()]*\))?\s*$", "", before_stripped).rstrip()
        is_fn = before_stripped.endswith(")")
        depth = 1
        j = open_brace + 1
        while j < n and depth:
            if text[j] == "{":
                depth += 1
            elif text[j] == "}":
                depth -= 1
            j += 1
        if is_fn:
            sig_start = max(before.rfind(";"), before.rfind("}"),
                            before.rfind("{"))
            sig = before[sig_start + 1:]
            names = re.findall(rf"({IDENT})\s*\(", sig)
            # First call-shaped identifier that is not a keyword/macro.
            name = ""
            for cand in names:
                if cand in ("if", "for", "while", "switch", "catch",
                            "return", "sizeof", "alignof", "decltype",
                            "static_assert", "REQUIRES", "REQUIRES_SHARED",
                            "ACQUIRE", "RELEASE", "EXCLUDES"):
                    continue
                name = cand
                break
            yield name, line_of(text, open_brace), text[open_brace:j]
            i = j
        else:
            i = open_brace + 1


def block_spans(body: str):
    """For every '{' in `body`, map its offset -> offset one past its
    matching '}'. Used to turn a declaration's position into its enclosing
    lexical scope."""
    spans = {}
    stack = []
    for i, ch in enumerate(body):
        if ch == "{":
            stack.append(i)
        elif ch == "}" and stack:
            spans[stack.pop()] = i + 1
    return spans


def enclosing_block(body: str, pos: int, spans) -> tuple[int, int]:
    """Innermost {...} block containing `pos` (falls back to the whole
    body)."""
    best = (0, len(body))
    for open_pos, close_pos in spans.items():
        if open_pos < pos < close_pos and (close_pos - open_pos) < (
                best[1] - best[0]):
            best = (open_pos, close_pos)
    return best


class FileCtx:
    """Per-file text, line cache and suppression lookup."""

    def __init__(self, path: Path):
        self.path = path
        raw = path.read_text(errors="replace")
        self.text = strip_comments_keep_lines(raw)
        self.lines = raw.splitlines()

    def suppressed(self, lineno: int, rule: str) -> bool:
        for ln in (lineno, lineno - 1):
            if 1 <= ln <= len(self.lines):
                m = SUPPRESS_RE.search(self.lines[ln - 1])
                if m and (rule in m.group(1) or "ALL" in m.group(1)):
                    return True
        return False


# ---------------------------------------------------------------------------
# Marked-function harvesting (HL003)
# ---------------------------------------------------------------------------

# `Leaf* insert(Key k, Leaf* leaf) REQUIRES_EBR_PIN` — the identifier whose
# parameter list immediately precedes the macro.
MARKED_DECL_RE = re.compile(
    rf"({IDENT})\s*\((?:[^()]|\([^()]*\))*\)\s*(?:const\s*)?REQUIRES_EBR_PIN",
    re.S)

# Names so generic that a bare call cannot be attributed to the marked
# declaration; they are only checked through a tree-typed receiver.
GENERIC_NAMES = {"insert", "remove"}

INCLUDE_RE = re.compile(r'#include\s+"([^"]+)"')


def harvest_marked(ctxs: dict[Path, FileCtx]):
    """Return (marked_names, declaring_headers: name -> set of include
    paths as written in #include directives)."""
    marked: dict[str, set[str]] = {}
    for path, ctx in ctxs.items():
        for name in MARKED_DECL_RE.findall(ctx.text):
            # The include path as other files would spell it (relative to
            # src/).
            parts = path.parts
            inc = "/".join(parts[parts.index("src") + 1:]) if "src" in parts \
                else path.name
            marked.setdefault(name, set()).add(inc)
    return marked


def include_closure(ctxs: dict[Path, FileCtx]) -> dict[Path, set[str]]:
    """Transitive set of quoted #include paths for every scanned file."""
    direct: dict[str, set[str]] = {}
    by_inc: dict[str, Path] = {}
    for path, ctx in ctxs.items():
        parts = path.parts
        inc = "/".join(parts[parts.index("src") + 1:]) if "src" in parts \
            else path.name
        by_inc[inc] = path
        direct[inc] = set(INCLUDE_RE.findall(ctx.text))
    closure: dict[str, set[str]] = {}

    def close(inc: str, seen: set[str]) -> set[str]:
        if inc in closure:
            return closure[inc]
        seen.add(inc)
        out = set(direct.get(inc, set()))
        for child in list(out):
            if child in direct and child not in seen:
                out |= close(child, seen)
        closure[inc] = out
        return out

    result = {}
    for inc, path in by_inc.items():
        result[path] = close(inc, set()) | {inc}
    return result


# ---------------------------------------------------------------------------
# HL001 missed-flush
# ---------------------------------------------------------------------------

PM_STORE_RE = re.compile(r"\b(?:trace_store|pm_write)\s*\(")
PERSIST_RE = re.compile(r"\b(?:persist|persist_off)\s*\(")


def check_hl001(ctx: FileCtx, findings: list[str]):
    for _name, start_line, body in function_bodies(ctx.text):
        stores = [m.start() for m in PM_STORE_RE.finditer(body)]
        if not stores:
            continue
        persists = [m.start() for m in PERSIST_RE.finditer(body)]
        for spos in stores:
            if any(p > spos for p in persists):
                continue
            lineno = start_line + body.count("\n", 0, spos)
            if ctx.suppressed(lineno, "HL001"):
                continue
            findings.append(
                f"{ctx.path}:{lineno}: HL001 missed-flush: PM store is not "
                f"followed by persist()/persist_off() in this function — "
                f"the bytes stay volatile under the crash model")


# ---------------------------------------------------------------------------
# HL002 guard-escape
# ---------------------------------------------------------------------------

GUARD_RE = re.compile(rf"\bebr::Guard\s+({IDENT})\s*\(")
PTR_DECL_IN_GUARD_RE = re.compile(
    rf"\b(?:auto\s*\*|(?:const\s+)?[\w:]+\s*\*)\s*(?:const\s+)?({IDENT})\s*=")


def check_hl002(ctx: FileCtx, findings: list[str]):
    for _name, start_line, body in function_bodies(ctx.text):
        guards = list(GUARD_RE.finditer(body))
        if not guards:
            continue
        spans = block_spans(body)
        for g in guards:
            blk_start, blk_end = enclosing_block(body, g.start(), spans)
            region = body[g.end():blk_end]
            region_off = g.end()
            ptrs = {}  # name -> decl offset (body coords)
            for m in PTR_DECL_IN_GUARD_RE.finditer(region):
                ptrs[m.group(1)] = region_off + m.start()
            if not ptrs:
                continue
            for pname, decl_pos in ptrs.items():
                esc = re.escape(pname)
                for m in re.finditer(rf"\breturn\s+{esc}\s*;", region):
                    pos = region_off + m.start()
                    if pos <= decl_pos:
                        continue
                    lineno = start_line + body.count("\n", 0, pos)
                    if ctx.suppressed(lineno, "HL002"):
                        continue
                    findings.append(
                        f"{ctx.path}:{lineno}: HL002 guard-escape: pointer "
                        f"'{pname}' obtained inside an ebr::Guard scope is "
                        f"returned — the guard unpins at scope exit and the "
                        f"pointee may be reclaimed; copy the bytes instead")
                # `outer = p;` / `*out = p;` where `outer` is not a local of
                # the guard scope.
                for m in re.finditer(
                        rf"(?:\*\s*)?({IDENT})\s*=\s*{esc}\s*;", region):
                    if m.group(1) in ptrs:
                        continue
                    pos = region_off + m.start()
                    if pos <= decl_pos:
                        continue
                    # Skip the pointer's own declaration (`T* p = ...`).
                    line_text = region[:m.end()].rsplit("\n", 1)[-1]
                    if re.search(rf"[\w>]\s*[*&]\s*{re.escape(m.group(1))}"
                                 rf"\s*=\s*{esc}", line_text):
                        continue
                    lineno = start_line + body.count("\n", 0, pos)
                    if ctx.suppressed(lineno, "HL002"):
                        continue
                    findings.append(
                        f"{ctx.path}:{lineno}: HL002 guard-escape: pointer "
                        f"'{pname}' obtained inside an ebr::Guard scope is "
                        f"stored to '{m.group(1)}' outside the scope — the "
                        f"pointee may be reclaimed after the guard unpins")


# ---------------------------------------------------------------------------
# HL003 unpinned-retire
# ---------------------------------------------------------------------------

RETIRE_CALL_RE = re.compile(r"(?:\.|->)\s*retire\s*\(")


def _self_inc(path: Path) -> str:
    parts = path.parts
    return "/".join(parts[parts.index("src") + 1:]) if "src" in parts \
        else path.name


def check_hl003(ctx: FileCtx, findings: list[str], marked, closure):
    incs = closure.get(ctx.path, set())
    # A body named like a marked function inherits the pin only in the file
    # that declares the marked function or its .cc companion — otherwise an
    # unrelated class's same-named method (DramIndex::insert vs
    # Tree::insert) would be falsely exempted.
    self_stem = str(Path(_self_inc(ctx.path)).with_suffix(""))
    self_marked = {
        name
        for name, headers in marked.items()
        if any(str(Path(h).with_suffix("")) == self_stem for h in headers)
    }
    # Bare-callable marked names visible to this file.
    visible = {
        name
        for name, headers in marked.items()
        if name not in GENERIC_NAMES and (headers & incs)
    }
    tree_callable = {
        name
        for name, headers in marked.items() if headers & incs
    }
    for fname, start_line, body in function_bodies(ctx.text):
        sites = [(m.start(), "Domain::retire()")
                 for m in RETIRE_CALL_RE.finditer(body)]
        for name in visible:
            for m in re.finditer(rf"(?<![\w.>]){re.escape(name)}\s*\(", body):
                sites.append((m.start(), f"{name}() [REQUIRES_EBR_PIN]"))
        for name in tree_callable:
            for m in re.finditer(
                    rf"\b\w*tree\w*\s*(?:\.|->)\s*{re.escape(name)}\s*\(",
                    body):
                sites.append((m.start(), f"Tree::{name}() [REQUIRES_EBR_PIN]"))
        if not sites:
            continue
        if fname in self_marked:  # enclosing function inherits the pin
            continue
        spans = block_spans(body)
        pinned = []
        for g in GUARD_RE.finditer(body):
            _s, e = enclosing_block(body, g.start(), spans)
            pinned.append((g.start(), e))
        for pos, what in sorted(set(sites)):
            if any(s <= pos < e for s, e in pinned):
                continue
            lineno = start_line + body.count("\n", 0, pos)
            if ctx.suppressed(lineno, "HL003"):
                continue
            findings.append(
                f"{ctx.path}:{lineno}: HL003 unpinned-retire: call to {what} "
                f"without a live ebr::Guard in scope and outside any "
                f"REQUIRES_EBR_PIN function — a concurrent reader may still "
                f"hold the retired memory")


# ---------------------------------------------------------------------------
# HL004 unvalidated-seqlock-read
# ---------------------------------------------------------------------------

# `const uint32_t v0 = vseq.load(...)` / `uint64_t v = p->mod_version.load(`
SEQ_CAPTURE_RE = re.compile(
    rf"\b(?:const\s+)?(?:uint32_t|uint64_t|auto)\s+({IDENT})\s*=\s*"
    rf"((?:{IDENT}(?:\.|->))*\w*(?:vseq|version|_seq)\w*)\s*\.load\s*\(")


def check_hl004(ctx: FileCtx, findings: list[str]):
    for _name, start_line, body in function_bodies(ctx.text):
        for m in SEQ_CAPTURE_RE.finditer(body):
            var, word = m.group(1), m.group(2)
            tail = body[m.end():]
            wre = re.escape(word)
            vre = re.escape(var)
            # Writer: capture then store back into the same word — exempt.
            if re.search(rf"{wre}\s*\.store\s*\(", tail):
                continue
            revalidated = re.search(
                rf"{wre}\s*\.load\s*\([^;]*\)\s*[!=]=\s*{vre}\b", tail) \
                or re.search(
                    rf"\b{vre}\s*[!=]=\s*{wre}\s*\.load\s*\(", tail)
            if revalidated:
                continue
            lineno = start_line + body.count("\n", 0, m.start())
            if ctx.suppressed(lineno, "HL004"):
                continue
            findings.append(
                f"{ctx.path}:{lineno}: HL004 unvalidated-seqlock-read: "
                f"version word '{word}' is captured into '{var}' but never "
                f"re-loaded and compared — the read snapshot may be torn")


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------


def collect_files(paths: list[Path], compdb: Path | None) -> list[Path]:
    files: list[Path] = []
    if compdb is not None:
        entries = json.loads(compdb.read_text())
        seen = set()
        for e in entries:
            f = Path(e["directory"], e["file"]).resolve()
            if f.suffix in CPP_SUFFIXES and f.exists() and f not in seen:
                seen.add(f)
                files.append(f)
        # Headers never appear in a compile database; sweep them from the
        # source roots of the listed files.
        roots = {f.parents[len(f.parents) - 1] for f in files}
        src_dirs = set()
        for f in files:
            for anc in f.parents:
                if anc.name == "src":
                    src_dirs.add(anc)
        for d in sorted(src_dirs):
            files.extend(p for p in sorted(d.rglob("*.h")) if p not in seen)
        _ = roots
    for r in paths:
        if r.is_file():
            files.append(r)
        else:
            files.extend(p for p in sorted(r.rglob("*"))
                         if p.suffix in CPP_SUFFIXES)
    # De-dup, stable order.
    out, seen2 = [], set()
    for f in files:
        rf = f.resolve()
        if rf not in seen2:
            seen2.add(rf)
            out.append(f)
    return out


def run_pmlint(files: list[Path], ctxs: dict[Path, FileCtx],
               findings: list[str]):
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
    import pmlint  # noqa: E402

    pm_structs = pmlint.collect_pm_structs(files)
    raw: list[str] = []
    for f in files:
        pmlint.lint_file(f, pm_structs, raw)
    for item in raw:
        m = re.match(r"(.+?):(\d+): (PL\d+)", item)
        if m:
            ctx = ctxs.get(Path(m.group(1)))
            if ctx and ctx.suppressed(int(m.group(2)), m.group(3)):
                continue
        findings.append(item)


def main(argv: list[str]) -> int:
    paths: list[Path] = []
    compdb: Path | None = None
    with_pmlint = False
    list_suppressions = False
    expect: str | None = None
    it = iter(argv[1:])
    for a in it:
        if a == "--with-pmlint":
            with_pmlint = True
        elif a == "--list-suppressions":
            list_suppressions = True
        elif a.startswith("--expect="):
            expect = a.split("=", 1)[1]
        elif a == "--compdb":
            compdb = Path(next(it, ""))
        elif a.startswith("--compdb="):
            compdb = Path(a.split("=", 1)[1])
        elif a.startswith("-"):
            print(__doc__, file=sys.stderr)
            return 2
        else:
            paths.append(Path(a))
    if not paths and compdb is None:
        paths = [Path("src")]
    if compdb is not None and not compdb.exists():
        print(f"hartlint: compile database {compdb} not found",
              file=sys.stderr)
        return 2

    files = collect_files(paths, compdb)
    if not files:
        print("hartlint: no C++ sources to lint", file=sys.stderr)
        return 2

    ctxs = {f: FileCtx(f) for f in files}

    if list_suppressions:
        count = 0
        for ctx in ctxs.values():
            for lineno, line in enumerate(ctx.lines, 1):
                m = SUPPRESS_RE.search(line)
                if m:
                    print(f"{ctx.path}:{lineno}: {m.group(1)}")
                    count += 1
        print(f"hartlint: {count} suppression(s) in {len(files)} file(s)")
        return 0

    marked = harvest_marked(ctxs)
    closure = include_closure(ctxs)

    findings: list[str] = []
    for ctx in ctxs.values():
        check_hl001(ctx, findings)
        check_hl002(ctx, findings)
        check_hl003(ctx, findings, marked, closure)
        check_hl004(ctx, findings)
    if with_pmlint:
        run_pmlint(files, ctxs, findings)

    for f in sorted(findings):
        print(f)
    print(f"hartlint: {len(findings)} finding(s) in {len(files)} file(s)")

    if expect is not None:
        hits = [f for f in findings if f" {expect} " in f]
        others = [f for f in findings if f" {expect} " not in f]
        if hits and not others:
            print(f"hartlint: --expect={expect} satisfied "
                  f"({len(hits)} finding(s))")
            return 0
        print(f"hartlint: --expect={expect} NOT satisfied "
              f"({len(hits)} {expect}, {len(others)} other)", file=sys.stderr)
        return 1
    return min(len(findings), 125)


if __name__ == "__main__":
    sys.exit(main(sys.argv))
