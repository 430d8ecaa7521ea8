#!/usr/bin/env python3
"""pmlint — static lint for persistent-memory anti-patterns.

Complements the dynamic PMCheck checker (src/pmcheck/) with three source
heuristics that do not need the code to run:

  PL001 unpersisted-memcpy   A memcpy/memmove/memset whose destination was
                             obtained from Arena::ptr<T>() in the same
                             function — directly, or through a pointer
                             derived from it (member access `rec->bytes`,
                             pointer arithmetic `base + off`) — where
                             neither that pointer nor any pointer it was
                             derived from reaches a persist()/trace_store()
                             call in the function. The bytes land in PM but
                             nothing makes them durable.

  PL002 bad-pm-member        A struct placed in PM (it has a POff<> member,
                             or the tree dereferences it via ptr<Struct>())
                             declaring a virtual function or a raw-pointer
                             member. vtables and addresses are meaningless
                             after re-mapping; PM structs must hold offsets
                             (POff<T> / uint64_t) only.

  PL003 misaligned-persist   A persist() of a byte-count literal > 64 (one
                             cache line) rooted at a struct-field address
                             (&x->f / &x.f). The range spans multiple
                             cache lines from an address with no alignment
                             guarantee, so the flush count is one higher
                             than the byte count suggests; persist the whole
                             object or align the field.

These are heuristics: they favour zero false positives on this tree over
completeness (see DESIGN.md "PMCheck"). Exit status is the number of
findings (0 = clean), so it can gate CI directly.

Usage: pmlint.py [PATH ...]   (default: src/)
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

CPP_SUFFIXES = {".cc", ".cpp", ".cxx", ".h", ".hpp"}

IDENT = r"[A-Za-z_]\w*"

# `auto* pv = a.ptr<PmValue>(off);` / `char* vp = arena_.ptr<char>(x);`
PTR_DECL_RE = re.compile(
    rf"\b(?:auto|char|std::byte|{IDENT})\s*\*\s*(?:const\s+)?({IDENT})\s*=\s*"
    rf"[^;=]*\bptr\s*<[^<>;]*>\s*\("
)
MEMCPY_RE = re.compile(rf"\b(?:std::)?(?:memcpy|memmove|memset)\s*\(\s*([^,;]+),")
PERSIST_USE_RE_TMPL = r"\b(?:persist|trace_store)\s*\(\s*[^,;()]*\b{id}\b"

# Any pointer declaration — used to propagate PM-ness through aliases:
# `unsigned char* dst = rec->bytes;`, `char* p2 = base + 64;`.
ALIAS_DECL_RE = re.compile(
    rf"\b(?:auto|char|unsigned\s+char|uint8_t|std::byte|{IDENT})\s*\*\s*"
    rf"(?:const\s+)?({IDENT})\s*=\s*([^;]+);")

STRUCT_RE = re.compile(rf"\b(?:struct|class)\s+({IDENT})\s*(?:final\s*)?(?::[^{{]*)?{{")
PTR_DEREF_RE = re.compile(rf"\bptr\s*<\s*({IDENT})\s*>")
# A POff<> *member declaration* (no parens: `POff<T> f(...)` is a function).
POFF_MEMBER_RE = re.compile(
    rf"^\s*(?:const\s+)?(?:[\w:]+::)?POff\s*<[^;<>()]*>\s+{IDENT}\s*(?:=\s*[^;()]+)?;",
    re.M)
VIRTUAL_RE = re.compile(r"^\s*virtual\b")
# `Node* next;` / `char *p = nullptr;` members — but not `char key[..]`,
# not function declarations/definitions, not pointer-to-const-char literals.
RAW_PTR_MEMBER_RE = re.compile(
    rf"^\s*(?:const\s+)?[\w:]+(?:\s*<[^;<>]*>)?\s*\*\s*(?:const\s+)?{IDENT}\s*(?:=\s*[^;()]+)?;"
)

PERSIST_CALL_RE = re.compile(rf"\bpersist\s*\(\s*(&\s*{IDENT}\s*(?:->|\.)\s*[^,]+?),\s*(\d+)\s*\)")


def function_bodies(text: str):
    """Yield (start_line, body_text) for every brace-delimited body that
    follows a ')' — i.e. function definitions. Lexer-free and approximate,
    which is fine for a heuristic linter."""
    i = 0
    n = len(text)
    while i < n:
        open_brace = text.find("{", i)
        if open_brace < 0:
            return
        # A function body's '{' follows ')' (possibly with specifiers).
        before = text[:open_brace].rstrip()
        before = re.sub(r"\b(const|noexcept|override|final|->\s*[\w:<>&*\s]+)\s*$", "", before).rstrip()
        is_fn = before.endswith(")")
        depth = 1
        j = open_brace + 1
        while j < n and depth:
            if text[j] == "{":
                depth += 1
            elif text[j] == "}":
                depth -= 1
            j += 1
        if is_fn:
            yield text.count("\n", 0, open_brace) + 1, text[open_brace:j]
            i = j
        else:
            i = open_brace + 1


def struct_bodies(text: str):
    """Yield (name, start_line, body_text) for every struct/class."""
    for m in STRUCT_RE.finditer(text):
        depth = 1
        j = m.end()
        while j < len(text) and depth:
            if text[j] == "{":
                depth += 1
            elif text[j] == "}":
                depth -= 1
            j += 1
        yield m.group(1), text.count("\n", 0, m.start()) + 1, text[m.end():j]


def base_identifier(expr: str) -> str | None:
    expr = expr.strip().lstrip("&*(").strip()
    m = re.match(IDENT, expr)
    return m.group(0) if m else None


def strip_comments(text: str) -> str:
    text = re.sub(r"//[^\n]*", "", text)
    return re.sub(r"/\*.*?\*/", "", text, flags=re.S)


def lint_file(path: Path, pm_structs: set[str], findings: list[str]) -> None:
    text = strip_comments(path.read_text(errors="replace"))

    # --- PL001: memcpy into a ptr<>()-derived pointer with no persist ----
    for start_line, body in function_bodies(text):
        pm_ptrs = set()  # pointers taken from Arena::ptr<>()
        parents = {}  # alias name -> the PM pointer it was derived from
        decls = [("pm", m) for m in PTR_DECL_RE.finditer(body)]
        decls += [("alias", m) for m in ALIAS_DECL_RE.finditer(body)]
        for kind, m in sorted(decls, key=lambda km: km[1].start()):
            if kind == "pm":
                pm_ptrs.add(m.group(1))
            else:
                # A pointer whose initializer is rooted in a known PM
                # pointer (member access / array decay / arithmetic)
                # inherits its PM-ness.
                base = base_identifier(m.group(2))
                if base in pm_ptrs or base in parents:
                    if m.group(1) not in pm_ptrs:
                        parents[m.group(1)] = base
        if not pm_ptrs:
            continue

        def chain(name: str) -> list[str]:
            out = [name]
            while name in parents:
                name = parents[name]
                out.append(name)
            return out

        for m in MEMCPY_RE.finditer(body):
            dest = base_identifier(m.group(1))
            if dest not in pm_ptrs and dest not in parents:
                continue
            links = chain(dest)
            # Persisting the alias or anything it was derived from (the
            # whole record covers its member) discharges the store.
            if any(
                    re.search(PERSIST_USE_RE_TMPL.format(id=re.escape(c)),
                              body) for c in links):
                continue
            line = start_line + body.count("\n", 0, m.start())
            via = "" if dest in pm_ptrs else (
                f" (via alias of '{links[-1]}')")
            findings.append(
                f"{path}:{line}: PL001 unpersisted-memcpy: destination "
                f"'{dest}' comes from Arena::ptr<>(){via} but never reaches "
                f"persist()/trace_store() in this function"
            )

    # --- PL002: virtual / raw-pointer members in PM-placed structs -------
    for name, start_line, body in struct_bodies(text):
        if name not in pm_structs and not POFF_MEMBER_RE.search(body):
            continue
        # Only the struct's own top-level members, not nested bodies.
        top = re.sub(r"{[^{}]*}", "{}", body)
        for lineno, line in enumerate(top.splitlines()):
            if VIRTUAL_RE.search(line):
                findings.append(
                    f"{path}:{start_line + lineno}: PL002 bad-pm-member: "
                    f"virtual function in PM-placed struct '{name}' "
                    f"(vtable pointers do not survive re-mapping)"
                )
            elif RAW_PTR_MEMBER_RE.search(line) and "(" not in line:
                findings.append(
                    f"{path}:{start_line + lineno}: PL002 bad-pm-member: "
                    f"raw pointer member in PM-placed struct '{name}' "
                    f"(store a POff<T>/offset instead)"
                )

    # --- PL003: multi-line persist from an unaligned field address -------
    for m in PERSIST_CALL_RE.finditer(text):
        if int(m.group(2)) > 64:
            line = text.count("\n", 0, m.start()) + 1
            findings.append(
                f"{path}:{line}: PL003 misaligned-persist: "
                f"persist({m.group(1).strip()}, {m.group(2)}) spans more "
                f"than one cache line from a field address with no "
                f"alignment guarantee"
            )


def collect_pm_structs(files: list[Path]) -> set[str]:
    """Names dereferenced via ptr<Name>() anywhere in the scanned tree."""
    out: set[str] = set()
    for f in files:
        out.update(PTR_DEREF_RE.findall(strip_comments(f.read_text(errors="replace"))))
    return out


def main(argv: list[str]) -> int:
    roots = [Path(a) for a in argv[1:]] or [Path("src")]
    files: list[Path] = []
    for r in roots:
        if r.is_file():
            files.append(r)
        else:
            files.extend(p for p in sorted(r.rglob("*")) if p.suffix in CPP_SUFFIXES)
    if not files:
        print(f"pmlint: no C++ sources under {' '.join(map(str, roots))}", file=sys.stderr)
        return 2

    pm_structs = collect_pm_structs(files)
    findings: list[str] = []
    for f in files:
        lint_file(f, pm_structs, findings)

    for f in findings:
        print(f)
    print(f"pmlint: {len(findings)} finding(s) in {len(files)} file(s)")
    return min(len(findings), 125)


if __name__ == "__main__":
    sys.exit(main(sys.argv))
