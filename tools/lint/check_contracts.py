#!/usr/bin/env python3
"""Source-level contract scanner for the axihc component model (lint layer 3).

Checks over src/**/*.hpp + the matching .cpp files, with whole-source
coverage (the runtime phase checker only audits code that actually
executed):

  endpoint-declaration  every Component subclass that owns TimingChannel or
                        AxiLink members must call add_endpoint()/
                        attach_endpoint() somewhere in its header or
                        implementation file, so the design-rule checker's
                        connectivity check sees the edges to its channels.

Two fact collectors feed one shared checker:

  --mode ast     libclang (python `clang` bindings): the class graph, base
                 specifiers and member types come from a real parse, so
                 macro-heavy or unusually-formatted declarations cannot slip
                 past the matcher.
  --mode regex   the dependency-free fallback: regex + brace matching.
  --mode auto    (default) ast when the clang bindings and a loadable
                 libclang are available, regex otherwise — so the check is
                 never skipped just because the toolchain is minimal.

Suppression (put the comment inside the class body):
  // contracts: allow-no-endpoint     -- channels are private plumbing that
                                         no connectivity check needs to see

Exit code: number of violations (0 = clean). Run from anywhere:
  python3 tools/lint/check_contracts.py [--root <repo>] [--mode auto|ast|regex]
"""

from __future__ import annotations

import argparse
import pathlib
import re
import sys

CLASS_RE = re.compile(
    r"\b(?:class|struct)\s+([A-Za-z_]\w*)\s*(?:final\s*)?"
    r"(?::\s*([^{;]+?))?\s*\{",
    re.DOTALL,
)
BASE_RE = re.compile(r"(?:public|protected|private|virtual|\s)*([A-Za-z_]\w*)")
# An owned channel member: TimingChannel<...> / AxiLink by value, or wrapped
# in unique_ptr / containers. Pointer/reference members are foreign state.
OWNED_CHANNEL_RE = re.compile(
    r"^\s*(?:mutable\s+)?"
    r"(?:TimingChannel\s*<[^;]*>\s*(?!\s*[*&])[A-Za-z_]\w*\s*[;{=]"
    r"|AxiLink\s+[A-Za-z_]\w*\s*[;{=]"
    r"|std::(?:vector|array|deque)\s*<\s*(?:std::unique_ptr\s*<\s*)?"
    r"(?:TimingChannel\s*<[^;]*?>|AxiLink)\s*>?\s*>\s*[A-Za-z_]\w*\s*[;{=]"
    r"|std::unique_ptr\s*<\s*(?:TimingChannel\s*<[^;]*?>|AxiLink)\s*>\s*"
    r"[A-Za-z_]\w*\s*[;{=])"
)
# Member-type names as libclang renders them (qualified or not).
AST_CHANNEL_TYPE_RE = re.compile(
    r"\b(?:axihc::)?(?:TimingChannel\s*<|AxiLink\b)")


def strip_comments(text: str) -> str:
    """Removes // and /* */ comments (keeps line structure for matching)."""
    text = re.sub(r"/\*.*?\*/", lambda m: re.sub(r"[^\n]", " ", m.group(0)),
                  text, flags=re.DOTALL)
    return re.sub(r"//[^\n]*", "", text)


def class_bodies(text: str):
    """Yields (name, bases, body) for each top-ish class in `text`.

    `text` must be comment-stripped; bodies are extracted by brace matching
    from the declaration's opening brace. Nested classes are reported too
    (harmless: they rarely derive from Component).
    """
    for m in CLASS_RE.finditer(text):
        name, base_list = m.group(1), m.group(2) or ""
        bases = []
        for chunk in base_list.split(","):
            bm = BASE_RE.match(chunk.strip())
            if bm:
                bases.append(bm.group(1))
        depth = 0
        start = m.end() - 1
        for i in range(start, len(text)):
            if text[i] == "{":
                depth += 1
            elif text[i] == "}":
                depth -= 1
                if depth == 0:
                    yield name, bases, text[start:i + 1]
                    break


class ClassFacts:
    """What the checker needs to know about one class, however collected."""

    def __init__(self, name: str, path: pathlib.Path):
        self.name = name
        self.path = path
        self.bases: list[str] = []
        self.owns_channels = False


def collect_regex(src: pathlib.Path) -> dict[str, ClassFacts]:
    """The dependency-free collector: regex + brace matching."""
    facts: dict[str, ClassFacts] = {}
    for path in sorted(src.rglob("*.hpp")):
        raw = path.read_text(encoding="utf-8")
        for name, bases, body in class_bodies(strip_comments(raw)):
            if name in facts:
                continue  # first definition wins; duplicates are rare
            f = ClassFacts(name, path)
            f.bases = bases
            f.owns_channels = any(OWNED_CHANNEL_RE.match(line)
                                  for line in body.splitlines())
            facts[name] = f
    return facts


def load_libclang():
    """Returns a working clang.cindex module, or None with a reason."""
    try:
        import clang.cindex as cindex  # noqa: PLC0415 (optional dependency)
    except ImportError as e:
        return None, f"python clang bindings unavailable ({e})"
    try:
        cindex.Index.create()
        return cindex, None
    except Exception as e:  # libclang .so missing / version mismatch
        return None, f"libclang not loadable ({e})"


def collect_ast(src: pathlib.Path, cindex) -> dict[str, ClassFacts]:
    """The libclang collector: real base specifiers and member types.

    Each header parses standalone with the repo include path; unresolved
    includes degrade individual types to `int` but never hide a class
    definition, so the class graph stays complete.
    """
    index = cindex.Index.create()
    args = ["-x", "c++", "-std=c++17", f"-I{src}", "-fsyntax-only"]
    facts: dict[str, ClassFacts] = {}

    def visit(cursor, path):
        for child in cursor.get_children():
            kind = child.kind
            if kind in (cindex.CursorKind.NAMESPACE,
                        cindex.CursorKind.UNEXPOSED_DECL,
                        cindex.CursorKind.LINKAGE_SPEC):
                visit(child, path)
                continue
            if kind not in (cindex.CursorKind.CLASS_DECL,
                            cindex.CursorKind.STRUCT_DECL,
                            cindex.CursorKind.CLASS_TEMPLATE):
                continue
            if not child.is_definition() or not child.spelling:
                continue
            name = child.spelling
            if name in facts:
                visit(child, path)  # still recurse for nested classes
                continue
            f = ClassFacts(name, path)
            for node in child.get_children():
                nk = node.kind
                if nk == cindex.CursorKind.CXX_BASE_SPECIFIER:
                    base = node.type.spelling.split("<")[0]
                    f.bases.append(base.split("::")[-1].strip())
                elif nk == cindex.CursorKind.FIELD_DECL:
                    t = node.type.spelling
                    if "*" in t or "&" in t:
                        continue  # views of foreign state
                    if AST_CHANNEL_TYPE_RE.search(t):
                        f.owns_channels = True
            facts[name] = f
            visit(child, path)  # nested classes

    for path in sorted(src.rglob("*.hpp")):
        tu = index.parse(str(path), args=args)
        visit(tu.cursor, path)
    return facts


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", default=None,
                        help="repository root (default: two levels up)")
    parser.add_argument("--mode", choices=("auto", "ast", "regex"),
                        default="auto",
                        help="fact collector (auto: ast if libclang works)")
    args = parser.parse_args()
    root = pathlib.Path(args.root) if args.root else \
        pathlib.Path(__file__).resolve().parents[2]
    src = root / "src"
    if not src.is_dir():
        print(f"check_contracts: no src/ under {root}", file=sys.stderr)
        return 1

    mode = args.mode
    cindex = None
    if mode in ("auto", "ast"):
        cindex, why = load_libclang()
        if cindex is None:
            # Graceful fallback: an explicit --mode ast degrades with a
            # warning rather than skipping the check — a missing optional
            # toolchain must never turn the contract scan off.
            print(f"check_contracts: AST mode unavailable: {why}; "
                  f"falling back to regex", file=sys.stderr)
            mode = "regex"
        else:
            mode = "ast"

    if mode == "ast":
        facts = collect_ast(src, cindex)
    else:
        facts = collect_regex(src)

    # Suppression markers and call-site search work on raw text in both
    # modes (a call site is a textual fact; no parse needed to find it).
    raw_texts = {p: p.read_text(encoding="utf-8")
                 for p in sorted(src.rglob("*.hpp"))}

    def derives_from_component(name: str, seen=None) -> bool:
        if seen is None:
            seen = set()
        if name in seen:
            return False
        seen.add(name)
        for b in facts[name].bases if name in facts else []:
            if b == "Component" or derives_from_component(b, seen):
                return True
        return False

    def raw_body(name: str) -> str:
        """The class body with comments intact (suppression markers)."""
        raw = raw_texts.get(facts[name].path, "")
        for n, _, body in class_bodies(raw):
            if n == name:
                return body
        return ""

    def impl_text(name: str) -> str:
        """Header text + the sibling .cpp of the class's header, if any."""
        path = facts[name].path
        text = raw_texts.get(path, "")
        cpp = path.with_suffix(".cpp")
        if cpp.exists():
            text += cpp.read_text(encoding="utf-8")
        return text

    violations = 0
    components = sorted(n for n in facts if derives_from_component(n))
    for name in components:
        if not facts[name].owns_channels:
            continue
        text = impl_text(name)
        if ("add_endpoint" not in text and "attach_endpoint" not in text
                and "contracts: allow-no-endpoint" not in raw_body(name)):
            violations += 1
            rel = facts[name].path.relative_to(root)
            print(f"{rel}: class {name}: owns TimingChannel/AxiLink "
                  f"members but never calls add_endpoint()/"
                  f"attach_endpoint() — connectivity checks cannot "
                  f"see its channel edges")

    print(f"check_contracts ({mode}): {len(components)} Component "
          f"subclass(es), {violations} violation(s)")
    return violations


if __name__ == "__main__":
    sys.exit(main())
