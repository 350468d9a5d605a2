#!/usr/bin/env python3
"""Counts the settable knobs of the library: the public data members, by
struct, of every struct or class named *Config, *Options or *Thresholds in
the headers under src/.

A knob is a data member declared directly in such a type (nested types,
static members, type aliases and member functions are not knobs). Each
type prints one line, "Type (header): n  member, member, ...", then the
total.

    python3 tools/knob_count.py [SRC_DIR]    # default: src next to tools/
"""
import pathlib
import re
import sys

TYPE_RE = re.compile(
    r"\b(struct|class)\s+(\w*(?:Config|Options|Thresholds))\b[^;{]*\{")
NOT_MEMBER_RE = re.compile(
    r"^(static|using|typedef|friend|struct|class|enum|union|template)\b")
FUNCTION_RE = re.compile(
    r"\)\s*(const|noexcept|override|final|&|\s)*(=\s*(default|delete|0))?$")


def strip_comments(text):
    text = re.sub(r"/\*.*?\*/", " ", text, flags=re.S)
    return re.sub(r"//[^\n]*", " ", text)


def body_at_depth_one(text, start):
    """The text of the braced body opening at text[start], with every nested
    brace block collapsed to "{}" and followed by a ";" when it closes a
    function body, so statements split on ";" alone."""
    depth = 0
    out = []
    for i in range(start, len(text)):
        c = text[i]
        if c == "{":
            depth += 1
            if depth == 2:
                out.append("{")
            elif depth == 1:
                continue
        elif c == "}":
            depth -= 1
            if depth == 0:
                return "".join(out)
            if depth == 1:
                out.append("}")
                head = "".join(out).rsplit(";", 1)[-1]
                head = head[: head.rfind("{")]
                if FUNCTION_RE.search(head.strip()):
                    out.append(";")
                continue
        if depth == 1:
            out.append(c)
    return "".join(out)


def declarators(statement):
    """Names declared by one member statement (comma-separated ones too)."""
    decl = re.split(r"=|\{", statement, maxsplit=1)[0].strip()
    if not decl or "operator" in decl or FUNCTION_RE.search(decl):
        return []
    parts, level, current = [], 0, ""
    for c in statement:
        level += c in "<([{"
        level -= c in ">)]}"
        if c == "," and level == 0:
            parts.append(current)
            current = ""
        else:
            current += c
    parts.append(current)
    names = []
    for part in parts:
        name = re.split(r"=|\{|\[", part, maxsplit=1)[0].strip()
        match = re.search(r"(\w+)$", name)
        if match:
            names.append(match.group(1))
    return names


def knobs(body, is_class):
    public = not is_class
    found = []
    for statement in body.split(";"):
        statement = statement.strip()
        while True:
            access = re.match(r"^(public|private|protected)\s*:", statement)
            if not access:
                break
            public = access.group(1) == "public"
            statement = statement[access.end():].strip()
        if not statement or not public or NOT_MEMBER_RE.match(statement):
            continue
        found += declarators(statement)
    return found


def main():
    src = pathlib.Path(sys.argv[1]) if len(sys.argv) > 1 else (
        pathlib.Path(__file__).resolve().parent.parent / "src")
    total = 0
    for header in sorted(src.rglob("*.h")):
        text = strip_comments(header.read_text())
        for match in TYPE_RE.finditer(text):
            names = knobs(body_at_depth_one(text, match.end() - 1),
                          match.group(1) == "class")
            total += len(names)
            print(f"{match.group(2)} ({header.relative_to(src)}): "
                  f"{len(names)}  {', '.join(names)}")
    print(f"total settable fields: {total}")


if __name__ == "__main__":
    main()
