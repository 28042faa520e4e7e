#!/usr/bin/env python3
"""Fail when a source module includes a header of a module it does not link.

Every directory src/<n>/ is one library. Its CMakeLists.txt declares the
library with add_library() and its dependencies with
target_link_libraries(). A file under src/<n>/ may include
"ftm/<m>/..." only when <m> is <n> itself or a module that <n> links,
directly or transitively. An include that breaks the rule compiles today
only because the include path happens to be visible, and it hides an
upward dependency (a lower layer reaching into one built on top of it).

Usage: python3 tools/check_layers.py [repo_root]
Exit code 0 = every include respects the link graph, 1 = at least one
does not (each is printed as path:line: message).
"""

import pathlib
import re
import sys

ADD_LIBRARY_RE = re.compile(r"add_library\(\s*([\w:]+)")
LINK_RE = re.compile(r"target_link_libraries\(\s*([\w:]+)([^)]*)\)", re.S)
INCLUDE_RE = re.compile(r'^\s*#\s*include\s+"ftm/([^/"]+)/')
LINK_KEYWORDS = {"PUBLIC", "PRIVATE", "INTERFACE"}
SOURCE_SUFFIXES = {".hpp", ".h", ".cpp", ".cc"}


def link_graph(src: pathlib.Path) -> dict[str, set[str]]:
    """Module directory name -> module directory names it links directly."""
    target_of: dict[str, str] = {}
    links: dict[str, list[str]] = {}
    for cmake in sorted(src.glob("*/CMakeLists.txt")):
        module = cmake.parent.name
        text = cmake.read_text()
        for target in ADD_LIBRARY_RE.findall(text):
            target_of[target] = module
        for target, deps in LINK_RE.findall(text):
            if target_of.get(target) == module:
                links.setdefault(module, []).extend(
                    d for d in deps.split() if d not in LINK_KEYWORDS)
    return {
        module: {target_of[d] for d in deps if d in target_of}
        for module, deps in links.items()
    } | {m: set() for m in target_of.values() if m not in links}


def closure(graph: dict[str, set[str]], module: str) -> set[str]:
    seen = {module}
    stack = [module]
    while stack:
        for dep in graph.get(stack.pop(), ()):
            if dep not in seen:
                seen.add(dep)
                stack.append(dep)
    return seen


def violations(root: pathlib.Path) -> list[str]:
    src = root / "src"
    graph = link_graph(src)
    bad = []
    for module in sorted(graph):
        allowed = closure(graph, module)
        for path in sorted((src / module).rglob("*")):
            if path.suffix not in SOURCE_SUFFIXES:
                continue
            lines = path.read_text().splitlines()
            for lineno, line in enumerate(lines, start=1):
                m = INCLUDE_RE.match(line)
                if m and m.group(1) not in allowed:
                    bad.append(f"{path.relative_to(root)}:{lineno}: "
                               f"src/{module} includes ftm/{m.group(1)}/ "
                               f"but does not link it")
    return bad


def main() -> int:
    root = pathlib.Path(sys.argv[1] if len(sys.argv) > 1 else ".").resolve()
    bad = violations(root)
    for line in bad:
        print(line)
    if bad:
        print(f"{len(bad)} include(s) cross the module link graph")
        return 1
    print("module layering OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
