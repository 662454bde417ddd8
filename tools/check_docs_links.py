#!/usr/bin/env python3
"""Verify that the docs' internal references resolve.

Checks, for each markdown file given (default: the top-level docs):

* inline markdown links ``[text](target)`` whose target is not an
  external URL or a pure anchor must point at an existing file or
  directory (relative to the doc's location);
* inline-code references to markdown files (`` `SOMETHING.md` ``) must
  exist — the docs cross-reference each other this way;
* in DESIGN.md's module-map table, every `` `*.py` `` named in a row must
  exist under ``src/repro/<that row's package>/``.

Fenced code blocks are ignored.  Exit status 0 when everything
resolves, 1 otherwise (one line per broken reference).

Usage::

    python tools/check_docs_links.py [FILE.md ...]
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

DEFAULT_DOCS = [
    "README.md", "ARCHITECTURE.md", "OBSERVABILITY.md", "EXPERIMENTS.md",
    "DESIGN.md", "CHANGELOG.md", "ANALYSIS.md", "CHECKPOINTS.md",
]

LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
CODE_MD_RE = re.compile(r"`([A-Za-z0-9_./-]+\.md)`")
CODE_PY_RE = re.compile(r"`([A-Za-z0-9_/]+\.py)`")
MODULE_MAP_RE = re.compile(r"^## .*module map.*$", re.IGNORECASE | re.MULTILINE)
PACKAGE_ROOT = REPO_ROOT / "src" / "repro"
EXTERNAL = ("http://", "https://", "mailto:")


def strip_fences(text: str) -> str:
    out, in_fence = [], False
    for line in text.splitlines():
        if line.lstrip().startswith("```"):
            in_fence = not in_fence
            continue
        if not in_fence:
            out.append(line)
    return "\n".join(out)


def check_file(path: Path) -> list:
    text = strip_fences(path.read_text(encoding="utf-8"))
    errors = []
    targets = set()
    for match in LINK_RE.finditer(text):
        target = match.group(1)
        if target.startswith(EXTERNAL) or target.startswith("#"):
            continue
        targets.add(target.split("#")[0])
    for match in CODE_MD_RE.finditer(text):
        targets.add(match.group(1))
    for target in sorted(t for t in targets if t):
        resolved = (path.parent / target).resolve()
        if not resolved.exists():
            errors.append(f"{path.relative_to(REPO_ROOT)}: broken reference "
                          f"-> {target}")
    if path.name == "DESIGN.md":
        errors.extend(check_module_map(path, text))
    return errors


def check_module_map(path: Path, text: str) -> list:
    """Each module a module-map row names must exist in its package."""
    name = path.relative_to(REPO_ROOT)
    heading = MODULE_MAP_RE.search(text)
    if heading is None:
        return [f"{name}: no '## ... module map' section"]
    section = text[heading.end():]
    end = section.find("\n## ")
    if end != -1:
        section = section[:end]
    errors = []
    for line in section.splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if len(cells) < 2 or not cells[0].startswith("`"):
            continue  # not a table row, or the header/separator row
        package = cells[0].strip("`")
        for module in CODE_PY_RE.findall(cells[1]):
            if not (PACKAGE_ROOT / package / module).is_file():
                errors.append(f"{name}: module map lists missing module "
                              f"-> src/repro/{package}/{module}")
    return errors


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    files = [Path(a).resolve() for a in argv] if argv else [
        REPO_ROOT / name for name in DEFAULT_DOCS
    ]
    errors = []
    for path in files:
        if not path.exists():
            errors.append(f"missing doc: {path}")
            continue
        errors.extend(check_file(path))
    for err in errors:
        print(err)
    if not errors:
        print(f"OK: {len(files)} doc(s), all internal references resolve")
    return 1 if errors else 0


if __name__ == "__main__":
    raise SystemExit(main())
