#!/usr/bin/env python3
"""Docs consistency check: dead links, stale file references and imports.

Scans ``README.md``, ``PAPER.md`` and every ``docs/*.md`` for

* **intra-repo markdown links** — ``[text](target)`` where ``target`` is not
  an external URL or a bare anchor must resolve to an existing file or
  directory relative to the referencing document (fragments are stripped);
* **repo paths quoted in ``sh``/``python`` code fences** — any token that
  looks like a path into a tracked top-level directory (``src/…``,
  ``docs/…``, ``examples/…``, ``benchmarks/…``, ``tools/…``, ``tests/…``)
  or a root-level ``*.md``/``*.py`` file must exist, so quickstart commands
  and examples cannot silently rot;
* **``repro`` imports in ``python`` code fences** — every ``from repro…
  import name`` must import (with ``src`` on ``sys.path``) and name an
  attribute or submodule that exists, so API snippets cannot outlive the
  API.  Blocks that do not parse as Python are skipped.

Exit status is non-zero if anything is dangling; every finding is printed
as ``file:line: message``.  Run locally or in CI from anywhere inside the
repository::

    python tools/check_docs.py
"""

from __future__ import annotations

import ast
import importlib
import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Top-level directories whose paths inside code fences are checked.
CHECKED_DIRS = ("src", "docs", "examples", "benchmarks", "tools", "tests")

_LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
_FENCE_RE = re.compile(r"^```(\w*)\s*$")
_DIR_PATH_RE = re.compile(
    r"(?<![\w./-])(?:%s)/[\w.][\w./-]*" % "|".join(CHECKED_DIRS)
)
_ROOT_FILE_RE = re.compile(r"(?<![\w./@-])[A-Za-z][\w.-]*\.(?:md|py)\b")
_EXTERNAL = ("http://", "https://", "mailto:")


def _documents():
    docs = [REPO_ROOT / "README.md", REPO_ROOT / "PAPER.md"]
    docs.extend(sorted((REPO_ROOT / "docs").glob("*.md")))
    return [path for path in docs if path.exists()]


def _exists(target: Path) -> bool:
    return target.exists()


def check_links(path: Path, lines) -> list:
    """Dead intra-repo markdown links (checked in prose and fences alike)."""
    errors = []
    for lineno, line in enumerate(lines, 1):
        for target in _LINK_RE.findall(line):
            if target.startswith(_EXTERNAL) or target.startswith("#"):
                continue
            relative = target.split("#", 1)[0]
            if not relative:
                continue
            resolved = (path.parent / relative).resolve()
            if not _exists(resolved):
                try:
                    shown = resolved.relative_to(REPO_ROOT)
                except ValueError:
                    shown = resolved  # link escapes the repository root
                errors.append(
                    f"{path.relative_to(REPO_ROOT)}:{lineno}: dead link "
                    f"({target!r} -> missing {shown})"
                )
    return errors


def _fence_blocks(lines):
    """Yield (language, first lineno, lines) for every code fence."""
    language, start, block = None, 0, []
    for lineno, line in enumerate(lines, 1):
        match = _FENCE_RE.match(line.strip())
        if match and language is None:
            language, start, block = match.group(1).lower(), lineno + 1, []
        elif match:
            yield language, start, block
            language = None
        elif language is not None:
            block.append(line)
    if language is not None:  # unclosed fence: runs to the end of file
        yield language, start, block


def check_fence_paths(path: Path, lines) -> list:
    """Stale repo-path references inside sh/python code fences."""
    errors = []
    for language, start, block in _fence_blocks(lines):
        if language not in ("sh", "bash", "shell", "python", "py"):
            continue
        for lineno, line in enumerate(block, start):
            candidates = set(_DIR_PATH_RE.findall(line))
            candidates.update(_ROOT_FILE_RE.findall(line))
            for candidate in candidates:
                cleaned = candidate.rstrip("/.,:;")
                # Both dir-prefixed paths and bare *.md / *.py names resolve
                # against the repo root (the working directory every
                # documented command assumes).
                resolved = REPO_ROOT / cleaned
                if not _exists(resolved):
                    errors.append(
                        f"{path.relative_to(REPO_ROOT)}:{lineno}: code fence "
                        f"references missing file {cleaned!r}"
                    )
    return errors


def _missing_name(module: str, name: str) -> str:
    """Why ``from module import name`` fails, or "" when it works."""
    try:
        imported = importlib.import_module(module)
    except ImportError as error:
        return f"cannot import {module} ({error})"
    if hasattr(imported, name):
        return ""
    try:
        importlib.import_module(f"{module}.{name}")
    except ImportError:
        return f"{module} has no name {name!r}"
    return ""


def check_fence_imports(path: Path, lines) -> list:
    """``from repro… import …`` lines in python fences that would fail."""
    src = str(REPO_ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    errors = []
    for language, start, block in _fence_blocks(lines):
        if language not in ("python", "py"):
            continue
        try:
            tree = ast.parse("\n".join(block))
        except SyntaxError:
            continue
        for node in ast.walk(tree):
            if not (isinstance(node, ast.ImportFrom) and node.level == 0
                    and node.module.split(".")[0] == "repro"):
                continue
            for alias in node.names:
                problem = alias.name != "*" and _missing_name(
                    node.module, alias.name
                )
                if problem:
                    errors.append(
                        f"{path.relative_to(REPO_ROOT)}:"
                        f"{start + node.lineno - 1}: code fence import "
                        f"fails: {problem}"
                    )
    return errors


def main() -> int:
    errors = []
    documents = _documents()
    for path in documents:
        lines = path.read_text(encoding="utf-8").splitlines()
        errors.extend(check_links(path, lines))
        errors.extend(check_fence_paths(path, lines))
        errors.extend(check_fence_imports(path, lines))
    for error in sorted(errors):
        print(error)
    print(
        f"check_docs: {len(documents)} documents, "
        f"{len(errors)} problem(s)", file=sys.stderr
    )
    return 1 if errors else 0


if __name__ == "__main__":
    raise SystemExit(main())
