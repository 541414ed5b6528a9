"""Repository hygiene: no tracked bytecode, no rotten documentation.

Compiled ``.pyc`` files are host- and version-specific; once committed they
shadow real source changes and bloat every diff.  The tier-1 suite (and CI)
fails if any reappear in the index.  The docs checker
(``tools/check_docs.py``, also a CI step) keeps markdown links and the file
paths quoted in doc code fences pointing at files that exist, and the
``repro`` imports in python fences pointing at names that exist.
"""

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent


def _tracked_files():
    result = subprocess.run(
        ["git", "ls-files"],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
        check=True,
    )
    return result.stdout.splitlines()


@pytest.mark.skipif(
    shutil.which("git") is None or not (REPO_ROOT / ".git").exists(),
    reason="not a git checkout",
)
def test_no_tracked_bytecode():
    offenders = [
        path
        for path in _tracked_files()
        if path.endswith((".pyc", ".pyo")) or "__pycache__" in path
    ]
    assert not offenders, (
        "generated bytecode is tracked by git (add it to .gitignore and "
        f"`git rm --cached` it): {offenders}"
    )


@pytest.mark.skipif(
    not (REPO_ROOT / ".gitignore").exists(), reason="no .gitignore"
)
def test_gitignore_covers_bytecode():
    ignored = (REPO_ROOT / ".gitignore").read_text()
    for pattern in ("__pycache__/", "*.pyc", ".pytest_cache/"):
        assert pattern in ignored, f".gitignore must cover {pattern}"


def test_docs_links_and_file_references():
    """The CI docs check must pass: no dead intra-repo markdown links, no
    code fences referencing files that do not exist."""
    result = subprocess.run(
        [sys.executable, str(REPO_ROOT / "tools" / "check_docs.py")],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, (
        f"tools/check_docs.py found problems:\n{result.stdout}{result.stderr}"
    )


def test_docs_check_flags_stale_fence_imports():
    """A ``from repro… import`` in a python fence must name something that
    exists; unparsable blocks and other languages are left alone."""
    import importlib.util

    spec = importlib.util.spec_from_file_location(
        "check_docs", REPO_ROOT / "tools" / "check_docs.py"
    )
    check_docs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(check_docs)
    lines = [
        "```python",
        "from repro.core.campaign import Axes, no_such_builder",
        "```",
        "```python",
        ">>> from repro.core.campaign import also_missing",
        "```",
        "```sh",
        "from repro.core.campaign import not_python",
        "```",
        "```python",
        "from repro.no_such_module import anything",
        "```",
    ]
    errors = check_docs.check_fence_imports(REPO_ROOT / "docs" / "x.md", lines)
    assert len(errors) == 2
    assert "docs/x.md:2:" in errors[0] and "'no_such_builder'" in errors[0]
    assert "docs/x.md:11:" in errors[1] and "repro.no_such_module" in errors[1]


def test_engines_do_not_spell_out_table_mnemonics():
    """The RV64IM semantics live once, in ``repro.isa.semantics``.

    The tier-1/tier-2 engine and the Rocket timing spans render from that
    table; a string literal naming one of its mnemonics (``== "add"``,
    ``in ("beq", ...)``, a per-mnemonic dict) in either file is the start of
    a second hand-written copy.
    """
    import ast

    from repro.isa.semantics import ALU, BRANCHES, LOADS

    tabled = set(ALU) | set(BRANCHES) | set(LOADS)
    offenders = []
    for relative in ("src/repro/sim/executor.py", "src/repro/rocket/timing.py"):
        tree = ast.parse((REPO_ROOT / relative).read_text())
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Constant)
                and isinstance(node.value, str)
                and node.value in tabled
            ):
                offenders.append(f"{relative}:{node.lineno}: {node.value!r}")
    assert not offenders, (
        "table mnemonics spelled out in an engine (render from "
        f"repro.isa.semantics instead): {offenders}"
    )
