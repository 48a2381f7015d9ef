"""Every imported name is used.

Parses each package module (except __init__.py, which re-exports names),
each test file and each script with ast, and lists the names an import
binds that the file never reads.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(p for p in (ROOT / "src" / "virlog").glob("*.py") if p.name != "__init__.py")
FILES += sorted((ROOT / "tests").glob("*.py"))
FILES += sorted((ROOT / "scripts").glob("*.py"))


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.partition(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_scan_finds_unused_names():
    source = (
        "from __future__ import annotations\n"
        "import os, os.path, json as j\n"
        "from x import a, b\n"
        "print(a, j.dumps)\n"
    )
    assert unused_imports(source) == ["b", "os"]


@pytest.mark.parametrize("path", FILES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
