"""Every public name is read somewhere outside the tests."""

from __future__ import annotations

import ast
from pathlib import Path

import relfrob

ROOT = Path(__file__).resolve().parent.parent


def read_names(paths) -> set[str]:
    """The names and attributes that the code in paths loads."""
    out = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                out.add(node.id)
            elif isinstance(node, ast.Attribute):
                out.add(node.attr)
    return out


def test_every_export_has_a_reader_outside_the_tests():
    # the package (its exports aside), the CLI among it, and the benchmark
    package = [p for p in (ROOT / "src" / "relfrob").glob("*.py") if p.name != "__init__.py"]
    readers = read_names(package + sorted((ROOT / "bench").glob("*.py")))
    assert sorted(set(relfrob.__all__) - readers) == []
