"""Every name a ``trendlab`` module imports is used by that module."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import trendlab

SOURCES = sorted(Path(trendlab.__file__).parent.glob("*.py"))


def _unused_imports(source: str) -> list[tuple[int, str]]:
    """The (line, name) of each imported name ``source`` never reads, but those in ``__all__``."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_module_uses_every_name_it_imports(path):
    assert _unused_imports(path.read_text(encoding="utf-8")) == []


def test_an_unused_import_is_found():
    source = "import os\nimport numpy as np\nfrom .x import a, b\n__all__ = ['b']\nprint(np)\n"
    assert _unused_imports(source) == [(1, "os"), (3, "a")]
