"""Every name a package module imports is used there or listed in ``__all__``.

A removal that leaves its import behind fails here instead of lingering
as a dependency nothing needs.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "morphkv"


def unused_imports(source: str) -> list[str]:
    """The imported names ``source`` neither reads nor lists in ``__all__``."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return sorted(imported - used)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda path: path.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_unused_import_is_flagged():
    source = (
        "from __future__ import annotations\n"
        "import os\nimport numpy as np\nimport xml.dom\nfrom .x import a, b, c\n"
        "__all__ = ['b']\nnp.zeros(1)\nxml.dom\nc()\n"
    )
    assert unused_imports(source) == ["a", "os"]
