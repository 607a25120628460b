"""Every name a package module imports is used there or listed in ``__all__``,
every annotation in the package resolves, and the package exports exactly
the public names the README lists.

A removal that leaves its import behind fails here instead of lingering
as a dependency nothing needs. A name used only in a string annotation
counts as used, and it must also be importable there: ``typing.get_type_hints``
evaluates every annotation in its module.
"""

import ast
import importlib
import inspect
import pkgutil
import re
import typing
from pathlib import Path

import pytest

import morphkv

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src" / "morphkv"
PUBLIC = [
    "EvictionPolicyConfig",
    "ModelConfig",
    "RunConfig",
    "RunResult",
    "StepTrace",
    "compare",
    "load_run_config",
    "oracle_regression",
    "run",
    "start_runs",
    "step_runs",
]


def annotations(tree: ast.AST):
    """Every annotation node of ``tree``: arguments, returns and annotated assignments."""
    for node in ast.walk(tree):
        if isinstance(node, ast.arg | ast.AnnAssign) and node.annotation is not None:
            yield node.annotation
        elif isinstance(node, ast.FunctionDef | ast.AsyncFunctionDef) and node.returns is not None:
            yield node.returns


def annotation_names(tree: ast.AST) -> set[str]:
    """The names read by string annotations, each parsed as an expression."""
    names = set()
    for annotation in annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                parsed = ast.parse(node.value, mode="eval")
                names.update(n.id for n in ast.walk(parsed) if isinstance(n, ast.Name))
    return names


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
    used |= annotation_names(tree)
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


def test_string_annotation_uses_its_names():
    source = (
        "from .x import A, B, C, D\n"
        "def f(a: 'A', *, b: \"list[B | None]\") -> 'dict[str, C]':\n"
        "    v: 'D' = 0\n"
    )
    assert unused_imports(source) == []
    assert unused_imports(source.replace(", D", ", D, E")) == ["E"]


MODULES = sorted(info.name for info in pkgutil.iter_modules(morphkv.__path__))


def annotated(module):
    """Every function and class ``module`` defines, and every method (plain,
    class, static or property getter) those classes define, by name."""
    for name, obj in vars(module).items():
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isclass(obj):
            yield name, obj
            for attr, member in vars(obj).items():
                member = getattr(member, "__func__", getattr(member, "fget", member))
                if inspect.isfunction(member):
                    yield f"{name}.{attr}", member
        elif inspect.isfunction(inspect.unwrap(obj)):
            yield name, obj


@pytest.mark.parametrize("name", MODULES)
def test_every_annotation_resolves(name):
    unresolved = []
    for qualname, obj in annotated(importlib.import_module(f"morphkv.{name}")):
        try:
            typing.get_type_hints(obj)
        except NameError as exc:
            unresolved.append(f"{qualname}: {exc}")
    assert unresolved == []


def test_package_exports_exactly_the_public_names():
    assert sorted(morphkv.__all__) == PUBLIC
    assert all(hasattr(morphkv, name) for name in PUBLIC)


def test_readme_lists_exactly_the_exports():
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Python API\n", 1)[1].split("\n## ", 1)[0]
    listed = re.findall(r"^- `(\w+)`", section, flags=re.MULTILINE)
    assert sorted(listed) == sorted(morphkv.__all__)
